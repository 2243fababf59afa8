"""Experiment harness: run (scheduler, seed) grids and write result bundles.

A bundle directory is fully determined by its config: reports are JSON with a
schema_version field, plot data is CSV, and nothing timestamped or
machine-specific is ever written, so identical configs produce bit-identical
bundles.

Event-log record format (one JSON object per processed engine event, written
when `write_events` is on): {"seq": int, "t": seconds, "type":
"arrival"|"departure"|"probe"|"poll", ...} with per-type payload fields as
produced by Engine.step().
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import metrics
from .engine import Engine, EngineParams
from .schedulers import (ECMP, HYBRID, NONBLOCKING, SCHEDULER_NAMES,
                         SchedulerKind)
from .topology import Topology, build_fat_tree, build_nonblocking
from .traffic import WorkloadError, WorkloadSpec, generate_workload

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """Benchmark defaults: a k=4 fat-tree with 10 Mb/s links carrying 28
    open-ended cross-bisection elephants at 0.55x link capacity each, with a
    mice probe stream alongside every elephant."""

    k: int = 4
    capacity: float = 10e6  # bits/second per link
    schedulers: list[str] = field(default_factory=lambda: [HYBRID, ECMP])
    seeds: list[int] = field(default_factory=lambda: list(range(20)))
    duration: float = 40.0  # simulated seconds per run
    poll_interval: float = 1.0
    detection_threshold: float = 50_000.0  # bits/s for elephant classification
    alpha: float = 1.0  # scalarized controller trade-off (Mb/s per elephant)
    elephant_threshold: float = 0.1  # Hedera demand cutoff, fraction of capacity
    pattern: str = "random_bisection"
    elephants: int = 28
    arrival_rate: float = 2.0  # flows/second
    flow_duration: Optional[float] = None  # None = until the horizon
    demand: Optional[float] = 5.5e6  # None = link capacity
    probe_interval: Optional[float] = 1.0  # None = no mice streams
    base_hop_latency: float = 50e-6
    queuing_scale: float = 500e-6
    rho_cap: float = 0.99
    out_dir: str = "results"
    write_events: bool = False

    def validate(self) -> None:
        if not isinstance(self.k, int) or self.k < 2 or self.k % 2:
            raise ConfigError(f"k: must be an even integer >= 2, got {self.k!r}")
        if not (math.isfinite(self.capacity) and self.capacity > 0):
            raise ConfigError(
                f"capacity: must be finite and > 0, got {self.capacity!r}")
        if not self.schedulers:
            raise ConfigError("schedulers: need at least one")
        for s in self.schedulers:
            if s not in SCHEDULER_NAMES:
                raise ConfigError(
                    f"schedulers: unknown {s!r}, expected one of {SCHEDULER_NAMES}")
        if len(set(self.schedulers)) != len(self.schedulers):
            raise ConfigError("schedulers: duplicates not allowed")
        if not self.seeds:
            raise ConfigError("seeds: need at least one")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds: duplicates not allowed")
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise ConfigError(
                f"duration: must be finite and > 0, got {self.duration!r}")
        if not (0 < self.poll_interval <= self.duration):
            raise ConfigError(
                "poll_interval: must be in (0, duration], got "
                f"{self.poll_interval!r}")
        if not (math.isfinite(self.detection_threshold)
                and self.detection_threshold > 0):
            raise ConfigError(
                "detection_threshold: must be finite and > 0, got "
                f"{self.detection_threshold!r}")
        if not (self.alpha >= 0 and math.isfinite(self.alpha)):
            raise ConfigError(f"alpha: must be finite and >= 0, got {self.alpha!r}")
        if not (0 < self.elephant_threshold <= 1):
            raise ConfigError(
                f"elephant_threshold: must be in (0, 1], got "
                f"{self.elephant_threshold!r}")
        if self.elephants < 0:
            raise ConfigError(f"elephants: must be >= 0, got {self.elephants!r}")
        if not (math.isfinite(self.arrival_rate) and self.arrival_rate > 0):
            raise ConfigError(
                f"arrival_rate: must be finite and > 0, got {self.arrival_rate!r}")
        if self.flow_duration is not None and not (
                math.isfinite(self.flow_duration) and self.flow_duration >= 0):
            raise ConfigError("flow_duration: must be finite and >= 0 or none, "
                              f"got {self.flow_duration!r}")
        if self.demand is not None and not (
                math.isfinite(self.demand) and self.demand > 0):
            raise ConfigError(
                f"demand: must be finite and > 0, got {self.demand!r}")
        if self.probe_interval is not None and not (
                math.isfinite(self.probe_interval) and self.probe_interval > 0):
            raise ConfigError("probe_interval: must be finite and > 0 or none, "
                              f"got {self.probe_interval!r}")
        for name in ("base_hop_latency", "queuing_scale"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name}: must be finite and >= 0, got {value!r}")
        if not (0 < self.rho_cap < 1):
            raise ConfigError(f"rho_cap: must be in (0, 1), got {self.rho_cap!r}")
        try:
            WorkloadSpec(pattern=self.pattern).validate()
        except WorkloadError as exc:
            raise ConfigError(f"pattern: {exc}") from exc

    def scheduler_kind(self, name: str) -> SchedulerKind:
        return SchedulerKind(name, alpha=self.alpha,
                             hedera_fraction=self.elephant_threshold)

    def workload_spec(self, seed: int) -> WorkloadSpec:
        return WorkloadSpec(
            pattern=self.pattern,
            elephant_count=self.elephants,
            seed=seed,
            mean_arrival_rate=self.arrival_rate,
            elephant_demand=self.capacity if self.demand is None else self.demand,
            flow_duration=self.flow_duration,
            mice_probe_interval=self.probe_interval,
        )

    def engine_params(self) -> EngineParams:
        return EngineParams(
            poll_interval=self.poll_interval,
            detection_threshold=self.detection_threshold,
            base_hop_latency=self.base_hop_latency,
            queuing_scale=self.queuing_scale,
            rho_cap=self.rho_cap,
        )


def build_topology(config: ExperimentConfig, scheduler: str) -> Topology:
    if scheduler == NONBLOCKING:
        return build_nonblocking(config.k, config.capacity)
    return build_fat_tree(config.k, config.capacity)


def run_one(config: ExperimentConfig, scheduler: str, seed: int,
            topo: Optional[Topology] = None) -> Engine:
    """Run a single seeded simulation and return the finished engine.

    `topo` is the scheduler's topology from `build_topology`, built here when
    omitted. Runs can share one: it is never mutated, only its per-pair
    path lists are filled in on first use.
    """
    if topo is None:
        topo = build_topology(config, scheduler)
    flows = generate_workload(topo, config.workload_spec(seed))
    engine = Engine(topo, config.scheduler_kind(scheduler), flows,
                    horizon=config.duration, params=config.engine_params(),
                    seed=seed, probe_interval=config.probe_interval)
    return engine.run()


def _json_float(x: Optional[float]) -> Optional[float]:
    # JSON has no Infinity; None marks an unbounded proxy
    if x is None or math.isinf(x):
        return None
    return x


def run_report(config: ExperimentConfig, scheduler: str, seed: int,
               engine: Engine) -> dict:
    """Assemble the per-run metrics + bounds report."""
    topo = engine.topology
    series, mean_bis = metrics.bisection_bandwidth(
        engine.bisection_series, engine.horizon)
    util_vector = None
    cdf = None
    if engine.util_snapshots:
        # per-link time-averaged utilization, in monitored-link-id order
        util_vector = [float(u) for u in
                       np.mean(engine.util_snapshots, axis=0)]
        cdf = metrics.utilization_cdf(engine.util_snapshots)
    if engine.probe_results:
        loss, rtt_dev = metrics.mice_loss_and_rtt(engine.probe_results)
        mice = {
            "probes": len(engine.probe_results),
            "delivered": sum(1 for r in engine.probe_results if r.delivered),
            "loss": loss,
            "rtt_mean_deviation_s": rtt_dev,
        }
    else:
        mice = {"probes": 0, "delivered": 0, "loss": None,
                "rtt_mean_deviation_s": None}

    offered = engine.mean_offered_by_link()
    t_max, t_min = metrics.throughput_bounds(topo, offered)
    l_max, l_min = metrics.latency_proxies(t_max, t_min)
    return {
        "schema_version": SCHEMA_VERSION,
        "scheduler": scheduler,
        "seed": seed,
        "k": config.k,
        "capacity_bps": config.capacity,
        "horizon_s": config.duration,
        "bisection": {"mean_bps": mean_bis, "series": [[t, v] for t, v in series]},
        "link_utilization_mean": util_vector,
        "utilization_cdf": None if cdf is None else [[u, f] for u, f in cdf],
        "cdf_p50": None if cdf is None else metrics.cdf_value_at(cdf, 0.5),
        "mice": mice,
        "decisions": {
            "controller": engine.controller_decisions,
            "proactive": engine.proactive_decisions,
        },
        "monitoring": {
            "polls": engine.polls,
            "port_stat_reads": engine.port_stat_reads,
            "uplink_stat_reads": engine.uplink_stat_reads,
        },
        "bounds": {
            "t_max_bps": t_max,
            "t_min_bps": t_min,
            "l_max_proxy": _json_float(l_max),
            "l_min_proxy": _json_float(l_min),
            "balance_efficiency": metrics.load_balance_efficiency(topo, offered),
            "per_edge_load_bps": metrics.edge_load_distribution(topo, offered),
            "per_agg_load_bps": metrics.aggregate_load(topo, offered),
        },
    }


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _dump_json(path: Path, obj) -> None:
    _write_atomic(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def summarize(reports: list[dict]) -> dict:
    """Cross-scheduler means plus pairwise relative bisection improvements.

    Every number here is recomputable from the per-run reports alone.
    """
    by_sched: dict[str, list[dict]] = {}
    for r in reports:
        by_sched.setdefault(r["scheduler"], []).append(r)

    per_scheduler = {}
    for name, runs in sorted(by_sched.items()):
        bis = [r["bisection"]["mean_bps"] for r in runs]
        losses = [r["mice"]["loss"] for r in runs if r["mice"]["loss"] is not None]
        devs = [r["mice"]["rtt_mean_deviation_s"] for r in runs
                if r["mice"]["rtt_mean_deviation_s"] is not None]
        # pool link utilizations across seeds: mean per link, then one CDF
        vectors = [r["link_utilization_mean"] for r in runs
                   if r["link_utilization_mean"] is not None]
        pooled_p50 = None
        if vectors:
            pooled = metrics.utilization_cdf(vectors)
            pooled_p50 = metrics.cdf_value_at(pooled, 0.5)
        per_scheduler[name] = {
            "runs": len(runs),
            "bisection_mean_bps": float(np.mean(bis)),
            "mice_loss": float(np.mean(losses)) if losses else None,
            "rtt_mean_deviation_s": float(np.mean(devs)) if devs else None,
            "utilization_p50": pooled_p50,
            "controller_decisions_mean": float(np.mean(
                [r["decisions"]["controller"] for r in runs])),
        }

    improvements = {}
    for a in sorted(by_sched):
        for b in sorted(by_sched):
            if a == b:
                continue
            ma = per_scheduler[a]["bisection_mean_bps"]
            mb = per_scheduler[b]["bisection_mean_bps"]
            improvements[f"{a}_over_{b}_bisection"] = (
                (ma - mb) / mb if mb > 0 else None)

    return {
        "schema_version": SCHEMA_VERSION,
        "per_scheduler": per_scheduler,
        "improvements": improvements,
    }


def emit_plot_data(bundle_dir: Path) -> list[Path]:
    """Write the four plot-ready CSVs from a completed bundle's reports."""
    bundle_dir = Path(bundle_dir)
    report_paths = sorted((bundle_dir / "reports").glob("*.json"))
    if not report_paths:
        raise RuntimeError(f"incomplete bundle: no reports under {bundle_dir}")
    reports = [json.loads(p.read_text()) for p in report_paths]
    summary = summarize(reports)

    plots = bundle_dir / "plots"
    plots.mkdir(parents=True, exist_ok=True)
    written = []

    lines = ["scheduler,bisection_mean_bps"]
    for name, row in sorted(summary["per_scheduler"].items()):
        lines.append(f"{name},{row['bisection_mean_bps']!r}")
    p = plots / "bisection_means.csv"
    _write_atomic(p, "\n".join(lines) + "\n")
    written.append(p)

    lines = [
        "# one row per monitored unidirectional link, per-link utilization "
        "averaged over seeds; fat-tree runs cover switch-to-switch links in "
        "both directions, star runs cover access links",
        "scheduler,utilization,cumulative_fraction",
    ]
    by_sched: dict[str, list[dict]] = {}
    for r in reports:
        by_sched.setdefault(r["scheduler"], []).append(r)
    for name, runs in sorted(by_sched.items()):
        vectors = [r["link_utilization_mean"] for r in runs
                   if r["link_utilization_mean"] is not None]
        if not vectors:
            continue
        for u, f in metrics.utilization_cdf(vectors):
            lines.append(f"{name},{u!r},{f!r}")
    p = plots / "utilization_cdf.csv"
    _write_atomic(p, "\n".join(lines) + "\n")
    written.append(p)

    lines = ["scheduler,seed,loss"]
    for r in sorted(reports, key=lambda r: (r["scheduler"], r["seed"])):
        if r["mice"]["loss"] is not None:
            lines.append(f"{r['scheduler']},{r['seed']},{r['mice']['loss']!r}")
    p = plots / "mice_loss.csv"
    _write_atomic(p, "\n".join(lines) + "\n")
    written.append(p)

    lines = ["scheduler,seed,rtt_mean_deviation_s"]
    for r in sorted(reports, key=lambda r: (r["scheduler"], r["seed"])):
        dev = r["mice"]["rtt_mean_deviation_s"]
        if dev is not None:
            lines.append(f"{r['scheduler']},{r['seed']},{dev!r}")
    p = plots / "rtt_deviation.csv"
    _write_atomic(p, "\n".join(lines) + "\n")
    written.append(p)
    return written


def run_experiment(config: ExperimentConfig) -> Path:
    """Run the full (scheduler x seed) grid and write the result bundle."""
    config.validate()
    out = Path(config.out_dir)
    try:
        (out / "reports").mkdir(parents=True, exist_ok=True)
        if config.write_events:
            (out / "events").mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise RuntimeError(f"cannot create output dir {out}: {exc}") from exc

    echo = dataclasses.asdict(config)
    echo.pop("out_dir")  # where the bundle lives is not part of its identity
    _dump_json(out / "config.json", echo)

    reports = []
    for scheduler in config.schedulers:
        topo = build_topology(config, scheduler)
        for seed in config.seeds:
            engine = run_one(config, scheduler, seed, topo)
            report = run_report(config, scheduler, seed, engine)
            reports.append(report)
            _dump_json(out / "reports" / f"{scheduler}_seed{seed}.json", report)
            if config.write_events:
                lines = [json.dumps(rec, sort_keys=True)
                         for rec in engine.event_log]
                _write_atomic(out / "events" / f"{scheduler}_seed{seed}.jsonl",
                              "\n".join(lines) + "\n")

    _dump_json(out / "summary.json", summarize(reports))
    emit_plot_data(out)
    return out
