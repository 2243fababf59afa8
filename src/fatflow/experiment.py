"""Experiment harness: run (scheduler, seed) grids and write result bundles.

A bundle directory is fully determined by its config: reports are JSON with a
schema_version field, plot data is CSV, and nothing timestamped or
machine-specific is ever written, so identical configs produce bit-identical
bundles.

Every JSON file of a bundle (config.json, the reports, summary.json) is
written by `_json_text`, byte for byte what `json.dumps(obj, sort_keys=True,
indent=2)` writes; only a dict key that is not a str is refused, with
TypeError. It writes a list of floats as one join and a list of
equal-length rows of floats through one row template, and looks each float's
text up in a memo that lives for one `run_experiment` call and keeps the
texts of the first 4,096 distinct floats (`_MEMO_FLOATS`). `+0.0 == -0.0`,
so the memo serves only lists in which no float has its sign bit set.

Event-log record format (one JSON object per processed engine event; the
engine builds records only when `write_events` is on, which `run_one` passes
as `log_events`): {"seq": int, "t": seconds, "type":
"arrival"|"departure"|"probe"|"poll", ...} with per-type payload fields as
produced by Engine.step(), each line what `json.dumps(record,
sort_keys=True)` writes, from one `json.JSONEncoder` per bundle.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
from dataclasses import dataclass
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import Optional

from . import metrics
from .engine import Engine, EngineParams
from .rules import (EVEN_K, NON_EMPTY, POSITIVE, check_fields, distinct_list,
                    setting, setting_of)
from .schedulers import ECMP, HYBRID, NONBLOCKING, SCHEDULER, SchedulerKind
from .topology import Topology, build_fat_tree, build_nonblocking
from .traffic import WorkloadSpec, generate_workload

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    """Benchmark defaults: a k=4 fat-tree with 10 Mb/s links carrying 28
    open-ended cross-bisection elephants at 0.55x link capacity each, with a
    mice probe stream alongside every elephant. The engine, scheduler and
    workload fields are declared on `EngineParams`, `SchedulerKind` and
    `WorkloadSpec`, and each of those is built from the fields of the same
    names."""

    k: int = setting(4, "switch port count", EVEN_K)
    capacity: float = setting(10e6, "link capacity in bits/s", POSITIVE)
    schedulers: list[str] = setting(
        lambda: [HYBRID, ECMP], "scheduler to run; repeatable",
        distinct_list(SCHEDULER), flag="scheduler")
    seeds: list[int] = setting(lambda: list(range(20)), "run seed; repeatable",
                               distinct_list(), flag="seed")
    duration: float = setting(40.0, "simulated seconds per run", POSITIVE)
    poll_interval: float = setting_of(EngineParams, "poll_interval",
                                      ", at most the duration")
    detection_threshold: float = setting_of(EngineParams, "detection_threshold")
    alpha: float = setting_of(SchedulerKind, "alpha")
    elephant_threshold: float = setting_of(SchedulerKind, "elephant_threshold")
    pattern: str = setting_of(WorkloadSpec, "pattern")
    elephants: int = setting_of(WorkloadSpec, "elephants")
    arrival_rate: float = setting_of(WorkloadSpec, "arrival_rate")
    flow_duration: Optional[float] = setting_of(WorkloadSpec, "flow_duration")
    demand: Optional[float] = setting_of(WorkloadSpec, "demand")
    probe_interval: Optional[float] = setting_of(WorkloadSpec, "probe_interval")
    base_hop_latency: float = setting_of(EngineParams, "base_hop_latency")
    queuing_scale: float = setting_of(EngineParams, "queuing_scale")
    rho_cap: float = setting_of(EngineParams, "rho_cap")
    out_dir: str = setting("results", "output bundle directory", NON_EMPTY,
                           key="out")
    write_events: bool = setting(
        False, "also write per-run event logs (JSONL)", key="events")

    def validate(self) -> None:
        check_fields(self, ConfigError, ":")
        # the rules that span fields
        if self.poll_interval > self.duration:
            raise ConfigError("poll_interval: must be at most duration, got "
                              f"{self.poll_interval!r}")
        hosts = self.k ** 3 // 4
        if self.pattern == "random_permutation" and self.elephants > hosts:
            raise ConfigError(
                f"elephants: random_permutation pairs each of the {hosts} "
                f"hosts at most once, got {self.elephants}")

    def _build(self, cls: type, **given):
        """A `cls` of `given` and, for each of its other fields, this
        config's field of the same name."""
        return cls(**given, **{f.name: getattr(self, f.name)
                               for f in dataclasses.fields(cls)
                               if f.name not in given})

    def scheduler_kind(self, name: str) -> SchedulerKind:
        return self._build(SchedulerKind, name=name)

    def workload_spec(self, seed: int) -> WorkloadSpec:
        return self._build(WorkloadSpec, seed=seed)

    def engine_params(self) -> EngineParams:
        return self._build(EngineParams)


def build_topology(config: ExperimentConfig, scheduler: str) -> Topology:
    if scheduler == NONBLOCKING:
        return build_nonblocking(config.k, config.capacity)
    return build_fat_tree(config.k, config.capacity)


def run_one(config: ExperimentConfig, scheduler: str, seed: int,
            topo: Optional[Topology] = None) -> Engine:
    """Run a single seeded simulation and return the finished engine.

    `topo` is the scheduler's topology from `build_topology`, built here when
    omitted. Runs can share one: its links never change, and the only
    state it gains is a memo of the candidate `Path`s flows took, built on
    first use.
    """
    if topo is None:
        topo = build_topology(config, scheduler)
    flows = generate_workload(topo, config.workload_spec(seed))
    engine = Engine(topo, config.scheduler_kind(scheduler), flows,
                    horizon=config.duration, params=config.engine_params(),
                    seed=seed, log_events=config.write_events)
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
    snapshots, rtts = engine.util_snapshots, engine.probe_rtts
    # per-link time-averaged utilization, in monitored-link-id order
    util_vector = metrics.column_means(snapshots) if snapshots else None
    cdf = metrics.utilization_cdf(util_vector) if snapshots else None
    loss, rtt_dev = metrics.mice_loss_and_rtt(rtts) if rtts else (None, None)
    mice = {"probes": len(rtts), "delivered": sum(r is not None for r in rtts),
            "loss": loss, "rtt_mean_deviation_s": rtt_dev}

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


# the floats whose texts one bundle keeps, about 100 bytes each: the
# `fatbench` grid-k4 and scale-k8 bundles hold 2,600-3,700 distinct floats,
# while series times that never repeat would grow the memo without bound
_MEMO_FLOATS = 4096


class _FloatTexts(dict):
    """Each float's JSON text, made on its first lookup and kept for the
    first _MEMO_FLOATS floats. `+0.0 == -0.0`, so a float whose sign bit is
    set must never be looked up here."""

    def __missing__(self, x: float) -> str:
        text = _float_text(x)
        if len(self) < _MEMO_FLOATS:
            self[x] = text
        return text


def _float_text(x: float) -> str:
    # what `json` writes for a float, NaN and the infinities included
    if x != x:
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


def _float_texts(xs: list, floats: _FloatTexts):
    """The texts of `xs`, all of type float: through the memo when no float
    has its sign bit set, each on its own otherwise."""
    if min(map(math.copysign, repeat(1.0), xs)) > 0:
        return map(floats.__getitem__, xs)
    return map(_float_text, xs)


def _json_text(obj, floats: _FloatTexts, nl: str = "\n") -> str:
    """`json.dumps(obj, sort_keys=True, indent=2)`, byte for byte, except
    that a dict key that is not a str raises TypeError. `nl` is the newline
    and indentation of the line `obj` starts on. A list of floats is one
    join and a list of equal-length rows of floats one row template, with
    each float's text from `floats`; every other value is written item by
    item."""
    if isinstance(obj, str):
        return _json_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float_text(obj)
    inner = nl + "  "
    sep = "," + inner
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        # `_json_str` raises TypeError for a key that is not a str
        return ("{" + inner + sep.join([
            f"{_json_str(key)}: {_json_text(value, floats, inner)}"
            for key, value in sorted(obj.items())]) + nl + "}")
    if not isinstance(obj, (list, tuple)):
        raise TypeError(
            f"Object of type {type(obj).__name__} is not JSON serializable")
    if not obj:
        return "[]"
    kinds = set(map(type, obj))
    if kinds == {float}:
        return "[" + inner + sep.join(_float_texts(obj, floats)) + nl + "]"
    width = len(obj[0]) if kinds <= {list, tuple} else 0
    if width and set(map(len, obj)) == {width}:
        flat = list(chain.from_iterable(obj))
        if set(map(type, flat)) == {float}:
            deeper = inner + "  "
            row = ("[" + deeper + ("," + deeper).join(["%s"] * width)
                   + inner + "]")
            texts = _float_texts(flat, floats)
            rows = map(row.__mod__, zip(*[texts] * width))
            return "[" + inner + sep.join(rows) + nl + "]"
    return ("[" + inner + sep.join([_json_text(x, floats, inner) for x in obj])
            + nl + "]")


def _dump_json(path: Path, obj, floats: Optional[_FloatTexts] = None) -> None:
    """Write `obj` as `_json_text` does, with a final newline. `floats` is
    the bundle's float memo; a fresh one when omitted."""
    _write_atomic(path, _json_text(
        obj, _FloatTexts() if floats is None else floats) + "\n")


def _by_scheduler(reports: list[dict]) -> dict[str, tuple[list[dict], Optional[list]]]:
    """Each scheduler's runs in seed order, by scheduler name, with the
    utilization CDF pooled over them (the per-link means averaged across
    seeds), None when no run monitored a link."""
    by_sched: dict[str, list[dict]] = {}
    for r in sorted(reports, key=lambda r: (r["scheduler"], r["seed"])):
        by_sched.setdefault(r["scheduler"], []).append(r)
    pooled = {}
    for name, runs in by_sched.items():
        vectors = [r["link_utilization_mean"] for r in runs
                   if r["link_utilization_mean"] is not None]
        pooled[name] = runs, (metrics.utilization_cdf(metrics.column_means(vectors))
                              if vectors else None)
    return pooled


def summarize(reports: list[dict]) -> dict:
    """Cross-scheduler means plus pairwise relative bisection improvements.

    Every number here is recomputable from the per-run reports alone, in
    any order: each scheduler's runs are taken in seed order.
    """
    by_sched = _by_scheduler(reports)
    per_scheduler = {}
    for name, (runs, cdf) in by_sched.items():
        bis = [r["bisection"]["mean_bps"] for r in runs]
        losses = [r["mice"]["loss"] for r in runs if r["mice"]["loss"] is not None]
        devs = [r["mice"]["rtt_mean_deviation_s"] for r in runs
                if r["mice"]["rtt_mean_deviation_s"] is not None]
        per_scheduler[name] = {
            "runs": len(runs),
            "bisection_mean_bps": metrics.mean(bis),
            "mice_loss": metrics.mean(losses) if losses else None,
            "rtt_mean_deviation_s": metrics.mean(devs) if devs else None,
            "utilization_p50": None if cdf is None else metrics.cdf_value_at(cdf, 0.5),
            "controller_decisions_mean": metrics.mean(
                [r["decisions"]["controller"] for r in runs]),
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


def emit_plot_data(bundle_dir: Path, reports: list[dict],
                   summary: dict) -> list[Path]:
    """Write the four plot-ready CSVs from a bundle's reports and the
    summary `summarize` made of them."""
    plots = Path(bundle_dir) / "plots"
    plots.mkdir(parents=True, exist_ok=True)
    written = []

    def emit(name: str, lines: list[str]) -> None:
        p = plots / name
        _write_atomic(p, "\n".join(lines) + "\n")
        written.append(p)

    lines = ["scheduler,bisection_mean_bps"]
    for name, row in sorted(summary["per_scheduler"].items()):
        lines.append(f"{name},{row['bisection_mean_bps']!r}")
    emit("bisection_means.csv", lines)

    by_sched = _by_scheduler(reports)
    lines = [
        "# one row per monitored unidirectional link, per-link utilization "
        "averaged over seeds; fat-tree runs cover switch-to-switch links in "
        "both directions, star runs cover access links",
        "scheduler,utilization,cumulative_fraction",
    ]
    for name, (_, cdf) in by_sched.items():
        lines.extend(f"{name},{u!r},{f!r}" for u, f in cdf or ())
    emit("utilization_cdf.csv", lines)

    for name, key in (("mice_loss.csv", "loss"),
                      ("rtt_deviation.csv", "rtt_mean_deviation_s")):
        lines = [f"scheduler,seed,{key}"]
        lines.extend(f"{r['scheduler']},{r['seed']},{r['mice'][key]!r}"
                     for runs, _ in by_sched.values() for r in runs
                     if r["mice"][key] is not None)
        emit(name, lines)
    return written


def run_experiment(config: ExperimentConfig) -> Path:
    """Run the full (scheduler x seed) grid and write the result bundle.

    The bundle's own entries from an earlier run in the same directory are
    removed first; every other file there is left alone.
    """
    config.validate()
    out = Path(config.out_dir)
    try:
        for name in ("reports", "events", "plots"):
            if (out / name).is_dir():
                shutil.rmtree(out / name)
        for name in ("config.json", "summary.json"):
            (out / name).unlink(missing_ok=True)
        (out / "reports").mkdir(parents=True, exist_ok=True)
        if config.write_events:
            (out / "events").mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise RuntimeError(f"cannot create output dir {out}: {exc}") from exc

    floats = _FloatTexts()  # one float memo for the whole bundle
    echo = dataclasses.asdict(config)
    echo.pop("out_dir")  # where the bundle lives is not part of its identity
    _dump_json(out / "config.json", echo, floats)
    record = json.JSONEncoder(sort_keys=True).encode  # each event-log line

    reports = []
    for scheduler in config.schedulers:
        topo = build_topology(config, scheduler)
        for seed in config.seeds:
            engine = run_one(config, scheduler, seed, topo)
            report = run_report(config, scheduler, seed, engine)
            reports.append(report)
            _dump_json(out / "reports" / f"{scheduler}_seed{seed}.json",
                       report, floats)
            if config.write_events:
                _write_atomic(out / "events" / f"{scheduler}_seed{seed}.jsonl",
                              "\n".join(map(record, engine.event_log)) + "\n")

    summary = summarize(reports)
    _dump_json(out / "summary.json", summary, floats)
    emit_plot_data(out, reports, summary)
    return out
