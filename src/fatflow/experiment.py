"""Experiment harness: run (scheduler, seed) grids and write result bundles.

A bundle directory is fully determined by its config: reports are JSON with a
schema_version field, plot data is CSV, and nothing timestamped or
machine-specific is ever written, so identical configs produce bit-identical
bundles.

Every JSON text of a bundle (config.json, the reports, summary.json and each
event-log line) is what `json.dumps(obj, sort_keys=True, allow_nan=False)`
writes, one line per file or event, from one `json.JSONEncoder`. A float
that is not finite raises ValueError naming the file and the key.

A grid keeps nothing it has written: once a run's report is on disk, only
the fields `summarize` and `emit_plot_data` read stay in memory
(`summary_record`), and with `write_events` each event is encoded to its
run's log as the engine processes it.

Event-log record format (one JSON object per processed engine event; the
engine builds records only when given a sink, which `run_experiment` passes
when `write_events` is on): {"seq": int, "t": seconds, "type":
"arrival"|"departure"|"probe"|"poll", ...} with per-type payload fields as
produced by Engine.step().
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import math
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional

from . import metrics
from .engine import Engine, EngineParams
from .rules import (EVEN_K, NON_EMPTY, POSITIVE, check_fields, distinct_list,
                    setting, setting_of)
from .schedulers import ECMP, HYBRID, SCHEDULER, SchedulerKind, layout_for
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
    if layout_for(scheduler) == "star":
        return build_nonblocking(config.k, config.capacity)
    return build_fat_tree(config.k, config.capacity)


def run_one(config: ExperimentConfig, scheduler: str, seed: int,
            topo: Optional[Topology] = None,
            sink: Optional[Callable[[dict], object]] = None) -> Engine:
    """Run a single seeded simulation and return the finished engine.

    `topo` is the scheduler's topology from `build_topology`, built here when
    omitted. Runs can share one: its links never change, and the only
    state it gains is a memo of the candidate `Path`s flows took, built on
    first use. ConfigError names the field of a `topo` built for another
    k, capacity or layout. `sink` receives each event's log record as the
    engine processes it; the engine keeps none, and builds none without a
    sink (`write_events` alone logs nothing here).
    """
    if topo is None:
        topo = build_topology(config, scheduler)
    for name, want in (("k", config.k), ("link_capacity", config.capacity),
                       ("layout", layout_for(scheduler))):
        if getattr(topo, name) != want:
            raise ConfigError(f"topo: {name} must be {want!r} for this run, "
                              f"got {getattr(topo, name)!r}")
    flows = generate_workload(topo, config.workload_spec(seed))
    engine = Engine(topo, config.scheduler_kind(scheduler), flows,
                    horizon=config.duration, params=config.engine_params(),
                    seed=seed, sink=sink)
    return engine.run()


def run_report(engine: Engine) -> dict:
    """Assemble the per-run metrics + bounds report of a finished engine."""
    topo = engine.topology
    series, mean_bis = metrics.bisection_bandwidth(
        engine.bisection_series, engine.horizon)
    rtts, polls = engine.probe_rtts, engine.polls
    # per-link time-averaged utilization, in monitored-link-id order
    util_vector = [s / polls for s in engine.util_sums] if polls else None
    cdf = metrics.utilization_cdf(util_vector) if polls else None
    loss, rtt_dev = metrics.mice_loss_and_rtt(rtts) if rtts else (None, None)
    mice = {"probes": len(rtts), "delivered": len(rtts) - rtts.count(None),
            "loss": loss, "rtt_mean_deviation_s": rtt_dev}
    return {
        "schema_version": SCHEMA_VERSION,
        "scheduler": engine.scheduler.name,
        "seed": engine.seed,
        "k": topo.k,
        "capacity_bps": topo.link_capacity,
        "horizon_s": engine.horizon,
        "bisection": {"mean_bps": mean_bis, "series": series},
        "link_utilization_mean": util_vector,
        "utilization_cdf": cdf,
        "cdf_p50": None if cdf is None else metrics.cdf_value_at(cdf, 0.5),
        "mice": mice,
        "decisions": {
            "controller": engine.controller_decisions,
            "proactive": engine.proactive_decisions,
        },
        "monitoring": {
            "polls": engine.polls,
            "port_stat_reads": polls * topo.total_switch_ports,
            "uplink_stat_reads": polls * len(topo.agg_upstream_link_ids),
        },
        "bounds": metrics.load_bounds(topo, engine.mean_offered_by_link()),
    }


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


# no `indent`: with one, `json` falls back to its pure-Python encoder
_encode = json.JSONEncoder(sort_keys=True, allow_nan=False).encode


def _non_finite(obj, key: str = ""):
    """Yield "KEY is VALUE" for each float in `obj` that is not finite, in
    the order the bundle writes them; KEY extends `key` by the path to it."""
    if isinstance(obj, float) and not math.isfinite(obj):
        yield f"{key} is {obj!r}"
    elif isinstance(obj, dict):
        for k in sorted(obj):
            yield from _non_finite(obj[k], f"{key}.{k}" if key else k)
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            yield from _non_finite(item, f"{key}[{i}]")


def _dump_json(bundle: Path, name: str, obj) -> None:
    """Write `obj` to the file `name` of the bundle directory `bundle`."""
    try:
        text = _encode(obj)
    except ValueError:
        raise ValueError(f"{name}: {next(_non_finite(obj))}") from None
    _write_atomic(bundle / name, text + "\n")


@contextlib.contextmanager
def _event_log(bundle: Path, name: str) -> Iterator[Callable[[dict], None]]:
    """Yield a sink that writes each event record as one line of the file
    `name` of the bundle directory `bundle`, under a temporary name, and
    move the file into place when the block ends.

    A record with a float that is not finite is left out, and the block's
    end raises ValueError naming the file, the line and the key, so an
    error raised inside the block (a report's, say) comes first. A failed
    block leaves no file.
    """
    path = bundle / name
    tmp = path.with_suffix(path.suffix + ".tmp")
    lines, bad = 0, None
    try:
        with tmp.open("w") as file:
            write = file.write

            def sink(record: dict) -> None:
                nonlocal lines, bad
                lines += 1
                try:
                    write(_encode(record) + "\n")
                except ValueError:
                    if bad is None:
                        bad = f"line {lines}: {next(_non_finite(record))}"

            yield sink
        if bad is not None:
            raise ValueError(f"{name}: {bad}")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


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


def summary_record(report: dict) -> dict:
    """The fields of a run's report that `summarize` and `emit_plot_data`
    read, in the report's own shape, so both take either."""
    return {"scheduler": report["scheduler"], "seed": report["seed"],
            "bisection": {"mean_bps": report["bisection"]["mean_bps"]},
            "link_utilization_mean": report["link_utilization_mean"],
            "mice": report["mice"], "decisions": report["decisions"]}


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


def _remove_bundle(out: Path) -> None:
    """Remove the bundle's own entries from `out`; leave every other file."""
    for name in ("reports", "events", "plots"):
        if (out / name).is_dir():
            shutil.rmtree(out / name)
    for name in ("config.json", "summary.json"):
        (out / name).unlink(missing_ok=True)


def run_experiment(config: ExperimentConfig) -> Path:
    """Run the full (scheduler x seed) grid and write the result bundle.

    The bundle's own entries in the directory are removed first, and again
    when the run fails; every other file there is left alone. Each run's
    report is written as soon as the run ends, and only its
    `summary_record` is kept for the summary and the plots. With
    `write_events`, each run's event log is written as the run goes
    (`_event_log`), and a record that cannot be written fails the grid
    after the run's report has been checked.
    """
    config.validate()
    out = Path(config.out_dir)
    try:
        _remove_bundle(out)
        (out / "reports").mkdir(parents=True, exist_ok=True)
        if config.write_events:
            (out / "events").mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise RuntimeError(f"cannot create output dir {out}: {exc}") from exc

    try:
        echo = dataclasses.asdict(config)
        echo.pop("out_dir")  # where the bundle lives is not part of its identity
        _dump_json(out, "config.json", echo)

        records = []
        for scheduler in config.schedulers:
            topo = build_topology(config, scheduler)
            for seed in config.seeds:
                run = f"{scheduler}_seed{seed}"
                with (_event_log(out, f"events/{run}.jsonl")
                      if config.write_events
                      else contextlib.nullcontext()) as sink:
                    report = run_report(run_one(config, scheduler, seed, topo,
                                                sink))
                    _dump_json(out, f"reports/{run}.json", report)
                records.append(summary_record(report))

        summary = summarize(records)
        _dump_json(out, "summary.json", summary)
        emit_plot_data(out, records, summary)
    except BaseException:
        _remove_bundle(out)
        raise
    return out
