"""fatflow benchmark: host time per simulated run, end to end and per layer.

Usage (from the repository root):
    python3 fatbench/run.py --workload grid-k4|churn-k4|scale-k8|all
                            [--seed N] [--seconds S] [--trace 0|1]

Each workload is one `fatflow` CLI invocation (`fatflow.cli.main`) whose
bundle goes to a scratch directory under `.fatbench/`. The invocation is
repeated until `--seconds` have passed. `--seed N` selects the block of
simulation seeds [N*n, (N+1)*n), where n is the workload's seed count, so
distinct values give disjoint inputs.

With `--trace 0` the benchmark reports the end-to-end metrics. Only
`experiment.run_one` and `experiment.run_report` are wrapped, to time each
(scheduler, seed) run, and a fixed reference loop is timed before each run.
Every end-to-end time is reported at reference speed: rescaled by how much
slower than `harness.REFERENCE_S` the loop ran next to it, which takes out
the slowdown other tenants of a shared host cause. With `--trace 1` it
alternates untraced invocations with traced ones, in which timing wrappers
sit around the public functions of every fatflow module, and reports the
per-layer split as measured.

Every run's report is reduced to a digest of its simulated statistics. For
seed 0 the digests must match `golden.json`. For other seeds they must pass
range checks, and every repetition and the traced run must reproduce the
first repetition's digests exactly. Human-readable lines go to stdout; the
last line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. Full results and the traced spans go to `.fatbench/`.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# one thread per process: numpy's BLAS pool must not compete with the run
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import harness  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".fatbench"
GOLDEN = HERE / "golden.json"

ALL_SCHEDULERS = ("nonblocking", "hybrid", "hybrid-scalar", "hedera", "ecmp")

# name -> (fatflow CLI flags without seeds, seeds per invocation)
WORKLOADS = {
    # the default config over every scheduler: probe-heavy, many small runs
    "grid-k4": ([a for s in ALL_SCHEDULERS for a in ("--scheduler", s)], 20),
    # every event re-solves the allocation; no probes, trivial reports
    "churn-k4": (["--scheduler", "hybrid", "--elephants", "100",
                  "--arrival-rate", "50", "--flow-duration", "0.8",
                  "--probe-interval", "none", "--duration", "2.9"], 24),
    # k=8: 768 links walked per event, up to 48 elephants per allocation
    "scale-k8": (["--k", "8", "--elephants", "48", "--arrival-rate", "32",
                  "--duration", "3", "--scheduler", "hybrid",
                  "--scheduler", "ecmp"], 12),
}

MIN_INVOCATIONS = 2  # untraced; a traced run needs one of each kind
SETUP_SHARE = 0.2  # of an untraced measurement, spent in set-up probes
EVENT_TYPES = ("arrival", "departure", "probe", "poll")

END_TO_END_UNITS = {
    "wall_s": "s", "run_s_p50": "s", "events_per_s": "1/s",
    "setup_s": "s", "peak_rss_mb": "MB",
}


def workload_argv(name: str, base: int) -> list[str]:
    flags, count = WORKLOADS[name]
    seeds = range(base * count, (base + 1) * count)
    return flags + [a for seed in seeds for a in ("--seed", str(seed))]


def run_key(scheduler: str, seed: int) -> str:
    return f"{scheduler}/{seed}"


def read_bundle(out: Path) -> tuple[dict, bool, int, int]:
    """(digest per run key, bundle complete, files, bytes) of a written bundle."""
    digests = {}
    for path in sorted((out / "reports").glob("*.json")):
        report = json.loads(path.read_text())
        digests[run_key(report["scheduler"], report["seed"])] = \
            harness.digest(report)
    files = [p for p in out.rglob("*") if p.is_file()]
    complete = ((out / "config.json").is_file()
                and (out / "summary.json").is_file()
                and any((out / "plots").glob("*.csv")))
    return digests, complete, len(files), sum(p.stat().st_size for p in files)


# -- per-layer wrappers ---------------------------------------------------------

class LayerCounts:
    """Counts the traced wrappers take from arguments and results."""

    def __init__(self):
        self.counts: Counter = Counter()
        self.last_rates: dict = {}

    def end_run(self, _tracer, _args, _engine) -> None:
        # each run's first allocation is compared with an empty network
        self.last_rates = {}


def install_layers(tracer: harness.Tracer, state: LayerCounts) -> None:
    """Wrap the public functions of each fatflow layer for a traced run."""
    from fatflow import cli, engine, experiment, metrics, schedulers
    from fatflow.engine import Engine
    from fatflow.topology import Topology

    counters = state.counts

    def on_step(_, args, record):
        kind = record.get("type") if isinstance(record, dict) else None
        return f"engine.step.{kind}"

    def on_waterfill(_, args, rates):
        counters["waterfill_flows"] += len(args[0])
        if rates != state.last_rates:
            counters["waterfill_useful"] += 1
        state.last_rates = rates

    def on_dispatch(_, args, decision):
        if decision.mechanism == schedulers.MECH_CONTROLLER:
            counters["controller"] += 1

    def on_generate(_, args, flows):
        counters["flows"] += len(flows)

    def on_probe_schedule(_, args, times):
        counters["probes_scheduled"] += len(times)

    targets = [
        (cli, "main", "cli.main", None),
        (cli, "run_experiment", "experiment.run_experiment", None),
        (experiment, "summarize", "experiment.summarize", None),
        (experiment, "emit_plot_data", "experiment.plots", None),
        (experiment, "build_fat_tree", "topology.build", None),
        (experiment, "build_nonblocking", "topology.build", None),
        (experiment, "generate_workload", "traffic.generate", on_generate),
        (Engine, "step", "engine.step", on_step),
        (engine, "waterfill", "engine.waterfill", on_waterfill),
        (engine, "dispatch", "schedulers.dispatch", on_dispatch),
        (engine, "probe_schedule", "traffic.probe_schedule", on_probe_schedule),
        (schedulers, "path_views", "schedulers.path_views", None),
        (Topology, "equal_cost_paths", "topology.paths", None),
        (Topology, "edge_uplink_ids", "topology.link_scan", None),
        (Topology, "agg_inlink_ids", "topology.link_scan", None),
        (metrics, "bisection_bandwidth", "metrics.bisection", None),
        (metrics, "utilization_cdf", "metrics.cdf", None),
        (metrics, "cdf_value_at", "metrics.cdf", None),
        (metrics, "mice_loss_and_rtt", "metrics.mice", None),
    ] + [(metrics, name, "metrics.bounds", None) for name in (
        "throughput_bounds", "latency_proxies", "load_balance_efficiency",
        "edge_load_distribution", "aggregate_load", "edge_upstream_loads")]
    for owner, attr, name, observe in targets:
        # a layer function a later version removes reads as zero calls
        if attr in vars(owner):
            tracer.wrap(owner, attr, name, observe)


def layer_metrics(spans, counters: Counter, files: int, nbytes: int) -> dict:
    """The per-layer split of one traced invocation."""
    selfs = harness.self_times(spans)
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    step_us = []
    for (name, start, end, _), own in zip(spans, selfs):
        self_s[name] += own
        calls[name] += 1
        if name.startswith("engine.step."):
            step_us.append((end - start) * 1e6)

    def incl(name):
        return harness.inclusive_time(spans, [name])

    def share(num, den):
        return num / den if den else 0.0

    def step_percentile(q):
        value = harness.percentile(step_us, q)
        if value is None:
            print(f"fatbench: too few steps for p{round(q * 100)}; "
                  "reporting the maximum", file=sys.stderr)
            value = max(step_us, default=0.0)
        return value

    m = {}
    for kind in EVENT_TYPES:
        m[f"engine.events.{kind}"] = calls[f"engine.step.{kind}"]
        m[f"engine.step_self_s.{kind}"] = self_s[f"engine.step.{kind}"]
    m["engine.step_us_p50"] = step_percentile(0.5)
    m["engine.step_us_p99"] = step_percentile(0.99)
    m["engine.waterfill_s"], m["engine.waterfill_calls"] = incl("engine.waterfill")
    m["engine.waterfill_flows_mean"] = share(counters["waterfill_flows"],
                                             m["engine.waterfill_calls"])
    m["engine.waterfill_useful_share"] = share(counters["waterfill_useful"],
                                               m["engine.waterfill_calls"])
    m["schedulers.dispatch_calls"] = calls["schedulers.dispatch"]
    m["schedulers.dispatch_self_s"] = self_s["schedulers.dispatch"]
    m["schedulers.path_views_s"] = incl("schedulers.path_views")[0]
    m["schedulers.controller_share"] = share(counters["controller"],
                                             calls["schedulers.dispatch"])
    m["topology.build_s"], m["topology.build_calls"] = incl("topology.build")
    m["topology.paths_s"], m["topology.paths_calls"] = incl("topology.paths")
    m["topology.link_scan_s"], m["topology.link_scan_calls"] = \
        incl("topology.link_scan")
    m["traffic.generate_s"] = incl("traffic.generate")[0]
    m["traffic.flows"] = counters["flows"]
    m["traffic.probe_schedule_s"] = incl("traffic.probe_schedule")[0]
    m["traffic.probes_scheduled"] = counters["probes_scheduled"]
    for part in ("bounds", "cdf", "mice", "bisection"):
        m[f"metrics.{part}_s"] = incl(f"metrics.{part}")[0]
    m["experiment.report_self_s"] = self_s["experiment.run_report"]
    m["experiment.summarize_s"] = incl("experiment.summarize")[0]
    m["experiment.plots_s"] = incl("experiment.plots")[0]
    m["experiment.bundle_write_s"] = self_s["experiment.run_experiment"]
    m["experiment.files_written"] = files
    m["experiment.bundle_bytes"] = nbytes
    m["cli.main_self_s"] = self_s["cli.main"]
    return m


LAYER_UNITS = {
    "engine.step_us_p50": "us", "engine.step_us_p99": "us",
    "engine.waterfill_flows_mean": "flows",
    "engine.waterfill_useful_share": "ratio",
    "schedulers.controller_share": "ratio",
    "experiment.bundle_bytes": "B",
    "trace_overhead_frac": "ratio",
}


def layer_unit(name: str) -> str:
    if name in LAYER_UNITS:
        return LAYER_UNITS[name]
    return "s" if name.endswith("_s") or "_s." in name else "count"


# -- the workload runner ----------------------------------------------------------

class Runner:
    """Repeats one workload's CLI invocation and checks every run it makes."""

    def __init__(self, workload: str, base: int):
        from fatflow import generate_workload
        from fatflow.cli import config_from_args
        from fatflow.experiment import build_topology

        self.argv = workload_argv(workload, base)
        config = config_from_args(self.argv, env={})
        self.keys = [run_key(s, seed)
                     for s in config.schedulers for seed in config.seeds]
        self.golden = None
        if base == 0:
            self.golden = json.loads(GOLDEN.read_text())[workload]
        # arrivals and departures follow from the inputs; probes and polls
        # are read from each report
        self.input_events = {}
        horizon = config.duration
        for scheduler in config.schedulers:
            topo = build_topology(config, scheduler)
            for seed in config.seeds:
                flows = generate_workload(topo, config.workload_spec(seed))
                arrived = [f for f in flows if f.start_time < horizon]
                departed = [f for f in arrived if f.duration is not None
                            and f.start_time + f.duration < horizon]
                self.input_events[run_key(scheduler, seed)] = \
                    len(arrived) + len(departed)
        self.reference: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tmp = WORK / f"tmp-{os.getpid()}"
        self._reps = 0

    def rep(self, traced: bool) -> dict:
        """One CLI invocation: wall time, per-run times, checked digests."""
        from fatflow import cli, experiment

        tracer = harness.Tracer()
        state = LayerCounts()
        reported = []
        # an untraced invocation times the reference loop before each run
        refs: list[float] = []
        tracer.wrap(experiment, "run_one", "experiment.run_one",
                    state.end_run if traced else None,
                    before=None if traced else
                    lambda: refs.append(harness.reference_seconds()))
        tracer.wrap(experiment, "run_report", "experiment.run_report",
                    lambda _, args, r: reported.append(
                        run_key(r["scheduler"], r["seed"])))
        if traced:
            install_layers(tracer, state)
        out = self.tmp / f"rep{self._reps}"
        self._reps += 1
        with tracer, contextlib.redirect_stdout(io.StringIO()):
            start = perf_counter()
            code = cli.main(self.argv + ["--out", str(out)])
            wall = perf_counter() - start - sum(refs)
        if not traced:
            refs.append(harness.reference_seconds())  # after the last run

        digests, complete, files, nbytes = ({}, False, 0, 0)
        if out.is_dir():
            digests, complete, files, nbytes = read_bundle(out)
            shutil.rmtree(out)
        if code != 0 or not complete:
            self.problems.append(f"invocation {self._reps}: exit code {code}, "
                                 f"bundle complete: {complete}")
        self.attempted += len(self.keys)
        for key in self.keys:
            problems = ["no report"] if key not in digests else \
                self.check(key, digests[key])
            if code != 0 or not complete or problems:
                self.failed += 1
                self.problems += [f"{key}: {p}" for p in problems[:3]]

        spans = tracer.spans
        one = [end - start for name, start, end, _ in spans
               if name == "experiment.run_one"]
        report = [end - start for name, start, end, _ in spans
                  if name == "experiment.run_report"]
        runs = []
        for i, (key, one_s, report_s) in enumerate(zip(reported, one, report)):
            d = digests.get(key)
            events = self.input_events[key] + (
                d["mice"]["probes"] + d["monitoring"]["polls"] if d else 0)
            runs.append({"key": key, "run_one_s": one_s,
                         "run_s": one_s + report_s, "events": events})
            if not traced:
                # the reference loop just before and just after the run
                runs[-1]["ref_s"] = (refs[i] + refs[i + 1]) / 2
        result = {"wall_s": wall, "runs": runs}
        if not traced:
            result["ref_s"] = statistics.median(refs)
        if traced:
            result["layers"] = layer_metrics(spans, state.counts, files, nbytes)
            result["spans"] = spans
            traced_events = sum(result["layers"][f"engine.events.{k}"]
                                for k in EVENT_TYPES)
            if traced_events != sum(r["events"] for r in runs):
                print(f"fatbench: traced {traced_events} engine steps, inputs "
                      f"and reports give {sum(r['events'] for r in runs)}",
                      file=sys.stderr)
        return result

    def check(self, key: str, d: dict) -> list[str]:
        if self.golden is not None:
            problems = harness.digest_mismatches(d, self.golden[key])
        else:
            problems = harness.invariant_violations(d)
        first = self.reference.setdefault(key, d)
        if d != first:
            problems.append("differs from the first invocation's digest")
        return problems

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)


def setup_time(workload: str, base: int) -> float:
    """Set-up seconds measured in a fresh process, at reference speed."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), str(SRC)] + \
        workload_argv(workload, base)
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                          cwd=ROOT)
    if done.returncode != 0:
        raise SystemExit(f"fatbench: set-up probe failed:\n{done.stderr}")
    elapsed, reference_s = map(float, done.stdout.split()[-2:])
    return harness.at_reference_speed(elapsed, reference_s)


def per_run(invocations: list[dict]) -> dict[str, dict]:
    """Each (scheduler, seed) run's times at reference speed, the median over
    its repetitions, field by field."""
    samples: dict[str, list[dict]] = defaultdict(list)
    for inv in invocations:
        for run in inv["runs"]:
            samples[run["key"]].append(run)
    out = {}
    for key, reps in samples.items():
        out[key] = dict(reps[0])
        for field in ("run_s", "run_one_s"):
            out[key][field] = statistics.median(
                harness.at_reference_speed(r[field], r["ref_s"]) for r in reps)
    return out


def wall_at_reference_speed(inv: dict) -> float:
    """One invocation's wall time at reference speed: each run rescaled by
    the reference loop next to it, the rest of the invocation by the
    invocation's median reference time."""
    runs = inv["runs"]
    rest = inv["wall_s"] - sum(run["run_s"] for run in runs)
    return sum(harness.at_reference_speed(r["run_s"], r["ref_s"])
               for r in runs) + harness.at_reference_speed(rest, inv["ref_s"])


def measure(workload: str, base: int, seconds: float, trace: bool) -> dict:
    """Repeat the workload within `seconds`, at least twice, and summarize.

    Other tenants of a shared host slow the simulator down by a share that
    changes within a second and from minute to minute. So every time is
    reported at reference speed (`harness.at_reference_speed`), by the
    reference loop timed next to it; a run's time is the median over its
    repetitions, and set-up probes are spread over the whole measurement.
    """
    runner = Runner(workload, base)
    plain, traced, setup = [], [], []
    probe_s = 0.0
    start = perf_counter()
    try:
        # start another invocation only if it should end within `seconds`
        while len(plain) < (1 if trace else MIN_INVOCATIONS) or \
                (perf_counter() - start) * (len(plain) + 1) / len(plain) <= seconds:
            plain.append(runner.rep(traced=False))
            if trace:
                traced.append(runner.rep(traced=True))
            else:
                while not setup or \
                        probe_s < SETUP_SHARE * (perf_counter() - start):
                    probe_start = perf_counter()
                    setup.append(setup_time(workload, base))
                    probe_s += perf_counter() - probe_start
    finally:
        runner.close()

    walls = [inv["wall_s"] for inv in plain]
    per_key = per_run(plain)
    run_s = [run["run_s"] for run in per_key.values()]
    ref_walls = [wall_at_reference_speed(inv) for inv in plain]
    detail = {
        "workload": workload, "seed": base, "trace": int(trace),
        "argv": workload_argv(workload, base),
        "invocations": len(plain), "runs": len(per_key),
        "wall_s_each": walls,
        "wall_s_at_reference_speed_each": ref_walls,
        "reference_s_each": [inv["ref_s"] for inv in plain],
        "run_s_p90": harness.percentile(run_s, 0.9),
        "attempted": runner.attempted, "failed": runner.failed,
        "problems": runner.problems[:50],
    }
    if trace:
        layers = {name: statistics.median([inv["layers"][name] for inv in traced])
                  for name in traced[0]["layers"]}
        layers["trace_overhead_frac"] = \
            min(inv["wall_s"] for inv in traced) / min(walls) - 1.0
        detail["traced_wall_s_each"] = [inv["wall_s"] for inv in traced]
        detail["metrics"] = {k: {"value": v, "unit": layer_unit(k)}
                             for k, v in layers.items()}
        detail["spans"] = traced[-1]["spans"]
    else:
        values = {
            "wall_s": statistics.median(ref_walls),
            "run_s_p50": harness.percentile(run_s, 0.5),
            "events_per_s": statistics.median(
                [run["events"] / run["run_one_s"] for run in per_key.values()]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        detail["setup_s_each"] = setup
        detail["metrics"] = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                             for k, v in values.items()}
    return detail


def write_detail(detail: dict) -> None:
    """Full results and, for a traced run, its spans go next to each other."""
    WORK.mkdir(exist_ok=True)
    stem = f"{detail['workload']}-seed{detail['seed']}-trace{detail['trace']}"
    spans = detail.pop("spans", None)
    if spans is not None:
        names = sorted({s[0] for s in spans})
        index = {n: i for i, n in enumerate(names)}
        with gzip.open(WORK / f"{stem}-spans.json.gz", "wt") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "names": names,
                       "spans": [[index[n], s, e, p] for n, s, e, p in spans]},
                      fh)
    (WORK / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")


def print_detail(detail: dict) -> None:
    print(f"{detail['workload']} seed {detail['seed']} trace {detail['trace']}: "
          f"{detail['invocations']} invocations of {detail['runs']} runs, "
          f"{detail['failed']}/{detail['attempted']} runs failed")
    for name, m in detail["metrics"].items():
        print(f"  {name:34s} {m['value']:>14.6g} {m['unit']}")
    if not detail["trace"]:
        print(f"  {'wall_s as measured (fastest)':34s} "
              f"{min(detail['wall_s_each']):>14.6g} s")
        p90 = detail["run_s_p90"]
        print(f"  {'run_s_p90':34s} "
              + (f"{p90:>14.6g} s" if p90 is not None else
                 f"{'-':>14s}   (needs >= 100 runs, "
                 f"have {detail['runs']})"))
        print(f"  {'failed_frac':34s} "
              f"{detail['failed'] / detail['attempted']:>14.6g} ratio")
    for problem in detail["problems"][:10]:
        print(f"  problem: {problem}")


def run_all(args) -> int:
    """Every workload, each in a fresh process; then one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        lines = done.stdout.splitlines()
        sys.stderr.write(done.stderr)
        if done.returncode != 0 or not lines:
            print(f"fatbench: {workload} exited with {done.returncode}",
                  file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="fatbench", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0,
                   help="seed block; 0 is checked against golden digests")
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not (SRC / "fatflow" / "__init__.py").is_file():
        print(f"fatbench: no fatflow sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))

    detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    write_detail(detail)
    print_detail(detail)
    print(json.dumps({
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": detail["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
