"""Time the pinned scale runs layer by layer and write `BENCH_scale.json`.

Usage (from anywhere in the repository):
    python3 scripts/bench_scale.py [--out FILE] [--src DIR] [--only NAME]

Runs each pinned config five times (seed 0), each run in a fresh child
process of its own, and interleaves the configs' runs (k8-256, k16-1024,
k24-3456, criterion6, k8-256, ...). A slow or fast phase of the host then
falls on runs of several configs rather than on all five runs of one, and
the median, min and max show the spread. The configs:
- k8-256: `ExperimentConfig(k=8, elephants=256, arrival_rate=25.0)`, `hybrid`;
- k16-1024: `ExperimentConfig(k=16, elephants=1024, arrival_rate=100.0)`,
  `hybrid`;
- k24-3456: `ExperimentConfig(k=24, elephants=3456, arrival_rate=337.5)`,
  `hybrid` (46-55 s per run on a 2-CPU Xeon VM, Python 3.11);
- criterion6: the workload of acceptance criterion 6
  (`tests/test_acceptance.py`), the slowest acceptance test: on a k=4
  fat-tree, 10,000 cross-half 5 Mb/s elephants of 1.5 s arriving at 50/s
  from round-robin sources, under `ecmp`, until 3 s after the last arrival.

Per config it records the seconds spent building the topology, in
`Topology.path_at` (inclusive, memo hits counted), in the rest of
`run_one`, in `run_report`, and in writing the report through
`experiment._dump_json` into a temporary directory, each as the median,
min and max of the five runs (each run builds its own topology); the probe
count; the `path_at` calls and the `Path`s built for them, which is what
the topology's path memo holds at the end of a run; and the largest peak
RSS of the runs' child processes. `--src` runs another checkout's `src/` (say, a `git
archive` of the parent revision), so two revisions can be compared on one
host. `--only NAME` times that config alone and writes no file unless
`--out` is given, so `BENCH_scale.json` keeps every config. Nothing is
written into a bundle. criterion6's `run_one_rest_s` covers building its
flows and engine and running it, as `run_one` does for the others.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

# name -> (ExperimentConfig fields, scheduler)
CONFIGS = {
    "k8-256": (dict(k=8, elephants=256, arrival_rate=25.0), "hybrid"),
    "k16-1024": (dict(k=16, elephants=1024, arrival_rate=100.0), "hybrid"),
    "k24-3456": (dict(k=24, elephants=3456, arrival_rate=337.5), "hybrid"),
    # the config gives only the topology; `criterion6_engine` the workload
    "criterion6": (dict(k=4), "ecmp"),
}
SEED = 0
RUNS = 5  # per config, each in a child process of its own
TIMES = ("topology_build_s", "path_at_s", "run_one_rest_s", "run_report_s",
         "report_write_s")


def criterion6_engine(topo):
    """Criterion 6's run, built as `tests/test_acceptance.py` builds it."""
    from fatflow.engine import Engine
    from fatflow.schedulers import SchedulerKind
    from fatflow.traffic import Flow

    hosts = list(topo.hosts)
    left = [h for h in hosts if h.pod < 2]
    right = [h for h in hosts if h.pod >= 2]
    rng = random.Random(40)
    flows = []
    t = 0.0
    for fid in range(10_000):
        t += rng.expovariate(50.0)
        src = hosts[fid % 16]
        dst = rng.choice(right if src in left else left)
        flows.append(Flow(fid, src, dst, 5e6, t, 1.5))
    return Engine(topo, SchedulerKind("ecmp"), flows, horizon=t + 3.0,
                  seed=SEED).run()


def measure(experiment, name: str, scratch: Path) -> dict:
    fields, scheduler = CONFIGS[name]
    config = experiment.ExperimentConfig(**fields)
    config.validate()

    t0 = perf_counter()
    topo = experiment.build_topology(config, scheduler)
    build_s = perf_counter() - t0

    # time every path_at call through an instance attribute, which shadows
    # the method for this topology only
    lookup = topo.path_at
    paths_s = 0.0
    calls = 0
    built: set = set()  # the (src, dst, rank) keys asked for

    def timed_path_at(src, dst, rank):
        nonlocal paths_s, calls
        t = perf_counter()
        path = lookup(src, dst, rank)
        paths_s += perf_counter() - t
        calls += 1
        built.add((src, dst, rank))
        return path

    topo.path_at = timed_path_at
    t0 = perf_counter()
    engine = (criterion6_engine(topo) if name == "criterion6" else
              experiment.run_one(config, scheduler, SEED, topo))
    run_s = perf_counter() - t0
    t0 = perf_counter()
    report = experiment.run_report(engine)
    report_s = perf_counter() - t0
    t0 = perf_counter()
    experiment._dump_json(scratch, "report.json", report)
    write_s = perf_counter() - t0
    return {
        "config": fields,
        "scheduler": scheduler,
        "seed": SEED,
        "topology_build_s": build_s,
        "path_at_s": paths_s,
        "run_one_rest_s": run_s - paths_s,
        "run_report_s": report_s,
        "report_write_s": write_s,
        "path_at_calls": calls,
        "paths_built": len(built),
        "probes": len(engine.probe_rtts),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def summarize(runs: list) -> dict:
    """One config's runs: each time as its median, min and max; the counts,
    equal in every run, as of the last; the largest peak RSS."""
    result = dict(runs[-1], runs=len(runs),
                  peak_rss_mb=max(r["peak_rss_mb"] for r in runs))
    for key in TIMES:
        values = [r[key] for r in runs]
        result[key] = {"median": statistics.median(values),
                       "min": min(values), "max": max(values)}
    return result


def run_child(src: str, name: str) -> dict:
    out = subprocess.run(
        [sys.executable, __file__, "--src", src, "--config", name],
        check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--out", help="where to write the JSON (default: "
                   "BENCH_scale.json at the repository root; none with --only)")
    p.add_argument("--src", default=str(ROOT / "src"),
                   help="the fatflow sources to run (default: %(default)s)")
    p.add_argument("--only", choices=CONFIGS, metavar="NAME",
                   help="time only this config: " + ", ".join(CONFIGS))
    p.add_argument("--config", choices=CONFIGS, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.config is not None:
        # the child: run one config once and print its figures as JSON
        sys.path.insert(0, args.src)
        from fatflow import experiment
        with tempfile.TemporaryDirectory() as scratch:
            print(json.dumps(measure(experiment, args.config,
                                     Path(scratch))))
        return 0

    results = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "runs": {},
    }
    names = [args.only] if args.only else list(CONFIGS)
    runs: dict = {name: [] for name in names}
    for _ in range(RUNS):
        for name in names:
            runs[name].append(run_child(args.src, name))
    for name in names:
        r = results["runs"][name] = summarize(runs[name])

        def secs(key):
            t = r[key]
            return f"{t['median']:.3f} s ({t['min']:.3f}-{t['max']:.3f})"

        print(f"{name}, median of {RUNS} (min-max): "
              f"build {secs('topology_build_s')}, "
              f"path_at {secs('path_at_s')} ({r['path_at_calls']} calls, "
              f"{r['paths_built']} paths), "
              f"rest of run_one {secs('run_one_rest_s')}, "
              f"run_report {secs('run_report_s')}, "
              f"report write {secs('report_write_s')}, "
              f"{r['probes']} probes, peak RSS {r['peak_rss_mb']:.1f} MB",
              flush=True)
    out = args.out or (None if args.only else ROOT / "BENCH_scale.json")
    if out is not None:
        Path(out).write_text(json.dumps(results, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
