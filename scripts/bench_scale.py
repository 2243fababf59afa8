"""Time the pinned scale runs layer by layer and write `BENCH_scale.json`.

Usage (from anywhere in the repository):
    python3 scripts/bench_scale.py [--out FILE] [--src DIR] [--only NAME]

Runs each pinned config five times (`hybrid`, seed 0), each run in a fresh
child process of its own, and interleaves the configs' runs (k8-256,
k16-1024, k8-256, ...). A slow or fast phase of the host then falls on
runs of both configs rather than on all five runs of one, and the median,
min and max show the spread. The configs:
- k8-256: `ExperimentConfig(k=8, elephants=256, arrival_rate=25.0)`;
- k16-1024: `ExperimentConfig(k=16, elephants=1024, arrival_rate=100.0)`.

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
written into a bundle.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

CONFIGS = {
    "k8-256": dict(k=8, elephants=256, arrival_rate=25.0),
    "k16-1024": dict(k=16, elephants=1024, arrival_rate=100.0),
}
SCHEDULER = "hybrid"
SEED = 0
RUNS = 5  # per config, each in a child process of its own
TIMES = ("topology_build_s", "path_at_s", "run_one_rest_s", "run_report_s",
         "report_write_s")


def measure(experiment, fields: dict, scratch: Path) -> dict:
    config = experiment.ExperimentConfig(**fields)
    config.validate()

    t0 = perf_counter()
    topo = experiment.build_topology(config, SCHEDULER)
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
    engine = experiment.run_one(config, SCHEDULER, SEED, topo)
    run_s = perf_counter() - t0
    t0 = perf_counter()
    report = experiment.run_report(engine)
    report_s = perf_counter() - t0
    t0 = perf_counter()
    experiment._dump_json(scratch, "report.json", report)
    write_s = perf_counter() - t0
    return {
        "config": fields,
        "scheduler": SCHEDULER,
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
            print(json.dumps(measure(experiment, CONFIGS[args.config],
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
