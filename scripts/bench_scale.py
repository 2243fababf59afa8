"""Time the pinned scale runs layer by layer and write `BENCH_scale.json`.

Usage (from anywhere in the repository):
    python3 scripts/bench_scale.py [--out BENCH_scale.json] [--src DIR]

Runs each pinned config once (`hybrid`, seed 0):
- k8-256: `ExperimentConfig(k=8, elephants=256, arrival_rate=25.0)`;
- k16-1024: `ExperimentConfig(k=16, elephants=1024, arrival_rate=100.0)`.

Per config it records the seconds spent building the topology, in
`Topology.equal_cost_paths` (inclusive, cache hits counted), in the rest of
`run_one`, and in `run_report`; the probe count; and the distinct (src, dst)
pairs asked for and the `Path`s cached for them. `--src` runs another
checkout's `src/` (say, a `git archive` of the parent revision), so two
revisions can be compared on one host. Nothing is written into a bundle.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

CONFIGS = {
    "k8-256": dict(k=8, elephants=256, arrival_rate=25.0),
    "k16-1024": dict(k=16, elephants=1024, arrival_rate=100.0),
}
SCHEDULER = "hybrid"
SEED = 0


def measure(experiment, fields: dict) -> dict:
    config = experiment.ExperimentConfig(**fields)
    config.validate()

    t0 = perf_counter()
    topo = experiment.build_topology(config, SCHEDULER)
    build_s = perf_counter() - t0

    # time every equal_cost_paths call through an instance attribute, which
    # shadows the method for this topology only
    lookup = topo.equal_cost_paths
    paths_s = 0.0
    calls = 0
    cached: dict = {}  # (src, dst) -> number of Paths built for it

    def timed_paths(src, dst):
        nonlocal paths_s, calls
        t = perf_counter()
        paths = lookup(src, dst)
        paths_s += perf_counter() - t
        calls += 1
        cached.setdefault((src, dst), len(paths))
        return paths

    topo.equal_cost_paths = timed_paths
    t0 = perf_counter()
    engine = experiment.run_one(config, SCHEDULER, SEED, topo)
    run_s = perf_counter() - t0
    t0 = perf_counter()
    experiment.run_report(config, SCHEDULER, SEED, engine)
    report_s = perf_counter() - t0
    return {
        "config": fields,
        "scheduler": SCHEDULER,
        "seed": SEED,
        "topology_build_s": build_s,
        "equal_cost_paths_s": paths_s,
        "run_one_rest_s": run_s - paths_s,
        "run_report_s": report_s,
        "equal_cost_paths_calls": calls,
        "probes": len(engine.probe_rtts),
        "distinct_pairs": len(cached),
        "cached_paths": sum(cached.values()),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--out", default=str(ROOT / "BENCH_scale.json"),
                   help="where to write the JSON (default: %(default)s)")
    p.add_argument("--src", default=str(ROOT / "src"),
                   help="the fatflow sources to run (default: %(default)s)")
    args = p.parse_args(argv)
    sys.path.insert(0, args.src)
    from fatflow import experiment

    results = {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "runs": {},
    }
    for name, fields in CONFIGS.items():
        r = results["runs"][name] = measure(experiment, fields)
        print(f"{name}: build {r['topology_build_s']:.3f} s, "
              f"equal_cost_paths {r['equal_cost_paths_s']:.3f} s "
              f"({r['distinct_pairs']} pairs, {r['cached_paths']} paths), "
              f"rest of run_one {r['run_one_rest_s']:.3f} s, "
              f"run_report {r['run_report_s']:.3f} s, "
              f"{r['probes']} probes", flush=True)
    Path(args.out).write_text(json.dumps(results, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
