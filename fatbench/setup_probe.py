"""Time fatflow's set-up in a fresh process: import, config, first topology
and first workload. Prints the seconds taken, then the median time of the
reference loop (`harness.reference_seconds`) run around the set-up.

Usage: python3 fatbench/setup_probe.py SRC_DIR [fatflow CLI flags ...]
"""

import statistics
import sys
import time

import harness

before = harness.reference_seconds()
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

from fatflow import generate_workload  # noqa: E402
from fatflow.cli import config_from_args  # noqa: E402
from fatflow.experiment import build_topology  # noqa: E402

config = config_from_args(sys.argv[2:], env={})
topo = build_topology(config, config.schedulers[0])
flows = generate_workload(topo, config.workload_spec(config.seeds[0]))
elapsed = time.perf_counter() - start
if not flows:
    sys.exit("setup_probe: the first workload is empty")
after = [harness.reference_seconds() for _ in range(2)]
print(repr(elapsed), repr(statistics.median([before] + after)))
