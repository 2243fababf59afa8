"""Regenerate golden.json: the run digests of every workload at seed 0.

Usage (from the repository root): python3 fatbench/make_golden.py

Run it only when the simulated model changes on purpose; a speed-up must
leave every digest as it is.
"""

import contextlib
import io
import json
import shutil
import sys

import run

sys.path.insert(0, str(run.SRC))

from fatflow import cli  # noqa: E402


def main() -> int:
    golden = {}
    scratch = run.WORK / "golden-tmp"
    try:
        for workload in run.WORKLOADS:
            argv = run.workload_argv(workload, 0)
            out = scratch / workload
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv + ["--out", str(out)])
            digests, complete, _, _ = run.read_bundle(out)
            if code != 0 or not complete:
                print(f"{workload}: exit code {code}, bundle complete: "
                      f"{complete}", file=sys.stderr)
                return 1
            golden[workload] = digests
            print(f"{workload}: {len(digests)} runs")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    run.GOLDEN.write_text(json.dumps(golden, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
