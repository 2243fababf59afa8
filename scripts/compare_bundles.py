"""Check that a git revision and the working tree write identical bundles.

Usage (from anywhere in the repository):
    python3 scripts/compare_bundles.py REV [--python EXE]

Extracts REV's `src/` and `demos/` with `git archive` into a temporary
directory, runs the same `fatflow` CLI invocations from that copy and from
the working tree, and compares the two bundles of each invocation file by
file. An invocation that fails on either side counts as a difference. Prints
"identical (N files)" or the differing files per config. Under each
differing JSON file (a report, `summary.json`, `config.json`, an event log
read line by line) it names each key path that differs, list indexes
written `[]`, with the largest relative difference of its floats, or
"not a float" where a string, an integer, a key or a length differs. The
configs are:
- the default config with `--events`, every scheduler x seeds 0-19;
- the `fatbench` workloads, with the flags and seed-0 block of
  `fatbench/run.py`;
- a `--events` config with departures in which `hedera-gff` reroutes,
  every scheduler x seeds 0-2;
- a `--events` config at k=8 with departures, every scheduler x seeds
  0-1, so the arrival records' `path` fields compare every scheduler's
  path choices on a larger tree;
- a `--events` `hedera-gff` config at k=8 with demands at the link
  capacity (`--demand none`), seeds 0-2, whose rounds move dozens of flows
  and fill over a hundred links to exactly their capacity, where Global
  First Fit's slack decides;
- a `--events` `hedera` config at `--elephant-threshold 1e-5`, seeds 0-2,
  a cutoff below the mice's placeholder demand, so it shows whether mice
  still leave the greedy for ECMP;
- a `--events` config at k=16 with 1024 elephants arriving at 100/s,
  `hybrid` and `ecmp`, seeds 0-1: the scale at which speed-ups of the
  solver are measured, where a re-solve reaches hundreds of links.

Then it runs each side's own `demos/*.py` under that side's `src/`, pairs
them by file name and compares their stdout, printing "demos: identical
(N)" or each demo that differs, fails or exists on one side only. Last it
compares `fatflow --help` under each `src/`, printing "--help: identical"
or a unified diff from REV's text to the working tree's. It exits 1 on
any difference, however small.

`--python EXE` runs the working tree's side (the CLI, the demos and
`--help`) under the interpreter EXE and REV's side under the one running
this script, so `compare_bundles.py HEAD --python EXE` checks that EXE
writes the same bytes.
"""

from __future__ import annotations

import argparse
import difflib
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "fatbench")]

from fatflow.schedulers import SCHEDULER_NAMES  # noqa: E402
from run import WORKLOADS, workload_argv  # noqa: E402


def every_scheduler(seeds: range) -> list[str]:
    return ([a for s in SCHEDULER_NAMES for a in ("--scheduler", s)]
            + [a for seed in seeds for a in ("--seed", str(seed))])


CONFIGS = {
    "default --events": ["--events", *every_scheduler(range(20))],
    **{name: workload_argv(name, 0) for name in WORKLOADS},
    "hedera-gff reroutes": [
        "--events", "--elephants", "100", "--arrival-rate", "10",
        "--flow-duration", "6", "--duration", "20", *every_scheduler(range(3))],
    "k=8 every scheduler": [
        "--events", "--k", "8", "--elephants", "100", "--arrival-rate", "20",
        "--flow-duration", "3", "--duration", "12", *every_scheduler(range(2))],
    "k=8 hedera-gff full demand": [
        "--events", "--k", "8", "--demand", "none", "--elephants", "120",
        "--arrival-rate", "10", "--flow-duration", "6", "--duration", "25",
        "--scheduler", "hedera-gff", "--seed", "0", "--seed", "1",
        "--seed", "2"],
    "hedera low cutoff": [
        "--events", "--scheduler", "hedera", "--elephant-threshold", "1e-5",
        "--seed", "0", "--seed", "1", "--seed", "2"],
    "k=16 scale": [
        "--events", "--k", "16", "--elephants", "1024", "--arrival-rate",
        "100", "--scheduler", "hybrid", "--scheduler", "ecmp", "--seed", "0",
        "--seed", "1"],
}


def run_python(src: Path, argv: list[str],
               python: str = sys.executable) -> Optional[str]:
    """Run the interpreter `python` on `argv` with the sources under `src`;
    its stdout, or None when it fails, after printing its stderr."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([python, *argv], env=env,
                          capture_output=True, text=True)
    if done.returncode != 0:
        print(f"python {argv} from {src} failed:\n{done.stderr}")
        return None
    return done.stdout


def run_cli(src: Path, argv: list[str], out: Path,
            python: str = sys.executable) -> Optional[dict[str, bytes]]:
    """Run the CLI from the sources under `src`; the bundle's files by
    path, or None when the CLI fails."""
    if run_python(src, ["-m", "fatflow.cli", *argv, "--out", str(out)],
                  python) is None:
        return None
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def parse_json(name: str, data: bytes):
    """A bundle file's JSON value, an event log's as a list of its lines;
    None for any other file."""
    if name.endswith(".jsonl"):
        return [json.loads(line) for line in data.splitlines()]
    if name.endswith(".json"):
        return json.loads(data)
    return None


def value_diffs(old, new, path: str, out: dict[str, float]) -> None:
    """Record in `out`, per key path, the largest relative difference
    between the JSON values `old` and `new`: |a - b| / max(|a|, |b|) for
    two floats, inf where anything else differs."""
    if type(old) is float and type(new) is float:
        if old != new:
            rel = abs(old - new) / max(abs(old), abs(new))
            out[path] = max(out.get(path, 0.0), rel)
    elif isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            sub = f"{path}.{key}" if path else key
            if key in old and key in new:
                value_diffs(old[key], new[key], sub, out)
            else:
                out[sub] = math.inf
    elif (isinstance(old, list) and isinstance(new, list)
          and len(old) == len(new)):
        for a, b in zip(old, new):
            value_diffs(a, b, path + "[]", out)
    elif type(old) is not type(new) or old != new:
        out[path or "(whole file)"] = math.inf


def json_diffs(name: str, old: bytes,
               new: bytes) -> Optional[dict[str, float]]:
    """`value_diffs` of two versions of a bundle file, {} when only their
    bytes differ; None for a file that is not JSON or does not parse."""
    try:
        values = parse_json(name, old), parse_json(name, new)
    except ValueError:
        return None
    if values[0] is None:
        return None
    diffs: dict[str, float] = {}
    value_diffs(*values, "", diffs)
    return diffs


def print_diffs(diffs: dict[str, float], indent: str) -> None:
    for path, rel in diffs.items():
        print(f"{indent}{path}: " + ("not a float" if rel == math.inf else
                                     f"max relative difference {rel:.3g}"))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("rev", help="the git revision to compare against")
    p.add_argument("--python", default=sys.executable, metavar="EXE",
                   help="the interpreter that runs the working tree's side "
                        "(default: this one)")
    opts = p.parse_args(argv)
    rev, python = opts.rev, opts.python
    archive = subprocess.run(["git", "archive", rev, "src", "demos"],
                             cwd=ROOT, capture_output=True)
    if archive.returncode != 0:
        sys.exit(archive.stderr.decode())
    differ = False
    # per key path, the largest difference over every config's files
    overall: dict[str, float] = {}
    with tempfile.TemporaryDirectory(prefix="compare-bundles-") as tmp:
        tmp = Path(tmp)
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp / "rev", filter="data")
        old_src = tmp / "rev" / "src"
        for i, (name, args) in enumerate(CONFIGS.items()):
            old = run_cli(old_src, args, tmp / f"old{i}")
            new = run_cli(ROOT / "src", args, tmp / f"new{i}", python)
            if old is None or new is None:
                differ = True
                print(f"{name}: failed")
                continue
            names = old.keys() | new.keys()
            changed = sorted(f for f in names if old.get(f) != new.get(f))
            if not changed:
                print(f"{name}: identical ({len(names)} files)")
                continue
            differ = True
            print(f"{name}: {len(changed)} of {len(names)} files differ")
            for f in changed:
                print(f"  {f}")
                diffs = (json_diffs(f, old[f], new[f])
                         if f in old and f in new else None)
                if diffs == {}:
                    print("    same values, other bytes")
                elif diffs:
                    print_diffs(diffs, "    ")
                    for path, rel in diffs.items():
                        overall[path] = max(overall.get(path, 0.0), rel)
        if overall:
            print("key paths that differ, over every config:")
            print_diffs(dict(sorted(overall.items())), "  ")
        # each side's demos under its own sources; a demo that fails or is
        # on one side only differs
        old, new = ({d.name: run_python(root / "src", [str(d)], exe)
                     for d in sorted((root / "demos").glob("*.py"))}
                    for root, exe in ((tmp / "rev", sys.executable),
                                      (ROOT, python)))
        demos = sorted(old.keys() | new.keys())
        changed = [d for d in demos
                   if old.get(d) is None or old.get(d) != new.get(d)]
        if changed:
            differ = True
            print(f"demos: {len(changed)} of {len(demos)} differ")
            for name in changed:
                print(f"  {name}")
        else:
            print(f"demos: identical ({len(demos)})")
        help_argv = ["-m", "fatflow.cli", "--help"]
        old_help, new_help = (run_python(src, help_argv, exe)
                              for src, exe in ((old_src, sys.executable),
                                               (ROOT / "src", python)))
        if old_help is not None and old_help == new_help:
            print("--help: identical")
        else:
            differ = True
            print("--help differs:")
            sys.stdout.writelines(difflib.unified_diff(
                (old_help or "").splitlines(keepends=True),
                (new_help or "").splitlines(keepends=True),
                f"{rev}: fatflow --help", "working tree: fatflow --help"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
