"""Check the bundle JSON writer against `json.dumps` on this interpreter.

Usage (from anywhere in the repository, under any CPython 3.10+, no
third-party packages needed):
    python scripts/check_json_writer.py [--count N] [--seed S]

Draws N random nested objects (dicts with str keys, lists, tuples, float
lists and rows of floats, ragged rows, ints, bools, None, escaped and
non-ASCII strings, and floats with NaN, the infinities, both zeros and
5e-324 common) and encodes them all through one float memo, as a bundle
does. Each text must equal `json.dumps(obj, sort_keys=True, indent=2)`.
Prints "identical (N objects, M float texts in the memo) on Python X.Y.Z", or
the first object that differs and exits 1.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fatflow.experiment import _FloatTexts, _json_text  # noqa: E402

EDGE_FLOATS = [0.0, -0.0, 1.0, -1.0, 0.1, 5e-324, -5e-324, 1e308, 1e16,
               1e-7, math.nan, -math.nan, math.inf, -math.inf]
STRINGS = ["", "a", "é", "\n\"\\", "\x00\x7f", " ", "\U0001f600", "B"]


def draw_float(rng: random.Random) -> float:
    if rng.random() < 0.5:
        return rng.choice(EDGE_FLOATS)
    return rng.uniform(-1e6, 1e6) * rng.choice([1.0, 1e-10, 1e10])


def draw_scalar(rng: random.Random):
    return rng.choice([
        lambda: draw_float(rng), lambda: rng.randrange(-10**20, 10**20),
        lambda: rng.random() < 0.5, lambda: None,
        lambda: rng.choice(STRINGS)])()


def draw(rng: random.Random, depth: int = 0):
    kind = rng.randrange(7) if depth < 4 else 0
    if kind == 0:
        return draw_scalar(rng)
    if kind == 1:  # the bulk path
        return [draw_float(rng) for _ in range(rng.randrange(6))]
    if kind == 2:  # rows, ragged or with a tuple or a non-float now and then
        width = rng.randrange(4)
        rows = [[draw_float(rng) for _ in range(width)]
                for _ in range(rng.randrange(4))]
        if rows and rng.random() < 0.3:
            rows[-1] = rows[-1][:-1] or [True]
        if rows and rng.random() < 0.2:
            rows[0] = tuple(rows[0])
        return rows
    if kind == 3:  # mixed
        return [rng.choice([draw_float(rng), 1, True])
                for _ in range(rng.randrange(4))]
    if kind == 4:
        return [draw(rng, depth + 1) for _ in range(rng.randrange(4))]
    if kind == 5:
        return tuple(draw(rng, depth + 1) for _ in range(rng.randrange(3)))
    return {rng.choice(STRINGS): draw(rng, depth + 1)
            for _ in range(rng.randrange(5))}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--count", type=int, default=20000,
                   help="objects to draw (default: %(default)s)")
    p.add_argument("--seed", type=int, default=0,
                   help="random seed (default: %(default)s)")
    args = p.parse_args(argv)
    rng = random.Random(args.seed)
    floats = _FloatTexts()
    for _ in range(args.count):
        obj = draw(rng)
        if _json_text(obj, floats) != json.dumps(obj, sort_keys=True,
                                                 indent=2):
            print(f"differs: {obj!r}")
            return 1
    print(f"identical ({args.count} objects, {len(floats)} float texts in "
          f"the memo) on Python {platform.python_version()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
