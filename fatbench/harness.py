"""Helpers for the fatflow benchmark: percentiles, span tracing, digests.

Nothing here imports fatflow at module level, so the helpers can be tested
on synthetic data. The tracer reaches the simulator only by replacing public
module and class attributes with timing wrappers and putting the originals
back afterwards.
"""

from __future__ import annotations

import functools
import gc
import math
from time import perf_counter
from typing import Callable, Iterable, Optional, Sequence

# A percentile is reported only when at least this many samples lie beyond it.
TAIL_SAMPLES = 10

# Float tolerance of the correctness digest: the max-min oracle's tolerance.
REL_TOL = 1e-9
ABS_TOL = 1e-12


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank q-quantile, or None when fewer than TAIL_SAMPLES
    samples lie strictly beyond it."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must be in (0, 1), got {q!r}")
    n = len(values)
    rank = max(1, math.ceil(q * n))
    if n - rank < TAIL_SAMPLES:
        return None
    return sorted(values)[rank - 1]


# -- host speed -------------------------------------------------------------------

# The reference loop's time on an idle core of the baseline host (2-vCPU
# Xeon VM, Python 3.11): the fastest of many samples taken there.
REFERENCE_S = 0.0042


def reference_seconds() -> float:
    """Seconds taken by a fixed pure-Python loop of about REFERENCE_S.

    The loop does what the simulator's inner loops do (dict and set updates,
    float division, min), so other tenants of a shared host slow it down
    about as much as they slow a simulated run timed next to it. It keeps a
    small working set and runs with the garbage collector off, so the
    simulator's heap does not slow it down.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        load: dict[int, float] = {}
        members: dict[int, set[int]] = {}
        level = math.inf
        for i in range(20000):
            link = (i * 7919) % 211
            load[link] = load.get(link, 0.0) + 1.5
            members.setdefault(link, set()).add(i & 255)
        for link, flows in members.items():
            level = min(level, (1e7 - load[link]) / len(flows))
        elapsed = perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if not 0 < level < 1e7:
        raise AssertionError("reference loop miscomputed")
    return elapsed


def at_reference_speed(seconds: float, reference_s: float) -> float:
    """Measured `seconds` rescaled to the host speed at which the reference
    loop takes REFERENCE_S, given the loop's time `reference_s` measured next
    to them."""
    return seconds * REFERENCE_S / reference_s


# -- tracing ------------------------------------------------------------------

# A span is (name, start, end, parent index); parent -1 marks a root span.
Span = tuple


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children nest inside their parent and do
    not overlap each other.
    """
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def inclusive_time(spans: Sequence[Span], names: Iterable[str]) -> tuple[float, int]:
    """(seconds, calls) of the spans named in `names`, counting a span nested
    inside another span of the same group once, through its outermost span."""
    names = frozenset(names)
    total = 0.0
    calls = 0
    for name, start, end, parent in spans:
        if name not in names:
            continue
        calls += 1
        if parent < 0 or spans[parent][0] not in names:
            total += end - start
    return total, calls


Observer = Callable[["Tracer", tuple, object], Optional[str]]


class Tracer:
    """Records a span around each call of the wrapped functions.

    `wrap` swaps a timing wrapper in for an attribute of a module or class;
    `restore` puts every original back, in reverse order. An observer sees
    (tracer, args, result) after each call and may return a new span name;
    a `before` hook runs ahead of each call, outside its span.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str,
             observe: Optional[Observer] = None,
             before: Optional[Callable[[], None]] = None) -> None:
        original = vars(owner)[attr]
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before()  # outside the span
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((name, 0.0, 0.0, parent))
            stack.append(index)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if observe is not None:
                label = observe(self, args, result)
                if label is not None:
                    spans[index] = (label, start, end, parent)
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


# -- correctness digest ---------------------------------------------------------

def digest(report: dict) -> dict:
    """The simulated statistics of one run report, field by field."""
    mice = report["mice"]
    bounds = report["bounds"]
    return {
        "bisection_mean_bps": report["bisection"]["mean_bps"],
        "mice": {key: mice[key] for key in
                 ("probes", "delivered", "loss", "rtt_mean_deviation_s")},
        "decisions": {key: report["decisions"][key]
                      for key in ("controller", "proactive")},
        "monitoring": {key: report["monitoring"][key] for key in
                       ("polls", "port_stat_reads", "uplink_stat_reads")},
        "link_utilization_mean": report["link_utilization_mean"],
        "bounds": {key: bounds[key] for key in
                   ("t_max_bps", "t_min_bps", "l_max_proxy", "l_min_proxy",
                    "balance_efficiency", "per_edge_load_bps",
                    "per_agg_load_bps")},
    }


def digest_mismatches(got, want, path: str = "") -> list[str]:
    """Paths where two digests differ: integers exactly, floats at REL_TOL."""
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{path or '.'}: keys {sorted(got)} != {sorted(want)}"]
        out = []
        for key in want:
            out += digest_mismatches(got[key], want[key], f"{path}.{key}")
        return out
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out += digest_mismatches(g, w, f"{path}[{i}]")
        return out
    if isinstance(want, bool) or isinstance(got, bool) or \
            (isinstance(want, int) and isinstance(got, int)):
        return [] if got == want else [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, (int, float)) and isinstance(got, (int, float)):
        if math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def invariant_violations(d: dict) -> list[str]:
    """Range checks any correct run satisfies, for seeds without golden values."""
    out = []
    mice = d["mice"]
    if not 0 <= mice["delivered"] <= mice["probes"]:
        out.append(f"mice: delivered {mice['delivered']} of {mice['probes']}")
    if mice["loss"] is not None and not 0.0 <= mice["loss"] <= 1.0:
        out.append(f"mice.loss {mice['loss']!r} outside [0, 1]")
    if d["monitoring"]["polls"] <= 0:
        out.append("monitoring.polls is 0")
    if sum(d["decisions"].values()) <= 0:
        out.append("no flow was dispatched")
    for u in d["link_utilization_mean"] or ():
        if not -ABS_TOL <= u <= 1.0 + REL_TOL:
            out.append(f"link utilization {u!r} outside [0, 1]")
            break
    bounds = d["bounds"]
    if not 0.0 <= bounds["balance_efficiency"] <= 1.0:
        out.append(f"balance_efficiency {bounds['balance_efficiency']!r}")
    if bounds["t_min_bps"] > bounds["t_max_bps"] * (1 + REL_TOL):
        out.append("bounds: t_min_bps > t_max_bps")
    if d["bisection_mean_bps"] < 0:
        out.append("bisection mean is negative")
    return out
