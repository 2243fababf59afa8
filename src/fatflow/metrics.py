"""Evaluation metrics and the theoretical throughput/latency/balance bounds.

Everything is pure post-processing over immutable run outputs: per-link load
maps (offered demands or achieved rates, the caller picks which), per-link
utilization means, probe RTTs, and the per-event throughput series.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, Mapping, Optional, Sequence

from .rules import POSITIVE
from .topology import Topology


def edge_upstream_loads(topo: Topology, link_loads: Mapping[int, float]) -> list[float]:
    """Total load each edge switch pushes upward, in edge order."""
    return [
        ordered_sum(link_loads.get(lid, 0.0) for lid in topo.edge_uplink_ids(e))
        for e in topo.edge_switches
    ]


def edge_load_distribution(topo: Topology, link_loads: Mapping[int, float]) -> list[float]:
    """Per-edge upstream load divided by the k/2 upstream paths of the edge."""
    paths = topo.k // 2
    return [load / paths for load in edge_upstream_loads(topo, link_loads)]


def aggregate_load(topo: Topology, link_loads: Mapping[int, float]) -> list[float]:
    """Per-aggregate sum of incoming edge loads over the k/2 paths, agg order."""
    paths = topo.k // 2
    return [
        ordered_sum(link_loads.get(lid, 0.0) for lid in topo.agg_inlink_ids(a)) / paths
        for a in topo.agg_switches
    ]


def throughput_bounds(topo: Topology, link_loads: Mapping[int, float]) -> tuple[float, float]:
    """(best-case, worst-case) throughput from the per-edge load split.

    Best case spreads every edge's load over its paths and sums; worst case
    is pinned by the least-loaded edge, idle edges included.
    """
    dist = edge_load_distribution(topo, link_loads)
    if not dist:
        return 0.0, 0.0
    return ordered_sum(dist), min(dist)


def latency_proxies(t_max: float, t_min: float) -> tuple[float, float]:
    """Reciprocal-throughput latency proxies; inf flags an unbounded proxy.

    These are coarse stand-ins reported alongside measured probe RTT, never
    in place of it.
    """
    l_max = 1.0 / t_max if t_max > 0 else math.inf
    l_min = 1.0 / t_min if t_min > 0 else math.inf
    return l_max, l_min


def load_balance_efficiency(topo: Topology, link_loads: Mapping[int, float]) -> float:
    """How close each pod's aggregate uplink loads sit to a perfect 1/P split.

    1.0 means every aggregate of every pod carries exactly its fair share of
    the pod's edge load; an idle pod counts as balanced. Pods are averaged
    and the result clamped to [0, 1].
    """
    half = topo.k // 2
    pods = sorted({a.pod for a in topo.agg_switches})
    per_pod = []
    for pod in pods:
        aggs = [a for a in topo.agg_switches if a.pod == pod]
        agg_loads = [
            ordered_sum(link_loads.get(lid, 0.0) for lid in topo.agg_inlink_ids(a))
            for a in aggs
        ]
        total = ordered_sum(agg_loads)
        if total <= 0:
            per_pod.append(1.0)
            continue
        dev = ordered_sum((load / total - 1.0 / half) ** 2 for load in agg_loads)
        per_pod.append(1.0 - dev / half)
    eff = ordered_sum(per_pod) / len(per_pod) if per_pod else 1.0
    return min(1.0, max(0.0, eff))


def bisection_bandwidth(series: Sequence[tuple[float, float]],
                        horizon: float) -> tuple[list[tuple[float, float]], float]:
    """Time-weighted mean of the cross-bisection throughput step series.

    `series` holds (time, rate) points as emitted by the engine; the last
    value is held until the horizon.
    """
    POSITIVE.check("horizon", horizon, ValueError)
    points = list(series)
    if any(t1 < t0 for (t0, _), (t1, _) in zip(points, points[1:])):
        raise ValueError("series times must be nondecreasing")
    if not points or points[0][0] > 0:
        points = [(0.0, 0.0)] + points
    area = 0.0
    for (t0, v), (t1, _) in zip(points, points[1:]):
        if t0 >= horizon:
            break
        area += v * (min(t1, horizon) - t0)
    last_t, last_v = points[-1]
    if last_t < horizon:
        area += last_v * (horizon - last_t)
    return list(points), area / horizon


def ordered_sum(xs: Iterable[float]) -> float:
    """Sum of floats, added left to right from 0.0.

    Bundles store these sums, so their rounding is fixed. The built-in `sum`
    adds left to right only up to Python 3.11; from 3.12 on it compensates.
    """
    total = 0.0
    for x in xs:
        total += x
    return total


def _pairwise_sum(xs: Sequence[float], lo: int, n: int) -> float:
    # NumPy's float64 pairwise summation of xs[lo:lo + n], in its order
    if n < 8:
        res = -0.0
        for i in range(lo, lo + n):
            res += xs[i]
        return res
    if n <= 128:
        end = lo + n - n % 8
        r0, r1, r2, r3, r4, r5, r6, r7 = xs[lo:lo + 8]
        for i in range(lo + 8, end, 8):
            r0 += xs[i]; r1 += xs[i + 1]; r2 += xs[i + 2]; r3 += xs[i + 3]
            r4 += xs[i + 4]; r5 += xs[i + 5]; r6 += xs[i + 6]; r7 += xs[i + 7]
        res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(end, lo + n):
            res += xs[i]
        return res
    half = n // 2
    half -= half % 8
    return _pairwise_sum(xs, lo, half) + _pairwise_sum(xs, lo + half, n - half)


def mean(xs: Sequence[float]) -> float:
    """Arithmetic mean of a non-empty sequence, rounded as `numpy.mean` rounds it.

    Bundles store these means, so their rounding is fixed: the sum starts
    from NumPy's identity +0.0 and adds pairwise in NumPy's order. The
    built-in `sum` (compensated from Python 3.12 on), `math.fsum` and
    `statistics.fmean` each round differently.
    """
    if not xs:
        raise ValueError("mean of an empty sequence")
    return (0.0 + _pairwise_sum(xs, 0, len(xs))) / len(xs)


def column_means(rows: Sequence[Sequence[float]]) -> list[float]:
    """Per-column mean of equal-length rows, such as per-run utilizations.

    Rows are added left to right from 0.0, which is how `numpy.mean(rows,
    axis=0)` rounds whenever there are two or more columns.
    """
    if not rows:
        raise ValueError("need at least one row")
    acc = [0.0] * len(rows[0])
    for row in rows:
        acc = [a + x for a, x in zip(acc, row, strict=True)]
    return [a / len(rows) for a in acc]


def utilization_cdf(link_means: Sequence[float]) -> list[tuple[float, float]]:
    """Empirical CDF of per-link time-averaged utilization.

    `link_means` holds one value per monitored link, already averaged over
    the polls (see `Engine.util_sums`).
    """
    if not link_means:
        raise ValueError("need at least one link")
    n = len(link_means)
    # float() also rejects rows of values passed in place of the means
    return [(float(u), (i + 1) / n) for i, u in enumerate(sorted(link_means))]


def cdf_value_at(cdf: Sequence[tuple[float, float]], fraction: float) -> float:
    """Utilization at a cumulative-fraction query, linearly interpolated.

    Rounds as `numpy.interp` does, including its exact-hit branch.
    """
    if not cdf:
        raise ValueError("empty CDF")
    if not (0.0 <= fraction <= 1.0):
        raise ValueError(f"fraction must be in [0, 1], got {fraction!r}")
    fracs = [f for _, f in cdf]
    j = max(bisect.bisect_right(fracs, fraction) - 1, 0)
    u0, f0 = cdf[j]
    # at or left of a point, or past the last, NumPy skips the slope, which
    # could be infinite
    if j == len(cdf) - 1 or fraction <= f0:
        return float(u0)
    u1, f1 = cdf[j + 1]
    return (u1 - u0) / (f1 - f0) * (fraction - f0) + u0


def mice_loss_and_rtt(rtts: Sequence[Optional[float]]) -> tuple[float, Optional[float]]:
    """(loss fraction, mean absolute RTT deviation) of probe RTTs in seconds,
    None for a lost probe; the deviation is None when nothing was delivered."""
    if not rtts:
        raise ValueError("no probe results")
    delivered = [r for r in rtts if r is not None]
    loss = 1.0 - len(delivered) / len(rtts)
    if not delivered:
        return loss, None
    centre = mean(delivered)
    return loss, mean([abs(r - centre) for r in delivered])
