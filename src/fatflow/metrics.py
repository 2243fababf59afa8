"""Evaluation metrics and the theoretical throughput/latency/balance bounds.

Everything is pure post-processing over immutable run outputs: per-link load
maps (offered demands or achieved rates, the caller picks which), per-link
utilization means, probe RTTs, and the per-event throughput series.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Mapping, Optional, Sequence

from .rules import POSITIVE
from .topology import Topology


def load_bounds(topo: Topology, link_loads: Mapping[int, float]) -> dict:
    """A report's `bounds` block, from a per-link load map.

    Each edge switch's upstream links and each aggregate's incoming edge
    links are summed once, in link-id order, and every field comes from
    those sums. The per-edge and per-aggregate loads are the sums over the
    k/2 paths. The best-case throughput sums the per-edge loads; the worst
    case is pinned by the least-loaded edge, idle edges included. The
    latency proxies are their reciprocals, None when unbounded; they are
    coarse stand-ins reported alongside measured probe RTT, never in place
    of it. Balance efficiency says how close each pod's aggregate loads sit
    to a perfect 1/P split: 1.0 when every aggregate carries its fair share
    of its pod's load, an idle pod counting as balanced; pods are averaged
    in ascending order and the result clamped to [0, 1].
    """
    half = topo.k // 2
    get = link_loads.get
    per_edge = [ordered_sum(get(lid, 0.0) for lid in topo.edge_uplink_ids(e)) / half
                for e in topo.edge_switches]
    per_agg = []
    pods: dict[int, list[float]] = {}
    for a in topo.agg_switches:
        load = ordered_sum(get(lid, 0.0) for lid in topo.agg_inlink_ids(a))
        per_agg.append(load / half)
        pods.setdefault(a.pod, []).append(load)
    per_pod = []
    for pod in sorted(pods):
        total = ordered_sum(pods[pod])
        if total <= 0:
            per_pod.append(1.0)
            continue
        dev = ordered_sum((load / total - 1.0 / half) ** 2 for load in pods[pod])
        per_pod.append(1.0 - dev / half)
    eff = ordered_sum(per_pod) / len(per_pod) if per_pod else 1.0
    t_max, t_min = ordered_sum(per_edge), min(per_edge, default=0.0)
    return {
        "t_max_bps": t_max,
        "t_min_bps": t_min,
        # JSON has no Infinity
        "l_max_proxy": 1.0 / t_max if t_max > 0 else None,
        "l_min_proxy": 1.0 / t_min if t_min > 0 else None,
        "balance_efficiency": min(1.0, max(0.0, eff)),
        "per_edge_load_bps": per_edge,
        "per_agg_load_bps": per_agg,
    }


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
