import math
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatflow import metrics
from fatflow.engine import Engine
from fatflow.schedulers import SchedulerKind
from fatflow.topology import build_fat_tree, build_nonblocking
from fatflow.traffic import Flow


@pytest.fixture(scope="module")
def k4():
    return build_fat_tree(4, 10e6)


def loads_for_flow(topo, src_idx, dst_idx, demand, core=0):
    """Offered load map for one flow routed via the given core."""
    src, dst = topo.hosts[src_idx], topo.hosts[dst_idx]
    path = [p for p in topo.equal_cost_paths(src, dst)
            if p.core_index in (core, None)][0]
    return {lid: demand for lid in path.link_ids}


def bound(key):
    """The `load_bounds` field `key`, as a function of (topo, loads)."""
    return lambda topo, loads: metrics.load_bounds(topo, loads)[key]


edge_loads = bound("per_edge_load_bps")
agg_loads = bound("per_agg_load_bps")
efficiency = bound("balance_efficiency")


def throughput(topo, loads):
    b = metrics.load_bounds(topo, loads)
    return b["t_max_bps"], b["t_min_bps"]


def test_edge_loads_zero_when_idle(k4):
    assert edge_loads(k4, {}) == [0.0] * 8
    assert agg_loads(k4, {}) == [0.0] * 8


def test_edge_load_single_flow(k4):
    loads = loads_for_flow(k4, 0, 15, 10e6)
    dist = edge_loads(k4, loads)
    assert dist[0] == 5e6  # 10 Mb/s over the edge's 2 upstream paths
    assert all(v == 0.0 for v in dist[1:])


def test_edge_load_uniform_symmetry(k4):
    loads = {}
    for e in k4.edge_switches:
        for lid in k4.edge_uplink_ids(e):
            loads[lid] = 3e6
    dist = edge_loads(k4, loads)
    assert all(v == pytest.approx(dist[0]) for v in dist)
    assert dist[0] == pytest.approx(2 * 3e6 / 2)


def test_aggregate_load_single_flow(k4):
    loads = loads_for_flow(k4, 0, 15, 10e6, core=0)
    agg = agg_loads(k4, loads)
    assert agg[0] == 5e6  # src-pod aggregate 0 carries it, divided by P=2
    assert sum(1 for v in agg if v > 0) == 1


def test_aggregate_load_uniform_case(k4):
    # equal load from every edge to every aggregate: all values equal
    loads = {}
    for a in k4.agg_switches:
        for lid in k4.agg_inlink_ids(a):
            loads[lid] = 4e6
    agg = agg_loads(k4, loads)
    assert max(agg) - min(agg) <= 1e-9
    edge = edge_loads(k4, loads)
    assert max(edge) - min(edge) <= 1e-9
    assert efficiency(k4, loads) == pytest.approx(1.0, abs=1e-9)


def test_throughput_bounds_uniform(k4):
    loads = {}
    for e in k4.edge_switches:
        for lid in k4.edge_uplink_ids(e):
            loads[lid] = 5e6
    t_max, t_min = throughput(k4, loads)
    assert t_max == pytest.approx(8 * 10e6 / 2)
    assert t_min == pytest.approx(10e6 / 2)
    assert t_min <= t_max


def test_throughput_bounds_single_loaded_edge(k4):
    loads = loads_for_flow(k4, 0, 15, 10e6)
    t_max, t_min = throughput(k4, loads)
    assert t_max == 5e6
    assert t_min == 0.0  # idle edges included


def test_throughput_bounds_idle(k4):
    assert throughput(k4, {}) == (0.0, 0.0)


def test_latency_proxies():
    # k = 2: two edges, one uplink each, so per-edge loads are the link loads
    k2 = build_fat_tree(2, 10e6)
    a, b = (k2.edge_uplink_ids(e)[0] for e in k2.edge_switches)

    def proxies(loads):
        got = metrics.load_bounds(k2, loads)
        return got["l_max_proxy"], got["l_min_proxy"]

    l_max, l_min = proxies({a: 40e6, b: 40e6})  # t_max 80 Mb/s, t_min 40 Mb/s
    assert l_max == pytest.approx(1 / 80e6)
    assert l_min == pytest.approx(1 / 40e6)
    assert l_max <= l_min
    assert proxies({a: 80e6}) == (1 / 80e6, None)  # None: unbounded
    assert proxies({}) == (None, None)


def test_balance_efficiency_perfect(k4):
    loads = {}
    for a in k4.agg_switches:
        for lid in k4.agg_inlink_ids(a):
            loads[lid] = 2e6
    assert efficiency(k4, loads) == pytest.approx(1.0, abs=1e-9)


def test_balance_efficiency_all_on_one_aggregate(k4):
    # pod 0 only: all edge load into aggregate 0, nothing into aggregate 1
    loads = {}
    agg0 = k4.agg_switches[0]
    assert agg0.pod == 0
    for lid in k4.agg_inlink_ids(agg0):
        loads[lid] = 5e6
    # deviations (1 - 1/2)^2 + (0 - 1/2)^2 = 1/2, over k/2 = 2 -> 0.75;
    # the three idle pods average in at 1.0
    want = (0.75 + 3 * 1.0) / 4
    assert efficiency(k4, loads) == pytest.approx(want, abs=1e-9)


def test_balance_efficiency_scale_invariant(k4):
    rng = random.Random(8)
    loads = {lid: rng.uniform(0, 10e6)
             for a in k4.agg_switches for lid in k4.agg_inlink_ids(a)}
    base = efficiency(k4, loads)
    for c in (2.0, 0.5, 10.0):
        scaled = {lid: v * c for lid, v in loads.items()}
        assert efficiency(k4, scaled) == pytest.approx(base)


def test_balance_efficiency_idle_is_one(k4):
    assert efficiency(k4, {}) == 1.0


def test_balance_efficiency_clamped(k4):
    rng = random.Random(9)
    for _ in range(50):
        loads = {lid: rng.choice([0.0, 0.0, rng.uniform(0, 20e6)])
                 for a in k4.agg_switches for lid in k4.agg_inlink_ids(a)}
        assert 0.0 <= efficiency(k4, loads) <= 1.0


# -- `load_bounds` against the separate functions it replaced ---------------------

def ref_edge_upstream_loads(topo, link_loads):
    return [
        metrics.ordered_sum(link_loads.get(lid, 0.0) for lid in topo.edge_uplink_ids(e))
        for e in topo.edge_switches
    ]


def ref_edge_load_distribution(topo, link_loads):
    paths = topo.k // 2
    return [load / paths for load in ref_edge_upstream_loads(topo, link_loads)]


def ref_aggregate_load(topo, link_loads):
    paths = topo.k // 2
    return [
        metrics.ordered_sum(link_loads.get(lid, 0.0) for lid in topo.agg_inlink_ids(a))
        / paths
        for a in topo.agg_switches
    ]


def ref_throughput_bounds(topo, link_loads):
    dist = ref_edge_load_distribution(topo, link_loads)
    if not dist:
        return 0.0, 0.0
    return metrics.ordered_sum(dist), min(dist)


def ref_latency_proxies(t_max, t_min):
    l_max = 1.0 / t_max if t_max > 0 else math.inf
    l_min = 1.0 / t_min if t_min > 0 else math.inf
    return l_max, l_min


def ref_load_balance_efficiency(topo, link_loads):
    half = topo.k // 2
    pods = sorted({a.pod for a in topo.agg_switches})
    per_pod = []
    for pod in pods:
        aggs = [a for a in topo.agg_switches if a.pod == pod]
        agg_loads = [
            metrics.ordered_sum(link_loads.get(lid, 0.0) for lid in topo.agg_inlink_ids(a))
            for a in aggs
        ]
        total = metrics.ordered_sum(agg_loads)
        if total <= 0:
            per_pod.append(1.0)
            continue
        dev = metrics.ordered_sum((load / total - 1.0 / half) ** 2 for load in agg_loads)
        per_pod.append(1.0 - dev / half)
    eff = metrics.ordered_sum(per_pod) / len(per_pod) if per_pod else 1.0
    return min(1.0, max(0.0, eff))


def ref_json_float(x):
    if x is None or math.isinf(x):
        return None
    return x


def ref_bounds(topo, offered):
    """The `bounds` block as reports built it from the separate functions."""
    t_max, t_min = ref_throughput_bounds(topo, offered)
    l_max, l_min = ref_latency_proxies(t_max, t_min)
    return {
        "t_max_bps": t_max,
        "t_min_bps": t_min,
        "l_max_proxy": ref_json_float(l_max),
        "l_min_proxy": ref_json_float(l_min),
        "balance_efficiency": ref_load_balance_efficiency(topo, offered),
        "per_edge_load_bps": ref_edge_load_distribution(topo, offered),
        "per_agg_load_bps": ref_aggregate_load(topo, offered),
    }


def random_load_maps(topo, rng, n):
    """Idle, one-aggregate pileup, then `n` random maps over every link:
    dense, sparse with zeros, and on the aggregate in-links only."""
    yield {}
    if topo.agg_switches:
        yield {lid: 8e6 for lid in topo.agg_inlink_ids(topo.agg_switches[0])}
    ids = [l.id for l in topo.links]
    agg_in = [lid for a in topo.agg_switches for lid in topo.agg_inlink_ids(a)]
    for i in range(n):
        pool = agg_in if i % 3 == 2 and agg_in else ids
        zero_share = 0.0 if i % 3 == 0 else 0.7
        yield {lid: 0.0 if rng.random() < zero_share
               else rng.uniform(0, topo.link_capacity) for lid in pool}


@pytest.mark.parametrize("build,k", [(build_fat_tree, 2), (build_fat_tree, 4),
                                     (build_fat_tree, 6), (build_fat_tree, 8),
                                     (build_nonblocking, 4)])
def test_load_bounds_matches_the_separate_functions_bit_for_bit(build, k):
    topo = build(k, 10e6)
    rng = random.Random(k)
    for loads in random_load_maps(topo, rng, 60):
        # repr tells every two floats apart, 0.0 and -0.0 included
        assert repr(metrics.load_bounds(topo, loads)) == repr(ref_bounds(topo, loads))


def test_bisection_bandwidth_series():
    series = [(0.0, 0.0), (1.0, 80e6), (3.0, 40e6)]
    points, mean = metrics.bisection_bandwidth(series, horizon=4.0)
    assert mean == pytest.approx((0 * 1 + 80e6 * 2 + 40e6 * 1) / 4)


def test_bisection_bandwidth_none():
    _, mean = metrics.bisection_bandwidth([(0.0, 0.0)], horizon=10.0)
    assert mean == 0.0


def test_bisection_bandwidth_uncontended_sum():
    # 8 host pairs crossing the bisection with no shared links: 80 Mb/s
    star = build_nonblocking(4, 10e6)
    flows = [Flow(i, star.hosts[i], star.hosts[8 + i], 10e6, 0.0, None)
             for i in range(8)]
    eng = Engine(star, SchedulerKind("nonblocking"), flows, horizon=4.0, seed=0)
    eng.run()
    assert eng.bisection_rate == 80e6
    _, mean = metrics.bisection_bandwidth(eng.bisection_series, eng.horizon)
    assert mean == pytest.approx(80e6)


def test_bisection_matches_allocator_on_contended_instance(k4):
    # contended case: the series value equals the sum of max-min rates over
    # cross-half flows at every epoch
    flows = [Flow(i, k4.hosts[i % 4], k4.hosts[15 - (i % 3)], 10e6,
                  0.2 * i, None) for i in range(6)]
    eng = Engine(k4, SchedulerKind("ecmp"), flows, horizon=4.0, seed=1)
    eng.run()
    total = sum(f.achieved_rate for f in eng.active.values()
                if (f.spec.src.pod < 2) != (f.spec.dst.pod < 2))
    assert eng.bisection_rate == total
    assert eng.bisection_series[-1][1] == total


def test_bisection_rejects_unordered():
    with pytest.raises(ValueError):
        metrics.bisection_bandwidth([(2.0, 1.0), (1.0, 1.0)], horizon=4.0)


def test_bisection_from_event_log_matches_series(k4):
    flows = [Flow(i, k4.hosts[i], k4.hosts[15 - i], 10e6,
                  0.5 * i, 2.0) for i in range(5)]
    log = []
    eng = Engine(k4, SchedulerKind("ecmp"), flows, horizon=6.0, seed=2,
                 sink=log.append)
    eng.run()
    from_log = [(0.0, 0.0)] + [(rec["t"], rec["bisection_rate"])
                               for rec in log
                               if "bisection_rate" in rec]
    _, mean_log = metrics.bisection_bandwidth(from_log, eng.horizon)
    _, mean_eng = metrics.bisection_bandwidth(eng.bisection_series, eng.horizon)
    assert mean_log == mean_eng


def test_utilization_cdf_idle():
    cdf = metrics.utilization_cdf(metrics.column_means([[0.0] * 10]))
    assert all(u == 0.0 for u, _ in cdf)
    assert cdf[-1][1] == 1.0


def test_utilization_cdf_two_point():
    cdf = metrics.utilization_cdf(metrics.column_means([[1.0] * 5 + [0.0] * 5]))
    assert metrics.cdf_value_at(cdf, 0.5) == pytest.approx(0.0)
    assert cdf[-1] == (1.0, 1.0)


def test_utilization_cdf_is_monotone():
    rng = random.Random(4)
    samples = [[rng.random() for _ in range(64)] for _ in range(5)]
    cdf = metrics.utilization_cdf(metrics.column_means(samples))
    us = [u for u, _ in cdf]
    fs = [f for _, f in cdf]
    assert us == sorted(us)
    assert fs == sorted(fs)
    assert fs[-1] == 1.0


def test_utilization_cdf_requires_samples():
    with pytest.raises(ValueError):
        metrics.column_means([])
    with pytest.raises(ValueError):
        metrics.utilization_cdf([])
    with pytest.raises(TypeError):
        metrics.utilization_cdf([[0.1, 0.2], [0.3, 0.4]])


def test_cdf_value_interpolates():
    cdf = [(0.0, 0.25), (0.2, 0.5), (1.0, 1.0)]
    assert metrics.cdf_value_at(cdf, 0.5) == pytest.approx(0.2)
    assert metrics.cdf_value_at(cdf, 0.75) == pytest.approx(0.6)
    with pytest.raises(ValueError):
        metrics.cdf_value_at(cdf, 1.5)


def test_mice_loss_and_rtt():
    loss, dev = metrics.mice_loss_and_rtt([1e-3, 2e-3, 3e-3])
    assert loss == 0.0
    assert dev == pytest.approx((2 / 3) * 1e-3)


def test_mice_loss_fraction():
    loss, dev = metrics.mice_loss_and_rtt([1e-3] * 7 + [None] * 3)
    assert loss == pytest.approx(0.3)
    assert dev == 0.0  # identical rtts


def test_mice_zero_rtt_counts_as_delivered():
    loss, dev = metrics.mice_loss_and_rtt([0.0, None, 0.0, 0.0])
    assert loss == 0.25
    assert dev == 0.0


def test_mice_all_lost():
    loss, dev = metrics.mice_loss_and_rtt([None] * 4)
    assert loss == 1.0
    assert dev is None


def test_mice_requires_results():
    with pytest.raises(ValueError):
        metrics.mice_loss_and_rtt([])


# -- the pure-Python reductions against the NumPy calls they replaced ---------

@pytest.fixture(scope="module")
def np():
    return pytest.importorskip("numpy")


def as_bytes(xs):
    return array("d", xs).tobytes()


# every branch of NumPy's pairwise sum: under 8 values, one 8-accumulator
# block (8-128), a split (above 128), and the split on either side of 8192
MEAN_LENGTHS = [1, 2, 7, 8, 9, 15, 16, 17, 64, 127, 128, 129, 136, 255, 256,
                257, 1000, 8191, 8192, 8193, 16384, 35686]


@pytest.mark.parametrize("n", MEAN_LENGTHS)
def test_mean_matches_numpy(np, n):
    rng = random.Random(n)
    for _ in range(4):
        xs = [rng.uniform(-1, 1) * 10.0 ** rng.randint(-6, 6) for _ in range(n)]
        assert as_bytes([metrics.mean(xs)]) == as_bytes([np.mean(xs)])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.floats(min_value=-1e100, max_value=1e100), min_size=1,
                max_size=300))
def test_mean_matches_numpy_on_any_floats(xs):
    np = pytest.importorskip("numpy")
    assert as_bytes([metrics.mean(xs)]) == as_bytes([np.mean(xs)])


def test_mean_of_signed_zeros_matches_numpy(np):
    # NumPy's sum starts from its identity +0.0, so all -0.0 averages to +0.0
    assert as_bytes([metrics.mean([-0.0] * 3)]) == as_bytes([0.0])
    rng = random.Random(5)
    for n in (1, 3, 7, 8, 9, 128, 129, 1000, 9000):
        assert as_bytes([metrics.mean([-0.0] * n)]) == as_bytes([np.mean([-0.0] * n)])
        for _ in range(20):
            xs = [rng.choice((0.0, -0.0)) for _ in range(n)]
            assert as_bytes([metrics.mean(xs)]) == as_bytes([np.mean(xs)])


def test_mean_requires_values():
    with pytest.raises(ValueError):
        metrics.mean([])


@pytest.mark.parametrize("rows,cols", [(1, 2), (2, 2), (3, 7), (5, 8), (20, 48),
                                       (9, 64), (200, 3), (2, 768)])
def test_column_means_match_numpy(np, rows, cols):
    rng = random.Random(rows * 1000 + cols)
    samples = [tuple(rng.choice((0.0, -0.0, 1.0, 1 / 3, rng.random()))
                     for _ in range(cols)) for _ in range(rows)]
    assert as_bytes(metrics.column_means(samples)) == \
        as_bytes(np.mean(samples, axis=0))


def test_column_means_reject_ragged_rows():
    with pytest.raises(ValueError):
        metrics.column_means([[0.1, 0.2], [0.3]])


@pytest.mark.parametrize("n", [1, 2, 3, 8, 15, 16, 47, 48, 63, 64, 1024])
def test_cdf_matches_numpy_sort_and_interp(np, n):
    rng = random.Random(n)
    means = [rng.choice((0.0, 1.0, rng.random())) for _ in range(n)]
    cdf = metrics.utilization_cdf(means)
    utils = [u for u, _ in cdf]
    fracs = [f for _, f in cdf]
    assert as_bytes(utils) == as_bytes(np.sort(means))
    queries = [0.5, 0.0, 1.0, fracs[0]] + [rng.random() for _ in range(50)]
    for q in queries:
        assert as_bytes([metrics.cdf_value_at(cdf, q)]) == \
            as_bytes([np.interp(q, fracs, utils)])


def test_cdf_value_at_matches_numpy_off_the_grid(np):
    # below the first point, exact hits and between points; the second CDF
    # has an infinite slope, where only the exact-hit branch avoids inf * 0
    for cdf in ([(0.0, 0.25), (0.2, 0.5), (0.2, 0.6), (1.0, 1.0)],
                [(0.0, 0.0), (1e300, 5e-324), (1.0, 1.0)]):
        fracs = [f for _, f in cdf]
        utils = [u for u, _ in cdf]
        for q in (0.0, 5e-324, 0.1, 0.25, 0.3, 0.5, 0.55, 0.6, 0.7, 1.0):
            assert as_bytes([metrics.cdf_value_at(cdf, q)]) == \
                as_bytes([np.interp(q, fracs, utils)])
