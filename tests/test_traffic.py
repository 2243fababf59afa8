import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatflow.topology import build_fat_tree, build_nonblocking
from fatflow.traffic import (ELEPHANT, MICE, Flow, WorkloadError, WorkloadSpec,
                             crosses_bisection, generate_workload,
                             probe_schedule)


@pytest.fixture(scope="module")
def k4():
    return build_fat_tree(4, 10e6)


def test_bisection_flows_cross_halves(k4):
    spec = WorkloadSpec(pattern="random_bisection", elephants=8, seed=1,
                        arrival_rate=4.0, demand=10e6, probe_interval=None)
    flows = generate_workload(k4, spec)
    assert len(flows) == 8
    for f in flows:
        assert crosses_bisection(k4, f.src, f.dst)
        assert f.src != f.dst
        assert f.kind == ELEPHANT


def test_same_seed_same_workload(k4):
    spec = WorkloadSpec(elephants=20, seed=7, arrival_rate=4.0, demand=10e6,
                        probe_interval=1.0)
    a = generate_workload(k4, spec)
    b = generate_workload(k4, spec)
    assert a == b


def test_different_seeds_differ(k4):
    a, b = (generate_workload(k4, WorkloadSpec(
        elephants=20, seed=seed, arrival_rate=4.0, demand=10e6,
        probe_interval=None)) for seed in (1, 2))
    assert [(f.src, f.dst) for f in a] != [(f.src, f.dst) for f in b]


def test_arrival_times_nondecreasing(k4):
    flows = generate_workload(k4, WorkloadSpec(
        elephants=50, seed=3, arrival_rate=4.0, demand=10e6,
        probe_interval=None))
    times = [f.start_time for f in flows]
    assert times == sorted(times)
    assert all(t > 0 for t in times)


def test_mice_accompany_elephants(k4):
    spec = WorkloadSpec(elephants=5, seed=2, arrival_rate=4.0, demand=10e6,
                        probe_interval=0.5)
    flows = generate_workload(k4, spec)
    assert len(flows) == 10
    for eleph, mouse in zip(flows[0::2], flows[1::2]):
        assert eleph.kind == ELEPHANT and mouse.kind == MICE
        assert (eleph.src, eleph.dst) == (mouse.src, mouse.dst)
        assert eleph.start_time == mouse.start_time
        assert mouse.demand < eleph.demand / 100


def test_permutation_property(k4):
    spec = WorkloadSpec(pattern="random_permutation", elephants=16, seed=5,
                        arrival_rate=4.0, demand=10e6, probe_interval=None)
    flows = generate_workload(k4, spec)
    srcs = [f.src for f in flows]
    dsts = [f.dst for f in flows]
    assert len(set(srcs)) == 16
    assert len(set(dsts)) == 16
    assert all(f.src != f.dst for f in flows)


def test_permutation_rejects_oversize(k4):
    spec = WorkloadSpec(pattern="random_permutation", elephants=17, seed=5,
                        arrival_rate=4.0, demand=10e6, probe_interval=None)
    with pytest.raises(WorkloadError):
        generate_workload(k4, spec)


def test_stride_pattern(k4):
    spec = WorkloadSpec(pattern="stride", elephants=16, seed=0,
                        arrival_rate=4.0, demand=10e6, probe_interval=None)
    flows = generate_workload(k4, spec)
    hosts = list(k4.hosts)
    for i, f in enumerate(flows):
        assert f.src == hosts[i % 16]
        assert f.dst == hosts[(i + 8) % 16]


def test_unknown_pattern_rejected():
    with pytest.raises(WorkloadError, match="^pattern must be one of "):
        WorkloadSpec(pattern="ring", elephants=4)


@pytest.mark.parametrize("build", [build_fat_tree, build_nonblocking],
                         ids=lambda b: b.__name__)
def test_demand_none_is_the_link_capacity(build):
    topo = build(4, 7e6)
    flows = generate_workload(topo, WorkloadSpec(seed=3, demand=None))
    elephants = [f for f in flows if f.is_elephant]
    assert len(elephants) == 28
    assert all(f.demand == topo.link_capacity for f in elephants)


def probe_flow(duration, start=0.0):
    return Flow(0, None, None, MICE, 1000.0, start, duration)


def test_probe_schedule_basic():
    assert probe_schedule(probe_flow(10.0), horizon=100.0, interval=1.0) == [
        float(i) for i in range(11)
    ]


def test_probe_schedule_zero_duration():
    assert probe_schedule(probe_flow(0.0, start=3.5), horizon=10.0, interval=1.0) == [3.5]


def test_probe_schedule_fractional_interval():
    times = probe_schedule(probe_flow(5.0), horizon=100.0, interval=0.2)
    assert len(times) == 26  # floor(5 / 0.2) + 1


def test_probe_schedule_open_ended_capped_at_horizon():
    times = probe_schedule(probe_flow(None, start=1.0), horizon=4.0, interval=1.0)
    assert times == [1.0, 2.0, 3.0, 4.0]


# short decimals: their multiples often round a few ulps past the decimal
# they should hit (3 * 1.1 = 3.3000000000000003)
@settings(max_examples=300, deadline=None, derandomize=True)
@given(interval=st.sampled_from([0.1, 0.2, 0.3, 0.7, 1.1]),
       horizon_tenths=st.integers(1, 100), start_tenths=st.integers(0, 100),
       duration_tenths=st.none() | st.integers(0, 100))
def test_probe_schedule_stays_inside_the_stream(interval, horizon_tenths,
                                                start_tenths, duration_tenths):
    horizon = horizon_tenths / 10
    start = min(start_tenths, horizon_tenths) / 10
    duration = None if duration_tenths is None else duration_tenths / 10
    times = probe_schedule(probe_flow(duration, start), horizon, interval)
    end = horizon if duration is None else min(start + duration, horizon)
    assert times[0] == start
    assert all(start <= t <= end for t in times)
    assert all(a < b for a, b in zip(times, times[1:]))


def test_probe_schedule_rejects_bad_interval():
    with pytest.raises(WorkloadError):
        probe_schedule(probe_flow(5.0), horizon=10.0, interval=0.0)
    with pytest.raises(WorkloadError):
        probe_schedule(probe_flow(5.0), horizon=10.0, interval=-1.0)


def test_probe_schedule_elephant_rejected():
    f = Flow(0, None, None, ELEPHANT, 1e7, 0.0, 5.0)
    with pytest.raises(WorkloadError):
        probe_schedule(f, horizon=10.0, interval=1.0)


def test_spec_validation():
    for field, value, text in (
            ("elephants", -1, "an integer >= 0"),
            ("elephants", True, "an integer >= 0"),
            ("arrival_rate", 0.0, "finite and > 0"),
            ("probe_interval", 0.0, "none or finite and > 0")):
        with pytest.raises(WorkloadError) as raised:
            WorkloadSpec(**{field: value})
        assert str(raised.value) == f"{field} must be {text}, got {value!r}"


RULE_TEXT = {"arrival_rate": "finite and > 0",
             "demand": "none or finite and > 0",
             "probe_interval": "none or finite and > 0",
             "flow_duration": "none or finite and >= 0"}


@pytest.mark.parametrize("field", RULE_TEXT)
def test_spec_rejects_non_finite(field):
    for value in (float("nan"), float("inf")):
        with pytest.raises(WorkloadError) as raised:
            WorkloadSpec(**{field: value})
        assert str(raised.value) == (
            f"{field} must be {RULE_TEXT[field]}, got {value!r}")
