import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatflow.topology import build_fat_tree
from fatflow.traffic import (ELEPHANT, MICE, Flow, WorkloadError, WorkloadSpec,
                             crosses_bisection, generate_workload,
                             probe_schedule)


@pytest.fixture(scope="module")
def k4():
    return build_fat_tree(4, 10e6)


def test_bisection_flows_cross_halves(k4):
    spec = WorkloadSpec(pattern="random_bisection", elephant_count=8, seed=1)
    flows = generate_workload(k4, spec)
    assert len(flows) == 8
    for f in flows:
        assert crosses_bisection(k4, f.src, f.dst)
        assert f.src != f.dst
        assert f.kind == ELEPHANT


def test_same_seed_same_workload(k4):
    spec = WorkloadSpec(elephant_count=20, seed=7, mice_probe_interval=1.0)
    a = generate_workload(k4, spec)
    b = generate_workload(k4, spec)
    assert a == b


def test_different_seeds_differ(k4):
    a = generate_workload(k4, WorkloadSpec(elephant_count=20, seed=1))
    b = generate_workload(k4, WorkloadSpec(elephant_count=20, seed=2))
    assert [(f.src, f.dst) for f in a] != [(f.src, f.dst) for f in b]


def test_arrival_times_nondecreasing(k4):
    flows = generate_workload(k4, WorkloadSpec(elephant_count=50, seed=3))
    times = [f.start_time for f in flows]
    assert times == sorted(times)
    assert all(t > 0 for t in times)


def test_mice_accompany_elephants(k4):
    spec = WorkloadSpec(elephant_count=5, seed=2, mice_probe_interval=0.5)
    flows = generate_workload(k4, spec)
    assert len(flows) == 10
    for eleph, mouse in zip(flows[0::2], flows[1::2]):
        assert eleph.kind == ELEPHANT and mouse.kind == MICE
        assert (eleph.src, eleph.dst) == (mouse.src, mouse.dst)
        assert eleph.start_time == mouse.start_time
        assert mouse.demand < eleph.demand / 100


def test_permutation_property(k4):
    spec = WorkloadSpec(pattern="random_permutation", elephant_count=16, seed=5)
    flows = generate_workload(k4, spec)
    srcs = [f.src for f in flows]
    dsts = [f.dst for f in flows]
    assert len(set(srcs)) == 16
    assert len(set(dsts)) == 16
    assert all(f.src != f.dst for f in flows)


def test_permutation_rejects_oversize(k4):
    spec = WorkloadSpec(pattern="random_permutation", elephant_count=17, seed=5)
    with pytest.raises(WorkloadError):
        generate_workload(k4, spec)


def test_stride_pattern(k4):
    spec = WorkloadSpec(pattern="stride", elephant_count=16, seed=0)
    flows = generate_workload(k4, spec)
    hosts = list(k4.hosts)
    for i, f in enumerate(flows):
        assert f.src == hosts[i % 16]
        assert f.dst == hosts[(i + 8) % 16]


def test_unknown_pattern_rejected(k4):
    with pytest.raises(WorkloadError):
        generate_workload(k4, WorkloadSpec(pattern="ring", elephant_count=4))


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
    with pytest.raises(WorkloadError):
        WorkloadSpec(elephant_count=-1).validate()
    with pytest.raises(WorkloadError):
        WorkloadSpec(mean_arrival_rate=0.0).validate()
    with pytest.raises(WorkloadError):
        WorkloadSpec(mice_probe_interval=0.0).validate()


@pytest.mark.parametrize("field", ["mean_arrival_rate", "elephant_demand",
                                   "mice_probe_interval", "flow_duration"])
def test_spec_rejects_non_finite(field):
    for value in (float("nan"), float("inf")):
        with pytest.raises(WorkloadError, match=f"^{field} must be finite"):
            WorkloadSpec(**{field: value}).validate()
