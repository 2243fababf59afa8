import collections
import dataclasses
import functools
import heapq
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from array import array
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatflow import engine as engine_module
from fatflow.engine import (Engine, EngineError, EngineParams,
                            link_loss_probability, traversal_delay, waterfill)
from fatflow.experiment import (ExperimentConfig, build_topology, run_one,
                               run_report)
from fatflow.schedulers import (HEDERA_GFF, SCHEDULER_NAMES, SchedulerKind,
                                layout_for)
from fatflow.topology import (CORE, EDGE, NodeId, Topology, TopologyError,
                              build_fat_tree, build_nonblocking)
from fatflow.traffic import ELEPHANT, MICE, Flow, WorkloadSpec, generate_workload


def maxmin_oracle(demands, paths, capacities):
    """Exact progressive filling over rationals, bottleneck-first formulation.

    Kept deliberately independent of the engine's float water-filler: one
    freeze per iteration, capacities consumed by subtraction.
    """
    demands = {f: Fraction(d) for f, d in demands.items()}
    residual = {l: Fraction(c) for l, c in capacities.items()}
    rate = {}
    active = set(demands)
    while active:
        shares = {}
        for l in residual:
            users = [f for f in active if l in paths[f]]
            if users:
                shares[l] = residual[l] / len(users)
        min_share = min(shares.values()) if shares else None
        cheapest = min(active, key=lambda f: (demands[f], f))
        if min_share is None or demands[cheapest] <= min_share:
            v = demands[cheapest]
            rate[cheapest] = v
            for l in paths[cheapest]:
                residual[l] -= v
            active.discard(cheapest)
        else:
            link = min(l for l, s in shares.items() if s == min_share)
            v = shares[link]
            for f in sorted(f for f in active if link in paths[f]):
                rate[f] = v
                for l in paths[f]:
                    residual[l] -= v
                active.discard(f)
    return rate


def random_instance(rng):
    nlinks = rng.randint(1, 12)
    caps = {l: rng.choice([1e6, 2.5e6, 5e6, 10e6]) for l in range(nlinks)}
    nflows = rng.randint(1, 6)
    demands, paths = {}, {}
    for f in range(nflows):
        demands[f] = rng.choice([0.5e6, 1e6, 3e6, 10e6, 20e6])
        k = rng.randint(1, min(4, nlinks))
        paths[f] = tuple(sorted(rng.sample(range(nlinks), k)))
    return demands, paths, caps


def random_instance_with_idle_flows(rng):
    """`random_instance`, then each flow's demand becomes 0 and its path
    empty with chance 1/5 each."""
    demands, paths, caps = random_instance(rng)
    for f in demands:
        if rng.random() < 0.2:
            demands[f] = 0.0
        if rng.random() < 0.2:
            paths[f] = ()
    return demands, paths, caps


def assert_close_to_oracle(demands, paths, caps):
    got = waterfill(demands, paths, caps)
    want = maxmin_oracle(demands, paths, caps)
    for f in demands:
        w = float(want[f])
        assert got[f] == pytest.approx(w, rel=1e-9, abs=1e-3), (
            f"flow {f}: {got[f]} vs oracle {w}")


def test_waterfill_disjoint_paths():
    rates = waterfill({1: 10e6, 2: 10e6}, {1: (0,), 2: (1,)}, {0: 10e6, 1: 10e6})
    assert rates == {1: 10e6, 2: 10e6}


def test_waterfill_equal_split():
    rates = waterfill({1: 10e6, 2: 10e6}, {1: (0,), 2: (0,)}, {0: 10e6})
    assert rates[1] == rates[2] == 5e6


def test_waterfill_three_flow_chain():
    # A with B on link 0, B with C on link 1, all demands 10
    demands = {0: 10e6, 1: 10e6, 2: 10e6}
    paths = {0: (0,), 1: (0, 1), 2: (1,)}
    caps = {0: 10e6, 1: 10e6}
    rates = waterfill(demands, paths, caps)
    want = maxmin_oracle(demands, paths, caps)
    assert rates[0] == pytest.approx(float(want[0]), rel=1e-12)
    assert float(want[0]) == float(want[1]) == float(want[2]) == 5e6


def test_waterfill_demand_caps():
    rates = waterfill({1: 2e6, 2: 10e6}, {1: (0,), 2: (0,)}, {0: 10e6})
    assert rates[1] == pytest.approx(2e6)
    assert rates[2] == pytest.approx(8e6)


def test_waterfill_zero_demand_takes_no_share():
    rates = waterfill({0: 0.0, 1: 10e6}, {0: (0,), 1: (0,)}, {0: 10e6})
    assert rates == {0: 0.0, 1: 10e6}


def test_waterfill_rejects_a_repeated_link():
    with pytest.raises(EngineError,
                       match="^waterfill: flow 3: path lists link 7 twice$"):
        waterfill({1: 1e6, 3: 1e6}, {1: (7,), 3: (2, 7, 5, 7)},
                  {2: 10e6, 5: 10e6, 7: 10e6})


@pytest.mark.parametrize("demands,paths,message", [
    ({0: 1e6, 1: 1e6}, {0: (0,)}, "flow 1: has a demand and no path"),
    ({0: 1e6}, {0: (0,), 2: (0,), 1: (0,)}, "flow 1: has a path and no demand"),
], ids=["no path", "no demand"])
def test_waterfill_rejects_a_flow_without_both(demands, paths, message):
    # raised a bare KeyError from `_fill`
    with pytest.raises(EngineError, match=f"^waterfill: {message}$"):
        waterfill(demands, paths, {0: 10e6})


@pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
def test_waterfill_rejects_a_bad_demand(value):
    with pytest.raises(EngineError, match="^waterfill: flow 1: demand must "
                                          "be finite and >= 0"):
        waterfill({0: 1e6, 1: value}, {0: (0,), 1: (0,)}, {0: 10e6})


def test_waterfill_rejects_a_nan_capacity():
    # in a child process with a timeout, so a waterfill that loops forever
    # fails the test instead of hanging the suite
    code = ("from fatflow.engine import EngineError, waterfill\n"
            "try:\n"
            "    waterfill({0: 1e6, 1: 2e6}, {0: (0,), 1: (0, 1)},\n"
            "              {0: float('nan'), 1: 10e6})\n"
            "except EngineError as exc:\n"
            "    print(exc)\n"
            "else:\n"
            "    raise SystemExit('no EngineError')\n")
    src = str(Path(engine_module.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert ("waterfill: link 0: capacity must be finite and >= 0, got nan"
            in proc.stdout)


@pytest.mark.parametrize("path,caps,bad", [
    ((0, 1), {0: 5e5, 1: math.nan}, 1),  # returned {0: 500000.0} unchecked
    ((0, 1), {0: 5e5, 1: -5e5}, 1),
    ((0, 1), {0: 5e5, 1: math.inf}, 1),
    ((0,), {0: -5e5}, 0),  # returned {0: 0.0} unchecked
    ((0, 1), {0: 5e5}, 1),  # raised a bare KeyError
], ids=["nan", "negative", "inf", "negative alone", "missing"])
def test_waterfill_rejects_a_bad_capacity(path, caps, bad):
    with pytest.raises(EngineError, match=f"^waterfill: link {bad}: capacity "
                                          "must be finite and >= 0"):
        waterfill({0: 1e6}, {0: path}, caps)


def test_waterfill_matches_oracle_on_random_instances():
    rng = random.Random(2024)
    for _ in range(60):
        demands, paths, caps = random_instance_with_idle_flows(rng)
        assert_close_to_oracle(demands, paths, caps)


def test_waterfill_never_exceeds_capacity():
    rng = random.Random(7)
    for _ in range(100):
        demands, paths, caps = random_instance_with_idle_flows(rng)
        rates = waterfill(demands, paths, caps)
        for l, cap in caps.items():
            users = sorted(f for f, p in paths.items() if l in p)
            assert sum(rates[f] for f in users) <= cap
        for f, d in demands.items():
            assert 0.0 <= rates[f] <= d


@st.composite
def waterfill_instances(draw):
    nlinks = draw(st.integers(1, 10))
    caps = {l: draw(st.floats(1e5, 2e7)) for l in range(nlinks)}
    nflows = draw(st.integers(1, 8))
    demands = {f: draw(st.just(0.0) | st.floats(1e3, 2e7))
               for f in range(nflows)}
    paths = {f: tuple(draw(st.lists(st.integers(0, nlinks - 1), min_size=1,
                                    max_size=min(4, nlinks), unique=True)))
             for f in range(nflows)}
    return demands, paths, caps


def link_loads(rates, paths, caps):
    return {l: sum(rates[f] for f in sorted(paths) if l in paths[f]) for l in caps}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(waterfill_instances())
def test_waterfill_property_capacity_and_demand(instance):
    demands, paths, caps = instance
    rates = waterfill(demands, paths, caps)
    for l, load in link_loads(rates, paths, caps).items():
        assert load <= caps[l]
    for f, d in demands.items():
        assert 0.0 <= rates[f] <= d


@settings(max_examples=150, deadline=None, derandomize=True)
@given(waterfill_instances())
def test_waterfill_property_maxmin_bottleneck(instance):
    # every flow held below its demand has a saturated link on its path on
    # which no other flow gets more: the max-min optimality condition
    demands, paths, caps = instance
    rates = waterfill(demands, paths, caps)
    loads = link_loads(rates, paths, caps)
    tol = 1e-9
    for f, d in demands.items():
        if rates[f] >= d * (1 - tol):
            continue
        bottlenecks = [
            l for l in paths[f]
            if loads[l] >= caps[l] * (1 - tol)
            and all(rates[f] >= rates[g] * (1 - tol)
                    for g in paths if l in paths[g])]
        assert bottlenecks, f"flow {f} at {rates[f]} < {d} has no bottleneck"


@st.composite
def disjoint_instance_pairs(draw):
    first = draw(waterfill_instances())
    # the same instance twice puts both parts on the same level every round
    second = first if draw(st.booleans()) else draw(waterfill_instances())
    return first, second


@settings(max_examples=150, deadline=None, derandomize=True)
@given(disjoint_instance_pairs())
def test_waterfill_on_a_disjoint_union_equals_per_part_solves(pair):
    # part 0 takes the even flow and link ids, part 1 the odd ones, so the
    # parts interleave in every sorted walk over the union
    union = ({}, {}, {})
    want = {}
    for part, (demands, paths, caps) in enumerate(pair):
        d = {2 * f + part: v for f, v in demands.items()}
        p = {2 * f + part: tuple(2 * l + part for l in path)
             for f, path in paths.items()}
        c = {2 * l + part: v for l, v in caps.items()}
        want.update(waterfill(d, p, c))
        for whole, piece in zip(union, (d, p, c)):
            whole.update(piece)
    got = waterfill(*union)
    assert sorted(got) == sorted(want)
    assert array("d", (got[f] for f in sorted(want))).tobytes() == \
        array("d", (want[f] for f in sorted(want))).tobytes()


# -- waterfill pinned against the dict/set version it replaced ---------------

def reference_waterfill(demands, paths, capacities):
    """The previous `waterfill`: every round rebuilds the share of every link
    and the sets of unfrozen flows. Verbatim, except that the repair pass
    spells out the left-to-right sum the built-in `sum` made before Python
    3.12 compensated it."""
    rates = {fid: 0.0 for fid in demands}
    users: dict[int, set[int]] = {}
    link_members: dict[int, list[int]] = {}
    for fid in sorted(paths):
        for lid in paths[fid]:
            users.setdefault(lid, set()).add(fid)
            link_members.setdefault(lid, []).append(fid)
    frozen_sum = {lid: 0.0 for lid in users}
    unfrozen = {fid for fid, d in demands.items() if d > 0}

    while unfrozen:
        # each link's fair share of what is left, computed once per round;
        # `users` only holds links that still carry an unfrozen flow
        shares = {lid: (capacities[lid] - frozen_sum[lid]) / len(members)
                  for lid, members in users.items()}
        level = min(shares.values(), default=None)
        min_demand = min(demands[fid] for fid in unfrozen)
        if level is None or min_demand < level:
            level = min_demand
        level = max(level, 0.0)

        to_freeze = {fid for fid in unfrozen if demands[fid] <= level}
        for lid, share in shares.items():
            if share <= level:
                to_freeze |= users[lid]
        for fid in sorted(to_freeze):
            v = min(level, demands[fid])
            rates[fid] = v
            for lid in paths[fid]:
                frozen_sum[lid] += v
                members = users.get(lid)
                if members is not None:
                    members.discard(fid)
                    if not members:
                        del users[lid]
            unfrozen.discard(fid)

    # repair float overshoot: reductions only ever shrink link sums, so one
    # pass in link order suffices
    for lid in sorted(link_members):
        members = link_members[lid]
        s = 0.0
        for fid in members:
            s += rates[fid]
        if s > capacities[lid]:
            worst = max(members, key=lambda fid: (rates[fid], fid))
            rates[worst] = max(0.0, rates[worst] - (s - capacities[lid]))
    return rates


def reference_instance(rng):
    """Up to 30 links and 40 flows, ids in no particular order. Demands come
    from a few positive levels, so several flows freeze on one level;
    capacities go below demands; some paths are empty, none lists a link
    twice. The reference gives a zero-demand flow a share and counts a
    repeated link once in its share, so it is not max-min fair there."""
    nlinks = rng.randint(1, 30)
    caps = {l: rng.choice((1e6, 2.5e6, 5e6, 10e6, rng.uniform(1e5, 2e7)))
            for l in range(nlinks)}
    levels = [rng.choice((0.5e6, 1e6, 3e6, 10e6, 20e6, rng.uniform(1e3, 3e7)))
              for _ in range(rng.randint(1, 4))]
    demands, paths = {}, {}
    for fid in rng.sample(range(1000), rng.randint(0, 40)):
        demands[fid] = rng.choice(levels)
        paths[fid] = tuple(rng.sample(range(nlinks),
                                      rng.randint(0, min(6, nlinks))))
    return demands, paths, caps


def test_waterfill_is_bitwise_the_reference():
    rng = random.Random(5)
    seen = dict.fromkeys(("empty path", "shared level",
                          "demand above capacity"), 0)
    for _ in range(5000):
        demands, paths, caps = reference_instance(rng)
        want = reference_waterfill(demands, paths, caps)
        got = waterfill(demands, paths, caps)
        assert list(got) == list(want)
        assert array("d", got.values()).tobytes() == \
            array("d", want.values()).tobytes()
        seen["empty path"] += () in paths.values()
        seen["shared level"] += len(set(demands.values())) < len(demands)
        seen["demand above capacity"] += any(
            demands[f] > caps[l] for f, p in paths.items() for l in p)
    assert min(seen.values()) >= 100, seen


# -- probe model --------------------------------------------------------------

def test_loss_probability():
    assert link_loss_probability(5e6, 10e6) == 0.0
    assert link_loss_probability(10e6, 10e6) == 0.0
    assert link_loss_probability(20e6, 10e6) == 0.5


def test_traversal_delay_formula():
    p = EngineParams()
    assert traversal_delay(0.0, p) == pytest.approx(p.base_hop_latency)
    assert traversal_delay(0.9, p) == pytest.approx(50e-6 + 500e-6 * 0.9 / 0.1)
    # cap keeps the term finite at and beyond saturation
    assert traversal_delay(1.0, p) == traversal_delay(p.rho_cap, p)


# -- engine event loop ---------------------------------------------------------

def run_engine(flows, horizon=10.0, scheduler="ecmp", seed=0, topo=None,
               params=EngineParams(), log=None):
    """An engine that appends its event records to the list `log`, if one
    is given."""
    topo = topo or build_fat_tree(4, 10e6)
    eng = Engine(topo, SchedulerKind(scheduler), flows, horizon=horizon,
                 params=params, seed=seed,
                 sink=None if log is None else log.append)
    return eng


def per_element_min_times(start, end, interval):
    """`start`, then start + i * interval up to `end`, every time through its
    own `min`: the reference for the times of a poll or probe stream."""
    span = max(0.0, end - start)
    count = int(math.floor(span / interval + 1e-9)) + 1
    return [start] + [min(start + i * interval, end) for i in range(1, count)]


def probe_times(m, horizon):
    """Mouse `m`'s probe times: every period from its start until it departs
    or the run ends, whichever comes first."""
    end = horizon if m.duration is None else min(m.start_time + m.duration,
                                                 horizon)
    return per_element_min_times(m.start_time, end, m.probe_interval)


def elephant(fid, topo, demand=10e6, start=0.0, duration=None, src=0, dst=15):
    return Flow(fid, topo.hosts[src], topo.hosts[dst], demand,
                start, duration)


def mouse(fid, topo, interval, start=0.0, duration=None, src=0, dst=15):
    return Flow(fid, topo.hosts[src], topo.hosts[dst], 1000.0, start,
                duration, interval)


def test_single_arrival_gets_full_rate():
    topo = build_fat_tree(4, 10e6)
    eng = run_engine([elephant(0, topo, start=0.5)], topo=topo)
    eng.run()
    f = eng.active[0]
    assert f.path is not None
    assert f.achieved_rate == 10e6
    for lid in f.path.link_ids:
        assert eng.allocated[lid] == 10e6


def test_departure_releases_everything():
    topo = build_fat_tree(4, 10e6)
    eng = run_engine([elephant(0, topo, start=0.5, duration=2.0)], topo=topo)
    eng.run()
    assert not eng.active
    assert all(a == 0.0 for a in eng.allocated)
    assert all(o == 0.0 for o in eng.offered)


def test_conservation_after_every_step():
    topo = build_fat_tree(4, 10e6)
    flows = generate_workload(topo, WorkloadSpec(
        elephants=12, seed=4, arrival_rate=3.0, flow_duration=2.0,
        demand=10e6, probe_interval=None))
    eng = run_engine(flows, topo=topo)
    while eng.pending_events():
        eng.step()
        for lid in range(len(topo.links)):
            users = [f for _, f in sorted(eng.active.items())
                     if f.spec.is_elephant and lid in f.path.link_ids]
            total = sum(f.achieved_rate for f in users)
            assert total == eng.allocated[lid]  # same summation, bitwise
            assert eng.allocated[lid] <= topo.link_capacity


def test_mice_carry_no_rate():
    topo = build_fat_tree(4, 10e6)
    flows = [elephant(0, topo), mouse(1, topo, 1.0)]
    eng = run_engine(flows, topo=topo)
    eng.run()
    assert eng.active[1].achieved_rate == 0.0
    assert eng.active[0].achieved_rate == 10e6


def test_unknown_departure_raises():
    topo = build_fat_tree(4, 10e6)
    eng = run_engine([], topo=topo)
    eng._push(0.5, "departure", 99)
    with pytest.raises(EngineError, match="unknown flow id 99"):
        eng.step()


def test_engine_rejects_repeated_flow_id():
    topo = build_fat_tree(4, 10e6)
    flows = [elephant(0, topo), elephant(0, topo, start=1.0, src=1)]
    with pytest.raises(EngineError, match="^flow 0: id repeats"):
        run_engine(flows, topo=topo)


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
def test_engine_rejects_bad_start_time(value):
    topo = build_fat_tree(4, 10e6)
    flows = [elephant(0, topo), elephant(1, topo, start=value)]
    with pytest.raises(EngineError, match="^flow 1: start_time must be"):
        run_engine(flows, topo=topo)


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1e6])
def test_engine_rejects_bad_demand(value):
    topo = build_fat_tree(4, 10e6)
    flows = [elephant(0, topo), elephant(1, topo, demand=value)]
    with pytest.raises(EngineError, match="^flow 1: demand must be finite"):
        run_engine(flows, topo=topo)


@pytest.mark.parametrize("value", [math.nan, math.inf, -0.5])
def test_engine_rejects_bad_duration(value):
    topo = build_fat_tree(4, 10e6)
    flows = [elephant(0, topo, duration=0.0),
             elephant(1, topo, duration=value)]
    with pytest.raises(EngineError, match="^flow 1: duration must be none"):
        run_engine(flows, topo=topo)


@pytest.mark.parametrize("value", [0.0, math.nan, math.inf, -1.0, None, "1e7"])
def test_engine_rejects_a_bad_link_capacity(value):
    # a capacity of 0 would divide by zero at the first arrival; the
    # topology refuses it when it is built, so no engine can run on it
    good = build_fat_tree(4, 10e6)
    with pytest.raises(TopologyError, match="^" + re.escape(
            f"link_capacity must be finite and > 0, got {value!r}") + "$"):
        Topology(good.k, value, good.layout, list(good.nodes),
                 list(good.links))


def test_replay_is_deterministic():
    topo = build_fat_tree(4, 10e6)
    spec = WorkloadSpec(elephants=20, seed=11, arrival_rate=5.0,
                        flow_duration=2.0, demand=10e6, probe_interval=0.5)
    runs = []
    for _ in range(2):
        flows = generate_workload(topo, spec)
        log = []
        eng = run_engine(flows, topo=topo, scheduler="hybrid", seed=11, log=log)
        eng.run()
        runs.append((eng.state_fingerprint(), log,
                     eng.probe_rtts, eng.bisection_series))
    assert runs[0] == runs[1]


def test_engines_sharing_a_flow_list_keep_their_own_state():
    config = ExperimentConfig()
    topo = build_topology(config, "hybrid")
    flows = generate_workload(topo, config.workload_spec(0))

    def run(seed):
        return Engine(topo, config.scheduler_kind("hybrid"), flows,
                      horizon=config.duration, params=config.engine_params(),
                      seed=seed).run()

    def paths_and_rates(eng):
        return {fid: (f.path, f.achieved_rate) for fid, f in eng.active.items()}

    first = run(0)
    before = paths_and_rates(first)
    second = run(1)
    assert paths_and_rates(second) != before
    assert paths_and_rates(first) == before
    with pytest.raises(dataclasses.FrozenInstanceError):
        flows[0].demand = 1.0


def test_elephant_detection_threshold():
    topo = build_fat_tree(4, 10e6)
    fast = elephant(0, topo, demand=60_000.0, src=0, dst=15)
    slow = elephant(1, topo, demand=40_000.0, src=1, dst=14)
    eng = run_engine([fast, slow], topo=topo, horizon=3.0)
    eng.run()
    assert eng.active[0].classified
    assert not eng.active[1].classified
    for lid in eng.active[0].path.link_ids:
        assert eng.elephants[lid] == 1
    assert eng.cumulative_elephants[eng.active[0].path.link_ids[0]] == 1


def test_detection_is_sticky_under_rate_collapse():
    # one flow classifies while alone, then three more squeeze it below the
    # threshold; classification must not drop
    topo = build_fat_tree(4, 10e6)
    params = EngineParams(poll_interval=1.0, detection_threshold=50_000.0)
    flows = [elephant(0, topo, demand=100_000.0, src=0, dst=15)]
    for i in (1, 2, 3):
        flows.append(elephant(i, topo, demand=100_000.0, start=2.5,
                              src=0, dst=15))
    # shrink capacity so four flows drag each other under threshold
    topo = build_fat_tree(4, 120_000.0)
    flows = [Flow(f.id, topo.hosts[0], topo.hosts[15], f.demand,
                  f.start_time, None) for f in flows]
    eng = run_engine(flows, topo=topo, horizon=6.0,
                     params=params)
    eng.run()
    assert eng.active[0].achieved_rate < 50_000.0
    assert eng.active[0].classified
    assert not any(eng.active[i].classified for i in (1, 2, 3))


def test_zero_rate_flow_never_classifies():
    topo = build_fat_tree(4, 10e6)
    eng = run_engine([mouse(0, topo, 1.0)], topo=topo, horizon=5.0)
    eng.run()
    assert not eng.active[0].classified


def test_probe_on_empty_network():
    topo = build_fat_tree(4, 10e6)
    eng = run_engine([mouse(0, topo, 1.0)], topo=topo, horizon=2.0)
    eng.run()
    assert eng.probe_rtts
    for rtt in eng.probe_rtts:
        assert rtt == pytest.approx(12 * 50e-6)  # 6 hops, both directions


def test_probe_rtt_closed_form_single_path_pair():
    # same-edge pair: the only path has 2 links, so the probe path is forced
    topo = build_fat_tree(4, 10e6)
    eleph = Flow(0, topo.hosts[0], topo.hosts[1], 9e6, 0.0, None)
    eng = run_engine([eleph, mouse(1, topo, 1.0, dst=1)], topo=topo,
                     horizon=2.0)
    eng.run()
    # forward links carry offered 9e6 (rho 0.9), reverse links are idle
    want = 4 * 50e-6 + 2 * (500e-6 * 0.9 / 0.1)
    for rtt in eng.probe_rtts:
        assert rtt == pytest.approx(want)


def test_probe_loss_under_overload():
    # two elephants at full demand on the same host pair overload the access
    # link: offered = 2x capacity, loss 0.5 per traversal
    topo = build_fat_tree(4, 10e6)
    flows = [elephant(0, topo), elephant(1, topo), mouse(2, topo, 0.1)]
    eng = run_engine(flows, topo=topo, horizon=40.0, seed=3)
    eng.run()
    lost = sum(1 for rtt in eng.probe_rtts if rtt is None)
    # both access links overloaded 2x: survival <= 0.25 per probe
    assert lost / len(eng.probe_rtts) > 0.5


# 1.1 * 3 rounds to just past 3.3, so that poll and the mouse's last probe
# are clamped onto the horizon
@pytest.mark.parametrize("interval,horizon", [(0.1, 40.0), (0.3, 30.0),
                                              (0.7, 7.0), (1.1, 3.3),
                                              (1.0, 40.0)])
def test_poll_schedule_does_not_drift(interval, horizon):
    topo = build_fat_tree(4, 10e6)
    # an open-ended mouse at the poll period, and a 3.3 s mouse every 1.1 s
    # whose last probe, 3 * 1.1 s, rounds past its departure
    mice = [mouse(0, topo, interval),
            mouse(1, topo, 1.1, duration=3.3, src=1, dst=14)]
    log = []
    eng = run_engine(mice, topo=topo, horizon=horizon,
                     params=EngineParams(poll_interval=interval), log=log)
    eng.run()
    assert eng.polls == round(horizon / interval)
    assert eng.pending_events() == 0
    assert log[-1]["t"] == pytest.approx(horizon)
    assert all(rec["t"] <= horizon for rec in log)

    # the streams' times are the reference lists' own floats
    def times_of(kind, fid=None):
        return array("d", (rec["t"] for rec in log
                           if rec["type"] == kind
                           and (fid is None or rec["flow"] == fid))).tobytes()

    assert times_of("poll") == array(
        "d", per_element_min_times(0.0, horizon, interval)[1:]).tobytes()
    for m in mice:
        assert times_of("probe", m.id) == array(
            "d", probe_times(m, horizon)).tobytes()
    assert len(probe_times(mice[0], horizon)) == round(horizon / interval) + 1
    assert 3 * 1.1 > 3.3 and probe_times(mice[1], horizon)[-1] == 3.3
    assert times_of("departure") == array(
        "d", [3.3] if horizon > 3.3 else []).tobytes()


def test_polls_are_one_queue_entry():
    # 10^5 polls at 1 s; one queued poll stands for them all
    eng = run_engine([], horizon=1e5)
    assert len(eng._queue) == 1
    assert eng.pending_events() == 100_000
    assert eng.events_processed == 0
    assert eng.step()["type"] == "poll"
    assert len(eng._queue) == 1 and eng._queue[0][0] == 2.0
    assert eng.pending_events() == 99_999


def test_a_mouse_is_one_probe_entry_however_long_it_probes():
    topo = build_fat_tree(4, 10e6)
    m = mouse(0, topo, 0.1, start=0.25)  # about 10^5 probes
    eng = run_engine([m], topo=topo, horizon=1e4)
    assert eng.step()["type"] == "arrival"
    (entry,) = eng._probes
    assert not any(isinstance(x, (list, tuple)) for x in entry)
    assert eng.pending_events() == (len(probe_times(m, 1e4))
                                    + eng._poll_count)


def test_mice_from_the_spec_are_probed_without_an_engine_setting():
    # the period travels with each mouse, so no engine argument can leave
    # generated mice routed but never probed
    topo = build_fat_tree(4, 10e6)
    flows = generate_workload(topo, WorkloadSpec(elephants=8, seed=1,
                                                 probe_interval=1.0))
    mice = [f for f in flows if not f.is_elephant]
    assert len(mice) == 8
    eng = Engine(topo, SchedulerKind("hybrid"), flows, horizon=10.0,
                 seed=1).run()
    assert len(eng.probe_rtts) == sum(len(probe_times(m, 10.0))
                                      for m in mice) > 0


@pytest.mark.parametrize("horizon,interval", [
    (math.inf, 1.0), (math.nan, 1.0), (10.0, math.nan), (10.0, math.inf),
    (10.0, 0.0)])
def test_engine_rejects_non_finite_schedule(horizon, interval):
    with pytest.raises(EngineError, match="must be finite"):
        run_engine([], horizon=horizon,
                   params=EngineParams(poll_interval=interval))


@pytest.mark.parametrize("mice", [False, True], ids=["no mice", "mice"])
@pytest.mark.parametrize("interval", [-1.0, math.nan, 0.0, math.inf])
def test_engine_rejects_a_bad_probe_interval(interval, mice):
    topo = build_fat_tree(4, 10e6)
    flows = generate_workload(topo, WorkloadSpec(
        elephants=4, probe_interval=1.0 if mice else None))
    if mice:
        # the second mouse; elephants carry no period
        flows[3] = dataclasses.replace(flows[3], probe_interval=interval)
        bad = 3
    else:
        # a spec without mice, joined by one hand-built mouse
        bad = len(flows)
        flows.append(mouse(bad, topo, interval))
    # the check runs at construction, so no event is processed
    with pytest.raises(EngineError) as raised:
        run_engine(flows, topo=topo)
    assert str(raised.value) == (f"flow {bad}: probe_interval must be none or "
                                 f"finite and > 0, got {interval!r}")


# each of `Flow`'s fields that declares a rule, read from the declarations
FLOW_RULES = {f.name: f.metadata["rule"] for f in dataclasses.fields(Flow)
              if f.metadata.get("rule") is not None}


def test_flow_declares_the_rule_of_each_number():
    assert {name: rule.text for name, rule in FLOW_RULES.items()} == {
        "id": "an integer", "demand": "finite and > 0",
        "start_time": "finite and >= 0",
        "duration": "none or finite and >= 0",
        "probe_interval": "none or finite and > 0"}


@pytest.mark.parametrize("field,value", [
    (name, value) for name, rule in FLOW_RULES.items()
    for value in (-1.0, 0.0, math.nan, math.inf) if not rule.holds(value)])
def test_engine_checks_each_flow_field_by_its_declared_rule(field, value):
    topo = build_fat_tree(4, 10e6)
    flows = [elephant(0, topo), mouse(1, topo, 1.0, src=1, dst=14)]
    flows[1] = dataclasses.replace(flows[1], **{field: value})
    # the check runs at construction, so no event is processed
    with pytest.raises(EngineError) as raised:
        run_engine(flows, topo=topo)
    assert str(raised.value) == (f"flow {flows[1].id}: {field} must be "
                                 f"{FLOW_RULES[field].text}, got {value!r}")


def test_a_value_a_rule_cannot_compare_fails_it_naming_the_flow():
    topo = build_fat_tree(4, 10e6)
    with pytest.raises(EngineError) as raised:
        Engine(topo, SchedulerKind("ecmp"),
               [Flow(0, topo.hosts[0], topo.hosts[15], None, 0.0, None)], 5.0)
    assert str(raised.value) == \
        "flow 0: demand must be finite and > 0, got None"


@pytest.mark.parametrize("field,value", [
    (name, value) for name, rule in FLOW_RULES.items()
    for value in (None, "1.0") if not rule.passes(value)])
def test_engine_fails_a_flow_field_its_rule_cannot_compare(field, value):
    topo = build_fat_tree(4, 10e6)
    flows = [elephant(0, topo), mouse(1, topo, 1.0, src=1, dst=14)]
    flows[1] = dataclasses.replace(flows[1], **{field: value})
    with pytest.raises(EngineError) as raised:
        run_engine(flows, topo=topo)
    assert str(raised.value) == (f"flow {flows[1].id}: {field} must be "
                                 f"{FLOW_RULES[field].text}, got {value!r}")


@pytest.mark.parametrize("fid", ["a", 2.0, True])
def test_engine_refuses_a_non_integer_flow_id(fid):
    # under ecmp, 'a' and 2.0 failed only at the flow's arrival, in the hash
    topo = build_fat_tree(4, 10e6)
    flows = [elephant(0, topo), dataclasses.replace(elephant(1, topo), id=fid)]
    with pytest.raises(EngineError) as raised:
        Engine(topo, SchedulerKind("ecmp"), flows, 5.0)
    assert str(raised.value) == \
        f"flow {fid}: id must be an integer, got {fid!r}"


def test_a_negative_flow_id_runs():
    topo = build_fat_tree(4, 10e6)
    eng = run_engine([dataclasses.replace(elephant(0, topo), id=-3)],
                     topo=topo)
    eng.step()
    assert eng.active[-3].achieved_rate == 10e6


def test_a_flow_with_a_period_is_probed_and_one_without_takes_a_rate():
    topo = build_fat_tree(4, 10e6)
    m = mouse(1, topo, 0.5, src=1, dst=14)
    # the same spec without a period is an elephant
    flows = [elephant(0, topo), m,
             dataclasses.replace(m, id=2, src=topo.hosts[2], dst=topo.hosts[13],
                                 probe_interval=None)]
    log = []
    eng = run_engine(flows, topo=topo, horizon=4.0, log=log)
    eng.run()
    assert [rec["kind"] for rec in log if rec["type"] == "arrival"] \
        == [ELEPHANT, MICE, ELEPHANT]
    probed = {rec["flow"] for rec in log if rec["type"] == "probe"}
    assert probed == {1}
    assert len(eng.probe_rtts) == len(probe_times(m, 4.0)) == 9
    assert eng.active[1].achieved_rate == 0.0
    # flow 2 takes its whole (mouse-sized) demand as its rate
    assert (eng.active[0].achieved_rate, eng.active[2].achieved_rate) == (
        10e6, 1000.0)
    assert sorted(eng._routed) == [0, 2]


k6 = build_fat_tree(6, 10e6)


@pytest.mark.parametrize("field,node", [
    ("src", NodeId(EDGE, 0, 0)), ("dst", NodeId(CORE, None, 3)),
    ("src", k6.hosts[-1]), ("dst", k6.hosts[-1])],
    ids=["switch src", "switch dst", "k6 host src", "k6 host dst"])
def test_engine_rejects_an_endpoint_that_is_not_a_host(field, node):
    topo = build_fat_tree(4, 10e6)
    flows = [elephant(0, topo), dataclasses.replace(elephant(1, topo, start=1.0),
                                                    **{field: node})]
    with pytest.raises(EngineError) as raised:
        run_engine(flows, topo=topo)
    assert str(raised.value) == (
        f"flow 1: {field} {node!r} is not a host of this topology")


def test_engine_rejects_a_flow_to_itself():
    topo = build_fat_tree(4, 10e6)
    flows = [elephant(0, topo), mouse(1, topo, 1.0, src=5, dst=5)]
    with pytest.raises(EngineError) as raised:
        run_engine(flows, topo=topo)
    assert str(raised.value) == "flow 1: dst must differ from src, got host1_1"


@pytest.mark.parametrize("field,value", [
    ("poll_interval", 0.0), ("poll_interval", math.inf),
    ("detection_threshold", -1.0), ("detection_threshold", 0.0),
    ("detection_threshold", math.nan),
    ("base_hop_latency", -50e-6), ("base_hop_latency", math.nan),
    ("queuing_scale", -1.0), ("queuing_scale", math.inf),
    ("rho_cap", 1.0), ("rho_cap", 1.5), ("rho_cap", 0.0), ("rho_cap", math.nan),
    ("poll_interval", None), ("queuing_scale", "1e-3"), ("rho_cap", None),
    ("rho_cap", "0.5")])
def test_engine_params_reject_bad_values(field, value):
    with pytest.raises(EngineError, match=f"^{field} must be finite"):
        EngineParams(**{field: value})


def test_monitoring_counters():
    topo = build_fat_tree(4, 10e6)
    eng = run_engine([elephant(0, topo)], topo=topo, horizon=5.0)
    eng.run()
    assert eng.polls == 5
    monitoring = run_report(eng)["monitoring"]
    assert monitoring["port_stat_reads"] == 5 * 80
    assert monitoring["uplink_stat_reads"] == 5 * 16
    assert len(eng.util_sums) == len(topo.monitored_link_ids) == 64


def test_memory_does_not_grow_with_the_polls():
    # 28 open-ended elephants, all arrived by t=50, and no mice: past that
    # only polls remain, and ten times as many must not take more memory
    peaks = []
    for horizon in (50.0, 500.0):
        tracemalloc.start()
        run_one(ExperimentConfig(duration=horizon, probe_interval=None),
                "hybrid", 0)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] < peaks[0] + 50_000


def test_bisection_series_tracks_interpod_rates():
    topo = build_fat_tree(4, 10e6)
    inter = elephant(0, topo, start=1.0)                # pod 0 -> pod 3
    intra = elephant(1, topo, start=1.0, src=4, dst=6)  # inside pod 1
    eng = run_engine([inter, intra], topo=topo, horizon=3.0)
    eng.run()
    assert eng.bisection_rate == 10e6  # only the cross-half flow counts
    assert eng.bisection_series[0] == (0.0, 0.0)


# -- lazy integration against an eager reference ------------------------------

class RecordingEngine(Engine):
    """Records the rates every processed event leaves in force, and the
    state of every flow it admitted."""

    def __init__(self, topo, scheduler, flows, **kwargs):
        super().__init__(topo, scheduler, flows, **kwargs)
        self.states = {}
        self.rate_trace = []

    def step(self):
        record = super().step()
        if record["type"] == "arrival":
            self.states[record["flow"]] = self.active[record["flow"]]
        self.rate_trace.append((
            self.clock, list(self.offered),
            {fid: f.achieved_rate for fid, f in self.active.items()}))
        return record


class EagerEngine(Engine):
    """Integrates at every clock move: at every event, probes included, when
    driven by `step_through`. Each flow's bits and each link's offered-load
    integral then stand at the clock, so the engine's own lazy pieces add
    nothing."""

    def _advance(self, t):
        dt = t - self.clock
        super()._advance(t)
        for st in self._routed.values():
            st.bits += st.achieved_rate * dt
            st.since = t
        for lid, load in enumerate(self.offered):
            self._offered_integral[lid] += load * dt
            self._offered_since[lid] = t


def step_through(eng):
    """Process every event with one `step` call each, probes included, then
    let `run` carry the clock and the integrals to the horizon."""
    while eng.pending_events():
        eng.step()
    return eng.run()


# the default config, one with departures, one that ends between two polls
CONFIGS = {"default": {}, "departures": {"flow_duration": 6.0},
           "off-poll-horizon": {"duration": 39.5}}


def default_engine(cls, scheduler, seed=3, log=None, **overrides):
    """A `cls` engine on the config of `overrides` that appends its event
    records to the list `log`, if one is given."""
    config = ExperimentConfig(**overrides)
    topo = build_topology(config, scheduler)
    flows = generate_workload(topo, config.workload_spec(seed))
    return cls(topo, config.scheduler_kind(scheduler), flows,
               horizon=config.duration, params=config.engine_params(),
               seed=seed, sink=None if log is None else log.append)


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
def test_lazy_integration_matches_eager_reference(scheduler, config):
    log = []
    eng = step_through(default_engine(RecordingEngine, scheduler, log=log,
                                      **CONFIGS[config]))
    assert sum(rec["type"] == "probe" for rec in log) > len(log) / 2
    params = eng.params

    # integrate event by event from the recorded rates, and classify at each
    # poll from those integrals
    nlinks = len(eng.topology.links)
    offered = [0.0] * nlinks
    bits: dict[int, float] = {}
    classified: set[int] = set()
    prev = None
    for (t, o, rates), rec in zip(eng.rate_trace, log):
        if prev is not None:
            dt = t - prev[0]
            for lid in range(nlinks):
                offered[lid] += prev[1][lid] * dt
            for fid, rate in prev[2].items():
                bits[fid] = bits.get(fid, 0.0) + rate * dt
        if rec["type"] == "poll":
            want = [fid for fid in sorted(prev[2]) if fid not in classified
                    and bits.get(fid, 0.0) / params.poll_interval
                    >= params.detection_threshold]
            assert rec["classified"] == want
            classified.update(want)
            bits = {}
        elif rec["type"] == "probe":
            # the probe sees the offered load in force when it is sent
            path = eng.states[rec["flow"]].path
            links = path.link_ids + tuple(eng.topology.reverse_ids[lid]
                                          for lid in path.link_ids)
            caps = [eng.topology.link_capacity] * len(links)
            loads = [prev[1][lid] for lid in links]
            if rec["delivered"]:
                assert rec["rtt"] == pytest.approx(sum(
                    traversal_delay(o / c, params) for o, c in zip(loads, caps)),
                    rel=1e-12)
            else:
                assert any(o > c for o, c in zip(loads, caps))
        prev = (t, o, rates)
    dt = eng.horizon - prev[0]
    for lid in range(nlinks):
        offered[lid] += prev[1][lid] * dt

    mean_offered = eng.mean_offered_by_link()
    for lid in range(nlinks):
        assert mean_offered[lid] == pytest.approx(offered[lid] / eng.horizon,
                                                  rel=1e-12)

    # integrating on every event changes no decision: same classifications,
    # same Hedera reroutes, same probe outcomes
    eager_log = []
    eager = step_through(default_engine(EagerEngine, scheduler, log=eager_log,
                                        **CONFIGS[config]))
    assert eager_log == log
    eager_offered = eager.mean_offered_by_link()
    for lid in range(nlinks):
        assert eager_offered[lid] == pytest.approx(mean_offered[lid],
                                                   rel=1e-12)


def watch_fills(monkeypatch, eng, seen):
    """Call `seen(demands, paths, members, rates)` after each `_fill` call
    made by `eng`'s re-solves, with `members` the member lists of the links
    in play. Every call must be the engine's own, and after each one the
    engine's per-link counters must be all zero again."""
    fill = engine_module._fill

    def spy(demands, paths, members, links, capacities, unfrozen, frozen_sum):
        rates = fill(demands, paths, members, links, capacities, unfrozen,
                     frozen_sum)
        assert capacities is eng._cap
        assert unfrozen is eng._unfrozen and frozen_sum is eng._frozen_sum
        assert len(set(links)) == len(links)
        assert not any(eng._unfrozen)
        assert not any(eng._frozen_sum)
        seen(demands, paths, {lid: members[lid] for lid in links}, rates)
        return rates

    monkeypatch.setattr(engine_module, "_fill", spy)


def test_mouse_arrival_changes_no_rate(monkeypatch):
    topo = build_fat_tree(4, 10e6)
    flows = [elephant(0, topo), elephant(1, topo, start=0.2, src=1, dst=14),
             mouse(2, topo, 1.0, start=0.5)]
    eng = run_engine(flows, topo=topo, log=[])
    while eng._queue[0][3] is not flows[2]:
        eng.step()
    before = (list(eng.allocated), list(eng.offered),
              {fid: f.achieved_rate for fid, f in eng.active.items()})
    npoints = len(eng.bisection_series)
    calls = []
    watch_fills(monkeypatch, eng, lambda *a: calls.append(a))
    record = eng.step()
    assert record["type"] == "arrival" and record["flow"] == 2
    assert not calls
    assert eng.active[2].achieved_rate == 0.0
    after = (list(eng.allocated), list(eng.offered),
             {fid: f.achieved_rate for fid, f in eng.active.items() if fid != 2})
    assert after == before
    assert len(eng.bisection_series) == npoints + 1
    assert eng.bisection_series[-1] == (0.5, eng.bisection_rate)


def test_a_resolve_that_keeps_a_rate_keeps_its_bits_and_since(monkeypatch):
    # three 4 Mb/s flows out of host 0: two fit in its 10 Mb/s uplink, the
    # third splits it three ways
    topo = build_fat_tree(4, 10e6)
    eng = run_engine([elephant(i, topo, demand=4e6, start=0.25 * i, dst=1 + i)
                      for i in range(3)], topo=topo)
    solved = []
    watch_fills(monkeypatch, eng, lambda d, p, m, r: solved.append(sorted(d)))
    eng.step()
    st = eng.active[0]
    assert (st.achieved_rate, st.bits, st.since) == (4e6, 0.0, 0.0)
    eng.step()
    assert solved[-1] == [0, 1]
    assert (st.achieved_rate, st.bits, st.since) == (4e6, 0.0, 0.0)
    eng.step()
    assert solved[-1] == [0, 1, 2]
    shared = st.achieved_rate
    assert shared < 4e6
    assert (st.bits, st.since) == (4e6 * 0.5, 0.5)
    assert eng.step()["type"] == "poll"
    assert (st.bits, st.since) == (0.0, 1.0)
    assert st.round_bits == 4e6 * 0.5 + shared * (1.0 - 0.5)


# -- the engine against a reference engine -----------------------------------

class ReferenceEngine(Engine):
    """The engine with each incremental path in its plain form, the
    reference of `step_in_lockstep`: each re-solve re-solves every routed
    elephant with `reference_waterfill`, each probe is drawn fresh, one at
    a time, at the time the mouse's `probe_times` list gives it, and each
    poll takes a new snapshot."""

    def _resolve(self, changed):
        self._epoch += 1  # as `Engine._resolve`, which this replaces
        nlinks = len(self._cap)
        demands, paths = {}, {}
        for fid in sorted(self.active):
            state = self.active[fid]
            if state.spec.is_elephant:
                demands[fid] = state.spec.demand
                paths[fid] = state.path.link_ids
        caps = {lid: self._cap[lid] for links in paths.values() for lid in links}
        rates = reference_waterfill(demands, paths, caps)
        allocated, offered, bis = [0.0] * nlinks, [0.0] * nlinks, 0.0
        for fid, links in paths.items():
            self._set_rate(self.active[fid], rates[fid])
            for lid in links:
                allocated[lid] += rates[fid]
                offered[lid] += demands[fid]
            if self.active[fid].crosses:
                bis += rates[fid]
        for lid in range(nlinks):
            if offered[lid] != self.offered[lid]:
                self._offered_integral[lid] += self.offered[lid] * (
                    self.clock - self._offered_since[lid])
                self._offered_since[lid] = self.clock
                self._probe_keep[lid] = 1.0 - link_loss_probability(
                    offered[lid], self._cap[lid])
                self._probe_delay[lid] = traversal_delay(
                    offered[lid] / self._cap[lid], self.params)
        self.allocated, self.offered = allocated, offered
        self.bisection_rate = bis
        self.bisection_series.append((self.clock, bis))

    def _run_probes(self, stop):
        record = None
        while self._probes and self._probes[0] < stop:
            t, seq, st, i, count, end = heapq.heappop(self._probes)
            times = probe_times(st.spec, self.horizon)
            assert (t, count) == (times[i], len(times))
            if i + 1 < count:
                heapq.heappush(self._probes,
                               (times[i + 1], seq + 1, st, i + 1, count, end))
            self.events_processed += 1
            self._advance(t)
            links = st.probe_links
            survival = 1.0
            for lid in links:
                survival *= self._probe_keep[lid]
            rtt = None  # lost
            if self._probe_rng.random() < survival:
                rtt = 0.0
                for lid in links:
                    rtt += self._probe_delay[lid]
            self.probe_rtts.append(rtt)
            if self._sink is not None:
                record = {"flow": st.spec.id, "delivered": rtt is not None,
                          "rtt": rtt, "seq": seq, "t": t, "type": "probe"}
                self._sink(record)
        return record

    def _on_poll(self):
        self._polled_epoch = None  # no epoch: the snapshot is stale
        return super()._on_poll()


def rtt_bits(rtts):
    """Which probes were lost, and the delivered RTTs as raw float bytes."""
    return ([rtt is None for rtt in rtts],
            array("d", (rtt for rtt in rtts if rtt is not None)).tobytes())


def state_bits(eng):
    """The allocation, the poll snapshot and the probes drawn so far, with
    floats as raw bytes, so equality is bitwise. Of the probes it keeps the
    count and the last one's outcome: an event draws at most one probe, so
    a comparison after every event covers them all."""
    fids = sorted(eng.active)
    return (
        fids,
        array("d", eng.allocated + eng.offered + eng._probe_keep
              + eng._probe_delay + [eng.bisection_rate] + eng.util_sums
              + eng.polled_residual).tobytes(),
        array("d", (eng.active[fid].achieved_rate for fid in fids)).tobytes(),
        array("d", (x for point in eng.bisection_series
                    for x in point)).tobytes(),
        eng.polled_elephants,
        len(eng.probe_rtts),
        rtt_bits(eng.probe_rtts[-1:]),
    )


def step_in_lockstep(eng, ref):
    """Step `eng` and the `ReferenceEngine` `ref` one event at a time to the
    end, comparing each event's record and then `state_bits`. `ref` must
    not reach the engine's `_fill`. Return the number of quiet polls (no
    re-solve since the last one), of those that classified a flow, and of
    probes `eng` served from its mouse's cache."""
    fill = engine_module._fill

    def no_fill(*args):
        raise AssertionError("the reference called the engine's `_fill`")

    quiet = classifying = hits = 0
    while eng.pending_events():
        is_quiet = eng._polled_epoch == eng._epoch
        # the next probe reads its mouse's cache if no re-solve came since
        head = eng._probes[0] if eng._probes else None
        hit = head is not None and head[2].probe_epoch == eng._epoch
        record = eng.step()
        engine_module._fill = no_fill
        try:
            assert record == ref.step()
        finally:
            engine_module._fill = fill
        assert state_bits(eng) == state_bits(ref)
        if record["type"] == "poll" and is_quiet:
            quiet += 1
            classifying += bool(record["classified"])
        hits += hit and record["seq"] == head[1]
    assert not ref.pending_events()
    return quiet, classifying, hits


RESOLVE_CONFIGS = {
    "default": {},
    "churn": {"elephants": 100, "arrival_rate": 50.0, "flow_duration": 0.8,
              "duration": 6.0},
    "k8": {"k": 8, "elephants": 48, "arrival_rate": 32.0, "duration": 10.0},
    # re-solves of 35 flows on average, up to 56: criterion 6's size
    "large": {"elephants": 200, "arrival_rate": 50.0, "flow_duration": 1.5,
              "duration": 4.0, "probe_interval": None},
}


# a mouse probes again after a re-solve: elephant arrivals in all three,
# departures in "departures" and hedera-gff reroutes in "default"
PROBE_CACHE_CONFIGS = {"default": RESOLVE_CONFIGS["default"],
                       "k8": RESOLVE_CONFIGS["k8"],
                       "departures": CONFIGS["departures"]}

# the two sets share "default"
LOCKSTEP_CONFIGS = {**CONFIGS, **RESOLVE_CONFIGS}

LockstepRun = collections.namedtuple(
    "LockstepRun", "quiet hits probes reroutes smaller_solve")


@functools.lru_cache(maxsize=None)
def lockstep_run(scheduler, config):
    """Step an `Engine` and a `ReferenceEngine` on `LOCKSTEP_CONFIGS[config]`
    in lockstep, once per scheduler and config however many tests read it:
    the quiet polls and cache hits of `step_in_lockstep`, the engine's
    probes and reroutes, and whether some re-solve solved fewer flows than
    there were elephants routed."""
    eng, ref = (default_engine(cls, scheduler, log=[],
                               **LOCKSTEP_CONFIGS[config])
                for cls in (Engine, ReferenceEngine))
    smaller = []
    with pytest.MonkeyPatch.context() as monkeypatch:
        watch_fills(monkeypatch, eng, lambda d, p, m, r: smaller.append(
            len(d) < len(eng._routed)))
        quiet, _, hits = step_in_lockstep(eng, ref)
    return LockstepRun(quiet, hits, len(eng.probe_rtts), eng.reroutes,
                       any(smaller))


@pytest.mark.parametrize("config", sorted(RESOLVE_CONFIGS))
@pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
def test_incremental_resolve_matches_full_resolve(scheduler, config):
    run = lockstep_run(scheduler, config)
    assert run.smaller_solve
    if scheduler == HEDERA_GFF and config == "default":
        assert run.reroutes > 0


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
def test_quiet_polls_match_a_snapshot_at_every_poll(scheduler, config):
    assert lockstep_run(scheduler, config).quiet > 0


@pytest.mark.parametrize("config", sorted(PROBE_CACHE_CONFIGS))
@pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
def test_cached_probes_match_uncached_reference(scheduler, config):
    run = lockstep_run(scheduler, config)
    assert 0 < run.hits < run.probes
    if scheduler == HEDERA_GFF and config == "default":
        assert run.reroutes > 0


@functools.lru_cache(maxsize=None)
def lockstep_topology(layout, k, capacity):
    """Each topology of `lockstep_runs`, built once."""
    build = build_nonblocking if layout == "star" else build_fat_tree
    return build(k, capacity)


@st.composite
def lockstep_runs(draw):
    """A hand-built run: scheduler, topology, flows, horizon and params.

    Demands hit capacity, its halves, thirds and sevenths, 0.55 of it and
    twice it, so fair shares tie and saturate; a third of the runs draw
    their endpoints from the first two hosts and a third from the first
    three, so many flows share a link and its sums round by their order;
    start times tie; durations of 0 arrive and leave at once; mice mix in;
    polls may or may not divide the horizon; and `hedera-gff` runs last two
    scheduling rounds."""
    scheduler = draw(st.sampled_from(SCHEDULER_NAMES))
    capacity = draw(st.sampled_from([1.0, 3.0, 10e6]))
    topo = lockstep_topology(layout_for(scheduler),
                             draw(st.sampled_from([2, 4, 6])), capacity)
    horizon = draw(st.sampled_from([12.0, 13.5] if scheduler == HEDERA_GFF
                                   else [3.0, 4.5, 6.0]))
    params = EngineParams(
        poll_interval=draw(st.sampled_from([0.5, 0.8, 1.0])),
        detection_threshold=capacity * draw(st.sampled_from([0.01, 0.3])))
    hosts = range(draw(st.sampled_from([2, min(3, len(topo.hosts)),
                                        len(topo.hosts)])))
    shares = [capacity * x for x in (1, 1 / 2, 1 / 3, 0.55, 1 / 7, 2)]
    flows = []
    # ids out of arrival order, negative ones too
    for fid in draw(st.permutations(range(-3, 13)))[:draw(st.integers(1, 12))]:
        src, dst = draw(st.lists(st.sampled_from(hosts), min_size=2,
                                 max_size=2, unique=True))
        flows.append(Flow(
            fid, topo.hosts[src], topo.hosts[dst],
            draw(st.sampled_from(shares)
                 | st.floats(capacity * 1e-3, capacity * 3)),
            draw(st.sampled_from([0.0, 0.5, 1.0, 2.0])
                 | st.floats(0.0, horizon)),
            draw(st.sampled_from([None, None, 0.0])
                 | st.floats(0.1, horizon)),
            draw(st.sampled_from([None, None, None, 0.3, 0.45]))))
    return scheduler, topo, flows, horizon, params


@settings(max_examples=150, deadline=None, derandomize=True)
@given(lockstep_runs())
def test_incremental_resolve_matches_full_resolve_on_random_runs(run):
    scheduler, topo, flows, horizon, params = run
    step_in_lockstep(*(cls(topo, SchedulerKind(scheduler), flows,
                           horizon=horizon, params=params, seed=len(flows),
                           sink=[].append)
                       for cls in (Engine, ReferenceEngine)))


def test_a_quiet_poll_that_classifies_copies_the_elephant_counts():
    # 60 kb/s from t=0.5: 30 kb by the first poll, under the 50 kb/s
    # threshold, then 60 kb by the second, which no re-solve precedes
    topo = build_fat_tree(4, 10e6)
    log = []
    engines = [cls(topo, SchedulerKind("hybrid"),
                   [elephant(0, topo, demand=60e3, start=0.5)], horizon=3.0,
                   sink=sink)
               for cls, sink in ((Engine, log.append),
                                 (ReferenceEngine, [].append))]
    assert step_in_lockstep(*engines) == (2, 1, 0)
    eng = engines[0]
    assert [rec["classified"] for rec in log
            if rec["type"] == "poll"] == [[], [0], []]
    assert sum(eng.polled_elephants) == len(eng.active[0].path.link_ids)


@pytest.mark.parametrize("config", ["default", "k8"])
@pytest.mark.parametrize("scheduler", ["hybrid", HEDERA_GFF])
def test_resolve_fills_from_the_link_index_as_waterfill_would(
        scheduler, config, monkeypatch):
    eng = default_engine(Engine, scheduler, **RESOLVE_CONFIGS[config])
    fills = []

    def check(demands, paths, members, rates):
        # the member lists waterfill builds from `paths`; checked after the
        # fill, so this also shows that `_fill` left the live index as it was
        built = {}
        for fid in sorted(paths):
            for lid in paths[fid]:
                built.setdefault(lid, []).append(fid)
        assert sorted(members) == sorted(built)
        for lid, flows in members.items():
            assert flows is eng._link_flows[lid]
            assert flows == built[lid]
        want = reference_waterfill(demands, paths,
                                   {lid: eng._cap[lid] for lid in built})
        assert sorted(rates) == sorted(want)
        assert (array("d", (rates[fid] for fid in sorted(rates))).tobytes()
                == array("d", (want[fid] for fid in sorted(want))).tobytes())
        fills.append(len(demands))

    watch_fills(monkeypatch, eng, check)
    eng.run()
    assert max(fills) > 1
    if scheduler == HEDERA_GFF:
        assert eng.reroutes > 0


@pytest.mark.parametrize("config", sorted(PROBE_CACHE_CONFIGS))
@pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
def test_run_matches_a_step_loop(scheduler, config):
    ran_log, stepped_log = [], []
    ran = default_engine(Engine, scheduler, log=ran_log,
                         **PROBE_CACHE_CONFIGS[config]).run()
    stepped = step_through(default_engine(Engine, scheduler, log=stepped_log,
                                          **PROBE_CACHE_CONFIGS[config]))
    assert sum(rec["type"] == "probe" for rec in ran_log) > len(ran_log) / 2
    # every queued event ran once, numbered in push order, in (t, seq) order
    keys = [(rec["t"], rec["seq"]) for rec in ran_log]
    assert keys == sorted(keys)
    assert sorted(seq for _, seq in keys) == list(range(len(keys)))
    # repr round-trips every float exactly, so these compare bit for bit
    assert repr(ran_log) == repr(stepped_log)
    assert rtt_bits(ran.probe_rtts) == rtt_bits(stepped.probe_rtts)
    assert repr(ran.util_sums) == repr(stepped.util_sums)
    assert repr(ran.state_fingerprint()) == repr(stepped.state_fingerprint())
    assert (repr(ran.mean_offered_by_link())
            == repr(stepped.mean_offered_by_link()))


def test_departure_comes_before_the_last_probe_at_its_time():
    # a 2 s mouse probing every 0.5 s: its last probe and its departure
    # both fall at t=2.0, as does a poll scheduled before either
    topo = build_fat_tree(4, 10e6)
    logs = []
    for finish in (Engine.run, step_through):
        log = []
        eng = run_engine([mouse(0, topo, 0.5, duration=2.0)], topo=topo,
                         horizon=3.0, log=log)
        assert eng.step()["type"] == "arrival"
        # the polls at 1, 2 and 3 s, the departure and the five probes
        assert eng.pending_events() == 3 + 1 + 5
        finish(eng)
        at_end = [rec["type"] for rec in log if rec["t"] == 2.0]
        assert at_end == ["poll", "departure", "probe"]
        assert len(eng.probe_rtts) == 5
        logs.append(log)
    assert logs[0] == logs[1]


def test_incremental_resolve_sums_in_flow_id_order():
    # flow ids that run against arrival order, and demands of a third, 0.55
    # and a seventh of the default, whose sums round by their order
    config = ExperimentConfig(**RESOLVE_CONFIGS["churn"])
    topo = build_topology(config, "hybrid")
    scale = (1 / 3, 0.55, 1 / 7)
    engines = []
    for cls in (Engine, ReferenceEngine):
        flows = generate_workload(topo, config.workload_spec(3))
        flows = [dataclasses.replace(f, id=len(flows) - 1 - f.id,
                                     demand=f.demand * scale[i % 3])
                 for i, f in enumerate(flows)]
        engines.append(cls(topo, config.scheduler_kind("hybrid"), flows,
                           horizon=config.duration,
                           params=config.engine_params(), seed=3,
                           sink=[].append))
    step_in_lockstep(*engines)


def test_arrival_merges_and_departure_splits_components(monkeypatch):
    # hosts 0-1 hang off edge switch 0 and hosts 2-3 off edge switch 1 of
    # pod 0, hosts 4-5 off edge switch 0 of pod 1: flows 0, 1 and 3 each have
    # one path and share no link; flow 2 shares host 0's uplink with flow 0
    # and host 3's downlink with flow 1
    def flows(topo):
        return [elephant(0, topo, src=0, dst=1),
                elephant(1, topo, start=0.1, src=2, dst=3),
                elephant(2, topo, start=0.2, duration=1.0, src=0, dst=3),
                elephant(3, topo, start=0.3, src=4, dst=5)]

    topo = build_fat_tree(4, 10e6)
    eng = run_engine(flows(topo), topo=topo, horizon=3.0, log=[])
    ref = ReferenceEngine(topo, SchedulerKind("ecmp"), flows(topo),
                          horizon=3.0, sink=[].append)
    solved = []
    watch_fills(monkeypatch, eng, lambda d, p, m, r: solved.append(sorted(d)))
    rates = []
    for _ in range(5):
        assert eng.step() == ref.step()
        assert state_bits(eng) == state_bits(ref)
        rates.append({fid: f.achieved_rate for fid, f in eng.active.items()})
    # the links flow 2 shares with no other flow
    middle = eng.active[2].path.link_ids[1:-1]
    step_in_lockstep(eng, ref)

    assert solved == [[0], [1], [0, 1, 2], [3], [0, 1]]
    assert rates[2] == {0: 5e6, 1: 5e6, 2: 5e6}
    assert rates[3] == {0: 5e6, 1: 5e6, 2: 5e6, 3: 10e6}
    assert {fid: f.achieved_rate for fid, f in eng.active.items()} == \
        {0: 10e6, 1: 10e6, 3: 10e6}
    idle_delay = traversal_delay(0.0, eng.params)
    for lid in middle:
        assert eng.allocated[lid] == eng.offered[lid] == 0.0
        assert (eng._probe_keep[lid], eng._probe_delay[lid]) == (1.0, idle_delay)
