import dataclasses
import math
import os
import random
import subprocess
import sys
from array import array
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatflow import engine as engine_module
from fatflow.engine import (Engine, EngineError, EngineParams,
                            link_loss_probability, traversal_delay, waterfill)
from fatflow.experiment import ExperimentConfig, build_topology
from fatflow.schedulers import HEDERA_GFF, SCHEDULER_NAMES, SchedulerKind
from fatflow.topology import build_fat_tree
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
], ids=["nan", "negative", "inf", "negative alone"])
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
               probe_interval=None, params=EngineParams()):
    topo = topo or build_fat_tree(4, 10e6)
    eng = Engine(topo, SchedulerKind(scheduler), flows, horizon=horizon,
                 params=params, seed=seed, probe_interval=probe_interval)
    return eng


def elephant(fid, topo, demand=10e6, start=0.0, duration=None, src=0, dst=15):
    return Flow(fid, topo.hosts[src], topo.hosts[dst], ELEPHANT, demand,
                start, duration)


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
            assert eng.allocated[lid] <= topo.links[lid].capacity


def test_mice_carry_no_rate():
    topo = build_fat_tree(4, 10e6)
    flows = [elephant(0, topo),
             Flow(1, topo.hosts[0], topo.hosts[15], MICE, 1000.0, 0.0, None)]
    eng = run_engine(flows, topo=topo, probe_interval=1.0)
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


def test_replay_is_deterministic():
    topo = build_fat_tree(4, 10e6)
    spec = WorkloadSpec(elephants=20, seed=11, arrival_rate=5.0,
                        flow_duration=2.0, demand=10e6, probe_interval=0.5)
    runs = []
    for _ in range(2):
        flows = generate_workload(topo, spec)
        eng = run_engine(flows, topo=topo, scheduler="hybrid", seed=11,
                         probe_interval=0.5)
        eng.run()
        runs.append((eng.state_fingerprint(), eng.event_log,
                     eng.probe_rtts, eng.bisection_series))
    assert runs[0] == runs[1]


def test_engines_sharing_a_flow_list_keep_their_own_state():
    config = ExperimentConfig()
    topo = build_topology(config, "hybrid")
    flows = generate_workload(topo, config.workload_spec(0))

    def run(seed):
        return Engine(topo, config.scheduler_kind("hybrid"), flows,
                      horizon=config.duration, params=config.engine_params(),
                      seed=seed, probe_interval=config.probe_interval).run()

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
    flows = [Flow(f.id, topo.hosts[0], topo.hosts[15], ELEPHANT, f.demand,
                  f.start_time, None) for f in flows]
    eng = run_engine(flows, topo=topo, horizon=6.0,
                     params=params)
    eng.run()
    assert eng.active[0].achieved_rate < 50_000.0
    assert eng.active[0].classified
    assert not any(eng.active[i].classified for i in (1, 2, 3))


def test_zero_rate_flow_never_classifies():
    topo = build_fat_tree(4, 10e6)
    mouse = Flow(0, topo.hosts[0], topo.hosts[15], MICE, 1000.0, 0.0, None)
    eng = run_engine([mouse], topo=topo, horizon=5.0, probe_interval=1.0)
    eng.run()
    assert not eng.active[0].classified


def test_probe_on_empty_network():
    topo = build_fat_tree(4, 10e6)
    mouse = Flow(0, topo.hosts[0], topo.hosts[15], MICE, 1000.0, 0.0, None)
    eng = run_engine([mouse], topo=topo, horizon=2.0, probe_interval=1.0)
    eng.run()
    assert eng.probe_rtts
    for rtt in eng.probe_rtts:
        assert rtt == pytest.approx(12 * 50e-6)  # 6 hops, both directions


def test_probe_rtt_closed_form_single_path_pair():
    # same-edge pair: the only path has 2 links, so the probe path is forced
    topo = build_fat_tree(4, 10e6)
    eleph = Flow(0, topo.hosts[0], topo.hosts[1], ELEPHANT, 9e6, 0.0, None)
    mouse = Flow(1, topo.hosts[0], topo.hosts[1], MICE, 1000.0, 0.0, None)
    eng = run_engine([eleph, mouse], topo=topo, horizon=2.0, probe_interval=1.0)
    eng.run()
    # forward links carry offered 9e6 (rho 0.9), reverse links are idle
    want = 4 * 50e-6 + 2 * (500e-6 * 0.9 / 0.1)
    for rtt in eng.probe_rtts:
        assert rtt == pytest.approx(want)


def test_probe_loss_under_overload():
    # two elephants at full demand on the same host pair overload the access
    # link: offered = 2x capacity, loss 0.5 per traversal
    topo = build_fat_tree(4, 10e6)
    flows = [elephant(0, topo), elephant(1, topo),
             Flow(2, topo.hosts[0], topo.hosts[15], MICE, 1000.0, 0.0, None)]
    eng = run_engine(flows, topo=topo, horizon=40.0, probe_interval=0.1, seed=3)
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
    mouse = Flow(0, topo.hosts[0], topo.hosts[15], MICE, 1000.0, 0.0, None)
    eng = run_engine([mouse], topo=topo, horizon=horizon, probe_interval=interval,
                     params=EngineParams(poll_interval=interval))
    eng.run()
    assert eng.polls == round(horizon / interval)
    assert len(eng.probe_rtts) == round(horizon / interval) + 1
    assert eng.pending_events() == 0
    assert eng.event_log[-1]["t"] == pytest.approx(horizon)
    assert all(rec["t"] <= horizon for rec in eng.event_log)


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
    # the check runs at construction, so no event is processed
    with pytest.raises(EngineError) as raised:
        run_engine(flows, topo=topo, probe_interval=interval)
    assert str(raised.value) == (
        f"probe_interval must be none or finite and > 0, got {interval!r}")


@pytest.mark.parametrize("field,value", [
    ("poll_interval", 0.0), ("poll_interval", math.inf),
    ("detection_threshold", -1.0), ("detection_threshold", 0.0),
    ("detection_threshold", math.nan),
    ("base_hop_latency", -50e-6), ("base_hop_latency", math.nan),
    ("queuing_scale", -1.0), ("queuing_scale", math.inf),
    ("rho_cap", 1.0), ("rho_cap", 1.5), ("rho_cap", 0.0), ("rho_cap", math.nan)])
def test_engine_params_reject_bad_values(field, value):
    with pytest.raises(EngineError, match=f"^{field} must be finite"):
        EngineParams(**{field: value})


def test_monitoring_counters():
    topo = build_fat_tree(4, 10e6)
    eng = run_engine([elephant(0, topo)], topo=topo, horizon=5.0)
    eng.run()
    assert eng.polls == 5
    assert eng.port_stat_reads == 5 * 80
    assert eng.uplink_stat_reads == 5 * 16
    assert len(eng.util_snapshots) == 5
    assert len(eng.util_snapshots[0]) == len(topo.monitored_link_ids) == 64


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
    """Integrates at every event, probes included."""

    def _advance(self, t):
        super()._advance(t)
        self._integrate()


# the default config, one with departures, one that ends between two polls
CONFIGS = {"default": {}, "departures": {"flow_duration": 6.0},
           "off-poll-horizon": {"duration": 39.5}}


def default_engine(cls, scheduler, seed=3, **overrides):
    config = ExperimentConfig(**overrides)
    topo = build_topology(config, scheduler)
    flows = generate_workload(topo, config.workload_spec(seed))
    return cls(topo, config.scheduler_kind(scheduler), flows,
               horizon=config.duration, params=config.engine_params(),
               seed=seed, probe_interval=config.probe_interval)


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
def test_lazy_integration_matches_eager_reference(scheduler, config):
    eng = default_engine(RecordingEngine, scheduler, **CONFIGS[config]).run()
    assert sum(rec["type"] == "probe" for rec in eng.event_log) > \
        len(eng.event_log) / 2
    params = eng.params

    # integrate event by event from the recorded rates, and classify at each
    # poll from those integrals
    nlinks = len(eng.topology.links)
    offered = [0.0] * nlinks
    bits: dict[int, float] = {}
    classified: set[int] = set()
    prev = None
    for (t, o, rates), rec in zip(eng.rate_trace, eng.event_log):
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
            caps = [eng.topology.links[lid].capacity for lid in links]
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
    eager = default_engine(EagerEngine, scheduler, **CONFIGS[config]).run()
    assert eager.event_log == eng.event_log
    eager_offered = eager.mean_offered_by_link()
    for lid in range(nlinks):
        assert eager_offered[lid] == pytest.approx(mean_offered[lid],
                                                   rel=1e-12)


def test_mouse_arrival_changes_no_rate(monkeypatch):
    topo = build_fat_tree(4, 10e6)
    flows = [elephant(0, topo), elephant(1, topo, start=0.2, src=1, dst=14),
             Flow(2, topo.hosts[0], topo.hosts[15], MICE, 1000.0, 0.5, None)]
    eng = run_engine(flows, topo=topo, probe_interval=1.0)
    while eng._queue[0][3] is not flows[2]:
        eng.step()
    before = (list(eng.allocated), list(eng.offered),
              {fid: f.achieved_rate for fid, f in eng.active.items()})
    npoints = len(eng.bisection_series)
    calls = []
    monkeypatch.setattr(engine_module, "waterfill",
                        lambda *a: calls.append(a) or waterfill(*a))
    record = eng.step()
    assert record["type"] == "arrival" and record["flow"] == 2
    assert not calls
    assert eng.active[2].achieved_rate == 0.0
    after = (list(eng.allocated), list(eng.offered),
             {fid: f.achieved_rate for fid, f in eng.active.items() if fid != 2})
    assert after == before
    assert len(eng.bisection_series) == npoints + 1
    assert eng.bisection_series[-1] == (0.5, eng.bisection_rate)


def test_probe_links_follow_a_moved_path():
    # an elephant at the full link rate loads one of the mouse's paths, so
    # probes on it take longer than on a path through another core switch
    topo = build_fat_tree(4, 10e6)
    mouse = Flow(1, topo.hosts[0], topo.hosts[15], MICE, 1000.0, 0.0, None)
    eng = run_engine([elephant(0, topo), mouse], topo=topo, horizon=2.0,
                     probe_interval=0.1)
    eng.step()
    eng.step()
    state = eng.active[1]
    loaded = eng.active[0].path
    idle = next(p for p in topo.equal_cost_paths(topo.hosts[0], topo.hosts[15])
                if p.core_index != loaded.core_index)
    assert eng.step()["type"] == "probe"  # fills the mouse's probe cache
    rtts = []
    for path in (loaded, idle, loaded):
        eng._route(state, path)
        want = path.link_ids + tuple(topo.reverse_ids[l] for l in path.link_ids)
        assert state.probe_links == want
        assert eng.step()["type"] == "probe"
        fresh = 0.0
        for lid in want:
            fresh += eng._probe_delay[lid]
        assert eng.probe_rtts[-1] == fresh
        rtts.append(fresh)
    assert rtts[0] == rtts[2] > rtts[1]


# -- incremental re-solve against a full re-solve ------------------------------

class FullResolveEngine(Engine):
    """Re-solves every routed elephant whenever any of them changes."""

    def _resolve(self, changed):
        nlinks = len(self._cap)
        demands, paths = {}, {}
        for fid in sorted(self.active):
            state = self.active[fid]
            if state.spec.is_elephant:
                demands[fid] = state.spec.demand
                paths[fid] = state.path.link_ids
        caps = {lid: self._cap[lid] for links in paths.values() for lid in links}
        rates = waterfill(demands, paths, caps)
        allocated, offered, bis = [0.0] * nlinks, [0.0] * nlinks, 0.0
        for fid, links in paths.items():
            self.active[fid].achieved_rate = rates[fid]
            for lid in links:
                allocated[lid] += rates[fid]
                offered[lid] += demands[fid]
            if self.active[fid].crosses:
                bis += rates[fid]
        for lid in range(nlinks):
            if offered[lid] != self.offered[lid]:
                self._probe_keep[lid] = 1.0 - link_loss_probability(
                    offered[lid], self._cap[lid])
                self._probe_delay[lid] = traversal_delay(
                    offered[lid] / self._cap[lid], self.params)
        self.allocated, self.offered = allocated, offered
        self.bisection_rate = bis
        self.bisection_series.append((self.clock, bis))


def allocation_bits(eng):
    """The allocation state as raw float bytes, so equality is bitwise."""
    fids = sorted(eng.active)
    return (
        fids,
        array("d", eng.allocated + eng.offered + eng._probe_keep
              + eng._probe_delay + [eng.bisection_rate]).tobytes(),
        array("d", (eng.active[fid].achieved_rate for fid in fids)).tobytes(),
        array("d", (x for point in eng.bisection_series
                    for x in point)).tobytes(),
    )


def step_in_lockstep(eng, ref):
    while eng.pending_events():
        assert eng.step() == ref.step()
        assert allocation_bits(eng) == allocation_bits(ref)
    assert not ref.pending_events()


RESOLVE_CONFIGS = {
    "default": {},
    "churn": {"elephants": 100, "arrival_rate": 50.0, "flow_duration": 0.8,
              "duration": 6.0},
    "k8": {"k": 8, "elephants": 48, "arrival_rate": 32.0, "duration": 10.0},
    # re-solves of 35 flows on average, up to 56: criterion 6's size
    "large": {"elephants": 200, "arrival_rate": 50.0, "flow_duration": 1.5,
              "duration": 4.0, "probe_interval": None},
}


@pytest.mark.parametrize("config", sorted(RESOLVE_CONFIGS))
@pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
def test_incremental_resolve_matches_full_resolve(scheduler, config,
                                                  monkeypatch):
    eng = default_engine(Engine, scheduler, **RESOLVE_CONFIGS[config])
    ref = default_engine(FullResolveEngine, scheduler, **RESOLVE_CONFIGS[config])
    # (flows solved, elephants routed) of every re-solve of `eng`
    solves = []
    monkeypatch.setattr(engine_module, "waterfill", lambda d, p, c: (
        solves.append((len(d), len(eng._routed))) or waterfill(d, p, c)))
    step_in_lockstep(eng, ref)
    if scheduler == HEDERA_GFF and config == "default":
        assert eng.reroutes > 0
    if config != "default":
        assert any(solved < routed for solved, routed in solves)


class UncachedProbeEngine(Engine):
    """Evaluates every probe from the per-link factors, with no cache: the
    engine's `_on_probe` from before the cache, kept as the reference."""

    def _on_probe(self, st):
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
        return {"flow": st.spec.id, "delivered": rtt is not None, "rtt": rtt}


def rtt_bits(rtts):
    """Which probes were lost, and the delivered RTTs as raw float bytes."""
    return ([rtt is None for rtt in rtts],
            array("d", (rtt for rtt in rtts if rtt is not None)).tobytes())


# a mouse probes again after a re-solve: elephant arrivals in all three,
# departures in "departures" and hedera-gff reroutes in "default"
PROBE_CACHE_CONFIGS = {"default": RESOLVE_CONFIGS["default"],
                       "k8": RESOLVE_CONFIGS["k8"],
                       "departures": CONFIGS["departures"]}


@pytest.mark.parametrize("config", sorted(PROBE_CACHE_CONFIGS))
@pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
def test_cached_probes_match_uncached_reference(scheduler, config):
    eng = default_engine(Engine, scheduler, **PROBE_CACHE_CONFIGS[config])
    ref = default_engine(UncachedProbeEngine, scheduler,
                         **PROBE_CACHE_CONFIGS[config])
    hits = 0
    while eng.pending_events():
        _, _, kind, payload = eng._queue[0]
        if kind == "probe" and payload.probe_epoch == eng._epoch:
            hits += 1
        assert eng.step() == ref.step()
    assert not ref.pending_events()
    assert rtt_bits(eng.probe_rtts) == rtt_bits(ref.probe_rtts)
    assert 0 < hits < len(eng.probe_rtts)
    if scheduler == HEDERA_GFF and config == "default":
        assert eng.reroutes > 0


def test_incremental_resolve_sums_in_flow_id_order():
    # flow ids that run against arrival order
    config = ExperimentConfig(**RESOLVE_CONFIGS["churn"])
    topo = build_topology(config, "hybrid")
    engines = []
    for cls in (Engine, FullResolveEngine):
        flows = generate_workload(topo, config.workload_spec(3))
        flows = [dataclasses.replace(f, id=len(flows) - 1 - f.id) for f in flows]
        engines.append(cls(topo, config.scheduler_kind("hybrid"), flows,
                           horizon=config.duration,
                           params=config.engine_params(), seed=3,
                           probe_interval=config.probe_interval))
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
    eng = run_engine(flows(topo), topo=topo, horizon=3.0)
    ref = FullResolveEngine(topo, SchedulerKind("ecmp"), flows(topo),
                            horizon=3.0)
    solved = []
    monkeypatch.setattr(engine_module, "waterfill", lambda d, p, c: (
        solved.append(sorted(d)) or waterfill(d, p, c)))
    rates = []
    for _ in range(5):
        assert eng.step() == ref.step()
        assert allocation_bits(eng) == allocation_bits(ref)
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
