import math
import random
import re
from collections import Counter

import pytest

from fatflow import engine as engine_module
from fatflow.engine import Engine, EngineError
from fatflow.experiment import run_experiment
from fatflow.schedulers import (ECMP, HEDERA, HEDERA_GFF, HYBRID, HYBRID_SCALAR,
                                MECH_CONTROLLER, MECH_PROACTIVE, NONBLOCKING,
                                SCHEDULER_NAMES, SchedulerError, SchedulerKind,
                                controller_rank, dispatch, estimate_demands,
                                flow_hash, hedera_key, hedera_period_polls,
                                hedera_schedule, lexicographic_key,
                                scalarized_key)
from fatflow.topology import build_fat_tree, build_nonblocking
from fatflow.traffic import Flow, WorkloadSpec, generate_workload

from test_cli import fast_config, tree_digest
from test_engine import RESOLVE_CONFIGS, default_engine
from test_topology import scanned_loads


@pytest.fixture(scope="module")
def k4():
    return build_fat_tree(4, 10e6)


def lex_oracle(loads):
    # brute-force sort-and-take-first over (residual, elephants) by rank
    return sorted(range(len(loads)), key=lambda r: (
        loads[r][1], -loads[r][0], r))[0]


def hashed(topo, flow):
    """The candidate ECMP hashes `flow` onto, out of the materialised list."""
    candidates = topo.equal_cost_paths(flow.src, flow.dst)
    h = flow_hash(topo.host_number(flow.src), topo.host_number(flow.dst),
                  flow.id)
    return candidates[h % len(candidates)]


class FixedCoin:
    """A dispatch coin that always lands on `value`: under 0.5 sends a
    hybrid flow to the controller, 0.5 and up to ECMP."""

    def __init__(self, value):
        self.value = value

    def random(self):
        return self.value


class Unpolled:
    """Stands in for the engine in `dispatch`; reading its polled link
    state fails the test."""

    def __init__(self, topology, coin):
        self.topology, self.dispatch_rng = topology, FixedCoin(coin)

    @property
    def polled_residual(self):
        raise AssertionError("read polled_residual")

    @property
    def polled_elephants(self):
        raise AssertionError("read polled_elephants")


# -- hashing / ECMP -----------------------------------------------------------

def test_flow_hash_deterministic():
    assert flow_hash(1, 2, 3) == flow_hash(1, 2, 3)
    assert flow_hash(1, 2, 3) != flow_hash(2, 1, 3)


def test_ecmp_same_flow_same_path(k4):
    kind = SchedulerKind("ecmp")
    eng = Engine(k4, kind, [], horizon=1.0, seed=0)
    f = Flow(42, k4.hosts[0], k4.hosts[15], 10e6, 0.0, None)
    assert dispatch(eng, f, kind).path is dispatch(eng, f, kind).path


def test_ecmp_single_candidate(k4):
    kind = SchedulerKind("ecmp")
    eng = Engine(k4, kind, [], horizon=1.0, seed=0)
    f = Flow(7, k4.hosts[0], k4.hosts[1], 10e6, 0.0, None)
    (only,) = k4.equal_cost_paths(f.src, f.dst)
    d = dispatch(eng, f, kind)
    assert d.path is only
    assert (d.mechanism, d.candidates_considered) == (MECH_PROACTIVE, 1)


def test_ecmp_uniformity_over_10k_flows(k4):
    candidates = k4.equal_cost_paths(k4.hosts[0], k4.hosts[15])
    counts = [0, 0, 0, 0]
    rng = random.Random(5)
    for fid in range(10_000):
        src = rng.choice(k4.hosts)
        dst = rng.choice([h for h in k4.hosts if h != src])
        f = Flow(fid, src, dst, 10e6, 0.0, None)
        counts[flow_hash(k4.host_number(src), k4.host_number(dst), fid) % 4] += 1
    for c in counts:
        assert 2_375 <= c <= 2_625  # 2,500 +/- 5%


def test_ecmp_reads_no_link_state(k4):
    # a hashed decision reads no polled state: ecmp, nonblocking, hedera-gff
    # at arrival, hedera's small flows and the hybrids' coin going to ECMP
    star = build_nonblocking(4, 10e6)
    decided = Counter()
    for name, topo, coin in ((ECMP, k4, 0.0), (NONBLOCKING, star, 0.0),
                             (HEDERA_GFF, k4, 0.0), (HEDERA, k4, 0.0),
                             (HYBRID, k4, 0.5), (HYBRID_SCALAR, k4, 0.99)):
        kind = SchedulerKind(name)
        flows = generate_workload(topo, WorkloadSpec(elephants=20, seed=4))
        if name == HEDERA:
            # mice are under its cutoff; its elephants are not
            flows = [f for f in flows if not f.is_elephant]
        for f in flows:
            d = dispatch(Unpolled(topo, coin), f, kind)
            assert d.mechanism == MECH_PROACTIVE
            assert d.path is hashed(topo, f)
            decided[name] += 1
    assert len(decided) == 6 and min(decided.values()) == 20
    # the stand-in does fail a decision that reads the poll
    f = Flow(0, k4.hosts[0], k4.hosts[15], 10e6, 0.0, None)
    for name in (HYBRID, HYBRID_SCALAR, HEDERA):
        with pytest.raises(AssertionError, match="read polled_"):
            dispatch(Unpolled(k4, 0.0), f, SchedulerKind(name))


# -- lexicographic controller ---------------------------------------------------

def test_lex_spec_example():
    loads = [(4e6, 2), (3e6, 0), (5e6, 0), (9e6, 1)]
    assert controller_rank(loads, lexicographic_key) == 2


def test_lex_all_tied_takes_first_in_path_order():
    assert controller_rank([(5e6, 1)] * 4, lexicographic_key) == 0


def test_lex_singleton():
    assert controller_rank([(1e6, 0)], lexicographic_key) == 0


def test_lex_matches_bruteforce_oracle():
    rng = random.Random(99)
    for _ in range(1000):
        n = rng.randint(1, 4)
        loads = [(float(rng.choice([0, 1e6, 2e6, 5e6, 5e6, 10e6])),
                  rng.randint(0, 3)) for _ in range(n)]
        assert controller_rank(loads, lexicographic_key) == lex_oracle(loads)


# -- scalarized controller ------------------------------------------------------

def test_scalarized_alpha_zero_is_max_residual():
    rng = random.Random(3)
    for _ in range(100):
        loads = [(float(rng.randrange(0, 10_000_001)), rng.randint(0, 5))
                 for _ in range(4)]
        best = max(residual for residual, _ in loads)
        want = [r for r, (residual, _) in enumerate(loads)
                if residual == best][0]
        assert controller_rank(loads, scalarized_key(0.0)) == want


def test_scalarized_flip_case():
    loads = [(5e6, 0), (9e6, 1)]
    assert controller_rank(loads, scalarized_key(1.0)) == 1  # 9-1 > 5-0 in Mb/s
    assert controller_rank(loads, scalarized_key(5.0)) == 0  # 5 > 9-5


def test_scalarized_joint_scaling_invariance():
    rng = random.Random(17)
    for _ in range(200):
        loads = [(float(rng.choice([0, 1e6, 3e6, 8e6])), rng.randint(0, 4))
                 for _ in range(4)]
        alpha = rng.choice([0.5, 1.0, 2.0])
        want = controller_rank(loads, scalarized_key(alpha))
        for c in (2.0, 4.0, 0.5):  # powers of two scale exactly in floats
            scaled = [(residual * c, elephants) for residual, elephants in loads]
            assert controller_rank(scaled, scalarized_key(alpha * c)) == want


def test_scalarized_constant_elephants_reduces_to_residual():
    loads = [(3e6, 2), (8e6, 2), (5e6, 2), (1e6, 2)]
    for alpha in (0.0, 1.0, 10.0):
        assert controller_rank(loads, scalarized_key(alpha)) == 1


def test_lex_agrees_with_scalarized_on_dominant_instances():
    # whenever one candidate both maximizes residual and minimizes
    # elephants, every policy must pick it
    rng = random.Random(23)
    for _ in range(300):
        loads = [(float(rng.choice([1e6, 3e6, 6e6])), rng.randint(1, 4))
                 for _ in range(4)]
        i = rng.randrange(4)
        loads[i] = (9e6, 0)  # dominates on both criteria
        assert controller_rank(loads, lexicographic_key) == i
        for alpha in (0.0, 1.0, 3.0):
            assert controller_rank(loads, scalarized_key(alpha)) == i


def test_scalarized_rejects_bad_alpha():
    for alpha in (float("inf"), float("nan")):
        with pytest.raises(SchedulerError, match="alpha must be finite"):
            scalarized_key(alpha)


# -- hedera -------------------------------------------------------------------

def test_hedera_mice_scale_goes_to_ecmp(k4):
    f = Flow(3, k4.hosts[0], k4.hosts[15], 1000.0, 0.0, None, 1.0)
    assert hedera_key(k4, f, 0.1) is None
    kind = SchedulerKind("hedera")
    d = dispatch(Engine(k4, kind, [], horizon=1.0, seed=0), f, kind)
    assert d.mechanism == MECH_PROACTIVE
    assert d.path is hashed(k4, f)


@pytest.mark.parametrize("threshold", [0.1, 1e-4, 1e-9])
def test_hedera_leaves_every_mouse_to_ecmp_at_any_cutoff(k4, threshold):
    # a mouse's demand is a placeholder; at 1e-4 it equals the cutoff
    mice = [f for f in generate_workload(k4, WorkloadSpec())
            if not f.is_elephant]
    assert len(mice) == 28
    kind = SchedulerKind("hedera", elephant_threshold=threshold)
    eng = Engine(k4, kind, [], horizon=1.0, seed=0)
    for f in mice:
        assert hedera_key(k4, f, threshold) is None
        d = dispatch(eng, f, kind)
        assert d.mechanism == MECH_PROACTIVE
        assert d.path is hashed(k4, f)


def test_hedera_first_fit(k4):
    f = Flow(3, k4.hosts[0], k4.hosts[15], 6e6, 0.0, None)
    loads = [(5e6, 0), (7e6, 0), (10e6, 0), (10e6, 0)]
    # the first candidate with room for the whole demand
    assert controller_rank(loads, hedera_key(k4, f, 0.1)) == 1


def test_hedera_fallback_max_residual(k4):
    f = Flow(3, k4.hosts[0], k4.hosts[15], 10e6, 0.0, None)
    loads = [(2e6, 0), (7e6, 0), (5e6, 0)]
    # nothing fits demand 10, widest residual wins
    assert controller_rank(loads, hedera_key(k4, f, 0.1)) == 1


# -- hedera-gff -------------------------------------------------------------------

def test_estimator_one_source_splits_its_nic(k4):
    for n in range(1, 6):
        pairs = {fid: (k4.hosts[0], k4.hosts[1 + fid]) for fid in range(n)}
        est = estimate_demands(pairs)
        assert all(d == pytest.approx(1 / n) for d in est.values())


def test_estimator_two_senders_are_receiver_limited(k4):
    est = estimate_demands({0: (k4.hosts[0], k4.hosts[15]),
                            1: (k4.hosts[3], k4.hosts[15])})
    assert est == {0: pytest.approx(0.5), 1: pytest.approx(0.5)}


def test_estimator_sender_reclaims_what_a_receiver_limits(k4):
    # three senders into x cap each other at 1/3; c's other flow takes the rest
    a, b, c, x, y = (k4.hosts[i] for i in (0, 3, 5, 12, 14))
    est = estimate_demands({0: (a, x), 1: (b, x), 2: (c, x), 3: (c, y)})
    assert est == {0: pytest.approx(1 / 3), 1: pytest.approx(1 / 3),
                   2: pytest.approx(1 / 3), 3: pytest.approx(2 / 3)}


def test_first_fit_honours_reservations_and_canonical_order(k4):
    # a lone large flow is estimated at its whole NIC
    h = k4.hosts
    flow = Flow(0, h[0], h[15], 10e6, 0.0, None)
    paths = k4.equal_cost_paths(h[0], h[15])
    assert hedera_schedule(k4, [flow], {}) == [(flow, paths[0], 10e6)]
    # a reservation on paths[0]'s agg-to-core hop alone sends it one rank on
    core_hop = k4.equal_cost_paths(h[2], h[8])[0]
    assert set(core_hop.link_ids) & set(paths[0].link_ids) == {
        paths[0].link_ids[2]}
    placed = {1: (1e6, core_hop)}
    assert hedera_schedule(k4, [flow], placed) == [(flow, paths[1], 10e6)]
    # one on the host uplink every candidate shares leaves it nowhere
    placed[2] = (1e6, k4.equal_cost_paths(h[0], h[1])[0])
    assert hedera_schedule(k4, [flow], placed) == []


def first_fit(candidates, need, room):
    # Global First Fit, written out: the first candidate in canonical order
    # whose least room covers the need
    for p in sorted(candidates, key=lambda p: p.sort_key):
        if min(room[lid] for lid in p.link_ids) >= need:
            return p
    return None


@pytest.mark.parametrize("k", [2, 4, 6, 8])
def test_gff_round_places_by_rank_as_first_fit_over_every_candidate(k):
    topo = build_fat_tree(k, 10e6)
    rng = random.Random(k)
    hosts = topo.hosts
    pairs = [(s, d) for s in hosts for d in hosts if s != d]
    if k == 8:
        pairs = rng.sample(pairs, 1500)  # of 16,256
    elif k == 2:
        pairs *= 100  # its two pairs, with fresh reservations each time
    # a lone large flow is estimated at its whole NIC
    need = topo.link_capacity
    slack = need * (1.0 + 1e-9)
    # reservations that, alone on a link, leave it exactly `need` of room,
    # or one ulp less or more
    edge = [slack - t for t in (math.nextafter(need, -math.inf), need,
                                math.nextafter(need, math.inf))]
    seen = Counter()
    for src, dst in pairs:
        flow = Flow(0, src, dst, 10e6, 0.0, None)
        candidates = topo.equal_cost_paths(src, dst)
        placed = {}
        for fid in range(1, rng.randint(1, 4)):
            # the pair's own candidates, or a path out of the same pod
            if rng.random() < 0.3:
                path = rng.choice(candidates)
            else:
                a = rng.choice([h for h in hosts if h.pod == src.pod])
                path = rng.choice(topo.equal_cost_paths(
                    a, rng.choice([h for h in hosts if h != a])))
            placed[fid] = (rng.choice(edge) if rng.random() < 0.8
                           else rng.uniform(0.0, need), path)
        room = [topo.link_capacity * (1.0 + 1e-9)] * len(topo.links)
        for fid in sorted(placed):
            reservation, path = placed[fid]
            for lid in path.link_ids:
                room[lid] -= reservation
        want = first_fit(candidates, need, room)
        assert hedera_schedule(topo, [flow], placed) == (
            [] if want is None else [(flow, want, need)])
        least = [min(room[lid] for lid in p.link_ids) for p in candidates]
        seen["exact"] += need in least
        seen["ulp short"] += math.nextafter(need, -math.inf) in least
        seen["ulp over"] += math.nextafter(need, math.inf) in least
        seen["none"] += want is None
        seen["later rank"] += want is not None and want is not candidates[0]
    assert all(seen[c] for c in ("exact", "ulp short", "ulp over", "none")), seen
    assert seen["later rank"] or k == 2  # k = 2 has one candidate per pair


def test_gff_round_reserves_and_departure_releases(k4):
    # hosts 0 and 1 share an edge switch: flow 0 takes the first path and
    # fills its edge uplink, so flow 1 skips both paths through aggregate 0
    flows = [Flow(0, k4.hosts[0], k4.hosts[15], 10e6, 0.0, 7.0),
             Flow(1, k4.hosts[1], k4.hosts[14], 10e6, 0.0, 7.0)]
    eng = Engine(k4, SchedulerKind("hedera-gff"), flows, horizon=10.0)
    while eng.clock < 5.0:
        eng.step()
    first = k4.equal_cost_paths(flows[0].src, flows[0].dst)[0]
    third = k4.equal_cost_paths(flows[1].src, flows[1].dst)[2]
    assert eng.reservations == {0: (10e6, first), 1: (10e6, third)}
    assert eng.active[0].path is first
    assert eng.active[1].path is third
    eng.run()
    assert eng.reservations == {}
    assert not hasattr(eng, "reserved")


def test_gff_reroutes_keep_per_link_elephant_tallies_consistent(k4):
    flows = generate_workload(k4, WorkloadSpec(
        elephants=28, seed=3, arrival_rate=2.0, demand=5.5e6,
        flow_duration=12.0, probe_interval=None))
    eng = Engine(k4, SchedulerKind("hedera-gff"), flows, horizon=30.0, seed=3)
    while eng.pending_events() and eng._queue[0][0] <= eng.horizon:
        eng.step()
        recount = [0] * len(k4.links)
        for fid, f in eng.active.items():
            if f.classified:
                for lid in f.path.link_ids:
                    recount[lid] += 1
        assert eng.elephants == recount
        # a placed flow stays on the path its reservation names
        for fid, (_, path) in eng.reservations.items():
            assert path is eng.active[fid].path
    assert eng.reroutes > 0


def test_gff_places_arrivals_by_ecmp(k4):
    flows = generate_workload(k4, WorkloadSpec(
        elephants=200, seed=6, arrival_rate=4.0, demand=10e6,
        probe_interval=1.0))
    kind = SchedulerKind("hedera-gff")
    eng = Engine(k4, kind, [], horizon=1.0, seed=0)
    for f in flows:
        d = dispatch(eng, f, kind)
        candidates = k4.equal_cost_paths(f.src, f.dst)
        assert d.mechanism == MECH_PROACTIVE
        assert d.path is hashed(k4, f)
        assert d.candidates_considered == len(candidates)


def test_gff_period_counts_polls():
    assert hedera_period_polls(1.0) == 5
    assert hedera_period_polls(0.25) == 20
    assert hedera_period_polls(10.0) == 1


def test_gff_bundle_is_bit_identical(tmp_path):
    kwargs = dict(schedulers=["hedera-gff"], elephants=12, duration=12.0,
                  flow_duration=6.0, write_events=True)
    a = run_experiment(fast_config(out_dir=str(tmp_path / "a"), **kwargs))
    b = run_experiment(fast_config(out_dir=str(tmp_path / "b"), **kwargs))
    assert tree_digest(a) == tree_digest(b)
    events = (a / "events" / "hedera-gff_seed1.jsonl").read_text()
    assert re.search(r'"rerouted": \[\d', events)  # some round moved a flow


# -- non-blocking ----------------------------------------------------------------

def test_non_blocking_unique_path():
    star = build_nonblocking(4, 10e6)
    kind = SchedulerKind("nonblocking")
    eng = Engine(star, kind, [], horizon=1.0, seed=0)
    f = Flow(0, star.hosts[3], star.hosts[12], 10e6, 0.0, None)
    d = dispatch(eng, f, kind)
    assert [d.path] == star.equal_cost_paths(f.src, f.dst)
    assert len(d.path.hops) == 2
    assert (d.mechanism, d.candidates_considered) == (MECH_PROACTIVE, 1)


def test_non_blocking_rejects_fat_tree(k4):
    # refused when the engine is built, not when the first flow arrives
    late = Flow(0, k4.hosts[0], k4.hosts[15], 10e6, 2.5, None)
    for flows in ([], [late]):
        with pytest.raises(EngineError, match="scheduler: 'nonblocking' runs "
                           "on the 'star' layout, got 'fat-tree'"):
            Engine(k4, SchedulerKind("nonblocking"), flows, horizon=5.0, seed=0)


@pytest.mark.parametrize("name", [ECMP, HYBRID, HYBRID_SCALAR, HEDERA, HEDERA_GFF])
def test_fat_tree_schedulers_reject_the_star(name):
    star = build_nonblocking(4, 10e6)
    with pytest.raises(EngineError, match=f"scheduler: '{name}' runs on the "
                       "'fat-tree' layout, got 'star'"):
        Engine(star, SchedulerKind(name), [], horizon=5.0, seed=0)


def test_non_blocking_permutation_gets_full_capacity():
    star = build_nonblocking(4, 10e6)
    spec = WorkloadSpec(pattern="random_permutation", elephants=16, seed=9,
                        arrival_rate=4.0, demand=10e6, probe_interval=None)
    flows = generate_workload(star, spec)
    eng = Engine(star, SchedulerKind("nonblocking"), flows, horizon=20.0, seed=9)
    eng.run()
    for f in eng.active.values():
        assert f.achieved_rate == 10e6


# -- the controller's snapshot ---------------------------------------------------

def test_controller_loads_change_only_at_a_poll(k4):
    f = Flow(0, k4.hosts[0], k4.hosts[15], 10e6, 0.5, None)
    eng = Engine(k4, SchedulerKind("ecmp"), [f], horizon=3.0, seed=0)

    def loads():
        return k4.candidate_loads(f.src, f.dst, eng.polled_residual,
                                  eng.polled_elephants)

    before = loads()
    assert eng.step()["type"] == "arrival"
    assert max(eng.allocated) == 10e6
    assert loads() == before
    assert eng.step()["type"] == "poll"
    after = loads()
    rank = k4.equal_cost_paths(f.src, f.dst).index(eng.active[0].path)
    assert after[rank] == (0.0, 1)
    assert sum(elephants for _, elephants in after) == 1


# -- dispatch -------------------------------------------------------------------

def test_dispatch_split_about_half(k4):
    flows = generate_workload(k4, WorkloadSpec(
        elephants=10_000, seed=0, arrival_rate=1000.0, demand=10e6,
        probe_interval=None))
    eng = Engine(k4, SchedulerKind("hybrid"), [], horizon=1.0, seed=0)
    controller = 0
    for f in flows:
        d = dispatch(eng, f, SchedulerKind("hybrid"))
        if d.mechanism == MECH_CONTROLLER:
            controller += 1
    assert 0.48 <= controller / 10_000 <= 0.52


def test_dispatch_ecmp_always_proactive(k4):
    eng = Engine(k4, SchedulerKind("ecmp"), [], horizon=1.0, seed=0)
    for fid in range(50):
        f = Flow(fid, k4.hosts[0], k4.hosts[15], 10e6, 0.0, None)
        d = dispatch(eng, f, SchedulerKind("ecmp"))
        assert d.mechanism == MECH_PROACTIVE


def test_dispatch_controller_branch_equals_lex(k4):
    eng = Engine(k4, SchedulerKind("hybrid"), [], horizon=1.0, seed=0)
    eng.dispatch_rng = FixedCoin(0.0)
    f = Flow(0, k4.hosts[0], k4.hosts[15], 10e6, 0.0, None)
    d = dispatch(eng, f, SchedulerKind("hybrid"))
    assert d.mechanism == MECH_CONTROLLER
    candidates = k4.equal_cost_paths(f.src, f.dst)
    assert d.path is candidates[lex_oracle(scanned_loads(eng, candidates))]


def test_dispatch_chooses_among_equal_cost_paths(k4):
    flows = generate_workload(k4, WorkloadSpec(
        elephants=100, seed=2, arrival_rate=4.0, demand=10e6, probe_interval=None))
    for kind in ("ecmp", "hybrid", "hybrid-scalar", "hedera"):
        eng = Engine(k4, SchedulerKind(kind), [], horizon=1.0, seed=1)
        for f in flows:
            d = dispatch(eng, f, SchedulerKind(kind))
            candidates = k4.equal_cost_paths(f.src, f.dst)
            assert any(d.path == c for c in candidates)
            assert d.candidates_considered == len(candidates)


def brute_force_pick(kind, flow, candidates, loads):
    """The controller's choice written out: candidates keyed on
    `Path.sort_key`, each policy as a plain comparison of their loads."""
    order = sorted(range(len(candidates)), key=lambda r: candidates[r].sort_key)
    if kind.name == HYBRID:
        # fewest uplink elephants, then widest residual
        best = min(order, key=lambda r: (loads[r][1], -loads[r][0]))
    elif kind.name == HYBRID_SCALAR:
        best = max(order, key=lambda r: loads[r][0] / 1e6
                   - kind.alpha * loads[r][1])
    else:
        # Hedera's greedy: the first that fits the demand, else the widest
        assert kind.name == HEDERA
        fits = [r for r in order if loads[r][0] >= flow.demand]
        best = fits[0] if fits else max(order, key=lambda r: loads[r][0])
    return candidates[best]


@pytest.mark.parametrize("config", ["default", "k8"])
@pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
def test_dispatch_matches_the_selectors_over_every_candidate(scheduler, config,
                                                             monkeypatch):
    # at every arrival of a full run, dispatch's pick by rank is the brute
    # force pick over the materialised candidates and their scanned loads
    eng = default_engine(Engine, scheduler, **RESOLVE_CONFIGS[config])
    topo, kind = eng.topology, eng.scheduler
    mechanisms = Counter()

    def checked(state, flow, kind):
        d = dispatch(state, flow, kind)
        candidates = topo.equal_cost_paths(flow.src, flow.dst)
        loads = scanned_loads(state, candidates)
        if kind.name == HEDERA:
            small = flow.demand < kind.elephant_threshold * topo.link_capacity
            assert d.mechanism == (MECH_PROACTIVE if small else MECH_CONTROLLER)
        if d.mechanism == MECH_PROACTIVE:
            want = hashed(topo, flow)
        else:
            want = brute_force_pick(kind, flow, candidates, loads)
        assert d.path is want
        assert d.candidates_considered == len(candidates)
        mechanisms[d.mechanism] += 1
        if d.mechanism == MECH_CONTROLLER:
            # a decision the loads could sway
            mechanisms["loaded"] += any(
                elephants or residual < topo.link_capacity
                for residual, elephants in loads)
        return d

    monkeypatch.setattr(engine_module, "dispatch", checked)
    eng.run()
    assert mechanisms[MECH_PROACTIVE] + mechanisms[MECH_CONTROLLER] == \
        eng.proactive_decisions + eng.controller_decisions > 0
    if scheduler in (HYBRID, HYBRID_SCALAR, HEDERA):
        assert mechanisms["loaded"] > 0
    else:
        assert mechanisms[MECH_CONTROLLER] == 0


@pytest.mark.parametrize("config", ["default", "k8"])
@pytest.mark.parametrize("scheduler", [HYBRID, HEDERA_GFF])
def test_a_run_keeps_only_the_paths_its_flows_took(scheduler, config,
                                                   monkeypatch):
    eng = default_engine(Engine, scheduler, **RESOLVE_CONFIGS[config])
    topo = eng.topology
    taken = []

    def recorded(state, flow, kind):
        d = dispatch(state, flow, kind)
        taken.append(d.path)
        return d

    def placing(*args):
        placements = hedera_schedule(*args)
        placed.extend(path for _, path, _ in placements)
        return placements

    placed = []
    monkeypatch.setattr(engine_module, "dispatch", recorded)
    monkeypatch.setattr(engine_module, "hedera_schedule", placing)
    eng.run()
    assert len(taken) == eng.proactive_decisions + eng.controller_decisions
    assert bool(placed) == (scheduler == HEDERA_GFF)
    taken += placed
    assert {id(p) for p in topo._path_memo.values()} == {id(p) for p in taken}
    pairs = {(p.hops[0].src, p.hops[-1].dst) for p in taken}
    assert len(topo._path_memo) < sum(topo.candidate_count(*pair)
                                      for pair in pairs)


def test_scheduler_kind_validation():
    with pytest.raises(SchedulerError, match="^name must be one of "):
        SchedulerKind("sieve")
    with pytest.raises(SchedulerError):
        SchedulerKind("hybrid", alpha=-1.0)
    with pytest.raises(SchedulerError):
        SchedulerKind("hedera", elephant_threshold=0.0)
