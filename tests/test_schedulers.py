import random
import re

import pytest

from fatflow.engine import Engine
from fatflow.experiment import ExperimentConfig, build_topology, run_experiment
from fatflow.schedulers import (MECH_CONTROLLER, MECH_PROACTIVE, PathView,
                                SchedulerError, SchedulerKind, dispatch,
                                estimate_demands, flow_hash, global_first_fit,
                                hedera_period_polls, path_views, select_ecmp,
                                select_hedera, select_lexicographic,
                                select_scalarized)
from fatflow.topology import LinkKind, build_fat_tree, build_nonblocking
from fatflow.traffic import ELEPHANT, MICE, Flow, WorkloadSpec, generate_workload

from test_cli import fast_config, tree_digest


@pytest.fixture(scope="module")
def k4():
    return build_fat_tree(4, 10e6)


def fake_views(stats, paths):
    # stats: list of (hops, elephants, residual)
    return [PathView(p, float(r), e, h) for (h, e, r), p in zip(stats, paths)]


def lex_oracle(views):
    # brute-force sort-and-filter, independent of the staged implementation
    ranked = sorted(views, key=lambda v: (
        v.hop_count, v.uplink_elephants, -v.min_residual, v.path.sort_key))
    return ranked[0].path


# -- hashing / ECMP -----------------------------------------------------------

def test_flow_hash_deterministic():
    assert flow_hash(1, 2, 3) == flow_hash(1, 2, 3)
    assert flow_hash(1, 2, 3) != flow_hash(2, 1, 3)


def test_ecmp_same_flow_same_path(k4):
    f = Flow(42, k4.hosts[0], k4.hosts[15], ELEPHANT, 10e6, 0.0, None)
    candidates = k4.equal_cost_paths(f.src, f.dst)
    assert select_ecmp(k4, f, candidates) is select_ecmp(k4, f, candidates)


def test_ecmp_single_candidate(k4):
    f = Flow(7, k4.hosts[0], k4.hosts[1], ELEPHANT, 10e6, 0.0, None)
    candidates = k4.equal_cost_paths(f.src, f.dst)
    assert len(candidates) == 1
    assert select_ecmp(k4, f, candidates) is candidates[0]


def test_ecmp_uniformity_over_10k_flows(k4):
    candidates = k4.equal_cost_paths(k4.hosts[0], k4.hosts[15])
    counts = [0, 0, 0, 0]
    rng = random.Random(5)
    for fid in range(10_000):
        src = rng.choice(k4.hosts)
        dst = rng.choice([h for h in k4.hosts if h != src])
        f = Flow(fid, src, dst, ELEPHANT, 10e6, 0.0, None)
        counts[flow_hash(k4.host_number(src), k4.host_number(dst), fid) % 4] += 1
    for c in counts:
        assert 2_375 <= c <= 2_625  # 2,500 +/- 5%


def test_ecmp_reads_no_link_state(k4):
    import inspect
    params = inspect.signature(select_ecmp).parameters
    assert "state" not in params  # oblivious by construction


def test_ecmp_rejects_empty():
    with pytest.raises(SchedulerError):
        select_ecmp(build_fat_tree(2, 1.0), None, [])


# -- lexicographic controller ---------------------------------------------------

def test_lex_spec_example(k4):
    paths = k4.equal_cost_paths(k4.hosts[0], k4.hosts[15])
    views = fake_views(
        [(6, 2, 4e6), (6, 0, 3e6), (6, 0, 5e6), (6, 1, 9e6)], paths)
    assert select_lexicographic(views) is paths[2]


def test_lex_all_tied_takes_first_in_path_order(k4):
    paths = k4.equal_cost_paths(k4.hosts[0], k4.hosts[15])
    views = fake_views([(6, 1, 5e6)] * 4, paths)
    assert select_lexicographic(views) is paths[0]


def test_lex_singleton(k4):
    paths = k4.equal_cost_paths(k4.hosts[0], k4.hosts[1])
    views = fake_views([(2, 0, 1e6)], paths)
    assert select_lexicographic(views) is paths[0]


def test_lex_permutation_invariance(k4):
    paths = k4.equal_cost_paths(k4.hosts[0], k4.hosts[15])
    rng = random.Random(0)
    for _ in range(200):
        stats = [(rng.choice([4, 6]), rng.randint(0, 3),
                  rng.choice([0.0, 2e6, 5e6, 5e6, 9e6])) for _ in paths]
        views = fake_views(stats, paths)
        want = select_lexicographic(views)
        shuffled = views[:]
        rng.shuffle(shuffled)
        assert select_lexicographic(shuffled) is want


def test_lex_matches_bruteforce_oracle(k4):
    paths = k4.equal_cost_paths(k4.hosts[0], k4.hosts[15])
    rng = random.Random(99)
    for _ in range(1000):
        n = rng.randint(1, 4)
        stats = [(rng.choice([4, 6, 6]), rng.randint(0, 3),
                  float(rng.choice([0, 1e6, 2e6, 5e6, 5e6, 10e6])))
                 for _ in range(n)]
        views = fake_views(stats, paths[:n])
        assert select_lexicographic(views) is lex_oracle(views)


def test_lex_rejects_empty():
    with pytest.raises(SchedulerError):
        select_lexicographic([])


# -- scalarized controller ------------------------------------------------------

def test_scalarized_alpha_zero_is_max_residual(k4):
    paths = k4.equal_cost_paths(k4.hosts[0], k4.hosts[15])
    rng = random.Random(3)
    for _ in range(100):
        stats = [(6, rng.randint(0, 5), float(rng.randrange(0, 10_000_001)))
                 for _ in paths]
        views = fake_views(stats, paths)
        best = max(v.min_residual for v in views)
        want = [v.path for v in views if v.min_residual == best][0]
        assert select_scalarized(views, 0.0) is want


def test_scalarized_flip_case(k4):
    paths = k4.equal_cost_paths(k4.hosts[0], k4.hosts[15])
    views = fake_views([(6, 0, 5e6), (6, 1, 9e6)], paths)
    assert select_scalarized(views, 1.0) is paths[1]  # 9-1 > 5-0 in Mb/s
    assert select_scalarized(views, 5.0) is paths[0]  # 5 > 9-5


def test_scalarized_joint_scaling_invariance(k4):
    paths = k4.equal_cost_paths(k4.hosts[0], k4.hosts[15])
    rng = random.Random(17)
    for _ in range(200):
        stats = [(6, rng.randint(0, 4), float(rng.choice([0, 1e6, 3e6, 8e6])))
                 for _ in paths]
        alpha = rng.choice([0.5, 1.0, 2.0])
        views = fake_views(stats, paths)
        want = select_scalarized(views, alpha)
        for c in (2.0, 4.0, 0.5):  # powers of two scale exactly in floats
            scaled = [PathView(v.path, v.min_residual * c, v.uplink_elephants,
                               v.hop_count) for v in views]
            assert select_scalarized(scaled, alpha * c) is want


def test_scalarized_constant_elephants_reduces_to_residual(k4):
    paths = k4.equal_cost_paths(k4.hosts[0], k4.hosts[15])
    views = fake_views([(6, 2, 3e6), (6, 2, 8e6), (6, 2, 5e6), (6, 2, 1e6)], paths)
    for alpha in (0.0, 1.0, 10.0):
        assert select_scalarized(views, alpha) is paths[1]


def test_lex_agrees_with_scalarized_on_dominant_instances(k4):
    # whenever one shortest path both maximizes residual and minimizes
    # elephants, every selector must pick it
    paths = k4.equal_cost_paths(k4.hosts[0], k4.hosts[15])
    rng = random.Random(23)
    for _ in range(300):
        stats = [(6, rng.randint(1, 4), float(rng.choice([1e6, 3e6, 6e6])))
                 for _ in paths]
        i = rng.randrange(len(paths))
        stats[i] = (6, 0, 9e6)  # dominates on both criteria
        views = fake_views(stats, paths)
        assert select_lexicographic(views) is paths[i]
        for alpha in (0.0, 1.0, 3.0):
            assert select_scalarized(views, alpha) is paths[i]


def test_scalarized_rejects_bad_alpha(k4):
    paths = k4.equal_cost_paths(k4.hosts[0], k4.hosts[15])
    views = fake_views([(6, 0, 5e6)], paths)
    with pytest.raises(SchedulerError):
        select_scalarized(views, float("inf"))
    with pytest.raises(SchedulerError):
        select_scalarized([], 1.0)


# -- hedera -------------------------------------------------------------------

def test_hedera_mice_scale_goes_to_ecmp(k4):
    f = Flow(3, k4.hosts[0], k4.hosts[15], MICE, 1000.0, 0.0, None)
    candidates = k4.equal_cost_paths(f.src, f.dst)
    views = fake_views([(6, 0, 10e6)] * 4, candidates)
    path, mech = select_hedera(k4, f, views, 0.1)
    assert mech == MECH_PROACTIVE
    assert path is select_ecmp(k4, f, candidates)


def test_hedera_first_fit(k4):
    f = Flow(3, k4.hosts[0], k4.hosts[15], ELEPHANT, 6e6, 0.0, None)
    paths = k4.equal_cost_paths(f.src, f.dst)
    views = fake_views([(6, 0, 5e6), (6, 0, 7e6), (6, 0, 10e6), (6, 0, 10e6)], paths)
    path, mech = select_hedera(k4, f, views, 0.1)
    assert mech == MECH_CONTROLLER
    assert path is paths[1]  # first candidate with room for the whole demand


def test_hedera_fallback_max_residual(k4):
    f = Flow(3, k4.hosts[0], k4.hosts[15], ELEPHANT, 10e6, 0.0, None)
    paths = k4.equal_cost_paths(f.src, f.dst)
    views = fake_views([(6, 0, 2e6), (6, 0, 7e6), (6, 0, 5e6)], paths[:3])
    path, _ = select_hedera(k4, f, views, 0.1)
    assert path is paths[1]  # nothing fits demand 10, widest residual wins


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
    paths = k4.equal_cost_paths(k4.hosts[0], k4.hosts[15])
    reserved = [0.0] * len(k4.links)
    reserved[paths[0].link_ids[2]] = 6e6  # paths[0]'s agg-to-core hop
    shuffled = [paths[3], paths[1], paths[0], paths[2]]
    assert global_first_fit(shuffled, 5e6, reserved) == paths[1]
    assert global_first_fit(shuffled, 4e6, reserved) == paths[0]
    reserved[paths[0].link_ids[0]] = 6e6  # the shared host uplink
    assert global_first_fit(shuffled, 5e6, reserved) is None


def test_gff_round_reserves_and_departure_releases(k4):
    # hosts 0 and 1 share an edge switch: flow 0 takes the first path and
    # fills its edge uplink, so flow 1 skips both paths through aggregate 0
    flows = [Flow(0, k4.hosts[0], k4.hosts[15], ELEPHANT, 10e6, 0.0, 7.0),
             Flow(1, k4.hosts[1], k4.hosts[14], ELEPHANT, 10e6, 0.0, 7.0)]
    eng = Engine(k4, SchedulerKind("hedera-gff"), flows, horizon=10.0)
    while eng.clock < 5.0:
        eng.step()
    assert eng.reservations == {0: 10e6, 1: 10e6}
    assert eng.active[0].path == k4.equal_cost_paths(flows[0].src,
                                                     flows[0].dst)[0]
    assert eng.active[1].path == k4.equal_cost_paths(flows[1].src,
                                                     flows[1].dst)[2]
    for f in eng.active.values():
        for lid in f.path.link_ids:
            assert eng.reserved[lid] == 10e6
    eng.run()
    assert eng.reservations == {}
    assert all(r == 0.0 for r in eng.reserved)


def test_gff_reroutes_keep_per_link_elephant_tallies_consistent(k4):
    flows = generate_workload(k4, WorkloadSpec(
        elephants=28, seed=3, arrival_rate=2.0, demand=5.5e6,
        flow_duration=12.0, probe_interval=None))
    eng = Engine(k4, SchedulerKind("hedera-gff"), flows, horizon=30.0, seed=3)
    while eng.pending_events() and eng._queue[0][0] <= eng.horizon:
        eng.step()
        recount = [0] * len(k4.links)
        reserved = [0.0] * len(k4.links)
        for fid, f in eng.active.items():
            if f.classified:
                for lid in f.path.link_ids:
                    recount[lid] += 1
            for lid in f.path.link_ids:
                reserved[lid] += eng.reservations.get(fid, 0.0)
        assert eng.elephants == recount
        assert eng.reserved == pytest.approx(reserved, abs=1e-3)
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
        assert d.path == select_ecmp(k4, f, candidates)
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
    f = Flow(0, star.hosts[3], star.hosts[12], ELEPHANT, 10e6, 0.0, None)
    d = dispatch(eng, f, kind)
    assert [d.path] == star.equal_cost_paths(f.src, f.dst)
    assert len(d.path.hops) == 2
    assert (d.mechanism, d.candidates_considered) == (MECH_PROACTIVE, 1)


def test_non_blocking_rejects_fat_tree(k4):
    kind = SchedulerKind("nonblocking")
    eng = Engine(k4, kind, [], horizon=1.0, seed=0)
    f = Flow(0, k4.hosts[0], k4.hosts[15], ELEPHANT, 10e6, 0.0, None)
    with pytest.raises(SchedulerError, match="requires the star topology"):
        dispatch(eng, f, kind)


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

def scanned_uplink(path):
    up = [l.id for l in path.hops if l.kind == LinkKind.AGG_CORE and l.up]
    assert len(up) <= 1
    return up[0] if up else None


@pytest.mark.parametrize("build,k", [(build_fat_tree, 2), (build_fat_tree, 4),
                                     (build_fat_tree, 6), (build_fat_tree, 8),
                                     (build_nonblocking, 4)])
def test_path_uplink_id_is_the_up_agg_core_hop(build, k):
    topo = build(k, 10e6)
    found = 0
    for src in (topo.hosts[0], topo.hosts[-1]):
        for dst in topo.hosts:
            if dst != src:
                for p in topo.equal_cost_paths(src, dst):
                    assert p.uplink_id == scanned_uplink(p)
                    found += p.uplink_id is not None
    assert (found > 0) == (topo.layout == "fat-tree")


def recomputed_views(eng, candidates):
    views = []
    for p in candidates:
        uplink = scanned_uplink(p)
        views.append(PathView(
            p, min(eng.polled_residual[l.id] for l in p.hops),
            0 if uplink is None else eng.polled_elephants[uplink], len(p.hops)))
    return views


def test_path_views_read_the_poll_snapshot():
    config = ExperimentConfig()
    topo = build_topology(config, "hybrid")
    eng = Engine(topo, config.scheduler_kind("hybrid"),
                 generate_workload(topo, config.workload_spec(0)),
                 horizon=config.duration, params=config.engine_params(),
                 seed=0, probe_interval=config.probe_interval)
    hosts = topo.hosts
    pairs = [(hosts[0], hosts[1]), (hosts[0], hosts[2]), (hosts[0], hosts[-1]),
             (hosts[5], hosts[9]), (hosts[-1], hosts[3])]
    loaded = crowded = 0
    while eng.pending_events():
        if eng.step()["type"] not in ("arrival", "poll"):
            continue
        for src, dst in pairs:
            candidates = topo.equal_cost_paths(src, dst)
            views = path_views(eng, candidates)
            assert views == recomputed_views(eng, candidates)
            loaded += any(v.min_residual < topo.link_capacity for v in views)
            crowded += any(v.uplink_elephants for v in views)
    assert loaded and crowded


def test_path_views_change_only_at_a_poll(k4):
    f = Flow(0, k4.hosts[0], k4.hosts[15], ELEPHANT, 10e6, 0.5, None)
    eng = Engine(k4, SchedulerKind("ecmp"), [f], horizon=3.0, seed=0)
    candidates = k4.equal_cost_paths(f.src, f.dst)
    before = path_views(eng, candidates)
    assert eng.step()["type"] == "arrival"
    assert max(eng.allocated) == 10e6
    assert path_views(eng, candidates) == before
    assert eng.step()["type"] == "poll"
    after = {v.path: v for v in path_views(eng, candidates)}
    view = after[eng.active[0].path]
    assert view.min_residual == 0.0
    assert view.uplink_elephants == 1
    assert sum(v.uplink_elephants for v in after.values()) == 1


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
        f = Flow(fid, k4.hosts[0], k4.hosts[15], ELEPHANT, 10e6, 0.0, None)
        d = dispatch(eng, f, SchedulerKind("ecmp"))
        assert d.mechanism == MECH_PROACTIVE


def test_dispatch_controller_branch_equals_lex(k4):
    eng = Engine(k4, SchedulerKind("hybrid"), [], horizon=1.0, seed=0)

    class AlwaysController:
        def random(self):
            return 0.0

    eng.dispatch_rng = AlwaysController()
    f = Flow(0, k4.hosts[0], k4.hosts[15], ELEPHANT, 10e6, 0.0, None)
    d = dispatch(eng, f, SchedulerKind("hybrid"))
    assert d.mechanism == MECH_CONTROLLER
    from fatflow.schedulers import path_views
    want = select_lexicographic(path_views(eng, k4.equal_cost_paths(f.src, f.dst)))
    assert d.path == want


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


def test_scheduler_kind_validation():
    with pytest.raises(SchedulerError, match="^name must be one of "):
        SchedulerKind("sieve")
    with pytest.raises(SchedulerError):
        SchedulerKind("hybrid", alpha=-1.0)
    with pytest.raises(SchedulerError):
        SchedulerKind("hedera", elephant_threshold=0.0)
