import copy
import dataclasses
import pickle
import random
import struct
from types import SimpleNamespace

import networkx as nx
import pytest

from fatflow.topology import (AGG, CORE, EDGE, HOST, Link, NodeId, Path,
                              TopologyError, build_fat_tree, build_nonblocking)

TIERS = (HOST, EDGE, AGG, CORE)  # bottom to top


def undirected_graph(topo):
    g = nx.Graph()
    for n in topo.nodes:
        g.add_node(n)
    for l in topo.links:
        g.add_edge(l.src, l.dst)
    return g


@pytest.mark.parametrize("k", [2, 4, 6, 8, 10])
def test_node_counts(k):
    t = build_fat_tree(k, 10e6)
    assert len(t.switches) == 5 * k * k // 4
    assert len(t.core_switches) == k * k // 4
    assert len(t.agg_switches) == k * k // 2
    assert len(t.edge_switches) == k * k // 2
    assert len(t.hosts) == k ** 3 // 4


def test_k4_counts_match_paper_testbed():
    t = build_fat_tree(4, 10e6)
    assert len(t.switches) == 20
    assert len(t.hosts) == 16
    assert t.link_capacity == 10e6
    # the topology's one capacity; a link holds none of its own
    assert [f.name for f in dataclasses.fields(Link)] == [
        "id", "src", "dst", "up"]


def test_k2_minimum():
    t = build_fat_tree(2, 1.0)
    assert len(t.switches) == 5
    assert len(t.hosts) == 2


@pytest.mark.parametrize("bad", [1, 3, 5, 0, -2])
def test_rejects_bad_k(bad):
    with pytest.raises(TopologyError):
        build_fat_tree(bad, 10e6)


def test_rejects_bad_capacity():
    with pytest.raises(TopologyError):
        build_fat_tree(4, 0.0)


@pytest.mark.parametrize("build", [build_fat_tree, build_nonblocking])
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_builders_reject_non_finite_capacity(build, bad):
    with pytest.raises(TopologyError, match="^link_capacity must be finite"):
        build(4, bad)


@pytest.mark.parametrize("k", [2, 4, 6])
def test_path_counts(k):
    t = build_fat_tree(k, 10e6)
    hosts = t.hosts
    per_pod = k * k // 4
    inter = t.equal_cost_paths(hosts[0], hosts[-1])
    assert len(inter) == (k // 2) ** 2
    if per_pod > k // 2:
        same_pod = t.equal_cost_paths(hosts[0], hosts[per_pod - 1])
        assert len(same_pod) == k // 2
    if k >= 4:
        same_edge = t.equal_cost_paths(hosts[0], hosts[1])
        assert len(same_edge) == 1
        assert len(same_edge[0].hops) == 2


def test_interpod_paths_have_six_links():
    t = build_fat_tree(4, 10e6)
    for p in t.equal_cost_paths(t.hosts[0], t.hosts[-1]):
        assert len(p.hops) == 6
        assert p.core_index is not None
        tiers = [(l.src.tier, l.dst.tier) for l in p.hops]
        assert tiers == [(HOST, EDGE), (EDGE, AGG), (AGG, CORE),
                         (CORE, AGG), (AGG, EDGE), (EDGE, HOST)]
        ups = [l.up for l in p.hops]
        assert ups == [True, True, True, False, False, False]


@pytest.mark.parametrize("k", [2, 4, 6])
def test_paths_match_bruteforce_shortest_paths(k):
    t = build_fat_tree(k, 10e6)
    g = undirected_graph(t)
    pairs = [(t.hosts[0], t.hosts[-1]), (t.hosts[0], t.hosts[1])]
    if k >= 4:
        pairs.append((t.hosts[0], t.hosts[2]))
    for src, dst in pairs:
        mine = {p.nodes for p in t.equal_cost_paths(src, dst)}
        oracle = {tuple(p) for p in nx.all_shortest_paths(g, src, dst)}
        assert mine == oracle


def test_path_walks_are_connected_and_simple():
    t = build_fat_tree(6, 10e6)
    for p in t.equal_cost_paths(t.hosts[0], t.hosts[-1]):
        nodes = p.nodes
        assert len(set(nodes)) == len(nodes)
        for l, (a, b) in zip(p.hops, zip(nodes, nodes[1:])):
            assert (l.src, l.dst) == (a, b)


def test_path_ordering_by_agg_then_core():
    t = build_fat_tree(6, 10e6)
    paths = t.equal_cost_paths(t.hosts[0], t.hosts[-1])
    keys = [(p.agg_index, p.core_index) for p in paths]
    assert keys == sorted(keys)


@pytest.mark.parametrize("k,expected", [(2, 2), (4, 16), (6, 54)])
def test_aggregate_upstream_link_count(k, expected):
    t = build_fat_tree(k, 10e6)
    ups = t.agg_upstream_link_ids
    assert len(ups) == expected == k ** 3 // 4
    assert list(ups) == sorted(ups)
    for l in (t.links[i] for i in ups):
        assert l.up
        assert l.src.tier == AGG
        assert l.dst.tier == CORE


def test_edge_agg_links_stay_in_pod():
    t = build_fat_tree(4, 10e6)
    for l in t.links:
        if {l.src.tier, l.dst.tier} == {EDGE, AGG}:
            assert l.src.pod == l.dst.pod


def test_reverse_link_index():
    t = build_fat_tree(4, 10e6)
    for l in t.links:
        rev = t.links[t.reverse_ids[l.id]]
        assert (rev.src, rev.dst) == (l.dst, l.src)


def test_build_is_deterministic():
    a = build_fat_tree(4, 10e6)
    b = build_fat_tree(4, 10e6)
    assert a.nodes == b.nodes
    assert a.links == b.links
    pa = a.equal_cost_paths(a.hosts[2], a.hosts[13])
    pb = b.equal_cost_paths(b.hosts[2], b.hosts[13])
    assert [p.nodes for p in pa] == [p.nodes for p in pb]
    assert pa == a.equal_cost_paths(a.hosts[2], a.hosts[13])


def test_unknown_host_rejected():
    t = build_fat_tree(4, 10e6)
    with pytest.raises(TopologyError):
        t.equal_cost_paths(t.hosts[0], t.switches[0])
    with pytest.raises(TopologyError):
        t.equal_cost_paths(t.hosts[0], t.hosts[0])


def test_ports_per_switch():
    t = build_fat_tree(4, 10e6)
    # a switch's ports are the links it sends on: k of them per switch
    ports = dict.fromkeys(t.switches, 0)
    for l in t.links:
        if l.src.tier != HOST:
            ports[l.src] += 1
    assert set(ports.values()) == {4}
    assert t.total_switch_ports == sum(ports.values()) == 80


@pytest.mark.parametrize("build,k", [(build_fat_tree, 2), (build_fat_tree, 4),
                                     (build_fat_tree, 6), (build_fat_tree, 8),
                                     (build_nonblocking, 4)])
def test_link_classes_read_off_the_endpoints_in_closed_form(build, k):
    t = build(k, 10e6)
    star = t.layout == "star"
    ups = [l for l in t.links if l.src.tier == AGG and l.dst.tier == CORE]
    assert t.agg_upstream_link_ids == tuple(l.id for l in ups)
    assert len(ups) == (0 if star else k ** 3 // 4)
    assert len(t.monitored_link_ids) == (k ** 3 // 2 if star else k ** 3)
    assert t.monitored_link_ids == tuple(
        l.id for l in t.links if star or HOST not in (l.src.tier, l.dst.tier))
    assert t.total_switch_ports == (k ** 3 // 4 if star else 5 * k ** 3 // 4)
    for l in t.links:
        # every link joins two adjacent tiers, and `up` climbs
        lo, hi = sorted((TIERS.index(l.src.tier), TIERS.index(l.dst.tier)))
        assert hi - lo == 1
        assert l.up == (TIERS.index(l.dst.tier) == hi)


def test_star_topology():
    t = build_nonblocking(4, 10e6)
    assert t.layout == "star"
    assert len(t.hosts) == 16
    assert len(t.switches) == 1
    ft = build_fat_tree(4, 10e6)
    assert t.hosts == ft.hosts  # same host population, by construction
    paths = t.equal_cost_paths(t.hosts[0], t.hosts[9])
    assert len(paths) == 1
    assert len(paths[0].hops) == 2
    assert t.monitored_link_ids == tuple(l.id for l in t.links)


@pytest.mark.parametrize("build,k", [(build_fat_tree, 2), (build_fat_tree, 4),
                                     (build_fat_tree, 6), (build_fat_tree, 8),
                                     (build_nonblocking, 4)])
def test_switch_link_indexes_match_a_link_scan(build, k):
    t = build(k, 10e6)
    edge_agg_up = [l for l in t.links
                   if (l.src.tier, l.dst.tier) == (EDGE, AGG)]
    for node in t.nodes:
        assert t.edge_uplink_ids(node) == tuple(
            l.id for l in edge_agg_up if l.src == node)
        assert t.agg_inlink_ids(node) == tuple(
            l.id for l in edge_agg_up if l.dst == node)


def test_equal_cost_paths_are_built_once_per_pair():
    t = build_fat_tree(4, 10e6)
    src, dst = t.hosts[0], t.hosts[-1]
    first = t.equal_cost_paths(src, dst)
    want = list(first)
    again = t.equal_cost_paths(src, dst)
    assert again == want
    assert all(a is b for a, b in zip(want, again))
    # each call hands out its own list
    first.reverse()
    first.append(first[0])
    assert t.equal_cost_paths(src, dst) == want
    assert t.equal_cost_paths(dst, src) != want


def test_bad_path_queries_raise_on_every_call():
    t = build_fat_tree(4, 10e6)
    for _ in range(2):
        with pytest.raises(TopologyError, match="unknown host"):
            t.equal_cost_paths(t.hosts[0], t.switches[0])
        with pytest.raises(TopologyError, match="must differ"):
            t.equal_cost_paths(t.hosts[3], t.hosts[3])


# -- path enumeration pinned against the NodeId-lookup version it replaced ---

def reference_paths(topo):
    """The previous `Topology._build_paths` over `topo`, verbatim but for
    its helpers: `link` and `host_edge_switch` were methods reading the
    `_link_by_pair` and `_host_set` attributes the topology no longer keeps."""
    link_by_pair = {(l.src, l.dst): l for l in topo.links}
    host_set = set(topo.hosts)

    def link(src, dst):
        return link_by_pair[(src, dst)]

    def host_edge_switch(host):
        if host not in host_set:
            raise TopologyError(f"unknown host {host!r}")
        if topo.layout == "star":
            return topo.edge_switches[0]
        return NodeId(EDGE, host.pod, host.index // (topo.k // 2))

    def build_paths(src, dst):
        if src == dst:
            raise TopologyError("src and dst must differ")
        for h in (src, dst):
            if h not in host_set:
                raise TopologyError(f"unknown host {h!r}")

        e_src = host_edge_switch(src)
        e_dst = host_edge_switch(dst)
        first = link(src, e_src)
        last = link(e_dst, dst)

        if e_src == e_dst:
            return [Path((first, last), None, None)]

        half = topo.k // 2
        paths = []
        if src.pod == dst.pod:
            # one path per aggregate switch of the pod
            for j in range(half):
                agg = NodeId(AGG, src.pod, j)
                hops = (first, link(e_src, agg), link(agg, e_dst), last)
                paths.append(Path(hops, j, None))
        else:
            # one path per core switch; core c attaches to aggregate c // half
            for c in range(half * half):
                j = c // half
                agg_s = NodeId(AGG, src.pod, j)
                agg_d = NodeId(AGG, dst.pod, j)
                core = NodeId(CORE, None, c)
                hops = (
                    first,
                    link(e_src, agg_s),
                    link(agg_s, core),
                    link(core, agg_d),
                    link(agg_d, e_dst),
                    last,
                )
                paths.append(Path(hops, j, c))
        return paths

    return build_paths


@pytest.mark.parametrize("build,k", [(build_fat_tree, 2), (build_fat_tree, 4),
                                     (build_fat_tree, 6), (build_fat_tree, 8),
                                     (build_nonblocking, 4)])
def test_paths_match_the_reference_for_every_pair(build, k):
    t = build(k, 10e6)
    reference = reference_paths(t)
    pairs = 0
    for src in t.hosts:
        for dst in t.hosts:
            if src == dst:
                continue
            want = reference(src, dst)
            got = t.equal_cost_paths(src, dst)
            assert [(p.agg_index, p.core_index) for p in got] == \
                [(p.agg_index, p.core_index) for p in want]
            for p, q in zip(got, want):
                assert len(p.hops) == len(q.hops)
                assert all(a is b for a, b in zip(p.hops, q.hops))
            pairs += 1
    assert pairs == len(t.hosts) * (len(t.hosts) - 1)


def test_node_id_hash_is_the_field_tuple_hash_and_survives_pickling():
    for n in build_fat_tree(4, 10e6).nodes:
        assert hash(n) == hash((n.tier, n.pod, n.index))
        for twin in (pickle.loads(pickle.dumps(n)), copy.deepcopy(n)):
            assert twin == n and hash(twin) == hash(n)
            assert twin.label == n.label


def test_node_ids_of_two_builds_are_equal_hash_equal_and_immutable():
    first, second = build_fat_tree(4, 10e6), build_fat_tree(4, 10e6)
    for a, b in zip(first.nodes, second.nodes):
        assert a == b and a is not b and hash(a) == hash(b)
        assert a == (a.tier, a.pod, a.index)
        for name in ("tier", "pod", "index"):
            with pytest.raises(AttributeError):
                setattr(a, name, None)
    # a node of one build finds its entry in another build's tables
    assert set(first.nodes) == set(second.nodes)
    assert [second.host_number(h) for h in first.hosts] == \
        list(range(len(first.hosts)))


# -- the per-rank reads that dispatch uses, against the materialised paths ---

def bits(x):
    return struct.pack("<d", x)


def scanned_uplink(path):
    up = [l.id for l in path.hops
          if (l.src.tier, l.dst.tier) == (AGG, CORE)]
    assert len(up) <= 1
    return up[0] if up else None


def scanned_loads(state, paths):
    """Each path's least polled residual and the polled elephants on its
    aggregate-to-core up link (0 below the core), read off its own links."""
    loads = []
    for p in paths:
        uplink = scanned_uplink(p)
        loads.append((min(state.polled_residual[lid] for lid in p.link_ids),
                      0 if uplink is None else state.polled_elephants[uplink]))
    return loads


def random_link_state(topo, rng):
    # few distinct values, so equal minima (+0.0 next to -0.0 among them)
    # are common, plus arbitrary floats
    values = [0.0, -0.0, 1e6, 5e6, 5e6, 10e6]
    residual = [rng.choice(values) if rng.random() < 0.5
                else rng.uniform(-1e6, 10e6) for _ in topo.links]
    elephants = [rng.randrange(4) for _ in topo.links]
    return residual, elephants


@pytest.mark.parametrize("build,k", [(build_fat_tree, 2), (build_fat_tree, 4),
                                     (build_fat_tree, 6), (build_fat_tree, 8),
                                     (build_nonblocking, 4)])
def test_candidate_reads_match_the_materialised_paths_for_every_pair(build, k):
    t = build(k, 10e6)
    reference = reference_paths(t)
    rng = random.Random(k)
    state = SimpleNamespace()
    for src in t.hosts:
        state.polled_residual, state.polled_elephants = random_link_state(t, rng)
        for dst in t.hosts:
            if src == dst:
                continue
            want = reference(src, dst)
            count = t.candidate_count(src, dst)
            assert count == len(want)
            got = [t.path_at(src, dst, r) for r in range(count)]
            assert got == want
            for p in got:
                assert p.link_ids == tuple(l.id for l in p.hops)
            # built once: the materialising call hands out the same objects
            assert all(a is b for a, b in zip(t.equal_cost_paths(src, dst), got))
            # what lets dispatch break ties on rank
            assert len({len(p.hops) for p in got}) == 1
            keys = [p.sort_key for p in got]
            assert keys == sorted(set(keys))

            loads = t.candidate_loads(src, dst, state.polled_residual,
                                      state.polled_elephants)
            want = scanned_loads(state, got)
            assert [e for _, e in loads] == [e for _, e in want]
            assert [bits(r) for r, _ in loads] == [bits(r) for r, _ in want]


def test_path_at_rejects_a_rank_outside_the_pair():
    t = build_fat_tree(4, 10e6)
    src, dst = t.hosts[0], t.hosts[-1]
    for rank in (-1, 4):
        with pytest.raises(TopologyError, match=r"rank must be in \[0, 4\)"):
            t.path_at(src, dst, rank)
    with pytest.raises(TopologyError, match="unknown host"):
        t.path_at(src, t.switches[0], 0)
    with pytest.raises(TopologyError, match="must differ"):
        t.candidate_loads(src, src, [0.0] * len(t.links), [0] * len(t.links))
