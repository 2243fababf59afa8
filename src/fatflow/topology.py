"""k-ary fat-tree topology builder and equal-cost path enumeration.

Links are modeled as unidirectional pairs so upstream and downstream loads
can be tracked separately. Node numbering is deterministic (pods ascending,
indices ascending), which makes path enumeration and every tie-break
downstream of it reproducible.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional, Sequence

from .rules import EVEN_K, POSITIVE

# NodeId tiers
HOST = "host"
EDGE = "edge"
AGG = "agg"
CORE = "core"


class LinkKind(Enum):
    HOST_EDGE = "host-edge"
    EDGE_AGG = "edge-agg"
    AGG_CORE = "agg-core"


class TopologyError(ValueError):
    pass


class NodeId(NamedTuple):
    """A switch or host, identified by (tier, pod, index).

    Core switches carry no pod (index is global); edge/aggregate switches and
    hosts are indexed within their pod. The single hub switch of a star
    topology also carries no pod. As a tuple it hashes and compares in C.
    """

    tier: str  # HOST, EDGE, AGG or CORE
    pod: Optional[int]
    index: int  # shadows `tuple.index`, which nothing calls

    @property
    def label(self) -> str:
        if self.pod is None:
            return f"{self.tier}{self.index}"
        return f"{self.tier}{self.pod}_{self.index}"

    def __repr__(self) -> str:
        return self.label


@dataclass(frozen=True)
class Link:
    """One direction of a cable. `up` means toward the core."""

    id: int
    src: NodeId
    dst: NodeId
    capacity: float  # bits/second
    kind: LinkKind
    up: bool

    def __repr__(self) -> str:
        arrow = "^" if self.up else "v"
        return f"{self.src.label}->{self.dst.label}{arrow}"


@dataclass(frozen=True)
class Path:
    """A simple host-to-host walk, as an ordered tuple of directed links.

    `agg_index` / `core_index` identify the upstream aggregate / core switch
    the path climbs through (None where the path never reaches that tier).
    They define the canonical path order: ascending aggregate index, then
    core index.
    """

    hops: tuple[Link, ...]
    agg_index: Optional[int]
    core_index: Optional[int]
    link_ids: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "link_ids", tuple(l.id for l in self.hops))

    @functools.cached_property
    def uplink_id(self) -> Optional[int]:
        """The aggregate-to-core upstream link's id, None below the core."""
        for l in self.hops:
            if l.kind == LinkKind.AGG_CORE and l.up:
                return l.id
        return None

    @property
    def nodes(self) -> tuple[NodeId, ...]:
        return (self.hops[0].src,) + tuple(l.dst for l in self.hops)

    @property
    def sort_key(self) -> tuple[int, int, int]:
        return (
            len(self.hops),
            -1 if self.agg_index is None else self.agg_index,
            -1 if self.core_index is None else self.core_index,
        )

    def __repr__(self) -> str:
        return "->".join(n.label for n in self.nodes)


class Topology:
    """Immutable network graph with host/switch inventories and link indexes.

    `layout` is "fat-tree" or "star" (the non-blocking baseline: every host
    hangs off one hub switch).
    """

    def __init__(self, k: int, link_capacity: float, layout: str,
                 nodes: list[NodeId], links: list[Link]):
        self.k = k
        self.link_capacity = link_capacity
        self.layout = layout
        self.nodes = tuple(nodes)
        self.links = tuple(links)
        # checked once here, not by each run; the walk only on failure
        if not all(map(POSITIVE.passes, (l.capacity for l in self.links))):
            for l in self.links:
                POSITIVE.check(f"link {l.id}: capacity", l.capacity,
                               TopologyError)

        self.hosts = tuple(n for n in self.nodes if n.tier == HOST)
        self.edge_switches = tuple(n for n in self.nodes if n.tier == EDGE)
        self.agg_switches = tuple(n for n in self.nodes if n.tier == AGG)
        self.core_switches = tuple(n for n in self.nodes if n.tier == CORE)
        self.switches = self.edge_switches + self.agg_switches + self.core_switches

        link_by_pair = {(l.src, l.dst): l for l in self.links}
        # reverse_ids[i] = id of the opposite-direction link of link i
        self.reverse_ids = tuple(
            link_by_pair[(l.dst, l.src)].id for l in self.links
        )
        self.agg_upstream_link_ids = tuple(
            l.id for l in self.links if l.kind == LinkKind.AGG_CORE and l.up
        )
        # what the utilization CDF ranges over: switch-to-switch links on the
        # fat-tree; the star has none, so its access links stand in
        self.monitored_link_ids = tuple(
            l.id for l in self.links if l.kind != LinkKind.HOST_EDGE
        ) or tuple(l.id for l in self.links)

        # per-node link tables: each host's access link up and down, each
        # switch's links up and down, in link-id order, which is the far
        # end's index order (pod order at a core)
        self._access_up: dict[NodeId, Link] = {}
        self._access_down: dict[NodeId, Link] = {}
        self._up: dict[NodeId, list[Link]] = {}
        self._down: dict[NodeId, list[Link]] = {}
        for l in self.links:
            if l.src.tier == HOST:
                self._access_up[l.src] = l
                continue
            if l.dst.tier == HOST:
                self._access_down[l.dst] = l
            (self._up if l.up else self._down).setdefault(l.src, []).append(l)
        self.ports_per_switch = {
            n: len(self._up.get(n, ())) + len(self._down.get(n, ()))
            for n in self.switches}
        self.total_switch_ports = sum(self.ports_per_switch.values())
        # (src, dst, rank) -> that candidate's Path, built on first request
        self._path_memo: dict[tuple[NodeId, NodeId, int], Path] = {}

    # -- queries ------------------------------------------------------------

    def host_number(self, host: NodeId) -> int:
        """Global host index in [0, k^3/4), stable across builds."""
        per_pod = (self.k // 2) ** 2
        if host.pod is None:
            return host.index
        return host.pod * per_pod + host.index

    # A pair's equal-cost candidates are numbered by rank in canonical
    # (`Path.sort_key`) order. An inter-pod candidate of rank j * M + m,
    # where M is an aggregate's up-link count, climbs the source edge's up
    # link j and that aggregate's up link m. Every candidate of a pair has
    # the same hop count.

    def _pair(self, src: NodeId, dst: NodeId) -> tuple[Link, Link, int]:
        """`src`'s access link up, `dst`'s access link down, and the number
        of candidates between them."""
        if src == dst:
            raise TopologyError("src and dst must differ")
        first = self._access_up.get(src)
        last = self._access_down.get(dst)
        for h, access in ((src, first), (dst, last)):
            if access is None:
                raise TopologyError(f"unknown host {h!r}")
        if first.dst == last.src:
            return first, last, 1
        ups = self._up[first.dst]
        if src.pod == dst.pod:
            return first, last, len(ups)
        return first, last, len(ups) * len(self._up[ups[0].dst])

    def candidate_count(self, src: NodeId, dst: NodeId) -> int:
        """The number of shortest paths from host `src` to host `dst`."""
        return self._pair(src, dst)[2]

    def candidate_loads(self, src: NodeId, dst: NodeId, residual: Sequence[float],
                        elephants: Sequence[int]) -> list[tuple[float, int]]:
        """(min residual, uplink elephants) of each candidate, by rank.

        `residual` and `elephants` are indexed by link id. The minimum is
        taken over the candidate's links in path order, so it is bit for bit
        `min(residual[i] for i in path.link_ids)`; the elephants are those on
        its aggregate-to-core upstream link, 0 for a path below the core.
        """
        first, last, _ = self._pair(src, dst)
        e_src, e_dst = first.dst, last.src
        r_first, r_last = residual[first.id], residual[last.id]
        if e_src == e_dst:
            return [(min(r_first, r_last), 0)]
        up, down, i = self._up, self._down, e_dst.index
        if src.pod == dst.pod:
            return [(min(r_first, residual[l1.id],
                         residual[down[l1.dst][i].id], r_last), 0)
                    for l1 in up[e_src]]
        pod = dst.pod
        loads = []
        # the per-j parts before and after the two core links; min keeps the
        # first of equal values (+0.0, -0.0), and taking each part and then
        # the whole in path order keeps the one a scan of the path keeps
        for l1, into in zip(up[e_src], up[e_dst]):
            head = min(r_first, residual[l1.id])
            tail = min(residual[down[into.dst][i].id], r_last)
            for l2 in up[l1.dst]:
                uplink = l2.id
                loads.append((min(head, residual[uplink],
                                  residual[down[l2.dst][pod].id], tail),
                              elephants[uplink]))
        return loads

    def path_at(self, src: NodeId, dst: NodeId, rank: int) -> Path:
        """The candidate of rank `rank` from `src` to `dst`.

        Built on first request and kept, so every call returns the same
        (immutable) `Path` object.
        """
        key = (src, dst, rank)
        path = self._path_memo.get(key)
        if path is None:
            path = self._path_memo[key] = self._build_path(src, dst, rank)
        return path

    def _build_path(self, src: NodeId, dst: NodeId, rank: int) -> Path:
        first, last, count = self._pair(src, dst)
        if not 0 <= rank < count:
            raise TopologyError(
                f"rank must be in [0, {count}) for {src!r}->{dst!r}, got {rank!r}")
        e_dst = last.src
        if first.dst == e_dst:
            return Path((first, last), None, None)
        up, down = self._up, self._down
        if src.pod == dst.pod:
            # one path per aggregate switch of the pod
            l1 = up[first.dst][rank]
            return Path((first, l1, down[l1.dst][e_dst.index], last), rank, None)
        # one path per core switch, via the aggregate switch j it hangs off
        j, m = divmod(rank, count // len(up[first.dst]))
        l1 = up[first.dst][j]
        l2 = up[l1.dst][m]
        l3 = down[l2.dst][dst.pod]
        hops = (first, l1, l2, l3, down[l3.dst][e_dst.index], last)
        return Path(hops, j, l2.dst.index)

    def equal_cost_paths(self, src: NodeId, dst: NodeId) -> list[Path]:
        """All shortest paths from host `src` to host `dst`, canonically ordered.

        Every call returns a new list of the same (immutable) `Path` objects.
        """
        return [self.path_at(src, dst, r)
                for r in range(self.candidate_count(src, dst))]

    def aggregate_upstream_links(self) -> tuple[Link, ...]:
        """The aggregate-to-core upstream links, ordered by link id."""
        return tuple(self.links[i] for i in self.agg_upstream_link_ids)

    def edge_uplink_ids(self, edge: NodeId) -> tuple[int, ...]:
        """Ids of an edge switch's upstream links; () for any other node."""
        if edge.tier != EDGE:
            return ()
        return tuple(l.id for l in self._up.get(edge, ()))

    def agg_inlink_ids(self, agg: NodeId) -> tuple[int, ...]:
        """Ids of the edge-to-aggregate links into `agg`; () for others."""
        if agg.tier != AGG:
            return ()
        return tuple(self.reverse_ids[l.id] for l in self._down.get(agg, ()))


def _check_args(k: int, link_capacity: float) -> None:
    EVEN_K.check("k", k, TopologyError)
    POSITIVE.check("link_capacity", link_capacity, TopologyError)


def build_fat_tree(k: int, link_capacity: float) -> Topology:
    """Build a k-ary fat-tree: (k/2)^2 cores, k pods of k/2 edge and k/2
    aggregate switches, k/2 hosts per edge switch, every link at
    `link_capacity` bits/second in each direction."""
    _check_args(k, link_capacity)

    half = k // 2
    nodes: list[NodeId] = []
    links: list[Link] = []

    cores = [NodeId(CORE, None, c) for c in range(half * half)]
    nodes.extend(cores)

    def add_pair(a: NodeId, b: NodeId, kind: LinkKind) -> None:
        # a is the lower-tier endpoint; a->b is the upstream direction
        links.append(Link(len(links), a, b, link_capacity, kind, True))
        links.append(Link(len(links), b, a, link_capacity, kind, False))

    for pod in range(k):
        edges = [NodeId(EDGE, pod, i) for i in range(half)]
        aggs = [NodeId(AGG, pod, j) for j in range(half)]
        nodes.extend(edges)
        nodes.extend(aggs)
        for i, e in enumerate(edges):
            for h in range(half):
                host = NodeId(HOST, pod, i * half + h)
                nodes.append(host)
                add_pair(host, e, LinkKind.HOST_EDGE)
            for a in aggs:
                add_pair(e, a, LinkKind.EDGE_AGG)
        for j, a in enumerate(aggs):
            # aggregate j reaches cores [j*half, (j+1)*half)
            for m in range(half):
                add_pair(a, cores[j * half + m], LinkKind.AGG_CORE)

    return Topology(k, link_capacity, "fat-tree", nodes, links)


def build_nonblocking(k: int, link_capacity: float) -> Topology:
    """Star baseline for the same host population as build_fat_tree(k):
    every host connects to a single hub switch, so contention can only
    happen on the access links."""
    _check_args(k, link_capacity)

    half = k // 2
    hub = NodeId(EDGE, None, 0)
    nodes: list[NodeId] = [hub]
    links: list[Link] = []
    for pod in range(k):
        for i in range(half * half):
            host = NodeId(HOST, pod, i)
            nodes.append(host)
            links.append(Link(len(links), host, hub, link_capacity,
                              LinkKind.HOST_EDGE, True))
            links.append(Link(len(links), hub, host, link_capacity,
                              LinkKind.HOST_EDGE, False))
    return Topology(k, link_capacity, "star", nodes, links)
