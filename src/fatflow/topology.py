"""k-ary fat-tree topology builder and equal-cost path enumeration.

Links are modeled as unidirectional pairs so upstream and downstream loads
can be tracked separately. Node numbering is deterministic (pods ascending,
indices ascending), which makes path enumeration and every tie-break
downstream of it reproducible.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from typing import Optional

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


@dataclass(frozen=True)
class NodeId:
    """A switch or host, identified by (tier, pod, index).

    Core switches carry no pod (index is global); edge/aggregate switches and
    hosts are indexed within their pod. The single hub switch of a star
    topology also carries no pod.
    """

    tier: str  # HOST, EDGE, AGG or CORE
    pod: Optional[int]
    index: int

    def __post_init__(self):
        # the dataclass hash, computed once for the many table lookups
        object.__setattr__(self, "_hash", hash((self.tier, self.pod, self.index)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt, not copied: another process may hash strings differently
        return NodeId, (self.tier, self.pod, self.index)

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

    @functools.cached_property
    def link_ids(self) -> tuple[int, ...]:
        return tuple(l.id for l in self.hops)

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
        # (src, dst) -> its equal-cost paths, built on first request
        self._paths: dict[tuple[NodeId, NodeId], tuple[Path, ...]] = {}

    # -- queries ------------------------------------------------------------

    def host_number(self, host: NodeId) -> int:
        """Global host index in [0, k^3/4), stable across builds."""
        per_pod = (self.k // 2) ** 2
        if host.pod is None:
            return host.index
        return host.pod * per_pod + host.index

    def equal_cost_paths(self, src: NodeId, dst: NodeId) -> list[Path]:
        """All shortest paths from host `src` to host `dst`, canonically ordered.

        Each pair's paths are built once; every call returns a new list of
        the same (immutable) `Path` objects.
        """
        paths = self._paths.get((src, dst))
        if paths is None:
            paths = self._paths[(src, dst)] = tuple(self._build_paths(src, dst))
        return list(paths)

    def _build_paths(self, src: NodeId, dst: NodeId) -> list[Path]:
        if src == dst:
            raise TopologyError("src and dst must differ")
        first = self._access_up.get(src)
        last = self._access_down.get(dst)
        for h, access in ((src, first), (dst, last)):
            if access is None:
                raise TopologyError(f"unknown host {h!r}")
        e_src, e_dst = first.dst, last.src
        if e_src == e_dst:
            return [Path((first, last), None, None)]

        up, down = self._up, self._down
        # aggregate j of the destination pod -> the destination edge switch
        into_dst = [down[l.dst][e_dst.index] for l in up[e_dst]]
        if src.pod == dst.pod:
            # one path per aggregate switch of the pod
            return [Path((first, l1, l4, last), j, None)
                    for j, (l1, l4) in enumerate(zip(up[e_src], into_dst))]
        # one path per core switch, via the aggregate switch j it hangs off
        paths = []
        for j, l1 in enumerate(up[e_src]):
            for l2 in up[l1.dst]:
                l3 = down[l2.dst][dst.pod]
                hops = (first, l1, l2, l3, into_dst[j], last)
                paths.append(Path(hops, j, l2.dst.index))
        return paths

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
