"""Seeded synthetic workload generation: elephant flows plus mice probe streams.

Everything here is a pure function of (topology, spec); equal seeds give
byte-identical flow lists.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

from .rules import COUNT, NON_NEGATIVE, POSITIVE, check_fields, one_of, setting
from .topology import NodeId, Topology

ELEPHANT = "elephant"
MICE = "mice"

# probe streams only sample loss and delay; this demand is ignored by the
# rate allocator but must stay > 0 and far below any elephant demand
MICE_DEMAND = 1_000.0

PATTERNS = ("random_bisection", "random_permutation", "stride")


class WorkloadError(ValueError):
    pass


@dataclass(frozen=True)
class Flow:
    """A flow's spec; the engine keeps its run state apart (`Engine.active`)."""

    id: int
    src: NodeId
    dst: NodeId
    kind: str  # ELEPHANT or MICE
    demand: float  # bits/second offered
    start_time: float
    duration: Optional[float]  # None = until the end of the experiment

    @property
    def is_elephant(self) -> bool:
        return self.kind == ELEPHANT


@dataclass(frozen=True)
class WorkloadSpec:
    """What `generate_workload` emits. Each field but `seed` is also an
    `ExperimentConfig` field, declared here; the defaults are the benchmark's."""

    pattern: str = setting("random_bisection", "traffic pattern",
                           one_of(PATTERNS))
    elephants: int = setting(28, "elephant flows per run", COUNT)
    seed: int = 0
    arrival_rate: float = setting(2.0, "flow arrivals per second", POSITIVE)
    flow_duration: Optional[float] = setting(
        None, "per-flow lifetime in seconds, or `none` until the horizon",
        NON_NEGATIVE.or_none())
    demand: Optional[float] = setting(
        5.5e6, "elephant demand in bits/s, or `none` for the link capacity",
        POSITIVE.or_none())
    probe_interval: Optional[float] = setting(
        1.0, "mice probe period in seconds, or `none` for no mice",
        POSITIVE.or_none())

    def __post_init__(self) -> None:
        check_fields(self, WorkloadError)


def bisection_halves(topo: Topology) -> tuple[list[NodeId], list[NodeId]]:
    """Hosts split by pod: pods [0, k/2) vs [k/2, k)."""
    cut = topo.k // 2
    left = [h for h in topo.hosts if h.pod < cut]
    right = [h for h in topo.hosts if h.pod >= cut]
    return left, right


def crosses_bisection(topo: Topology, src: NodeId, dst: NodeId) -> bool:
    cut = topo.k // 2
    return (src.pod < cut) != (dst.pod < cut)


def generate_workload(topo: Topology, spec: WorkloadSpec) -> list[Flow]:
    """Emit elephants (and their accompanying mice streams) in arrival order.

    random_bisection: src uniform over all hosts, dst uniform over the
    opposite pod-half. random_permutation: pairs from a fixed-point-free
    random permutation of the hosts. stride: dst is half the hosts after
    src, round-robin over sources.
    """
    hosts = list(topo.hosts)
    if len(hosts) < 2:
        raise WorkloadError("topology needs at least 2 hosts")

    rng = random.Random(f"{spec.seed}/workload")
    pairs: list[tuple[NodeId, NodeId]] = []

    if spec.pattern == "random_bisection":
        left, right = bisection_halves(topo)
        if not left or not right:
            raise WorkloadError("bisection pattern needs hosts in both pod halves")
        for _ in range(spec.elephants):
            # direction coin first, then endpoints uniform within each half,
            # so both access directions see the same expected load
            a, b = (left, right) if rng.random() < 0.5 else (right, left)
            pairs.append((rng.choice(a), rng.choice(b)))
    elif spec.pattern == "random_permutation":
        if spec.elephants > len(hosts):
            raise WorkloadError(
                f"permutation pattern supports at most {len(hosts)} flows")
        perm = hosts[:]
        rng.shuffle(perm)
        # swap away fixed points so src != dst everywhere; a swap never
        # creates a new fixed point because no host can occupy two slots
        for i in range(len(perm)):
            if perm[i] == hosts[i]:
                j = (i + 1) % len(perm)
                perm[i], perm[j] = perm[j], perm[i]
        srcs = hosts[:]
        rng.shuffle(srcs)
        dst_of = dict(zip(hosts, perm))
        for src in srcs[: spec.elephants]:
            pairs.append((src, dst_of[src]))
    else:  # stride
        n = len(hosts)
        for i in range(spec.elephants):
            src = hosts[i % n]
            pairs.append((src, hosts[(i % n + n // 2) % n]))

    demand = topo.link_capacity if spec.demand is None else spec.demand
    flows: list[Flow] = []
    t = 0.0
    fid = 0
    for src, dst in pairs:
        t += rng.expovariate(spec.arrival_rate)
        flows.append(Flow(fid, src, dst, ELEPHANT, demand, t,
                          spec.flow_duration))
        fid += 1
        if spec.probe_interval is not None:
            flows.append(Flow(fid, src, dst, MICE, MICE_DEMAND,
                              t, spec.flow_duration))
            fid += 1
    return flows


def probe_schedule(flow: Flow, horizon: float, interval: float) -> list[float]:
    """Evenly spaced probe emission times for a mice stream.

    Emissions run from start_time to start_time + duration at `interval`;
    a duration of 0 emits a single probe. Flows with open-ended duration
    probe until the horizon.
    """
    if flow.kind != MICE:
        raise WorkloadError("probe_schedule applies to mice flows only")
    POSITIVE.check("probe interval", interval, WorkloadError)
    end = horizon if flow.duration is None else flow.start_time + flow.duration
    return even_times(flow.start_time, min(end, horizon), interval)


def even_times(start: float, end: float, interval: float) -> list[float]:
    """`start`, then every `interval` up to `end`. Each time is start +
    i * interval, not a running sum, so it cannot drift, and is clamped to
    `end`, so a last time that rounds a few ulps past it stays inside."""
    span = max(0.0, end - start)
    # guard the floor against float noise (5 / 0.2 -> 24.999...)
    count = int(math.floor(span / interval + 1e-9)) + 1
    return [start] + [min(start + i * interval, end) for i in range(1, count)]
