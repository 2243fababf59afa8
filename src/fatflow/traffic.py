"""Seeded synthetic workload generation: elephant flows plus mice probe streams.

Everything here is a pure function of (topology, spec); equal seeds give
byte-identical flow lists.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

from .rules import COUNT, NON_NEGATIVE, POSITIVE, one_of
from .topology import NodeId, Topology

ELEPHANT = "elephant"
MICE = "mice"

# probe streams only sample loss and delay; this demand is ignored by the
# rate allocator but must stay > 0 and far below any elephant demand
MICE_DEMAND = 1_000.0

PATTERNS = ("random_bisection", "random_permutation", "stride")
PATTERN = one_of(PATTERNS)


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
    pattern: str = "random_bisection"
    elephant_count: int = 8
    seed: int = 0
    mean_arrival_rate: float = 4.0  # flows/second
    elephant_demand: float = 10_000_000.0  # bits/second
    flow_duration: Optional[float] = None  # None = until horizon
    mice_probe_interval: Optional[float] = None  # None = no mice streams

    def validate(self) -> None:
        for name, rule in (("pattern", PATTERN), ("elephant_count", COUNT),
                           ("mean_arrival_rate", POSITIVE),
                           ("elephant_demand", POSITIVE)):
            rule.check(name, getattr(self, name), WorkloadError)
        for name, rule in (("mice_probe_interval", POSITIVE),
                           ("flow_duration", NON_NEGATIVE)):
            if getattr(self, name) is not None:
                rule.check(name, getattr(self, name), WorkloadError)


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
    spec.validate()
    hosts = list(topo.hosts)
    if len(hosts) < 2:
        raise WorkloadError("topology needs at least 2 hosts")

    rng = random.Random(f"{spec.seed}/workload")
    pairs: list[tuple[NodeId, NodeId]] = []

    if spec.pattern == "random_bisection":
        left, right = bisection_halves(topo)
        if not left or not right:
            raise WorkloadError("bisection pattern needs hosts in both pod halves")
        for _ in range(spec.elephant_count):
            # direction coin first, then endpoints uniform within each half,
            # so both access directions see the same expected load
            a, b = (left, right) if rng.random() < 0.5 else (right, left)
            pairs.append((rng.choice(a), rng.choice(b)))
    elif spec.pattern == "random_permutation":
        if spec.elephant_count > len(hosts):
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
        for src in srcs[: spec.elephant_count]:
            pairs.append((src, dst_of[src]))
    else:  # stride
        n = len(hosts)
        for i in range(spec.elephant_count):
            src = hosts[i % n]
            pairs.append((src, hosts[(i % n + n // 2) % n]))

    flows: list[Flow] = []
    t = 0.0
    fid = 0
    for src, dst in pairs:
        t += rng.expovariate(spec.mean_arrival_rate)
        flows.append(Flow(fid, src, dst, ELEPHANT, spec.elephant_demand,
                          t, spec.flow_duration))
        fid += 1
        if spec.mice_probe_interval is not None:
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
