"""Deterministic flow-level event loop.

One engine instance owns one simulation run: it admits flows, asks the
configured scheduler for paths, re-solves the max-min fair rate allocation on
every elephant arrival and departure, classifies elephants from polled byte
counts, and evaluates mice probes against per-link overload and queuing
state. A re-solve covers only the components of the flow-link graph that
reach the links whose set of elephants changed. Rates only change at those
re-solves, so the time integrals of rates are brought up to date at
arrivals, departures, polls and the horizon, never at probes. Under
`hedera-gff` it also runs Hedera's scheduling round every period and moves
the flows that round places.

All randomness comes from two private streams derived from the run seed, so
identical inputs replay to identical event logs.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from .rules import NON_NEGATIVE, OPEN_FRACTION, POSITIVE, check_fields, setting
from .schedulers import (HEDERA_GFF, MECH_CONTROLLER, SchedulerKind, dispatch,
                         hedera_period_polls, hedera_schedule)
from .topology import Path, Topology
from .traffic import MICE, Flow, crosses_bisection, even_times, probe_schedule


class EngineError(RuntimeError):
    pass


@dataclass(frozen=True)
class EngineParams:
    """Simulator knobs that are not part of the workload."""

    poll_interval: float = setting(1.0, "stats poll period in seconds", POSITIVE)
    detection_threshold: float = setting(
        50_000.0, "elephant classification rate in bits/s", POSITIVE)
    base_hop_latency: float = setting(
        50e-6, "seconds per link traversal", NON_NEGATIVE)
    queuing_scale: float = setting(
        500e-6, "seconds, scales the rho/(1-rho) queuing term", NON_NEGATIVE)
    rho_cap: float = setting(
        0.99, "utilization cap that keeps the queuing term finite",
        OPEN_FRACTION)

    def __post_init__(self) -> None:
        check_fields(self, EngineError)


def waterfill(demands: dict[int, float], paths: dict[int, tuple[int, ...]],
              capacities: dict[int, float]) -> dict[int, float]:
    """Max-min fair rates by progressive filling.

    All flows rise together from zero; each round freezes every flow that
    hits its demand and every flow on the tightest link at that link's fair
    share. A final repair pass nudges rates down by at most a few ulps so
    per-link sums never exceed capacity even in float arithmetic.

    A round only revisits what the last one changed: a link's share is
    recomputed when a flow on it froze, demand-limited flows come off one
    list sorted by demand, and a link that sets the level freezes all of its
    flows, so its member list is read once.

    Demands must be finite and >= 0, and a path lists each link at most
    once; EngineError names the flow otherwise, and the link when a path's
    link has a capacity that is not finite and >= 0. A flow with demand 0
    freezes at 0 in the first round and takes no share of its links.
    """
    for fid, d in demands.items():
        if not 0.0 <= d < math.inf:  # false for NaN too
            raise EngineError(f"waterfill: flow {fid}: demand must be "
                              f"finite and >= 0, got {d!r}")
    rates = dict.fromkeys(demands, 0.0)
    # per link, its flows in flow-id order
    members: dict[int, list[int]] = {}
    for fid in sorted(paths):
        for lid in paths[fid]:
            flows = members.get(lid)
            if flows is None:
                members[lid] = [fid]
            elif flows[-1] == fid:
                raise EngineError(
                    f"waterfill: flow {fid}: path lists link {lid} twice")
            else:
                flows.append(fid)
    for lid in members:
        if not 0.0 <= capacities[lid] < math.inf:  # false for NaN too
            raise EngineError(f"waterfill: link {lid}: capacity must be "
                              f"finite and >= 0, got {capacities[lid]!r}")
    # per link that still carries an unfrozen flow: how many, and the fair
    # share of what is left
    unfrozen = {lid: len(flows) for lid, flows in members.items()}
    shares = {lid: capacities[lid] / n for lid, n in unfrozen.items()}
    frozen_sum = dict.fromkeys(members, 0.0)
    frozen: set[int] = set()
    by_demand = sorted(demands, key=demands.__getitem__)
    first, end = 0, len(by_demand)

    while len(frozen) < end:
        while by_demand[first] in frozen:
            first += 1
        level = min(shares.values(), default=None)
        min_demand = demands[by_demand[first]]
        if level is None or min_demand < level:
            level = min_demand
        elif level < 0.0:
            level = 0.0

        to_freeze = []
        i = first
        while i < end and demands[by_demand[i]] <= level:
            to_freeze.append(by_demand[i])
            i += 1
        for lid, share in shares.items():
            if share <= level:
                to_freeze += members[lid]
        to_freeze = set(to_freeze)
        to_freeze -= frozen
        if not to_freeze:
            # a level that freezes nothing would loop forever; checked
            # inputs never make one, so stop here should one slip through
            raise EngineError(f"waterfill: no flow freezes at level {level!r}")
        frozen |= to_freeze

        touched = set()
        for fid in sorted(to_freeze):
            d = demands[fid]
            v = d if d < level else level
            rates[fid] = v
            path = paths[fid]
            for lid in path:
                frozen_sum[lid] += v
                unfrozen[lid] -= 1
            touched.update(path)
        for lid in touched:
            n = unfrozen[lid]
            if n:
                shares[lid] = (capacities[lid] - frozen_sum[lid]) / n
            else:
                del shares[lid]

    # repair float overshoot: reductions only ever shrink link sums, so one
    # pass in link order suffices. Sums run left to right in flow-id order,
    # as the engine sums `allocated`. The rates are >= 0, so a sum in
    # another order than `frozen_sum`'s is off by far less than 1e-9 of it,
    # and a link that far below capacity needs no repair.
    near = [lid for lid, total in frozen_sum.items()
            if total > capacities[lid] * (1 - 1e-9)]
    for lid in sorted(near):
        flows = members[lid]
        s = 0.0
        for fid in flows:
            s += rates[fid]
        if s > capacities[lid]:
            worst = max(flows, key=lambda fid: (rates[fid], fid))
            rates[worst] = max(0.0, rates[worst] - (s - capacities[lid]))
    return rates


def link_loss_probability(offered: float, capacity: float) -> float:
    """Per-traversal drop probability: the overload fraction of offered load."""
    if offered <= capacity:
        return 0.0
    return 1.0 - capacity / offered


def traversal_delay(rho: float, params: EngineParams) -> float:
    """Per-link delay: propagation plus an M/M/1-flavored queuing term.

    rho is the link's offered-to-capacity ratio (the arrival/service ratio of
    the queue), capped so the term stays finite under overload.
    """
    rho = min(rho, params.rho_cap)
    return params.base_hop_latency + params.queuing_scale * rho / (1.0 - rho)


class FlowState:
    """One admitted flow's run state; `Engine.active` maps its id to this."""

    __slots__ = ("spec", "path", "probe_links", "probe_keep", "probe_rtt",
                 "probe_epoch", "achieved_rate", "bits", "round_bits",
                 "crosses", "classified")

    def __init__(self, spec: Flow, crosses: bool):
        self.spec = spec
        self.path: Path  # set with `probe_links` by `Engine._route`
        self.probe_links: tuple[int, ...] = ()  # forward then reverse ids
        # a probe's survival chance and RTT over `probe_links` as of the
        # engine's re-solve epoch `probe_epoch` (-1: not computed yet)
        self.probe_keep = self.probe_rtt = 0.0
        self.probe_epoch = -1
        self.achieved_rate = 0.0  # bits/s, 0 for a mouse
        self.bits = 0.0  # sent since the last poll
        self.round_bits = 0.0  # sent this Hedera scheduling round
        self.crosses = crosses  # src and dst lie in opposite pod halves
        self.classified = False  # detected as an elephant at a poll


def _check_flows(flows: Sequence[Flow]) -> None:
    """Raise EngineError, naming the flow and the field, on unusable input."""
    ids: set[int] = set()
    duration_rule = NON_NEGATIVE.or_none()
    for f in flows:
        if f.id in ids:
            raise EngineError(f"flow {f.id}: id repeats")
        ids.add(f.id)
        NON_NEGATIVE.check(f"flow {f.id}: start_time", f.start_time,
                           EngineError)
        POSITIVE.check(f"flow {f.id}: demand", f.demand, EngineError)
        duration_rule.check(f"flow {f.id}: duration", f.duration, EngineError)


class Engine:
    """One seeded simulation run over a fixed topology and workload."""

    def __init__(self, topo: Topology, scheduler: SchedulerKind,
                 flows: list[Flow], horizon: float,
                 params: EngineParams = EngineParams(), seed: int = 0,
                 probe_interval: Optional[float] = None,
                 log_events: bool = True):
        POSITIVE.check("horizon", horizon, EngineError)
        POSITIVE.or_none().check("probe_interval", probe_interval, EngineError)
        self.topology = topo
        self.scheduler = scheduler
        self.horizon = horizon
        self.params = params
        self.probe_interval = probe_interval
        self.log_events = log_events
        self.dispatch_rng = random.Random(f"{seed}/dispatch")
        self._probe_rng = random.Random(f"{seed}/probe")

        self.clock = 0.0
        # rates are piecewise constant between arrivals, departures and
        # polls, so the time integrals only catch up at those events
        self._integrated_to = 0.0
        self.active: dict[int, FlowState] = {}
        # the flow-link graph of the routed elephants: each one's state, and
        # the sorted ids of those on each link that carries any
        self._routed: dict[int, FlowState] = {}
        self._link_flows: dict[int, list[int]] = {}
        # the sorted ids of the routed elephants that cross the bisection
        self._crossing: list[int] = []

        nlinks = len(topo.links)
        self._cap = [l.capacity for l in topo.links]
        self.allocated = [0.0] * nlinks
        self.offered = [0.0] * nlinks
        self.elephants = [0] * nlinks
        self.cumulative_elephants = [0] * nlinks
        self._offered_integral = [0.0] * nlinks
        # what a probe sees on each link, refreshed whenever `offered` changes:
        # the chance to survive the traversal and the traversal delay
        self._probe_keep = [1.0] * nlinks
        self._probe_delay = [traversal_delay(0.0, params)] * nlinks
        self._epoch = 0  # re-solves so far; only they move the probe factors
        # what the controller knows: link state as of the last stats poll,
        # which path selection reads instead of live data-plane state
        self.polled_residual = list(self._cap)
        self.polled_elephants = [0] * nlinks

        self.bisection_rate = 0.0
        self.bisection_series: list[tuple[float, float]] = [(0.0, 0.0)]

        self.port_stat_reads = 0
        self.uplink_stat_reads = 0
        self.polls = 0
        self.controller_decisions = 0
        self.proactive_decisions = 0

        # hedera-gff: polls per scheduling round (0 = no rounds), and the
        # link reservations of placed flows
        self._round_polls = (hedera_period_polls(params.poll_interval)
                             if scheduler.name == HEDERA_GFF else 0)
        self.reserved = [0.0] * nlinks
        self.reservations: dict[int, float] = {}
        self.reroutes = 0

        # one entry per processed probe, in event order: its RTT in seconds,
        # or None when it was lost
        self.probe_rtts: list[Optional[float]] = []
        self.util_snapshots: list[tuple[float, ...]] = []
        self.event_log: list[dict] = []  # kept only when `log_events` is on
        self.events_processed = 0

        self._seq = itertools.count()
        self._queue: list[tuple[float, int, str, object]] = []
        _check_flows(flows)
        for f in flows:
            if f.start_time < horizon:
                self._push(f.start_time, "arrival", f)
        for t in even_times(0.0, horizon, params.poll_interval)[1:]:
            self._push(t, "poll", None)

    # -- event machinery ------------------------------------------------------

    def _push(self, t: float, kind: str, payload) -> None:
        heapq.heappush(self._queue, (t, next(self._seq), kind, payload))

    def pending_events(self) -> int:
        return len(self._queue)

    def step(self) -> dict:
        """Process exactly one event in (time, sequence) order and return its
        log record, or only `{"type": kind}` when `log_events` is off."""
        if not self._queue:
            raise EngineError("event queue is empty")
        t, seq, kind, payload = heapq.heappop(self._queue)
        self.events_processed += 1
        self._advance(t)
        if kind != "probe":
            self._integrate()
        if kind == "arrival":
            record = self._on_arrival(payload)
        elif kind == "departure":
            record = self._on_departure(payload)
        elif kind == "probe":
            record = self._on_probe(payload)
        elif kind == "poll":
            record = self._on_poll()
        else:  # pragma: no cover - queue is engine-private
            raise EngineError(f"unknown event kind {kind!r}")
        if record is None:
            return {"type": kind}
        record.update(seq=seq, t=t, type=kind)
        self.event_log.append(record)
        return record

    def run(self) -> "Engine":
        while self._queue and self._queue[0][0] <= self.horizon:
            self.step()
        self._advance(self.horizon)
        self._integrate()
        return self

    def _advance(self, t: float) -> None:
        if t < self.clock:
            raise EngineError("clock must be nondecreasing")
        self.clock = t

    def _integrate(self) -> None:
        """Add each flow's bits and each link's offered load since the last
        integration."""
        dt = self.clock - self._integrated_to
        if dt > 0:
            for st in self._routed.values():
                st.bits += st.achieved_rate * dt
            offered, integral = self.offered, self._offered_integral
            for lid in self._link_flows:
                integral[lid] += offered[lid] * dt
            self._integrated_to = self.clock

    # -- event handlers --------------------------------------------------------

    def _on_arrival(self, flow: Flow) -> Optional[dict]:
        decision = dispatch(self, flow, self.scheduler)
        if decision.mechanism == MECH_CONTROLLER:
            self.controller_decisions += 1
        else:
            self.proactive_decisions += 1
        st = FlowState(flow, crosses_bisection(self.topology, flow.src, flow.dst))
        self._route(st, decision.path)
        self.active[flow.id] = st

        if flow.duration is not None:
            end = flow.start_time + flow.duration
            if end < self.horizon:
                self._push(end, "departure", flow.id)
        if flow.kind == MICE and self.probe_interval is not None:
            for pt in probe_schedule(flow, self.horizon, self.probe_interval):
                self._push(pt, "probe", st)
        self._reallocate_for(st)
        if not self.log_events:
            return None
        return {
            "flow": flow.id,
            "kind": flow.kind,
            "mechanism": decision.mechanism,
            "candidates": decision.candidates_considered,
            "path": repr(st.path),
            "bisection_rate": self.bisection_rate,
        }

    def _on_departure(self, fid: int) -> Optional[dict]:
        if fid not in self.active:
            raise EngineError(f"departure for unknown flow id {fid}")
        st = self.active.pop(fid)
        if st.classified:
            for lid in st.path.link_ids:
                self.elephants[lid] -= 1
        if fid in self.reservations:
            need = self.reservations.pop(fid)
            for lid in st.path.link_ids:
                self.reserved[lid] -= need
        self._reallocate_for(st)
        if not self.log_events:
            return None
        return {"flow": fid, "bisection_rate": self.bisection_rate}

    def _on_probe(self, st: FlowState) -> Optional[dict]:
        if st.probe_epoch != self._epoch:
            links = st.probe_links
            survival = 1.0
            for lid in links:
                survival *= self._probe_keep[lid]
            rtt = 0.0
            for lid in links:
                rtt += self._probe_delay[lid]
            st.probe_keep, st.probe_rtt = survival, rtt
            st.probe_epoch = self._epoch
        # one draw per probe, hit or miss, keeps the random stream in order
        rtt = st.probe_rtt if self._probe_rng.random() < st.probe_keep else None
        self.probe_rtts.append(rtt)
        if not self.log_events:
            return None
        return {"flow": st.spec.id, "delivered": rtt is not None, "rtt": rtt}

    def _on_poll(self) -> Optional[dict]:
        newly = []
        # a mouse sends no bits, so only routed elephants can classify
        for fid in sorted(self._routed):
            st = self._routed[fid]
            if (not st.classified and st.bits / self.params.poll_interval
                    >= self.params.detection_threshold):
                st.classified = True
                newly.append(fid)
                for lid in st.path.link_ids:
                    self.elephants[lid] += 1
                    self.cumulative_elephants[lid] += 1
            st.round_bits += st.bits
            st.bits = 0.0
        self.port_stat_reads += self.topology.total_switch_ports
        self.uplink_stat_reads += len(self.topology.agg_upstream_link_ids)
        self.polls += 1
        self.polled_residual = [c - a for c, a in zip(self._cap, self.allocated)]
        self.polled_elephants = list(self.elephants)
        self.util_snapshots.append(tuple(
            self.allocated[lid] / self._cap[lid]
            for lid in self.topology.monitored_link_ids))
        record = ({"classified": newly, "port_reads": self.port_stat_reads}
                  if self.log_events else None)
        if self._round_polls and self.polls % self._round_polls == 0:
            moved = self._hedera_round()
            if record is not None:
                record["rerouted"] = moved
        return record

    def _hedera_round(self) -> list[int]:
        """Place the flows that averaged a large rate over the last period.

        A placed flow keeps its path and reservation until it departs; a
        moved flow carries its elephant counts over to the new path.
        """
        period = self._round_polls * self.params.poll_interval
        cutoff = self.scheduler.elephant_threshold * self.topology.link_capacity
        # only routed elephants send bits, and the cutoff is above zero
        large = []
        for fid in sorted(self._routed):
            st = self._routed[fid]
            if st.round_bits / period >= cutoff:
                large.append(st.spec)
            st.round_bits = 0.0
        moved: list[int] = []
        changed: list[int] = []
        for flow, path, need in hedera_schedule(
                self.topology, large, self.reservations, self.reserved):
            self.reservations[flow.id] = need
            for lid in path.link_ids:
                self.reserved[lid] += need
            st = self._routed[flow.id]
            if path == st.path:
                continue
            if st.classified:
                for lid in st.path.link_ids:
                    self.elephants[lid] -= 1
                for lid in path.link_ids:
                    self.elephants[lid] += 1
            self._unindex(flow.id, st.path.link_ids)
            self._index(flow.id, path.link_ids)
            changed += st.path.link_ids + path.link_ids
            self._route(st, path)
            moved.append(flow.id)
        if moved:
            self.reroutes += len(moved)
            self._epoch += 1
            self._resolve(changed)
        return moved

    # -- rate allocation ---------------------------------------------------------

    def _route(self, st: FlowState, path: Path) -> None:
        """Put the flow on `path`; its probes go out along it and back."""
        st.path = path
        reverse = self.topology.reverse_ids
        st.probe_links = path.link_ids + tuple(reverse[lid]
                                               for lid in path.link_ids)
        st.probe_epoch = -1

    def _reallocate_for(self, st: FlowState) -> None:
        """Re-solve after a flow arrived or left, unless it carries no rate.

        A mouse never enters the allocation, so its arrival or departure
        leaves every rate as it was.
        """
        if not st.spec.is_elephant:
            self.bisection_series.append((self.clock, self.bisection_rate))
            return
        fid, links = st.spec.id, st.path.link_ids
        if fid in self.active:
            self._routed[fid] = st
            self._index(fid, links)
            if st.crosses:
                bisect.insort(self._crossing, fid)
        else:
            del self._routed[fid]
            self._unindex(fid, links)
            if st.crosses:
                self._crossing.remove(fid)
        self._epoch += 1
        self._resolve(links)

    def _index(self, fid: int, links: tuple[int, ...]) -> None:
        for lid in links:
            bisect.insort(self._link_flows.setdefault(lid, []), fid)

    def _unindex(self, fid: int, links: tuple[int, ...]) -> None:
        for lid in links:
            members = self._link_flows[lid]
            members.remove(fid)
            if not members:
                del self._link_flows[lid]

    def _resolve(self, changed: Sequence[int]) -> None:
        """Re-solve the flow-link components that reach the `changed` links.

        `changed` holds the links whose set of elephants changed. Max-min
        rates on disjoint components are independent, and every per-link sum
        runs over the link's elephants in flow-id order, so this gives the
        same floats as a re-solve of every routed elephant.
        """
        link_flows, routed, cap = self._link_flows, self._routed, self._cap
        # the walk collects the waterfill inputs as it goes; `caps` doubles
        # as the set of links it has reached
        caps = {lid: cap[lid] for lid in changed}
        stack = list(caps)
        demands: dict[int, float] = {}
        paths: dict[int, tuple[int, ...]] = {}
        while stack:
            for fid in link_flows.get(stack.pop(), ()):
                if fid not in demands:
                    st = routed[fid]
                    demands[fid] = st.spec.demand
                    paths[fid] = links = st.path.link_ids
                    for lid in links:
                        if lid not in caps:
                            caps[lid] = cap[lid]
                            stack.append(lid)
        rates = waterfill(demands, paths, caps)
        for fid, rate in rates.items():
            routed[fid].achieved_rate = rate

        # the walk reached every flow on the links in `caps`
        for lid in caps:
            total = 0.0
            for fid in link_flows.get(lid, ()):
                total += rates[fid]
            self.allocated[lid] = total
        # offered load only moves where the set of elephants changed
        for lid in changed:
            total = 0.0
            for fid in link_flows.get(lid, ()):
                total += demands[fid]
            if total != self.offered[lid]:
                self.offered[lid] = total
                self._probe_keep[lid] = 1.0 - link_loss_probability(
                    total, self._cap[lid])
                self._probe_delay[lid] = traversal_delay(
                    total / self._cap[lid], self.params)
        bis = 0.0
        for fid in self._crossing:
            bis += routed[fid].achieved_rate
        self.bisection_rate = bis
        self.bisection_series.append((self.clock, bis))

    # -- post-run views ----------------------------------------------------------

    def mean_offered_by_link(self) -> dict[int, float]:
        """Time-averaged offered load per link over the whole horizon."""
        return {lid: self._offered_integral[lid] / self.horizon
                for lid in range(len(self._cap))}

    def state_fingerprint(self) -> tuple:
        """Hashable summary used by determinism tests."""
        return (
            self.clock,
            tuple(sorted(self.active)),
            tuple(self.allocated),
            tuple(self.offered),
            tuple(self.elephants),
            self.bisection_rate,
            self.port_stat_reads,
            self.events_processed,
        )
