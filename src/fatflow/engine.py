"""Deterministic flow-level event loop.

One engine instance owns one simulation run: it admits flows, asks the
configured scheduler for paths, re-solves the max-min fair rate allocation on
every elephant arrival and departure, classifies elephants from polled byte
counts, and evaluates mice probes against per-link overload and queuing
state. A re-solve covers only the components of the flow-link graph that
reach the links whose set of elephants changed. Rates only change at those
re-solves, so a flow's bits catch up only when its rate changes and at
polls, and a link's offered-load integral only when its offered load
changes and when read: no event walks every flow or link. Under
`hedera-gff` it also runs Hedera's scheduling round every period and moves
the flows that round places.

Polls and each mouse's probes are streams, so memory does not grow with the
horizon: one queue entry stands for a stream's next event, and processing it
queues the next, at a time computed from the stream's start, period and end.
A probe changes no state, so probes wait in a heap of their own. `run()`
draws every probe due before the next state-changing event in one loop, and
`step()` still processes exactly one event of either kind. Each stream
reserves its block of sequence numbers from one counter when it starts, so
the merged (time, sequence) order is that of a single queue filled up front.

All randomness comes from two private streams derived from the run seed, so
identical inputs replay to identical event logs.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import operator
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .rules import NON_NEGATIVE, OPEN_FRACTION, POSITIVE, check_fields, setting
from .schedulers import (HEDERA_GFF, MECH_CONTROLLER, SchedulerKind, dispatch,
                         hedera_period_polls, hedera_schedule, layout_for)
from .topology import Path, Topology
from .traffic import ELEPHANT, MICE, Flow, crosses_bisection, even_count


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

    Each flow has a demand and a path, demands must be finite and >= 0, and
    a path lists each link at most once; EngineError names the flow
    otherwise, and the link when a path's link has no capacity or one that
    is not finite and >= 0. A flow with demand 0 freezes at 0 in the first
    round and takes no share of its links.

    This checks the inputs and builds each link's member list, its count
    of flows and a zero per-link sum, then runs `_fill`, which the engine
    calls directly on inputs of its own (see `Engine._resolve`).
    """
    if demands.keys() != paths.keys():
        fid = min(demands.keys() ^ paths.keys())
        has, lacks = ("demand", "path") if fid in demands else ("path", "demand")
        raise EngineError(f"waterfill: flow {fid}: has a {has} and no {lacks}")
    for fid, d in demands.items():
        NON_NEGATIVE.check(f"waterfill: flow {fid}: demand", d, EngineError)
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
        NON_NEGATIVE.check(f"waterfill: link {lid}: capacity",
                           capacities.get(lid), EngineError)
    return _fill(demands, paths, members, list(members), capacities,
                 {lid: len(flows) for lid, flows in members.items()},
                 dict.fromkeys(members, 0.0))


def _fill(demands: dict[int, float], paths: dict[int, tuple[int, ...]],
          members: dict[int, list[int]], links: list[int],
          capacities: Sequence[float] | dict[int, float],
          unfrozen: list[int] | dict[int, int],
          frozen_sum: list[float] | dict[int, float]) -> dict[int, float]:
    """`waterfill`'s rounds and repair pass on checked inputs.

    `links` lists once each link that carries a flow, in any order. For
    each of them, `members[lid]` holds its flows in flow-id order (no other
    entry of `members` is read, and no list is changed), `unfrozen[lid]`
    holds the length of that list and `frozen_sum[lid]` holds 0.0.
    `capacities`, `unfrozen` and `frozen_sum` are indexed by link id. No
    float depends on the order of `links`.

    `_fill` counts in `unfrozen` and `frozen_sum` in place. Every flow
    freezes, so each count returns to 0 by itself, and the repair scan sets
    each sum back to 0.0: on return both hold zeros again on `links`. The
    "no flow freezes" EngineError leaves them dirty; in the engine that
    error ends the run.

    A round only revisits what the last one changed: a link's share is
    recomputed when a flow on it froze, demand-limited flows come off one
    list sorted by demand, and a link that sets the level freezes all of its
    flows, so its member list is read once.
    """
    rates = dict.fromkeys(demands, 0.0)
    # per link that still carries an unfrozen flow: the fair share of what
    # is left
    shares = {lid: capacities[lid] / unfrozen[lid] for lid in links}
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
    # pass in link-id order suffices. Sums run left to right in flow-id
    # order, as the engine sums `allocated`. The rates are >= 0, so a sum in
    # another order than `frozen_sum`'s is off by far less than 1e-9 of it,
    # and a link that far below capacity needs no repair.
    near = []
    for lid in links:
        if frozen_sum[lid] > capacities[lid] * (1 - 1e-9):
            near.append(lid)
        frozen_sum[lid] = 0.0
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
                 "probe_epoch", "achieved_rate", "bits", "since",
                 "round_bits", "crosses", "classified")

    def __init__(self, spec: Flow, path: Path, crosses: bool):
        self.spec = spec
        self.path = path  # moved only by a `hedera-gff` round
        self.probe_links: tuple[int, ...] = ()  # a mouse's links, out and back
        # a probe's survival chance and RTT over `probe_links` as of the
        # engine's re-solve epoch `probe_epoch` (-1: not computed yet)
        self.probe_keep = self.probe_rtt = 0.0
        self.probe_epoch = -1
        self.achieved_rate = 0.0  # bits/s, 0 for a mouse
        self.bits = 0.0  # sent since the last poll, up to time `since`
        self.since = 0.0  # moved by `Engine._set_rate` and each poll
        self.round_bits = 0.0  # sent this Hedera scheduling round
        self.crosses = crosses  # src and dst lie in opposite pod halves
        self.classified = False  # detected as an elephant at a poll


def _check_flows(flows: Sequence[Flow], topo: Topology) -> None:
    """Raise EngineError, naming the flow and the field, on unusable input:
    a field that breaks its declared rule, a repeated id, or a `src` or
    `dst` that is not a host of `topo`, or both the same host."""
    ids: set[int] = set()
    hosts = set(topo.hosts)
    for f in flows:
        check_fields(f, EngineError, prefix=f"flow {f.id}: ")
        if f.id in ids:
            raise EngineError(f"flow {f.id}: id repeats")
        ids.add(f.id)
        if f.src not in hosts or f.dst not in hosts:
            name, node = ("src", f.src) if f.src not in hosts else ("dst", f.dst)
            raise EngineError(f"flow {f.id}: {name} {node!r} is not a host of "
                              "this topology")
        if f.src == f.dst:
            raise EngineError(f"flow {f.id}: dst must differ from src, got "
                              f"{f.dst!r}")


class Engine:
    """One seeded simulation run over a fixed topology and workload.

    With a `sink`, each processed event's log record is passed to it as the
    event is processed, and the engine keeps none of them; with none, no
    record is built.
    """

    def __init__(self, topo: Topology, scheduler: SchedulerKind,
                 flows: list[Flow], horizon: float,
                 params: EngineParams = EngineParams(), seed: int = 0,
                 sink: Optional[Callable[[dict], object]] = None):
        POSITIVE.check("horizon", horizon, EngineError)
        layout = layout_for(scheduler.name)
        if topo.layout != layout:
            raise EngineError(f"scheduler: {scheduler.name!r} runs on the "
                              f"{layout!r} layout, got {topo.layout!r}")
        self.topology = topo
        self.scheduler = scheduler
        self.horizon = horizon
        self.seed = seed
        self.params = params
        self._sink = sink
        self.dispatch_rng = random.Random(f"{seed}/dispatch")
        self._probe_rng = random.Random(f"{seed}/probe")

        self.clock = 0.0
        self.active: dict[int, FlowState] = {}
        # the flow-link graph of the routed elephants: each one's state, and
        # the sorted ids of those on each link that carries any
        self._routed: dict[int, FlowState] = {}
        self._link_flows: dict[int, list[int]] = {}
        # the sorted ids of the routed elephants that cross the bisection
        self._crossing: list[int] = []

        nlinks = len(topo.links)
        self._cap = [topo.link_capacity] * nlinks  # checked by `Topology`
        self.allocated = [0.0] * nlinks
        # `_fill`'s per-link counters (flows not yet frozen, sum of frozen
        # rates); all zero between re-solves
        self._unfrozen = [0] * nlinks
        self._frozen_sum = [0.0] * nlinks
        self.offered = [0.0] * nlinks
        self.elephants = [0] * nlinks
        self.cumulative_elephants = [0] * nlinks
        # per link, its offered load integrated up to when it last changed
        self._offered_integral = [0.0] * nlinks
        self._offered_since = [0.0] * nlinks
        # what a probe sees on each link, refreshed whenever `offered` changes:
        # the chance to survive the traversal and the traversal delay
        self._probe_keep = [1.0] * nlinks
        self._probe_delay = [traversal_delay(0.0, params)] * nlinks
        self._epoch = 0  # re-solves so far, each begun by `_resolve`
        # what the controller knows: link state as of the last stats poll,
        # which path selection reads instead of live data-plane state
        self.polled_residual = list(self._cap)
        self.polled_elephants = [0] * nlinks
        # the last snapshot's re-solve epoch and monitored links' utilization
        self._polled_epoch, self._polled_util = -1, []

        self.bisection_rate = 0.0
        self.bisection_series: list[tuple[float, float]] = [(0.0, 0.0)]

        self.polls = 0
        self.controller_decisions = 0
        self.proactive_decisions = 0

        # hedera-gff: polls per round (0 = none); placed flows' (need, path)
        self._round_polls = (hedera_period_polls(params.poll_interval)
                             if scheduler.name == HEDERA_GFF else 0)
        self.reservations: dict[int, tuple[float, Path]] = {}
        self.reroutes = 0

        # one entry per processed probe, in event order: its RTT in seconds,
        # or None when it was lost
        self.probe_rtts: list[Optional[float]] = []
        # per monitored link, its polled utilization summed over the polls
        self.util_sums = [0.0] * len(topo.monitored_link_ids)
        self.events_processed = 0

        # state-changing events (arrivals, departures and polls only), and per
        # mouse the time and sequence number of its next probe, its state, the
        # probe's index, and the stream's probe count and last time; `_seq`
        # numbers both, breaking ties.
        self._seq = itertools.count()
        self._queue: list[tuple[float, int, str, object]] = []
        self._probes: list[tuple[float, int, FlowState, int, int, float]] = []
        _check_flows(flows, topo)
        for f in flows:
            if f.start_time < horizon:
                self._push(f.start_time, "arrival", f)
        # poll i >= 1 has payload i, time min(i * poll_interval, horizon)
        # and sequence number first + i - 1
        self._poll_count = even_count(0.0, horizon, params.poll_interval) - 1
        first = self._reserve(self._poll_count)
        if self._poll_count:
            heapq.heappush(self._queue, (min(params.poll_interval, horizon),
                                         first, "poll", 1))

    # -- event machinery ------------------------------------------------------

    def _push(self, t: float, kind: str, payload) -> None:
        heapq.heappush(self._queue, (t, next(self._seq), kind, payload))

    def _reserve(self, n: int) -> int:
        """Take a stream's block of `n` sequence numbers; return the first."""
        first = next(self._seq)
        self._seq = itertools.count(first + n)
        return first

    def pending_events(self) -> int:
        # the queued poll stands for every poll not yet processed
        return (len(self._queue) + max(0, self._poll_count - self.polls - 1)
                + sum(count - i for _, _, _, i, count, _ in self._probes))

    def step(self) -> dict:
        """Process exactly one event in (time, sequence) order and return its
        log record, or only `{"type": kind}` when the engine has no sink."""
        queue, probes = self._queue, self._probes
        if probes and (not queue or probes[0] < queue[0]):
            t, seq = probes[0][:2]
            return self._run_probes((t, seq + 1)) or {"type": "probe"}
        if not queue:
            raise EngineError("event queue is empty")
        t, seq, kind, payload = heapq.heappop(queue)
        self.events_processed += 1
        self._advance(t)
        if kind == "arrival":
            record = self._on_arrival(payload)
        elif kind == "departure":
            record = self._on_departure(payload)
        else:  # a poll
            if payload < self._poll_count:  # the stream's next poll
                nxt = min((payload + 1) * self.params.poll_interval, self.horizon)
                heapq.heappush(queue, (nxt, seq + 1, "poll", payload + 1))
            record = self._on_poll()
        if record is None:
            return {"type": kind}
        record.update(seq=seq, t=t, type=kind)
        self._sink(record)
        return record

    def run(self) -> "Engine":
        queue, probes = self._queue, self._probes
        while queue and queue[0][0] <= self.horizon:
            if probes and probes[0] < queue[0]:
                self._run_probes(queue[0])
            self.step()
        self._run_probes((self.horizon, math.inf))
        self._advance(self.horizon)
        return self

    def _run_probes(self, stop: tuple) -> Optional[dict]:
        """Draw every queued probe whose (time, sequence) key comes before
        `stop`, in that order; return the last one's log record, None
        without a sink.

        No state changes between them, so each mouse's cached outcome stays
        valid across the batch and the clock moves once, to the last probe.
        A probe's seq differs from every other event's, so comparing a heap
        entry with `stop` or another entry never reaches its third field.
        """
        probes = self._probes
        pop, replace = heapq.heappop, heapq.heapreplace
        keep, delay, epoch = self._probe_keep, self._probe_delay, self._epoch
        draw, append = self._probe_rng.random, self.probe_rtts.append
        sink, record = self._sink, None
        t, n = self.clock, 0
        while probes and probes[0] < stop:
            t, seq, st, i, count, end = probes[0]
            i += 1
            if i < count:  # the mouse's next probe, numbered next
                nxt = st.spec.start_time + i * st.spec.probe_interval
                replace(probes, (nxt if nxt < end else end, seq + 1, st, i,
                                 count, end))
            else:
                pop(probes)
            n += 1
            if st.probe_epoch != epoch:
                links = st.probe_links
                survival = 1.0
                for lid in links:
                    survival *= keep[lid]
                rtt = 0.0
                for lid in links:
                    rtt += delay[lid]
                st.probe_keep, st.probe_rtt = survival, rtt
                st.probe_epoch = epoch
            # one draw per probe, hit or miss, keeps the random stream in order
            rtt = st.probe_rtt if draw() < st.probe_keep else None
            append(rtt)
            if sink is not None:
                record = {"flow": st.spec.id, "delivered": rtt is not None,
                          "rtt": rtt, "seq": seq, "t": t, "type": "probe"}
                sink(record)
        self._advance(t)
        self.events_processed += n
        return record

    def _advance(self, t: float) -> None:
        if t < self.clock:
            raise EngineError("clock must be nondecreasing")
        self.clock = t

    # -- event handlers --------------------------------------------------------

    def _on_arrival(self, flow: Flow) -> Optional[dict]:
        decision = dispatch(self, flow, self.scheduler)
        if decision.mechanism == MECH_CONTROLLER:
            self.controller_decisions += 1
        else:
            self.proactive_decisions += 1
        st = FlowState(flow, decision.path,
                       crosses_bisection(self.topology, flow.src, flow.dst))
        self.active[flow.id] = st

        end = self.horizon
        if flow.duration is not None and flow.start_time + flow.duration < end:
            end = flow.start_time + flow.duration
            self._push(end, "departure", flow.id)
        if flow.is_elephant:
            self._attach(st)
            self._resolve(st.path.link_ids)
        else:
            ids = st.path.link_ids
            back = map(self.topology.reverse_ids.__getitem__, ids)
            st.probe_links = ids + tuple(back)
            # probe i: min(start_time + i * probe_interval, end), seq first + i
            count = even_count(flow.start_time, end, flow.probe_interval)
            heapq.heappush(self._probes, (flow.start_time, self._reserve(count),
                                          st, 0, count, end))
            # a mouse carries no rate, so every rate stays as it was
            self.bisection_series.append((self.clock, self.bisection_rate))
        if self._sink is None:
            return None
        return {
            "flow": flow.id,
            "kind": ELEPHANT if flow.is_elephant else MICE,
            "mechanism": decision.mechanism,
            "candidates": decision.candidates_considered,
            "path": repr(st.path),
            "bisection_rate": self.bisection_rate,
        }

    def _on_departure(self, fid: int) -> Optional[dict]:
        if fid not in self.active:
            raise EngineError(f"departure for unknown flow id {fid}")
        st = self.active.pop(fid)
        self.reservations.pop(fid, None)
        if st.spec.is_elephant:
            self._detach(st)
            self._resolve(st.path.link_ids)
        else:
            self.bisection_series.append((self.clock, self.bisection_rate))
        if self._sink is None:
            return None
        return {"flow": fid, "bisection_rate": self.bisection_rate}

    def _on_poll(self) -> Optional[dict]:
        newly = []
        # a mouse sends no bits, so only routed elephants can classify
        for fid in sorted(self._routed):
            st = self._routed[fid]
            bits = st.bits + st.achieved_rate * (self.clock - st.since)
            st.bits, st.since = 0.0, self.clock
            if (not st.classified and bits / self.params.poll_interval
                    >= self.params.detection_threshold):
                st.classified = True
                newly.append(fid)
                for lid in st.path.link_ids:
                    self.elephants[lid] += 1
                    self.cumulative_elephants[lid] += 1
            st.round_bits += bits
        self.polls += 1
        # reuse the last snapshot if no re-solve came since: then only this
        # poll's classifications can have moved `elephants`
        if self._polled_epoch != self._epoch:
            self._polled_epoch = self._epoch
            allocated, cap = self.allocated, self._cap
            self.polled_residual = list(map(operator.sub, cap, allocated))
            self._polled_util = [allocated[lid] / cap[lid]
                                 for lid in self.topology.monitored_link_ids]
            self.polled_elephants = self.elephants[:]
        elif newly:
            self.polled_elephants = self.elephants[:]
        self.util_sums = list(map(operator.add, self.util_sums,
                                  self._polled_util))
        record = ({"classified": newly, "port_reads":
                   self.polls * self.topology.total_switch_ports}
                  if self._sink is not None else None)
        if self._round_polls and self.polls % self._round_polls == 0:
            moved = self._hedera_round()
            if record is not None:
                record["rerouted"] = moved
        return record

    def _hedera_round(self) -> list[int]:
        """Place the flows that averaged a large rate over the last period.

        A placed flow keeps its path and reservation until it departs; a
        moved flow is detached, given its new path and attached again.
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
        for flow, path, need in hedera_schedule(self.topology, large,
                                                self.reservations):
            self.reservations[flow.id] = need, path
            st = self._routed[flow.id]
            if path == st.path:
                continue
            changed += st.path.link_ids + path.link_ids
            self._detach(st)
            st.path = path
            self._attach(st)
            moved.append(flow.id)
        if moved:
            self.reroutes += len(moved)
            self._resolve(changed)
        return moved

    # -- rate allocation ---------------------------------------------------------

    def _attach(self, st: FlowState) -> None:
        """Put the elephant `st` on its path's links. Only this and `_detach`
        write `_routed`, `_link_flows`, `_crossing` and, but for `_on_poll`'s
        classification, `elephants`."""
        fid, links = st.spec.id, st.path.link_ids
        self._routed[fid] = st
        for lid in links:
            bisect.insort(self._link_flows.setdefault(lid, []), fid)
        if st.crosses:
            bisect.insort(self._crossing, fid)
        if st.classified:
            for lid in links:
                self.elephants[lid] += 1

    def _detach(self, st: FlowState) -> None:
        """Take the elephant `st` off its path's links: `_attach` undone."""
        fid, links = st.spec.id, st.path.link_ids
        del self._routed[fid]
        for lid in links:
            members = self._link_flows[lid]
            members.remove(fid)
            if not members:
                del self._link_flows[lid]
        if st.crosses:
            self._crossing.remove(fid)
        if st.classified:
            for lid in links:
                self.elephants[lid] -= 1

    def _set_rate(self, st: FlowState, rate: float) -> None:
        """Give `st` a new rate, first adding the bits its old rate sent."""
        if rate != st.achieved_rate:
            st.bits += st.achieved_rate * (self.clock - st.since)
            st.since = self.clock
            st.achieved_rate = rate

    def _resolve(self, changed: Sequence[int]) -> None:
        """Start a new epoch, which stales every probe cache and the poll
        snapshot, and re-solve the flow-link components that reach `changed`.

        `changed` holds the links whose set of elephants changed. Max-min
        rates on disjoint components are independent, and every per-link sum
        runs over the link's elephants in flow-id order, so this gives the
        same floats as a re-solve of every routed elephant.

        `_fill` reads the link index itself: the walk reaches every flow on
        each link it visits, so each `_link_flows` list of a link in play is
        the list `waterfill` would build from `paths`, the same flows in the
        same flow-id order, and no float depends on the order of the links.
        The walk lists the links it reaches in `links` and marks each one by
        setting its `_unfrozen` count to the length of its list; a loaded
        link carries a flow, so a nonzero count means "reached". `_fill`
        counts that down to 0 and sums in `_frozen_sum`, which it leaves at
        0.0. The inputs need no check here: `_check_flows` checked each
        demand by `Flow`'s declared rule, `Topology` checked the capacities
        when it was built, and a topology path lists each link once.
        """
        self._epoch += 1
        link_flows, routed = self._link_flows, self._routed
        allocated, unfrozen = self.allocated, self._unfrozen
        links = []
        for lid in changed:
            flows = link_flows.get(lid)
            if flows is None:
                allocated[lid] = 0.0
            elif not unfrozen[lid]:
                unfrozen[lid] = len(flows)
                links.append(lid)
        demands: dict[int, float] = {}
        paths: dict[int, tuple[int, ...]] = {}
        for reached in links:  # grows while it is read
            for fid in link_flows[reached]:
                if fid not in demands:
                    st = routed[fid]
                    demands[fid] = st.spec.demand
                    paths[fid] = path = st.path.link_ids
                    for lid in path:
                        if not unfrozen[lid]:
                            unfrozen[lid] = len(link_flows[lid])
                            links.append(lid)
        rates = _fill(demands, paths, link_flows, links, self._cap, unfrozen,
                      self._frozen_sum)
        set_rate = self._set_rate
        for fid, rate in rates.items():
            set_rate(routed[fid], rate)
        for lid in links:
            total = 0.0
            for fid in link_flows[lid]:
                total += rates[fid]
            allocated[lid] = total
        # offered load and its integral only move where the elephants changed
        clock, offered = self.clock, self.offered
        integral, since = self._offered_integral, self._offered_since
        for lid in changed:
            total = 0.0
            for fid in link_flows.get(lid, ()):
                total += demands[fid]
            if total != offered[lid]:
                integral[lid] += offered[lid] * (clock - since[lid])
                since[lid] = clock
                offered[lid] = total
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
        """Per link, its offered load integrated up to the clock over the
        horizon: its time average once `run` is done."""
        clock, offered, since = self.clock, self.offered, self._offered_since
        return {lid: (area + offered[lid] * (clock - since[lid])) / self.horizon
                for lid, area in enumerate(self._offered_integral)}

    def state_fingerprint(self) -> tuple:
        """Hashable summary used by determinism tests."""
        return (
            self.clock,
            tuple(sorted(self.active)),
            tuple(self.allocated),
            tuple(self.offered),
            tuple(self.elephants),
            self.bisection_rate,
            self.polls,
            self.events_processed,
        )
