"""Path-selection strategies and the proactive/controller dispatch.

Each controller policy is a pure key function of a candidate's polled
loads, and `controller_rank` picks the candidate with the least key.
`dispatch` is the one entry point the engine calls per new flow; for the
hybrid scheduler it flips a seeded fair coin per flow between stateless ECMP
hashing and the controller selection, emulating an even two-bucket split at
the edge.

`hedera-gff` follows Hedera's published control loop (Al-Fares et al.,
NSDI 2010): flows start on ECMP, and every scheduling period the engine hands
the flows that turned out large to `hedera_schedule`, which estimates their
natural demands and places them by Global First Fit.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass
from typing import Callable, Optional, Sequence

from .metrics import ordered_sum
from .rules import FRACTION, NON_NEGATIVE, check_fields, one_of, setting
from .topology import NodeId, Path, Topology
from .traffic import Flow

ECMP = "ecmp"
HYBRID = "hybrid"  # 50/50 ECMP + lexicographic controller (the canonical mode)
HYBRID_SCALAR = "hybrid-scalar"  # controller maximizes residual - alpha * elephants
HEDERA = "hedera"  # clairvoyant greedy: places every flow at arrival
HEDERA_GFF = "hedera-gff"  # ECMP at arrival, periodic Global First Fit
NONBLOCKING = "nonblocking"

SCHEDULER_NAMES = (ECMP, HYBRID, HYBRID_SCALAR, HEDERA, HEDERA_GFF, NONBLOCKING)
SCHEDULER = one_of(SCHEDULER_NAMES)

HEDERA_PERIOD_S = 5.0  # Hedera's scheduling period


def layout_for(scheduler: str) -> str:
    """The `Topology.layout` that `scheduler` runs on."""
    return "star" if scheduler == NONBLOCKING else "fat-tree"


MECH_PROACTIVE = "proactive-ecmp"
MECH_CONTROLLER = "controller"

_MASK64 = (1 << 64) - 1


class SchedulerError(ValueError):
    pass


@dataclass(frozen=True)
class SchedulerKind:
    """Which strategy to run, plus its knobs.

    alpha trades residual bandwidth (in Mb/s) against the elephant count on
    a path's core uplink in the scalarized controller. elephant_threshold is
    the cutoff (fraction of link capacity) below which the Hedera baselines
    leave a flow to ECMP: `hedera` compares it with an elephant's declared
    demand and leaves every mouse to ECMP, `hedera-gff` compares it with the
    rate measured over a scheduling period, which only elephants send.
    """

    name: str = setting(MISSING, "scheduler to run", SCHEDULER)
    alpha: float = setting(
        1.0, "hybrid-scalar controller trade-off, Mb/s per elephant",
        NON_NEGATIVE)
    elephant_threshold: float = setting(
        0.1, "Hedera large-flow cutoff as a fraction of capacity "
             "(hedera: declared demand; hedera-gff: measured rate)", FRACTION)

    def __post_init__(self) -> None:
        check_fields(self, SchedulerError)


@dataclass(frozen=True)
class SchedulerDecision:
    path: Path
    mechanism: str  # MECH_PROACTIVE or MECH_CONTROLLER
    candidates_considered: int


def _mix64(x: int) -> int:
    # 64-bit avalanche finalizer (murmur-style); fixed constants, no seed
    x &= _MASK64
    x ^= x >> 33
    x = (x * 0xFF51AFD7ED558CCD) & _MASK64
    x ^= x >> 33
    x = (x * 0xC4CEB9FE1A85EC53) & _MASK64
    x ^= x >> 33
    return x


def flow_hash(src_id: int, dst_id: int, flow_id: int) -> int:
    """Deterministic, seed-independent hash of a flow's addressing tuple."""
    h = _mix64(src_id + 1)
    h = _mix64(h ^ (dst_id + 1))
    h = _mix64(h ^ (flow_id + 1))
    return h


def _ecmp_rank(topo: Topology, flow: Flow, count: int) -> int:
    h = flow_hash(topo.host_number(flow.src), topo.host_number(flow.dst), flow.id)
    return h % count


# A controller policy maps a candidate's (uplink elephants, min residual,
# rank) to a key; the candidate with the least key wins. A pair's candidates
# share one hop count, so no key reads it. Every key ends with the rank, the
# candidate's canonical position, which is unique, so it settles every tie
# and names the winner.
Policy = Callable[[int, float, int], tuple]


def lexicographic_key(elephants: int, residual: float, order: int) -> tuple:
    """Fewest core-uplink elephants, then widest residual."""
    return elephants, -residual, order


def scalarized_key(alpha: float) -> Policy:
    """Maximize residual (in Mb/s) minus alpha per core-uplink elephant."""
    if alpha != alpha or alpha == float("inf"):
        raise SchedulerError(f"alpha must be finite, got {alpha!r}")

    def key(elephants, residual, order):
        return -(residual / 1e6 - alpha * elephants), order
    return key


def hedera_key(topo: Topology, flow: Flow,
               threshold_fraction: float) -> Optional[Policy]:
    """Hedera's greedy placement of a large flow, None for a small one.

    A mouse (a flow with a probe period) is small whatever its demand, and
    so is an elephant whose declared demand is under threshold_fraction of
    link capacity; small flows stay on ECMP. A large flow takes the first
    candidate whose every link still fits the whole demand; when nothing
    fits, the widest path wins.
    """
    if (not flow.is_elephant
            or flow.demand < threshold_fraction * topo.link_capacity):
        return None
    demand = flow.demand

    def key(elephants, residual, order):
        fits = residual >= demand
        return not fits, 0.0 if fits else -residual, order
    return key


def controller_rank(loads: Sequence[tuple[float, int]], policy: Policy) -> int:
    """The rank of the candidate `policy` picks. `loads` holds each
    candidate's (min residual, uplink elephants) by rank, as
    `Topology.candidate_loads` returns them."""
    return min(policy(elephants, residual, rank)
               for rank, (residual, elephants) in enumerate(loads))[-1]


def estimate_demands(pairs: dict[int, tuple[NodeId, NodeId]]) -> dict[int, float]:
    """Hedera's natural-demand estimator, as fractions of a host NIC's rate.

    `pairs` maps flow id to (src, dst) host. Senders split their NIC evenly
    over the flows not yet receiver-limited; an oversubscribed receiver then
    gives each flow the max-min fair share of its NIC, and the flows it
    limits are converged. The two passes repeat until no estimate changes.
    """
    demand = dict.fromkeys(pairs, 0.0)
    converged = dict.fromkeys(pairs, False)
    by_src: dict[NodeId, list[int]] = {}
    by_dst: dict[NodeId, list[int]] = {}
    for fid in sorted(pairs):
        src, dst = pairs[fid]
        by_src.setdefault(src, []).append(fid)
        by_dst.setdefault(dst, []).append(fid)

    # the estimates settle within a few rounds; the cap only keeps a float
    # tie from cycling forever
    for _ in range(4 * len(pairs) + 4):
        changed = False
        for fids in by_src.values():
            fixed = ordered_sum(demand[f] for f in fids if converged[f])
            open_ = [f for f in fids if not converged[f]]
            if not open_:
                continue
            share = (1.0 - fixed) / len(open_)
            for f in open_:
                changed |= demand[f] != share
                demand[f] = share
        for fids in by_dst.values():
            if ordered_sum(demand[f] for f in fids) <= 1.0:
                continue
            limited = list(fids)
            fixed = 0.0
            share = 1.0 / len(limited)
            while True:
                small = [f for f in limited if demand[f] < share]
                if not small or len(small) == len(limited):
                    break
                fixed += ordered_sum(demand[f] for f in small)
                limited = [f for f in limited if demand[f] >= share]
                share = (1.0 - fixed) / len(limited)
            for f in limited:
                changed |= demand[f] != share
                demand[f] = share
                converged[f] = True
        if not changed:
            break
    return demand


def hedera_schedule(topo: Topology, large: Sequence[Flow],
                    placed: dict[int, tuple[float, Path]]
                    ) -> list[tuple[Flow, Path, float]]:
    """One Hedera scheduling round over the flows measured large.

    `placed` maps flow id to (reservation in bits/s, path), and the round
    takes them afresh, in flow-id order, off each link's room: capacity *
    (1 + 1e-9) less its reservations, not its measured load; the slack lets
    NIC estimates that sum to one fit. Each large flow not yet placed, in
    flow-id order, then takes the least rank whose least room covers its
    estimated demand (Global First Fit over the canonical order); only that
    path is built. Returns (flow, path, reservation) per flow placed; one that
    fits nowhere stays where it is and is tried again next round.
    """
    estimates = estimate_demands({f.id: (f.src, f.dst) for f in large})
    room = [topo.link_capacity * (1.0 + 1e-9)] * len(topo.links)
    for fid, (need, path) in sorted(placed.items()):
        for lid in path.link_ids:
            room[lid] -= need
    zeros = [0] * len(room)
    placements = []
    for f in sorted(large, key=lambda f: f.id):
        if f.id in placed:
            continue
        need = estimates[f.id] * topo.link_capacity
        loads = topo.candidate_loads(f.src, f.dst, room, zeros)
        fits = [r for r, (least, _) in enumerate(loads) if least >= need]
        if not fits:
            continue
        path = topo.path_at(f.src, f.dst, fits[0])
        for lid in path.link_ids:
            room[lid] -= need
        placements.append((f, path, need))
    return placements


def hedera_period_polls(poll_interval: float) -> int:
    """Hedera's scheduling period as a whole number of stats polls."""
    return max(1, round(HEDERA_PERIOD_S / poll_interval))


def dispatch(state, flow: Flow, kind: SchedulerKind) -> SchedulerDecision:
    """Choose a path for a newly arrived, unassigned flow. `nonblocking`
    hashes like ECMP, onto the one path a star has per host pair.

    Only the chosen candidate is built as a `Path`. The controller reads the
    candidates' loads off the topology's link tables by rank, which is their
    canonical order.
    """
    topo: Topology = state.topology
    src, dst = flow.src, flow.dst
    policy = None
    if kind.name == HEDERA:
        policy = hedera_key(topo, flow, kind.elephant_threshold)
    elif kind.name in (HYBRID, HYBRID_SCALAR):
        # fair coin between the data plane and the controller
        if state.dispatch_rng.random() < 0.5:
            policy = (lexicographic_key if kind.name == HYBRID
                      else scalarized_key(kind.alpha))
    if policy is None:
        n = topo.candidate_count(src, dst)
        return SchedulerDecision(topo.path_at(src, dst, _ecmp_rank(topo, flow, n)),
                                 MECH_PROACTIVE, n)
    loads = topo.candidate_loads(src, dst, state.polled_residual,
                                 state.polled_elephants)
    return SchedulerDecision(
        topo.path_at(src, dst, controller_rank(loads, policy)),
        MECH_CONTROLLER, len(loads))
