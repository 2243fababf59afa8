"""Path-selection strategies and the proactive/controller dispatch.

Selectors are pure functions of snapshot inputs. `dispatch` is the one entry
point the engine calls per new flow; for the hybrid scheduler it flips a
seeded fair coin per flow between stateless ECMP hashing and the controller
selection, emulating an even two-bucket split at the edge.

`hedera-gff` follows Hedera's published control loop (Al-Fares et al.,
NSDI 2010): flows start on ECMP, and every scheduling period the engine hands
the flows that turned out large to `hedera_schedule`, which estimates their
natural demands and places them by Global First Fit.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass
from typing import Container, Optional, Sequence

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
    leave a flow to ECMP: `hedera` compares it with the declared demand,
    `hedera-gff` with the rate measured over a scheduling period.
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


@dataclass(frozen=True)
class PathView:
    """Load snapshot of one candidate path at decision time."""

    path: Path
    min_residual: float  # bits/second, min over the path's links
    uplink_elephants: int  # elephants on the aggregate-to-core upstream hop
    hop_count: int


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


def select_ecmp(topo: Topology, flow: Flow, candidates: Sequence[Path]) -> Path:
    """Hash the flow onto one of the equal-cost candidates, oblivious to load."""
    if not candidates:
        raise SchedulerError("no candidate paths")
    h = flow_hash(topo.host_number(flow.src), topo.host_number(flow.dst), flow.id)
    return candidates[h % len(candidates)]


def select_lexicographic(views: Sequence[PathView]) -> Path:
    """Shortest, then fewest core-uplink elephants, then widest residual.

    Ties fall to the canonical path order, so the result does not depend on
    how the view list happens to be arranged.
    """
    if not views:
        raise SchedulerError("no candidate paths")
    return min(views, key=lambda v: (v.hop_count, v.uplink_elephants,
                                     -v.min_residual, v.path.sort_key)).path


def select_scalarized(views: Sequence[PathView], alpha: float) -> Path:
    """Maximize residual (in Mb/s) minus alpha per core-uplink elephant;
    ties fall to the canonical path order."""
    if not views:
        raise SchedulerError("no candidate paths")
    if alpha != alpha or alpha == float("inf"):
        raise SchedulerError(f"alpha must be finite, got {alpha!r}")
    return min(views, key=lambda v: (
        -(v.min_residual / 1e6 - alpha * v.uplink_elephants),
        v.path.sort_key)).path


def select_hedera(topo: Topology, flow: Flow, views: Sequence[PathView],
                  threshold_fraction: float) -> tuple[Path, str]:
    """Hedera-style greedy placement.

    Small flows (demand under threshold_fraction of link capacity) stay on
    ECMP. Large flows take the first candidate, in canonical order, whose
    every link still fits the whole demand; when nothing fits, the widest
    path wins, ties falling to canonical order.
    """
    if not views:
        raise SchedulerError("no candidate paths")
    candidates = [v.path for v in views]
    if flow.demand < threshold_fraction * topo.link_capacity:
        return select_ecmp(topo, flow, candidates), MECH_PROACTIVE

    def key(v: PathView):
        fits = v.min_residual >= flow.demand
        return not fits, 0.0 if fits else -v.min_residual, v.path.sort_key

    return min(views, key=key).path, MECH_CONTROLLER


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


def global_first_fit(candidates: Sequence[Path], need: float,
                     reserved: Sequence[float]) -> Optional[Path]:
    """First path, in canonical order, whose every link can reserve `need`.

    Only reservations count, not measured load. A relative slack of 1e-9
    keeps a NIC whose estimates sum to exactly one from failing by an ulp.
    """
    return min((p for p in candidates
                if all(reserved[l.id] + need <= l.capacity * (1.0 + 1e-9)
                       for l in p.hops)),
               key=lambda p: p.sort_key, default=None)


def hedera_schedule(topo: Topology, large: Sequence[Flow], placed: Container[int],
                    reserved: Sequence[float]) -> list[tuple[Flow, Path, float]]:
    """One Hedera scheduling round over the flows measured large.

    Estimates the natural demand of every large flow, then visits the ones
    not yet placed in flow-id order and Global-First-Fits each against the
    per-link reservations, counting those it makes earlier in the round.
    Returns (flow, path, reservation in bits/s) for every flow placed; a
    flow that fits nowhere stays where it is and is tried again next round.
    """
    estimates = estimate_demands({f.id: (f.src, f.dst) for f in large})
    reserved = list(reserved)
    placements = []
    for f in sorted(large, key=lambda f: f.id):
        if f.id in placed:
            continue
        need = estimates[f.id] * topo.link_capacity
        path = global_first_fit(topo.equal_cost_paths(f.src, f.dst), need,
                                reserved)
        if path is None:
            continue
        for lid in path.link_ids:
            reserved[lid] += need
        placements.append((f, path, need))
    return placements


def hedera_period_polls(poll_interval: float) -> int:
    """Hedera's scheduling period as a whole number of stats polls."""
    return max(1, round(HEDERA_PERIOD_S / poll_interval))


def path_views(state, candidates: Sequence[Path]) -> list[PathView]:
    """Snapshot the link-state fields each controller selector reads.

    They come from the engine's last stats poll (`polled_residual` and
    `polled_elephants`), not from live data-plane state.
    """
    residual, elephants = state.polled_residual, state.polled_elephants
    views = []
    for p in candidates:
        uplink = p.uplink_id
        views.append(PathView(p, min(residual[lid] for lid in p.link_ids),
                              0 if uplink is None else elephants[uplink],
                              len(p.hops)))
    return views


def dispatch(state, flow: Flow, kind: SchedulerKind) -> SchedulerDecision:
    """Choose a path for a newly arrived, unassigned flow. `nonblocking`
    hashes like ECMP, onto the one path a star has per host pair."""
    topo: Topology = state.topology
    if kind.name == NONBLOCKING and topo.layout != "star":
        raise SchedulerError(
            "non-blocking selection requires the star topology, "
            f"got layout {topo.layout!r}")

    candidates = topo.equal_cost_paths(flow.src, flow.dst)
    n = len(candidates)
    if kind.name in (ECMP, HEDERA_GFF, NONBLOCKING):
        return SchedulerDecision(select_ecmp(topo, flow, candidates),
                                 MECH_PROACTIVE, n)
    if kind.name == HEDERA:
        path, mech = select_hedera(topo, flow, path_views(state, candidates),
                                   kind.elephant_threshold)
        return SchedulerDecision(path, mech, n)

    # hybrid variants: fair coin between the data plane and the controller
    if state.dispatch_rng.random() < 0.5:
        views = path_views(state, candidates)
        if kind.name == HYBRID:
            path = select_lexicographic(views)
        else:
            path = select_scalarized(views, kind.alpha)
        return SchedulerDecision(path, MECH_CONTROLLER, n)
    return SchedulerDecision(select_ecmp(topo, flow, candidates),
                             MECH_PROACTIVE, n)
