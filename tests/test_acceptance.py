"""End-to-end acceptance suite.

Each test_criterion_N function checks one exit criterion at its stated
tolerance; conftest prints a one-line PASS/FAIL verdict per criterion after
the run. The benchmark criteria (7-9) share one 4-scheduler x 20-seed grid
over the default workload. Its Hedera baseline is `hedera-gff`, Hedera's
published control loop (ECMP at arrival, then Global First Fit of the flows
measured large every 5 s); the clairvoyant `hedera` greedy is not in it.
"""

import hashlib
import random
import time

import numpy as np
import pytest

from fatflow import metrics
from fatflow.engine import Engine, waterfill
from fatflow.experiment import ExperimentConfig, run_experiment, run_one, run_report
from fatflow.schedulers import (MECH_CONTROLLER, SchedulerKind,
                                controller_rank, dispatch, lexicographic_key,
                                scalarized_key)
from fatflow.topology import build_fat_tree
from fatflow.traffic import Flow, WorkloadSpec, generate_workload

from test_engine import maxmin_oracle, random_instance

SCHEDS = ["nonblocking", "hybrid", "hedera-gff", "ecmp"]
SEEDS = list(range(20))


# -- criterion 1: topology laws -------------------------------------------------

def test_criterion_1_topology_laws():
    start = time.time()
    for k in (2, 4, 6, 8):
        t = build_fat_tree(k, 10e6)
        assert len(t.switches) == 5 * k * k // 4
        assert len(t.hosts) == k ** 3 // 4
        inter = t.equal_cost_paths(t.hosts[0], t.hosts[-1])
        assert len(inter) == (k // 2) ** 2
        assert len(t.agg_upstream_link_ids) == k ** 3 // 4
    assert time.time() - start < 1.0


# -- criterion 2: max-min oracle -------------------------------------------------

def test_criterion_2_maxmin_oracle_equivalence():
    start = time.time()
    rng = random.Random(12345)
    for _ in range(200):
        demands, paths, caps = random_instance(rng)
        got = waterfill(demands, paths, caps)
        want = maxmin_oracle(demands, paths, caps)
        for f in demands:
            w = float(want[f])
            if w == 0.0:
                assert abs(got[f]) <= 1e-9
            else:
                assert abs(got[f] - w) / w <= 1e-9
    assert time.time() - start < 10.0


# -- criterion 3: lexicographic oracle -------------------------------------------

def test_criterion_3_lexicographic_oracle():
    # the controller's pick over (residual, elephants) candidate loads by
    # rank, against sort-and-take-first
    start = time.time()
    rng = random.Random(777)
    for _ in range(1000):
        n = rng.randint(1, 4)
        loads = [(float(rng.choice([0, 1e6, 2e6, 5e6, 5e6, 10e6])),
                  rng.randint(0, 3)) for _ in range(n)]
        want = sorted(range(n), key=lambda r: (
            loads[r][1], -loads[r][0], r))[0]
        assert controller_rank(loads, lexicographic_key) == want
    assert time.time() - start < 1.0


# -- criterion 4: scalarized objective properties ---------------------------------

def test_criterion_4_scalarized_properties():
    rng = random.Random(31)

    # alpha = 0 reduces to pure max-residual, ties to the lowest rank
    for _ in range(200):
        loads = [(float(rng.randrange(0, 10_000_001)), rng.randint(0, 5))
                 for _ in range(4)]
        best = max(residual for residual, _ in loads)
        want = [r for r, (residual, _) in enumerate(loads)
                if residual == best][0]
        assert controller_rank(loads, scalarized_key(0.0)) == want

    # joint scaling of residuals and alpha preserves the chosen rank
    for _ in range(200):
        loads = [(float(rng.choice([0, 1e6, 3e6, 8e6])), rng.randint(0, 4))
                 for _ in range(4)]
        alpha = rng.choice([0.5, 1.0, 2.0])
        want = controller_rank(loads, scalarized_key(alpha))
        for c in (2.0, 0.5, 4.0):
            scaled = [(residual * c, elephants) for residual, elephants in loads]
            assert controller_rank(scaled, scalarized_key(alpha * c)) == want

    # hand-computed flip case: residuals {5, 9} Mb/s, elephants {0, 1}
    loads = [(5e6, 0), (9e6, 1)]
    assert controller_rank(loads, scalarized_key(1.0)) == 1  # 9 - 1 > 5 - 0
    assert controller_rank(loads, scalarized_key(5.0)) == 0  # 5 > 9 - 5


# -- criterion 5: balance efficiency ----------------------------------------------

def test_criterion_5_balance_efficiency():
    start = time.time()
    topo = build_fat_tree(4, 10e6)

    def efficiency(loads):
        return metrics.load_bounds(topo, loads)["balance_efficiency"]

    balanced = {}
    for a in topo.agg_switches:
        for lid in topo.agg_inlink_ids(a):
            balanced[lid] = 3e6
    assert abs(efficiency(balanced) - 1.0) <= 1e-9

    lopsided = {lid: 5e6 for lid in topo.agg_inlink_ids(topo.agg_switches[0])}
    # loaded pod: 1 - ((1/2)^2 + (1/2)^2) / 2 = 0.75; idle pods count as 1
    want = (0.75 + 3.0) / 4
    assert abs(efficiency(lopsided) - want) <= 1e-9

    rng = random.Random(5)
    loads = {lid: rng.uniform(0, 10e6)
             for a in topo.agg_switches for lid in topo.agg_inlink_ids(a)}
    base = efficiency(loads)
    for c in (2.0, 0.25, 8.0):
        scaled = {lid: v * c for lid, v in loads.items()}
        assert efficiency(scaled) == pytest.approx(base)
    assert time.time() - start < 1.0


# -- criterion 6: uniform-load detection balance -----------------------------------

def test_criterion_6_uniform_ecmp_detection_balance():
    start = time.time()
    topo = build_fat_tree(4, 10e6)
    hosts = list(topo.hosts)
    left = [h for h in hosts if h.pod < 2]
    right = [h for h in hosts if h.pod >= 2]
    rng = random.Random(40)
    flows = []
    t = 0.0
    for fid in range(10_000):
        t += rng.expovariate(50.0)
        src = hosts[fid % 16]  # round-robin sources keep the load symmetric
        dst = rng.choice(right if src in left else left)
        flows.append(Flow(fid, src, dst, 5e6, t, 1.5))
    horizon = t + 3.0
    eng = Engine(topo, SchedulerKind("ecmp"), flows, horizon=horizon, seed=0)
    eng.run()
    counts = [eng.cumulative_elephants[lid] for lid in topo.agg_upstream_link_ids]
    assert sum(counts) == 10_000  # every flow detected exactly once
    mean = sum(counts) / len(counts)
    for c in counts:
        assert abs(c - mean) <= 0.10 * mean, f"uplink counts {counts}"
    assert time.time() - start < 30.0


# -- criteria 7-9: benchmark grid over the default workload ------------------------

@pytest.fixture(scope="module")
def benchmark_grid():
    start = time.time()
    cfg = ExperimentConfig(schedulers=SCHEDS, seeds=SEEDS)
    per = {}
    for s in SCHEDS:
        rows = dict(bis=[], loss=[], dev=[], vecs=[])
        for seed in SEEDS:
            engine = run_one(cfg, s, seed)
            r = run_report(engine)
            rows["bis"].append(r["bisection"]["mean_bps"])
            rows["loss"].append(r["mice"]["loss"])
            rows["dev"].append(r["mice"]["rtt_mean_deviation_s"])
            rows["vecs"].append(r["link_utilization_mean"])
        per[s] = rows
    per["elapsed"] = time.time() - start
    return per


def test_criterion_7_bisection_ordering(benchmark_grid):
    per = benchmark_grid
    assert per["elapsed"] < 120.0
    mean = {s: float(np.mean(per[s]["bis"])) for s in SCHEDS}
    nb, sp, hedera, ecmp = (mean[s] for s in SCHEDS)
    assert nb >= sp >= hedera >= ecmp, (
        f"ordering violated: nonblocking={nb:.3g} sp={sp:.3g} "
        f"hedera={hedera:.3g} ecmp={ecmp:.3g}")
    assert sp >= 1.05 * ecmp, f"sp-over-ecmp margin {sp / ecmp - 1:.2%} < 5%"


def test_criterion_8_utilization_median(benchmark_grid):
    per = benchmark_grid
    p50 = {}
    for s in ("hybrid", "ecmp"):
        pooled = metrics.utilization_cdf(metrics.column_means(per[s]["vecs"]))
        p50[s] = metrics.cdf_value_at(pooled, 0.5)
    assert p50["hybrid"] > p50["ecmp"], f"p50 {p50}"


def test_criterion_9_mice_loss_and_rtt_deviation(benchmark_grid):
    per = benchmark_grid
    loss = {s: float(np.mean(per[s]["loss"])) for s in ("hybrid", "ecmp")}
    dev = {s: float(np.mean(per[s]["dev"])) for s in ("hybrid", "ecmp")}
    assert loss["hybrid"] <= loss["ecmp"], f"loss {loss}"
    assert dev["hybrid"] <= dev["ecmp"], f"rtt deviation {dev}"


# -- criterion 10: monitoring cost --------------------------------------------------

def test_criterion_10_monitoring_cost():
    for k in (2, 4, 6, 8):
        assert k ** 3 // 4 < 5 * k ** 3 // 4  # uplink reads << port reads
    topo = build_fat_tree(4, 10e6)
    flows = generate_workload(topo, WorkloadSpec(
        elephants=6, seed=1, arrival_rate=4.0, demand=10e6, probe_interval=None))
    eng = Engine(topo, SchedulerKind("hybrid"), flows, horizon=7.0, seed=1)
    eng.run()
    monitoring = run_report(eng)["monitoring"]
    assert monitoring["polls"] == 7
    port_reads = monitoring["port_stat_reads"]
    uplink_reads = monitoring["uplink_stat_reads"]
    assert port_reads == monitoring["polls"] * topo.total_switch_ports
    assert port_reads == monitoring["polls"] * 5 * 4 ** 3 // 4  # N_s x P_r
    assert uplink_reads == monitoring["polls"] * (4 ** 3 // 4)
    assert uplink_reads < port_reads


# -- criterion 11: dispatch split ----------------------------------------------------

def test_criterion_11_dispatch_split():
    start = time.time()
    topo = build_fat_tree(4, 10e6)
    flows = generate_workload(topo, WorkloadSpec(
        elephants=10_000, seed=0, arrival_rate=1000.0, demand=10e6,
        probe_interval=None))
    eng = Engine(topo, SchedulerKind("hybrid"), [], horizon=1.0, seed=0)
    controller = sum(
        1 for f in flows
        if dispatch(eng, f, SchedulerKind("hybrid")).mechanism == MECH_CONTROLLER)
    assert 0.48 <= controller / len(flows) <= 0.52
    assert time.time() - start < 5.0


# -- criterion 12: end-to-end determinism ---------------------------------------------

def test_criterion_12_bit_identical_bundles(tmp_path):
    start = time.time()
    kwargs = dict(schedulers=["hybrid", "ecmp"], seeds=[3, 4], duration=8.0,
                  elephants=10, arrival_rate=2.0, flow_duration=3.0,
                  write_events=True)
    digests = []
    for name in ("a", "b"):
        out = run_experiment(ExperimentConfig(out_dir=str(tmp_path / name), **kwargs))
        tree = {}
        for p in sorted(out.rglob("*")):
            if p.is_file():
                tree[str(p.relative_to(out))] = hashlib.sha256(
                    p.read_bytes()).hexdigest()
        digests.append(tree)
    assert digests[0] == digests[1]
    assert time.time() - start < 120.0
