"""Tests for the benchmark's own helpers.

Run from the repository root: python3 -m pytest -q fatbench
"""

import contextlib
import io
import sys
import types

import pytest

import harness
import run as bench

if str(bench.SRC) not in sys.path:
    sys.path.insert(0, str(bench.SRC))

import fatflow  # noqa: E402
from fatflow import cli, engine, experiment, metrics, schedulers, topology, traffic  # noqa: E402


# -- percentile rule ------------------------------------------------------------

def test_percentile_needs_ten_samples_beyond():
    xs = list(range(1, 20))  # 19 samples: the median has only 9 beyond it
    assert harness.percentile(xs, 0.5) is None
    xs = list(range(1, 21))
    assert harness.percentile(xs, 0.5) == 10  # nearest rank, 10 beyond
    assert harness.percentile(list(range(1, 100)), 0.9) is None
    assert harness.percentile(list(range(1, 101)), 0.9) == 90
    assert harness.percentile(list(range(1, 1000)), 0.99) is None
    assert harness.percentile(list(range(1000, 0, -1)), 0.99) == 990


def test_percentile_rejects_bad_quantile():
    with pytest.raises(ValueError):
        harness.percentile([1.0] * 50, 1.0)


# -- self time ----------------------------------------------------------------------

def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.child", 2.0, 3.0, 1),
        ("b", 5.0, 6.0, 0),
    ]
    assert harness.self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_inclusive_time_counts_nested_same_group_once():
    spans = [
        ("report", 0.0, 10.0, -1),
        ("bounds", 1.0, 5.0, 0),
        ("bounds", 2.0, 4.0, 1),  # nested call of the same group
        ("cdf", 6.0, 7.0, 0),
        ("bounds", 8.0, 9.0, 0),
    ]
    assert harness.inclusive_time(spans, ["bounds"]) == (5.0, 3)
    assert harness.inclusive_time(spans, ["cdf", "bounds"]) == (6.0, 4)


def test_tracer_records_nesting_and_exceptions():
    ns = types.SimpleNamespace()

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x * 2

    ns.inner = inner
    ns.outer = lambda x: ns.inner(x) + 1
    tracer = harness.Tracer()
    with tracer:
        tracer.wrap(ns, "inner", "inner")
        tracer.wrap(ns, "outer", "outer",
                    lambda _, args, result: f"outer.{result}")
        assert ns.outer(2) == 5
        with pytest.raises(ValueError):
            ns.outer(-1)
    assert ns.inner is inner
    names = [(name, parent) for name, _, _, parent in tracer.spans]
    assert names == [("outer.5", -1), ("inner", 0), ("outer", -1), ("inner", 2)]
    assert all(end >= start for _, start, end, _ in tracer.spans)


def test_before_hook_runs_outside_the_span():
    ns = types.SimpleNamespace()
    marks = []
    ns.work = lambda: marks.append("work")
    tracer = harness.Tracer()
    with tracer:
        tracer.wrap(ns, "work", "work", before=lambda: marks.append(
            ("before", len(tracer.spans))))
        ns.work()
    assert marks == [("before", 0), "work"]
    assert [name for name, *_ in tracer.spans] == ["work"]


# -- times at reference speed --------------------------------------------------------

def test_reference_loop_takes_milliseconds():
    seconds = min(harness.reference_seconds() for _ in range(3))
    assert 1e-4 < seconds < 1.0


def test_at_reference_speed_rescales_by_the_reference_loop():
    ref = harness.REFERENCE_S
    assert harness.at_reference_speed(2.0, ref) == pytest.approx(2.0)
    # the loop ran twice as slow next to the measurement: half the seconds
    assert harness.at_reference_speed(2.0, 2 * ref) == pytest.approx(1.0)


def test_runs_and_wall_at_reference_speed():
    ref = harness.REFERENCE_S
    inv_a = {"wall_s": 3.5, "ref_s": ref, "runs": [
        {"key": "x/0", "run_s": 1.0, "run_one_s": 0.8, "ref_s": ref},
        {"key": "x/1", "run_s": 2.0, "run_one_s": 1.5, "ref_s": 2 * ref}]}
    inv_b = {"wall_s": 6.0, "ref_s": 2 * ref, "runs": [
        {"key": "x/0", "run_s": 3.0, "run_one_s": 2.4, "ref_s": 2 * ref},
        {"key": "x/1", "run_s": 2.0, "run_one_s": 1.5, "ref_s": ref}]}
    runs = bench.per_run([inv_a, inv_b])
    # x/0: 1.0 and 1.5 at reference speed; x/1: 1.0 and 2.0
    assert runs["x/0"]["run_s"] == pytest.approx(1.25)
    assert runs["x/0"]["run_one_s"] == pytest.approx(1.0)
    assert runs["x/1"]["run_s"] == pytest.approx(1.5)
    # runs 1.0 + 1.0, the remaining 0.5 s at the invocation's reference time
    assert bench.wall_at_reference_speed(inv_a) == pytest.approx(2.5)
    assert bench.wall_at_reference_speed(inv_b) == pytest.approx(1.5 + 2.0 + 0.5)


# -- wrapper install and restore ---------------------------------------------------

def _attribute_snapshot():
    owners = [fatflow, cli, engine, experiment, metrics, schedulers, topology,
              traffic, engine.Engine, topology.Topology]
    return {(id(owner), name): value
            for owner in owners for name, value in vars(owner).items()}


def test_install_and_restore_leave_fatflow_attributes_identical():
    before = _attribute_snapshot()
    tracer = harness.Tracer()
    with tracer:
        bench.install_layers(tracer, bench.LayerCounts())
        assert engine.waterfill is not before[(id(engine), "waterfill")]
        assert vars(engine.Engine)["step"] is not \
            before[(id(engine.Engine), "step")]
    after = _attribute_snapshot()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


# -- digest ------------------------------------------------------------------------

TINY = ["--k", "4", "--scheduler", "hybrid", "--scheduler", "ecmp",
        "--seed", "3", "--seed", "4", "--elephants", "8", "--duration", "5"]


def _digests(out):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(TINY + ["--out", str(out)]) == 0
    digests, complete, files, nbytes = bench.read_bundle(out)
    assert complete and files > 0 and nbytes > 0
    return digests


def test_digest_is_stable_across_two_runs(tmp_path):
    first = _digests(tmp_path / "a")
    second = _digests(tmp_path / "b")
    assert sorted(first) == ["ecmp/3", "ecmp/4", "hybrid/3", "hybrid/4"]
    assert first == second
    for key, d in first.items():
        assert harness.digest_mismatches(second[key], d) == []
        assert harness.invariant_violations(d) == []


def test_digest_mismatch_tolerances(tmp_path):
    d = _digests(tmp_path / "a")["hybrid/3"]
    near = dict(d, bisection_mean_bps=d["bisection_mean_bps"] * (1 + 1e-12))
    assert harness.digest_mismatches(near, d) == []
    far = dict(d, bisection_mean_bps=d["bisection_mean_bps"] * (1 + 1e-6))
    assert harness.digest_mismatches(far, d) == [".bisection_mean_bps: "
                                                 f"{far['bisection_mean_bps']!r}"
                                                 f" != {d['bisection_mean_bps']!r}"]
    polls = dict(d, monitoring=dict(d["monitoring"],
                                    polls=d["monitoring"]["polls"] + 1))
    assert [p.split(":")[0] for p in harness.digest_mismatches(polls, d)] == \
        [".monitoring.polls"]
