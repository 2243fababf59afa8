import builtins
import dataclasses
import functools
import hashlib
import json
import math
import operator
import re
import sys
from pathlib import Path

import pytest

from fatflow import cli, experiment
from fatflow.cli import build_arg_parser, config_from_args, main
from fatflow.engine import Engine, EngineParams
from fatflow.experiment import (ConfigError, ExperimentConfig, build_topology,
                                emit_plot_data, run_experiment, run_one,
                                run_report, summarize)
from fatflow.metrics import cdf_value_at
from fatflow.schedulers import SCHEDULER_NAMES, SchedulerKind
from fatflow.traffic import WorkloadSpec

FAST = dict(elephants=6, arrival_rate=2.0, flow_duration=2.0, duration=5.0,
            demand=5e6, seeds=[1, 2])


def fast_config(**overrides):
    return ExperimentConfig(**{**FAST, **overrides})


def tree_digest(root: Path) -> dict:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def test_report_counts_a_zero_rtt_probe_as_delivered():
    # no hop latency and no queuing term: a delivered probe's RTT is 0.0
    cfg = fast_config(base_hop_latency=0.0, queuing_scale=0.0, demand=1e6)
    engine = run_one(cfg, "ecmp", 1)
    assert engine.probe_rtts and set(engine.probe_rtts) == {0.0}
    mice = run_report(cfg, "ecmp", 1, engine)["mice"]
    assert mice["delivered"] == mice["probes"] == len(engine.probe_rtts)
    assert mice["loss"] == 0.0
    assert mice["rtt_mean_deviation_s"] == 0.0


def test_bundle_layout(tmp_path):
    cfg = fast_config(schedulers=["hybrid", "ecmp"], out_dir=str(tmp_path / "b"))
    out = run_experiment(cfg)
    reports = sorted(p.name for p in (out / "reports").glob("*.json"))
    assert len(reports) == 4  # 2 schedulers x 2 seeds
    assert (out / "summary.json").is_file()
    assert (out / "config.json").is_file()
    plots = sorted(p.name for p in (out / "plots").glob("*.csv"))
    assert plots == ["bisection_means.csv", "mice_loss.csv",
                     "rtt_deviation.csv", "utilization_cdf.csv"]


def test_default_grid_is_40_reports():
    cfg = ExperimentConfig()
    assert len(cfg.schedulers) * len(cfg.seeds) == 40  # hybrid+ecmp x 20 seeds


def test_reports_have_schema_and_bounds(tmp_path):
    cfg = fast_config(schedulers=["hybrid"], seeds=[3], out_dir=str(tmp_path / "b"))
    out = run_experiment(cfg)
    report = json.loads(next((out / "reports").glob("*.json")).read_text())
    assert report["schema_version"] == 1
    assert report["scheduler"] == "hybrid"
    assert report["bisection"]["mean_bps"] >= 0
    assert report["bounds"]["t_min_bps"] <= report["bounds"]["t_max_bps"]
    assert 0 <= report["bounds"]["balance_efficiency"] <= 1
    assert len(report["bounds"]["per_edge_load_bps"]) == 8
    assert len(report["bounds"]["per_agg_load_bps"]) == 8
    assert report["monitoring"]["polls"] == 5
    assert report["monitoring"]["port_stat_reads"] == 5 * 80


def test_bundle_is_bit_identical_across_runs(tmp_path):
    a = run_experiment(fast_config(out_dir=str(tmp_path / "a")))
    b = run_experiment(fast_config(out_dir=str(tmp_path / "b")))
    assert tree_digest(a) == tree_digest(b)


def left_to_right_sum(items, start=0):
    """The built-in `sum` as Python 3.10 and 3.11 round it."""
    return functools.reduce(operator.add, items, start)


def compensated_sum(items, start=0):
    """The built-in `sum` as Python 3.12 rounds it: integers exactly, floats
    with Neumaier's compensation."""
    items = list(items)
    if all(isinstance(x, int) for x in items):
        return builtins.sum(items, start)
    total, c = float(start), 0.0
    for x in items:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


def test_reports_do_not_depend_on_how_the_interpreter_sums(monkeypatch):
    # the built-in `sum` compensates float sums from Python 3.12 on, and
    # reports must come out byte for byte the same on every interpreter
    cfg = ExperimentConfig()
    modules = [m for name, m in sys.modules.items()
               if name == "fatflow" or name.startswith("fatflow.")]

    def reports(sum_):
        for m in modules:
            monkeypatch.setattr(m, "sum", sum_, raising=False)
        return [json.dumps(run_report(cfg, s, seed, run_one(cfg, s, seed)))
                for s in ("hybrid", "hedera-gff") for seed in range(6)]

    assert reports(compensated_sum) == reports(left_to_right_sum)


def test_runs_sharing_a_topology_match_fresh_runs(tmp_path):
    # run_experiment builds one topology per scheduler; its reports must be
    # those of runs on a topology of their own, and so must the same runs
    # made in reverse order on one shared topology
    cfg = ExperimentConfig(schedulers=list(SCHEDULER_NAMES), seeds=[0, 1, 2],
                           duration=20.0, out_dir=str(tmp_path / "b"))
    out = run_experiment(cfg)

    def text(scheduler, seed, topo=None):
        engine = run_one(cfg, scheduler, seed, topo)
        report = run_report(cfg, scheduler, seed, engine)
        return json.dumps(report, sort_keys=True, indent=2) + "\n"

    for scheduler in cfg.schedulers:
        shared = build_topology(cfg, scheduler)
        for seed in reversed(cfg.seeds):
            path = out / "reports" / f"{scheduler}_seed{seed}.json"
            written = path.read_text()
            assert written == text(scheduler, seed)
            assert written == text(scheduler, seed, shared)
        assert shared._paths  # later runs read the pair paths of earlier ones


def test_cdf_csv_labels_and_rows(tmp_path):
    cfg = fast_config(schedulers=["nonblocking", "hybrid", "hedera", "ecmp"],
                      seeds=[1], out_dir=str(tmp_path / "b"))
    out = run_experiment(cfg)
    rows = [l for l in (out / "plots" / "utilization_cdf.csv").read_text().splitlines()
            if l and not l.startswith("#") and not l.startswith("scheduler,")]
    labels = {r.split(",")[0] for r in rows}
    assert labels == {"nonblocking", "hybrid", "hedera", "ecmp"}
    per = {lab: sum(1 for r in rows if r.startswith(lab + ",")) for lab in labels}
    # 64 unidirectional switch-to-switch links on the k=4 fat-tree; the star
    # baseline has only its 32 access links
    assert per["hybrid"] == per["hedera"] == per["ecmp"] == 64
    assert per["nonblocking"] == 32


def test_summary_recomputable_from_reports(tmp_path):
    cfg = fast_config(out_dir=str(tmp_path / "b"))
    out = run_experiment(cfg)
    reports = [json.loads(p.read_text())
               for p in sorted((out / "reports").glob("*.json"))]
    assert json.loads((out / "summary.json").read_text()) == json.loads(
        json.dumps(summarize(reports)))


def test_summary_and_plots_ignore_report_order(tmp_path):
    # with 20 seeds, report file names sort seed 10 before seed 2
    out = run_experiment(ExperimentConfig(schedulers=["hybrid"],
                                          out_dir=str(tmp_path / "b")))
    reports = [json.loads(p.read_text())
               for p in sorted((out / "reports").glob("*.json"))]
    summary = summarize(reports)
    assert json.loads((out / "summary.json").read_text()) == json.loads(
        json.dumps(summary))
    emit_plot_data(tmp_path / "again", reports, summary)
    assert tree_digest(tmp_path / "again" / "plots") == \
        tree_digest(out / "plots")


def test_rerun_replaces_the_bundle_and_keeps_other_files(tmp_path):
    out = tmp_path / "b"
    run_experiment(fast_config(schedulers=["ecmp"], seeds=[0, 1, 2],
                               write_events=True, out_dir=str(out)))
    (out / "notes.txt").write_text("kept")
    run_experiment(fast_config(schedulers=["hybrid"], seeds=[0],
                               out_dir=str(out)))
    assert [p.name for p in (out / "reports").iterdir()] == \
        ["hybrid_seed0.json"]
    assert not (out / "events").exists()
    assert (out / "notes.txt").read_text() == "kept"


def test_config_validation_names_field():
    with pytest.raises(ConfigError, match="k:"):
        ExperimentConfig(k=5).validate()
    with pytest.raises(ConfigError, match="seeds:"):
        ExperimentConfig(seeds=[]).validate()
    with pytest.raises(ConfigError, match="duration:"):
        ExperimentConfig(duration=0).validate()
    with pytest.raises(ConfigError, match="schedulers:"):
        ExperimentConfig(schedulers=["sieve"]).validate()
    with pytest.raises(ConfigError, match="pattern:"):
        ExperimentConfig(pattern="ring").validate()


def test_cli_flags_override_defaults():
    cfg = config_from_args([
        "--k", "6", "--capacity", "20e6", "--scheduler", "ecmp",
        "--seed", "5", "--seed", "6", "--duration", "7.5",
        "--pattern", "stride", "--alpha", "2.5", "--elephant-threshold", "0.2",
        "--poll-interval", "0.5", "--out", "/tmp/x", "--flow-duration", "none",
    ], env={})
    assert cfg.k == 6
    assert cfg.capacity == 20e6
    assert cfg.schedulers == ["ecmp"]
    assert cfg.seeds == [5, 6]
    assert cfg.duration == 7.5
    assert cfg.pattern == "stride"
    assert cfg.alpha == 2.5
    assert cfg.elephant_threshold == 0.2
    assert cfg.poll_interval == 0.5
    assert cfg.out_dir == "/tmp/x"
    assert cfg.flow_duration is None


def test_config_file_and_env(tmp_path):
    cfg_file = tmp_path / "exp.conf"
    cfg_file.write_text(
        "# comment\n"
        "k = 4\n"
        "schedulers = hybrid, ecmp\n"
        "seeds = 1, 2, 3\n"
        "duration = 9\n"
        "probe_interval = none\n"
    )
    cfg = config_from_args(["--config", str(cfg_file)], env={"FATFLOW_OUT": "/tmp/envout"})
    assert cfg.seeds == [1, 2, 3]
    assert cfg.duration == 9.0
    assert cfg.probe_interval is None
    assert cfg.out_dir == "/tmp/envout"
    # explicit flag beats the environment
    cfg = config_from_args(["--config", str(cfg_file), "--out", "/tmp/flag"],
                           env={"FATFLOW_OUT": "/tmp/envout"})
    assert cfg.out_dir == "/tmp/flag"


def test_config_file_unknown_key(tmp_path):
    cfg_file = tmp_path / "exp.conf"
    cfg_file.write_text("frobnicate = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_args(["--config", str(cfg_file)], env={})


def test_main_exit_codes(tmp_path, capsys):
    assert main(["--k", "5"]) == 1
    assert "config error" in capsys.readouterr().err
    assert main(["--k", "4", "--duration", "0"]) == 1
    ok = main(["--scheduler", "ecmp", "--seed", "1", "--duration", "3",
               "--elephants", "4", "--flow-duration", "1",
               "--out", str(tmp_path / "r")])
    assert ok == 0
    assert (tmp_path / "r" / "summary.json").is_file()


def test_main_runtime_failure_is_exit_2(tmp_path):
    blocker = tmp_path / "blocked"
    blocker.write_text("not a directory")
    code = main(["--scheduler", "ecmp", "--seed", "1", "--duration", "2",
                 "--elephants", "2", "--out", str(blocker / "sub")])
    assert code == 2


def test_events_flag_writes_jsonl(tmp_path):
    cfg = fast_config(schedulers=["ecmp"], seeds=[1], write_events=True,
                      out_dir=str(tmp_path / "b"))
    out = run_experiment(cfg)
    events = (out / "events" / "ecmp_seed1.jsonl").read_text().splitlines()
    recs = [json.loads(l) for l in events]
    assert all({"seq", "t", "type"} <= set(r) for r in recs)
    times = [r["t"] for r in recs]
    assert times == sorted(times)  # processed strictly in time order


class StepKeepingEngine(Engine):
    """Keeps what every `step` call returned."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.returned = []

    def step(self):
        record = super().step()
        self.returned.append(record)
        return record


@pytest.mark.parametrize("overrides", [{}, {"flow_duration": 6.0}],
                         ids=["default", "departures"])
@pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
def test_run_without_events_logs_nothing_and_reports_the_same(
        scheduler, overrides, monkeypatch):
    monkeypatch.setattr(experiment, "Engine", StepKeepingEngine)
    engines, texts = {}, {}
    for write_events in (True, False):
        cfg = ExperimentConfig(write_events=write_events, **overrides)
        engines[write_events] = eng = run_one(cfg, scheduler, 3)
        texts[write_events] = json.dumps(run_report(cfg, scheduler, 3, eng),
                                         sort_keys=True, indent=2)
    logged, quiet = engines[True], engines[False]
    assert logged.event_log and logged.returned == logged.event_log
    assert quiet.event_log == []
    # every step still names its event, in a dict of its own
    assert quiet.returned == [{"type": rec["type"]} for rec in logged.event_log]
    assert len({id(rec) for rec in quiet.returned}) == len(quiet.returned)
    assert quiet.events_processed == len(logged.event_log)
    assert quiet.state_fingerprint() == logged.state_fingerprint()
    assert texts[False] == texts[True]


@pytest.mark.parametrize("flag,value,field", [
    ("--capacity", "nan", "capacity:"),
    ("--arrival-rate", "nan", "arrival_rate:"),
    ("--duration", "inf", "duration:"),
    ("--duration", "nan", "duration:"),
    ("--poll-interval", "inf", "poll_interval:"),
    ("--detection-threshold", "inf", "detection_threshold:"),
    ("--flow-duration", "inf", "flow_duration:"),
    ("--probe-interval", "nan", "probe_interval:"),
])
def test_main_rejects_non_finite_numbers(tmp_path, capsys, monkeypatch, flag,
                                         value, field):
    def no_run(config):
        raise AssertionError("a simulation started")
    monkeypatch.setattr("fatflow.cli.run_experiment", no_run)
    out = tmp_path / "r"
    assert main([flag, value, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and field in err
    assert not out.exists()


@pytest.mark.parametrize("field", ["capacity", "duration", "alpha", "demand",
                                   "arrival_rate", "base_hop_latency",
                                   "queuing_scale", "rho_cap",
                                   "elephant_threshold"])
def test_config_rejects_non_finite_fields(field):
    for value in (float("nan"), float("inf")):
        with pytest.raises(ConfigError, match=f"^{field}:"):
            ExperimentConfig(**{field: value}).validate()


@pytest.mark.parametrize("field,text", [("elephants", "an integer >= 0"),
                                        ("k", "an even integer >= 2")])
def test_integer_fields_reject_booleans(field, text):
    # a bool is an int to isinstance; True would run one elephant and be
    # echoed as `true` in config.json
    with pytest.raises(ConfigError) as raised:
        ExperimentConfig(**{field: True}).validate()
    assert str(raised.value) == f"{field}: must be {text}, got True"


def test_plot_csvs_agree_with_the_summary(tmp_path):
    # with 10 or more seeds, report file names no longer sort in run order,
    # and means summed in another order can differ in the last digit; at
    # 16 seeds they do for hybrid
    cfg = fast_config(schedulers=["hybrid", "ecmp"], seeds=list(range(16)),
                      out_dir=str(tmp_path / "b"))
    out = run_experiment(cfg)
    summary = json.loads((out / "summary.json").read_text())["per_scheduler"]
    rows = (out / "plots" / "bisection_means.csv").read_text().split()[1:]
    assert {name: float(v) for name, v in (r.split(",") for r in rows)} == \
        {name: s["bisection_mean_bps"] for name, s in summary.items()}
    cdf_rows = [r.split(",") for r in
                (out / "plots" / "utilization_cdf.csv").read_text().split("\n")
                if r and not r.startswith(("#", "scheduler,"))]
    for name, s in summary.items():
        cdf = [(float(u), float(f)) for n, u, f in cdf_rows if n == name]
        assert cdf_value_at(cdf, 0.5) == s["utilization_p50"]


def test_every_field_has_a_flag_and_a_file_key(tmp_path):
    cfg_file = tmp_path / "exp.conf"
    cfg_file.write_text("demand = none\nrho_cap = 0.9\nevents = true\n")
    cfg = config_from_args(
        ["--config", str(cfg_file), "--demand", "1e6",
         "--base-hop-latency", "1e-4", "--queuing-scale", "1e-3",
         "--events", "false"], env={})
    assert (cfg.demand, cfg.base_hop_latency, cfg.queuing_scale) == \
        (1e6, 1e-4, 1e-3)
    assert cfg.rho_cap == 0.9
    assert cfg.write_events is False
    assert config_from_args(["--events"], env={}).write_events is True
    parser = build_arg_parser()
    dests = {a.dest for a in parser._actions if a.option_strings}
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert dests == fields | {"help", "config"}


# per ExperimentConfig field, a value that its file key and its flag reject
BAD_VALUES = {
    "k": "5", "capacity": "nan", "schedulers": "sieve", "seeds": "x",
    "duration": "0", "poll_interval": "-1", "detection_threshold": "0",
    "alpha": "-1", "elephant_threshold": "1.5", "pattern": "ring",
    "elephants": "-1", "arrival_rate": "inf", "flow_duration": "-1",
    "demand": "0", "probe_interval": "0", "base_hop_latency": "-1e-6",
    "queuing_scale": "nan", "rho_cap": "1", "out_dir": "",
    "write_events": "maybe",
}


@pytest.mark.parametrize("via", ["file", "flag"])
@pytest.mark.parametrize("field", dataclasses.fields(ExperimentConfig),
                         ids=lambda f: f.name)
def test_every_field_rejects_a_bad_value(tmp_path, capsys, monkeypatch, field,
                                         via):
    def no_run(config):
        raise AssertionError("a simulation started")
    monkeypatch.setattr("fatflow.cli.run_experiment", no_run)
    monkeypatch.delenv("FATFLOW_OUT", raising=False)
    monkeypatch.chdir(tmp_path)
    bad = BAD_VALUES[field.name]
    if via == "file":
        cfg_file = tmp_path / "bad.conf"
        cfg_file.write_text(f"{field.metadata.get('key', field.name)} = {bad}\n")
        argv = ["--config", str(cfg_file)]
    else:
        flag, = [a.option_strings[0] for a in build_arg_parser()._actions
                 if a.dest == field.name]
        argv = [f"{flag}={bad}"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "config error" in err and f"{field.name}:" in err


@pytest.mark.parametrize("k,hosts", [(4, 16), (8, 128)])
def test_permutation_larger_than_the_hosts_fails_fast(tmp_path, capsys,
                                                      monkeypatch, k, hosts):
    def no_run(config):
        raise AssertionError("a simulation started")
    monkeypatch.setattr("fatflow.cli.run_experiment", no_run)
    out = tmp_path / "r"
    argv = ["--k", str(k), "--pattern", "random_permutation",
            "--out", str(out)]
    assert main(argv + ["--elephants", str(hosts + 1)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "elephants:" in err
    assert not out.exists()
    # one flow per host still fits, and other patterns take any count
    config_from_args(argv + ["--elephants", str(hosts)], env={})
    config_from_args(["--k", str(k), "--elephants", str(hosts + 1)], env={})


@pytest.mark.parametrize("field,via", [
    ("seeds", ["--seed", "1", "--seed", "1"]),
    ("schedulers", ["--scheduler", "ecmp", "--scheduler", "ecmp"]),
    ("schedulers", "schedulers =\n"),
])
def test_list_fields_reject_repeats_and_emptiness(tmp_path, capsys,
                                                  monkeypatch, field, via):
    def no_run(config):
        raise AssertionError("a simulation started")
    monkeypatch.setattr("fatflow.cli.run_experiment", no_run)
    if isinstance(via, str):
        cfg_file = tmp_path / "bad.conf"
        cfg_file.write_text(via)
        via = ["--config", str(cfg_file)]
    assert main(via) == 1
    err = capsys.readouterr().err
    assert f"config error: {field}: must be a non-empty list without" in err


def test_config_builds_the_default_engine_and_scheduler_parameters():
    config = ExperimentConfig()
    assert config.engine_params() == EngineParams()
    for name in SCHEDULER_NAMES:
        assert config.scheduler_kind(name) == SchedulerKind(name)
    for seed in config.seeds:
        assert config.workload_spec(seed) == WorkloadSpec(seed=seed)


def test_readme_and_docstring_list_every_flag():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"^Flags \(.*?^```\n(.*?)^```", readme,
                      re.M | re.S).group(1)
    listed = {line.split()[0] for line in block.splitlines() if line.strip()}
    doc_words = set(cli.__doc__.split())
    for action in build_arg_parser()._actions:
        for option in action.option_strings:
            if option in ("-h", "--help"):
                continue
            assert option in listed, f"{option} missing from the README"
            if option != "--config":
                assert option in doc_words, f"{option} missing from cli.py"
