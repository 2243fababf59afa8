import re
import sys
from pathlib import Path

# this tree's package, behind whatever PYTHONPATH names: a run with
# PYTHONPATH=<another checkout>/src tests that checkout's fatflow
sys.path.append(str(Path(__file__).resolve().parents[1] / "src"))

_ACCEPTANCE = {}

_TITLES = {
    1: "topology closed forms for k in {2,4,6,8}",
    2: "max-min allocation matches the exact oracle on 200 random instances",
    3: "lexicographic selection matches brute force on 1,000 candidate lists",
    4: "scalarized objective properties (alpha=0, joint scaling, flip case)",
    5: "load-balance efficiency closed forms and scale invariance",
    6: "uniform ECMP workload balances uplink elephant detection within 10%",
    7: "bisection bandwidth ordering (Hedera baseline: hedera-gff) and "
       "SP-over-ECMP margin",
    8: "median link utilization SP > ECMP",
    9: "mice loss and RTT deviation SP <= ECMP",
    10: "monitoring cost counters per poll",
    11: "proactive/controller dispatch split in [0.48, 0.52]",
    12: "identical config twice gives bit-identical bundles",
}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    m = re.search(r"test_acceptance\.py::test_criterion_(\d+)", report.nodeid)
    if m:
        n = int(m.group(1))
        # keep the worst outcome if a criterion spans several phases
        _ACCEPTANCE[n] = _ACCEPTANCE.get(n, True) and report.passed


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(_ACCEPTANCE):
        verdict = "PASS" if _ACCEPTANCE[n] else "FAIL"
        terminalreporter.write_line(f"criterion {n:2d}: {verdict} - {_TITLES[n]}")
