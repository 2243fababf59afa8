"""Each demo script runs to completion and prints something, with or without
NumPy installed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fatflow

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    src = str(Path(fatflow.__file__).parents[1])
    done = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


# fatflow.cli.main on a small grid, and each demo, as code for `python -c`
WITHOUT_NUMPY = {
    "cli": "from fatflow.cli import main\n"
           "sys.exit(main(['--out', sys.argv[1], '--seed', '0', '--seed', '1',"
           " '--duration', '5']))",
    **{demo.name: f"import runpy\nrunpy.run_path({str(demo)!r}, run_name='__main__')"
       for demo in DEMOS},
}


@pytest.mark.parametrize("name", WITHOUT_NUMPY)
def test_runs_without_numpy(name, tmp_path):
    # a None entry in sys.modules makes every `import numpy` raise ImportError
    code = "import sys\nsys.modules['numpy'] = None\n" + WITHOUT_NUMPY[name]
    src = str(Path(fatflow.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
