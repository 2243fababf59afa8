"""Each demo script and the README quick start run to completion and print
something, with or without NumPy installed."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fatflow

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
QUICK_START = re.search(r"^## Quick start \(library\)\n+```python\n(.*?)^```",
                        (ROOT / "README.md").read_text(), re.M | re.S).group(1)

# each demo and the README quick start, as code for `python -c`
SCRIPTS = {
    **{demo.name: f"import runpy\nrunpy.run_path({str(demo)!r}, run_name='__main__')"
       for demo in DEMOS},
    "README quick start": QUICK_START,
}
# and fatflow.cli.main on a small grid, writing to the first argument
WITHOUT_NUMPY = {
    "cli": "from fatflow.cli import main\n"
           "sys.exit(main(['--out', sys.argv[1], '--seed', '0', '--seed', '1',"
           " '--duration', '5']))",
    **SCRIPTS,
}


def run_code(code: str, *args: str) -> None:
    src = str(Path(fatflow.__file__).parents[1])
    done = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


@pytest.mark.parametrize("name", SCRIPTS)
def test_demo_runs(name):
    run_code(SCRIPTS[name])


@pytest.mark.parametrize("name", WITHOUT_NUMPY)
def test_runs_without_numpy(name, tmp_path):
    # a None entry in sys.modules makes every `import numpy` raise ImportError
    run_code("import sys\nsys.modules['numpy'] = None\n" + WITHOUT_NUMPY[name],
             str(tmp_path / "out"))
