"""Smoke test: every notebook script runs to completion against the package.

Each script runs in its own interpreter with the source tree on the path
and TMPDIR pointed at the test's temporary directory. The notebooks that
write files do so in a ``tempfile.mkdtemp`` scratch directory, which they
must remove before they exit.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
NOTEBOOKS = sorted((ROOT / "notebooks").glob("*.py"))


def test_notebooks_found():
    assert len(NOTEBOOKS) == 5


@pytest.mark.parametrize("script", NOTEBOOKS, ids=[p.name for p in NOTEBOOKS])
def test_notebook_runs(script, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert not list(tmp_path.glob("slidessl_demo_*"))
