"""Smoke tests of `scripts/`: each runs as a subprocess against this
checkout's `src`, the way `tests/test_cli.py` runs the CLI."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"


@pytest.mark.parametrize("argv", [
    ["run_order6_family.py"],
], ids=lambda argv: argv[0])
def test_script_runs(argv):
    env = dict(os.environ)
    env.pop("ROBUSTLRS_CONFIG", None)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (str(SRC) + os.pathsep + inherited
                         if inherited else str(SRC))
    p = subprocess.run([sys.executable, str(REPO_ROOT / "scripts" / argv[0]),
                        *argv[1:]], capture_output=True, text=True,
                       cwd=REPO_ROOT, env=env, timeout=300)
    assert p.returncode == 0, p.stderr
    assert p.stdout.strip(), p.stderr


def test_script_runs_from_another_directory(tmp_path):
    """A script finds the package from its own path: no PYTHONPATH, and
    run from outside the checkout."""
    env = dict(os.environ)
    env.pop("ROBUSTLRS_CONFIG", None)
    env.pop("PYTHONPATH", None)
    p = subprocess.run([sys.executable,
                        str(REPO_ROOT / "scripts" / "run_order6_family.py")],
                       capture_output=True, text=True, cwd=tmp_path, env=env,
                       timeout=300)
    assert p.returncode == 0, p.stderr
    assert p.stdout.strip(), p.stderr
