"""Each experiment script in scripts/ runs to completion on tiny arguments,
and the package runs as a module."""

import os
import pathlib
import subprocess
import sys

import pytest

import splittings as sp

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args",
    [
        ("enumerate_small.py", ["--budget", "3"]),
        ("oracle_agreement.py", ["--words", "5"]),
        ("collapse_lattice.py", ["--words", "10"]),
    ],
)
def test_script_exits_0(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_census_script_over_cap_fails_cleanly():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    cap = sp.orbifold.CENSUS_MAX_BUDGET
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "enumerate_small.py"),
         "--budget", str(cap + 1)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and "CENSUS_MAX_BUDGET" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_module_entry_point():
    # python -m splittings is the console script, without runpy's warning
    # about re-running an already imported splittings.cli_io
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "splittings", "gbs", "length",
         str(ROOT / "inputs" / "bs23.txt"), "--word", "t"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "length = 1" in proc.stdout
