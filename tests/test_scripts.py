"""Each experiment script in scripts/ runs to completion on tiny arguments
and prints the same under any hash seed, and the package runs as a
module."""

import collections
import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

import splittings as sp

ROOT = pathlib.Path(__file__).resolve().parent.parent


SCRIPT_RUNS = [
    ("enumerate_small.py", ["--budget", "3"]),
    ("oracle_agreement.py", ["--words", "5"]),
    ("collapse_lattice.py", ["--words", "10"]),
]


def run_script(script, args, hash_seed=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("script, args", SCRIPT_RUNS)
def test_script_exits_0(script, args):
    proc = run_script(script, args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


@pytest.mark.parametrize("script, args", SCRIPT_RUNS)
def test_script_output_ignores_hash_seed(script, args):
    # set and frozenset order follows PYTHONHASHSEED; printed output must not
    runs = [run_script(script, args, seed) for seed in ("1", "3")]
    assert [p.returncode for p in runs] == [0, 0], runs[0].stderr + runs[1].stderr
    assert runs[0].stdout == runs[1].stdout


def test_census_script_over_cap_fails_cleanly():
    cap = sp.orbifold.CENSUS_MAX_BUDGET
    proc = run_script("enumerate_small.py", ["--budget", str(cap + 1)])
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and "CENSUS_MAX_BUDGET" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("script, args, message", [
    ("collapse_lattice.py", ["--maxlen", "0"], "sampled words need a length bound >= 1, got 0"),
    ("collapse_lattice.py", ["--words", "-1"], "sampled word count must be >= 0, got -1"),
    ("oracle_agreement.py", ["--maxlen", "0"], "sampled words need a length bound >= 1, got 0"),
    ("oracle_agreement.py", ["--words", "-1"], "sampled word count must be >= 0, got -1"),
    ("enumerate_small.py", ["--budget", "-1"], "census budget must be >= 0, got -1"),
], ids=["lattice-maxlen-0", "lattice-words--1", "oracle-maxlen-0", "oracle-words--1",
        "census-budget--1"])
def test_script_bad_argument_fails_cleanly(script, args, message):
    # a refused argument ends the run with exit 1 and one error line, as
    # the CLI does, not with a traceback or an empty table
    proc = run_script(script, args)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [f"error: {message}"]
    assert "Traceback" not in proc.stderr


def test_census_rows_match_each_budget():
    # the script tallies one enumeration at the top budget; each row must
    # count what the census at its own budget lists
    spec = importlib.util.spec_from_file_location(
        "enumerate_small", ROOT / "scripts" / "enumerate_small.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    rows = script.census_rows(5)
    assert [row["budget"] for row in rows] == list(range(6))
    for row in rows:
        orbs = sp.enumerate_orbifolds(row["budget"])
        hyperbolic = [o for o in orbs if sp.is_hyperbolic(o)]
        small = [sp.is_small(o).family for o in hyperbolic if sp.is_small(o).small]
        families = collections.Counter(str(f) for f in small)
        assert row["total"] == len(orbs)
        assert row["hyperbolic"] == len(hyperbolic)
        assert row["small"] == len(small)
        assert row["small_by_family"] == dict(sorted(families.items()))
        assert row["finite_mcg"] == sum(sp.has_finite_mcg(o).finite for o in hyperbolic)


def test_lattice_script_exits_on_failed_modularity(monkeypatch):
    # an explicit check, not an assert that python -O would skip
    spec = importlib.util.spec_from_file_location(
        "collapse_lattice", ROOT / "scripts" / "collapse_lattice.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script.ta, "verify_modularity", lambda m, ks, ws: [(0, 1)])
    with pytest.raises(SystemExit):
        script.main(2, 3, 0)


def test_bench_trace_names_resolve():
    # bench/run.py --trace 1 rebinds every (owner, attr) of TRACED; a
    # renamed or removed function must fail here, not only in a traced run
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", ROOT / "bench" / "tracing.py"
    )
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for owner, attr, name in tracing.TRACED:
        assert callable(getattr(owner, attr, None)), name


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
