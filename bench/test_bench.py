"""Tests of the benchmark itself: every output check rejects a deliberately
wrong output, and every workload runs end to end at a tiny size."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
from efglab.evaluate import exploitability
from efglab.game import exploration_distribution, random_profile
from efglab.games import build_kuhn, build_leduc

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


@pytest.fixture(scope="module")
def kuhn():
    return build_kuhn()


def _floored_profile(tree, gamma, rng):
    nu = exploration_distribution(tree)
    return [gamma * n + (1.0 - gamma) * rng.dirichlet(np.ones(n.shape[0]))
            for n in nu]


def test_oracle_matches_evaluate_on_random_profiles(kuhn):
    rng = np.random.default_rng(3)
    leduc = build_leduc()
    for tree in (kuhn, kuhn, kuhn, leduc):
        prof = random_profile(tree, rng)
        checks.check_exploitability(tree, prof, exploitability(tree, prof))


def test_exploitability_check_rejects_an_error_of_1e6(kuhn):
    prof = random_profile(kuhn, np.random.default_rng(4))
    right = exploitability(kuhn, prof)
    checks.check_exploitability(kuhn, prof, right)
    with pytest.raises(checks.CheckError):
        checks.check_exploitability(kuhn, prof, right + 1e-6)
    with pytest.raises(checks.CheckError):
        checks.check_exploitability(kuhn, prof, float("nan"))


def test_kuhn_bracket_rejects_values_that_miss_the_game_value():
    checks.check_kuhn_bracket(0.0, 0.1)
    with pytest.raises(checks.CheckError):
        checks.check_kuhn_bracket(-0.03, 0.1)      # v1 below -1/36
    with pytest.raises(checks.CheckError):
        checks.check_kuhn_bracket(0.0, -0.02)      # -v2 above -1/36


def test_simplex_check_rejects_a_row_off_its_perturbed_simplex(kuhn):
    gamma = 1e-2
    prof = _floored_profile(kuhn, gamma, np.random.default_rng(5))
    checks.check_in_perturbed_simplex(kuhn, prof, gamma)
    floor = gamma * exploration_distribution(kuhn)[3]

    below = [x.copy() for x in prof]
    below[3] = np.array([floor[0] - 1e-9, 1.0 - floor[0] + 1e-9])
    with pytest.raises(checks.CheckError):
        checks.check_in_perturbed_simplex(kuhn, below, gamma)

    off_sum = [x.copy() for x in prof]
    off_sum[3] = off_sum[3] * (1.0 + 1e-9)
    with pytest.raises(checks.CheckError):
        checks.check_in_perturbed_simplex(kuhn, off_sum, gamma)

    short = [x.copy() for x in prof]
    short[3] = np.array([1.0])
    with pytest.raises(checks.CheckError):
        checks.check_in_perturbed_simplex(kuhn, short, gamma)


def test_bit_equality_rejects_one_ulp(kuhn):
    state = np.concatenate(_floored_profile(kuhn, 1e-2,
                                            np.random.default_rng(6)))
    checks.check_bit_equal("state", state.copy(), state)
    nudged = state.copy()
    nudged[7] = np.nextafter(nudged[7], np.inf)
    with pytest.raises(checks.CheckError):
        checks.check_bit_equal("state", nudged, state)


def test_row_and_count_checks_reject_bad_values():
    checks.check_rows_finite([{"iter": 1, "expl_last": 0.1, "reg_gap": None}])
    with pytest.raises(checks.CheckError):
        checks.check_rows_finite([{"iter": 1, "expl_last": float("nan")}])
    checks.check_no_m_violations(0)
    with pytest.raises(checks.CheckError):
        checks.check_no_m_violations(1)
    checks.check_ratio("gap", 0.5, 1.0, 0.8)
    with pytest.raises(checks.CheckError):
        checks.check_ratio("gap", 0.81, 1.0, 0.8)
    checks.check_below("expl", 1e-4, 1e-3)
    with pytest.raises(checks.CheckError):
        checks.check_below("expl", 2e-3, 1e-3)


def _run_bench(cwd, *args):
    # PYTHONPATH is dropped: the benchmark must find efglab on its own.
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload",
                         ["kuhn-sampled", "leduc-full", "leduc-lazy"])
def test_tiny_run_passes_and_reports_every_declared_metric(workload, trace):
    proc = _run_bench(ROOT, "--workload", workload, "--seed", "1",
                      "--seconds", "0", "--trace", str(trace),
                      "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: m["unit"] for k, m in result["metrics"].items()}


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        shutil.copy(f, tmp_path / "bench")
    proc = _run_bench(tmp_path, "--workload", "leduc-full", "--seed", "0",
                      "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
