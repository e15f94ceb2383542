"""Experiment harness and CLI: runs, grids, CSV format, subcommands."""

import argparse
import csv
import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from inspect import signature

import numpy as np
import pytest

import efglab
from efglab import cli, harness
from efglab.cli import main as cli_main
from efglab.evaluate import exploitability
from efglab.game import dump_game, uniform_profile
from efglab.games import build_matching_pennies
from efglab.harness import (CSV_FIELDS, PAPER_GRID, RUN_FIELDS, RunConfig,
                            grid, resolve_game, run, run_single)
from efglab.solvers import game_constants
from efglab.values import TRAJQ

EXPECTED_HEADER = "seed,iter,expl_last,expl_avg,reg_gap,bregman_ref,wall_ms"


def _read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def _strip_wall_rows(rows):
    return [{k: v for k, v in r.items() if k != "wall_ms"} for r in rows]


def _strip_wall(lines):
    # wall_ms is a genuine wall-clock measurement and is excluded from
    # byte-level determinism checks.
    return [row[:-1] for row in lines]


def test_single_iteration_single_row(tmp_path):
    cfg = RunConfig(game="kuhn", algo="qfr", feedback="q", tau=0.01,
                    gamma=0.01, iters=1, eval_every=1, reps=3,
                    out=str(tmp_path / "a.csv"))
    outcome = run(cfg)
    rows = _read_csv(tmp_path / "a.csv")
    assert rows[0] == EXPECTED_HEADER.split(",")
    assert len(rows) == 1 + 3  # header + one row per seed
    seeds = [r[0] for r in rows[1:]]
    assert seeds == ["0", "1", "2"]
    assert all(r[1] == "1" for r in rows[1:])
    assert outcome.m_violations == 0


def test_csv_determinism(tmp_path):
    paths = []
    for name in ("x.csv", "y.csv"):
        cfg = RunConfig(game="kuhn", algo="qfr-stoch", feedback="tq",
                        tau=0.001, gamma=0.01, eta=0.05, iters=200,
                        eval_every=50, seed=3, reps=2,
                        out=str(tmp_path / name))
        run(cfg)
        paths.append(tmp_path / name)
    a, b = (_read_csv(p) for p in paths)
    assert _strip_wall(a) == _strip_wall(b)


def test_csv_format_and_empty_fields(tmp_path):
    # CFR tracks the average iterate but no regularized metrics: reg_gap and
    # bregman_ref stay empty.
    cfg = RunConfig(game="kuhn", algo="cfr", feedback="cf", tau=0.0,
                    gamma=0.0, iters=10, eval_every=5,
                    out=str(tmp_path / "c.csv"))
    run(cfg)
    raw = (tmp_path / "c.csv").read_bytes()
    assert b"\r" not in raw
    rows = _read_csv(tmp_path / "c.csv")
    assert rows[0] == EXPECTED_HEADER.split(",")
    for r in rows[1:]:
        assert r[3] != ""          # expl_avg tracked
        assert r[4] == ""          # reg_gap untracked
        assert r[5] == ""          # bregman_ref untracked
        assert "." in r[2]         # decimal point, not comma
        float(r[2]), float(r[6])


def test_eval_interval_row_count(tmp_path):
    cfg = RunConfig(game="kuhn", algo="mmd", feedback="q", tau=0.01,
                    gamma=0.01, iters=100, eval_every=30,
                    out=str(tmp_path / "d.csv"))
    run(cfg)
    rows = _read_csv(tmp_path / "d.csv")
    iters = [int(r[1]) for r in rows[1:]]
    assert iters == [30, 60, 90, 100]
    assert iters == sorted(iters)


def test_track_bregman_and_reg_gap(tmp_path):
    cfg = RunConfig(game="kuhn", algo="qfr", feedback="q", tau=0.05,
                    gamma=0.01, eta=0.05, iters=200, eval_every=100,
                    track_bregman=True, out=str(tmp_path / "e.csv"))
    run(cfg)
    rows = _read_csv(tmp_path / "e.csv")
    gaps = [float(r[4]) for r in rows[1:]]
    bregs = [float(r[5]) for r in rows[1:]]
    assert all(g >= -1e-10 for g in gaps)
    assert all(b >= -1e-10 for b in bregs)
    assert gaps[-1] < gaps[0]


def test_leduc_run_tracks_bregman_to_reference(tmp_path):
    # The paper's setting on Leduc: the reference solve to gap 1e-7 takes
    # a few thousand full-information steps.
    cfg = RunConfig(game="leduc", algo="qfr-stoch", feedback="tq",
                    tau=1e-3, gamma=1e-2, eta=1e-2, iters=10, eval_every=5,
                    reps=2, track_bregman=True, out=str(tmp_path / "l.csv"))
    run(cfg)
    rows = _read_csv(tmp_path / "l.csv")
    bregs = [float(r[5]) for r in rows[1:]]
    assert len(bregs) == 4
    assert all(np.isfinite(b) and b > 0.0 for b in bregs)


def test_evaluation_rows_convert_no_per_infoset_list(kuhn, monkeypatch):
    # The harness hands the evaluators flat pair arrays; only a reference
    # given as a list is converted, once per run.
    from efglab import evaluate, game, values
    conversions = []
    flatten = game.flatten_profile

    def counted(tree, profile):
        if not isinstance(profile, np.ndarray):
            conversions.append(len(profile))
        return flatten(tree, profile)

    for mod in (game, values, evaluate, harness):
        monkeypatch.setattr(mod, "flatten_profile", counted)
    reference = uniform_profile(kuhn)
    for algo, feedback in (("qfr", "q"), ("qfr-stoch", "tq"),
                           ("qfr-lazy", "tq"), ("cfrplus", "q")):
        cfg = RunConfig(game="kuhn", algo=algo, feedback=feedback, tau=1e-3,
                        gamma=1e-2, eta=1e-2, iters=20, eval_every=5)
        conversions.clear()
        out = run_single(cfg, 0, reference, kuhn)
        assert len(out.rows) == 4
        assert all(r["bregman_ref"] is not None for r in out.rows)
        assert conversions == [kuhn.num_infosets]


def test_stochastic_algo_requires_tq():
    with pytest.raises(ValueError):
        RunConfig(game="kuhn", algo="qfr-stoch", feedback="cf", tau=0.01,
                  gamma=0.01, iters=1)


def test_grid_single_cell():
    spec = {"game": "kuhn", "algo": "qfr", "feedback": "q", "iters": 20,
            "eval_every": 20,
            "grid": {"eta": [0.05], "tau": [0.01], "gamma": [0.01]}}
    ranked, best = grid(spec)
    assert len(ranked) == 1
    assert best == ranked[0]
    assert (best["eta"], best["tau"], best["gamma"]) == (0.05, 0.01, 0.01)


def test_grid_ranks_and_keeps_divergent_cells():
    # One huge step size: the cell must be recorded with its (large)
    # exploitability, not dropped.
    spec = {"game": "kuhn", "algo": "pga", "feedback": "cf", "iters": 50,
            "eval_every": 50, "reg": "euclidean",
            "grid": {"eta": [0.05, 1e6], "tau": [0.0], "gamma": [0.01]}}
    ranked, best = grid(spec)
    assert len(ranked) == 2
    assert best["eta"] == 0.05
    expl = [r["expl"] for r in ranked]
    assert expl == sorted(expl)


def test_grid_ranks_non_finite_cells_last(monkeypatch):
    def fake_run_single(cfg, seed, reference=None, tree=None):
        expl = {0.1: float("nan"), 0.01: 0.5, 0.001: float("inf"),
                0.0001: 0.25}[cfg.eta]
        return harness.RunOutcome([{"expl_last": expl}])

    monkeypatch.setattr(harness, "run_single", fake_run_single)
    spec = {"game": "kuhn", "algo": "qfr", "feedback": "q",
            "grid": {"eta": [0.1, 0.01, 0.001, 0.0001], "tau": [0.01],
                     "gamma": [0.01]}}
    ranked, best = grid(spec)
    assert [r["eta"] for r in ranked] == [0.0001, 0.01, 0.001, 0.1]
    assert [r["diverged"] for r in ranked] == [False, False, True, True]
    assert best["eta"] == 0.0001 and not best["diverged"]


@pytest.fixture
def nan_pga(monkeypatch):
    """Make every PGA step write NaN into the iterate."""
    from efglab import solvers

    def step(state, tree, params):
        state.cur[:] = np.nan
        state.t += 1

    monkeypatch.setattr(solvers, "pga_step", step)


def test_cli_grid_marks_a_diverged_best_cell(tmp_path, capsys, nan_pga):
    spec_path = tmp_path / "g.json"
    spec_path.write_text(json.dumps({
        "game": "kuhn", "algo": "pga", "feedback": "cf", "iters": 5,
        "eval_every": 5, "reg": "euclidean",
        "grid": {"eta": [0.1], "tau": [0.0], "gamma": [0.01]}}))
    assert cli_main(["grid", "--spec", str(spec_path)]) == 0
    out = capsys.readouterr().out
    assert "expl=non-finite (diverged" in out
    tokens = out.replace("=", " ").lower().split()
    assert not {"nan", "inf", "-inf"} & set(tokens)


@pytest.mark.parametrize("field, value", [
    ("eta", float("inf")), ("eta", float("nan")), ("eta", 0.0),
    ("eta", -0.1), ("tau", float("inf")), ("tau", -1e-3),
    ("gamma", float("nan")), ("gamma", -0.01), ("eta", "0.1"),
    ("tau", None), ("gamma", True)])
def test_run_config_rejects_bad_rates(field, value):
    with pytest.raises(ValueError, match=field):
        RunConfig(**{field: value})


def test_run_config_accepts_zero_tau_and_gamma():
    cfg = RunConfig(tau=0.0, gamma=0.0, eta=1e-12)
    assert (cfg.tau, cfg.gamma, cfg.eta) == (0.0, 0.0, 1e-12)


@pytest.mark.parametrize("flag, value", [
    ("--eta", "inf"), ("--eta", "0"), ("--tau", "-0.1"), ("--gamma", "nan")])
def test_cli_run_rejects_bad_rates(tmp_path, capsys, flag, value):
    out = tmp_path / "r.csv"
    rc = cli_main(["run", "--game", "kuhn", "--algo", "pga", "--feedback",
                   "cf", "--iters", "5", flag, value, "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"error: {flag[2:]} must be finite" in err
    assert not out.exists()


@pytest.mark.parametrize("rate, message", [
    (float("inf"), "eta must be finite and positive, got inf"),
    ("0.1", "eta must be a number, got '0.1'"),
    (None, "eta must be a number, got None")])
def test_cli_grid_rejects_bad_rates_before_any_cell_runs(tmp_path, capsys,
                                                         monkeypatch, rate,
                                                         message):
    ran = []
    monkeypatch.setattr(harness, "run_single",
                        lambda *a, **k: ran.append(a))
    spec_path = tmp_path / "g.json"
    spec_path.write_text(json.dumps({
        "game": "kuhn", "algo": "pga", "feedback": "cf", "iters": 5,
        "grid": {"eta": [0.1, rate], "tau": [0.0], "gamma": [0.01]}}))
    assert cli_main(["grid", "--spec", str(spec_path)]) == 2
    assert message in capsys.readouterr().err
    assert ran == []


def test_grid_defaults_to_standard_values():
    assert PAPER_GRID["eta"] == [0.1, 0.01, 0.001, 0.0001]
    assert PAPER_GRID["tau"] == [0.1, 0.01, 0.001, 0.0001, 0.0]
    assert PAPER_GRID["gamma"] == [0.1, 0.01, 0.001, 0.0001]
    spec = {"game": "kuhn", "algo": "qfr", "feedback": "q", "iters": 1,
            "eval_every": 1, "grid": "paper-grid"}
    # Named grid resolves to the standard values; just check cell count.
    ranked, _ = grid(spec)
    assert len(ranked) == 4 * 5 * 4


def test_grid_file_spec_and_output(tmp_path):
    spec_path = tmp_path / "spec.json"
    out_path = tmp_path / "grid.csv"
    spec_path.write_text(json.dumps({
        "game": "kuhn", "algo": "qfr", "feedback": "q", "iters": 10,
        "eval_every": 10, "out": str(out_path),
        "grid": {"eta": [0.1, 0.01], "tau": [0.01], "gamma": [0.01]}}))
    ranked, best = grid(str(spec_path))
    rows = _read_csv(out_path)
    assert rows[0] == ["eta", "tau", "gamma", "expl"]
    assert len(rows) == 3


def test_run_single_matches_run(tmp_path):
    cfg = RunConfig(game="kuhn", algo="qfr-lazy", feedback="tq", tau=0.01,
                    gamma=0.05, eta=0.05, iters=100, eval_every=50, seed=9)
    tree = resolve_game(cfg.game)
    solo = run_single(cfg, 9, tree=tree)
    merged = run(cfg)
    assert [r["expl_last"] for r in solo.rows] == \
        [r["expl_last"] for r in merged.rows]


def test_two_jobs_give_the_rows_of_one():
    cfg = RunConfig(game="kuhn", algo="qfr-stoch", feedback="tq", tau=0.01,
                    gamma=0.05, eta=0.05, iters=60, eval_every=30, seed=3,
                    reps=2)
    one = run(cfg)
    two = run(replace(cfg, jobs=2))
    assert _strip_wall_rows(two.rows) == _strip_wall_rows(one.rows)
    assert two.m_violations == one.m_violations


def test_grid_ranking_does_not_depend_on_jobs():
    spec = {"game": "kuhn", "algo": "qfr", "feedback": "q", "iters": 20,
            "eval_every": 20, "reps": 2,
            "grid": {"eta": [0.1, 0.01], "tau": [0.01], "gamma": [0.01, 0.1]}}
    ranked, _ = grid(spec)
    assert grid({**spec, "jobs": 2})[0] == ranked


# ---------------------------------------------------------------------------
# CLI


def test_cli_run(tmp_path, capsys):
    out = tmp_path / "run.csv"
    rc = cli_main(["run", "--game", "kuhn", "--algo", "qfr",
                   "--feedback", "q", "--tau", "0.01", "--gamma", "0.01",
                   "--eta", "0.05", "--iters", "20", "--eval-every", "10",
                   "--out", str(out)])
    assert rc == 0
    assert "m-bound violations: 0" in capsys.readouterr().out
    assert out.exists()
    assert _read_csv(out)[0] == EXPECTED_HEADER.split(",")


def test_cli_run_anneals_tau(tmp_path):
    args = ["run", "--game", "kuhn", "--algo", "qfr", "--feedback", "q",
            "--tau", "0.1", "--gamma", "0.01", "--eta", "0.05", "--iters",
            "40", "--eval-every", "10"]
    plain, annealed = tmp_path / "plain.csv", tmp_path / "annealed.csv"
    assert cli_main(args + ["--out", str(plain)]) == 0
    assert cli_main(args + ["--anneal-decay", "0.5", "--anneal-every", "10",
                            "--out", str(annealed)]) == 0
    rows_plain = _strip_wall(_read_csv(plain))
    rows_annealed = _strip_wall(_read_csv(annealed))
    assert rows_annealed[:2] == rows_plain[:2]  # header; first decay at 10
    assert rows_annealed[2:] != rows_plain[2:]


def test_cli_grid(tmp_path, capsys):
    spec_path = tmp_path / "g.json"
    spec_path.write_text(json.dumps({
        "game": "kuhn", "algo": "qfr", "feedback": "q", "iters": 5,
        "eval_every": 5,
        "grid": {"eta": [0.1], "tau": [0.01], "gamma": [0.01]}}))
    rc = cli_main(["grid", "--spec", str(spec_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "cells: 1" in out
    assert "best: eta=0.1" in out


def test_cli_constants_cf_and_tq(capsys):
    rc = cli_main(["constants", "--game", "kuhn", "--feedback", "cf",
                   "--tau", "0.0", "--gamma", "0.1"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["m1"] == 1.0 and doc["m2"] == 1.0
    assert doc["q_bound"] == 1.0

    rc = cli_main(["constants", "--game", "kuhn", "--feedback", "tq",
                   "--tau", "0.01", "--gamma", "0.1"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["m2"] == pytest.approx(1.0 / doc["gamma_seq"])
    assert "schedule" in doc


def test_cli_constants_writes_nothing_to_stderr():
    # At gamma = 0 an infoset without decision ancestors multiplies a step
    # size of 0 by an infinite bound in condition B; that NaN violates
    # nothing and must not print a numpy warning either.
    src = os.path.dirname(os.path.dirname(efglab.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from efglab.cli import main; "
         "sys.exit(main())", "constants", "--game", "kuhn", "--feedback",
         "q", "--tau", "0.01", "--gamma", "0"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""
    # Every infoset but player 1's three first ones has a decision ancestor
    # and breaks the infinite bound.
    assert json.loads(proc.stdout)["schedule"]["violations"]["b"] == 9


def test_cli_constants_horizon_writes_the_high_probability_caps(capsys):
    flags = ["constants", "--game", "kuhn", "--gamma", "0.1", "--tau", "0.01"]
    assert cli_main(flags) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "c_eta_T_min" not in doc and "c_visit" not in doc
    assert cli_main(flags + ["--horizon", "1000", "--delta", "0.1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    # The default feedback of `constants` is tq.
    want = game_constants(resolve_game("kuhn"), TRAJQ, "entropy", tau=0.01,
                          gamma0=0.1, horizon=1000, delta=0.1)
    assert doc["c_eta_T_min"] == float(np.min(want.c_eta_T))
    assert doc["c_visit"] == want.c_visit
    assert 0.0 < doc["c_eta_T_min"] < doc["c_eta_min"]


# Rates so extreme that Leduc's bound constants overflow to inf by design.
EXTREME = ["--game", "leduc", "--feedback", "q", "--reg", "euclidean",
           "--alpha", "1e-300", "--tau", "0.1", "--gamma", "0.01"]


@pytest.mark.parametrize("command, rc, err", [
    (["run", *EXTREME, "--eta", "1e300", "--iters", "2", "--eval-every", "1"],
     1, "error: non-finite iterate at seed 0 iteration 1\n"),
    (["constants", *EXTREME], 0, ""),
], ids=["run", "constants"])
def test_cli_extreme_rates_raise_no_numpy_warning(capsys, command, rc, err):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli_main(command) == rc
    captured = capsys.readouterr()
    assert captured.err == err
    if command[0] == "constants":
        assert json.loads(captured.out)["c_slash_max"] == float("inf")


def test_cli_bestresp_uniform_and_profile(tmp_path, capsys):
    rc = cli_main(["bestresp", "--game", "kuhn"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "exploitability" in out

    tree = resolve_game("kuhn")
    prof = [list(np.full(n, 1.0 / n)) for n in tree.actions_per_infoset]
    p = tmp_path / "prof.json"
    p.write_text(json.dumps(prof))
    rc = cli_main(["bestresp", "--game", "kuhn", "--profile", str(p)])
    assert rc == 0
    out2 = capsys.readouterr().out
    assert out.splitlines()[-1] == out2.splitlines()[-1]
    # The printed exploitability is exploitability(tree, prof)'s.
    assert out.splitlines()[-1] == (
        f"exploitability: {exploitability(tree, prof):.10g}")


@pytest.mark.parametrize("row, message", [
    ([1 / 3, 1 / 3, 1 / 3], "wrong shape"),
    ([float("nan"), float("nan")], "non-finite"),
])
def test_cli_bestresp_rejects_malformed_profile(tmp_path, capsys, row,
                                                message):
    tree = resolve_game("kuhn")
    prof = [row for _ in range(tree.num_infosets)]
    p = tmp_path / "prof.json"
    p.write_text(json.dumps(prof))
    rc = cli_main(["bestresp", "--game", "kuhn", "--profile", str(p)])
    assert rc == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "exploitability" not in captured.out


def test_cli_run_reports_non_finite_metric(tmp_path, capsys, monkeypatch):
    # A finite iterate whose exploitability reads NaN.
    monkeypatch.setattr(harness, "exploitability",
                        lambda tree, flat: float("nan"))
    out = tmp_path / "r.csv"
    rc = cli_main(["run", "--game", "kuhn", "--algo", "pga",
                   "--feedback", "cf", "--reg", "euclidean",
                   "--gamma", "0.01", "--iters", "5",
                   "--eval-every", "5", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: non-finite expl_last at seed 0 iteration 5"]
    # The CSV is still written, with its schema unchanged.
    lines = _read_csv(out)
    assert lines[0] == EXPECTED_HEADER.split(",")
    assert lines[1][2] == "nan"


def test_cli_run_names_the_step_that_made_the_iterate_non_finite(capsys):
    rc = cli_main(["run", "--game", "kuhn", "--algo", "mmd", "--feedback",
                   "q", "--reg", "euclidean", "--alpha", "1e-300", "--eta",
                   "1e300", "--tau", "0.1", "--gamma", "0.01", "--iters",
                   "150", "--eval-every", "100"])
    assert rc == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: non-finite iterate at seed 0 iteration 1"]


def test_run_keeps_the_first_non_finite_iterate_in_seed_order(monkeypatch):
    # Seed s's iterate turns NaN at step 3 - s: seed 1's at step 2, seed
    # 2's at step 1.
    from efglab import solvers
    pga_step, original_run_single = solvers.pga_step, harness.run_single
    seeds = []

    def step(state, tree, params):
        pga_step(state, tree, params)
        if state.t >= 3 - seeds[-1]:
            state.cur[0] = np.nan

    def seeded_run_single(cfg, seed, *args):
        seeds.append(seed)
        return original_run_single(cfg, seed, *args)

    monkeypatch.setattr(solvers, "pga_step", step)
    monkeypatch.setattr(harness, "run_single", seeded_run_single)
    cfg = RunConfig(algo="pga", feedback="cf", iters=4, seed=1, reps=2)
    assert [harness.run_single(cfg, s).nonfinite_iterate
            for s in (1, 2)] == [(1, 2), (2, 1)]
    assert run(cfg).nonfinite_iterate == (1, 2)


def test_a_finite_run_records_no_non_finite_iterate():
    cfg = RunConfig(algo="qfr-stoch", feedback="tq", tau=0.1, gamma=0.01,
                    iters=50, eval_every=25)
    assert run_single(cfg, 0).nonfinite_iterate is None
    assert run(replace(cfg, reps=2)).nonfinite_iterate is None


@pytest.mark.parametrize("argv", [
    ["--algo", "mmd", "--feedback", "q", "--reg", "euclidean",
     "--alpha", "1e-300", "--eta", "1e300", "--tau", "0.1",
     "--gamma", "0.01", "--iters", "3", "--eval-every", "1"],
    ["--algo", "pga", "--feedback", "cf", "--reg", "euclidean",
     "--gamma", "0.01", "--iters", "5", "--eval-every", "5"],
], ids=["mmd-overflow", "nan-pga"])
@pytest.mark.filterwarnings("error")  # no numpy warning leaks either
def test_cli_run_prints_no_non_finite_value(tmp_path, capsys, nan_pga,
                                            argv):
    rc = cli_main(["run", "--game", "kuhn", *argv,
                   "--out", str(tmp_path / "r.csv")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.strip().splitlines()[-1].startswith(
        "error: non-finite")
    tokens = captured.out.replace("=", " ").lower().split()
    assert not {"nan", "inf", "-inf"} & set(tokens)
    assert "non-finite" in captured.out


def test_cli_run_with_a_huge_finite_step_reports_a_finite_metric(tmp_path):
    out = tmp_path / "r.csv"
    rc = cli_main(["run", "--game", "kuhn", "--algo", "pga",
                   "--feedback", "cf", "--reg", "euclidean",
                   "--eta", "1e300", "--gamma", "0.01", "--iters", "5",
                   "--eval-every", "5", "--out", str(out)])
    assert rc == 0
    assert np.isfinite(float(_read_csv(out)[1][2]))


def test_cli_bestresp_missing_profile_file(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    rc = cli_main(["bestresp", "--game", "kuhn", "--profile", str(missing)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {missing}: ")
    assert "exploitability" not in captured.out


# ---------------------------------------------------------------------------
# Input rules: every bad run field fails at RunConfig, before any step, and
# the CLI reports it on one line with exit code 2.

RUN_FLAGS = [
    "--algo", "--alpha", "--anneal-decay", "--anneal-every", "--eta",
    "--eval-every", "--explore-eps", "--feedback", "--game", "--gamma",
    "--iters", "--jobs", "--out", "--reg", "--reps", "--schedule", "--seed",
    "--tau", "--track-bregman",
]

# (run flags, the same fields as a RunConfig / grid spec)
BAD_RUNS = [
    (["--iters", "0"], {"iters": 0}),
    (["--reps", "0"], {"reps": 0}),
    (["--seed", "-1"], {"seed": -1}),
    (["--schedule", "bogus"], {"schedule": "bogus"}),
    (["--schedule", "depth:0"], {"schedule": "depth:0"}),
    (["--algo", "qfr-stoch", "--feedback", "q"],
     {"algo": "qfr-stoch", "feedback": "q"}),
    (["--track-bregman", "--tau", "0"], {"track_bregman": True, "tau": 0.0}),
    (["--alpha", "nan"], {"alpha": float("nan")}),
    (["--anneal-decay", "nan", "--anneal-every", "10"],
     {"anneal_decay": float("nan"), "anneal_every": 10}),
    (["--alpha", "-1"], {"alpha": -1.0}),
    (["--explore-eps", "2", "--algo", "osmccfr"],
     {"explore_eps": 2.0, "algo": "osmccfr"}),
    (["--eval-every", "-3"], {"eval_every": -3}),
    (["--anneal-every", "-5"], {"anneal_every": -5}),
    (["--jobs", "0"], {"jobs": 0}),
    (["--gamma", "2"], {"gamma": 2.0}),
]
BAD_RUN_IDS = [" ".join(flags) for flags, _ in BAD_RUNS]


@pytest.fixture
def no_runs(monkeypatch):
    """Record every call of run_single instead of making it."""
    calls = []
    monkeypatch.setattr(harness, "run_single",
                        lambda *a, **k: calls.append(a))
    return calls


def _assert_one_error_line(capsys, rc):
    """Check for exit code 2 and a single error line; return that line."""
    assert rc == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert captured.out == ""
    return lines[0]


@pytest.mark.parametrize("fields", [f for _, f in BAD_RUNS],
                         ids=BAD_RUN_IDS)
def test_run_config_rejects_bad_fields(fields):
    with pytest.raises(ValueError):
        RunConfig(**fields)


@pytest.mark.parametrize("fields", [
    {"algo": "qfr2"}, {"feedback": "x"}, {"reg": "l2"}, {"game": 5},
    {"out": None}, {"track_bregman": 1}, {"iters": 10.0}, {"reps": True},
    {"alpha": "1"}, {"explore_eps": None}, {"schedule": ("depth", 0.5)},
    {"schedule": "depth:abc"}, {"schedule": "depth:1.5"}])
def test_run_config_rejects_bad_types_and_values(fields):
    with pytest.raises(ValueError, match=next(iter(fields))):
        RunConfig(**fields)


def _game_file(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    return str(path)


def _bad_utility_game(tmp_path):
    doc = dump_game(build_matching_pennies())
    doc["nodes"][2]["utility_p1"] = 5.0
    return _game_file(tmp_path, json.dumps(doc))


BAD_GAME_FILES = {
    "utility 5": _bad_utility_game,
    "empty file": lambda tmp_path: _game_file(tmp_path, ""),
    "node not an object": lambda tmp_path: _game_file(
        tmp_path, '{"name": "x", "root": 0, "nodes": [5]}'),
    "name not a string": lambda tmp_path: _game_file(
        tmp_path, json.dumps({**dump_game(build_matching_pennies()),
                              "name": 5})),
}


@pytest.mark.parametrize("flags", [f for f, _ in BAD_RUNS] + [
    ["--game", "missing.json"], ["--game", _bad_utility_game]],
    ids=BAD_RUN_IDS + ["missing game", "utility 5"])
def test_cli_run_rejects_bad_input(tmp_path, capsys, no_runs, flags):
    flags = [f(tmp_path) if callable(f) else f for f in flags]
    out = tmp_path / "r.csv"
    _assert_one_error_line(capsys,
                           cli_main(["run", *flags, "--out", str(out)]))
    assert no_runs == []
    assert not out.exists()


def _one_cell_spec(fields):
    rates = {"eta": 0.1, "tau": 0.01, "gamma": 0.01}
    return {"game": "kuhn", "iters": 5,
            **{k: v for k, v in fields.items() if k not in rates},
            "grid": {k: [fields.get(k, v)] for k, v in rates.items()}}


@pytest.mark.parametrize("spec", [
    *(_one_cell_spec(f) for _, f in BAD_RUNS),
    [1, 2],
    {"game": "kuhn", "iter": 5},
    {"game": "kuhn", "grid": {"eta": 0.1}},
    {"game": "kuhn", "grid": {"eta": []}},
    {"game": "kuhn", "grid": {"rate": [0.1]}},
    {"game": "kuhn", "grid": 5}],
    ids=BAD_RUN_IDS + ["list spec", "unknown key", "axis not a list",
                       "empty axis", "unknown axis", "grid not an object"])
def test_cli_grid_rejects_bad_spec_before_any_cell_runs(tmp_path, capsys,
                                                        no_runs, spec):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(spec))
    _assert_one_error_line(capsys, cli_main(["grid", "--spec", str(path)]))
    assert no_runs == []


@pytest.mark.parametrize("command", ["run", "bestresp"])
@pytest.mark.parametrize("make", BAD_GAME_FILES.values(), ids=BAD_GAME_FILES)
def test_cli_game_file_errors_name_the_file(tmp_path, capsys, no_runs,
                                            command, make):
    path = make(tmp_path)
    line = _assert_one_error_line(capsys,
                                  cli_main([command, "--game", path]))
    assert line.startswith(f"error: {path}: ")
    assert no_runs == []


@pytest.mark.parametrize("command", ["run", "grid"])
def test_cli_rejects_an_unwritable_out_before_any_work(tmp_path, capsys,
                                                       monkeypatch, no_runs,
                                                       command):
    monkeypatch.setattr(harness, "compute_reference",
                        lambda *a, **k: no_runs.append(a))
    out = str(tmp_path / "missing" / "x.csv")
    if command == "run":
        argv = ["run", "--track-bregman", "--tau", "0.1", "--out", out]
    else:
        spec = tmp_path / "g.json"
        spec.write_text(json.dumps({**_one_cell_spec({}), "out": out}))
        argv = ["grid", "--spec", str(spec)]
    assert out in _assert_one_error_line(capsys, cli_main(argv))
    assert no_runs == []


def test_grid_with_one_job_builds_its_game_once(monkeypatch):
    built = []

    def counting_resolve_game(name):
        built.append(name)
        return resolve_game(name)

    monkeypatch.setattr(harness, "resolve_game", counting_resolve_game)
    spec = {"game": "kuhn", "algo": "qfr", "feedback": "q", "iters": 2,
            "eval_every": 2, "reps": 2,
            "grid": {"eta": [0.1, 0.01], "tau": [0.01], "gamma": [0.01]}}
    assert len(grid(spec)[0]) == 2
    assert built == ["kuhn"]


def test_grid_names_an_unknown_spec_key():
    with pytest.raises(ValueError, match="unknown grid spec key: iter"):
        grid({"game": "kuhn", "iter": 5})


def test_cli_run_without_flags_hands_run_config_defaults(monkeypatch):
    class Stop(Exception):
        pass

    seen = []

    def fake_run(cfg):
        seen.append(cfg)
        raise Stop

    monkeypatch.setattr(cli, "run", fake_run)
    with pytest.raises(Stop):
        cli_main(["run"])
    assert seen == [RunConfig()]


def test_cli_constants_and_bestresp_defaults_come_from_their_source(
        monkeypatch, capsys):
    # Without --horizon and --delta, `constants` computes with
    # game_constants' own defaults; without --game, `bestresp` reads
    # RunConfig's game.
    seen = {}

    def recording_constants(*args, **kwargs):
        bound = signature(game_constants).bind(*args, **kwargs)
        bound.apply_defaults()
        seen.update(bound.arguments)
        return game_constants(*args, **kwargs)

    def recording_resolve(name):
        seen["game"] = name
        return resolve_game(name)

    monkeypatch.setattr(cli, "game_constants", recording_constants)
    monkeypatch.setattr(cli, "resolve_game", recording_resolve)
    assert cli_main(["constants", "--game", "leduc"]) == 0
    defaults = signature(game_constants).parameters
    assert seen["horizon"] is defaults["horizon"].default is None
    assert seen["delta"] == defaults["delta"].default
    assert cli_main(["bestresp"]) == 0
    assert seen["game"] == RunConfig.game
    capsys.readouterr()


def test_run_flags_are_pinned_and_name_every_run_config_field():
    sub = next(a for a in cli._parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    actions = [a for a in sub.choices["run"]._actions if a.dest != "help"]
    assert sorted(s for a in actions for s in a.option_strings) == RUN_FLAGS
    assert {a.dest for a in actions} == RUN_FIELDS


@pytest.mark.parametrize("flags", [
    ["--gamma", "2"], ["--alpha", "0"], ["--horizon", "0"],
    ["--schedule", "bogus"], ["--delta", "0"], ["--delta", "1"],
    ["--tau", "-1"], ["--eta", "nan"], ["--game", "missing.json"]])
def test_cli_constants_rejects_bad_input(capsys, flags):
    _assert_one_error_line(capsys, cli_main(["constants", *flags]))


def test_cli_bestresp_missing_game_file(tmp_path, capsys):
    missing = tmp_path / "absent.json"
    _assert_one_error_line(
        capsys, cli_main(["bestresp", "--game", str(missing)]))


@pytest.mark.parametrize("doc", [
    5, [[{}, 0.5]],
    # JSON booleans and numeric strings, which load_game rejects too.
    [[True, False]] + [[0.5, 0.5]] * 11,
    [["0.5", "0.5"]] + [[0.5, 0.5]] * 11])
def test_cli_bestresp_rejects_a_profile_that_is_not_lists_of_numbers(
        tmp_path, capsys, doc):
    p = tmp_path / "prof.json"
    p.write_text(json.dumps(doc))
    line = _assert_one_error_line(capsys,
                                  cli_main(["bestresp", "--profile", str(p)]))
    assert line.startswith(f"error: {p}: ")
