"""Experiment harness and CLI: runs, grids, CSV format, subcommands."""

import csv
import json

import numpy as np
import pytest

from efglab.cli import main as cli_main
from efglab.harness import (CSV_FIELDS, PAPER_GRID, RunConfig, grid,
                            resolve_game, run, run_single)

EXPECTED_HEADER = "seed,iter,expl_last,expl_avg,reg_gap,bregman_ref,wall_ms"


def _read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


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


def test_stochastic_algo_requires_tq():
    cfg = RunConfig(game="kuhn", algo="qfr-stoch", feedback="cf", tau=0.01,
                    gamma=0.01, iters=1)
    with pytest.raises(ValueError):
        run(cfg)


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
    from efglab import harness

    def fake_worker(args):
        cfg, _ = args
        return {0.1: float("nan"), 0.01: 0.5, 0.001: float("inf"),
                0.0001: 0.25}[cfg.eta]

    monkeypatch.setattr(harness, "_cell_worker", fake_worker)
    spec = {"game": "kuhn", "algo": "qfr", "feedback": "q",
            "grid": {"eta": [0.1, 0.01, 0.001, 0.0001], "tau": [0.01],
                     "gamma": [0.01]}}
    ranked, best = grid(spec)
    assert [r["eta"] for r in ranked] == [0.0001, 0.01, 0.001, 0.1]
    assert [r["diverged"] for r in ranked] == [False, False, True, True]
    assert best["eta"] == 0.0001 and not best["diverged"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_grid_marks_a_diverged_best_cell(tmp_path, capsys):
    spec_path = tmp_path / "g.json"
    spec_path.write_text(json.dumps({
        "game": "kuhn", "algo": "pga", "feedback": "cf", "iters": 5,
        "eval_every": 5, "reg": "euclidean",
        "grid": {"eta": [1e300], "tau": [0.0], "gamma": [0.01]}}))
    assert cli_main(["grid", "--spec", str(spec_path)]) == 0
    out = capsys.readouterr().out
    assert "expl=nan (diverged" in out


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
