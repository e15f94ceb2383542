"""Experiment harness: configured runs, grids, CSV convergence traces.

A run executes one algorithm on one game for a number of iterations,
evaluating exact metrics at a fixed interval and emitting one CSV row per
evaluation point and repetition. Metrics not tracked by the configured
algorithm are left empty. Exploitability is evaluated on the current
strategy; the regularized gap and Bregman distance on the optimistic center
when the algorithm maintains one.
"""

import csv
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import solvers
from .evaluate import (bregman_to_reference, compute_reference,
                       exploitability, perturbed_regularized_gap)
from .game import load_game
from .games import build_kuhn, build_leduc
from .regularizers import ENTROPY
from .solvers import (SolverParams, SolverState, average_profile,
                      check_m_bounds, game_constants, lazy_catch_up)
from .values import TRAJQ, compute_feedback

ALGOS = ("qfr", "qfr-stoch", "qfr-lazy", "pga", "cfr", "cfrplus", "osmccfr",
         "mmd")
STOCHASTIC_ALGOS = ("qfr-stoch", "qfr-lazy", "osmccfr")
CSV_FIELDS = ("seed", "iter", "expl_last", "expl_avg", "reg_gap",
              "bregman_ref", "wall_ms")

PAPER_GRID = {
    "eta": [0.1, 0.01, 0.001, 0.0001],
    "tau": [0.1, 0.01, 0.001, 0.0001, 0.0],
    "gamma": [0.1, 0.01, 0.001, 0.0001],
}


@dataclass
class RunConfig:
    game: str = "kuhn"
    algo: str = "qfr"
    feedback: str = "q"
    reg: str = ENTROPY
    alpha: float = 1.0
    eta: float = 0.1
    schedule: str = "uniform"
    tau: float = 0.0
    gamma: float = 0.0
    iters: int = 1000
    eval_every: int = 100
    seed: int = 0
    reps: int = 1
    explore_eps: float = 0.6
    anneal_decay: float = 0.0
    anneal_every: int = 0
    track_bregman: bool = False
    out: str = ""
    jobs: int = 1


def resolve_game(name):
    if name == "kuhn":
        return build_kuhn()
    if name == "leduc":
        return build_leduc()
    return load_game(name)


def _make_params(tree, cfg):
    if cfg.algo not in ALGOS:
        raise ValueError(f"unknown algo {cfg.algo!r}")
    feedback = cfg.feedback
    if cfg.algo in ("qfr-stoch", "qfr-lazy"):
        if feedback != TRAJQ:
            raise ValueError(
                f"{cfg.algo} samples trajectory-q estimates; pass "
                f"feedback 'tq'")
    return SolverParams(
        tree, feedback=feedback, family=cfg.reg, alpha=cfg.alpha,
        tau=cfg.tau, gamma=cfg.gamma, eta=cfg.eta, schedule=cfg.schedule,
        explore_eps=cfg.explore_eps,
        anneal_decay=cfg.anneal_decay or None,
        anneal_every=cfg.anneal_every or None)


@dataclass
class RunOutcome:
    rows: list
    m_violations: int = 0
    final_profile: list = field(default=None)


def _eval_row(tree, cfg, params, state, seed, it, t0, reference, constants):
    row = {k: None for k in CSV_FIELDS}
    row["seed"] = seed
    row["iter"] = it
    row["expl_last"] = exploitability(tree, state.cur_views)
    if cfg.algo in ("cfr", "cfrplus", "osmccfr"):
        row["expl_avg"] = exploitability(tree, average_profile(state, tree))
    center = (state.bar_views if cfg.algo in ("qfr", "qfr-stoch", "qfr-lazy")
              else state.cur_views)
    if cfg.tau > 0.0:
        row["reg_gap"] = perturbed_regularized_gap(
            tree, center, cfg.tau, cfg.alpha, cfg.reg, params.simplexes)
    if reference is not None:
        row["bregman_ref"] = bregman_to_reference(tree, center, reference,
                                                  cfg.alpha, cfg.reg)
    row["wall_ms"] = (time.perf_counter() - t0) * 1000.0

    violations = 0
    if constants is not None:
        fb = compute_feedback(tree, state.cur_views, params.feedback,
                              0.0, params.alpha)
        violations = check_m_bounds(fb.m, constants)
    return row, violations


def run_single(cfg, seed, reference=None, tree=None):
    """One repetition. Returns a RunOutcome with one row per eval point."""
    if tree is None:
        tree = resolve_game(cfg.game)
    params = _make_params(tree, cfg)
    state = SolverState(tree, params)
    rng = np.random.default_rng(seed)
    constants = None
    if cfg.algo in ("qfr", "qfr-stoch", "qfr-lazy") and cfg.gamma > 0.0:
        constants = game_constants(tree, params.feedback, cfg.reg,
                                   cfg.alpha, cfg.tau, cfg.gamma)

    step = {
        "qfr": lambda: solvers.qfr_full_step(state, tree, params),
        "qfr-stoch": lambda: solvers.qfr_stochastic_step(
            state, tree, params, rng),
        "qfr-lazy": lambda: solvers.lazy_qfr_step(state, tree, params, rng),
        "pga": lambda: solvers.pga_step(state, tree, params),
        "cfr": lambda: solvers.cfr_step(state, tree, params),
        "cfrplus": lambda: solvers.cfr_plus_step(state, tree, params),
        "osmccfr": lambda: solvers.os_mccfr_step(state, tree, params, rng),
        "mmd": lambda: solvers.mmd_step(state, tree, params),
    }[cfg.algo]

    t0 = time.perf_counter()
    rows = []
    violations = 0
    eval_points = set()
    if cfg.eval_every > 0:
        eval_points.update(range(cfg.eval_every, cfg.iters + 1,
                                 cfg.eval_every))
    eval_points.add(cfg.iters)
    for it in range(1, cfg.iters + 1):
        step()
        if it in eval_points:
            if cfg.algo == "qfr-lazy":
                lazy_catch_up(state, tree, params)
            row, v = _eval_row(tree, cfg, params, state, seed, it, t0,
                               reference, constants)
            rows.append(row)
            violations += v
    return RunOutcome(rows, violations, state.profile(tree))


def _rep_worker(args):
    cfg, seed, reference = args
    out = run_single(cfg, seed, reference)
    return out.rows, out.m_violations


def run(cfg):
    """Execute all repetitions (seeds seed..seed+reps-1) of a config.

    Rows are merged in seed order, so output is independent of the number
    of worker processes.
    """
    tree = resolve_game(cfg.game)
    reference = None
    if cfg.track_bregman:
        if cfg.tau <= 0.0:
            raise ValueError("track_bregman requires tau > 0")
        reference, _ = compute_reference(tree, cfg.tau, cfg.alpha, cfg.reg,
                                         cfg.gamma)
    seeds = list(range(cfg.seed, cfg.seed + cfg.reps))
    rows = []
    violations = 0
    if cfg.jobs > 1 and len(seeds) > 1:
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            for rws, v in pool.map(_rep_worker,
                                   [(cfg, s, reference) for s in seeds]):
                rows.extend(rws)
                violations += v
    else:
        for s in seeds:
            out = run_single(cfg, s, reference, tree)
            rows.extend(out.rows)
            violations += out.m_violations
    outcome = RunOutcome(rows, violations)
    if cfg.out:
        write_csv(rows, cfg.out)
    return outcome


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def write_csv(rows, path):
    """Write convergence rows with the fixed header, '.' decimals and
    newline-only line endings; untracked metrics stay empty."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(CSV_FIELDS)
        for row in rows:
            w.writerow([_fmt(row[k]) for k in CSV_FIELDS])


# ---------------------------------------------------------------------------
# Grid search


def _cell_worker(args):
    cfg, reference = args
    seeds = list(range(cfg.seed, cfg.seed + cfg.reps))
    finals = []
    for s in seeds:
        out = run_single(cfg, s, reference)
        finals.append(out.rows[-1]["expl_last"])
    return float(np.mean(finals))


def grid(spec):
    """Grid search over (eta, tau, gamma) cells.

    spec is a dict (or path to a JSON file) holding RunConfig fields plus an
    optional "grid" entry with lists for eta/tau/gamma (defaults to the
    standard grid). Cells are ranked by final-iterate exploitability
    averaged over the repetitions' seeds; ties break lexicographically on
    (eta, tau, gamma). Cells whose exploitability is not finite are marked
    "diverged" and ranked last. Returns (cells, best) where each cell is a
    dict.
    """
    if isinstance(spec, str):
        with open(spec) as f:
            spec = json.load(f)
    spec = dict(spec)
    override = spec.pop("grid", {})
    if override == "paper-grid":
        override = {}
    axes = {**PAPER_GRID, **override}
    jobs = spec.pop("jobs", 1)
    out_path = spec.pop("out", "")
    base = RunConfig(**spec)

    cells = []
    for eta in axes["eta"]:
        for tau in axes["tau"]:
            for gamma in axes["gamma"]:
                cells.append(replace(base, eta=eta, tau=tau, gamma=gamma,
                                     out="", jobs=1))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            metrics = list(pool.map(_cell_worker,
                                    [(c, None) for c in cells]))
    else:
        metrics = [_cell_worker((c, None)) for c in cells]

    results = [{"eta": c.eta, "tau": c.tau, "gamma": c.gamma, "expl": m,
                "diverged": not np.isfinite(m)}
               for c, m in zip(cells, metrics)]
    # A non-finite exploitability has no rank: diverged cells go last, in
    # parameter order.
    ranked = sorted(results, key=lambda r: (
        r["diverged"], 0.0 if r["diverged"] else r["expl"], r["eta"],
        r["tau"], r["gamma"]))
    if out_path:
        with open(out_path, "w", newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["eta", "tau", "gamma", "expl"])
            for r in ranked:
                w.writerow([repr(float(r["eta"])), repr(float(r["tau"])),
                            repr(float(r["gamma"])), repr(float(r["expl"]))])
    return ranked, ranked[0]
