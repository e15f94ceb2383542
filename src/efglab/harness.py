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
import numbers
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from itertools import repeat

import numpy as np

from . import solvers
from .evaluate import (bregman_to_reference, compute_reference,
                       exploitability, perturbed_regularized_gap)
from .game import GameError, flatten_profile, load_game
from .games import build_kuhn, build_leduc
from .regularizers import ENTROPY, EUCLIDEAN, RATE_RULES, check_rate
from .solvers import (SolverParams, SolverState, average_flat, check_choice,
                      check_count, check_m_bounds, game_constants,
                      parse_schedule)
from .values import (FEEDBACK_KINDS, TRAJQ, infoset_reach, multiplier,
                     reach_flat)

# Each algorithm's step in `solvers`, looked up by name when a run starts,
# so a step patched on the module takes effect.
_STEPS = {"qfr": "qfr_full_step", "qfr-stoch": "qfr_stochastic_step",
          "qfr-lazy": "lazy_qfr_step", "pga": "pga_step", "cfr": "cfr_step",
          "cfrplus": "cfr_plus_step", "osmccfr": "os_mccfr_step",
          "mmd": "mmd_step"}
ALGOS = tuple(_STEPS)
OPTIMISTIC = ("qfr", "qfr-stoch", "qfr-lazy")
AVERAGING = ("cfr", "cfrplus", "osmccfr")
SAMPLED = ("qfr-stoch", "qfr-lazy")
REGS = (ENTROPY, EUCLIDEAN)
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

    def __post_init__(self):
        # A run spec is an input boundary: every field is checked here, so
        # a bad value fails before the game is built or a step is taken.
        for name, kinds in (("algo", ALGOS), ("feedback", FEEDBACK_KINDS),
                            ("reg", REGS)):
            check_choice(name, getattr(self, name), kinds)
        for name, kind in (("game", str), ("out", str),
                           ("track_bregman", bool)):
            if not isinstance(getattr(self, name), kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got "
                                 f"{getattr(self, name)!r}")
        for name, least in (("iters", 1), ("reps", 1), ("jobs", 1),
                            ("seed", 0), ("eval_every", 0),
                            ("anneal_every", 0)):
            check_count(name, getattr(self, name), least)
        for name in RATE_RULES:
            v = getattr(self, name)
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise ValueError(f"{name} must be a number, got {v!r}")
            check_rate(**{name: v})
        parse_schedule(self.schedule)
        if self.algo in SAMPLED and self.feedback != TRAJQ:
            raise ValueError(f"{self.algo} samples trajectory-q estimates; "
                             f"pass feedback 'tq'")
        if self.track_bregman and self.tau == 0.0:
            raise ValueError("track_bregman requires tau > 0")


RUN_FIELDS = frozenset(f.name for f in fields(RunConfig))


def resolve_game(name):
    """The built-in game "kuhn" or "leduc", or the game in JSON file `name`."""
    if name == "kuhn":
        return build_kuhn()
    if name == "leduc":
        return build_leduc()
    try:
        return load_game(name)
    except GameError as e:
        raise type(e)(f"{name}: {e}") from e


@dataclass
class RunOutcome:
    rows: list
    m_violations: int = 0
    final_profile: list = field(default=None)
    # (seed, iteration) of the first step that left a non-finite iterate.
    nonfinite_iterate: tuple = None


def _eval_row(tree, cfg, params, state, seed, it, t0, reference, constants):
    row = {k: None for k in CSV_FIELDS}
    row["seed"] = seed
    row["iter"] = it
    row["expl_last"] = exploitability(tree, state.cur)
    if cfg.algo in AVERAGING:
        row["expl_avg"] = exploitability(tree, average_flat(state, tree))
    center = state.bar if cfg.algo in OPTIMISTIC else state.cur
    if cfg.tau > 0.0:
        row["reg_gap"] = perturbed_regularized_gap(
            tree, center, cfg.tau, cfg.alpha, cfg.reg, params.gamma)
    if reference is not None:
        row["bregman_ref"] = bregman_to_reference(tree, center, reference,
                                                  cfg.alpha, cfg.reg)
    row["wall_ms"] = (time.perf_counter() - t0) * 1000.0

    violations = 0
    if constants is not None:
        reach = infoset_reach(tree, reach_flat(tree, state.cur))
        violations = check_m_bounds(multiplier(params.feedback, *reach),
                                    constants)
    return row, violations


def run_single(cfg, seed, reference=None, tree=None):
    """One repetition. Returns a RunOutcome with one row per eval point.
    `reference` is a per-infoset list or a flat pair array."""
    if tree is None:
        tree = resolve_game(cfg.game)
    if reference is not None:
        reference = flatten_profile(tree, reference)
    params = SolverParams(
        tree, feedback=cfg.feedback, family=cfg.reg, alpha=cfg.alpha,
        tau=cfg.tau, gamma=cfg.gamma, eta=cfg.eta, schedule=cfg.schedule,
        explore_eps=cfg.explore_eps, anneal_decay=cfg.anneal_decay,
        anneal_every=cfg.anneal_every)
    state = SolverState(tree, params)
    rng = np.random.default_rng(seed)
    constants = None
    if cfg.algo in OPTIMISTIC and cfg.gamma > 0.0:
        constants = game_constants(tree, params.feedback, cfg.reg,
                                   cfg.alpha, cfg.tau, cfg.gamma)

    step = getattr(solvers, _STEPS[cfg.algo])
    args = (state, tree, params) + (
        (rng,) if cfg.algo in (*SAMPLED, "osmccfr") else ())

    t0 = time.perf_counter()
    rows = []
    violations = 0
    nonfinite = None
    # A diverging run shows as the step that made its iterate non-finite
    # and as non-finite metrics in its rows, not as numpy warnings from
    # every step after it.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for it in range(1, cfg.iters + 1):
            step(*args)
            if nonfinite is None and not np.isfinite(state.cur).all():
                nonfinite = (seed, it)
            if it == cfg.iters or (cfg.eval_every
                                   and it % cfg.eval_every == 0):
                row, v = _eval_row(tree, cfg, params, state, seed, it, t0,
                                   reference, constants)
                rows.append(row)
                violations += v
    return RunOutcome(rows, violations, state.profile(tree), nonfinite)


def _run_ops(ops, jobs, tree, reference=None):
    """RunOutcomes of the (RunConfig, seed) operations `ops`, in order: in
    this process on the one game `tree`, or with jobs > 1 in a pool of
    worker processes that each build the game."""
    if jobs > 1 and len(ops) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(run_single, *zip(*ops), repeat(reference)))
    return [run_single(cfg, seed, reference, tree) for cfg, seed in ops]


def _open_out(path):
    # Opened before any work, so a bad output path fails at once.
    return open(path, "w", newline="") if path else nullcontext()


def run(cfg):
    """Execute all repetitions (seeds seed..seed+reps-1) of a config.

    Rows are merged in seed order, so output is independent of the number
    of worker processes.
    """
    tree = resolve_game(cfg.game)
    with _open_out(cfg.out) as f:
        reference = None
        if cfg.track_bregman:
            reference, _ = compute_reference(tree, cfg.tau, cfg.alpha,
                                             cfg.reg, cfg.gamma)
        seeds = range(cfg.seed, cfg.seed + cfg.reps)
        outs = _run_ops([(cfg, s) for s in seeds], cfg.jobs, tree, reference)
        rows = [row for out in outs for row in out.rows]
        if cfg.out:
            _write_rows(f, CSV_FIELDS, rows, _fmt)
    nonfinite = next((out.nonfinite_iterate for out in outs
                      if out.nonfinite_iterate is not None), None)
    return RunOutcome(rows, sum(out.m_violations for out in outs),
                      nonfinite_iterate=nonfinite)


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def _write_rows(f, header, rows, fmt):
    """CSV of `rows` under `header`, each value formatted by `fmt`."""
    w = csv.writer(f, lineterminator="\n")
    w.writerow(header)
    w.writerows([fmt(row[k]) for k in header] for row in rows)


# ---------------------------------------------------------------------------
# Grid search


def grid(spec):
    """Grid search over (eta, tau, gamma) cells.

    spec is a dict (or path to a JSON file) holding RunConfig fields plus an
    optional "grid" entry: "paper-grid" (the default, the standard grid) or
    an object of non-empty lists for any of eta/tau/gamma, the others taken
    from the standard grid. Cells are ranked by final-iterate exploitability
    averaged over the repetitions' seeds; ties break lexicographically on
    (eta, tau, gamma). Cells whose exploitability is not finite are marked
    "diverged" and ranked last. Returns (cells, best) where each cell is a
    dict. A spec of another shape, with an unknown key, or with a cell that
    is not a valid RunConfig raises ValueError before any cell runs.
    """
    if isinstance(spec, str):
        with open(spec) as f:
            spec = json.load(f)
    if not isinstance(spec, dict):
        raise ValueError(f"grid spec must be an object, got {spec!r}")
    spec = dict(spec)
    override = spec.pop("grid", "paper-grid")
    if override == "paper-grid":
        override = {}
    if not isinstance(override, dict):
        raise ValueError(f"grid must be 'paper-grid' or an object of lists, "
                         f"got {override!r}")
    unknown = (set(spec) - RUN_FIELDS) | (set(override) - set(PAPER_GRID))
    if unknown:
        raise ValueError(f"unknown grid spec key: "
                         f"{', '.join(sorted(map(str, unknown)))}")
    for name, axis in override.items():
        if not isinstance(axis, list) or not axis:
            raise ValueError(
                f"grid axis {name} must be a non-empty list, got {axis!r}")
    axes = {**PAPER_GRID, **override}
    cells = [RunConfig(**{**spec, "eta": eta, "tau": tau, "gamma": gamma})
             for eta in axes["eta"] for tau in axes["tau"]
             for gamma in axes["gamma"]]
    tree = resolve_game(cells[0].game)
    with _open_out(cells[0].out) as f:
        ops = [(c, s) for c in cells for s in range(c.seed, c.seed + c.reps)]
        finals = [out.rows[-1]["expl_last"]
                  for out in _run_ops(ops, cells[0].jobs, tree)]
        reps = cells[0].reps
        metrics = [float(np.mean(finals[i:i + reps]))
                   for i in range(0, len(finals), reps)]
        results = [{"eta": c.eta, "tau": c.tau, "gamma": c.gamma, "expl": m,
                    "diverged": not np.isfinite(m)}
                   for c, m in zip(cells, metrics)]
        # A non-finite exploitability has no rank: diverged cells go last,
        # in parameter order.
        ranked = sorted(results, key=lambda r: (
            r["diverged"], 0.0 if r["diverged"] else r["expl"], r["eta"],
            r["tau"], r["gamma"]))
        if cells[0].out:
            _write_rows(f, ("eta", "tau", "gamma", "expl"), ranked,
                        lambda v: repr(float(v)))
    return ranked, ranked[0]
