"""Command-line interface: run / grid / constants / bestresp."""

import argparse
import json
import sys
from contextlib import contextmanager

import numpy as np

from .evaluate import best_response, exploitability
from .game import GameError, _is_number, uniform_profile, validate_profile
from .harness import (ALGOS, CSV_FIELDS, REGS, RunConfig, grid, resolve_game,
                      run)
from .solvers import game_constants, lr_schedule, schedule_report
from .values import FEEDBACK_KINDS

INPUT_ERRORS = (OSError, ValueError, GameError)


def _parser():
    parser = argparse.ArgumentParser(
        prog="efglab",
        description="Extensive-form game solver laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    # RunConfig holds the defaults of `run` and `constants`.
    p = sub.add_parser("run", help="run one algorithm configuration",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--game", help="kuhn, leduc, or path to a JSON game file")
    p.add_argument("--algo", choices=ALGOS)
    p.add_argument("--feedback", choices=FEEDBACK_KINDS)
    p.add_argument("--reg", choices=REGS)
    p.add_argument("--alpha", type=float)
    p.add_argument("--eta", type=float)
    p.add_argument("--schedule", help="'uniform' or 'depth:RATIO'")
    p.add_argument("--tau", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--iters", type=int)
    p.add_argument("--eval-every", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--reps", type=int)
    p.add_argument("--explore-eps", type=float)
    p.add_argument("--anneal-decay", type=float)
    p.add_argument("--anneal-every", type=int)
    p.add_argument("--track-bregman", action="store_true")
    p.add_argument("--jobs", type=int)
    p.add_argument("--out", help="CSV output path")

    p = sub.add_parser("grid", help="grid search over eta/tau/gamma")
    p.add_argument("--spec", required=True,
                   help="JSON grid specification file")

    p = sub.add_parser("constants",
                       help="bound constants and schedule conformance",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--game")
    p.add_argument("--feedback", default="tq", choices=FEEDBACK_KINDS)
    p.add_argument("--reg", choices=REGS)
    p.add_argument("--alpha", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--eta", type=float)
    p.add_argument("--schedule")
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--delta", type=float, default=0.05)

    p = sub.add_parser("bestresp",
                       help="exact best responses and exploitability")
    p.add_argument("--game", default="kuhn")
    p.add_argument("--profile", default="",
                   help="JSON file: list of per-infoset distributions "
                        "(default: uniform)")
    return parser


@contextmanager
def _reading(path):
    """Name `path` in any input error raised while it is read and used."""
    try:
        yield
    except INPUT_ERRORS as e:
        raise ValueError(f"{path}: {e}") from e


def _metric(value):
    """A metric as the summary line prints it: never NaN or inf."""
    return f"{value:.6g}" if np.isfinite(value) else "non-finite"


def _run(**fields):
    outcome = run(RunConfig(**fields))
    last = outcome.rows[-1]
    print(f"rows: {len(outcome.rows)}  m-bound violations: "
          f"{outcome.m_violations}")
    print(f"final: iter={last['iter']} expl_last={_metric(last['expl_last'])}"
          + (f" expl_avg={_metric(last['expl_avg'])}"
             if last["expl_avg"] is not None else "")
          + (f" reg_gap={_metric(last['reg_gap'])}"
             if last["reg_gap"] is not None else ""))
    for row in outcome.rows:
        bad = [k for k in CSV_FIELDS
               if row[k] is not None and not np.isfinite(row[k])]
        if bad:
            print(f"error: non-finite {bad[0]} at seed {row['seed']} "
                  f"iteration {row['iter']}", file=sys.stderr)
            return 1
    return 0


def _grid(spec):
    with _reading(spec):
        ranked, best = grid(spec)
    print(f"cells: {len(ranked)}")
    print(f"best: eta={best['eta']} tau={best['tau']} "
          f"gamma={best['gamma']} expl={_metric(best['expl'])}"
          + (" (diverged: every cell is non-finite)"
             if best["diverged"] else ""))
    return 0


def _constants(horizon, delta, **fields):
    # The run fields obey the same rules as in `efglab run`.
    cfg = RunConfig(**fields)
    tree = resolve_game(cfg.game)
    c = game_constants(tree, cfg.feedback, cfg.reg, cfg.alpha, cfg.tau,
                       cfg.gamma, horizon=horizon, delta=delta)
    doc = {
        "game": tree.name,
        "num_infosets": tree.num_infosets,
        "gamma_seq": c.gamma_seq,
        "gamma_seq_bound": c.gamma_seq,
        "m1": c.m1, "m2": c.m2,
        "q_bound": c.q_bound, "q_bound_sampled": c.q_bound_sampled,
        "psi_max": c.psi_max, "psi_max_paper": c.psi_max_paper,
        "min_chance_mass": c.min_chance_mass,
        "c_diff_max": float(np.max(c.c_diff)),
        "c_minus_max": float(np.max(c.c_minus)),
        "c_slash_max": float(np.max(c.c_slash)),
        "c_eta_min": float(np.min(c.c_eta)),
    }
    if c.c_eta_T is not None:
        doc["c_eta_T_min"] = float(np.min(c.c_eta_T))
        doc["c_visit"] = c.c_visit
    eta = lr_schedule(tree, cfg.eta, cfg.schedule)
    rep = schedule_report(tree, eta, c, cfg.alpha)
    doc["schedule"] = {
        "cond_a_ok": rep.cond_a_ok,
        "cond_b_ok": rep.cond_b_ok,
        "cond_c_ok": rep.cond_c_ok,
        "violations": {"a": len(rep.violations_a),
                       "b": len(rep.violations_b),
                       "c": len(rep.violations_c)},
    }
    json.dump(doc, sys.stdout, indent=1, default=float)
    print()
    return 0


def _bestresp(game, profile):
    tree = resolve_game(game)
    if profile:
        with _reading(profile), open(profile) as f:
            rows = json.load(f)
            if not (isinstance(rows, list)
                    and all(isinstance(x, list) for x in rows)):
                raise ValueError("profile must be a list of lists of numbers")
            for si, x in enumerate(rows):
                if not all(map(_is_number, x)):
                    raise ValueError(f"profile[{si}]: non-finite or "
                                     f"non-numeric entries")
            profile = [np.asarray(x, dtype=np.float64) for x in rows]
            validate_profile(tree, profile)
    else:
        profile = uniform_profile(tree)
    v1, _ = best_response(tree, profile, 1)
    v2, _ = best_response(tree, profile, 2)
    print(f"best response value (player 1): {v1:.10g}")
    print(f"best response value (player 2): {v2:.10g}")
    print(f"exploitability: {exploitability(tree, profile):.10g}")
    return 0


_COMMANDS = {"run": _run, "grid": _grid, "constants": _constants,
             "bestresp": _bestresp}


def main(argv=None):
    args = vars(_parser().parse_args(argv))
    try:
        return _COMMANDS[args.pop("command")](**args)
    except INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
