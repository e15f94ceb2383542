"""Command-line interface: run / grid / constants / bestresp."""

import argparse
import json
import sys

import numpy as np

from .evaluate import best_response, exploitability
from .game import gamma_lower_bound, uniform_profile, validate_profile
from .harness import ALGOS, CSV_FIELDS, RunConfig, grid, resolve_game, run
from .solvers import game_constants, lr_schedule, schedule_report


def _add_run_args(p):
    p.add_argument("--game", default="kuhn",
                   help="kuhn, leduc, or path to a JSON game file")
    p.add_argument("--algo", default="qfr", choices=ALGOS)
    p.add_argument("--feedback", default="q", choices=["cf", "q", "tq"])
    p.add_argument("--reg", default="entropy",
                   choices=["entropy", "euclidean"])
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--eta", type=float, default=0.1)
    p.add_argument("--schedule", default="uniform",
                   help="'uniform' or 'depth:RATIO'")
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--eval-every", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--explore-eps", type=float, default=0.6)
    p.add_argument("--anneal-decay", type=float, default=0.0)
    p.add_argument("--anneal-every", type=int, default=0)
    p.add_argument("--track-bregman", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out", default="", help="CSV output path")


def _cfg_from_args(args):
    return RunConfig(
        game=args.game, algo=args.algo, feedback=args.feedback, reg=args.reg,
        alpha=args.alpha, eta=args.eta, schedule=args.schedule, tau=args.tau,
        gamma=args.gamma, iters=args.iters, eval_every=args.eval_every,
        seed=args.seed, reps=args.reps, explore_eps=args.explore_eps,
        anneal_decay=args.anneal_decay, anneal_every=args.anneal_every,
        track_bregman=args.track_bregman, out=args.out, jobs=args.jobs)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="efglab",
        description="Extensive-form game solver laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one algorithm configuration")
    _add_run_args(p_run)

    p_grid = sub.add_parser("grid", help="grid search over eta/tau/gamma")
    p_grid.add_argument("--spec", required=True,
                        help="JSON grid specification file")

    p_const = sub.add_parser("constants",
                             help="bound constants and schedule conformance")
    p_const.add_argument("--game", default="kuhn")
    p_const.add_argument("--feedback", default="tq",
                         choices=["cf", "q", "tq"])
    p_const.add_argument("--reg", default="entropy",
                         choices=["entropy", "euclidean"])
    p_const.add_argument("--alpha", type=float, default=1.0)
    p_const.add_argument("--tau", type=float, default=0.0)
    p_const.add_argument("--gamma", type=float, default=0.0)
    p_const.add_argument("--eta", type=float, default=0.1)
    p_const.add_argument("--schedule", default="uniform")
    p_const.add_argument("--horizon", type=int, default=None)
    p_const.add_argument("--delta", type=float, default=0.05)

    p_br = sub.add_parser("bestresp",
                          help="exact best responses and exploitability")
    p_br.add_argument("--game", default="kuhn")
    p_br.add_argument("--profile", default="",
                      help="JSON file: list of per-infoset distributions "
                           "(default: uniform)")

    args = parser.parse_args(argv)

    if args.command == "run":
        try:
            cfg = _cfg_from_args(args)
        except ValueError as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        outcome = run(cfg)
        last = outcome.rows[-1]
        print(f"rows: {len(outcome.rows)}  m-bound violations: "
              f"{outcome.m_violations}")
        print(f"final: iter={last['iter']} expl_last={last['expl_last']:.6g}"
              + (f" expl_avg={last['expl_avg']:.6g}"
                 if last["expl_avg"] is not None else "")
              + (f" reg_gap={last['reg_gap']:.6g}"
                 if last["reg_gap"] is not None else ""))
        for row in outcome.rows:
            bad = [k for k in CSV_FIELDS
                   if row[k] is not None and not np.isfinite(row[k])]
            if bad:
                print(f"error: non-finite {bad[0]} at seed {row['seed']} "
                      f"iteration {row['iter']}", file=sys.stderr)
                return 1
        return 0

    if args.command == "grid":
        try:
            ranked, best = grid(args.spec)
        except (OSError, ValueError) as e:
            print(f"error: {args.spec}: {e}", file=sys.stderr)
            return 2
        print(f"cells: {len(ranked)}")
        print(f"best: eta={best['eta']} tau={best['tau']} "
              f"gamma={best['gamma']} expl={best['expl']:.6g}"
              + (" (diverged: every cell is non-finite)"
                 if best["diverged"] else ""))
        return 0

    if args.command == "constants":
        tree = resolve_game(args.game)
        c = game_constants(tree, args.feedback, args.reg, args.alpha,
                           args.tau, args.gamma, horizon=args.horizon,
                           delta=args.delta)
        doc = {
            "game": tree.name,
            "num_infosets": tree.num_infosets,
            "gamma_seq": c.gamma_seq,
            "gamma_seq_bound": (gamma_lower_bound(tree, args.gamma)
                                if args.gamma > 0 else 0.0),
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
        eta = lr_schedule(tree, args.eta, args.schedule)
        rep = schedule_report(tree, eta, c, args.alpha)
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

    if args.command == "bestresp":
        tree = resolve_game(args.game)
        if args.profile:
            try:
                with open(args.profile) as f:
                    profile = [np.asarray(x, dtype=np.float64)
                               for x in json.load(f)]
                validate_profile(tree, profile)
            except (OSError, ValueError, TypeError) as e:
                print(f"error: {args.profile}: {e}", file=sys.stderr)
                return 2
        else:
            profile = uniform_profile(tree)
        v1, _ = best_response(tree, profile, 1)
        v2, _ = best_response(tree, profile, 2)
        print(f"best response value (player 1): {v1:.10g}")
        print(f"best response value (player 2): {v2:.10g}")
        print(f"exploitability: {exploitability(tree, profile):.10g}")
        return 0

    return 1


if __name__ == "__main__":
    sys.exit(main())
