"""Workloads of the efglab benchmark and the loop that times them.

A workload is a fixed list of operations: one operation is one solver run
(one RunConfig and one seed) through `harness.run_single`, with the game
built and the reference solved first, in the order `efglab run` uses. A
round runs every operation once; a measurement repeats whole rounds, so
every round does the same work and yields the same outputs.
"""

import resource
import statistics
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, replace
from time import perf_counter

from efglab import evaluate, harness, solvers
from efglab.game import flatten_profile
from efglab.harness import RunConfig
from efglab.solvers import SolverParams, SolverState

import checks
from tracing import Tracer, patch

# Margins of the convergence checks. Measured on 60 seeds of kuhn-sampled
# and on the deterministic Leduc runs; see README.md.
KUHN_GAP_RATIO = 0.8
KUHN_BREGMAN_RATIO = 0.95
LEDUC_QFR_GAP_RATIO = 0.9
LEDUC_CFRPLUS_AVG_EXPL = 1e-3

# The paper's method and criterion 6's setting.
KUHN_SAMPLED = RunConfig(game="kuhn", algo="qfr-stoch", feedback="tq",
                         tau=1e-3, gamma=1e-2, eta=1e-2, iters=4000,
                         eval_every=1000, track_bregman=True)
# Two of the three baseline configurations of the roadmap.
LEDUC_QFR = RunConfig(game="leduc", algo="qfr", feedback="q", tau=1e-3,
                      gamma=1e-3, eta=1e-2, iters=500, eval_every=100)
LEDUC_CFRPLUS = RunConfig(game="leduc", algo="cfrplus", iters=500,
                          eval_every=100)
LEDUC_LAZY = RunConfig(game="leduc", algo="qfr-lazy", feedback="tq",
                       tau=1e-3, gamma=1e-2, eta=1e-2, iters=40,
                       eval_every=20)


@dataclass(frozen=True)
class Workload:
    name: str
    configs: tuple
    seeds_per_round: int = 1
    setup_repeats: int = 5
    # compute_reference's own default, which `efglab run --track-bregman`
    # uses.
    reference_tol: float = 1e-7
    # Steps of the same seed replayed through the eager lazy reference.
    lazy_prefix: int = 0

    @property
    def iters_per_round(self):
        return self.seeds_per_round * sum(c.iters for c in self.configs)


# The reference solve on Kuhn takes 15 to 20 s, so kuhn-sampled sets up
# once per run.
WORKLOADS = {
    "kuhn-sampled": Workload("kuhn-sampled", (KUHN_SAMPLED,),
                             seeds_per_round=3, setup_repeats=1),
    "leduc-full": Workload("leduc-full", (LEDUC_QFR, LEDUC_CFRPLUS)),
    "leduc-lazy": Workload("leduc-lazy", (LEDUC_LAZY,), lazy_prefix=20),
}

# Smoke-test sizes: the same code paths in a few seconds each.
TINY = {
    "kuhn-sampled": Workload(
        "kuhn-sampled", (replace(KUHN_SAMPLED, iters=2000, eval_every=500),),
        seeds_per_round=3, setup_repeats=1, reference_tol=1e-2),
    "leduc-full": Workload(
        "leduc-full", (replace(LEDUC_QFR, iters=200),
                       replace(LEDUC_CFRPLUS, iters=200)),
        setup_repeats=1),
    "leduc-lazy": Workload(
        "leduc-lazy", (replace(LEDUC_LAZY, iters=10, eval_every=5),),
        setup_repeats=1, lazy_prefix=5),
}


def run_seeds(workload, seed):
    """Solver seeds of one run, derived from the benchmark's seed."""
    k = workload.seeds_per_round
    return [seed * k + i for i in range(k)]


def set_up(workload):
    """Build the game and, when tracked, solve the reference; repeated
    setup_repeats times. Returns (tree, reference, seconds per set-up)."""
    cfg = workload.configs[0]
    times = []
    for _ in range(workload.setup_repeats):
        tree = reference = None
        t0 = perf_counter()
        tree = harness.resolve_game(cfg.game)
        if cfg.track_bregman:
            reference, _ = evaluate.compute_reference(
                tree, cfg.tau, cfg.alpha, cfg.reg, cfg.gamma,
                tol=workload.reference_tol)
        times.append(perf_counter() - t0)
    return tree, reference, times


def run_round(workload, tree, reference, seeds):
    """Every operation once. Returns (seconds, outcomes); an operation
    that raises leaves its exception in place of the outcome."""
    outcomes = []
    t0 = perf_counter()
    for cfg in workload.configs:
        for s in seeds:
            try:
                outcomes.append(harness.run_single(cfg, s, reference, tree))
            except Exception as exc:
                outcomes.append(exc)
    return perf_counter() - t0, outcomes


def check_operation(tree, cfg, outcome):
    """Checks on one solver run's outputs."""
    if isinstance(outcome, Exception):
        raise checks.CheckError("".join(
            traceback.format_exception(outcome)).strip())
    checks.check_rows_finite(outcome.rows)
    checks.check_no_m_violations(outcome.m_violations)
    checks.check_in_perturbed_simplex(tree, outcome.final_profile,
                                      cfg.gamma)
    v1, v2 = checks.check_exploitability(tree, outcome.final_profile,
                                         outcome.rows[-1]["expl_last"])
    if cfg.game == "kuhn":
        checks.check_kuhn_bracket(v1, v2)


def check_kuhn_sampled(workload, tree, runs):
    """Median over seeds of the best-iterate gap and Bregman distance ends
    below the median at the first evaluation by the stated margin."""
    for key, ratio in (("reg_gap", KUHN_GAP_RATIO),
                       ("bregman_ref", KUHN_BREGMAN_RATIO)):
        first = statistics.median(o.rows[0][key] for _, o in runs)
        best = statistics.median(min(r[key] for r in o.rows)
                                 for _, o in runs)
        checks.check_ratio(f"median best {key}", best, first, ratio)


def check_leduc_full(workload, tree, runs):
    for cfg, o in runs:
        if cfg.algo == "qfr":
            checks.check_ratio("QFR regularized gap at the last evaluation",
                               o.rows[-1]["reg_gap"], o.rows[0]["reg_gap"],
                               LEDUC_QFR_GAP_RATIO)
        else:
            checks.check_below("CFR+ average exploitability",
                               o.rows[-1]["expl_avg"],
                               LEDUC_CFRPLUS_AVG_EXPL)


def check_lazy_against_eager(workload, tree, runs):
    """Replay the first lazy_prefix trajectories of the first seed through
    qfr_lazy_eager_step; the caught-up lazy strategy must match bit for
    bit."""
    cfg, _ = runs[0]
    short = replace(cfg, iters=workload.lazy_prefix,
                    eval_every=workload.lazy_prefix)
    trajectories = []
    lazy_step = solvers.lazy_qfr_step

    def recording_step(*args, **kwargs):
        traj = lazy_step(*args, **kwargs)
        trajectories.append(traj)
        return traj

    with patch([(lazy_step, recording_step)]):
        lazy = harness.run_single(short, cfg.seed, None, tree)
    params = SolverParams(tree, feedback=cfg.feedback, family=cfg.reg,
                          alpha=cfg.alpha, tau=cfg.tau, gamma=cfg.gamma,
                          eta=cfg.eta)
    eager = SolverState(tree, params)
    for traj in trajectories:
        solvers.qfr_lazy_eager_step(eager, tree, params, traj=traj)
    checks.check_bit_equal(
        f"lazy strategy after {workload.lazy_prefix} caught-up steps",
        flatten_profile(tree, lazy.final_profile), eager.cur)


WORKLOAD_CHECKS = {
    "kuhn-sampled": check_kuhn_sampled,
    "leduc-full": check_leduc_full,
    "leduc-lazy": check_lazy_against_eager,
}


def measure(workload, seed, seconds, trace):
    """Set up, then run whole rounds until `seconds` have passed.

    With trace, set-up and one first round run under the tracer, and the
    untraced rounds after it give the overhead. Returns the result object
    the benchmark prints, and a detail record for its result file.
    """
    seeds = run_seeds(workload, seed)
    # One config per operation, carrying its seed, in run_round's order.
    ops = [replace(cfg, seed=s) for cfg in workload.configs for s in seeds]
    tracer = Tracer() if trace else None
    round_times = []
    with tracer.installed() if trace else nullcontext():
        tree, reference, setup_times = set_up(workload)
        if trace:
            traced_s, first = run_round(workload, tree, reference, seeds)
    start = perf_counter()
    differing = []      # per later round, the operations whose outputs
    while True:         # differ from the first round's
        dt, outcomes = run_round(workload, tree, reference, seeds)
        round_times.append(dt)
        if not trace and len(round_times) == 1:
            first = outcomes
        else:
            differing.append({
                i for i, (a, b) in enumerate(zip(first, outcomes))
                if isinstance(a, Exception) or isinstance(b, Exception)
                or not checks.same_outcome(a, b)})
        if perf_counter() - start >= seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    problems = {}
    for i, (cfg, outcome) in enumerate(zip(ops, first)):
        try:
            check_operation(tree, cfg, outcome)
        except checks.CheckError as exc:
            problems[i] = f"{cfg.algo} seed {cfg.seed}: {exc}"
    rounds = 1 + len(differing)
    failed = len(problems) + sum(len(d | problems.keys()) for d in differing)
    runs = [(cfg, o) for i, (cfg, o) in enumerate(zip(ops, first))
            if i not in problems]
    workload_problem = None
    try:
        if not runs:
            raise checks.CheckError("no operation succeeded")
        WORKLOAD_CHECKS[workload.name](workload, tree, runs)
    except checks.CheckError as exc:
        workload_problem = str(exc)

    wall_s = statistics.median(round_times)
    if trace:
        metrics = tracer.metrics()
        metrics["trace.wall_s"] = (traced_s, "s")
        metrics["trace.untraced_wall_s"] = (wall_s, "s")
        metrics["trace.overhead_pct"] = (100.0 * (traced_s / wall_s - 1.0),
                                         "%")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (wall_s, "s"),
            "iters_per_s": (workload.iters_per_round / wall_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    result = {
        "correct": workload_problem is None,
        "attempted": rounds * len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    detail = {
        "workload": workload.name,
        "seed": seed,
        "solver_seeds": seeds,
        "setup_s": setup_times,
        "round_s": round_times,
        "operation_problems": list(problems.values()),
        "operations_differing_from_first_round": [sorted(d)
                                                   for d in differing],
        "workload_problem": workload_problem,
        "first_round_rows": [
            {"algo": cfg.algo, "seed": cfg.seed,
             "rows": None if isinstance(o, Exception) else
             [{k: (None if v is None else float(v)) for k, v in r.items()}
              for r in o.rows]}
            for cfg, o in zip(ops, first)],
    }
    if trace:
        detail["span_causes"] = tracer.causes()
    return result, detail

