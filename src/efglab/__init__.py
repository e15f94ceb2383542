"""Tabular solver laboratory for two-player zero-sum extensive-form games."""

from .game import (CHANCE, PLAYER1, PLAYER2, GameError, GameFormatError,
                   GameTree, GameValidationError, Infoset, Node, dump_game,
                   expected_utility, exploration_distribution,
                   flatten_profile, gamma_lower_bound, load_game,
                   random_profile, unflatten_profile, uniform_profile,
                   validate_profile)
from .games import build_kuhn, build_leduc, build_matching_pennies
from .regularizers import (ENTROPY, EUCLIDEAN, TruncatedSimplex,
                           argmax_regularized, bregman_local, local_psi,
                           prox_step)
from .values import (CF, FEEDBACK_KINDS, QVALUE, TRAJQ, FeedbackBundle,
                     Trajectory, compute_feedback, estimate_trajectory_q,
                     sample_trajectory)
from .solvers import (GameConstants, ScheduleReport, SolverParams,
                      SolverState, cfr_plus_step, cfr_step, check_m_bounds,
                      game_constants, lazy_catch_up, lazy_qfr_step,
                      lr_schedule, mmd_step, os_mccfr_step, pga_step,
                      qfr_full_step, qfr_lazy_eager_step, qfr_stochastic_step,
                      schedule_report)
from .evaluate import (best_response, bregman_to_reference,
                       compute_reference, exploitability,
                       perturbed_regularized_gap)
from .harness import RunConfig, RunOutcome, grid, resolve_game, run, \
    run_single

__version__ = "0.1.0"
