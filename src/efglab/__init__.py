"""Tabular solver laboratory for two-player zero-sum extensive-form games."""

from .game import (CHANCE, PLAYER1, PLAYER2, GameError, GameFormatError,
                   GameTree, GameValidationError, Infoset, Node, dump_game,
                   expected_utility, expected_utility_traversal,
                   exploration_distribution, flatten_profile,
                   gamma_lower_bound, load_game, random_profile,
                   reach_probabilities, save_game, to_sequence_form,
                   unflatten_profile, uniform_profile,
                   validate_perfect_recall, validate_profile)
from .games import build_kuhn, build_leduc, build_matching_pennies
from .regularizers import (ENTROPY, EUCLIDEAN, TruncatedSimplex,
                           argmax_regularized, bidilated_psi, bregman_local,
                           bregman_tree, bregman_tree_direct, dilated_psi,
                           full_simplex, local_psi, local_psi_grad,
                           project_truncated_simplex, prox_entropy,
                           prox_euclidean, prox_step)
from .values import (CF, FEEDBACK_KINDS, QVALUE, TRAJQ, FeedbackBundle,
                     Trajectory, compute_feedback, estimate_trajectory_q,
                     opponent_reach, sample_trajectory)
from .solvers import (GameConstants, ScheduleReport, SolverParams,
                      SolverState, average_profile, cfr_plus_step, cfr_step,
                      check_m_bounds, game_constants, lazy_catch_up,
                      lazy_qfr_step, lr_schedule, mmd_step, os_mccfr_step,
                      pga_step, qfr_full_step, qfr_lazy_eager_step,
                      qfr_stochastic_step, schedule_report)
from .evaluate import (best_response, bregman_to_reference,
                       compute_reference, exploitability,
                       perturbed_regularized_gap)
from .harness import RunConfig, RunOutcome, grid, resolve_game, run, \
    run_single, write_csv

__version__ = "0.1.0"
