"""The public names of the efglab package."""

import types

import efglab

EXPORTS = [
    "CF", "CHANCE", "ENTROPY", "EUCLIDEAN", "FEEDBACK_KINDS",
    "FeedbackBundle", "GameConstants", "GameError", "GameFormatError",
    "GameTree", "GameValidationError", "Infoset", "Node", "PLAYER1",
    "PLAYER2", "QVALUE", "RunConfig", "RunOutcome", "ScheduleReport",
    "SolverParams", "SolverState", "TRAJQ", "Trajectory", "TruncatedSimplex",
    "argmax_regularized", "best_response",
    "bregman_local", "bregman_to_reference",
    "build_kuhn", "build_leduc", "build_matching_pennies", "cfr_plus_step",
    "cfr_step", "check_m_bounds", "compute_feedback", "compute_reference",
    "dump_game", "estimate_trajectory_q", "expected_utility",
    "exploitability", "exploration_distribution", "flatten_profile",
    "game_constants", "gamma_lower_bound", "grid",
    "lazy_catch_up", "lazy_qfr_step", "load_game", "local_psi",
    "lr_schedule", "mmd_step",
    "os_mccfr_step", "perturbed_regularized_gap", "pga_step",
    "prox_step", "qfr_full_step",
    "qfr_lazy_eager_step",
    "qfr_stochastic_step", "random_profile", "resolve_game", "run",
    "run_single", "sample_trajectory", "schedule_report",
    "unflatten_profile", "uniform_profile", "validate_profile",
]


def test_export_list_is_pinned():
    # Submodules become package attributes when imported; they are not
    # exports.
    names = sorted(n for n, v in vars(efglab).items()
                   if not n.startswith("_")
                   and not isinstance(v, types.ModuleType))
    assert names == sorted(EXPORTS)
