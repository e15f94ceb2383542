"""The rate boundary: every exported entry point that takes α, γ, η or τ
checks it against regularizers.RATE_RULES, and converts a per-infoset one
through regularizers.rate_array, before any other work."""

import numpy as np
import pytest

from efglab.evaluate import (bregman_to_reference, compute_reference,
                             perturbed_regularized_gap)
from efglab.game import PLAYER1
from efglab.regularizers import (ENTROPY, TruncatedSimplex,
                                 argmax_regularized, bregman_tree, prox_step,
                                 rate_array)
from efglab.solvers import (SolverParams, game_constants, lr_schedule,
                            schedule_report)
from efglab.values import QVALUE, compute_feedback

NAN, INF = float("nan"), float("inf")
BAD_RATES = {"alpha": [0.0, -1.0, NAN, INF], "eta": [0.0, -1.0, NAN, INF],
             "tau": [-1.0, NAN, INF], "gamma": [-0.1, 1.5, NAN, 1.0 + 1e-13]}

# Stands in for every input that is not a rate (a profile, the constants, a
# distribution): work done before the rate check would fail on it with a
# TypeError or AttributeError instead.
UNUSED = object()
SIMPLEX = TruncatedSimplex(0.1, np.array([0.5, 0.5]))

# Entry point -> (its rates, call(tree, **{rate: value})).
ENTRY_POINTS = {
    "SolverParams": (("alpha", "eta", "tau", "gamma"),
                     lambda t, **kw: SolverParams(t, **kw)),
    "lr_schedule": (("eta",), lambda t, eta: lr_schedule(t, eta)),
    "game_constants": (
        ("alpha", "tau", "gamma"),
        lambda t, alpha=1.0, tau=0.0, gamma=0.0: game_constants(
            t, QVALUE, ENTROPY, alpha, tau, gamma)),
    "schedule_report": (
        ("eta", "alpha"),
        lambda t, eta=0.1, alpha=1.0: schedule_report(t, eta, UNUSED,
                                                      alpha)),
    "perturbed_regularized_gap": (
        ("tau", "alpha", "gamma"),
        lambda t, tau=0.1, alpha=1.0, gamma=0.0: perturbed_regularized_gap(
            t, UNUSED, tau, alpha, ENTROPY, gamma)),
    "bregman_to_reference": (
        ("alpha",),
        lambda t, alpha: bregman_to_reference(t, UNUSED, UNUSED, alpha)),
    "bregman_tree": (
        ("alpha",),
        lambda t, alpha: bregman_tree(t, UNUSED, UNUSED, PLAYER1, alpha,
                                      ENTROPY)),
    "compute_feedback": (
        ("tau", "alpha"),
        lambda t, tau=0.1, alpha=1.0: compute_feedback(t, UNUSED, QVALUE, tau,
                                                       alpha, ENTROPY)),
    "compute_reference": (
        ("tau", "alpha", "gamma", "eta"),
        lambda t, tau=1e-3, **kw: compute_reference(t, tau, max_iters=1,
                                                    **kw)),
    "prox_step": (
        ("tau", "eta", "alpha"),
        lambda t, tau=0.1, eta=0.1, alpha=1.0: prox_step(
            UNUSED, UNUSED, tau, eta, alpha, ENTROPY, SIMPLEX)),
    "argmax_regularized": (
        ("tau", "alpha"),
        lambda t, tau=0.1, alpha=1.0: argmax_regularized(
            UNUSED, tau, alpha, ENTROPY, SIMPLEX)),
    "TruncatedSimplex": (("gamma",),
                         lambda t, gamma: TruncatedSimplex(gamma, UNUSED)),
}

# The rates that may be given per infoset.
PER_INFOSET = [
    ("SolverParams", "alpha"), ("SolverParams", "eta"),
    ("SolverParams", "gamma"), ("lr_schedule", "eta"),
    ("game_constants", "alpha"), ("schedule_report", "eta"),
    ("schedule_report", "alpha"), ("perturbed_regularized_gap", "alpha"),
    ("perturbed_regularized_gap", "gamma"), ("bregman_to_reference", "alpha"),
    ("bregman_tree", "alpha"), ("compute_feedback", "alpha"),
    ("compute_reference", "alpha"), ("compute_reference", "gamma")]


@pytest.mark.parametrize("entry, name, value", [
    (entry, name, value) for entry, (names, _) in ENTRY_POINTS.items()
    for name in names for value in BAD_RATES[name]])
def test_every_entry_point_rejects_a_bad_rate_before_any_work(kuhn, entry,
                                                              name, value):
    call = ENTRY_POINTS[entry][1]
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        call(kuhn, **{name: value})
    if (entry, name) in PER_INFOSET:
        per_infoset = np.full(kuhn.num_infosets, 0.5)
        per_infoset[3] = value
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            call(kuhn, **{name: per_infoset})


@pytest.mark.parametrize("entry, name", PER_INFOSET)
def test_a_per_infoset_rate_of_the_wrong_length_names_the_infoset_count(
        kuhn, entry, name):
    call = ENTRY_POINTS[entry][1]
    for wrong in (np.full(3, 0.5), np.full((kuhn.num_infosets, 1), 0.5)):
        with pytest.raises(ValueError, match=(
                rf"{name} must be a number or one value per infoset "
                rf"\({kuhn.num_infosets}\), got shape \({wrong.shape[0]},")):
            call(kuhn, **{name: wrong})


def test_rate_array_repeats_a_number_and_copies_an_array(kuhn):
    n = kuhn.num_infosets
    got = rate_array(kuhn, "gamma", 0.25)
    assert got.dtype == np.float64 and np.array_equal(got, np.full(n, 0.25))
    given = np.linspace(0.5, 1.0, n)
    got = rate_array(kuhn, "alpha", given)
    assert np.array_equal(got, given) and not np.shares_memory(got, given)
    assert np.array_equal(rate_array(kuhn, "eta", [2] * n), np.full(n, 2.0))
