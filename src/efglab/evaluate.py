"""Exact evaluation: best response, exploitability, regularized gaps.

A best response fixes the responder's infosets one own-depth at a time,
deepest first: one value-to-go sweep values every infoset (its subtree
holds only deeper, already fixed infosets of the responder) and one
`argmax_batch` call per action count picks the policies at that depth. The
opponent's regularizer enters linearly (it is weighted by the responder's
reach), so the sweeps carry it as a per-node bonus.
"""

import numpy as np

from .game import PLAYER1, PLAYER2, flatten_profile, unflatten_profile
from .regularizers import ENTROPY, argmax_batch, bregman_tree
from .values import (QVALUE, counterfactual_values, infoset_reach,
                     reach_flat, value_to_go)


def _reg_best_response(tree, profile, player, tau=0.0, alpha=1.0,
                       family=ENTROPY, simplexes=None):
    """Best response of `player` in the perturbed, regularized game.

    Maximizes expected utility minus tau times the player's own
    reach-weighted regularizer plus tau times the opponent's, over local
    policies constrained to the given truncated simplexes (full simplexes
    when None). Returns (value, flat) with flat the profile, as a flat pair
    array, in which the player's strategies are replaced by the response.
    With tau = 0 and full simplexes this is the exact best response (ties
    broken toward the lowest action index).
    """
    n_sets = tree.num_infosets
    counts = tree.actions_per_infoset
    alpha = np.broadcast_to(np.asarray(alpha, dtype=np.float64), (n_sets,))
    if simplexes is None:
        gamma = np.zeros(n_sets)
        nu = np.repeat(1.0 / counts, counts)
    else:
        gamma = np.asarray([s.gamma for s in simplexes], dtype=np.float64)
        nu = np.concatenate([s.nu for s in simplexes])
    own_depth = np.asarray([s.own_depth for s in tree.infosets])
    mine = tree.infoset_owner == player

    flat = flatten_profile(tree, profile)
    # One reach sweep serves every depth: the responder's choices change
    # only the responder's own reach, and neither the responder's
    # counterfactual values nor its opponent reach read it.
    reach = reach_flat(tree, flat)
    opp_reach = infoset_reach(tree, reach)[1]
    for d in range(max(own_depth[mine], default=0), 0, -1):
        cf = counterfactual_values(
            tree, reach, value_to_go(tree, flat, tau, alpha, family))
        at_d = mine & (own_depth == d)
        for n in set(counts[at_d].tolist()):
            ids = np.flatnonzero(at_d & (counts == n))
            pairs = tree.infoset_offset[ids][:, None] + np.arange(n)
            flat[pairs] = argmax_batch(family, cf[pairs], tau * opp_reach[ids],
                                       alpha[ids], gamma[ids], nu[pairs])
    root = value_to_go(tree, flat, tau, alpha, family)[tree.root]
    return float(root if player == PLAYER1 else -root), flat


def best_response(tree, profile, player):
    """Exact best-response value and profile against `profile`.

    Returns (value, br_profile) where br_profile copies the opponent's
    strategies and replaces the player's with the (pure, floored-vertex)
    best response; ties break toward the lowest action index.
    """
    value, flat = _reg_best_response(tree, profile, player)
    return value, unflatten_profile(tree, flat)


def _gap(tree, profile, *args):
    """Sum of both players' regularized best-response values."""
    return (_reg_best_response(tree, profile, PLAYER1, *args)[0]
            + _reg_best_response(tree, profile, PLAYER2, *args)[0])


def exploitability(tree, profile):
    """Sum of both players' best-response gains; zero exactly at a Nash
    equilibrium (in the game's stored utility scale)."""
    return _gap(tree, profile)


def perturbed_regularized_gap(tree, profile, tau, alpha=1.0, family=ENTROPY,
                              simplexes=None):
    """Saddle-point gap of the perturbed, regularized game at `profile`.

    The objective is expected utility minus tau times player 1's
    reach-weighted regularizer plus tau times player 2's; each player's
    deviations range over the truncated simplexes. Non-negative, zero only
    at the regularized equilibrium.
    """
    return _gap(tree, profile, tau, alpha, family, simplexes)


def bregman_to_reference(tree, profile, reference, alpha=1.0,
                         family=ENTROPY):
    """Dilated Bregman divergence from the reference profile to `profile`,
    summed over both players (reference reach weights)."""
    return (bregman_tree(tree, reference, profile, PLAYER1, alpha, family)
            + bregman_tree(tree, reference, profile, PLAYER2, alpha, family))


def compute_reference(tree, tau, alpha=1.0, family=ENTROPY, gamma=0.0,
                      tol=1e-7, eta=0.05, max_iters=500_000,
                      check_every=100):
    """Solve the perturbed, regularized game to gap <= tol.

    Runs the full-information optimistic solver with q-value feedback and
    returns (reference_profile, gap). Raises if the budget is exhausted.
    """
    from .solvers import SolverParams, SolverState, qfr_full_step
    params = SolverParams(tree, feedback=QVALUE, family=family, alpha=alpha,
                          tau=tau, gamma=gamma, eta=eta)
    state = SolverState(tree, params)
    simplexes = params.simplexes
    for it in range(1, max_iters + 1):
        qfr_full_step(state, tree, params)
        if it % check_every == 0 or it == max_iters:
            prof = state.bar_profile(tree)
            gap = perturbed_regularized_gap(tree, prof, tau, alpha, family,
                                            simplexes)
            if gap <= tol:
                return prof, gap
    raise RuntimeError(
        f"reference solve did not reach gap <= {tol} in {max_iters} "
        f"iterations (last gap {gap})")
