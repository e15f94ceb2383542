"""Exact evaluation: best response, exploitability, regularized gaps.

Every evaluator takes a profile as a per-infoset list or as a flat pair
array and converts it once, through game.flatten_profile.

A best response fixes the responder's infosets one own-depth at a time,
deepest first: one value-to-go sweep values every infoset (its subtree
holds only deeper, already fixed infosets of the responder) and one
`argmax_batch` call per action count picks the policies at that depth. The
opponent's regularizer enters linearly (it is weighted by the responder's
reach), so the sweeps carry it as a per-node bonus.
"""

import numpy as np

from . import solvers
from .game import PLAYER1, PLAYER2, flatten_profile, unflatten_profile
from .regularizers import (ENTROPY, argmax_batch, bregman_tree_flat,
                           check_rate, rate_array)
from .values import (QVALUE, counterfactual_values, infoset_reach,
                     reach_flat, value_to_go)


def _reg_best_response(tree, flat, reach, player, tau, alpha, family,
                       gamma):
    """Value of `player`'s best response in the perturbed, regularized game:
    expected utility minus tau times the player's own reach-weighted
    regularizer plus tau times the opponent's, maximized over local policies
    x >= gamma * nu (nu = tree.nu_flat; alpha and gamma are checked arrays).
    The response overwrites the player's pairs of the flat profile `flat`,
    whose reach_flat is `reach`. With tau = 0 and gamma = 0 it is the exact
    best response (ties broken toward the lowest action index)."""
    # The responder's own depth at each infoset, 0 at the opponent's.
    depth = np.where(tree.infoset_owner == player, tree.own_depth, 0)

    # One reach sweep serves every depth: the responder's choices change
    # only the responder's own reach, and neither the responder's
    # counterfactual values nor its opponent reach read it.
    opp_reach = infoset_reach(tree, reach)[1]
    for d in range(depth.max(), 0, -1):
        cf = counterfactual_values(
            tree, reach, value_to_go(tree, flat, tau, alpha, family))
        for idx, pairs, NU in tree.row_groups:
            sel = depth[idx] == d
            if sel.any():
                ids, P = idx[sel], pairs[sel]
                flat[P] = argmax_batch(family, cf[P], tau * opp_reach[ids],
                                       alpha[ids], gamma[ids], NU[sel])
    root = value_to_go(tree, flat, tau, alpha, family)[tree.root]
    return float(root if player == PLAYER1 else -root)


def best_response(tree, profile, player):
    """Exact best-response value and profile against `profile`.

    Returns (value, br_profile) where br_profile copies the opponent's
    strategies and replaces the player's with the (pure, floored-vertex)
    best response; ties break toward the lowest action index.
    """
    flat = flatten_profile(tree, profile)
    n = tree.num_infosets
    value = _reg_best_response(tree, flat, reach_flat(tree, flat), player,
                               0.0, np.ones(n), ENTROPY, np.zeros(n))
    return value, unflatten_profile(tree, flat)


def _gap(tree, profile, tau=0.0, alpha=1.0, family=ENTROPY, gamma=0.0):
    """Both players' regularized best-response values, summed."""
    check_rate(tau=tau)
    args = (tau, rate_array(tree, "alpha", alpha), family,
            rate_array(tree, "gamma", gamma))
    flat = flatten_profile(tree, profile)
    reach = reach_flat(tree, flat)
    return (_reg_best_response(tree, flat.copy(), reach, PLAYER1, *args)
            + _reg_best_response(tree, flat, reach, PLAYER2, *args))


def exploitability(tree, profile):
    """Sum of both players' best-response gains; zero exactly at a Nash
    equilibrium (in the game's stored utility scale)."""
    return _gap(tree, profile)


def perturbed_regularized_gap(tree, profile, tau, alpha=1.0, family=ENTROPY,
                              gamma=0.0):
    """Saddle-point gap of the perturbed, regularized game at `profile`.

    The objective is expected utility minus tau times player 1's
    reach-weighted regularizer plus tau times player 2's; each player's
    deviations range over {x >= gamma * nu}, with gamma a scalar or one
    value per infoset and nu = tree.nu_flat. Non-negative on profiles in
    that set, zero only at the regularized equilibrium.
    """
    return _gap(tree, profile, tau, alpha, family, gamma)


def bregman_to_reference(tree, profile, reference, alpha=1.0,
                         family=ENTROPY):
    """Dilated Bregman divergence from the reference profile to `profile`,
    summed over both players (reference reach weights)."""
    alpha = rate_array(tree, "alpha", alpha)
    d1, d2 = bregman_tree_flat(tree, flatten_profile(tree, reference),
                               flatten_profile(tree, profile), alpha, family)
    return d1 + d2


# Gap checks without a new best gap before compute_reference halves its
# step size and restarts from the best iterate.
STALL_CHECKS = 3
# compute_reference halves its step size no further than this (or than the
# caller's first step size, if smaller). At τ = 1e-3, γ = 1e-2 a fixed
# step of 0.05 converges, if slowly, on Kuhn and Leduc with either
# regularizer, so a solve that keeps stalling falls back to it, restarted
# from its best iterate.
ETA_FLOOR = 0.05


def compute_reference(tree, tau, alpha=1.0, family=ENTROPY, gamma=0.0,
                      tol=1e-7, eta=4.0, max_iters=500_000,
                      check_every=100):
    """Solve the perturbed, regularized game to gap <= tol.

    Runs the full-information optimistic solver with q-value feedback and
    returns (reference_profile, gap), where gap is the full-tree
    `perturbed_regularized_gap` of the returned center profile and is
    <= tol. The gap is checked every `check_every` steps (and at step
    `max_iters`); raises RuntimeError if the budget of `max_iters` steps is
    exhausted first, and ValueError before the first step if a rate breaks
    its rule in regularizers.RATE_RULES.

    `eta` is the first step size, one number (ValueError otherwise). On
    the regularized game a larger step converges faster, up to a size at
    which the gap stalls above tol, so the step size adapts: each check
    that sets a new best gap snapshots the iterate, and after STALL_CHECKS
    checks in a row without one (a non-finite gap never counts as one) the
    step size halves and the solver restarts from the best snapshot, or
    from the start if no check has yet set a best gap. The step size never
    halves below min(eta, ETA_FLOOR); once there it stays fixed and the
    solver no longer restarts, so an `eta` at or below ETA_FLOOR runs at
    that fixed step.
    """
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    if check_every < 1:
        raise ValueError(f"check_every must be at least 1, got {check_every}")
    if np.ndim(eta) != 0:
        raise ValueError(f"eta must be one number, got shape {np.shape(eta)}")
    params = solvers.SolverParams(tree, feedback=QVALUE, family=family,
                                  alpha=alpha, tau=tau, gamma=gamma, eta=eta)
    state = solvers.SolverState(tree, params)
    best_gap, best_bar, best_cur = np.inf, state.bar.copy(), state.cur.copy()
    stalled = 0
    eta_floor = min(eta, ETA_FLOOR)
    for it in range(1, max_iters + 1):
        solvers.qfr_full_step(state, tree, params)
        if it % check_every == 0 or it == max_iters:
            gap = perturbed_regularized_gap(tree, state.bar, tau, alpha,
                                            family, params.gamma)
            if gap <= tol:
                return unflatten_profile(tree, state.bar.copy()), gap
            if gap < best_gap:
                best_gap, stalled = gap, 0
                best_bar[:] = state.bar
                best_cur[:] = state.cur
            else:
                stalled += 1
            if stalled >= STALL_CHECKS and params.eta[0] > eta_floor:
                # In place, so the state's per-infoset views stay valid.
                params.eta[:] = max(0.5 * params.eta[0], eta_floor)
                state.bar[:] = best_bar
                state.cur[:] = best_cur
                stalled = 0
    raise RuntimeError(
        f"reference solve did not reach gap <= {tol} in {max_iters} "
        f"iterations (last gap {gap})")
