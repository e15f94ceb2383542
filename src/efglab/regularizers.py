"""Regularizers and proximal steps over perturbed simplexes.

A perturbed simplex is {x in simplex : x_a >= gamma * nu_a} for an interior
direction nu. Two local regularizer families are supported, both weighted by
a per-infoset alpha:

    entropy:   psi(x) = alpha * (log n + sum_a x_a log x_a)   (negentropy,
               shifted so psi(uniform) = 0, max log n over the simplex)
    euclidean: psi(x) = (alpha / 2) * sum_a x_a**2

The tree-level (dilated) Bregman divergence weights each infoset's local
divergence by the owner's sequence-form reach.
"""

import numpy as np

from .game import PLAYER1, PLAYER2

ENTROPY = "entropy"
EUCLIDEAN = "euclidean"

_TINY = 1e-300

# Every rate's rule, read by check_rate and rate_array here and by
# harness.RunConfig (which checks them in this order). Every comparison with
# NaN is false, so NaN fails each rule.
_POSITIVE = ("positive", lambda v: (0.0 < v) & (v < np.inf))
_UNIT = ("in [0, 1]", lambda v: (0.0 <= v) & (v <= 1.0))
RATE_RULES = {"eta": _POSITIVE, "alpha": _POSITIVE,
              "tau": ("non-negative", lambda v: (0.0 <= v) & (v < np.inf)),
              "gamma": _UNIT, "explore_eps": _UNIT, "anneal_decay": _UNIT}


def check_rate(**rates):
    """Raise ValueError if a named rate (number or array) breaks its rule."""
    for name, value in rates.items():
        rule, holds = RATE_RULES[name]
        if not np.all(holds(np.asarray(value, dtype=np.float64))):
            raise ValueError(
                f"{name} must be finite and {rule}, got {value!r}")


def rate_array(tree, name, value):
    """Rate `name`, checked, as a new float64 array over the tree's infosets:
    a number is repeated, and an array of another shape raises ValueError."""
    check_rate(**{name: value})
    n = tree.num_infosets
    arr = np.array(value, dtype=np.float64)
    if arr.ndim == 0:
        return np.full(n, arr)
    if arr.shape != (n,):
        raise ValueError(f"{name} must be a number or one value per infoset "
                         f"({n}), got shape {arr.shape}")
    return arr


class TruncatedSimplex:
    """Feasible set {x >= gamma * nu, sum x = 1} with nu a distribution."""

    __slots__ = ("gamma", "nu")

    def __init__(self, gamma, nu):
        check_rate(gamma=gamma)
        nu = np.asarray(nu, dtype=np.float64)
        if np.any(nu <= 0.0) and gamma > 0.0:
            raise ValueError("nu must be strictly positive when gamma > 0")
        if gamma * nu.sum() > 1.0 + 1e-9:
            raise ValueError("floor mass gamma * sum(nu) exceeds 1")
        self.gamma = gamma
        self.nu = nu

    @property
    def num_actions(self):
        return self.nu.shape[0]

    def floor(self):
        return self.gamma * self.nu

    def contains(self, x, tol=1e-9):
        x = np.asarray(x)
        return (abs(x.sum() - 1.0) <= tol
                and bool(np.all(x >= self.gamma * self.nu - tol)))


# ---------------------------------------------------------------------------
# Local regularizer values and divergences


def local_psi(x, alpha, family):
    x = np.asarray(x, dtype=np.float64)
    if family == ENTROPY:
        xs = np.maximum(x, _TINY)
        return alpha * (np.log(x.shape[-1]) + (x * np.log(xs)).sum(axis=-1))
    if family == EUCLIDEAN:
        return alpha * 0.5 * (x * x).sum(axis=-1)
    raise ValueError(f"unknown regularizer family {family!r}")


def bregman_local(x, y, alpha, family):
    """D_psi(x, y) for one simplex."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if family == ENTROPY:
        xs = np.maximum(x, _TINY)
        ys = np.maximum(y, _TINY)
        return alpha * (np.sum(x * (np.log(xs) - np.log(ys)), axis=-1)
                        + np.sum(y - x, axis=-1))
    if family == EUCLIDEAN:
        d = x - y
        return alpha * 0.5 * np.sum(d * d, axis=-1)
    raise ValueError(f"unknown regularizer family {family!r}")


def psi_flat(tree, flat, alpha, family):
    """Local regularizer value of every infoset's distribution in a flat
    pair array."""
    n_sets = tree.num_infosets
    if family == ENTROPY:
        xs = np.maximum(flat, _TINY)
        inner = np.bincount(tree.pair_infoset, weights=flat * np.log(xs),
                            minlength=n_sets)
        return alpha * (np.log(tree.actions_per_infoset) + inner)
    if family == EUCLIDEAN:
        return alpha * 0.5 * np.bincount(tree.pair_infoset,
                                         weights=flat * flat,
                                         minlength=n_sets)
    raise ValueError(f"unknown regularizer family {family!r}")


def bregman_tree_flat(tree, x, y, alpha, family):
    """Dilated-regularizer Bregman divergences D(x, y) of (player 1, player
    2) from flat pair arrays: over each player's infosets, the sum of x's
    sequence-form reach times the local divergence."""
    from .values import reach_flat
    own = reach_flat(tree, x)[tree.infoset_seq]
    terms = bregman_local(x[:, None], y[:, None], 1.0, family)
    local = alpha * np.bincount(tree.pair_infoset, weights=terms,
                                minlength=tree.num_infosets)
    return tuple(float(np.dot(own[mine], local[mine]))
                 for mine in (tree.infoset_owner == PLAYER1,
                              tree.infoset_owner == PLAYER2))


# ---------------------------------------------------------------------------
# Floor fit, projection and proximal steps


def row_floors(gamma, NU):
    """The row constants of floor_fit and prox_batch, for rows with floor
    scale gamma (1-D) and directions NU: (floor, slack, has_slack), each
    row's floor gamma * nu, the mass 1 - sum(floor) above it and whether
    that slack exceeds 1e-12."""
    floor = gamma[:, None] * NU
    slack = 1.0 - np.add.reduce(floor, axis=1)
    return floor, slack, slack > 1e-12


def floor_fit(family, Z, gamma, NU):
    """Row-wise fit of Z to the perturbed simplex {x >= gamma * nu, sum x = 1}.

    Euclidean rows take x = max(Z - theta, gamma * nu), the projection;
    entropy rows take x = max(Z / z, gamma * nu) for positive weights Z,
    their normalization under floors. Pin-and-refit (Michelot, JOTA 1986):
    pin every entry whose fitted value falls below its floor, refit the free
    entries to the mass the pinned floors leave, and repeat until no free
    entry falls below its floor. Pinned entries never come free again, so
    this takes at most n passes. Rows with no slack, or whose entries all
    pin under roundoff, return the normalized floor.

    The first pass runs with nothing masked and returns at once if every
    row has slack and no floor binds; otherwise its pins start the masked
    loop's second pass, so a binding floor costs no extra pass. Each row's
    result is the same bits whatever batch it comes in.
    """
    return _fit(family, Z, *row_floors(gamma, NU))


def _fit(family, Z, floor, slack, has_slack):
    """floor_fit on the rows' constants from row_floors."""
    if family == EUCLIDEAN:
        # Fit the mass above the floors. The projection is unchanged by a
        # shift of the whole row, and after the max shift every entry at or
        # below -slack pins, so clamping there changes no fit. The free
        # entries then lie within [-slack, 0]: theta never cancels against
        # a large row, and an overflowed difference cannot reach it.
        Z = Z - floor
        with np.errstate(over="ignore"):
            Z = np.maximum(Z - np.maximum.reduce(Z, axis=1, keepdims=True),
                           -slack[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        # First pass with every entry free: no mask to apply, and the
        # entropy's free mass is exactly 1. A row with no slack starts
        # pinned, as the masked loop would leave it.
        zf = np.add.reduce(Z, axis=1)
        if family == EUCLIDEAN:
            fit = floor + (Z - ((zf - slack) / Z.shape[1])[:, None])
        else:
            fit = Z / zf[:, None]
        below = fit < floor
        if (not np.count_nonzero(below)
                and np.count_nonzero(has_slack) == has_slack.shape[0]):
            return fit
        free = has_slack[:, None] & ~below
        while True:
            zf = np.where(free, Z, 0.0).sum(axis=1)
            if family == EUCLIDEAN:
                theta = (zf - slack) / free.sum(axis=1)
                fit = floor + (Z - theta[:, None])
            else:
                mass = 1.0 - np.where(free, 0.0, floor).sum(axis=1)
                fit = Z / (zf / mass)[:, None]
            below = free & (fit < floor)
            if not below.any():
                break
            free &= ~below
    out = np.where(free, fit, floor)
    pinned = ~free.any(axis=1)
    if pinned.any():
        out[pinned] = floor[pinned] / floor[pinned].sum(axis=1, keepdims=True)
    return out


# The prox step solves
#     min_x  <g, x> + tau0 * psi(x) + (1/eta) * D_psi(x, x0)
# over the truncated simplex.


def prox_batch(family, X0, G, tau0, eta, alpha, floors, optimistic=False):
    """Row-wise prox step from the rows of X0 against the rows of G.

    eta and alpha are 1-D arrays over the rows, tau0 one too or one number
    for every row, and floors is the rows' row_floors(gamma, NU). Returns
    the new rows or, with optimistic, the pair (first, second) of an
    optimistic update: two solves against the same G, the first from X0
    and the second from the first's result. The two share c = 1 + eta *
    tau0 and the scaled gradient, nothing of the first fit, so the pair has
    the bits of a single-solve call from X0 followed by one from its
    result. Each row's result is the same bits whatever batch it comes in.
    """
    if family == ENTROPY:
        c = 1.0 + eta * tau0
        step = (eta / (alpha * c))[:, None] * G
        c = c[:, None]
    elif family == EUCLIDEAN:
        step = (eta / alpha)[:, None] * G
        c = (1.0 + eta * tau0)[:, None]
    else:
        raise ValueError(f"unknown regularizer family {family!r}")
    X = _fit(family, _prox_point(family, X0, step, c), *floors)
    if not optimistic:
        return X
    return X, _fit(family, _prox_point(family, X, step, c), *floors)


def _prox_point(family, X0, step, c):
    """The unconstrained prox point of rows X0, as weights (entropy) or a
    point (Euclidean) for _fit."""
    if family == ENTROPY:
        logxh = np.log(np.maximum(X0, _TINY)) / c - step
        return np.exp(logxh - np.maximum.reduce(logxh, axis=1,
                                                keepdims=True))
    return (X0 - step) / c


def prox_step(x0, g, tau0, eta, alpha, family, simplex):
    """One-row prox_batch call on a single distribution."""
    check_rate(tau=tau0, eta=eta, alpha=alpha)
    return prox_batch(family, np.asarray(x0, dtype=np.float64)[None, :],
                      np.asarray(g, dtype=np.float64)[None, :],
                      np.asarray([tau0], dtype=np.float64),
                      np.asarray([eta], dtype=np.float64),
                      np.asarray([alpha], dtype=np.float64),
                      row_floors(np.asarray([simplex.gamma],
                                            dtype=np.float64),
                                 simplex.nu[None, :]))[0]


# ---------------------------------------------------------------------------
# Regularized argmax

# The regularized argmax solves
#     max_x  <q, x> - tau0 * psi(x)
# over the truncated simplex.


def argmax_batch(family, Q, tau0, alpha, gamma, NU):
    """Row-wise regularized argmax. All row parameters are 1-D arrays.

    Rows with tau0 <= 0 take the floored vertex at the maximizing action
    (ties broken toward the lowest index); the others take the entropy
    (softmax) or euclidean (projection) maximizer.
    """
    if family not in (ENTROPY, EUCLIDEAN):
        raise ValueError(f"unknown regularizer family {family!r}")
    out = np.empty_like(Q)
    vert = tau0 <= 0.0
    if np.any(vert):
        X = gamma[vert][:, None] * NU[vert]
        slack = 1.0 - X.sum(axis=1)
        X[np.arange(X.shape[0]), np.argmax(Q[vert], axis=1)] += np.where(
            slack > 0.0, slack, 0.0)
        out[vert] = X
    rows = ~vert
    if np.any(rows):
        Z = Q[rows] / (alpha[rows] * tau0[rows])[:, None]
        if family == ENTROPY:
            Z = np.exp(Z - Z.max(axis=1, keepdims=True))
        out[rows] = floor_fit(family, Z, gamma[rows], NU[rows])
    return out


def argmax_regularized(q, tau0, alpha, family, simplex):
    """max_x <q, x> - tau0 * psi(x) over the truncated simplex.

    Returns (x, value); a one-row argmax_batch call.
    """
    check_rate(tau=tau0, alpha=alpha)
    q = np.asarray(q, dtype=np.float64)
    x = argmax_batch(family, q[None, :], np.asarray([tau0], dtype=np.float64),
                     np.asarray([alpha], dtype=np.float64),
                     np.asarray([simplex.gamma], dtype=np.float64),
                     simplex.nu[None, :])[0]
    value = float(np.dot(q, x)) - tau0 * local_psi(x, alpha, family)
    return x, value
