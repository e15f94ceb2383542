"""Regularizers and proximal steps over perturbed simplexes.

A perturbed simplex is {x in simplex : x_a >= gamma * nu_a} for an interior
direction nu. Two local regularizer families are supported, both weighted by
a per-infoset alpha:

    entropy:   psi(x) = alpha * (log n + sum_a x_a log x_a)   (negentropy,
               shifted so psi(uniform) = 0, max log n over the simplex)
    euclidean: psi(x) = (alpha / 2) * sum_a x_a**2

Tree-level (dilated) regularizers weight each infoset's local term by the
owner's sequence-form reach; the bidilated variant additionally weights by
chance-times-opponent reach.
"""

import numpy as np

from .game import flatten_profile

ENTROPY = "entropy"
EUCLIDEAN = "euclidean"

_TINY = 1e-300


class TruncatedSimplex:
    """Feasible set {x >= gamma * nu, sum x = 1} with nu a distribution."""

    __slots__ = ("gamma", "nu")

    def __init__(self, gamma, nu):
        nu = np.asarray(nu, dtype=np.float64)
        if gamma < 0.0 or gamma > 1.0 + 1e-12:
            raise ValueError(f"gamma {gamma} outside [0, 1]")
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


def full_simplex(n):
    return TruncatedSimplex(0.0, np.full(n, 1.0 / n))


# ---------------------------------------------------------------------------
# Local regularizer values, gradients, divergences


def local_psi(x, alpha, family):
    x = np.asarray(x, dtype=np.float64)
    if family == ENTROPY:
        xs = np.clip(x, _TINY, None)
        return alpha * (np.log(x.shape[-1]) + np.sum(x * np.log(xs), axis=-1))
    if family == EUCLIDEAN:
        return alpha * 0.5 * np.sum(x * x, axis=-1)
    raise ValueError(f"unknown regularizer family {family!r}")


def local_psi_grad(x, alpha, family):
    x = np.asarray(x, dtype=np.float64)
    if family == ENTROPY:
        return alpha * (1.0 + np.log(np.clip(x, _TINY, None)))
    if family == EUCLIDEAN:
        return alpha * x
    raise ValueError(f"unknown regularizer family {family!r}")


def bregman_local(x, y, alpha, family):
    """D_psi(x, y) for one simplex."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if family == ENTROPY:
        xs = np.clip(x, _TINY, None)
        ys = np.clip(y, _TINY, None)
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
        xs = np.clip(flat, _TINY, None)
        inner = np.bincount(tree.pair_infoset, weights=flat * np.log(xs),
                            minlength=n_sets)
        return alpha * (np.log(tree.actions_per_infoset) + inner)
    if family == EUCLIDEAN:
        return alpha * 0.5 * np.bincount(tree.pair_infoset,
                                         weights=flat * flat,
                                         minlength=n_sets)
    raise ValueError(f"unknown regularizer family {family!r}")


def bregman_flat(tree, x, y, alpha, family):
    """Local divergence D_psi(x_s, y_s) at every infoset, from flat pair
    arrays."""
    terms = bregman_local(x[:, None], y[:, None], 1.0, family)
    return alpha * np.bincount(tree.pair_infoset, weights=terms,
                               minlength=tree.num_infosets)


def _player_reach(tree, flat, player):
    """Own and opponent reach of the player's infosets."""
    from .values import infoset_reach, reach_flat
    own, opp = infoset_reach(tree, reach_flat(tree, flat))
    mine = tree.infoset_owner == player
    return mine, own[mine], opp[mine]


def dilated_psi(tree, profile, player, alpha, family):
    """Reach-weighted sum of local regularizers over one player's infosets."""
    flat = flatten_profile(tree, profile)
    mine, own, _ = _player_reach(tree, flat, player)
    return float(np.dot(own, psi_flat(tree, flat, alpha, family)[mine]))


def bidilated_psi(tree, profile, player, alpha, family):
    """Dilated regularizer additionally weighted by chance-opponent reach.

    Equals the sum over the player's decision nodes of the full reach
    probability of the node times the local regularizer at its infoset.
    """
    flat = flatten_profile(tree, profile)
    mine, own, opp = _player_reach(tree, flat, player)
    return float(np.dot(own * opp,
                        psi_flat(tree, flat, alpha, family)[mine]))


def bregman_tree(tree, profile, ref_profile, player, alpha, family):
    """Dilated-regularizer Bregman divergence D(profile, ref) for one player.

    Decomposed form: sum over the player's infosets of the first argument's
    sequence-form reach times the local divergence.
    """
    flat = flatten_profile(tree, profile)
    mine, own, _ = _player_reach(tree, flat, player)
    local = bregman_flat(tree, flat, flatten_profile(tree, ref_profile),
                         alpha, family)
    return float(np.dot(own, local[mine]))


# ---------------------------------------------------------------------------
# Projections


def _project_floored(Z, gamma, NU):
    """Row-wise Euclidean projection onto {x >= gamma_i * nu_i, sum x = 1}.

    Shifts each row by its floor, projects onto the simplex of the
    remaining mass by the sort-and-threshold rule, and shifts back. Rows
    whose floor leaves no slack return the normalized floor.
    """
    NU = np.broadcast_to(NU, Z.shape)
    floor = gamma[:, None] * NU
    slack = 1.0 - floor.sum(axis=1)
    out = np.empty_like(Z)
    tight = slack <= 1e-15
    if np.any(tight):
        f = floor[tight]
        out[tight] = f / f.sum(axis=1, keepdims=True)
    rows = ~tight
    if np.any(rows):
        fl = floor[rows]
        Y = Z[rows] - fl
        srt = -np.sort(-Y, axis=1)
        css = np.cumsum(srt, axis=1) - slack[rows][:, None]
        ks = np.arange(1, Y.shape[1] + 1)
        cond = srt - css / ks > 0.0
        k = cond.shape[1] - np.argmax(cond[:, ::-1], axis=1)
        theta = css[np.arange(Y.shape[0]), k - 1] / k
        out[rows] = fl + np.maximum(Y - theta[:, None], 0.0)
    return out


def project_truncated_simplex(z, simplex):
    """Euclidean projection of z onto a truncated simplex."""
    z = np.asarray(z, dtype=np.float64)
    return _project_floored(z[None, :], np.asarray([simplex.gamma]),
                            simplex.nu[None, :])[0]


# ---------------------------------------------------------------------------
# Proximal steps

# The prox step solves
#     min_x  <g, x> + tau0 * psi(x) + (1/eta) * D_psi(x, x0)
# over the truncated simplex.


def _entropy_floor_fit(xh, gamma, NU):
    """Normalize candidate weights xh subject to floors gamma * nu, row-wise.

    The floored set is found by scanning prefixes of the entries sorted by
    xh_a / nu_a ascending: flooring the k smallest ratios, the scale for the
    rest is Z_k = (remaining weight) / (remaining mass); the unique
    consistent k is the first one whose boundary entries respect the floor
    on both sides.
    """
    m, n = xh.shape
    NU = np.broadcast_to(NU, xh.shape)
    floor = gamma[:, None] * NU
    slack = 1.0 - floor.sum(axis=1)
    out = np.empty_like(xh)

    tight = slack <= 1e-12
    if np.any(tight):
        f = floor[tight]
        out[tight] = f / f.sum(axis=1, keepdims=True)
    rows = ~tight
    if not np.any(rows):
        return out
    xh, NU, fl = xh[rows], NU[rows], floor[rows]
    g = gamma[rows]
    order = np.argsort(xh / NU, axis=1, kind="stable")
    xs = np.take_along_axis(xh, order, axis=1)
    ns = np.take_along_axis(NU, order, axis=1)
    csx = np.cumsum(xs, axis=1)
    csn = np.cumsum(ns, axis=1)
    totx = csx[:, -1][:, None]
    # Candidate k = number of floored entries, k = 0..n-1.
    prevx = np.concatenate([np.zeros((xs.shape[0], 1)), csx[:, :-1]], axis=1)
    prevn = np.concatenate([np.zeros((ns.shape[0], 1)), csn[:, :-1]], axis=1)
    remx = totx - prevx
    denom = 1.0 - g[:, None] * prevn
    with np.errstate(divide="ignore", invalid="ignore"):
        Z = remx / denom
    gn = g[:, None] * ns
    ok_hi = xs >= Z * gn - 1e-18                    # entry k stays unfloored
    prev_below = np.concatenate(
        [np.ones((xs.shape[0], 1), dtype=bool),
         xs[:, :-1] <= Z[:, 1:] * gn[:, :-1] + 1e-18], axis=1)
    valid = ok_hi & prev_below & (denom > 0.0) & (Z > 0.0)
    k = np.argmax(valid, axis=1)
    Zk = Z[np.arange(Z.shape[0]), k]
    res_sorted = np.where(np.arange(xs.shape[1]) < k[:, None],
                          gn, xs / Zk[:, None])
    res = np.empty_like(res_sorted)
    np.put_along_axis(res, order, res_sorted, axis=1)
    # Enforce exact feasibility against roundoff.
    res = np.maximum(res, fl)
    out[rows] = res / res.sum(axis=1, keepdims=True)
    return out


def prox_batch(family, X0, G, tau0, eta, alpha, gamma, NU):
    """Row-wise prox step. All row parameters are 1-D arrays."""
    if family == ENTROPY:
        c = 1.0 + eta * tau0
        logx0 = np.log(np.clip(X0, _TINY, None))
        logxh = logx0 / c[:, None] - (eta / (alpha * c))[:, None] * G
        logxh -= logxh.max(axis=1, keepdims=True)
        return _entropy_floor_fit(np.exp(logxh), gamma, NU)
    if family == EUCLIDEAN:
        xh = (X0 - (eta / alpha)[:, None] * G) / (1.0 + eta * tau0)[:, None]
        return _project_floored(xh, gamma, NU)
    raise ValueError(f"unknown regularizer family {family!r}")


def prox_step(x0, g, tau0, eta, alpha, family, simplex):
    """One-row prox_batch call on a single distribution."""
    return prox_batch(family, np.asarray(x0, dtype=np.float64)[None, :],
                      np.asarray(g, dtype=np.float64)[None, :],
                      np.asarray([tau0], dtype=np.float64),
                      np.asarray([eta], dtype=np.float64),
                      np.asarray([alpha], dtype=np.float64),
                      np.asarray([simplex.gamma], dtype=np.float64),
                      simplex.nu[None, :])[0]


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
    NU = np.broadcast_to(NU, Q.shape)
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
            Z -= Z.max(axis=1, keepdims=True)
            out[rows] = _entropy_floor_fit(np.exp(Z), gamma[rows], NU[rows])
        else:
            out[rows] = _project_floored(Z, gamma[rows], NU[rows])
    return out


def argmax_regularized(q, tau0, alpha, family, simplex):
    """max_x <q, x> - tau0 * psi(x) over the truncated simplex.

    Returns (x, value); a one-row argmax_batch call.
    """
    q = np.asarray(q, dtype=np.float64)
    x = argmax_batch(family, q[None, :], np.asarray([tau0], dtype=np.float64),
                     np.asarray([alpha], dtype=np.float64),
                     np.asarray([simplex.gamma], dtype=np.float64),
                     simplex.nu[None, :])[0]
    value = float(np.dot(q, x)) - tau0 * local_psi(x, alpha, family)
    return x, value
