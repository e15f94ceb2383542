"""Local/dilated regularizers, Bregman divergences, projections, prox."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efglab.game import PLAYER1, PLAYER2, random_profile, uniform_profile
from efglab.games import build_kuhn, build_matching_pennies
from efglab.regularizers import (ENTROPY, EUCLIDEAN, TruncatedSimplex,
                                 argmax_regularized, bregman_local,
                                 bregman_tree, floor_fit, local_psi,
                                 project_truncated_simplex, prox_step)
from oracles import (bidilated_psi, bregman_tree_direct, dilated_psi,
                     entropy_floor_fit_sort, full_simplex, infoset_members,
                     local_psi_grad, project_floored_sort,
                     reach_probabilities)


def _random_simplex_point(rng, n):
    return rng.dirichlet(np.ones(n))


def _random_interior(rng, n, floor=1e-3):
    x = rng.dirichlet(np.ones(n))
    return (1.0 - n * floor) * x + floor


def _feasible_samples(rng, simplex, count):
    """Random points of the truncated simplex, floors plus Dirichlet mass."""
    n = simplex.num_actions
    free = 1.0 - simplex.gamma * simplex.nu.sum()
    return simplex.floor() + free * rng.dirichlet(np.ones(n), size=count)


@pytest.mark.parametrize("gamma", [-0.1, 1.5, float("nan")])
def test_truncated_simplex_rejects_gamma_outside_the_unit_interval(gamma):
    with pytest.raises(ValueError):
        TruncatedSimplex(gamma, np.full(3, 1.0 / 3.0))


def _prox_objective(x, x0, g, tau0, eta, alpha, family):
    return (x @ g + tau0 * local_psi(x, alpha, family)
            + bregman_local(x, x0, alpha, family) / eta)


# ---------------------------------------------------------------------------
# Local values and gradients


def test_local_psi_entropy_uniform_zero():
    assert local_psi(np.full(4, 0.25), 1.3, ENTROPY) == pytest.approx(0.0)


def test_local_psi_entropy_vertex_max():
    x = np.array([1.0, 0.0, 0.0])
    assert local_psi(x, 2.0, ENTROPY) == pytest.approx(2.0 * np.log(3.0))


def test_local_psi_grad_finite_differences(rng):
    h = 1e-6
    for _ in range(50):
        n = rng.integers(2, 7)
        family = ENTROPY if rng.random() < 0.5 else EUCLIDEAN
        alpha = float(rng.uniform(0.5, 2.0))
        x = _random_interior(rng, n, 1e-2)
        grad = local_psi_grad(x, alpha, family)
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            fd = (local_psi(x + e, alpha, family)
                  - local_psi(x - e, alpha, family)) / (2 * h)
            assert abs(grad[i] - fd) <= 1e-6


def test_bregman_local_zero_at_equal(rng):
    x = _random_interior(rng, 5)
    assert bregman_local(x, x, 1.7, ENTROPY) == pytest.approx(0.0, abs=1e-14)
    assert bregman_local(x, x, 1.7, EUCLIDEAN) == 0.0


def test_bregman_local_euclidean_identity(rng):
    x = _random_simplex_point(rng, 4)
    y = _random_simplex_point(rng, 4)
    assert bregman_local(x, y, 0.8, EUCLIDEAN) == pytest.approx(
        0.4 * np.sum((x - y) ** 2), abs=1e-14)


def test_bregman_local_entropy_is_kl(rng):
    for _ in range(20):
        x = _random_interior(rng, 5)
        y = _random_interior(rng, 5)
        kl = np.sum(x * np.log(x / y))
        assert bregman_local(x, y, 1.3, ENTROPY) == pytest.approx(
            1.3 * kl, abs=1e-12)


def test_bregman_local_nonnegative(rng):
    for _ in range(50):
        x = _random_interior(rng, 4)
        y = _random_interior(rng, 4)
        assert bregman_local(x, y, 1.0, ENTROPY) >= 0.0
        assert bregman_local(x, y, 1.0, EUCLIDEAN) >= 0.0


# ---------------------------------------------------------------------------
# Dilated / bidilated regularizers


def test_dilated_psi_uniform_entropy_zero(kuhn):
    prof = uniform_profile(kuhn)
    assert dilated_psi(kuhn, prof, PLAYER1, 1.0, ENTROPY) == pytest.approx(
        0.0, abs=1e-14)


def test_dilated_psi_single_infoset_equals_local(pennies, rng):
    prof = [_random_interior(rng, 2), _random_interior(rng, 2)]
    assert dilated_psi(pennies, prof, PLAYER1, 1.2, ENTROPY) == pytest.approx(
        local_psi(prof[0], 1.2, ENTROPY), abs=1e-14)


def _dilated_oracle(tree, profile, player, alpha, family):
    """Node-sum expansion: under perfect recall every member of an infoset
    has the same own reach, so the sequence mass equals any member's own
    reach product; sum psi per decision node and divide by member count."""
    mu1, mu2, _ = reach_probabilities(tree, profile)
    own = mu1 if player == PLAYER1 else mu2
    members = infoset_members(tree)
    total = 0.0
    for h, nd in enumerate(tree.nodes):
        if nd.is_terminal or nd.is_chance or nd.owner != player:
            continue
        count = len(members[nd.infoset])
        total += own[h] / count * local_psi(profile[nd.infoset], alpha,
                                            family)
    return total


def _bidilated_oracle(tree, profile, player, alpha, family):
    mu1, mu2, muc = reach_probabilities(tree, profile)
    total = 0.0
    for h, nd in enumerate(tree.nodes):
        if nd.is_terminal or nd.is_chance or nd.owner != player:
            continue
        total += (mu1[h] * mu2[h] * muc[h]
                  * local_psi(profile[nd.infoset], alpha, family))
    return total


def test_dilated_psi_random_kuhn_oracle(kuhn, rng):
    prof = random_profile(kuhn, rng)
    for p in (PLAYER1, PLAYER2):
        assert dilated_psi(kuhn, prof, p, 1.0, ENTROPY) == pytest.approx(
            _dilated_oracle(kuhn, prof, p, 1.0, ENTROPY), abs=1e-12)


def test_bidilated_psi_uniform_zero(kuhn):
    prof = uniform_profile(kuhn)
    assert bidilated_psi(kuhn, prof, PLAYER1, 1.0, ENTROPY) == pytest.approx(
        0.0, abs=1e-14)


def test_bidilated_equals_dilated_without_prior_opponent(pennies, rng):
    # Player 1 acts first in matching pennies with no chance: weights are 1.
    prof = [_random_interior(rng, 2), _random_interior(rng, 2)]
    assert bidilated_psi(pennies, prof, PLAYER1, 1.0, ENTROPY) == \
        pytest.approx(dilated_psi(pennies, prof, PLAYER1, 1.0, ENTROPY),
                      abs=1e-14)


def test_bidilated_psi_leduc_oracle(leduc, rng):
    prof = random_profile(leduc, rng, min_prob=1e-3)
    for p in (PLAYER1, PLAYER2):
        got = bidilated_psi(leduc, prof, p, 1.0, ENTROPY)
        want = _bidilated_oracle(leduc, prof, p, 1.0, ENTROPY)
        assert got == pytest.approx(want, abs=1e-10)
        assert got <= dilated_psi(leduc, prof, p, 1.0, ENTROPY) + 1e-12


# ---------------------------------------------------------------------------
# Tree Bregman divergence


def test_bregman_tree_zero_at_equal(kuhn, rng):
    prof = random_profile(kuhn, rng, min_prob=1e-3)
    assert bregman_tree(kuhn, prof, prof, PLAYER1, 1.0, ENTROPY) == \
        pytest.approx(0.0, abs=1e-14)


def test_bregman_tree_single_infoset(pennies, rng):
    x = [_random_interior(rng, 2), _random_interior(rng, 2)]
    y = [_random_interior(rng, 2), _random_interior(rng, 2)]
    assert bregman_tree(pennies, x, y, PLAYER2, 1.5, EUCLIDEAN) == \
        pytest.approx(bregman_local(x[1], y[1], 1.5, EUCLIDEAN), abs=1e-14)


@pytest.mark.parametrize("family", [ENTROPY, EUCLIDEAN])
def test_bregman_tree_dual_paths_agree(kuhn, rng, family):
    for _ in range(10):
        x = random_profile(kuhn, rng, min_prob=1e-3)
        y = random_profile(kuhn, rng, min_prob=1e-3)
        for p in (PLAYER1, PLAYER2):
            assert bregman_tree(kuhn, x, y, p, 1.0, family) == pytest.approx(
                bregman_tree_direct(kuhn, x, y, p, 1.0, family), abs=1e-9)


# ---------------------------------------------------------------------------
# Projection onto the truncated simplex


def _projection_oracle(z, simplex):
    """Active-set enumeration for min ||x - z||^2 over {x >= f, sum = 1}."""
    f = simplex.floor()
    n = z.shape[0]
    for active in itertools.product([False, True], repeat=n):
        active = np.asarray(active)
        if active.all():
            continue
        free = ~active
        lam = (1.0 - f[active].sum() - z[free].sum()) / free.sum()
        x = np.where(active, f, z + lam)
        if np.any(x[free] < f[free] - 1e-12):
            continue
        mult = f[active] - z[active] - lam
        if np.any(mult < -1e-12):
            continue
        return x
    raise AssertionError("oracle found no KKT point")


def test_projection_identity_inside(rng):
    simplex = TruncatedSimplex(0.2, np.array([0.5, 0.3, 0.2]))
    z = _feasible_samples(rng, simplex, 1)[0]
    assert np.allclose(project_truncated_simplex(z, simplex), z, atol=1e-12)


def test_projection_vertex_clamp():
    simplex = full_simplex(3)
    z = np.array([2.0, 0.0, 0.0])
    assert np.allclose(project_truncated_simplex(z, simplex),
                       [1.0, 0.0, 0.0], atol=1e-14)


def test_projection_matches_active_set_oracle(rng):
    for _ in range(200):
        n = int(rng.integers(2, 7))
        gamma = float(rng.uniform(0.0, 0.5))
        nu = rng.dirichlet(np.ones(n))
        simplex = TruncatedSimplex(gamma, nu)
        z = rng.normal(size=n) * 2.0
        got = project_truncated_simplex(z, simplex)
        want = _projection_oracle(z, simplex)
        assert np.allclose(got, want, atol=1e-10)


def test_projection_nonexpansive(rng):
    simplex = TruncatedSimplex(0.3, np.full(4, 0.25))
    for _ in range(100):
        z1 = rng.normal(size=4) * 3.0
        z2 = rng.normal(size=4) * 3.0
        p1 = project_truncated_simplex(z1, simplex)
        p2 = project_truncated_simplex(z2, simplex)
        assert np.linalg.norm(p1 - p2) <= np.linalg.norm(z1 - z2) + 1e-12


# ---------------------------------------------------------------------------
# Floor fit


FIT_GAMMAS = [0.0, 1e-3, 0.05, 0.3, 1.0 - 1e-9, 1.0]


def _fit_rows(rng, family, m, n):
    """Random fit inputs: entropy weights with maximum 1, some underflowed
    to 0, and Euclidean points up to 1e6 in magnitude; every row has an
    exact tie."""
    scales = ([0.1, 1.0, 10.0, 800.0] if family == ENTROPY
              else [1e-2, 1.0, 1e2, 1e6])
    Z = rng.normal(size=(m, n)) * rng.choice(scales, size=(m, 1))
    Z[:, -1] = Z[:, int(rng.integers(0, n - 1))]
    if family == ENTROPY:
        Z = np.exp(Z - Z.max(axis=1, keepdims=True))
    return Z


@pytest.mark.parametrize("family", [ENTROPY, EUCLIDEAN])
def test_floor_fit_matches_sort_oracles(rng, family):
    oracle = (entropy_floor_fit_sort if family == ENTROPY
              else project_floored_sort)
    for n in range(2, 6):
        for _ in range(100):
            m = int(rng.integers(1, 9))
            Z = _fit_rows(rng, family, m, n)
            NU = rng.dirichlet(np.ones(n), size=m)
            gamma = rng.choice(FIT_GAMMAS, size=m)
            got = floor_fit(family, Z, gamma, NU)
            # Z - gamma * nu rounds at the resolution of Z, so the two fits
            # may differ by that much on large rows (1e-10 near 1e6).
            tol = 1e-14 * np.maximum(1.0, np.abs(Z).max(axis=1))
            assert np.all(np.abs(got - oracle(Z, gamma, NU)).max(axis=1)
                          <= tol)
            for i in range(m):
                assert TruncatedSimplex(gamma[i], NU[i]).contains(got[i])
            # A row's result does not depend on the other rows of its batch.
            i = int(rng.integers(0, m))
            alone = floor_fit(family, Z[i:i + 1], gamma[i:i + 1],
                              NU[i:i + 1])[0]
            assert np.array_equal(alone, got[i])


def test_fits_with_slack_below_roundoff_stay_in_the_set():
    # A slack of 1e-13 is below the resolution of inputs near 1e3, and one
    # of 1e-11 below that of inputs near 1e7: such rows must still land on
    # the perturbed simplex, not lose the slack to cancellation.
    nu = np.array([0.12889026, 0.62157273, 0.24953701])
    sx = TruncatedSimplex(1.0 - 1e-13, nu)
    x = project_truncated_simplex([1500.0, -200.0, 900.0], sx)
    assert sx.contains(x)
    x, _ = argmax_regularized([1.0, 0.2, 0.5], 1e-4, 1.0, EUCLIDEAN, sx)
    assert sx.contains(x)
    sx = TruncatedSimplex(1.0 - 1e-11, nu)
    for z in ([1e7, -1e7, 3e6], [1e7, 1e7, 1e7], [-2e7, 9e6, 9e6 + 2.0]):
        x = project_truncated_simplex(z, sx)
        assert sx.contains(x)
        assert np.allclose(x, sx.floor(), rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("scale", [1e16, 1e100, 1e300, 1.7e308])
def test_euclidean_fit_of_huge_rows_stays_in_the_set(scale):
    # The slack of 0.99 is far below the resolution of such rows, so the
    # fit must not subtract it from them; at 1.7e308 the row's spread also
    # overflows.
    sx = TruncatedSimplex(0.01, np.array([0.2, 0.3, 0.5]))
    vertex = sx.floor() + 0.99 * np.eye(3)
    cases = [([-scale, scale, 0.0], vertex[1]),
             ([scale, -scale, 0.3 * scale], vertex[0]),
             ([-scale, 1.0, -scale], vertex[1]),
             ([0.0, -scale, -np.inf], vertex[0]),
             ([scale, scale, -scale], sx.floor() + [0.495, 0.495, 0.0])]
    for z, want in cases:
        x = project_truncated_simplex(z, sx)
        assert sx.contains(x)
        assert np.allclose(x, want, rtol=0.0, atol=1e-15)
    # The prox and argmax reach the fit with such rows at huge steps.
    x = prox_step([0.4, 0.6], [1.0, -1.0], 0.0, scale, 1.0, EUCLIDEAN,
                  TruncatedSimplex(0.01, np.array([0.5, 0.5])))
    assert np.allclose(x, [0.005, 0.995], rtol=0.0, atol=1e-15)
    x, _ = argmax_regularized([1.0, -1.0], 1.0 / scale, 1.0, EUCLIDEAN,
                              TruncatedSimplex(0.01, np.array([0.5, 0.5])))
    assert np.allclose(x, [0.995, 0.005], rtol=0.0, atol=1e-15)


# ---------------------------------------------------------------------------
# Proximal operators


def test_prox_entropy_identity():
    x0 = np.array([0.5, 0.3, 0.2])
    out = prox_step(x0, np.zeros(3), 0.0, 0.7, 1.0, ENTROPY, full_simplex(3))
    assert np.allclose(out, x0, atol=1e-12)


def test_prox_entropy_softmax_form(rng):
    x0 = _random_interior(rng, 4)
    g = rng.normal(size=4)
    eta, alpha = 0.3, 1.4
    out = prox_step(x0, g, 0.0, eta, alpha, ENTROPY, full_simplex(4))
    want = x0 * np.exp(-eta * g / alpha)
    want /= want.sum()
    assert np.allclose(out, want, atol=1e-12)


def test_prox_entropy_gamma_one_returns_nu(rng):
    nu = rng.dirichlet(np.ones(3))
    simplex = TruncatedSimplex(1.0, nu)
    out = prox_step(_random_interior(rng, 3), rng.normal(size=3), 0.1,
                    0.5, 1.0, ENTROPY, simplex)
    assert np.allclose(out, nu, atol=1e-12)


@pytest.mark.parametrize("family", [ENTROPY, EUCLIDEAN])
def test_prox_beats_feasible_grid(rng, family):
    for _ in range(40):
        n = int(rng.integers(2, 7))
        gamma = float(rng.uniform(0.0, 0.3))
        nu = rng.dirichlet(np.ones(n))
        simplex = TruncatedSimplex(gamma, nu)
        x0 = _feasible_samples(rng, simplex, 1)[0]
        x0 = np.maximum(x0, 1e-6)
        x0 /= x0.sum()
        x0 = project_truncated_simplex(x0, simplex)
        g = rng.normal(size=n) * 2.0
        tau0 = float(rng.uniform(0.0, 0.5))
        eta = float(rng.uniform(0.05, 1.0))
        alpha = float(rng.uniform(0.5, 2.0))
        out = prox_step(x0, g, tau0, eta, alpha, family, simplex)
        assert simplex.contains(out, tol=1e-9)
        pts = _feasible_samples(rng, simplex, 100_000)
        obj_out = _prox_objective(out, x0, g, tau0, eta, alpha, family)
        objs = (pts @ g + tau0 * local_psi(pts, alpha, family)
                + bregman_local(pts, x0, alpha, family) / eta)
        assert obj_out <= objs.min() + 1e-6


def test_prox_euclidean_large_tau_shrinks_to_projection_of_zero(rng):
    simplex = TruncatedSimplex(0.1, np.full(4, 0.25))
    x0 = _feasible_samples(rng, simplex, 1)[0]
    out = prox_step(x0, rng.normal(size=4), 1e6, 0.5, 1.0, EUCLIDEAN, simplex)
    want = project_truncated_simplex(np.zeros(4), simplex)
    assert np.allclose(out, want, atol=1e-4)


def test_prox_euclidean_kkt_residual(rng):
    for _ in range(50):
        n = int(rng.integers(2, 6))
        gamma = float(rng.uniform(0.0, 0.4))
        nu = rng.dirichlet(np.ones(n))
        simplex = TruncatedSimplex(gamma, nu)
        x0 = _feasible_samples(rng, simplex, 1)[0]
        g = rng.normal(size=n)
        tau0 = float(rng.uniform(0.0, 1.0))
        eta = float(rng.uniform(0.05, 1.0))
        alpha = float(rng.uniform(0.5, 2.0))
        x = prox_step(x0, g, tau0, eta, alpha, EUCLIDEAN, simplex)
        assert simplex.contains(x, tol=1e-9)
        grad = g + tau0 * alpha * x + alpha * (x - x0) / eta
        ys = _feasible_samples(rng, simplex, 1000)
        assert np.all((ys - x) @ grad >= -1e-9)


# ---------------------------------------------------------------------------
# Regularized argmax


def test_argmax_tau_zero_vertex():
    q = np.array([0.3, 0.7, 0.7])
    x, v = argmax_regularized(q, 0.0, 1.0, ENTROPY, full_simplex(3))
    assert np.allclose(x, [0.0, 1.0, 0.0])  # lowest-index tie break
    assert v == pytest.approx(0.7)


def test_argmax_tau_zero_with_floor():
    nu = np.array([0.5, 0.25, 0.25])
    simplex = TruncatedSimplex(0.2, nu)
    q = np.array([0.0, 1.0, 0.5])
    x, _ = argmax_regularized(q, 0.0, 1.0, EUCLIDEAN, simplex)
    want = 0.2 * nu
    want[1] += 1.0 - 0.2
    assert np.allclose(x, want, atol=1e-12)


@pytest.mark.parametrize("family", [ENTROPY, EUCLIDEAN])
def test_argmax_beats_feasible_grid(rng, family):
    for _ in range(30):
        n = int(rng.integers(2, 7))
        gamma = float(rng.uniform(0.0, 0.3))
        simplex = TruncatedSimplex(gamma, rng.dirichlet(np.ones(n)))
        q = rng.normal(size=n)
        tau0 = float(rng.uniform(0.05, 1.0))
        alpha = float(rng.uniform(0.5, 2.0))
        x, v = argmax_regularized(q, tau0, alpha, family, simplex)
        assert simplex.contains(x, tol=1e-9)
        pts = _feasible_samples(rng, simplex, 100_000)
        vals = pts @ q - tau0 * local_psi(pts, alpha, family)
        assert x @ q - tau0 * local_psi(x, alpha, family) >= vals.max() - 1e-6
        assert v == pytest.approx(x @ q - tau0 * local_psi(x, alpha, family),
                                  abs=1e-9)


# ---------------------------------------------------------------------------
# Hypothesis property checks


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       family=st.sampled_from([ENTROPY, EUCLIDEAN]))
def test_prox_output_always_feasible(seed, family):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    gamma = float(rng.uniform(0.0, 0.9))
    nu = rng.dirichlet(np.ones(n)) + 1e-3
    nu /= nu.sum()
    simplex = TruncatedSimplex(gamma, nu)
    x0 = project_truncated_simplex(rng.dirichlet(np.ones(n)), simplex)
    x0 = np.maximum(x0, 1e-9)
    x0 /= x0.sum()
    out = prox_step(x0, rng.normal(size=n) * 5.0, float(rng.uniform(0, 2)),
                    float(rng.uniform(0.01, 2.0)), float(rng.uniform(0.5, 2)),
                    family, simplex)
    assert abs(out.sum() - 1.0) <= 1e-12
    assert np.all(out >= simplex.floor() - 1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_projection_feasible_and_idempotent(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    gamma = float(rng.uniform(0.0, 0.95))
    nu = rng.dirichlet(np.ones(n)) + 1e-3
    nu /= nu.sum()
    simplex = TruncatedSimplex(gamma, nu)
    x = project_truncated_simplex(rng.normal(size=n) * 4.0, simplex)
    assert simplex.contains(x, tol=1e-9)
    assert np.allclose(project_truncated_simplex(x, simplex), x, atol=1e-9)
