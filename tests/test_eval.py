"""Exact evaluation: best response, exploitability, gaps, references."""

import itertools

import numpy as np
import pytest

from efglab.evaluate import (ETA_FLOOR, STALL_CHECKS, _reg_best_response,
                             best_response, bregman_to_reference,
                             compute_reference,
                             exploitability, perturbed_regularized_gap)
from efglab.game import (PLAYER1, PLAYER2, expected_utility,
                         exploration_distribution, flatten_profile,
                         load_game, uniform_profile, unflatten_profile)
from efglab.regularizers import (ENTROPY, EUCLIDEAN, TruncatedSimplex,
                                 argmax_batch, argmax_regularized,
                                 rate_array)
from efglab.solvers import SolverParams, SolverState, cfr_step
from efglab.values import CF, compute_feedback, reach_flat
from oracles import (infoset_members, node_depths,
                     reg_best_response_recursive)


def _pure_strategy_values(tree, profile, player):
    """Enumerate every pure strategy of `player` and return their expected
    utilities against `profile` (independent best-response oracle)."""
    own = sorted(tree.infoset_ids(player))
    choices = [range(tree.actions_per_infoset[si]) for si in own]
    vals = []
    for combo in itertools.product(*choices):
        prof = [np.array(a, dtype=float) for a in profile]
        for si, a in zip(own, combo):
            prof[si] = np.zeros(tree.actions_per_infoset[si])
            prof[si][a] = 1.0
        u1 = expected_utility(tree, prof)
        vals.append(u1 if player == PLAYER1 else -u1)
    return vals


def test_best_response_matches_enumeration(kuhn, rng):
    for player in (PLAYER1, PLAYER2):
        for _ in range(3):
            prof = [rng.dirichlet(np.ones(n))
                    for n in kuhn.actions_per_infoset]
            br_val, br_prof = best_response(kuhn, prof, player)
            assert br_val == pytest.approx(
                max(_pure_strategy_values(kuhn, prof, player)), abs=1e-12)
            # The returned profile attains the claimed value.
            mixed = [np.array(a, dtype=float) for a in prof]
            for si in kuhn.infoset_ids(player):
                mixed[si] = br_prof[si]
            u1 = expected_utility(kuhn, mixed)
            attained = u1 if player == PLAYER1 else -u1
            assert attained == pytest.approx(br_val, abs=1e-12)


def test_best_response_dominates_random_responses(kuhn, rng):
    prof = uniform_profile(kuhn)
    br_val, _ = best_response(kuhn, prof, PLAYER2)
    for _ in range(100):
        trial = [np.array(a, dtype=float) for a in prof]
        for si in kuhn.infoset_ids(PLAYER2):
            trial[si] = rng.dirichlet(np.ones(kuhn.actions_per_infoset[si]))
        assert -expected_utility(kuhn, trial) <= br_val + 1e-12


def test_pennies_uniform_is_equilibrium(pennies):
    prof = uniform_profile(pennies)
    v1, _ = best_response(pennies, prof, PLAYER1)
    v2, _ = best_response(pennies, prof, PLAYER2)
    assert v1 == pytest.approx(0.0, abs=1e-15)
    assert v2 == pytest.approx(0.0, abs=1e-15)
    assert exploitability(pennies, prof) == pytest.approx(0.0, abs=1e-15)


def test_exploitability_nonnegative_random(kuhn, rng):
    for _ in range(20):
        prof = [rng.dirichlet(np.ones(n))
                for n in kuhn.actions_per_infoset]
        assert exploitability(kuhn, prof) >= -1e-12


def test_exploitability_action_relabel_invariant():
    doc = {
        "name": "mp",
        "root": 0,
        "nodes": [
            {"id": 0, "kind": "p1", "infoset": 0, "actions": [
                {"label": "H", "child": 1}, {"label": "T", "child": 2}]},
            {"id": 1, "kind": "p2", "infoset": 1, "actions": [
                {"label": "H", "child": 3}, {"label": "T", "child": 4}]},
            {"id": 2, "kind": "p2", "infoset": 1, "actions": [
                {"label": "H", "child": 5}, {"label": "T", "child": 6}]},
            {"id": 3, "kind": "terminal", "utility_p1": 1.0},
            {"id": 4, "kind": "terminal", "utility_p1": -1.0},
            {"id": 5, "kind": "terminal", "utility_p1": -1.0},
            {"id": 6, "kind": "terminal", "utility_p1": 1.0},
        ],
    }
    tree = load_game(doc)
    # Same game with P2's action order swapped everywhere.
    doc2 = {
        "name": "mp-swapped",
        "root": 0,
        "nodes": [
            {"id": 0, "kind": "p1", "infoset": 0, "actions": [
                {"label": "H", "child": 1}, {"label": "T", "child": 2}]},
            {"id": 1, "kind": "p2", "infoset": 1, "actions": [
                {"label": "T", "child": 4}, {"label": "H", "child": 3}]},
            {"id": 2, "kind": "p2", "infoset": 1, "actions": [
                {"label": "T", "child": 6}, {"label": "H", "child": 5}]},
            {"id": 3, "kind": "terminal", "utility_p1": 1.0},
            {"id": 4, "kind": "terminal", "utility_p1": -1.0},
            {"id": 5, "kind": "terminal", "utility_p1": -1.0},
            {"id": 6, "kind": "terminal", "utility_p1": 1.0},
        ],
    }
    tree2 = load_game(doc2)
    prof = [np.array([0.3, 0.7]), np.array([0.6, 0.4])]
    prof2 = [np.array([0.3, 0.7]), np.array([0.4, 0.6])]
    assert exploitability(tree, prof) == pytest.approx(
        exploitability(tree2, prof2), abs=1e-14)


def test_gap_reduces_to_exploitability(kuhn, rng):
    for _ in range(10):
        prof = [rng.dirichlet(np.ones(n))
                for n in kuhn.actions_per_infoset]
        gap = perturbed_regularized_gap(kuhn, prof, 0.0)
        assert gap == pytest.approx(exploitability(kuhn, prof), abs=1e-12)


def test_gap_nonnegative_on_feasible_profiles(kuhn, rng):
    nu = exploration_distribution(kuhn)
    gamma = 0.05
    for _ in range(10):
        prof = []
        for si in range(kuhn.num_infosets):
            floor = gamma * nu[si]
            free = rng.dirichlet(np.ones(kuhn.actions_per_infoset[si]))
            prof.append(floor + (1.0 - floor.sum()) * free)
        gap = perturbed_regularized_gap(kuhn, prof, 0.05, 1.0, ENTROPY,
                                        gamma)
        assert gap >= -1e-10


@pytest.mark.parametrize("game", ["kuhn", "leduc"])
def test_evaluators_take_a_list_or_its_flat_array(request, game, rng):
    # One conversion, game.flatten_profile, serves both forms, so every
    # evaluator returns the same float for a list and for its flat array.
    tree = request.getfixturevalue(game)
    reference = _profile(tree, "interior", rng)
    ref_flat = flatten_profile(tree, reference)
    for kind in ("interior", "pure", "interior", "pure"):
        prof = _profile(tree, kind, rng)
        flat = flatten_profile(tree, prof)
        before = flat.copy()
        assert exploitability(tree, prof) == exploitability(tree, flat)
        # A rate given per infoset gives the same float as its number.
        ones = np.ones(tree.num_infosets)
        for family in (ENTROPY, EUCLIDEAN):
            for gamma in (0.0, 0.05):
                want = perturbed_regularized_gap(tree, prof, 1e-3, 1.0,
                                                 family, gamma)
                assert want == perturbed_regularized_gap(
                    tree, flat, 1e-3, 1.0, family, gamma)
                assert want == perturbed_regularized_gap(
                    tree, flat, 1e-3, ones, family, gamma * ones)
            want = bregman_to_reference(tree, prof, reference, 1.0, family)
            assert want == bregman_to_reference(tree, flat, ref_flat, 1.0,
                                                family)
            assert want == bregman_to_reference(tree, flat, ref_flat, ones,
                                                family)
        # The evaluators read their flat argument without writing it.
        assert np.array_equal(flat, before)
    with pytest.raises(ValueError):
        exploitability(tree, flat[:-1])


def _evaluators(tree):
    reference = uniform_profile(tree)
    return (lambda p: exploitability(tree, p),
            lambda p: perturbed_regularized_gap(tree, p, 1e-3, 1.0, ENTROPY,
                                                0.01),
            lambda p: bregman_to_reference(tree, p, reference),
            lambda p: bregman_to_reference(tree, reference, p),
            lambda p: expected_utility(tree, p))


@pytest.mark.parametrize("bad, message", [
    ("rows 0 and 11 resized", r"profile\[0\]: wrong shape \(3,\)"),
    ("one row too many", r"profile\[12\]: extra row"),
    ("one row short", r"profile\[11\]: missing"),
    ("a 2x1 row", r"profile\[4\]: wrong shape \(2, 1\)")])
def test_evaluators_reject_a_list_that_does_not_fit_the_game(kuhn, bad,
                                                             message):
    prof = uniform_profile(kuhn)
    if bad == "rows 0 and 11 resized":
        prof[0], prof[-1] = np.full(3, 1 / 3), np.ones(1)
    elif bad == "one row too many":
        prof.append(np.full(2, 0.5))
    elif bad == "one row short":
        prof.pop()
    else:
        prof[4] = np.full((2, 1), 0.5)
    for evaluate in _evaluators(kuhn):
        with pytest.raises(ValueError, match=message):
            evaluate(prof)


def test_compute_reference_pennies_uniform(pennies):
    prof, gap = compute_reference(pennies, 0.1, tol=1e-8)
    assert gap <= 1e-8
    # Symmetric game, symmetric regularizer: the fixed point is uniform.
    for a in prof:
        assert np.allclose(a, 0.5, atol=1e-6)
    assert perturbed_regularized_gap(pennies, prof, 0.1) <= 2e-8


def test_compute_reference_kuhn_and_uniqueness_probe(kuhn):
    kw = dict(tau=0.05, alpha=1.0, family=ENTROPY, gamma=0.01, tol=1e-7)
    prof_a, gap_a = compute_reference(kuhn, **kw, eta=0.05)
    prof_b, gap_b = compute_reference(kuhn, **kw, eta=0.02)
    assert gap_a <= 1e-7 and gap_b <= 1e-7
    # Strong convexity of the regularized objective: both step sizes land
    # on the same point.
    for a, b in zip(prof_a, prof_b):
        assert np.max(np.abs(np.asarray(a) - np.asarray(b))) <= 1e-4


def test_compute_reference_budget_error(kuhn):
    with pytest.raises(RuntimeError):
        compute_reference(kuhn, 0.05, gamma=0.01, tol=1e-12, max_iters=50)


@pytest.fixture
def count_full_steps(monkeypatch):
    """Count qfr_full_step calls and record each step size used."""
    from efglab import solvers
    calls = {"steps": 0, "etas": []}
    step = solvers.qfr_full_step

    def counted(state, tree, params):
        calls["steps"] += 1
        if not calls["etas"] or calls["etas"][-1] != params.eta[0]:
            calls["etas"].append(float(params.eta[0]))
        return step(state, tree, params)

    monkeypatch.setattr(solvers, "qfr_full_step", counted)
    return calls


@pytest.mark.parametrize("game, family", [
    ("kuhn", ENTROPY), ("kuhn", EUCLIDEAN), ("leduc", ENTROPY)])
def test_compute_reference_default_step_converges_fast(
        request, count_full_steps, game, family):
    # About 2,000-2,500 steps each; a fixed step of 0.05 needs 87,100 on
    # Kuhn with the entropy and does not converge on Leduc in 20,000.
    tree = request.getfixturevalue(game)
    prof, gap = compute_reference(tree, 1e-3, family=family, gamma=1e-2,
                                  tol=1e-7, max_iters=5_000)
    assert gap <= 1e-7
    assert count_full_steps["steps"] <= 5_000
    assert count_full_steps["etas"][0] == 4.0
    params = SolverParams(tree, family=family, gamma=1e-2)
    assert perturbed_regularized_gap(tree, prof, 1e-3, 1.0, family,
                                     params.gamma) == gap


def test_compute_reference_halves_a_stalling_step(kuhn, monkeypatch):
    # Too large a first step stalls; each halving must restart from the
    # center and current iterate of the check with the lowest gap so far.
    from efglab import solvers
    step = solvers.qfr_full_step
    etas, checks, restarts = [], [], []

    def recorded(state, tree, params):
        if etas and params.eta[0] != etas[-1]:
            restarts.append((len(checks), state.bar.copy(), state.cur.copy()))
        if not etas or params.eta[0] != etas[-1]:
            etas.append(float(params.eta[0]))
        m = step(state, tree, params)
        if state.t % 100 == 0:
            checks.append((state.bar.copy(), state.cur.copy()))
        return m

    monkeypatch.setattr(solvers, "qfr_full_step", recorded)
    prof, gap = compute_reference(kuhn, 1e-3, gamma=1e-2, tol=1e-7, eta=64.0,
                                  max_iters=20_000)
    assert gap <= 1e-7
    assert etas[0] == 64.0 and len(etas) >= 2
    assert all(b == a / 2 for a, b in zip(etas, etas[1:]))
    gamma = SolverParams(kuhn, gamma=1e-2).gamma
    gaps = [perturbed_regularized_gap(kuhn, unflatten_profile(kuhn, bar),
                                      1e-3, 1.0, ENTROPY, gamma)
            for bar, _ in checks]
    assert len(restarts) == len(etas) - 1
    for n_checks, bar, cur in restarts:
        best = int(np.argmin(gaps[:n_checks]))
        assert np.array_equal(bar, checks[best][0])
        assert np.array_equal(cur, checks[best][1])
    # The restarts land on the same regularized equilibrium as the default
    # start.
    monkeypatch.setattr(solvers, "qfr_full_step", step)
    ref, _ = compute_reference(kuhn, 1e-3, gamma=1e-2, tol=1e-7)
    for a, b in zip(prof, ref):
        assert np.max(np.abs(a - b)) <= 1e-3


@pytest.mark.parametrize("eta, halvings", [(4.0, 7), (0.02, 0)])
def test_compute_reference_step_never_halves_below_the_floor(
        kuhn, monkeypatch, eta, halvings):
    # A gap that never improves halves the step at every STALL_CHECKS-th
    # check until it reaches min(eta, ETA_FLOOR); from there the step stays
    # fixed and the solver no longer restarts from its best iterate.
    from efglab import evaluate, solvers
    step = solvers.qfr_full_step
    etas, restarted, last_bar = [], [], []

    def recorded(state, tree, params):
        if last_bar:
            restarted.append(not np.array_equal(state.bar, last_bar[-1]))
        etas.append(float(params.eta[0]))
        m = step(state, tree, params)
        last_bar.append(state.bar.copy())
        return m

    monkeypatch.setattr(solvers, "qfr_full_step", recorded)
    monkeypatch.setattr(evaluate, "perturbed_regularized_gap",
                        lambda *args: 1.0)
    with pytest.raises(RuntimeError):
        compute_reference(kuhn, 1e-3, gamma=1e-2, eta=eta, max_iters=60,
                          check_every=1)
    floor = min(eta, ETA_FLOOR)
    assert ETA_FLOOR == 0.05 and min(etas) == floor
    assert len(set(etas)) == halvings + 1
    first = etas.index(floor)
    assert first == (1 + halvings * STALL_CHECKS if halvings else 0)
    assert etas[first:] == [floor] * (len(etas) - first)
    # restarted[i] says whether step i + 1 began from a restored iterate.
    assert sum(restarted[:first]) == halvings
    assert not any(restarted[first:])


@pytest.mark.parametrize("kw, message", [
    (dict(eta=float("inf")), "eta"), (dict(eta=float("nan")), "eta"),
    (dict(eta=0.0), "eta"), (dict(eta=-1.0), "eta"),
    (dict(eta=np.full(12, 4.0)), "eta must be one number"),
    (dict(tol=0.0), "tol"), (dict(tol=-1e-7), "tol"),
    (dict(check_every=0), "check_every")])
def test_compute_reference_rejects_bad_arguments(kuhn, count_full_steps, kw,
                                                 message):
    with pytest.raises(ValueError, match=message):
        compute_reference(kuhn, 0.05, gamma=0.01, **kw)
    assert count_full_steps["steps"] == 0


@pytest.mark.parametrize("kw", [
    dict(alpha=0.0), dict(alpha=float("nan")), dict(tau=-1.0),
    dict(gamma=1.5)])
def test_compute_reference_rejects_bad_rates_before_a_step(
        kuhn, count_full_steps, kw):
    args = {"tau": 1e-3, **kw}
    name = next(iter(kw))
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        compute_reference(kuhn, **args)
    assert count_full_steps["steps"] == 0


def test_bregman_to_reference_trivial(kuhn, rng):
    prof = [rng.dirichlet(np.ones(n)) for n in kuhn.actions_per_infoset]
    assert bregman_to_reference(kuhn, prof, prof) == pytest.approx(0.0,
                                                                   abs=1e-12)
    other = uniform_profile(kuhn)
    for family in (ENTROPY, EUCLIDEAN):
        d = bregman_to_reference(kuhn, prof, other, family=family)
        assert d >= -1e-12


def test_average_regret_bounds_exploitability(kuhn):
    # Folk theorem: exploitability of the average strategy is at most the
    # sum of both players' average positive counterfactual regrets.
    params = SolverParams(kuhn, feedback=CF, tau=0.0, gamma=0.0)
    state = SolverState(kuhn, params)
    T = 500
    for _ in range(T):
        cfr_step(state, kuhn, params)
    from oracles import average_profile
    avg = average_profile(state, kuhn)
    bound = 0.0
    for player in (PLAYER1, PLAYER2):
        player_bound = 0.0
        for si in kuhn.infoset_ids(player):
            off = kuhn.infoset_offset[si]
            na = kuhn.actions_per_infoset[si]
            player_bound += max(state.regret[off:off + na].max(), 0.0)
        bound += player_bound / T
    assert exploitability(kuhn, avg) <= bound + 1e-9


# ---------------------------------------------------------------------------
# The flat best response against the recursive oracle

TIE_TOL = 1e-12


def test_mixed_depth_game_shape(mixed_depth):
    depths = node_depths(mixed_depth.nodes)
    assert sorted(depths[h] for h in infoset_members(mixed_depth)[1]) == [1, 2]


def _setting(tree, name, rng):
    """(tau, alpha, family, gamma) of a named evaluation setting."""
    if name == "tau0":
        return 0.0, 1.0, ENTROPY, 0.0
    alpha = rng.uniform(0.5, 2.0, size=tree.num_infosets)
    family = ENTROPY if name == "entropy" else EUCLIDEAN
    return 0.05, alpha, family, 0.05


def _profile(tree, kind, rng):
    if kind == "interior":
        return [rng.dirichlet(np.ones(n)) for n in tree.actions_per_infoset]
    prof = []
    for n in tree.actions_per_infoset:
        x = np.zeros(n)
        x[rng.integers(n)] = 1.0
        prof.append(x)
    return prof


@pytest.mark.parametrize("kind", ["interior", "pure"])
@pytest.mark.parametrize("setting", ["tau0", "entropy", "euclidean"])
@pytest.mark.parametrize("game", ["kuhn", "leduc", "pennies", "mixed_depth"])
def test_best_response_matches_recursive_oracle(game, setting, kind,
                                                request, rng):
    tree = request.getfixturevalue(game)
    tau, alpha, family, gamma = _setting(tree, setting, rng)
    # The oracle's feasible sets: full simplexes at gamma = 0, as in the
    # exact best response.
    simplexes = None if gamma == 0.0 else [
        TruncatedSimplex(gamma, nu) for nu in exploration_distribution(tree)]
    mixed_rows = 0
    for _ in range(3 if game == "leduc" else 6):
        prof = _profile(tree, kind, rng)
        for player in (PLAYER1, PLAYER2):
            want_v, want_pol = reg_best_response_recursive(
                tree, prof, player, tau, alpha, family, simplexes)
            flat = flatten_profile(tree, prof)
            got_v = _reg_best_response(tree, flat, reach_flat(tree, flat),
                                       player, tau,
                                       rate_array(tree, "alpha", alpha),
                                       family,
                                       rate_array(tree, "gamma", gamma))
            assert got_v == pytest.approx(want_v, rel=1e-12, abs=1e-12)
            got = unflatten_profile(tree, flat)
            for si in tree.infoset_ids(3 - player):
                assert np.array_equal(got[si], prof[si])
            # The oracle's action values at each infoset: counterfactual
            # values under its response (an infoset's own policy and the
            # shallower ones do not enter them).
            resp = [np.asarray(x, dtype=float) for x in prof]
            for si, x in want_pol.items():
                resp[si] = x
            fb = compute_feedback(tree, resp, CF, tau, alpha, family)
            tau0 = tau * fb.opp_reach
            mine = tree.infoset_ids(player)
            mixed_rows += np.any(tau0[mine] <= 0) and np.any(tau0[mine] > 0)
            for si in mine:
                if tau0[si] > 0.0:
                    assert np.allclose(got[si], want_pol[si], rtol=0.0,
                                       atol=1e-12)
                    continue
                # Unreached infosets have all-zero values, an exact tie.
                top = np.sort(fb.cf[si])[::-1]
                if fb.opp_reach[si] == 0.0 or top[0] - top[1] > TIE_TOL:
                    assert np.array_equal(got[si], want_pol[si])
    if tau > 0.0 and kind == "pure" and game in ("kuhn", "leduc"):
        # Zero-reach rows (tau0 = 0) share batches with tau0 > 0 rows.
        assert mixed_rows > 0


@pytest.mark.parametrize("game", ["kuhn", "pennies"])
def test_exact_ties_break_to_the_lowest_index(game, request):
    tree = request.getfixturevalue(game)
    prof = uniform_profile(tree)
    ties = 0
    for player in (PLAYER1, PLAYER2):
        _, br = best_response(tree, prof, player)
        fb = compute_feedback(tree, br, CF)
        for si in tree.infoset_ids(player):
            q = fb.cf[si]
            best = np.flatnonzero(q == q.max())
            ties += best.shape[0] > 1
            want = np.zeros(q.shape[0])
            want[best[0]] = 1.0
            assert np.array_equal(br[si], want)
    assert ties > 0
    if game == "pennies":
        assert ties == 2


def test_argmax_batch_equals_one_row_calls(rng):
    for family in (ENTROPY, EUCLIDEAN):
        for n in (2, 3, 5):
            m = 40
            Q = rng.normal(size=(m, n))
            Q[::5] = Q[::5, :1]                       # exact ties
            tau0 = rng.uniform(0.0, 1.0, size=m)
            tau0[::3] = 0.0
            alpha = rng.uniform(0.5, 2.0, size=m)
            NU = rng.dirichlet(np.ones(n), size=m)
            gamma = rng.uniform(0.0, 0.5, size=m)
            # Tight floors; gamma may not exceed 1 by roundoff.
            gamma[::4] = np.minimum(1.0 / NU[::4].sum(axis=1), 1.0)
            gamma[1::4] = 0.0
            got = argmax_batch(family, Q, tau0, alpha, gamma, NU)
            for i in range(m):
                want, _ = argmax_regularized(
                    Q[i], tau0[i], alpha[i], family,
                    TruncatedSimplex(gamma[i], NU[i]))
                assert np.array_equal(got[i], want)
