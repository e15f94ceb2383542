"""Solver steps, schedules, constants, and the lazy/eager equivalence."""

import itertools

import numpy as np
import pytest

from efglab import harness, solvers
from efglab.evaluate import exploitability
from efglab.game import (PLAYER1, PLAYER2, dump_game, load_game,
                         uniform_profile)
from efglab.games import build_kuhn, build_leduc, build_matching_pennies
from efglab.regularizers import ENTROPY, EUCLIDEAN, TruncatedSimplex
from efglab.solvers import (GameConstants, SolverParams, SolverState,
                            average_profile, cfr_plus_step, cfr_step,
                            check_m_bounds, game_constants, lazy_catch_up,
                            lazy_qfr_step, lr_schedule, mmd_step,
                            os_mccfr_step, pga_step,
                            qfr_full_step, qfr_lazy_eager_step,
                            qfr_stochastic_step, schedule_report)
from efglab.values import (CF, QVALUE, TRAJQ, compute_feedback,
                           sample_trajectory)
from oracles import schedule_report_walk, to_sequence_form


def _single_decision_game():
    doc = {
        "name": "single",
        "root": 0,
        "nodes": [
            {"id": 0, "kind": "p1", "infoset": 0, "actions": [
                {"label": "a", "child": 1}, {"label": "b", "child": 2}]},
            {"id": 1, "kind": "terminal", "utility_p1": 0.8},
            {"id": 2, "kind": "terminal", "utility_p1": -0.3},
        ],
    }
    return load_game(doc)


def _zero_utility_game():
    doc = {
        "name": "zeros",
        "root": 0,
        "nodes": [
            {"id": 0, "kind": "p1", "infoset": 0, "actions": [
                {"label": "a", "child": 1}, {"label": "b", "child": 2}]},
            {"id": 1, "kind": "p2", "infoset": 1, "actions": [
                {"label": "x", "child": 3}, {"label": "y", "child": 4}]},
            {"id": 2, "kind": "terminal", "utility_p1": 0.0},
            {"id": 3, "kind": "terminal", "utility_p1": 0.0},
            {"id": 4, "kind": "terminal", "utility_p1": 0.0},
        ],
    }
    return load_game(doc)


# ---------------------------------------------------------------------------
# Full-information QFR


def test_qfr_vanishing_step_is_identity(kuhn):
    params = SolverParams(kuhn, feedback=QVALUE, tau=0.0, eta=1e-12)
    state = SolverState(kuhn, params)
    before = state.cur.copy()
    qfr_full_step(state, kuhn, params)
    assert np.allclose(state.cur, before, atol=1e-9)


@pytest.mark.parametrize("gamma", [-0.1, 1.5, float("nan")])
def test_solver_params_rejects_gamma_outside_the_unit_interval(kuhn, gamma):
    with pytest.raises(ValueError):
        SolverParams(kuhn, gamma=gamma)
    per_infoset = np.full(kuhn.num_infosets, 0.5)
    per_infoset[3] = gamma
    with pytest.raises(ValueError):
        SolverParams(kuhn, gamma=per_infoset)


@pytest.mark.parametrize("name, value", [
    ("alpha", 0.0), ("alpha", -1.0), ("alpha", float("nan")),
    ("alpha", float("inf")), ("eta", 0.0), ("eta", -1.0),
    ("eta", float("nan")), ("eta", float("inf")), ("tau", -1.0),
    ("tau", float("nan")), ("tau", float("inf")), ("explore_eps", 1.5),
    ("anneal_decay", -0.5)])
def test_solver_params_rejects_bad_rates(kuhn, name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        SolverParams(kuhn, **{name: value})
    if name in ("alpha", "eta"):
        per_infoset = np.full(kuhn.num_infosets, 0.5)
        per_infoset[3] = value
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SolverParams(kuhn, **{name: per_infoset})


def test_solver_params_groups_are_the_trees(leduc):
    params = SolverParams(leduc, tau=0.1, gamma=0.01)
    assert params.groups is leduc.row_groups


def test_qfr_gamma_one_pins_nu(kuhn):
    params = SolverParams(kuhn, feedback=QVALUE, family=ENTROPY, tau=0.01,
                          gamma=1.0, eta=0.1)
    state = SolverState(kuhn, params)
    for _ in range(5):
        qfr_full_step(state, kuhn, params)
    assert np.allclose(state.cur, kuhn.nu_flat, atol=1e-9)
    assert np.allclose(state.bar, kuhn.nu_flat, atol=1e-9)


def test_qfr_optimism_wiring_hand_instance():
    # Single-decision game: feedback equals the terminal utilities, so both
    # prox solves have the closed multiplicative-weights form.
    tree = _single_decision_game()
    eta, alpha = 0.3, 1.0
    params = SolverParams(tree, feedback=CF, family=ENTROPY, tau=0.0,
                          gamma=0.0, eta=eta, alpha=alpha)
    state = SolverState(tree, params)
    q = np.array([0.8, -0.3])
    x0 = np.full(2, 0.5)
    bar2 = x0 * np.exp(eta * q / alpha)
    bar2 /= bar2.sum()
    cur2 = bar2 * np.exp(eta * q / alpha)
    cur2 /= cur2.sum()
    qfr_full_step(state, tree, params)
    assert np.allclose(state.bar, bar2, atol=1e-12)
    assert np.allclose(state.cur, cur2, atol=1e-12)


def test_qfr_full_reduces_exploitability(kuhn):
    params = SolverParams(kuhn, feedback=CF, family=ENTROPY, tau=0.0,
                          gamma=0.0, eta=0.1)
    state = SolverState(kuhn, params)
    initial = exploitability(kuhn, state.profile(kuhn))
    for _ in range(5000):
        qfr_full_step(state, kuhn, params)
    assert exploitability(kuhn, state.profile(kuhn)) < initial


def test_qfr_determinism(kuhn):
    # The second run is the same, and so is a run given every rate as its
    # per-infoset array.
    n = kuhn.num_infosets
    profs = []
    for alpha, gamma, eta in ((1.0, 0.01, 0.05), (1.0, 0.01, 0.05),
                              (np.ones(n), np.full(n, 0.01),
                               np.full(n, 0.05))):
        params = SolverParams(kuhn, feedback=QVALUE, family=ENTROPY,
                              alpha=alpha, tau=0.01, gamma=gamma, eta=eta)
        state = SolverState(kuhn, params)
        for _ in range(50):
            qfr_full_step(state, kuhn, params)
        profs.append(state.cur.copy())
    assert np.array_equal(profs[0], profs[1])
    assert np.array_equal(profs[0], profs[2])


def test_qfr_m_bounds_and_stability_monitor(kuhn):
    # A conforming (tiny) step size: m stays within [M1, M2] and moves by
    # at most C^- per step; strategies move at most C^diff * eta in L1.
    tau, gamma0, eta = 0.01, 0.1, 1e-4
    constants = game_constants(kuhn, QVALUE, ENTROPY, tau=tau, gamma0=gamma0)
    report = schedule_report(kuhn, np.full(kuhn.num_infosets, eta), constants)
    assert report.all_ok
    params = SolverParams(kuhn, feedback=QVALUE, family=ENTROPY, tau=tau,
                          gamma=gamma0, eta=eta)
    state = SolverState(kuhn, params)
    prev_m = None
    prev_cur = state.cur.copy()
    eta_anc = eta  # uniform schedule
    for _ in range(100):
        m = qfr_full_step(state, kuhn, params)
        assert check_m_bounds(m, constants) == 0
        for si in range(kuhn.num_infosets):
            off = kuhn.infoset_offset[si]
            na = kuhn.actions_per_infoset[si]
            moved = np.abs(state.cur[off:off + na]
                           - prev_cur[off:off + na]).sum()
            assert moved <= constants.c_diff[si] * eta + 1e-12
        if prev_m is not None:
            assert np.all(np.abs(m - prev_m)
                          <= constants.c_minus * eta_anc + 1e-12)
        prev_m = m
        prev_cur = state.cur.copy()


# ---------------------------------------------------------------------------
# Stochastic QFR


def test_stochastic_unvisited_unchanged(kuhn, rng):
    params = SolverParams(kuhn, feedback=TRAJQ, family=ENTROPY, tau=0.001,
                          gamma=0.01, eta=0.05)
    state = SolverState(kuhn, params)
    before = state.cur.copy()
    traj = sample_trajectory(kuhn, state.cur_views, rng)
    visited = {kuhn.nodes[n].infoset for n in traj.nodes
               if not kuhn.nodes[n].is_chance
               and not kuhn.nodes[n].is_terminal}
    qfr_stochastic_step(state, kuhn, params, traj=traj)
    changed = set()
    for si in range(kuhn.num_infosets):
        off = kuhn.infoset_offset[si]
        na = kuhn.actions_per_infoset[si]
        if not np.array_equal(state.cur[off:off + na],
                              before[off:off + na]):
            changed.add(si)
    assert changed <= visited
    assert len(changed) <= traj.num_steps


def test_stochastic_determinism(kuhn):
    outs = []
    for _ in range(2):
        params = SolverParams(kuhn, feedback=TRAJQ, family=ENTROPY,
                              tau=0.001, gamma=0.01, eta=0.05)
        state = SolverState(kuhn, params)
        rng = np.random.default_rng(42)
        for _ in range(300):
            qfr_stochastic_step(state, kuhn, params, rng)
        outs.append(state.cur.copy())
    assert np.array_equal(outs[0], outs[1])


# ---------------------------------------------------------------------------
# Lazy QFR


def test_lazy_equals_stochastic_at_tau_zero(kuhn):
    params = SolverParams(kuhn, feedback=TRAJQ, family=ENTROPY, tau=0.0,
                          gamma=0.01, eta=0.05)
    s_eager = SolverState(kuhn, params)
    s_lazy = SolverState(kuhn, params)
    r1 = np.random.default_rng(5)
    r2 = np.random.default_rng(5)
    for _ in range(300):
        qfr_stochastic_step(s_eager, kuhn, params, r1)
        lazy_qfr_step(s_lazy, kuhn, params, r2)
        assert np.array_equal(s_eager.cur, s_lazy.cur)
        assert np.array_equal(s_eager.bar, s_lazy.bar)


def test_lazy_eager_equivalence_shared_trajectories(kuhn):
    params = SolverParams(kuhn, feedback=TRAJQ, family=ENTROPY, tau=0.01,
                          gamma=0.05, eta=0.05)
    s_lazy = SolverState(kuhn, params)
    s_eager = SolverState(kuhn, params)
    rng = np.random.default_rng(11)
    for _ in range(200):
        traj = sample_trajectory(kuhn, s_eager.cur_views, rng)
        qfr_lazy_eager_step(s_eager, kuhn, params, traj=traj)
        lazy_qfr_step(s_lazy, kuhn, params, traj=traj)
        # The eager reference state is fully up to date each iteration; the
        # lazy state agrees exactly on every caught-up infoset.
        for si in range(kuhn.num_infosets):
            if s_lazy.last_seen[si] == s_lazy.t:
                off = kuhn.infoset_offset[si]
                na = kuhn.actions_per_infoset[si]
                assert np.array_equal(s_lazy.cur[off:off + na],
                                      s_eager.cur[off:off + na])
    from efglab.solvers import lazy_catch_up
    lazy_catch_up(s_lazy, kuhn, params)
    assert np.array_equal(s_lazy.cur, s_eager.cur)
    assert np.array_equal(s_lazy.bar, s_eager.bar)


def test_lazy_no_pending_steps_single_update(kuhn):
    params = SolverParams(kuhn, feedback=TRAJQ, family=ENTROPY, tau=0.01,
                          gamma=0.05, eta=0.05)
    s1 = SolverState(kuhn, params)
    s2 = SolverState(kuhn, params)
    traj = sample_trajectory(kuhn, s1.cur_views, np.random.default_rng(3))
    lazy_qfr_step(s1, kuhn, params, traj=traj)
    qfr_lazy_eager_step(s2, kuhn, params, traj=traj)
    visited = {kuhn.nodes[n].infoset for n in traj.nodes
               if not kuhn.nodes[n].is_chance
               and not kuhn.nodes[n].is_terminal}
    for si in visited:
        off = kuhn.infoset_offset[si]
        na = kuhn.actions_per_infoset[si]
        assert np.array_equal(s1.cur[off:off + na], s2.cur[off:off + na])


def _visited_infosets(tree, traj):
    return {tree.nodes[h].infoset for h in traj.nodes[:-1]
            if not tree.nodes[h].is_chance}


def _lazy_and_eager_step(tree, params, lazy, eager, traj):
    lazy_qfr_step(lazy, tree, params, traj=traj)
    qfr_lazy_eager_step(eager, tree, params, traj=traj)


@pytest.mark.parametrize("family", (ENTROPY, EUCLIDEAN))
def test_lazy_with_fixed_point_skip_matches_eager_on_leduc(leduc, family):
    """Sampled lazy steps skip replays of rows at their fixed point; with a
    catch-up every 50 steps they stay bit-equal to the eager reference."""
    params = SolverParams(leduc, feedback=TRAJQ, family=family, tau=1e-3,
                          gamma=1e-2, eta=1e-2)
    lazy = SolverState(leduc, params)
    eager = SolverState(leduc, params)
    rng = np.random.default_rng(21)
    for it in range(1, 201):
        traj = lazy_qfr_step(lazy, leduc, params, rng)
        qfr_lazy_eager_step(eager, leduc, params, traj=traj)
        if it % 50 == 0:
            lazy_catch_up(lazy, leduc, params)
            assert np.array_equal(lazy.cur, eager.cur)
            assert np.array_equal(lazy.bar, eager.bar)
    assert lazy.at_fixed_point.any()


@pytest.mark.parametrize("family", (ENTROPY, EUCLIDEAN))
def test_lazy_row_marked_fixed_then_visited_replays_like_eager(leduc, family):
    tree = leduc
    params = SolverParams(tree, feedback=TRAJQ, family=family, tau=0.01,
                          gamma=0.05, eta=0.05)
    lazy = SolverState(tree, params)
    eager = SolverState(tree, params)
    rng = np.random.default_rng(23)
    _lazy_and_eager_step(tree, params, lazy, eager,
                         sample_trajectory(tree, eager.cur_views, rng))
    lazy_catch_up(lazy, tree, params)
    # Visit a row that the catch-up marked.
    while True:
        traj = sample_trajectory(tree, eager.cur_views, rng)
        marked = [si for si in _visited_infosets(tree, traj)
                  if lazy.at_fixed_point[si]]
        if marked:
            break
    si = marked[0]
    off, na = tree.infoset_offset[si], tree.actions_per_infoset[si]
    before = lazy.bar[off:off + na].copy()
    _lazy_and_eager_step(tree, params, lazy, eager, traj)
    assert not lazy.at_fixed_point[si]
    assert not np.array_equal(lazy.bar[off:off + na], before)
    # Steps that leave it pending, then one catch-up that replays them.
    for _ in range(20):
        traj = sample_trajectory(tree, eager.cur_views, rng)
        if si not in _visited_infosets(tree, traj):
            _lazy_and_eager_step(tree, params, lazy, eager, traj)
    assert lazy.last_seen[si] < lazy.t
    visited_row = lazy.cur[off:off + na].copy()
    lazy_catch_up(lazy, tree, params)
    assert not np.array_equal(lazy.cur[off:off + na], visited_row)
    assert np.array_equal(lazy.cur, eager.cur)
    assert np.array_equal(lazy.bar, eager.bar)


def test_lazy_leduc_run_skips_rows_at_their_fixed_point(leduc, monkeypatch):
    """A 40-step Leduc qfr-lazy run (seed 1) solves fewer than 10,000 prox
    rows; replaying every pending step solves 74,880."""
    rows = []
    prox_batch = solvers.prox_batch

    def counting(family, X, *args):
        rows.append(X.shape[0])
        return prox_batch(family, X, *args)

    monkeypatch.setattr(solvers, "prox_batch", counting)
    cfg = harness.RunConfig(game="leduc", algo="qfr-lazy", feedback="tq",
                            tau=1e-3, gamma=1e-2, eta=1e-2, iters=40,
                            eval_every=20)
    harness.run_single(cfg, 1, None, leduc)
    assert 0 < sum(rows) < 10_000


# ---------------------------------------------------------------------------
# PGA


def test_pga_zero_feedback_fixed_point():
    tree = _zero_utility_game()
    params = SolverParams(tree, feedback=CF, family=EUCLIDEAN, tau=0.0,
                          gamma=0.0, eta=0.5)
    state = SolverState(tree, params)
    before = state.cur.copy()
    pga_step(state, tree, params)
    assert np.allclose(state.cur, before, atol=1e-12)


def test_pga_vanishing_eta_fixed_point(kuhn):
    # eta = 0 is rejected (test_solver_params_rejects_bad_rates), so a
    # tiny step size stands in for it.
    params = SolverParams(kuhn, feedback=CF, tau=0.0, gamma=0.0, eta=1e-300)
    state = SolverState(kuhn, params)
    before = state.cur.copy()
    pga_step(state, kuhn, params)
    assert np.allclose(state.cur, before, atol=1e-12)


@pytest.mark.parametrize("eta", [1e300, 1e308])
def test_pga_iterates_stay_in_the_truncated_simplexes_at_huge_steps(kuhn,
                                                                     eta):
    params = SolverParams(kuhn, feedback=CF, family=EUCLIDEAN, tau=0.0,
                          gamma=0.01, eta=eta)
    state = SolverState(kuhn, params)
    for _ in range(5):
        pga_step(state, kuhn, params)
        for si, x in enumerate(state.cur_views):
            sx = TruncatedSimplex(params.gamma[si], kuhn.nu[si])
            assert sx.contains(x, tol=1e-12)


def test_pga_depth_schedule_average_converges(kuhn):
    params = SolverParams(kuhn, feedback=CF, tau=0.0, gamma=0.0, eta=0.02,
                          schedule="depth:0.5")
    state = SolverState(kuhn, params)
    seq_sum = np.zeros(kuhn.num_pairs)
    checkpoints = {}
    for t in range(1, 10_001):
        pga_step(state, kuhn, params)
        for p in (PLAYER1, PLAYER2):
            sf = to_sequence_form(kuhn, state.cur_views, p)
            for si in kuhn.infoset_ids(p):
                off = kuhn.infoset_offset[si]
                seq_sum[off:off + kuhn.actions_per_infoset[si]] += sf.seq[si]
        if t in (1000, 10_000):
            avg = []
            for si in range(kuhn.num_infosets):
                off = kuhn.infoset_offset[si]
                na = kuhn.actions_per_infoset[si]
                chunk = seq_sum[off:off + na]
                avg.append(chunk / chunk.sum())
            checkpoints[t] = exploitability(kuhn, avg)
    assert checkpoints[10_000] < checkpoints[1000]


# ---------------------------------------------------------------------------
# CFR / CFR+ / OS-MCCFR baselines


def test_cfr_zero_regrets_plays_uniform(kuhn):
    params = SolverParams(kuhn, feedback=CF, tau=0.0, gamma=0.0)
    state = SolverState(kuhn, params)
    # The iterate used at step 1 (all-zero regrets) is uniform by the
    # regret-matching convention.
    assert np.allclose(state.cur, np.concatenate(uniform_profile(kuhn)))
    cfr_step(state, kuhn, params)
    # Accumulated average after one step is the uniform strategy.
    assert np.allclose(np.concatenate(average_profile(state, kuhn)),
                       np.concatenate(uniform_profile(kuhn)))


def test_cfr_plus_converges_fast(kuhn):
    params = SolverParams(kuhn, feedback=CF, tau=0.0, gamma=0.0)
    state = SolverState(kuhn, params)
    for _ in range(2000):
        cfr_plus_step(state, kuhn, params)
    assert exploitability(kuhn, average_profile(state, kuhn)) <= 1e-3


def test_os_mccfr_full_exploration_uniform_sampling(pennies):
    params = SolverParams(pennies, feedback=CF, tau=0.0, gamma=0.0,
                          explore_eps=1.0)
    rng = np.random.default_rng(17)
    n = 4000
    counts = np.zeros(2)
    for _ in range(n):
        state = SolverState(pennies, params)
        state.cur_views[0][:] = [1.0, 0.0]  # deterministic current policy
        traj = os_mccfr_step(state, pennies, params, rng)
        counts[traj.actions[0]] += 1
    sigma = np.sqrt(n * 0.25)
    assert abs(counts[0] - n / 2) <= 4.0 * sigma


def test_os_mccfr_increment_unbiased(kuhn):
    # Expected sampled regret increment at every (s, a) equals the
    # full-information counterfactual regret increment.
    params = SolverParams(kuhn, feedback=CF, tau=0.0, gamma=0.0,
                          explore_eps=0.5)
    state = SolverState(kuhn, params)
    uniform = np.concatenate(uniform_profile(kuhn))
    fb = compute_feedback(kuhn, uniform_profile(kuhn), CF)
    want = np.concatenate([
        fb.cf[si] - fb.cf[si] @ uniform_profile(kuhn)[si]
        for si in range(kuhn.num_infosets)])
    rng = np.random.default_rng(21)
    n = 60_000
    sums = np.zeros(kuhn.num_pairs)
    sq = np.zeros(kuhn.num_pairs)
    for _ in range(n):
        state.cur[:] = uniform
        state.regret[:] = 0.0
        os_mccfr_step(state, kuhn, params, rng)
        sums += state.regret
        sq += state.regret ** 2
    mean = sums / n
    se = np.sqrt(np.maximum(sq / n - mean ** 2, 1e-12) / n)
    assert np.all(np.abs(mean - want) <= 5.0 * se)


@pytest.mark.slow
def test_os_mccfr_converges_million_iterations(kuhn):
    params = SolverParams(kuhn, feedback=CF, tau=0.0, gamma=0.0,
                          explore_eps=0.1)
    finals = []
    for seed in range(20):
        state = SolverState(kuhn, params)
        rng = np.random.default_rng(seed)
        for _ in range(1_000_000):
            os_mccfr_step(state, kuhn, params, rng)
        finals.append(exploitability(kuhn, average_profile(state, kuhn)))
    assert np.median(finals) <= 0.02


def test_os_mccfr_converges_scaled_down(kuhn):
    params = SolverParams(kuhn, feedback=CF, tau=0.0, gamma=0.0,
                          explore_eps=0.1)
    state = SolverState(kuhn, params)
    rng = np.random.default_rng(1)
    for _ in range(50_000):
        os_mccfr_step(state, kuhn, params, rng)
    assert exploitability(kuhn, average_profile(state, kuhn)) <= 0.1


@pytest.mark.parametrize("game, steps", [("kuhn", 3000), ("leduc", 400),
                                         ("pennies", 500)])
def test_os_mccfr_regret_matching_equals_the_per_infoset_rule(
        request, game, steps):
    # After each step, every visited infoset plays its positive regrets
    # normalized by their sum (uniform if none is positive), bit for bit as
    # a per-infoset loop computes them; the other infosets keep theirs.
    tree = request.getfixturevalue(game)
    for seed, eps in itertools.product(range(3), (0.0, 0.6, 1.0)):
        params = SolverParams(tree, feedback=CF, explore_eps=eps)
        state = SolverState(tree, params)
        rng = np.random.default_rng(seed)
        for _ in range(steps):
            want = state.cur.copy()
            traj = os_mccfr_step(state, tree, params, rng)
            for node in traj.nodes[:-1]:
                if tree.nodes[node].is_chance:
                    continue
                si = tree.nodes[node].infoset
                off = tree.infoset_offset[si]
                na = tree.actions_per_infoset[si]
                pos = np.maximum(state.regret[off:off + na], 0.0)
                tot = pos.sum()
                want[off:off + na] = pos / tot if tot > 0.0 else 1.0 / na
            assert np.array_equal(state.cur, want)


# ---------------------------------------------------------------------------
# MMD


def test_mmd_is_multiplicative_weights(kuhn):
    params = SolverParams(kuhn, feedback=QVALUE, family=ENTROPY, tau=0.0,
                          gamma=0.0, eta=0.2)
    state = SolverState(kuhn, params)
    fb = compute_feedback(kuhn, state.profile(kuhn), QVALUE)
    mmd_step(state, kuhn, params)
    for si in range(kuhn.num_infosets):
        x0 = uniform_profile(kuhn)[si]
        want = x0 * np.exp(0.2 * np.asarray(fb.q[si]))
        want /= want.sum()
        assert np.allclose(state.cur_views[si], want, atol=1e-12)


def test_mmd_matches_qfr_center_first_step(kuhn):
    kw = dict(feedback=QVALUE, family=ENTROPY, tau=0.01, gamma=0.01, eta=0.1)
    params = SolverParams(kuhn, **kw)
    s_qfr = SolverState(kuhn, params)
    s_mmd = SolverState(kuhn, params)
    qfr_full_step(s_qfr, kuhn, params)
    mmd_step(s_mmd, kuhn, params)
    assert np.allclose(s_qfr.bar, s_mmd.cur, atol=1e-14)


def test_mmd_fixed_point_residual(kuhn):
    params = SolverParams(kuhn, feedback=QVALUE, family=ENTROPY, tau=0.01,
                          gamma=0.01, eta=0.1)
    state = SolverState(kuhn, params)
    for _ in range(20_000):
        mmd_step(state, kuhn, params)
    before = state.cur.copy()
    mmd_step(state, kuhn, params)
    assert np.max(np.abs(state.cur - before)) <= 1e-6


# ---------------------------------------------------------------------------
# Schedules and constants


def test_lr_schedule_uniform(kuhn):
    eta = lr_schedule(kuhn, 0.05, "uniform")
    assert np.all(eta == 0.05)


def test_lr_schedule_two_level_chain():
    doc = {
        "name": "chain",
        "root": 0,
        "nodes": [
            {"id": 0, "kind": "p1", "infoset": 0, "actions": [
                {"label": "a", "child": 1}, {"label": "b", "child": 4}]},
            {"id": 1, "kind": "p1", "infoset": 1, "actions": [
                {"label": "a", "child": 2}, {"label": "b", "child": 3}]},
            {"id": 2, "kind": "terminal", "utility_p1": 1.0},
            {"id": 3, "kind": "terminal", "utility_p1": -1.0},
            {"id": 4, "kind": "terminal", "utility_p1": 0.0},
        ],
    }
    tree = load_game(doc)
    eta = lr_schedule(tree, 0.1, "depth:0.5")
    assert np.allclose(eta, [0.1, 0.2])


def test_lr_schedule_bad_ratio(kuhn):
    with pytest.raises(ValueError):
        lr_schedule(kuhn, 0.1, "depth:0.0")
    with pytest.raises(ValueError):
        lr_schedule(kuhn, 0.1, "depth:1.5")


def _condition_oracle(tree, eta, constants, alpha=1.0):
    """Independent scalar recomputation of the three step-size conditions
    for a uniform schedule on Kuhn."""
    eta0 = float(eta[0])
    gs = constants.gamma_seq
    log1g = np.log(1.0 / gs)
    tau_term = constants.tau / constants.m1 * log1g if constants.tau else 0.0
    max_k = 2.0 * constants.q_bound / alpha + tau_term
    # Condition A: deepest own ancestry has one prior own action, so the
    # cumulative sum eta0 <= eta0 always holds for uniform schedules.
    a_ok = True
    b_ok = 6.0 * eta0 * max_k <= 1.0 + 1e-12
    c_ok = eta0 * (2.0 * constants.q_bound
                   + constants.tau * alpha / constants.m1 * log1g) \
        <= 1.0 + 1e-12
    return a_ok, b_ok, c_ok


def test_schedule_report_flags_match_oracle(kuhn):
    constants = game_constants(kuhn, QVALUE, ENTROPY, tau=0.1, gamma0=0.1)
    for eta0 in (0.1, 1e-2, 1e-3, 1e-6):
        eta = np.full(kuhn.num_infosets, eta0)
        report = schedule_report(kuhn, eta, constants)
        a_ok, b_ok, c_ok = _condition_oracle(kuhn, eta, constants)
        assert report.cond_a_ok == a_ok
        assert report.cond_b_ok == b_ok
        assert report.cond_c_ok == c_ok
    big = schedule_report(kuhn, np.full(kuhn.num_infosets, 0.1), constants)
    small = schedule_report(kuhn, np.full(kuhn.num_infosets, 1e-6),
                            constants)
    assert not big.all_ok
    assert small.all_ok


def _reversed_kuhn():
    """Kuhn loaded from a document whose infoset ids run backwards, so that
    they are not in first-encounter order."""
    doc = dump_game(build_kuhn())
    last = max(nd["infoset"] for nd in doc["nodes"] if "infoset" in nd)
    for nd in doc["nodes"]:
        if "infoset" in nd:
            nd["infoset"] = last - nd["infoset"]
    return load_game(doc)


def _bits(violations):
    return [(si, np.float64(v).view(np.uint64)) for si, v in violations]


@pytest.mark.parametrize("build", [build_kuhn, build_leduc,
                                   build_matching_pennies, _reversed_kuhn])
def test_schedule_report_matches_node_walk_oracle(build):
    tree = build()
    first_encounter = bool(np.all(np.diff(tree.first_member) > 0))
    assert first_encounter == (build is not _reversed_kuhn)
    rng = np.random.default_rng(3)
    for kind, family, tau, gamma0, schedule in itertools.product(
            (CF, QVALUE, TRAJQ), (ENTROPY, EUCLIDEAN), (0.0, 1e-3),
            (0.0, 1e-2), ("uniform", "depth:0.5")):
        c = game_constants(tree, kind, family, tau=tau, gamma0=gamma0)
        # Step sizes that break each condition somewhere, and random ones.
        for eta in (lr_schedule(tree, 1e-4, schedule),
                    lr_schedule(tree, 0.5, schedule),
                    rng.uniform(0.0, 0.2, tree.num_infosets)):
            alpha = rng.uniform(0.5, 2.0, tree.num_infosets)
            report = schedule_report(tree, eta, c, alpha)
            va, vb, vc = schedule_report_walk(tree, eta, c, alpha)
            assert _bits(report.violations_a) == _bits(va)
            assert _bits(report.violations_b) == _bits(vb)
            assert _bits(report.violations_c) == _bits(vc)
            assert report.all_ok == (not va and not vb and not vc)


def test_game_constants_log1g_and_tau_term(kuhn):
    c = game_constants(kuhn, QVALUE, ENTROPY, tau=1e-3, gamma0=1e-2)
    assert c.log1g == np.log(1.0 / c.gamma_seq)
    assert c.tau_term == c.tau / c.m1 * c.log1g
    # A per-infoset alpha gives the same bits as the number.
    per_infoset = game_constants(kuhn, QVALUE, ENTROPY,
                                 np.ones(kuhn.num_infosets), 1e-3,
                                 1e-2, horizon=100)
    for name, value in vars(game_constants(kuhn, QVALUE, ENTROPY, 1.0, 1e-3,
                                           1e-2, horizon=100)).items():
        assert np.array_equal(getattr(per_infoset, name), value), name
    c = game_constants(kuhn, QVALUE, ENTROPY, tau=1e-3, gamma0=0.0)
    assert c.log1g == np.inf and c.tau_term == np.inf
    c = game_constants(kuhn, TRAJQ, EUCLIDEAN, tau=0.0, gamma0=1e-2)
    assert c.tau_term == 0.0


def test_game_constants_m_values(kuhn):
    c = game_constants(kuhn, TRAJQ, ENTROPY, gamma_seq=0.1)
    assert c.m2 == pytest.approx(10.0)
    assert c.m1 == 1.0
    c = game_constants(kuhn, CF, ENTROPY, gamma0=0.1)
    assert c.m1 == 1.0 and c.m2 == 1.0
    c = game_constants(kuhn, QVALUE, ENTROPY, gamma0=0.1)
    assert c.m1 == pytest.approx(c.gamma_seq * c.min_chance_mass)
    assert c.m2 == 1.0
    assert c.m1 <= c.m2


def test_game_constants_tau_zero_q_bound(kuhn):
    c = game_constants(kuhn, CF, ENTROPY, tau=0.0, gamma0=0.1)
    assert c.q_bound == 1.0
    from efglab.game import exploration_distribution
    nu = exploration_distribution(kuhn)
    floor = 0.1 * min(float(v.min()) for v in nu)
    assert c.q_bound_sampled == pytest.approx(1.0 / floor)


def test_check_m_bounds_counts():
    c = GameConstants(m1=1.0, m2=10.0)
    assert check_m_bounds(np.array([1.0, 5.0, 10.0]), c) == 0
    assert check_m_bounds(np.array([0.5, 5.0, 11.0]), c) == 2


def test_effective_tau_anneals_geometrically(kuhn):
    params = SolverParams(kuhn, tau=0.1, anneal_decay=0.5, anneal_every=10)
    assert params.effective_tau(25) == 0.025
    assert params.effective_tau(9) == 0.1
