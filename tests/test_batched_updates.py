"""Batched sampled and lazy QFR updates against per-infoset oracles.

The oracles are the one-row-at-a-time form of each step: two `prox_step`
solves per updated infoset. The lazy oracle (`tests/oracles.py`) is the
paper's deferred form: pending zero-feedback steps replayed one after
another, and a hand-written inverse-CDF sampler that catches each infoset
up before reading it. The batched steps put every row through the same
arithmetic, so both must give the same states bit for bit.
"""

import numpy as np
import pytest

from efglab.game import PLAYER1
from efglab.regularizers import ENTROPY, EUCLIDEAN
from efglab.solvers import (SolverParams, SolverState, lazy_catch_up,
                            lazy_qfr_step, qfr_lazy_eager_step,
                            qfr_stochastic_step)
from efglab.values import TRAJQ, estimate_trajectory_q, sample_trajectory
from oracles import (LazyOracleState, oracle_catch_up, oracle_eager_step,
                     oracle_lazy_step, two_prox_row)

FAMILIES = (ENTROPY, EUCLIDEAN)


def oracle_stochastic_step(state, tree, params, rng):
    tau = params.effective_tau(state.t)
    traj = sample_trajectory(tree, state.cur_views, rng)
    est = estimate_trajectory_q(tree, traj, state.cur_views, tau,
                                params.alpha, params.family)
    for si, (a, v) in est.items():
        g = np.zeros(tree.actions_per_infoset[si])
        g[a] = -v
        two_prox_row(tree, state, params, si, g, tau)
    state.t += 1
    return traj


# ---------------------------------------------------------------------------
# Tests


def _params(tree, family):
    return SolverParams(tree, feedback=TRAJQ, family=family, tau=0.01,
                        gamma=0.05, eta=0.05)


def _assert_same_state(got, want):
    assert np.array_equal(got.cur, want.cur)
    assert np.array_equal(got.bar, want.bar)
    assert np.array_equal(got.last_tau0, want.last_tau0)
    assert got.t == want.t


def _same_trajectory(a, b):
    return (a.nodes == b.nodes and a.actions == b.actions
            and a.sample_probs == b.sample_probs
            and a.true_probs == b.true_probs and a.utility == b.utility)


# Steps per test; the Leduc oracle replays about 936 rows per lazy or eager
# step one prox solve at a time, so its lazy and eager runs are shorter.
STEPS = {
    "kuhn": {"stochastic": 300, "lazy": 300, "catch_up_every": 50,
             "eager": 300},
    "leduc": {"stochastic": 300, "lazy": 40, "catch_up_every": 20,
              "eager": 20},
    "mixed_depth": {"lazy": 300, "catch_up_every": 25},
}


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("game", ("kuhn", "leduc"))
def test_stochastic_step_matches_oracle(request, game, family):
    tree = request.getfixturevalue(game)
    params = _params(tree, family)
    got, want = SolverState(tree, params), SolverState(tree, params)
    r_got, r_want = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(STEPS[game]["stochastic"]):
        traj = qfr_stochastic_step(got, tree, params, r_got)
        assert _same_trajectory(traj, oracle_stochastic_step(
            want, tree, params, r_want))
    _assert_same_state(got, want)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("game", ("kuhn", "leduc"))
def test_lazy_step_and_catch_up_match_oracle(request, game, family):
    """Sampling lazy steps and the same steps on given trajectories,
    against the deferred oracle with its own sampler, compared at each
    oracle catch-up."""
    tree = request.getfixturevalue(game)
    params = _params(tree, family)
    sampled, replayed = SolverState(tree, params), SolverState(tree, params)
    want = LazyOracleState(tree, params)
    r_got, r_want = np.random.default_rng(5), np.random.default_rng(5)
    every = STEPS[game]["catch_up_every"]
    for it in range(1, STEPS[game]["lazy"] + 1):
        traj = lazy_qfr_step(sampled, tree, params, r_got)
        assert _same_trajectory(traj, oracle_lazy_step(want, tree, params,
                                                       r_want))
        lazy_qfr_step(replayed, tree, params, traj=traj)
        if it % every == 0:
            oracle_catch_up(want, tree, params)
            _assert_same_state(sampled, want)
            _assert_same_state(replayed, want)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("game", ("mixed_depth", "leduc"))
def test_lazy_step_under_annealed_tau_matches_oracle(request, game, family):
    """A visit freezes its weight from the annealed tau of that iteration:
    with tau halved every 7 steps, sampling lazy steps give the deferred
    oracle's trajectories and its states at each oracle catch-up. The
    eager name is the lazy step, and lazy_catch_up changes nothing."""
    assert qfr_lazy_eager_step is lazy_qfr_step
    tree = request.getfixturevalue(game)
    params = SolverParams(tree, feedback=TRAJQ, family=family, tau=0.01,
                          gamma=0.05, eta=0.05, anneal_decay=0.5,
                          anneal_every=7)
    got, want = SolverState(tree, params), LazyOracleState(tree, params)
    r_got, r_want = np.random.default_rng(13), np.random.default_rng(13)
    every = STEPS[game]["catch_up_every"]
    for it in range(1, STEPS[game]["lazy"] + 1):
        traj = lazy_qfr_step(got, tree, params, r_got)
        assert _same_trajectory(traj, oracle_lazy_step(want, tree, params,
                                                       r_want))
        if it % every == 0:
            before = [got.cur.tobytes(), got.bar.tobytes(),
                      got.last_tau0.tobytes()]
            lazy_catch_up(got, tree, params)
            assert before == [got.cur.tobytes(), got.bar.tobytes(),
                              got.last_tau0.tobytes()]
            oracle_catch_up(want, tree, params)
            _assert_same_state(got, want)
    # The run crossed several annealing stages, so the frozen weights come
    # from more than one tau.
    assert params.effective_tau(got.t) <= params.tau / 16


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("game", ("kuhn", "leduc"))
def test_eager_step_matches_oracle(request, game, family):
    tree = request.getfixturevalue(game)
    params = _params(tree, family)
    got, want = SolverState(tree, params), SolverState(tree, params)
    rng = np.random.default_rng(11)
    for _ in range(STEPS[game]["eager"]):
        traj = sample_trajectory(tree, want.cur_views, rng)
        qfr_lazy_eager_step(got, tree, params, traj=traj)
        oracle_eager_step(want, tree, params, traj)
    _assert_same_state(got, want)


@pytest.mark.parametrize("family", FAMILIES)
def test_lazy_step_with_mixed_frozen_weights_matches_oracle(leduc, family):
    """Rows moved away from their initial strategies, with frozen weights
    of two sizes and 0 on every fifth moved row, then eight lazy steps:
    the oracle leaves rows with 0 to 8 steps pending and catches them up
    at the end. A row whose frozen weight stays 0 never moves."""
    tree = leduc
    params = _params(tree, family)
    got = SolverState(tree, params)
    rng = np.random.default_rng(17)
    for _ in range(60):
        qfr_stochastic_step(got, tree, params, rng)
    moved = np.flatnonzero([not np.array_equal(got.cur_views[si], row)
                            for si, row in enumerate(
                                SolverState(tree, params).cur_views)])
    assert set(tree.actions_per_infoset[moved]) == {2, 3}
    got.last_tau0[:] = np.where(tree.infoset_owner == PLAYER1, 0.01, 0.002)
    got.last_tau0[moved[::5]] = 0.0
    want = LazyOracleState(tree, params)
    for name in ("cur", "bar", "last_tau0"):
        getattr(want, name)[:] = getattr(got, name)
    want.t = got.t
    want.last_seen[:] = got.t
    before = got.cur.copy()

    for _ in range(8):
        traj = sample_trajectory(tree, got.cur_views, rng)
        lazy_qfr_step(got, tree, params, traj=traj)
        oracle_lazy_step(want, tree, params, traj=traj)
    pending = want.t - want.last_seen
    assert pending.min() == 0 and pending.max() == 8
    oracle_catch_up(want, tree, params)
    _assert_same_state(got, want)
    frozen = moved[::5][got.last_tau0[moved[::5]] == 0.0]
    assert frozen.size > 0
    for si in frozen:
        off, na = tree.infoset_offset[si], tree.actions_per_infoset[si]
        assert np.array_equal(got.cur[off:off + na], before[off:off + na])
    assert not np.array_equal(got.cur, before)


@pytest.mark.parametrize("family", FAMILIES)
def test_lazy_rows_at_their_fixed_point_match_oracle(leduc, family):
    """With tau = 1e-3 most Leduc rows sit at the fixed point of their
    zero-feedback step (the step returns bar bit for bit); the batched
    lazy step keeps updating them and stays bit-equal to the oracle,
    which replays every pending step one row at a time."""
    tree = leduc
    params = SolverParams(tree, feedback=TRAJQ, family=family, tau=1e-3,
                          gamma=1e-2, eta=1e-2)
    got, want = SolverState(tree, params), LazyOracleState(tree, params)
    r_got, r_want = np.random.default_rng(21), np.random.default_rng(21)
    for it in range(1, 21):
        traj = lazy_qfr_step(got, tree, params, r_got)
        assert _same_trajectory(traj, oracle_lazy_step(want, tree, params,
                                                       r_want))
        if it % 10 == 0:
            oracle_catch_up(want, tree, params)
            _assert_same_state(got, want)
    fixed = 0
    for si in range(tree.num_infosets):
        off, na = tree.infoset_offset[si], tree.actions_per_infoset[si]
        bar = got.bar[off:off + na].copy()
        two_prox_row(tree, want, params, si, np.zeros(na), got.last_tau0[si])
        fixed += want.bar[off:off + na].tobytes() == bar.tobytes()
    assert 0 < fixed < tree.num_infosets
