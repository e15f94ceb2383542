"""Batched sampled and lazy QFR updates against a per-infoset oracle.

The oracle is the one-row-at-a-time form of each step: two `prox_step`
solves per updated infoset, pending zero-feedback steps replayed one after
another, and a hand-written inverse-CDF sampler that catches each infoset
up before reading it. The batched steps put every row through the same
arithmetic, so both must give the same states bit for bit.
"""

import numpy as np
import pytest

from efglab.game import PLAYER1, unflatten_profile
from efglab.regularizers import ENTROPY, EUCLIDEAN, prox_step
from efglab.solvers import (SolverParams, SolverState, lazy_catch_up,
                            lazy_qfr_step, qfr_lazy_eager_step,
                            qfr_stochastic_step)
from efglab.values import (TRAJQ, Trajectory, estimate_trajectory_q,
                           sample_trajectory)

FAMILIES = (ENTROPY, EUCLIDEAN)


# ---------------------------------------------------------------------------
# Oracle


def _two_prox(state, params, si, g, tau0):
    sx = params.simplexes[si]
    barn = prox_step(state.bar_views[si], g, tau0, params.eta[si],
                     params.alpha[si], params.family, sx)
    curn = prox_step(barn, g, tau0, params.eta[si], params.alpha[si],
                     params.family, sx)
    state.bar_views[si][:] = barn
    state.cur_views[si][:] = curn


def _zero_feedback_steps(state, params, si, count):
    tau0 = state.last_tau0[si]
    if count <= 0 or tau0 == 0.0:
        return
    g = np.zeros(state.cur_views[si].shape[0])
    for _ in range(count):
        _two_prox(state, params, si, g, tau0)


def _catch_up(state, params, si, t_now):
    _zero_feedback_steps(state, params, si, t_now - state.last_seen[si])
    state.last_seen[si] = t_now


def _sample_index(rng, probs):
    r = rng.random() * probs.sum()
    acc = 0.0
    for i in range(probs.shape[0] - 1):
        acc += probs[i]
        if r < acc:
            return i
    return probs.shape[0] - 1


def _sample_catching_up(tree, state, params, rng):
    node = tree.root
    nodes, actions, probs_taken = [], [], []
    while True:
        nd = tree.nodes[node]
        if nd.is_terminal:
            nodes.append(node)
            return Trajectory(nodes, actions, probs_taken, list(probs_taken),
                              nd.utility)
        if nd.is_chance:
            probs = nd.chance_probs
        else:
            _catch_up(state, params, nd.infoset, state.t)
            probs = state.cur_views[nd.infoset]
        a = _sample_index(rng, probs)
        nodes.append(node)
        actions.append(a)
        probs_taken.append(float(probs[a]))
        node = nd.children[a]


def _own_reach_before(tree, traj, state, upto):
    p = tree.nodes[traj.nodes[upto]].owner
    prod = 1.0
    for k in range(upto):
        nd = tree.nodes[traj.nodes[k]]
        if not nd.is_chance and nd.owner == p:
            prod *= state.cur_views[nd.infoset][traj.actions[k]]
    return prod


def _lazy_real_updates(state, tree, params, traj, tau):
    est = estimate_trajectory_q(tree, traj, state.cur_views, tau,
                                params.alpha, params.family, dilated=True)
    first = {}
    for k in range(traj.num_steps):
        nd = tree.nodes[traj.nodes[k]]
        if not nd.is_chance:
            first.setdefault(nd.infoset, k)
    # est lists the deepest infoset first, so every weight reads strategies
    # that this step has not updated yet.
    for si, (a, v) in est.items():
        tau0 = tau * _own_reach_before(tree, traj, state, first[si])
        g = np.zeros(tree.actions_per_infoset[si])
        g[a] = -v
        _two_prox(state, params, si, g, tau0)
        state.last_tau0[si] = tau0
    return est


def oracle_stochastic_step(state, tree, params, rng):
    tau = params.effective_tau(state.t)
    traj = sample_trajectory(tree, state.cur_views, rng)
    est = estimate_trajectory_q(tree, traj, state.cur_views, tau,
                                params.alpha, params.family)
    for si, (a, v) in est.items():
        g = np.zeros(tree.actions_per_infoset[si])
        g[a] = -v
        _two_prox(state, params, si, g, tau)
    state.t += 1
    for si in est:
        state.last_seen[si] = state.t
    return traj


def oracle_lazy_step(state, tree, params, rng):
    tau = params.effective_tau(state.t)
    traj = _sample_catching_up(tree, state, params, rng)
    est = _lazy_real_updates(state, tree, params, traj, tau)
    state.t += 1
    for si in est:
        state.last_seen[si] = state.t
    return traj


def oracle_eager_step(state, tree, params, traj):
    tau = params.effective_tau(state.t)
    est = _lazy_real_updates(state, tree, params, traj, tau)
    for si in range(tree.num_infosets):
        if si not in est:
            _zero_feedback_steps(state, params, si, 1)
    state.t += 1
    state.last_seen[:] = state.t


def oracle_catch_up(state, tree, params):
    for si in range(tree.num_infosets):
        _catch_up(state, params, si, state.t)


# ---------------------------------------------------------------------------
# Tests


def _params(tree, family):
    return SolverParams(tree, feedback=TRAJQ, family=family, tau=0.01,
                        gamma=0.05, eta=0.05)


def _assert_same_state(got, want):
    assert np.array_equal(got.cur, want.cur)
    assert np.array_equal(got.bar, want.bar)
    assert np.array_equal(got.last_seen, want.last_seen)
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
    """Sampling lazy steps, the same steps on given trajectories, and
    periodic catch-ups, against the oracle with its own sampler."""
    tree = request.getfixturevalue(game)
    params = _params(tree, family)
    sampled, replayed = SolverState(tree, params), SolverState(tree, params)
    want = SolverState(tree, params)
    r_got, r_want = np.random.default_rng(5), np.random.default_rng(5)
    every = STEPS[game]["catch_up_every"]
    for it in range(1, STEPS[game]["lazy"] + 1):
        traj = lazy_qfr_step(sampled, tree, params, r_got)
        assert _same_trajectory(traj, oracle_lazy_step(want, tree, params,
                                                       r_want))
        lazy_qfr_step(replayed, tree, params, traj=traj)
        if it % every == 0:
            lazy_catch_up(sampled, tree, params)
            lazy_catch_up(replayed, tree, params)
            oracle_catch_up(want, tree, params)
            _assert_same_state(sampled, want)
            _assert_same_state(replayed, want)


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
def test_catch_up_mixed_pending_counts(leduc, family):
    """Rows with 0 to 7 pending steps, moved away from their initial
    strategies, and one row whose frozen weight is 0."""
    tree = leduc
    params = _params(tree, family)
    got = SolverState(tree, params)
    rng = np.random.default_rng(17)
    for _ in range(60):
        qfr_stochastic_step(got, tree, params, rng)
    moved = np.flatnonzero(got.last_seen > 0)
    assert set(tree.actions_per_infoset[moved]) == {2, 3}
    got.last_seen[:] = got.t - np.arange(tree.num_infosets) % 8
    got.last_tau0[:] = np.where(tree.infoset_owner == PLAYER1, 0.01, 0.002)
    got.last_seen[moved] = got.t - np.arange(moved.shape[0]) % 8
    frozen = moved[-1]
    got.last_seen[frozen] = got.t - 5
    got.last_tau0[frozen] = 0.0
    want = SolverState(tree, params)
    for name in ("cur", "bar", "last_seen", "last_tau0"):
        getattr(want, name)[:] = getattr(got, name)
    want.t = got.t
    before = got.cur.copy()

    lazy_catch_up(got, tree, params)
    oracle_catch_up(want, tree, params)
    _assert_same_state(got, want)
    assert np.all(got.last_seen == got.t)
    assert not np.array_equal(got.cur, before)
    assert np.array_equal(got.cur_views[frozen],
                          unflatten_profile(tree, before)[frozen])
