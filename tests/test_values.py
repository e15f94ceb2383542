"""Value feedback, trajectory sampling, and the one-hot estimator."""

import numpy as np
import pytest

from efglab.game import (PLAYER1, PLAYER2, dump_game, flatten_profile,
                         load_game, random_profile, uniform_profile)
from efglab.regularizers import ENTROPY, local_psi
from efglab.values import (CF, QVALUE, TRAJQ, compute_feedback,
                           estimate_trajectory_q, infoset_reach, multiplier,
                           reach_flat, sample_trajectory)
from oracles import (opponent_reach, own_sequences, reach_probabilities,
                     to_sequence_form)


# ---------------------------------------------------------------------------
# Reach sweep


def _profile_with_pure_rows(tree, rng):
    """A random profile in which about a third of the rows are pure."""
    prof = random_profile(tree, rng)
    for si in range(tree.num_infosets):
        if rng.random() < 1.0 / 3.0:
            prof[si] = np.zeros_like(prof[si])
            prof[si][rng.integers(prof[si].shape[0])] = 1.0
    return prof


@pytest.mark.parametrize("game", ["kuhn", "leduc", "pennies", "leduc-json"])
def test_reach_flat_is_bit_identical_to_node_oracle(game, request, rng):
    if game == "leduc-json":
        tree = load_game(dump_game(request.getfixturevalue("leduc")))
    else:
        tree = request.getfixturevalue(game)
    zeros = 0
    for _ in range(6):
        prof = _profile_with_pure_rows(tree, rng)
        got = reach_flat(tree, flatten_profile(tree, prof))
        want = reach_probabilities(tree, prof)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        zeros += int(np.sum(got[0] == 0.0) + np.sum(got[1] == 0.0))
    assert zeros > 0
    assert not tree.chance_reach.flags.writeable


# ---------------------------------------------------------------------------
# Opponent reach


def _opponent_reach_oracle(tree, profile):
    mu1, mu2, muc = reach_probabilities(tree, profile)
    out = np.zeros(tree.num_infosets)
    for si, s in enumerate(tree.infosets):
        opp = mu2 if s.owner == PLAYER1 else mu1
        out[si] = sum(muc[h] * opp[h] for h in s.members)
    return out


def test_opponent_reach_matches_enumeration(kuhn, rng):
    for _ in range(10):
        prof = random_profile(kuhn, rng)
        got = opponent_reach(kuhn, prof)
        want = _opponent_reach_oracle(kuhn, prof)
        assert np.allclose(got, want, atol=1e-14)


def test_opponent_reach_kuhn_uniform(kuhn):
    # Every Kuhn player-2 infoset has two card-consistent histories, each
    # reached with chance 1/6 and one uniform player-1 action of prob 1/2.
    got = opponent_reach(kuhn, uniform_profile(kuhn))
    for si in kuhn.infoset_ids(PLAYER2):
        assert got[si] == pytest.approx(1.0 / 6.0, abs=1e-14)


def test_opponent_reach_positive_full_support(kuhn, rng):
    prof = random_profile(kuhn, rng, min_prob=1e-4)
    assert np.all(opponent_reach(kuhn, prof) > 0.0)


# ---------------------------------------------------------------------------
# CF = m * q identity and reductions


@pytest.mark.parametrize("kind", [CF, QVALUE, TRAJQ])
def test_cf_equals_m_times_q(kuhn, rng, kind):
    for _ in range(20):
        prof = random_profile(kuhn, rng, min_prob=1e-4)
        fb = compute_feedback(kuhn, prof, kind)
        for si in range(kuhn.num_infosets):
            lhs = fb.cf[si]
            rhs = fb.m[si] * fb.q[si]
            scale = np.maximum(np.abs(lhs), 1.0)
            assert np.all(np.abs(lhs - rhs) / scale <= 1e-12)


def test_trajectory_q_equals_cf_at_top_infosets(kuhn, rng):
    prof = random_profile(kuhn, rng, min_prob=1e-4)
    tq = compute_feedback(kuhn, prof, TRAJQ)
    cf = compute_feedback(kuhn, prof, CF)
    for si, ps in enumerate(own_sequences(kuhn)[0]):
        if ps is None:
            assert np.allclose(tq.q[si], cf.q[si], atol=1e-14)


def test_qvalue_errors_on_zero_opponent_reach(kuhn):
    prof = uniform_profile(kuhn)
    # Player 1 never takes their first action anywhere: the player-2
    # infosets behind it become unreachable.
    parent_seq = own_sequences(kuhn)[0]
    for si in kuhn.infoset_ids(PLAYER1):
        if parent_seq[si] is None:
            prof[si] = np.array([0.0, 1.0])
    with pytest.raises(ValueError, match="opponent reach"):
        compute_feedback(kuhn, prof, QVALUE)


def test_trajq_errors_on_zero_own_reach(kuhn):
    prof = uniform_profile(kuhn)
    parent_seq = own_sequences(kuhn)[0]
    for si in kuhn.infoset_ids(PLAYER1):
        if parent_seq[si] is None:
            prof[si] = np.array([0.0, 1.0])
    with pytest.raises(ValueError, match="own reach"):
        compute_feedback(kuhn, prof, TRAJQ)


def test_infoset_reach_matches_oracles(leduc, rng):
    prof = random_profile(leduc, rng)
    own, opp = infoset_reach(leduc,
                             reach_flat(leduc, flatten_profile(leduc, prof)))
    sf = {p: to_sequence_form(leduc, prof, p) for p in (PLAYER1, PLAYER2)}
    parent_seq = own_sequences(leduc)[0]
    want_own = [sf[s.owner].realization(parent_seq[si])
                for si, s in enumerate(leduc.infosets)]
    assert np.allclose(own, want_own, rtol=1e-12, atol=0.0)
    assert np.allclose(opp, _opponent_reach_oracle(leduc, prof),
                       rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("kind", [CF, QVALUE, TRAJQ])
def test_multiplier_is_feedback_m(leduc, rng, kind):
    prof = random_profile(leduc, rng, min_prob=1e-3)
    reach = infoset_reach(leduc,
                          reach_flat(leduc, flatten_profile(leduc, prof)))
    assert np.array_equal(multiplier(kind, *reach),
                          compute_feedback(leduc, prof, kind).m)


# ---------------------------------------------------------------------------
# Regularizer-augmented values: brute-force path-sum oracle


def _augmented_value_oracle(tree, profile, node, player, tau, alpha, family):
    """Expected downstream payoff of `player` from `node`, with -tau*psi at
    the player's own decision nodes and +tau*psi at the opponent's."""
    nd = tree.nodes[node]
    if nd.is_terminal:
        return nd.utility if player == PLAYER1 else -nd.utility
    if nd.is_chance:
        return sum(p * _augmented_value_oracle(tree, profile, c, player,
                                               tau, alpha, family)
                   for p, c in zip(nd.chance_probs, nd.children))
    bonus = tau * local_psi(profile[nd.infoset], alpha, family)
    if nd.owner == player:
        bonus = -bonus
    return bonus + sum(
        profile[nd.infoset][a]
        * _augmented_value_oracle(tree, profile, c, player, tau, alpha,
                                  family)
        for a, c in enumerate(nd.children))


def _augmented_cf_oracle(tree, profile, tau, alpha, family):
    mu1, mu2, muc = reach_probabilities(tree, profile)
    cf = []
    for si, s in enumerate(tree.infosets):
        opp = mu2 if s.owner == PLAYER1 else mu1
        vec = np.zeros(s.num_actions)
        for h in s.members:
            for a, c in enumerate(tree.nodes[h].children):
                vec[a] += muc[h] * opp[h] * _augmented_value_oracle(
                    tree, profile, c, s.owner, tau, alpha, family)
        cf.append(vec)
    return cf


def test_augmented_cf_matches_path_sum_oracle(kuhn):
    prof = uniform_profile(kuhn)
    fb = compute_feedback(kuhn, prof, CF, tau=0.1, alpha=1.0, family=ENTROPY)
    oracle = _augmented_cf_oracle(kuhn, prof, 0.1, 1.0, ENTROPY)
    # A per-infoset alpha gives the same bits as the number.
    per_infoset = compute_feedback(kuhn, prof, CF, tau=0.1,
                                   alpha=np.ones(kuhn.num_infosets),
                                   family=ENTROPY)
    for si in range(kuhn.num_infosets):
        assert np.allclose(fb.cf[si], oracle[si], atol=1e-10)
        assert np.array_equal(per_infoset.cf[si], fb.cf[si])


def test_augmented_cf_matches_oracle_random(kuhn, rng):
    prof = random_profile(kuhn, rng, min_prob=1e-3)
    fb = compute_feedback(kuhn, prof, QVALUE, tau=0.05, alpha=1.0,
                          family=ENTROPY)
    oracle = _augmented_cf_oracle(kuhn, prof, 0.05, 1.0, ENTROPY)
    opp = opponent_reach(kuhn, prof)
    for si in range(kuhn.num_infosets):
        assert np.allclose(fb.q[si], oracle[si] / opp[si], atol=1e-10)


def test_augmentation_equals_descendant_sum_form(kuhn, rng):
    """Dual route for the augmentation: the difference between augmented and
    plain counterfactual values equals tau times (opponent descendant node
    sum minus the own-infoset sum weighted by relative own reach times
    opponent reach)."""
    tau = 0.07
    prof = random_profile(kuhn, rng, min_prob=1e-3)
    plain = compute_feedback(kuhn, prof, CF)
    aug = compute_feedback(kuhn, prof, CF, tau=tau, alpha=1.0, family=ENTROPY)
    mu1, mu2, muc = reach_probabilities(kuhn, prof)
    opp_r = opponent_reach(kuhn, prof)
    psis = np.array([local_psi(prof[si], 1.0, ENTROPY)
                     for si in range(kuhn.num_infosets)])
    sf = {p: to_sequence_form(kuhn, prof, p) for p in (PLAYER1, PLAYER2)}
    parent_seq = own_sequences(kuhn)[0]

    def own_chain(si):
        chain = []
        seq = parent_seq[si]
        while seq is not None:
            chain.append(seq)
            seq = parent_seq[seq[0]]
        return chain

    def passes_through(h, si, a):
        """Whether node h's root path leaves infoset si via action a."""
        j = h
        while kuhn.nodes[j].parent >= 0:
            par, act = kuhn.nodes[j].parent, kuhn.nodes[j].parent_action
            pn = kuhn.nodes[par]
            if not pn.is_chance and not pn.is_terminal \
                    and pn.infoset == si and act == a:
                return True
            j = par
        return False

    for si, s in enumerate(kuhn.infosets):
        p = s.owner
        mu_own = mu1 if p == PLAYER1 else mu2
        mu_opp = mu2 if p == PLAYER1 else mu1
        for a in range(s.num_actions):
            seq_mass = sf[p].seq[si][a]
            own_part = 0.0
            for sj, s2 in enumerate(kuhn.infosets):
                if s2.owner == p and (si, a) in own_chain(sj):
                    parent_mass = sf[p].realization(parent_seq[sj])
                    own_part += (parent_mass / seq_mass) * opp_r[sj] \
                        * psis[sj]
            opp_part = 0.0
            for h, nd in enumerate(kuhn.nodes):
                if nd.is_terminal or nd.is_chance or nd.owner == p:
                    continue
                if passes_through(h, si, a):
                    opp_part += (muc[h] * mu_opp[h] * mu_own[h] / seq_mass
                                 * psis[nd.infoset])
            want = tau * (opp_part - own_part)
            assert aug.cf[si][a] - plain.cf[si][a] == pytest.approx(
                want, abs=1e-10)


# ---------------------------------------------------------------------------
# Trajectory sampling


def test_deterministic_profile_unique_path(pennies):
    prof = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    rng = np.random.default_rng(0)
    paths = {tuple(sample_trajectory(pennies, prof, rng).nodes)
             for _ in range(50)}
    assert len(paths) == 1


def test_trajectory_length_bounded(kuhn, rng):
    prof = random_profile(kuhn, rng, min_prob=1e-3)
    height = max(n.depth for n in kuhn.nodes)
    for _ in range(200):
        traj = sample_trajectory(kuhn, prof, rng)
        assert traj.num_steps <= height
        assert kuhn.nodes[traj.nodes[-1]].is_terminal


def test_deal_frequencies_binomial(kuhn):
    prof = uniform_profile(kuhn)
    rng = np.random.default_rng(123)
    n = 600_000
    counts = np.zeros(6)
    deals = kuhn.nodes[kuhn.root].children
    for _ in range(n):
        traj = sample_trajectory(kuhn, prof, rng)
        counts[deals.index(traj.nodes[1])] += 1
    p = 1.0 / 6.0
    sigma = np.sqrt(n * p * (1 - p))
    assert np.all(np.abs(counts - n * p) <= 3.0 * sigma)


# ---------------------------------------------------------------------------
# One-hot trajectory-Q estimator


def test_estimator_last_decision_trivial(kuhn, rng):
    prof = random_profile(kuhn, rng, min_prob=1e-2)
    traj = sample_trajectory(kuhn, prof, rng)
    est = estimate_trajectory_q(kuhn, traj, prof)
    # The last decision on the path has no later regularizer terms even at
    # tau > 0; with tau = 0 its estimate is W_p / pi_p(a | s) exactly.
    for k in range(traj.num_steps - 1, -1, -1):
        nd = kuhn.nodes[traj.nodes[k]]
        if nd.is_chance:
            continue
        w = traj.utility if nd.owner == PLAYER1 else -traj.utility
        a, val = est[nd.infoset]
        assert a == traj.actions[k]
        assert val == pytest.approx(w / traj.true_probs[k], abs=1e-14)
        break


@pytest.mark.parametrize("tau", [0.0, 0.01])
def test_estimator_unbiased(kuhn, tau):
    prof = uniform_profile(kuhn)
    exact = compute_feedback(kuhn, prof, TRAJQ, tau=tau, alpha=1.0,
                             family=ENTROPY if tau else None)
    rng = np.random.default_rng(99)
    n = 40_000
    sums = [np.zeros(s.num_actions) for s in kuhn.infosets]
    sq = [np.zeros(s.num_actions) for s in kuhn.infosets]
    for _ in range(n):
        traj = sample_trajectory(kuhn, prof, rng)
        for si, (a, val) in estimate_trajectory_q(
                kuhn, traj, prof, tau=tau, alpha=1.0,
                family=ENTROPY if tau else None).items():
            sums[si][a] += val
            sq[si][a] += val * val
    for si in range(kuhn.num_infosets):
        mean = sums[si] / n
        var = sq[si] / n - mean ** 2
        se = np.sqrt(np.maximum(var, 1e-12) / n)
        assert np.all(np.abs(mean - exact.q[si]) <= 5.0 * se)
