"""Value feedback for extensive-form strategies.

Three interchangeable per-infoset value notions, related through the
multiplier m_s:

    counterfactual (cf): m_s = 1
    q-value (q):         m_s = sum_{h in s} chance(h) * opp_reach(h)
    trajectory-q (tq):   m_s = 1 / own_reach(sigma(s))

so that cf(s, a) = m_s * q(s, a) for every notion. Values may be augmented
with a regularizer bonus: every decision infoset strictly below (s, a)
contributes -tau * psi of its local strategy when it belongs to the same
player and +tau * psi when it belongs to the opponent, weighted by the
probability of reaching it.

The heavy lifting operates on flat "pair" arrays indexed by (infoset,
action) in the tree's canonical order; see game.flatten_profile.
"""

from dataclasses import dataclass

import numpy as np

from .game import PLAYER1, PLAYER2, flatten_profile, unflatten_profile
from .regularizers import check_rate, local_psi, psi_flat, rate_array

CF = "cf"
QVALUE = "q"
TRAJQ = "tq"

FEEDBACK_KINDS = (CF, QVALUE, TRAJQ)


@dataclass(slots=True, eq=False)
class FeedbackBundle:
    """Per-infoset values q, multipliers m, and reach weights."""

    kind: str
    tau: float
    q: list
    m: np.ndarray
    own_reach: np.ndarray
    opp_reach: np.ndarray
    cf: list


# ---------------------------------------------------------------------------
# Flat-array engine


def reach_flat(tree, flat):
    """Sequence weights x of a flat profile: x[pair] is the realization
    weight of the pair's sequence for its owner, and x[-1] = 1 that of the
    empty sequence (the tree's gather arrays use -1 for it).

    A player's reach at a node is the weight of the player's last own pair
    on the path to it, x[tree.node_seq]. One sweep over sequences, one own
    depth at a time, shallowest first: x[pair] = x[parent pair] *
    flat[pair], so each weight multiplies the same factors in the same
    root-to-node order as a node-by-node pass.
    """
    x = np.empty(tree.num_pairs + 1)
    x[-1] = 1.0
    for pairs, parents in tree.seq_levels:
        x[pairs] = x[parents] * flat[pairs]
    return x


def infoset_reach(tree, x):
    """Per-infoset own reach and opponent reach from reach_flat's weights.

    Own reach is the weight of the owner's parent sequence (equal at every
    member by perfect recall); opponent reach sums chance times opponent
    reach over the members.
    """
    own_reach = x[tree.infoset_seq]
    opp_reach = np.bincount(tree.member_infoset,
                            weights=tree.member_chance
                            * x[tree.member_opp_seq],
                            minlength=tree.num_infosets)
    return own_reach, opp_reach


def multiplier(kind, own_reach, opp_reach):
    """The per-infoset multiplier m of a feedback kind: 1 for cf,
    opp_reach for q, 1 / own_reach for tq."""
    if kind == CF:
        return np.ones(own_reach.shape[0])
    reach, name, side = ((opp_reach, "q-value", "opponent") if kind == QVALUE
                         else (own_reach, "trajectory-q", "own"))
    if np.any(reach <= 0.0):
        raise ValueError(f"{name} feedback undefined: infoset "
                         f"{int(np.argmin(reach))} has zero {side} reach")
    return reach.copy() if kind == QVALUE else 1.0 / reach


def value_to_go(tree, flat, tau, alpha, family):
    """Backward sweep of regularizer-augmented values-to-go.

    t[h] is player 1's expected downstream payoff from node h under the
    profile, including tau-weighted regularizer bonuses of every decision
    node at or below h (negative at player 1's nodes, positive at player
    2's). Player 2's values-to-go are -t, since the game is zero-sum.
    """
    t = tree.terminal_base.copy()
    if tau != 0.0:
        psis = psi_flat(tree, flat, alpha, family)
        t[tree.member_node] = tree.member_sign * (
            tau * psis[tree.member_infoset])
    # Each edge's action (or chance) probability.
    w = np.concatenate((flat, tree.chance_edge_prob))[tree.edge_src]
    for lo, hi in reversed(tree.edge_level_slices):
        par = tree.edge_parent[lo:hi]
        ch = tree.edge_child[lo:hi]
        np.add.at(t, par, w[lo:hi] * t[ch])
    return t


def counterfactual_values(tree, x, t):
    """Flat counterfactual values of every (infoset, action) pair for its
    owner, from reach_flat's weights and value_to_go's player-1 values."""
    return np.bincount(tree.dec_pair,
                       weights=(tree.dec_weight * x[tree.dec_opp_seq]
                                * t[tree.dec_child]),
                       minlength=tree.num_pairs)


def feedback_flat(tree, flat, kind, tau=0.0, alpha=1.0, family=None):
    """Flat-array core of compute_feedback.

    Returns (q_flat, m, own_reach, opp_reach, cf_flat); the per-infoset
    arrays m, own_reach, opp_reach have length num_infosets.
    """
    if kind not in FEEDBACK_KINDS:
        raise ValueError(f"unknown feedback kind {kind!r}")
    if tau != 0.0 and family is None:
        raise ValueError("tau > 0 requires a regularizer family")

    x = reach_flat(tree, flat)
    t = value_to_go(tree, flat, tau, alpha, family)
    cf_flat = counterfactual_values(tree, x, t)
    own_reach, opp_reach = infoset_reach(tree, x)
    m = multiplier(kind, own_reach, opp_reach)
    if kind == CF:
        q_flat = cf_flat
    elif kind == QVALUE:
        q_flat = cf_flat / np.repeat(opp_reach, tree.actions_per_infoset)
    else:  # TRAJQ
        q_flat = cf_flat * np.repeat(own_reach, tree.actions_per_infoset)
    return q_flat, m, own_reach, opp_reach, cf_flat


def compute_feedback(tree, profile, kind, tau=0.0, alpha=1.0, family=None):
    """Exact full-information value feedback for both players.

    Returns a FeedbackBundle whose q[s] is the chosen value notion at
    infoset s (for its owner) and m[s] the multiplier relating it to the
    counterfactual value. With tau > 0 a regularizer family must be given
    and values are augmented as described in the module docstring.
    """
    check_rate(tau=tau)
    alpha = rate_array(tree, "alpha", alpha)
    flat = flatten_profile(tree, profile)
    q_flat, m, own_reach, opp_reach, cf_flat = feedback_flat(
        tree, flat, kind, tau, alpha, family)
    return FeedbackBundle(kind, tau, unflatten_profile(tree, q_flat), m,
                          own_reach, opp_reach,
                          unflatten_profile(tree, cf_flat))


# ---------------------------------------------------------------------------
# Sampling


@dataclass(slots=True, eq=False)
class Trajectory:
    """One root-to-terminal sample path.

    nodes includes the terminal; for step k, actions[k] was taken at
    nodes[k] with sampling probability sample_probs[k] and profile
    probability true_probs[k]. utility is player 1's terminal payoff.
    """

    nodes: list
    actions: list
    sample_probs: list
    true_probs: list
    utility: float

    @property
    def num_steps(self):
        return len(self.actions)


def sample_trajectory(tree, profile, rng, explore_eps=0.0):
    """Sample one trajectory. Decision actions are drawn from the profile
    mixed with a uniform exploration component of weight explore_eps."""
    node = tree.root
    nodes, actions, sp, tp = [], [], [], []
    while True:
        nd = tree.nodes[node]
        if nd.is_terminal:
            nodes.append(node)
            return Trajectory(nodes, actions, sp, tp, nd.utility)
        if nd.is_chance:
            probs = nd.chance_probs
            a = _sample_index(rng, probs)
            sprob = tprob = probs[a]
        else:
            probs = np.asarray(profile[nd.infoset], dtype=np.float64)
            if explore_eps > 0.0:
                mix = ((1.0 - explore_eps) * probs
                       + explore_eps / probs.shape[0])
            else:
                mix = probs
            a = _sample_index(rng, mix)
            sprob, tprob = mix[a], probs[a]
        nodes.append(node)
        actions.append(a)
        sp.append(float(sprob))
        tp.append(float(tprob))
        node = nd.children[a]


def _sample_index(rng, probs):
    """Index draw by inverse CDF (cheaper than rng.choice for short probs)."""
    r = rng.random() * probs.sum()
    acc = 0.0
    for i in range(probs.shape[0] - 1):
        acc += probs[i]
        if r < acc:
            return i
    return probs.shape[0] - 1


def estimate_trajectory_q(tree, traj, profile, tau=0.0, alpha=1.0,
                          family=None, dilated=False):
    """One-hot trajectory-q estimates from an on-policy trajectory.

    Walks the trajectory backward. For each visited decision infoset s with
    taken action a the estimate is (W_p + tau * S_p) / pi_p(a | s), where
    W_p is the owner's terminal payoff and S_p accumulates the regularizer
    bonuses of decision infosets visited strictly later: -psi at the owner's
    own infosets and, unless dilated, +psi at the opponent's.

    With dilated=True only own infosets contribute, importance-weighted by
    the inverse product of opponent and chance action probabilities between
    the decision and the contributing infoset (unbiased for reach weights
    that involve only the owner's own strategy).

    Returns {infoset_id: (action, estimate)} over visited infosets. The
    trajectory must have been sampled from `profile` itself; a hot kernel, it
    reads alpha (a number or a per-infoset array) unchecked.
    """
    if tau != 0.0 and family is None:
        raise ValueError("tau > 0 requires a regularizer family")
    est = {}
    # Per owner: the terminal payoff and the bonus sum S (index 0 unused).
    u = [None, traj.utility, -traj.utility]
    s = [None, 0.0, 0.0]
    scalar_alpha = np.isscalar(alpha)
    # No estimate reads the bonus sums after the earliest decision's
    # estimate, so the walk stops there (at the terminal, past every step,
    # if no step is a decision).
    first = next(k for k, node in enumerate(traj.nodes)
                 if not tree.nodes[node].is_chance)
    for k in range(traj.num_steps - 1, -1, -1):
        nd = tree.nodes[traj.nodes[k]]
        pk = traj.true_probs[k]
        if nd.is_chance:
            if dilated:
                s[PLAYER1] /= pk
                s[PLAYER2] /= pk
            continue
        p = nd.owner
        o = PLAYER1 + PLAYER2 - p
        est[nd.infoset] = (traj.actions[k], (u[p] + tau * s[p]) / pk)
        if k == first:
            break
        if tau != 0.0:
            al = alpha if scalar_alpha else alpha[nd.infoset]
            psi = local_psi(profile[nd.infoset], al, family)
        else:
            psi = 0.0
        s[p] -= psi
        if dilated:
            s[o] /= pk
        else:
            s[o] += psi
    return est
