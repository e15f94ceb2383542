"""Slow reference implementations that check the library's flat paths.

Each oracle works node by node or in sequence form, apart from
`efglab.values.reach_flat`: each node's parent and depth and each
infoset's members and depth by walks that read only the game document
(`children`, `infoset`, `owner`), each player's own action history at
every node by one parent-before-child pass (and from it perfect recall,
each infoset's parent sequence and own depth, which the tree reads off
`node_seq`, and the terminal counts behind the exploration distribution),
per-node reach by one parent-before-child pass, sequence-form realization
plans by recursion over parent sequences, expected utility by backward
traversal, the dilated Bregman divergence from its sequence-form
definition, the regularized best response by a memoized recursion over
nodes with one `argmax_regularized` call per infoset, both floor fits of
`efglab.regularizers.floor_fit` by the sort-and-threshold rules, and the
step-size conditions of `efglab.solvers.schedule_report` by a walk over
the nodes.

The helpers at the end (full simplexes, local regularizer gradients,
opponent reach and the dilated and bidilated regularizer values) are read
only by tests, so they live here rather than in the library.
"""

import numpy as np

from efglab.game import PLAYER1, PLAYER2, flatten_profile
from efglab.regularizers import (ENTROPY, EUCLIDEAN, TruncatedSimplex,
                                 argmax_regularized, local_psi, psi_flat)
from efglab.values import infoset_reach, reach_flat


def own_histories(nodes):
    """Each player's own action history at every node: the tuple of the
    (infoset, action) pairs the player took on the path from the root."""
    hist = {PLAYER1: [()] * len(nodes), PLAYER2: [()] * len(nodes)}
    for i, n in enumerate(nodes):
        for a, c in enumerate(n.children):
            for p in (PLAYER1, PLAYER2):
                h = hist[p][i]
                if n.owner == p:
                    h = h + ((n.infoset, a),)
                hist[p][c] = h
    return hist


def parent_links(nodes):
    """Each node's (parent, action into it) by a walk over `children`;
    (-1, -1) at the root."""
    up = [(-1, -1)] * len(nodes)
    for i, n in enumerate(nodes):
        for a, c in enumerate(n.children):
            up[c] = (i, a)
    return up


def node_depths(nodes):
    """Each node's depth in actions of all players, by one
    parent-before-child walk over `children`."""
    depth = [0] * len(nodes)
    for i, n in enumerate(nodes):
        for c in n.children:
            depth[c] = depth[i] + 1
    return depth


def infoset_members(tree):
    """Per infoset, its member nodes in ascending order, read off each
    decision node's `infoset`."""
    members = [[] for _ in tree.infosets]
    for i, n in enumerate(tree.nodes):
        if n.owner in (PLAYER1, PLAYER2):
            members[n.infoset].append(i)
    return members


def infoset_depths(tree):
    """Per infoset, the largest node depth among its members."""
    depth = node_depths(tree.nodes)
    return [max(depth[h] for h in hs) for hs in infoset_members(tree)]


def _member_histories(nodes):
    """Per infoset id, the set of its members' histories of the owner."""
    hist = own_histories(nodes)
    keys = {}
    for i, n in enumerate(nodes):
        if n.owner in (PLAYER1, PLAYER2):
            keys.setdefault(n.infoset, set()).add(hist[n.owner][i])
    return keys


def validate_perfect_recall(tree_or_nodes):
    """Perfect-recall violations as data, from a GameTree or a node list in
    parent-before-child order: one record per infoset whose members
    disagree on the owner's own action history, by ascending infoset. An
    empty list means the structure has perfect recall."""
    nodes = getattr(tree_or_nodes, "nodes", tree_or_nodes)
    return [{"infoset": si, "histories": sorted(keys)}
            for si, keys in sorted(_member_histories(nodes).items())
            if len(keys) != 1]


def own_sequences(tree):
    """Per infoset, the owner's parent sequence (the last own (infoset,
    action) pair on the path to any member, None at the top of the owner's
    decision tree) and own depth (1 at the owner's first decision).
    Raises ValueError if the members of an infoset disagree on it."""
    keys = _member_histories(tree.nodes)
    parent_seq, own_depth = [], []
    for si in range(tree.num_infosets):
        (h,) = keys[si]
        parent_seq.append(h[-1] if h else None)
        own_depth.append(len(h) + 1)
    return parent_seq, own_depth


def terminal_count_oracle(tree, si, a, parent_seq=None):
    """Number of terminal-for-owner infosets in the subtree of (si, a)."""
    if parent_seq is None:
        parent_seq = own_sequences(tree)[0]
    kids = [sj for sj, ps in enumerate(parent_seq) if ps == (si, a)]
    if not kids:
        return 1
    return sum(terminal_count_oracle(tree, sj, b, parent_seq)
               for sj in kids for b in range(tree.infosets[sj].num_actions))


def reach_probabilities(tree, profile):
    """Per-node reach contributions (mu1, mu2, muc).

    Entry i of each array is the product of the corresponding participant's
    action probabilities on the path from the root to node i.
    """
    n = tree.num_nodes
    mu1 = np.ones(n)
    mu2 = np.ones(n)
    muc = np.ones(n)
    for i, node in enumerate(tree.nodes):
        for a, c in enumerate(node.children):
            mu1[c], mu2[c], muc[c] = mu1[i], mu2[i], muc[i]
            if node.is_chance:
                muc[c] *= node.chance_probs[a]
            elif node.owner == PLAYER1:
                mu1[c] *= profile[node.infoset][a]
            else:
                mu2[c] *= profile[node.infoset][a]
    return mu1, mu2, muc


class SequenceFormStrategy:
    """Sequence-form realization plan for one player.

    seq[s][a] = product of the player's own action probabilities along the
    unique own path ending with action a at infoset s. The empty sequence has
    realization 1. parent_seq[s] is infoset s's parent sequence, from
    `own_sequences`.
    """

    def __init__(self, tree, player, profile):
        self.player = player
        self.parent_seq = own_sequences(tree)[0]
        self.seq = [None] * tree.num_infosets
        for si in tree.infoset_ids(player):
            parent = self.realization(self.parent_seq[si])
            self.seq[si] = parent * np.asarray(profile[si], dtype=np.float64)

    def realization(self, sigma):
        """Realization weight of a sequence (None = empty sequence)."""
        if sigma is None:
            return 1.0
        si, a = sigma
        return self.seq[si][a]


def to_sequence_form(tree, profile, player):
    return SequenceFormStrategy(tree, player, profile)


def expected_utility_traversal(tree, profile):
    """Player 1's expected utility by direct backward traversal (children
    follow their parents in node order)."""
    vals = np.zeros(tree.num_nodes)
    for i in range(tree.num_nodes - 1, -1, -1):
        node = tree.nodes[i]
        if node.is_terminal:
            vals[i] = node.utility
        elif node.is_chance:
            vals[i] = float(np.dot(node.chance_probs, vals[node.children]))
        else:
            vals[i] = float(np.dot(profile[node.infoset],
                                   vals[node.children]))
    return vals[tree.root]


def _alpha_at(alpha, si):
    return alpha if np.isscalar(alpha) else alpha[si]


def _dilated_psi_seq(tree, sf, profile, player, alpha, family):
    """Dilated regularizer: parent-sequence realization times local psi."""
    return sum(sf.realization(sf.parent_seq[si])
               * local_psi(profile[si], _alpha_at(alpha, si), family)
               for si in tree.infoset_ids(player))


def bregman_tree_direct(tree, profile, ref_profile, player, alpha, family):
    """Dilated-regularizer Bregman divergence D(profile, ref) in sequence
    form.

    Computes psi_tree(mu) - psi_tree(mu_ref) - <grad psi_tree(mu_ref),
    mu - mu_ref> where the gradient of the dilated regularizer at sequence
    coordinate (s, a) is the local gradient at s plus, for every child
    infoset hanging off (s, a), the local value minus its linearization.
    """
    sf = to_sequence_form(tree, profile, player)
    sfr = to_sequence_form(tree, ref_profile, player)
    children = {}
    for si in tree.infoset_ids(player):
        ps = sf.parent_seq[si]
        if ps is not None:
            children.setdefault(ps, []).append(si)

    total = (_dilated_psi_seq(tree, sf, profile, player, alpha, family)
             - _dilated_psi_seq(tree, sfr, ref_profile, player, alpha,
                                family))
    for si in tree.infoset_ids(player):
        a_s = _alpha_at(alpha, si)
        pi_ref = np.asarray(ref_profile[si], dtype=np.float64)
        grad = local_psi_grad(pi_ref, a_s, family)
        for a in range(tree.infosets[si].num_actions):
            g = grad[a]
            for child in children.get((si, a), []):
                a_c = _alpha_at(alpha, child)
                pc = np.asarray(ref_profile[child], dtype=np.float64)
                g += (local_psi(pc, a_c, family)
                      - float(np.dot(local_psi_grad(pc, a_c, family), pc)))
            total -= g * (sf.seq[si][a] - sfr.seq[si][a])
    return total


def _alpha_arr(tree, alpha):
    if np.isscalar(alpha):
        return np.full(tree.num_infosets, float(alpha))
    return np.asarray(alpha, dtype=np.float64)


def reg_best_response_recursive(tree, profile, player, tau=0.0, alpha=1.0,
                                family=ENTROPY, simplexes=None):
    """Best response of `player` in the perturbed, regularized game.

    Maximizes expected utility minus tau times the player's own
    reach-weighted regularizer plus tau times the opponent's, over local
    policies constrained to the given truncated simplexes. Returns
    (value, policies) with policies a dict over the player's infosets.
    With tau = 0 and full simplexes this is the exact best response
    (ties broken toward the lowest action index).
    """
    alpha = _alpha_arr(tree, alpha)
    if simplexes is None:
        simplexes = [full_simplex(s.num_actions) for s in tree.infosets]
    flat = flatten_profile(tree, profile)
    mu1, mu2, muc = reach_flat(tree, flat)
    opp_mu = mu2 if player == PLAYER1 else mu1
    w = muc * opp_mu

    psi_opp = np.zeros(tree.num_infosets)
    if tau != 0.0:
        for si, s in enumerate(tree.infosets):
            if s.owner != player:
                psi_opp[si] = local_psi(profile[si], alpha[si], family)

    down = np.full(tree.num_nodes, np.nan)
    policies = {}

    def resolve(h):
        if not np.isnan(down[h]):
            return down[h]
        node = tree.nodes[h]
        if node.is_terminal:
            u = node.utility if player == PLAYER1 else -node.utility
            val = w[h] * u
        elif node.is_chance:
            val = sum(resolve(c) for c in node.children)
        elif node.owner != player:
            val = sum(resolve(c) for c in node.children)
            if tau != 0.0:
                val += tau * w[h] * psi_opp[node.infoset]
        else:
            pol = policies[node.infoset]
            val = float(np.dot(pol, [resolve(c) for c in node.children]))
            if tau != 0.0:
                val -= (tau * w[h]
                        * local_psi(pol, alpha[node.infoset], family))
        down[h] = val
        return val

    own_depth = own_sequences(tree)[1]
    members = infoset_members(tree)
    order = sorted(tree.infoset_ids(player), key=lambda si: -own_depth[si])
    for si in order:
        s = tree.infosets[si]
        qvec = np.zeros(s.num_actions)
        w_s = 0.0
        for h in members[si]:
            w_s += w[h]
            for a, c in enumerate(tree.nodes[h].children):
                qvec[a] += resolve(c)
        x, _ = argmax_regularized(qvec, tau * w_s, alpha[si], family,
                                  simplexes[si])
        policies[si] = x
    return resolve(tree.root), policies


def project_floored_sort(Z, gamma, NU):
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


def entropy_floor_fit_sort(xh, gamma, NU):
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


def schedule_report_walk(tree, eta, constants, alpha=1.0, tol=1e-12):
    """The violation lists (A, B, C) of `efglab.solvers.schedule_report`,
    by one parent-before-child pass over the nodes and one loop over the
    infosets, with log(1/gamma) and the tau term derived here."""
    n = tree.num_infosets
    eta = np.asarray(eta, dtype=np.float64)
    alpha = _alpha_arr(tree, alpha)
    nn = tree.num_nodes
    cum = {1: np.zeros(nn), 2: np.zeros(nn)}
    anc = np.zeros(nn)
    for i, nd in enumerate(tree.nodes):
        for a, c in enumerate(nd.children):
            for p in (1, 2):
                cum[p][c] = cum[p][i] + (eta[nd.infoset]
                                         if nd.owner == p else 0.0)
            anc[c] = max(anc[i], eta[nd.infoset]
                         if not nd.is_chance and not nd.is_terminal else 0.0)

    gs = constants.gamma_seq
    log1g = np.log(1.0 / gs) if gs > 0.0 else np.inf
    tau_term = (0.0 if constants.tau == 0.0
                else (constants.tau / constants.m1) * log1g
                if constants.m1 > 0.0 else np.inf)
    k_ent = 2.0 * constants.q_bound / alpha + tau_term
    max_k = float(np.max(k_ent))

    va, vb, vc = [], [], []
    for si, (s, hs) in enumerate(zip(tree.infosets, infoset_members(tree))):
        a_val = max(cum[s.owner][h] for h in hs)
        if a_val > eta[si] + tol:
            va.append((si, a_val))
        eta_anc = max(anc[h] for h in hs)
        with np.errstate(invalid="ignore"):  # 0 * inf
            b_val = 6.0 * eta_anc * max_k
        if b_val > 1.0 + tol:
            vb.append((si, b_val))
        local = eta[si] * (2.0 * constants.q_bound
                           + (constants.tau * alpha[si] / constants.m1
                              * log1g if constants.tau > 0.0
                              and constants.m1 > 0.0 else 0.0))
        if local > 1.0 + tol:
            vc.append((si, local))
    return va, vb, vc


# ---------------------------------------------------------------------------
# Test-only helpers


def full_simplex(n):
    return TruncatedSimplex(0.0, np.full(n, 1.0 / n))


def local_psi_grad(x, alpha, family):
    x = np.asarray(x, dtype=np.float64)
    if family == ENTROPY:
        return alpha * (1.0 + np.log(np.clip(x, 1e-300, None)))
    if family == EUCLIDEAN:
        return alpha * x
    raise ValueError(f"unknown regularizer family {family!r}")


def opponent_reach(tree, profile):
    """Per-infoset sum over members of chance reach times opponent reach."""
    reach = reach_flat(tree, flatten_profile(tree, profile))
    return infoset_reach(tree, reach)[1]


def _player_reach(tree, flat, player):
    """Own and opponent reach of the player's infosets."""
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
