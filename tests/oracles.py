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
`efglab.regularizers.floor_fit` by the sort-and-threshold rules and by
its pin-and-refit loop with every pass masked, and the step-size
conditions of `efglab.solvers.schedule_report` by a walk over the nodes.
The lazy QFR step has a one-row-at-a-time oracle in the paper's deferred
form: per-infoset timestamps, and two `prox_step` solves per pending
zero-feedback step, replayed when the infoset is next read. OS-MCCFR has
its former three-pass form, which walks the trajectory once for the sample
and others' probabilities, once for the own-probability suffixes and once
for the updates.

The helpers at the end (full simplexes, local regularizer gradients,
opponent reach, the dilated and bidilated regularizer values, and the
per-vector and per-infoset-list forms of the projection, the tree Bregman
divergence and the average strategy) are read only by tests, so they live
here rather than in the library.
"""

import numpy as np

from efglab.game import PLAYER1, PLAYER2, flatten_profile, unflatten_profile
from efglab.regularizers import (ENTROPY, EUCLIDEAN, TruncatedSimplex,
                                 argmax_regularized, bregman_tree_flat,
                                 floor_fit, local_psi, prox_step, psi_flat,
                                 rate_array)
from efglab.solvers import SolverState, average_flat
from efglab.values import (Trajectory, estimate_trajectory_q, infoset_reach,
                           reach_flat, sample_trajectory)


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


def floor_fit_masked(family, Z, gamma, NU):
    """`efglab.regularizers.floor_fit` with every pass masked, the first
    included: the library's form before its first pass went mask-free, kept
    to check that the two give the same bits."""
    floor = gamma[:, None] * NU
    slack = 1.0 - floor.sum(axis=1)
    if family == EUCLIDEAN:
        # Fit the mass above the floors. The projection is unchanged by a
        # shift of the whole row, and after the max shift every entry at or
        # below -slack pins, so clamping there changes no fit. The free
        # entries then lie within [-slack, 0]: theta never cancels against
        # a large row, and an overflowed difference cannot reach it.
        Z = Z - floor
        with np.errstate(over="ignore"):
            Z = np.maximum(Z - Z.max(axis=1, keepdims=True), -slack[:, None])
    free = np.repeat((slack > 1e-12)[:, None], Z.shape[1], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
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
# Lazy QFR in its deferred form, one row at a time


class LazyOracleState(SolverState):
    """SolverState plus the deferred form's timestamps: infoset s has taken
    every step up to iteration last_seen[s]."""

    def __init__(self, tree, params):
        super().__init__(tree, params)
        self.last_seen = np.zeros(tree.num_infosets, dtype=np.int64)


def two_prox_row(tree, state, params, si, g, tau0):
    """The optimistic update of one infoset by two `prox_step` solves."""
    sx = TruncatedSimplex(params.gamma[si], tree.nu[si])
    off = tree.infoset_offset[si]
    bar = state.bar[off:off + tree.actions_per_infoset[si]]
    barn = prox_step(bar, g, tau0, params.eta[si], params.alpha[si],
                     params.family, sx)
    curn = prox_step(barn, g, tau0, params.eta[si], params.alpha[si],
                     params.family, sx)
    bar[:] = barn
    state.cur_views[si][:] = curn


def _zero_feedback_steps(tree, state, params, si, count):
    tau0 = state.last_tau0[si]
    if count <= 0 or tau0 == 0.0:
        return
    g = np.zeros(state.cur_views[si].shape[0])
    for _ in range(count):
        two_prox_row(tree, state, params, si, g, tau0)


def _catch_up(tree, state, params, si, t_now):
    _zero_feedback_steps(tree, state, params, si,
                         t_now - state.last_seen[si])
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
    """Inverse-CDF trajectory sampler that catches each infoset up before
    reading its strategy."""
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
            _catch_up(tree, state, params, nd.infoset, state.t)
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
        two_prox_row(tree, state, params, si, g, tau0)
        state.last_tau0[si] = tau0
    return est


def oracle_lazy_step(state, tree, params, rng=None, traj=None):
    """One deferred lazy step on a LazyOracleState: the infosets the
    trajectory (sampled, or given) visits first replay their pending
    zero-feedback steps, then take the real update; the others wait."""
    tau = params.effective_tau(state.t)
    if traj is None:
        traj = _sample_catching_up(tree, state, params, rng)
    else:
        for h in traj.nodes[:-1]:
            if not tree.nodes[h].is_chance:
                _catch_up(tree, state, params, tree.nodes[h].infoset,
                          state.t)
    est = _lazy_real_updates(state, tree, params, traj, tau)
    state.t += 1
    for si in est:
        state.last_seen[si] = state.t
    return traj


def oracle_eager_step(state, tree, params, traj):
    """One lazy step taken eagerly: the real updates, then one
    zero-feedback step at every other infoset."""
    tau = params.effective_tau(state.t)
    est = _lazy_real_updates(state, tree, params, traj, tau)
    for si in range(tree.num_infosets):
        if si not in est:
            _zero_feedback_steps(tree, state, params, si, 1)
    state.t += 1


def oracle_catch_up(state, tree, params):
    """Replay every pending zero-feedback step of a LazyOracleState."""
    for si in range(tree.num_infosets):
        _catch_up(tree, state, params, si, state.t)


# ---------------------------------------------------------------------------
# OS-MCCFR in three passes


def os_mccfr_step_three_pass(state, tree, params, rng):
    """`efglab.solvers.os_mccfr_step` as three walks over the trajectory:
    the sample and others' probabilities forward, each step's
    own-probability suffixes backward into a dict per step, and the updates
    forward; then regret matching one visited infoset at a time."""
    traj = sample_trajectory(tree, state.cur_views, rng,
                             explore_eps=params.explore_eps)
    q_all = 1.0
    others_all = {PLAYER1: 1.0, PLAYER2: 1.0}
    for k in range(traj.num_steps):
        nd = tree.nodes[traj.nodes[k]]
        q_all *= traj.sample_probs[k]
        if nd.is_chance or nd.owner != PLAYER1:
            others_all[PLAYER1] *= traj.true_probs[k]
        if nd.is_chance or nd.owner != PLAYER2:
            others_all[PLAYER2] *= traj.true_probs[k]
    # Own-probability products over steps strictly after k, per player;
    # computed as suffixes so zero-probability sampled actions (possible
    # under exploration) never force a 0/0 ratio.
    own_suffix = [None] * traj.num_steps
    acc = {PLAYER1: 1.0, PLAYER2: 1.0}
    for k in range(traj.num_steps - 1, -1, -1):
        own_suffix[k] = dict(acc)
        nd = tree.nodes[traj.nodes[k]]
        if not nd.is_chance:
            acc[nd.owner] *= traj.true_probs[k]
    u1 = traj.utility
    q_pref = 1.0
    own_true = {PLAYER1: 1.0, PLAYER2: 1.0}
    visited = np.zeros(tree.num_infosets, dtype=bool)
    for k in range(traj.num_steps):
        nd = tree.nodes[traj.nodes[k]]
        if not nd.is_chance:
            p = nd.owner
            si = nd.infoset
            a = traj.actions[k]
            own_incl = own_true[p] * traj.true_probs[k]
            u_p = u1 if p == PLAYER1 else -u1
            v = u_p * others_all[p] * own_suffix[k][p] / q_all
            off = tree.infoset_offset[si]
            na = tree.actions_per_infoset[si]
            pi_a = state.cur[off + a]
            state.regret[off:off + na] -= pi_a * v
            state.regret[off + a] += v
            state.strat_sum[off:off + na] += ((own_true[p] / q_pref)
                                              * state.cur[off:off + na])
            own_true[p] = own_incl
            visited[si] = True
        q_pref *= traj.sample_probs[k]
    # Regret matching at the visited infosets, one at a time.
    for si in np.flatnonzero(visited):
        off = tree.infoset_offset[si]
        na = tree.actions_per_infoset[si]
        pos = np.maximum(state.regret[off:off + na], 0.0)
        tot = pos.sum()
        state.cur[off:off + na] = pos / tot if tot > 0.0 else 1.0 / na
    state.t += 1
    return traj


# ---------------------------------------------------------------------------
# Test-only helpers


def full_simplex(n):
    return TruncatedSimplex(0.0, np.full(n, 1.0 / n))


def project_truncated_simplex(z, simplex):
    """Euclidean projection of z onto a truncated simplex: a one-row
    `floor_fit`."""
    z = np.asarray(z, dtype=np.float64)
    return floor_fit(EUCLIDEAN, z[None, :], np.asarray([simplex.gamma]),
                     simplex.nu[None, :])[0]


def bregman_tree(tree, profile, ref_profile, player, alpha, family):
    """`bregman_tree_flat`'s divergence for one player, between two
    per-infoset lists."""
    alpha = rate_array(tree, "alpha", alpha)
    return bregman_tree_flat(tree, flatten_profile(tree, profile),
                             flatten_profile(tree, ref_profile), alpha,
                             family)[player - PLAYER1]


def average_profile(state, tree):
    """`average_flat` as a per-infoset list."""
    return unflatten_profile(tree, average_flat(state, tree))


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


def prox_objectives(X, x0, g, tau0, eta, alpha, family):
    """The prox objective <g, x> + tau0 * psi(x) + D_psi(x, x0) / eta of
    every row x of X, in one pass over X (one log of X for the entropy,
    whose rows must be positive): `local_psi` + `bregman_local` / eta,
    expanded and regrouped by the terms that depend on x."""
    if family == ENTROPY:
        L = np.log(X)
        L *= alpha * (tau0 + 1.0 / eta)
        L += g - (alpha / eta) * np.log(x0)
        return (np.einsum("ij,ij->i", X, L)
                + alpha * tau0 * np.log(X.shape[1])
                + (alpha / eta) * (x0.sum() - X.sum(axis=1)))
    if family == EUCLIDEAN:
        return (X @ (g - (alpha / eta) * x0)
                + (0.5 * alpha * (tau0 + 1.0 / eta))
                * np.einsum("ij,ij->i", X, X)
                + (0.5 * alpha / eta) * (x0 @ x0))
    raise ValueError(f"unknown regularizer family {family!r}")
