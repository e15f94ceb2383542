"""Iterative equilibrium solvers over perturbed strategy sets.

The main family is an optimistic proximal method: at every infoset the
strategy follows two prox solves against the negated value feedback, one
advancing the center iterate and one jumping ahead from the new center.
Full-information, trajectory-sampled, and lazy (catch-up on visit) variants
share the same local update. Baselines: projected gradient ascent,
regret-matching CFR, CFR+, outcome-sampling MCCFR, and non-optimistic
mirror descent.
"""

import numpy as np

from .game import (PLAYER1, PLAYER2, exploration_distribution,
                   gamma_lower_bound, unflatten_profile)
from .regularizers import (ENTROPY, EUCLIDEAN, TruncatedSimplex, prox_batch,
                           prox_euclidean_batch, project_truncated_simplex)
from .values import (CF, QVALUE, TRAJQ, estimate_trajectory_q, feedback_flat,
                     reach_flat, sample_trajectory)


def lr_schedule(tree, eta0, schedule="uniform"):
    """Per-infoset step sizes.

    schedule is "uniform" or "depth:RATIO"; the depth schedule assigns
    eta0 / ratio**depth(s), growing with the infoset's depth (maximum member
    node depth in actions of all players) when ratio < 1.
    """
    n = tree.num_infosets
    if isinstance(schedule, str) and schedule.startswith("depth:"):
        schedule = ("depth", float(schedule.split(":", 1)[1]))
    if schedule == "uniform" or schedule == ("uniform", None):
        return np.full(n, float(eta0))
    if isinstance(schedule, tuple) and schedule[0] == "depth":
        ratio = float(schedule[1])
        if ratio <= 0.0 or ratio > 1.0:
            raise ValueError("depth schedule ratio must lie in (0, 1]")
        depths = np.asarray([s.depth for s in tree.infosets], dtype=float)
        return eta0 / ratio ** depths
    raise ValueError(f"unknown schedule {schedule!r}")


class SolverParams:
    """Configuration shared by all solver step functions."""

    def __init__(self, tree, feedback=QVALUE, family=ENTROPY, alpha=1.0,
                 tau=0.0, gamma=0.0, eta=0.1, schedule="uniform",
                 explore_eps=0.6, anneal_decay=None, anneal_every=None):
        n = tree.num_infosets
        if feedback not in (CF, QVALUE, TRAJQ):
            raise ValueError(f"unknown feedback kind {feedback!r}")
        self.feedback = feedback
        self.family = family
        self.alpha = (np.full(n, float(alpha)) if np.isscalar(alpha)
                      else np.asarray(alpha, dtype=np.float64))
        self.tau = float(tau)
        self.gamma = (np.full(n, float(gamma)) if np.isscalar(gamma)
                      else np.asarray(gamma, dtype=np.float64))
        self.eta = (lr_schedule(tree, eta, schedule) if np.isscalar(eta)
                    else np.asarray(eta, dtype=np.float64))
        self.explore_eps = float(explore_eps)
        self.anneal_decay = anneal_decay
        self.anneal_every = anneal_every
        self.nu = exploration_distribution(tree)
        self.nu_flat = np.concatenate(self.nu)
        self.simplexes = [TruncatedSimplex(self.gamma[si], self.nu[si])
                          for si in range(n)]
        # Infosets grouped by action count, with row indices into the flat
        # pair layout, for batched prox solves.
        by_count = {}
        for si, na in enumerate(tree.actions_per_infoset):
            by_count.setdefault(int(na), []).append(si)
        self.groups = []
        for na, ids in sorted(by_count.items()):
            idx = np.asarray(ids, dtype=np.int64)
            pairs = tree.infoset_offset[idx][:, None] + np.arange(na)
            NU = np.stack([self.nu[si] for si in ids])
            self.groups.append((idx, pairs, NU))

    def effective_tau(self, t):
        """Regularization weight at iteration t under optional annealing."""
        if not self.anneal_decay or not self.anneal_every:
            return self.tau
        return self.tau * self.anneal_decay ** (t // self.anneal_every)


class SolverState:
    """Mutable iterate state. cur/bar are flat pair arrays; the *_views
    lists are persistent per-infoset views into them."""

    def __init__(self, tree, params):
        pieces = []
        for si, s in enumerate(tree.infosets):
            u = np.full(s.num_actions, 1.0 / s.num_actions)
            pieces.append(project_truncated_simplex(u, params.simplexes[si]))
        self.cur = np.concatenate(pieces)
        self.bar = self.cur.copy()
        self.cur_views = unflatten_profile(tree, self.cur)
        self.bar_views = unflatten_profile(tree, self.bar)
        self.t = 0
        self.regret = np.zeros(tree.num_pairs)
        self.strat_sum = np.zeros(tree.num_pairs)
        self.last_seen = np.zeros(tree.num_infosets, dtype=np.int64)
        # Frozen local regularizer weights for lazy zero-feedback steps.
        mu1, mu2, muc = reach_flat(tree, self.cur)
        fm = tree.first_member
        own = np.where(tree.infoset_owner == PLAYER1, mu1[fm], mu2[fm])
        self.last_tau0 = params.effective_tau(0) * own

    def profile(self, tree):
        """Copy of the current strategy as a per-infoset list."""
        return [v.copy() for v in self.cur_views]

    def bar_profile(self, tree):
        return [v.copy() for v in self.bar_views]


def local_tau0(params, tau, m, opp_reach, own_reach):
    """Per-infoset local regularizer weight tau * opp_reach / m."""
    if params.feedback == CF:
        return tau * opp_reach
    if params.feedback == QVALUE:
        return np.full_like(opp_reach, tau)
    return tau * opp_reach * own_reach


def _batched_update(state, params, g_flat, tau0, optimistic=True, rows=None):
    """Apply the (optionally optimistic) prox update at every infoset, or
    only at the infosets where the boolean mask `rows` is set."""
    for idx, pairs, NU in params.groups:
        if rows is not None:
            sel = rows[idx]
            if not sel.any():
                continue
            idx, pairs, NU = idx[sel], pairs[sel], NU[sel]
        G = g_flat[pairs]
        t0, et, al, gm = (tau0[idx], params.eta[idx], params.alpha[idx],
                          params.gamma[idx])
        if optimistic:
            barn = prox_batch(params.family, state.bar[pairs], G, t0, et, al,
                              gm, NU)
            curn = prox_batch(params.family, barn, G, t0, et, al, gm, NU)
            state.bar[pairs] = barn
            state.cur[pairs] = curn
        else:
            state.cur[pairs] = prox_batch(params.family, state.cur[pairs], G,
                                          t0, et, al, gm, NU)


# ---------------------------------------------------------------------------
# Full-information steps


def qfr_full_step(state, tree, params):
    """One full-information optimistic prox iteration (all infosets).

    Feedback is computed at the current strategy and augmented by tau; the
    local regularizer weight is tau * opp_reach / m under the current
    reach probabilities.
    """
    tau = params.effective_tau(state.t)
    q_flat, m, ownr, oppr, _ = feedback_flat(
        tree, state.cur, params.feedback, tau, params.alpha, params.family)
    tau0 = local_tau0(params, tau, m, oppr, ownr)
    _batched_update(state, params, -q_flat, tau0)
    state.t += 1
    state.last_seen[:] = state.t
    return m


def mmd_step(state, tree, params):
    """Non-optimistic mirror-descent baseline (reconstructed): one prox
    solve from the current iterate with the same feedback and weights."""
    tau = params.effective_tau(state.t)
    q_flat, m, ownr, oppr, _ = feedback_flat(
        tree, state.cur, params.feedback, tau, params.alpha, params.family)
    tau0 = local_tau0(params, tau, m, oppr, ownr)
    _batched_update(state, params, -q_flat, tau0, optimistic=False)
    state.t += 1
    return m


def pga_step(state, tree, params):
    """Projected gradient ascent warm-up: pi <- Proj(pi + eta * q)."""
    tau = params.effective_tau(state.t)
    q_flat, m, _, _, _ = feedback_flat(
        tree, state.cur, params.feedback, tau, params.alpha, params.family)
    for idx, pairs, NU in params.groups:
        state.cur[pairs] = prox_euclidean_batch(
            state.cur[pairs], -q_flat[pairs], np.zeros(idx.shape[0]),
            params.eta[idx], np.ones(idx.shape[0]), params.gamma[idx], NU)
    state.t += 1
    return m


# ---------------------------------------------------------------------------
# Regret-matching baselines


def _regret_matching(state, tree, pair_mask=None):
    pos = np.maximum(state.regret, 0.0)
    if pair_mask is not None:
        pos = np.where(pair_mask, pos, 0.0)
    sums = np.bincount(tree.pair_infoset, weights=pos,
                       minlength=tree.num_infosets)
    rep = sums[tree.pair_infoset]
    uniform = 1.0 / tree.actions_per_infoset[tree.pair_infoset]
    new = np.where(rep > 0.0, pos / np.where(rep > 0.0, rep, 1.0), uniform)
    if pair_mask is None:
        state.cur[:] = new
    else:
        state.cur[pair_mask] = new[pair_mask]


def cfr_step(state, tree, params):
    """Vanilla CFR: simultaneous regret-matching on counterfactual regrets
    with reach-weighted strategy averaging."""
    q_flat, _, ownr, _, cf = feedback_flat(tree, state.cur, CF, 0.0)
    ev = np.bincount(tree.pair_infoset, weights=cf * state.cur,
                     minlength=tree.num_infosets)
    state.regret += cf - ev[tree.pair_infoset]
    state.strat_sum += ownr[tree.pair_infoset] * state.cur
    _regret_matching(state, tree)
    state.t += 1


def cfr_plus_step(state, tree, params):
    """CFR+: alternating updates, regrets clipped at zero, linearly
    weighted strategy averaging."""
    state.t += 1
    for p in (1, 2):
        mask = tree.infoset_owner[tree.pair_infoset] == p
        _, _, ownr, _, cf = feedback_flat(tree, state.cur, CF, 0.0)
        ev = np.bincount(tree.pair_infoset, weights=cf * state.cur,
                         minlength=tree.num_infosets)
        inc = cf - ev[tree.pair_infoset]
        state.regret[mask] = np.maximum(state.regret[mask] + inc[mask], 0.0)
        _regret_matching(state, tree, pair_mask=mask)
        state.strat_sum[mask] += (state.t * ownr[tree.pair_infoset][mask]
                                  * state.cur[mask])


def average_profile(state, tree):
    """Normalized accumulated average strategy (uniform where untouched)."""
    sums = np.bincount(tree.pair_infoset, weights=state.strat_sum,
                       minlength=tree.num_infosets)
    rep = sums[tree.pair_infoset]
    uniform = 1.0 / tree.actions_per_infoset[tree.pair_infoset]
    flat = np.where(rep > 0.0, state.strat_sum / np.where(rep > 0.0, rep, 1.0),
                    uniform)
    return [a.copy() for a in unflatten_profile(tree, flat)]


def os_mccfr_step(state, tree, params, rng):
    """Outcome-sampling MCCFR with epsilon-uniform exploration.

    One trajectory is sampled from the exploration-mixed profile; visited
    infosets receive importance-weighted counterfactual regret updates whose
    expectation equals the full-information CFR increment.
    """
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
    visited = []
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
            visited.append(si)
        q_pref *= traj.sample_probs[k]
    for si in visited:
        off = tree.infoset_offset[si]
        na = tree.actions_per_infoset[si]
        pos = np.maximum(state.regret[off:off + na], 0.0)
        tot = pos.sum()
        state.cur[off:off + na] = (pos / tot if tot > 0.0
                                   else 1.0 / na)
    state.t += 1
    return traj


# ---------------------------------------------------------------------------
# Stochastic and lazy optimistic steps


def _one_hot_gradient(tree, est):
    """Flat negated one-hot estimates, and the mask of estimated infosets."""
    g = np.zeros(tree.num_pairs)
    visited = np.zeros(tree.num_infosets, dtype=bool)
    for si, (a, v) in est.items():
        g[tree.infoset_offset[si] + a] = -v
        visited[si] = True
    return g, visited


def qfr_stochastic_step(state, tree, params, rng=None, traj=None):
    """One trajectory-sampled optimistic iteration.

    Samples one on-policy trajectory, forms one-hot trajectory-q estimates
    (regularizer-augmented), and applies the two prox solves with constant
    local weight tau at every visited infoset; unvisited infosets are left
    unchanged. Returns the trajectory.
    """
    tau = params.effective_tau(state.t)
    if traj is None:
        traj = sample_trajectory(tree, state.cur_views, rng)
    est = estimate_trajectory_q(tree, traj, state.cur_views, tau,
                                params.alpha, params.family)
    g, visited = _one_hot_gradient(tree, est)
    _batched_update(state, params, g, np.full(tree.num_infosets, tau),
                    rows=visited)
    state.t += 1
    state.last_seen[visited] = state.t
    return traj


def _replay_pending(state, params, sel, t_now):
    """Catch the infosets `sel` (an index, index array or slice) up to
    iteration t_now with regularizer-only steps at their frozen local
    weights.

    The replay runs in lock-step: step j moves every row with more than j
    steps pending, so each row goes through the same sequence of prox
    solves as when replayed alone. A row whose frozen weight is 0 has no
    regularizer pull; its zero-feedback step is the identity and is skipped.
    """
    pending = np.zeros(state.last_seen.shape[0], dtype=np.int64)
    pending[sel] = t_now - state.last_seen[sel]
    pending[state.last_tau0 == 0.0] = 0
    state.last_seen[sel] = t_now
    zero = np.zeros_like(state.cur)
    for j in range(pending.max()):
        _batched_update(state, params, zero, state.last_tau0,
                        rows=pending > j)


class _CatchUpOnRead:
    """Profile for sampling a lazy trajectory: reading an infoset's
    strategy first replays its pending zero-feedback steps."""

    def __init__(self, state, params):
        self.state = state
        self.params = params

    def __getitem__(self, si):
        _replay_pending(self.state, self.params, si, self.state.t)
        return self.state.cur_views[si]


def _lazy_feedback(state, tree, params, traj, tau):
    """Estimates and local weights of a lazy real update.

    Returns the flat one-hot gradient and the visited mask, and sets
    last_tau0 at every visited infoset to tau / m_s = tau *
    own_reach(sigma(s)), read from the strategies before this step's
    updates.
    """
    est = estimate_trajectory_q(tree, traj, state.cur_views, tau,
                                params.alpha, params.family, dilated=True)
    reach = {PLAYER1: 1.0, PLAYER2: 1.0}
    for node, a in zip(traj.nodes, traj.actions):
        nd = tree.nodes[node]
        if not nd.is_chance:
            state.last_tau0[nd.infoset] = tau * reach[nd.owner]
            reach[nd.owner] *= state.cur_views[nd.infoset][a]
    return _one_hot_gradient(tree, est)


def lazy_qfr_step(state, tree, params, rng=None, traj=None):
    """Lazy variant: visited infosets first replay their pending
    zero-feedback steps, then take the real update with local weight
    tau / m_s = tau * own_reach(sigma(s)); unvisited infosets accumulate
    pending steps via timestamps. Estimates use the own-regularizer-only
    (dilated) augmentation. Equivalent to qfr_lazy_eager_step given the
    same trajectories."""
    tau = params.effective_tau(state.t)
    if traj is None:
        traj = sample_trajectory(tree, _CatchUpOnRead(state, params), rng)
    else:
        visits = [tree.nodes[h].infoset for h in traj.nodes[:-1]
                  if not tree.nodes[h].is_chance]
        _replay_pending(state, params, visits, state.t)
    g, visited = _lazy_feedback(state, tree, params, traj, tau)
    _batched_update(state, params, g, state.last_tau0, rows=visited)
    state.t += 1
    state.last_seen[visited] = state.t
    return traj


def qfr_lazy_eager_step(state, tree, params, rng=None, traj=None):
    """Eager reference for the lazy variant: identical real updates at
    visited infosets plus one zero-feedback step at every other infoset,
    every iteration."""
    tau = params.effective_tau(state.t)
    if traj is None:
        traj = sample_trajectory(tree, state.cur_views, rng)
    g, visited = _lazy_feedback(state, tree, params, traj, tau)
    # Unvisited rows have zero gradient and keep their frozen weight; those
    # whose weight is 0 would not move.
    _batched_update(state, params, g, state.last_tau0,
                    rows=visited | (state.last_tau0 != 0.0))
    state.t += 1
    state.last_seen[:] = state.t
    return traj


def lazy_catch_up(state, tree, params):
    """Apply all pending zero-feedback steps (e.g. before evaluation)."""
    _replay_pending(state, params, slice(None), state.t)


# ---------------------------------------------------------------------------
# Constants and step-size conformance


class GameConstants:
    """Bound constants for a (game, feedback, regularizer) configuration.

    All entries are non-negative; for counterfactual feedback the
    m-stability constants degenerate to 0 (m is identically 1) and the
    derived step-size caps are +inf.
    """

    def __init__(self, **kw):
        self.__dict__.update(kw)

    def __repr__(self):
        keys = sorted(self.__dict__)
        inner = ", ".join(f"{k}={self.__dict__[k]!r}" for k in keys)
        return f"GameConstants({inner})"


def game_constants(tree, kind, family, alpha=1.0, tau=0.0, gamma0=0.0,
                   gamma_seq=None, horizon=None, delta=0.05):
    """Compute the bound constants used by the step-size conditions.

    gamma0 is the per-infoset floor scale; gamma_seq the sequence-form mass
    floor (defaults to the bound implied by gamma0). horizon/delta feed the
    high-probability step-size caps when given.
    """
    n = tree.num_infosets
    alpha = (np.full(n, float(alpha)) if np.isscalar(alpha)
             else np.asarray(alpha, dtype=np.float64))
    if gamma_seq is None:
        gamma_seq = gamma_lower_bound(tree, gamma0) if gamma0 > 0.0 else 0.0
    nu = exploration_distribution(tree)
    na = tree.actions_per_infoset
    members = [len(s.members) for s in tree.infosets]
    chance_mass = np.bincount(tree.member_infoset,
                              weights=tree.chance_reach[tree.member_node],
                              minlength=n)
    min_chance = float(chance_mass.min())

    if kind == CF:
        m1, m2 = 1.0, 1.0
    elif kind == TRAJQ:
        m1 = 1.0
        m2 = 1.0 / gamma_seq if gamma_seq > 0.0 else np.inf
    elif kind == QVALUE:
        m1 = gamma_seq * min_chance
        m2 = 1.0
    else:
        raise ValueError(f"unknown feedback kind {kind!r}")

    depth = max(s.depth for s in tree.infosets)
    if family == ENTROPY:
        psi_max = float(np.max(np.log(na)))
        psi_max_paper = psi_max
    elif family == EUCLIDEAN:
        psi_max = 0.5
        psi_max_paper = 1.0 / (2.0 * float(na.min()))
    else:
        raise ValueError(f"unknown regularizer family {family!r}")

    tau_over_m1 = 0.0 if tau == 0.0 else (tau / m1 if m1 > 0.0 else np.inf)
    q_bound = tau_over_m1 * float(alpha.max()) * depth * psi_max + 1.0
    floor_min = gamma0 * float(np.min(np.concatenate(nu)))
    q_bound_sampled = q_bound / floor_min if floor_min > 0.0 else np.inf

    log1g = np.log(1.0 / gamma_seq) if gamma_seq > 0.0 else np.inf
    tau_term = 0.0 if tau == 0.0 else tau_over_m1 * log1g

    if family == ENTROPY:
        c_diff = (2.0 / alpha) * (2.0 * q_bound + alpha * tau * (
            0.0 if tau == 0.0 else (log1g / m1 if m1 > 0 else np.inf)))
    else:
        c_diff = (na / alpha) * q_bound + 2.0 * np.sqrt(na) * (
            tau / m1 if (tau > 0.0 and m1 > 0.0) else (np.inf if tau > 0.0 else 0.0))

    k_ent = 2.0 * q_bound / alpha + tau_term
    max_c_diff = float(np.max(c_diff))
    max_k_ent = float(np.max(k_ent))
    mbrs = np.asarray(members, dtype=float)
    ones = np.ones(n)
    if kind == CF:
        c_minus = np.zeros(n)
        c_slash = np.zeros(n)
    elif kind == TRAJQ and family == EUCLIDEAN:
        c_minus = ones * (6.0 / gamma_seq ** 2 * max_c_diff
                          if gamma_seq > 0 else np.inf)
        c_slash = c_minus / m1
    elif kind == TRAJQ and family == ENTROPY:
        c_minus = ones * (12.0 / gamma_seq * max_k_ent
                          if gamma_seq > 0 else np.inf)
        c_slash = ones * 12.0 * max_k_ent
    elif kind == QVALUE and family == EUCLIDEAN:
        c_minus = 6.0 * mbrs * max_c_diff
        c_slash = (c_minus / m1 if m1 > 0 else np.full(n, np.inf))
    else:  # QVALUE, ENTROPY
        c_minus = ones * 12.0 * m2 * max_k_ent
        c_slash = ones * 12.0 * max_k_ent
    with np.errstate(divide="ignore", invalid="ignore"):
        c_eta = np.where(c_minus > 0.0,
                         gamma_seq * chance_mass / (2.0 * c_minus), np.inf)
    c_eta_T = None
    c_visit = None
    if horizon is not None:
        logfac = np.log(horizon) + np.log(n) + np.log(1.0 / delta)
        with np.errstate(divide="ignore", invalid="ignore"):
            c_eta_T = np.where(
                c_minus > 0.0,
                gamma_seq ** 2 * chance_mass / (2.0 * c_minus * logfac),
                np.inf)
        c_visit = (logfac / (gamma_seq ** 2 * min_chance)
                   if gamma_seq > 0.0 else np.inf)

    return GameConstants(
        m1=m1, m2=m2, q_bound=q_bound, q_bound_sampled=q_bound_sampled,
        psi_max=psi_max, psi_max_paper=psi_max_paper, c_diff=c_diff,
        c_minus=c_minus, c_slash=c_slash, c_eta=c_eta, c_eta_T=c_eta_T,
        c_visit=c_visit, gamma_seq=gamma_seq, min_chance_mass=min_chance,
        depth=depth, kind=kind, family=family, tau=tau, gamma0=gamma0)


class ScheduleReport:
    """Conformance of a per-infoset step-size schedule against the
    ancestor-sum, ancestor-magnitude, and local-magnitude conditions."""

    def __init__(self, cond_a_ok, cond_b_ok, cond_c_ok, violations_a,
                 violations_b, violations_c):
        self.cond_a_ok = cond_a_ok
        self.cond_b_ok = cond_b_ok
        self.cond_c_ok = cond_c_ok
        self.violations_a = violations_a
        self.violations_b = violations_b
        self.violations_c = violations_c

    @property
    def all_ok(self):
        return self.cond_a_ok and self.cond_b_ok and self.cond_c_ok


def schedule_report(tree, eta, constants, alpha=1.0, tol=1e-12):
    """Check the three step-size conditions for a schedule.

    (A) at every infoset the largest sum of step sizes along any member's
        own-action ancestry (either player) is at most the local step size;
    (B) 6 * (largest ancestor step size) * max_s(2 q_bound / alpha_s +
        (tau / M1) log(1/gamma)) <= 1;
    (C) eta_s * (2 q_bound + tau alpha_s / M1 * log(1/gamma)) <= 1.
    """
    n = tree.num_infosets
    eta = np.asarray(eta, dtype=np.float64)
    alpha = (np.full(n, float(alpha)) if np.isscalar(alpha)
             else np.asarray(alpha, dtype=np.float64))
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
    for si, s in enumerate(tree.infosets):
        a_val = max(cum[s.owner][h] for h in s.members)
        if a_val > eta[si] + tol:
            va.append((si, a_val))
        eta_anc = max(anc[h] for h in s.members)
        if 6.0 * eta_anc * max_k > 1.0 + tol:
            vb.append((si, 6.0 * eta_anc * max_k))
        local = eta[si] * (2.0 * constants.q_bound
                           + (constants.tau * alpha[si] / constants.m1
                              * log1g if constants.tau > 0.0
                              and constants.m1 > 0.0 else 0.0))
        if local > 1.0 + tol:
            vc.append((si, local))
    return ScheduleReport(not va, not vb, not vc, va, vb, vc)


def check_m_bounds(m, constants, tol=1e-9):
    """Number of hard violations of M1 <= m_s <= M2."""
    m = np.asarray(m, dtype=np.float64)
    lo = constants.m1 - tol
    hi = constants.m2 + tol if np.isfinite(constants.m2) else np.inf
    return int(np.sum((m < lo) | (m > hi)))
