"""Iterative equilibrium solvers over perturbed strategy sets.

The main family is an optimistic proximal method: at every infoset the
strategy follows two prox solves against the negated value feedback, one
advancing the center iterate and one jumping ahead from the new center.
Full-information, trajectory-sampled, and lazy (catch-up on visit) variants
share the same local update. Baselines: projected gradient ascent,
regret-matching CFR, CFR+, outcome-sampling MCCFR, and non-optimistic
mirror descent.
"""

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .game import PLAYER1, PLAYER2, gamma_lower_bound, unflatten_profile
from .regularizers import (ENTROPY, EUCLIDEAN, check_rate, floor_fit,
                           prox_batch, rate_array)
from .values import (CF, QVALUE, TRAJQ, estimate_trajectory_q, feedback_flat,
                     infoset_reach, reach_flat, sample_trajectory)


def parse_schedule(schedule):
    """Depth ratio of a schedule string: 1 for "uniform", RATIO in (0, 1]
    for "depth:RATIO"."""
    if schedule == "uniform":
        return 1.0
    if isinstance(schedule, str) and schedule.startswith("depth:"):
        try:
            ratio = float(schedule[len("depth:"):])
        except ValueError:
            ratio = np.nan
        if 0.0 < ratio <= 1.0:
            return ratio
        raise ValueError(f"depth schedule ratio must lie in (0, 1], got "
                         f"{schedule!r}")
    raise ValueError(f"schedule must be 'uniform' or 'depth:RATIO', got "
                     f"{schedule!r}")


def lr_schedule(tree, eta0, schedule="uniform"):
    """Per-infoset step sizes eta0 / ratio**depth(s), for eta0 a number or
    one value per infoset and schedule "uniform" (ratio 1) or "depth:RATIO";
    they grow with the infoset's depth (maximum member node depth in actions
    of all players) when ratio < 1.
    """
    return (rate_array(tree, "eta", eta0)
            / parse_schedule(schedule) ** tree.infoset_depth.astype(float))


class SolverParams:
    """Configuration shared by all solver step functions: alpha, gamma
    and eta are arrays over infosets, strategies are floored at gamma * nu
    (nu is tree.nu_flat), and groups is the tree's row_groups, for batched
    prox solves. Rates go through regularizers.rate_array or check_rate."""

    def __init__(self, tree, feedback=QVALUE, family=ENTROPY, alpha=1.0,
                 tau=0.0, gamma=0.0, eta=0.1, schedule="uniform",
                 explore_eps=0.6, anneal_decay=0.0, anneal_every=0):
        if feedback not in (CF, QVALUE, TRAJQ):
            raise ValueError(f"unknown feedback kind {feedback!r}")
        self.feedback = feedback
        self.family = family
        self.eta = lr_schedule(tree, eta, schedule)
        self.alpha = rate_array(tree, "alpha", alpha)
        self.gamma = rate_array(tree, "gamma", gamma)
        check_rate(tau=tau, explore_eps=explore_eps, anneal_decay=anneal_decay)
        self.tau = float(tau)
        self.explore_eps = float(explore_eps)
        self.anneal_decay = anneal_decay
        self.anneal_every = anneal_every
        self.groups = tree.row_groups

    def effective_tau(self, t):
        """Regularization weight at iteration t under optional annealing."""
        if not self.anneal_decay or not self.anneal_every:
            return self.tau
        return self.tau * self.anneal_decay ** (t // self.anneal_every)


class SolverState:
    """Mutable iterate state. cur (current strategy) and bar (optimistic
    center) are flat pair arrays; cur_views holds persistent per-infoset
    views into cur, for the sampler, which reads one row per node.

    at_fixed_point marks the infosets whose zero-feedback step at their
    frozen weight last_tau0 returned bar bit for bit, so that cur equals
    bar and every later such step is the identity. Only lazy replays set
    the mark and lazy steps clear it where they move a row; a row or weight
    written by any other means must clear it too.
    """

    def __init__(self, tree, params):
        # Uniform strategies, projected onto the perturbed simplexes.
        self.cur = np.empty(tree.num_pairs)
        for idx, pairs, NU in params.groups:
            U = np.full(pairs.shape, 1.0 / pairs.shape[1])
            self.cur[pairs] = floor_fit(EUCLIDEAN, U, params.gamma[idx], NU)
        self.bar = self.cur.copy()
        self.cur_views = unflatten_profile(tree, self.cur)
        self.t = 0
        self.regret = np.zeros(tree.num_pairs)
        self.strat_sum = np.zeros(tree.num_pairs)
        self.last_seen = np.zeros(tree.num_infosets, dtype=np.int64)
        # Frozen local regularizer weights for lazy zero-feedback steps.
        own, _ = infoset_reach(tree, reach_flat(tree, self.cur))
        self.last_tau0 = params.effective_tau(0) * own
        self.at_fixed_point = np.zeros(tree.num_infosets, dtype=bool)

    def profile(self, tree):
        """Copy of the current strategy as a per-infoset list."""
        return [v.copy() for v in self.cur_views]


def local_tau0(params, tau, opp_reach, own_reach):
    """Per-infoset local regularizer weight tau * opp_reach / m."""
    if params.feedback == CF:
        return tau * opp_reach
    if params.feedback == QVALUE:
        return np.full_like(opp_reach, tau)
    return tau * opp_reach * own_reach


def _batched_update(state, params, g_flat, tau0, optimistic=True, rows=None,
                    unchanged=None):
    """Apply the (optionally optimistic) prox update at every infoset, or
    only at the infosets where the boolean mask `rows` is set.

    With `unchanged` (a boolean array over infosets), an optimistic update
    also records at each updated infoset whether its new bar equals the old
    one bit for bit."""
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
            B = state.bar[pairs]
            barn = prox_batch(params.family, B, G, t0, et, al, gm, NU)
            curn = prox_batch(params.family, barn, G, t0, et, al, gm, NU)
            if unchanged is not None:
                # Bit patterns, so that 0.0 and -0.0 count as different.
                unchanged[idx] = (barn.view(np.uint64)
                                  == B.view(np.uint64)).all(axis=1)
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
    tau0 = local_tau0(params, tau, oppr, ownr)
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
    tau0 = local_tau0(params, tau, oppr, ownr)
    _batched_update(state, params, -q_flat, tau0, optimistic=False)
    state.t += 1
    return m


def pga_step(state, tree, params):
    """Projected gradient ascent warm-up: pi <- Proj(pi + eta * q)."""
    tau = params.effective_tau(state.t)
    q_flat, m, _, _, _ = feedback_flat(
        tree, state.cur, params.feedback, tau, params.alpha, params.family)
    for idx, pairs, NU in params.groups:
        state.cur[pairs] = prox_batch(
            EUCLIDEAN, state.cur[pairs], -q_flat[pairs],
            np.zeros(idx.shape[0]), params.eta[idx], np.ones(idx.shape[0]),
            params.gamma[idx], NU)
    state.t += 1
    return m


# ---------------------------------------------------------------------------
# Regret-matching baselines


def _normalize_or_uniform(tree, w):
    """Normalize flat non-negative weights per infoset; uniform where an
    infoset's weights sum to 0."""
    sums = np.bincount(tree.pair_infoset, weights=w,
                       minlength=tree.num_infosets)
    rep = sums[tree.pair_infoset]
    uniform = 1.0 / tree.actions_per_infoset[tree.pair_infoset]
    return np.where(rep > 0.0, w / np.where(rep > 0.0, rep, 1.0), uniform)


def _regret_matching(state, tree, pair_mask=None):
    pos = np.maximum(state.regret, 0.0)
    if pair_mask is not None:
        pos = np.where(pair_mask, pos, 0.0)
    new = _normalize_or_uniform(tree, pos)
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


def average_flat(state, tree):
    """Normalized accumulated average strategy, a new flat pair array
    (uniform where untouched)."""
    return _normalize_or_uniform(tree, state.strat_sum)


def average_profile(state, tree):
    """average_flat as a per-infoset list."""
    return unflatten_profile(tree, average_flat(state, tree))


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
    _regret_matching(state, tree, pair_mask=visited[tree.pair_infoset])
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
    regularizer pull and is skipped, as the eager step skips it.

    Fixed-point rule: a zero-feedback step is a deterministic function of
    the row's bar, its frozen weight and the fixed params. When a step
    returns a row's bar bit for bit, the same step sets cur to prox(bar) =
    bar, and every later step of that row is the identity. Such a row is
    marked in state.at_fixed_point and leaves the replay; marked rows are
    not replayed until lazy_qfr_step moves them again. The result is the
    same bits as replaying every pending step.
    """
    fixed = state.at_fixed_point
    pending = np.zeros(state.last_seen.shape[0], dtype=np.int64)
    pending[sel] = t_now - state.last_seen[sel]
    pending[fixed | (state.last_tau0 == 0.0)] = 0
    state.last_seen[sel] = t_now
    zero = np.zeros_like(state.cur)
    for j in range(pending.max()):
        rows = pending > j
        if not rows.any():
            break
        _batched_update(state, params, zero, state.last_tau0, rows=rows,
                        unchanged=fixed)
        pending[fixed] = 0


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
    same trajectories.

    The real update changes the visited rows and their frozen weights, so
    it clears their fixed-point marks; replays of rows still marked are
    skipped (see _replay_pending)."""
    tau = params.effective_tau(state.t)
    if traj is None:
        traj = sample_trajectory(tree, _CatchUpOnRead(state, params), rng)
    else:
        visits = [tree.nodes[h].infoset for h in traj.nodes[:-1]
                  if not tree.nodes[h].is_chance]
        _replay_pending(state, params, visits, state.t)
    g, visited = _lazy_feedback(state, tree, params, traj, tau)
    _batched_update(state, params, g, state.last_tau0, rows=visited)
    state.at_fixed_point[visited] = False
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


class GameConstants(SimpleNamespace):
    """Bound constants for a (game, feedback, regularizer) configuration.

    All entries are non-negative; for counterfactual feedback the
    m-stability constants degenerate to 0 (m is identically 1) and the
    derived step-size caps are +inf.
    """


def game_constants(tree, kind, family, alpha=1.0, tau=0.0, gamma0=0.0,
                   gamma_seq=None, horizon=None, delta=0.05):
    """Compute the bound constants used by the step-size conditions.

    gamma0 is the per-infoset floor scale; gamma_seq the sequence-form mass
    floor (defaults to the bound implied by gamma0). horizon/delta feed the
    high-probability step-size caps when given.
    """
    if horizon is not None and not horizon >= 1:
        raise ValueError(f"horizon must be >= 1, got {horizon!r}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    check_rate(tau=tau, gamma=gamma0)
    n = tree.num_infosets
    alpha = rate_array(tree, "alpha", alpha)
    if gamma_seq is None:
        gamma_seq = gamma_lower_bound(tree, gamma0) if gamma0 > 0.0 else 0.0
    na = tree.actions_per_infoset
    # Chance mass per infoset: opponent reach under the all-ones profile.
    chance_mass = np.bincount(tree.member_infoset, minlength=n,
                              weights=tree.chance_reach[tree.member_node])
    min_chance = float(chance_mass.min())

    if kind not in (CF, QVALUE, TRAJQ):
        raise ValueError(f"unknown feedback kind {kind!r}")
    m1 = gamma_seq * min_chance if kind == QVALUE else 1.0
    m2 = ((1.0 / gamma_seq if gamma_seq > 0.0 else np.inf) if kind == TRAJQ
          else 1.0)

    depth = int(tree.infoset_depth.max())
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
    floor_min = gamma0 * float(np.min(tree.nu_flat))
    q_bound_sampled = q_bound / floor_min if floor_min > 0.0 else np.inf

    log1g = np.log(1.0 / gamma_seq) if gamma_seq > 0.0 else np.inf
    tau_term = 0.0 if tau == 0.0 else tau_over_m1 * log1g

    if family == ENTROPY:
        c_diff = (2.0 / alpha) * (2.0 * q_bound + alpha * tau * (
            0.0 if tau == 0.0 else (log1g / m1 if m1 > 0 else np.inf)))
    else:
        c_diff = (na / alpha) * q_bound + 2.0 * np.sqrt(na) * tau_over_m1

    k_ent = 2.0 * q_bound / alpha + tau_term
    max_c_diff = float(np.max(c_diff))
    max_k_ent = float(np.max(k_ent))
    mbrs = np.bincount(tree.member_infoset, minlength=n).astype(float)
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
        depth=depth, kind=kind, family=family, tau=tau, gamma0=gamma0,
        log1g=log1g, tau_term=tau_term)


@dataclass
class ScheduleReport:
    """Conformance of a per-infoset step-size schedule against the
    ancestor-sum, ancestor-magnitude, and local-magnitude conditions."""

    cond_a_ok: bool
    cond_b_ok: bool
    cond_c_ok: bool
    violations_a: list
    violations_b: list
    violations_c: list

    @property
    def all_ok(self):
        return self.cond_a_ok and self.cond_b_ok and self.cond_c_ok


def schedule_report(tree, eta, constants, alpha=1.0, tol=1e-12):
    """Check the three step-size conditions for a schedule.

    (A) at every infoset the sum of the owner's step sizes along its own
        sequence (the owner's infosets above it) is at most the local step
        size;
    (B) 6 * (largest step size of a decision ancestor of any member, or 0)
        * max_s(2 q_bound / alpha_s + (tau / M1) log(1/gamma)) <= 1;
    (C) eta_s * (2 q_bound + tau alpha_s / M1 * log(1/gamma)) <= 1.

    Each violation list holds (infoset, value) in ascending infoset order.
    """
    eta = rate_array(tree, "eta", eta)
    alpha = rate_array(tree, "alpha", alpha)
    c = constants

    # (A): the owner's step sizes summed along each sequence, root first,
    # read at each infoset's parent sequence (-1, the last entry, is the
    # empty sequence).
    seq_sum = np.zeros(tree.num_pairs + 1)
    for pairs, parents in tree.seq_levels:
        seq_sum[pairs] = seq_sum[parents] + eta[tree.pair_infoset[pairs]]
    a_val = seq_sum[tree.node_seq[tree.infoset_owner - PLAYER1,
                                  tree.first_member]]

    # (B): the largest decision-ancestor step size at every node, swept
    # down the edges (a chance edge adds 0), then at every infoset.
    edge_eta = np.zeros(tree.edge_child.shape[0])
    edge_eta[tree.dec_edge] = eta[tree.pair_infoset[tree.dec_pair]]
    anc = np.zeros(tree.num_nodes)
    for lo, hi in tree.edge_level_slices:
        anc[tree.edge_child[lo:hi]] = np.maximum(
            anc[tree.edge_parent[lo:hi]], edge_eta[lo:hi])
    eta_anc = np.zeros(tree.num_infosets)
    np.maximum.at(eta_anc, tree.member_infoset, anc[tree.member_node])
    max_k = float(np.max(2.0 * c.q_bound / alpha + c.tau_term))
    # An infoset without decision ancestors has eta_anc = 0, and 0 times
    # an infinite bound is NaN, which violates nothing.
    with np.errstate(invalid="ignore"):
        b_val = 6.0 * eta_anc * max_k

    # (C)
    pull = (c.tau * alpha / c.m1 * c.log1g if c.tau > 0.0 and c.m1 > 0.0
            else 0.0)
    c_val = eta * (2.0 * c.q_bound + pull)

    va, vb, vc = ([(int(si), val[si]) for si in np.flatnonzero(bad)]
                  for val, bad in ((a_val, a_val > eta + tol),
                                   (b_val, b_val > 1.0 + tol),
                                   (c_val, c_val > 1.0 + tol)))
    return ScheduleReport(not va, not vb, not vc, va, vb, vc)


def check_m_bounds(m, constants, tol=1e-9):
    """Number of hard violations of M1 <= m_s <= M2."""
    m = np.asarray(m, dtype=np.float64)
    lo = constants.m1 - tol
    hi = constants.m2 + tol if np.isfinite(constants.m2) else np.inf
    return int(np.sum((m < lo) | (m > hi)))
