"""Iterative equilibrium solvers over perturbed strategy sets.

The main family is an optimistic proximal method: at every infoset the
strategy follows two prox solves against the negated value feedback, one
advancing the center iterate and one jumping ahead from the new center.
Full-information, trajectory-sampled, and lazy (frozen-weight) variants
share the same local update. Baselines: projected gradient ascent,
regret-matching CFR, CFR+, outcome-sampling MCCFR, and non-optimistic
mirror descent.
"""

import numbers
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .game import PLAYER1, PLAYER2, gamma_lower_bound, unflatten_profile
from .regularizers import (ENTROPY, EUCLIDEAN, check_rate, floor_fit,
                           prox_batch, rate_array, row_floors)
from .values import (CF, QVALUE, TRAJQ, estimate_trajectory_q, feedback_flat,
                     reach_flat, sample_trajectory)


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


def check_choice(name, value, kinds):
    """Raise ValueError unless `value` is one of `kinds`."""
    if value not in kinds:
        raise ValueError(f"{name} must be one of {', '.join(kinds)}, got "
                         f"{value!r}")


def check_count(name, value, least):
    """Raise ValueError unless `value` is an integer (not a bool) >= least."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < least):
        raise ValueError(f"{name} must be an integer >= {least}, got "
                         f"{value!r}")


class SolverParams:
    """Configuration shared by all solver step functions: alpha, gamma
    and eta are arrays over infosets, strategies are floored at gamma * nu
    (nu is tree.nu_flat), and groups is the tree's row_groups, for batched
    prox solves. floors holds each group's row_floors, computed once, so
    gamma is read-only; eta may change between steps. Rates go through
    regularizers.rate_array or check_rate."""

    def __init__(self, tree, feedback=QVALUE, family=ENTROPY, alpha=1.0,
                 tau=0.0, gamma=0.0, eta=0.1, schedule="uniform",
                 explore_eps=0.6, anneal_decay=0.0, anneal_every=0):
        if feedback not in (CF, QVALUE, TRAJQ):
            raise ValueError(f"unknown feedback kind {feedback!r}")
        check_choice("family", family, (ENTROPY, EUCLIDEAN))
        check_count("anneal_every", anneal_every, 0)
        self.feedback = feedback
        self.family = family
        self.eta = lr_schedule(tree, eta, schedule)
        self.alpha = rate_array(tree, "alpha", alpha)
        self.gamma = rate_array(tree, "gamma", gamma)
        self.gamma.flags.writeable = False
        check_rate(tau=tau, explore_eps=explore_eps, anneal_decay=anneal_decay)
        self.tau = float(tau)
        self.explore_eps = float(explore_eps)
        self.anneal_decay = anneal_decay
        self.anneal_every = anneal_every
        self.groups = tree.row_groups
        self.floors = tuple(row_floors(self.gamma[idx], NU)
                            for idx, _, NU in self.groups)

    def effective_tau(self, t):
        """Regularization weight at iteration t under optional annealing."""
        if not self.anneal_decay or not self.anneal_every:
            return self.tau
        return self.tau * self.anneal_decay ** (t // self.anneal_every)


class SolverState:
    """Mutable iterate state. cur (current strategy) and bar (optimistic
    center) are flat pair arrays; cur_views holds persistent per-infoset
    views into cur, for the sampler, which reads one row per node.
    last_tau0 holds each infoset's local regularizer weight frozen at its
    last lazy visit, the weight of its zero-feedback steps.
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
        self.last_tau0 = (params.effective_tau(0)
                          * reach_flat(tree, self.cur)[tree.infoset_seq])

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


def _batched_update(state, params, g_flat, tau0, optimistic=True, rows=None):
    """Apply the (optionally optimistic) prox update at every infoset, or
    only at the infosets where the boolean mask `rows` is set: one
    prox_batch call per row group. tau0 is one value per infoset, or one
    number for all of them."""
    per_row = isinstance(tau0, np.ndarray)
    for (idx, pairs, _), (floor, slack, has_slack) in zip(params.groups,
                                                          params.floors):
        if rows is not None:
            sel = rows[idx].nonzero()[0]
            if not sel.shape[0]:
                continue
            # take gathers a few rows of a 2-D array in a third of the time
            # that indexing takes.
            idx, pairs = idx[sel], pairs.take(sel, 0)
            floor, slack, has_slack = (floor.take(sel, 0), slack[sel],
                                       has_slack[sel])
        args = (g_flat[pairs], tau0[idx] if per_row else tau0,
                params.eta[idx], params.alpha[idx], (floor, slack, has_slack))
        if optimistic:
            state.bar[pairs], state.cur[pairs] = prox_batch(
                params.family, state.bar[pairs], *args, optimistic=True)
        else:
            state.cur[pairs] = prox_batch(params.family, state.cur[pairs],
                                          *args)


# ---------------------------------------------------------------------------
# Full-information steps


def _full_prox_step(state, tree, params, optimistic):
    """Feedback at the current strategy, augmented by tau, then the prox
    update at every infoset with local weight tau * opp_reach / m under the
    current reach probabilities."""
    tau = params.effective_tau(state.t)
    q_flat, m, ownr, oppr, _ = feedback_flat(
        tree, state.cur, params.feedback, tau, params.alpha, params.family)
    _batched_update(state, params, -q_flat,
                    local_tau0(params, tau, oppr, ownr), optimistic)
    state.t += 1
    return m


def qfr_full_step(state, tree, params):
    """One full-information optimistic prox iteration (all infosets)."""
    return _full_prox_step(state, tree, params, True)


def mmd_step(state, tree, params):
    """Non-optimistic mirror-descent baseline (reconstructed): one prox
    solve from the current iterate with the same feedback and weights."""
    return _full_prox_step(state, tree, params, False)


def pga_step(state, tree, params):
    """Projected gradient ascent warm-up: pi <- Proj(pi + eta * q)."""
    tau = params.effective_tau(state.t)
    q_flat, m, _, _, _ = feedback_flat(
        tree, state.cur, params.feedback, tau, params.alpha, params.family)
    for (idx, pairs, _), floors in zip(params.groups, params.floors):
        state.cur[pairs] = prox_batch(
            EUCLIDEAN, state.cur[pairs], -q_flat[pairs],
            np.zeros(idx.shape[0]), params.eta[idx], np.ones(idx.shape[0]),
            floors)
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


def _regret_matching(state, tree, pairs):
    """Play each infoset's positive regrets normalized (uniform where none
    is positive) at `pairs`, a slice or a mask of whole infosets."""
    state.cur[pairs] = _normalize_or_uniform(
        tree, np.maximum(state.regret, 0.0))[pairs]


def _instant_regret(state, tree):
    """Counterfactual regret of every pair at the current strategy, and
    each infoset's own reach."""
    _, _, ownr, _, cf = feedback_flat(tree, state.cur, CF, 0.0)
    ev = np.bincount(tree.pair_infoset, weights=cf * state.cur,
                     minlength=tree.num_infosets)
    return cf - ev[tree.pair_infoset], ownr


def cfr_step(state, tree, params):
    """Vanilla CFR: simultaneous regret-matching on counterfactual regrets
    with reach-weighted strategy averaging."""
    inc, ownr = _instant_regret(state, tree)
    state.regret += inc
    state.strat_sum += ownr[tree.pair_infoset] * state.cur
    _regret_matching(state, tree, slice(None))
    state.t += 1


def cfr_plus_step(state, tree, params):
    """CFR+: alternating updates, regrets clipped at zero, linearly
    weighted strategy averaging."""
    state.t += 1
    for p in (1, 2):
        mask = tree.pair_owner == p
        inc, ownr = _instant_regret(state, tree)
        state.regret[mask] = np.maximum(state.regret[mask] + inc[mask], 0.0)
        _regret_matching(state, tree, mask)
        state.strat_sum[mask] += (state.t * ownr[tree.pair_infoset][mask]
                                  * state.cur[mask])


def average_flat(state, tree):
    """Normalized accumulated average strategy, a new flat pair array
    (uniform where untouched)."""
    return _normalize_or_uniform(tree, state.strat_sum)


def os_mccfr_step(state, tree, params, rng):
    """Outcome-sampling MCCFR with epsilon-uniform exploration.

    One trajectory is sampled from the exploration-mixed profile; visited
    infosets receive importance-weighted counterfactual regret updates whose
    expectation equals the full-information CFR increment.
    """
    traj = sample_trajectory(tree, state.cur_views, rng,
                             explore_eps=params.explore_eps)
    # Forward: the sample probability, each player's others' (chance and
    # opponent) probability, and at each decision the averaging weight,
    # its owner's own probability over the sample probability of the
    # steps before it.
    q_all = 1.0
    others = [None, 1.0, 1.0]
    own = [None, 1.0, 1.0]
    weight = [None] * traj.num_steps
    for k in range(traj.num_steps):
        nd = tree.nodes[traj.nodes[k]]
        pk = traj.true_probs[k]
        if nd.is_chance:
            others[PLAYER1] *= pk
            others[PLAYER2] *= pk
        else:
            weight[k] = own[nd.owner] / q_all
            own[nd.owner] *= pk
            others[PLAYER1 + PLAYER2 - nd.owner] *= pk
        q_all *= traj.sample_probs[k]
    # Backward: the owner's own probability over the steps after each
    # decision, a suffix product, so a zero-probability sampled action
    # (possible under exploration) never forces a 0/0 ratio. A trajectory
    # visits an infoset at most once, so the updates commute.
    u = [None, traj.utility, -traj.utility]
    suffix = [None, 1.0, 1.0]
    visited = np.zeros(tree.num_infosets, dtype=bool)
    for k in range(traj.num_steps - 1, -1, -1):
        nd = tree.nodes[traj.nodes[k]]
        if nd.is_chance:
            continue
        p = nd.owner
        si = nd.infoset
        a = traj.actions[k]
        v = u[p] * others[p] * suffix[p] / q_all
        off = tree.infoset_offset[si]
        na = tree.actions_per_infoset[si]
        state.regret[off:off + na] -= state.cur[off + a] * v
        state.regret[off + a] += v
        state.strat_sum[off:off + na] += weight[k] * state.cur[off:off + na]
        suffix[p] *= traj.true_probs[k]
        visited[si] = True
    _regret_matching(state, tree, visited[tree.pair_infoset])
    state.t += 1
    return traj


# ---------------------------------------------------------------------------
# Stochastic and lazy optimistic steps


def _sampled_gradient(state, tree, params, tau, rng, traj, dilated):
    """Sample a trajectory from the current strategy unless one is given,
    estimate its trajectory-q values, and return (traj, g, visited): the
    flat negated one-hot estimates and the mask of estimated infosets."""
    if traj is None:
        traj = sample_trajectory(tree, state.cur_views, rng)
    est = estimate_trajectory_q(tree, traj, state.cur_views, tau,
                                params.alpha, params.family, dilated=dilated)
    g = np.zeros(tree.num_pairs)
    visited = np.zeros(tree.num_infosets, dtype=bool)
    for si, (a, v) in est.items():
        g[tree.infoset_offset[si] + a] = -v
        visited[si] = True
    return traj, g, visited


def qfr_stochastic_step(state, tree, params, rng=None, traj=None):
    """One trajectory-sampled optimistic iteration.

    Samples one on-policy trajectory, forms one-hot trajectory-q estimates
    (regularizer-augmented), and applies the two prox solves with constant
    local weight tau at every visited infoset; unvisited infosets are left
    unchanged. Returns the trajectory.
    """
    tau = params.effective_tau(state.t)
    traj, g, visited = _sampled_gradient(state, tree, params, tau, rng, traj,
                                         False)
    _batched_update(state, params, g, tau, rows=visited)
    state.t += 1
    return traj


def lazy_qfr_step(state, tree, params, rng=None, traj=None):
    """Lazy variant: the real update at each visited infoset with local
    weight tau / m_s = tau * own_reach(sigma(s)), and one zero-feedback
    step at every other infoset at the weight frozen at its last visit.
    Estimates use the own-regularizer-only (dilated) augmentation.

    The paper's lazy form defers the zero-feedback steps of an unvisited
    infoset until its next visit; this step runs them every iteration, in
    one batched update, and gives the same bits (criterion 8 checks it
    against a deferred per-row oracle in the tests). Infosets whose frozen
    weight is 0 have no regularizer pull and are not updated.
    """
    tau = params.effective_tau(state.t)
    traj, g, visited = _sampled_gradient(state, tree, params, tau, rng, traj,
                                         True)
    # Freeze tau * own_reach(sigma(s)) at each visited infoset, read from
    # the strategies before this step's updates.
    reach = {PLAYER1: 1.0, PLAYER2: 1.0}
    for node, a in zip(traj.nodes, traj.actions):
        nd = tree.nodes[node]
        if not nd.is_chance:
            state.last_tau0[nd.infoset] = tau * reach[nd.owner]
            reach[nd.owner] *= state.cur_views[nd.infoset][a]
    _batched_update(state, params, g, state.last_tau0,
                    rows=visited | (state.last_tau0 != 0.0))
    state.t += 1
    return traj


# The eager form of the lazy variant: the same function, under its
# exported name.
qfr_lazy_eager_step = lazy_qfr_step


def lazy_catch_up(state, tree, params):
    """No-op, kept for callers that catch a lazy state up before
    evaluation: lazy_qfr_step leaves no step pending."""


# ---------------------------------------------------------------------------
# Constants and step-size conformance


class GameConstants(SimpleNamespace):
    """Bound constants for a (game, feedback, regularizer) configuration.

    All entries are non-negative; for counterfactual feedback the
    m-stability constants degenerate to 0 (m is identically 1) and the
    derived step-size caps are +inf.
    """


# Infinite and NaN constants are results, not faults: no numpy warning.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def game_constants(tree, kind, family, alpha=1.0, tau=0.0, gamma0=0.0,
                   horizon=None, delta=0.05):
    """Compute the bound constants used by the step-size conditions.

    gamma0 is the per-infoset floor scale; the sequence-form mass floor
    gamma_seq is the bound it implies. horizon/delta feed the
    high-probability step-size caps when given.
    """
    if horizon is not None and not horizon >= 1:
        raise ValueError(f"horizon must be >= 1, got {horizon!r}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")
    check_rate(tau=tau, gamma=gamma0)
    n = tree.num_infosets
    alpha = rate_array(tree, "alpha", alpha)
    gamma_seq = gamma_lower_bound(tree, gamma0) if gamma0 > 0.0 else 0.0
    na = tree.actions_per_infoset
    # Chance mass per infoset: opponent reach under the all-ones profile.
    chance_mass = np.bincount(tree.member_infoset, minlength=n,
                              weights=tree.member_chance)
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
    c_eta = np.where(c_minus > 0.0,
                     gamma_seq * chance_mass / (2.0 * c_minus), np.inf)
    c_eta_T = None
    c_visit = None
    if horizon is not None:
        logfac = np.log(horizon) + np.log(n) + np.log(1.0 / delta)
        c_eta_T = np.where(
            c_minus > 0.0,
            gamma_seq ** 2 * chance_mass / (2.0 * c_minus * logfac), np.inf)
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


def schedule_report(tree, eta, constants, alpha=1.0):
    """Check the three step-size conditions for a schedule.

    (A) at every infoset the sum of the owner's step sizes along its own
        sequence (the owner's infosets above it) is at most the local step
        size;
    (B) 6 * (largest step size of a decision ancestor of any member, or 0)
        * max_s(2 q_bound / alpha_s + (tau / M1) log(1/gamma)) <= 1;
    (C) eta_s * (2 q_bound + tau alpha_s / M1 * log(1/gamma)) <= 1.

    Violations (past a 1e-12 slack) list (infoset, value) by ascending infoset.
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
    a_val = seq_sum[tree.infoset_seq]

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
                  for val, bad in ((a_val, a_val > eta + 1e-12),
                                   (b_val, b_val > 1.0 + 1e-12),
                                   (c_val, c_val > 1.0 + 1e-12)))
    return ScheduleReport(not va, not vb, not vc, va, vb, vc)


def check_m_bounds(m, constants):
    """Number of hard violations of M1 <= m_s <= M2, to within 1e-9."""
    m = np.asarray(m, dtype=np.float64)
    lo = constants.m1 - 1e-9
    hi = constants.m2 + 1e-9 if np.isfinite(constants.m2) else np.inf
    return int(np.sum((m < lo) | (m > hi)))
