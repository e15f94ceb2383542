"""End-to-end acceptance runs: nine criteria, one test (and one verdict
line) each. Criteria 5 and 6 are long convergence runs; criterion 7 audits
the bound-violation counters they record."""

import itertools

import numpy as np
import pytest

from efglab.evaluate import (bregman_to_reference, compute_reference,
                             exploitability, perturbed_regularized_gap)
from efglab.game import PLAYER1, PLAYER2, expected_utility, uniform_profile
from efglab.games import build_kuhn, build_leduc
from efglab.regularizers import (ENTROPY, EUCLIDEAN, TruncatedSimplex,
                                 bregman_local, local_psi, prox_step)
from efglab.solvers import (SolverParams, SolverState, cfr_plus_step,
                            check_m_bounds, game_constants, lazy_qfr_step,
                            qfr_full_step, qfr_stochastic_step)
from efglab.values import (CF, QVALUE, TRAJQ, compute_feedback,
                           estimate_trajectory_q, sample_trajectory)
from oracles import (LazyOracleState, average_profile, bregman_tree,
                     bregman_tree_direct, oracle_catch_up, oracle_lazy_step,
                     project_truncated_simplex, prox_objectives,
                     to_sequence_form)

# Bound violations recorded by the convergence runs (criteria 5 and 6) and
# audited by criterion 7; pytest executes this file top to bottom.
M_VIOLATIONS = {"criterion5": None, "criterion6": None}


def _random_profile(tree, rng):
    return [rng.dirichlet(np.ones(n)) for n in tree.actions_per_infoset]


def _bilinear_utility(tree, profile):
    """Sequence-form bilinear evaluation: sum over terminals of
    chance reach x P1 sequence weight x P2 sequence weight x utility."""
    sf1 = to_sequence_form(tree, profile, PLAYER1)
    sf2 = to_sequence_form(tree, profile, PLAYER2)
    total = 0.0
    stack = [(tree.root, 1.0, 1.0, 1.0)]
    while stack:
        nid, mc, s1, s2 = stack.pop()
        nd = tree.nodes[nid]
        if nd.is_terminal:
            total += mc * s1 * s2 * nd.utility
            continue
        for a, child in enumerate(nd.children):
            if nd.is_chance:
                stack.append((child, mc * nd.chance_probs[a], s1, s2))
            elif nd.owner == PLAYER1:
                stack.append((child, mc, sf1.seq[nd.infoset][a], s2))
            else:
                stack.append((child, mc, s1, sf2.seq[nd.infoset][a]))
    return total


def test_criterion_1_oracle_identities():
    rng = np.random.default_rng(101)
    for tree in (build_kuhn(), build_leduc()):
        profiles = [_random_profile(tree, rng) for _ in range(100)]
        for prof in profiles:
            for kind in (CF, QVALUE, TRAJQ):
                fb = compute_feedback(tree, prof, kind)
                for si in range(tree.num_infosets):
                    cf = np.asarray(fb.cf[si])
                    mq = fb.m[si] * np.asarray(fb.q[si])
                    scale = max(np.abs(cf).max(), 1.0)
                    assert np.max(np.abs(cf - mq)) <= 1e-12 * scale
        for prof in profiles[:10]:
            ref = profiles[0]
            for player in (PLAYER1, PLAYER2):
                a = bregman_tree(tree, prof, ref, player, 1.0, ENTROPY)
                b = bregman_tree_direct(tree, prof, ref, player, 1.0,
                                        ENTROPY)
                assert abs(a - b) <= 1e-9
        for prof in profiles[:20]:
            assert abs(_bilinear_utility(tree, prof)
                       - expected_utility(tree, prof)) <= 1e-12
    print("\ncriterion 1 (value/Bregman/bilinear identities): PASS")


def test_criterion_2_prox_correctness():
    rng = np.random.default_rng(202)
    grid_size = 1_000_000
    for trial in range(200):
        na = int(rng.integers(2, 7))
        family = ENTROPY if trial % 2 == 0 else EUCLIDEAN
        nu = rng.dirichlet(np.ones(na))
        gamma = float(rng.uniform(0.01, 0.2))
        sx = TruncatedSimplex(gamma, nu)
        floor = sx.floor()
        free = 1.0 - floor.sum()
        x0 = floor + free * rng.dirichlet(np.ones(na))
        g = rng.uniform(-2.0, 2.0, size=na)
        tau0 = float(rng.uniform(0.0, 1.0))
        eta = float(rng.uniform(0.01, 1.0))
        alpha = 1.0
        out = prox_step(x0, g, tau0, eta, alpha, family, sx)
        assert sx.contains(out, tol=1e-9)
        # The grid points floor + free * raw / raw.sum(axis=1), built in
        # place and scored in one pass.
        pts = rng.gamma(1.0, size=(grid_size, na))
        total = pts.sum(axis=1, keepdims=True)
        pts *= free
        pts /= total
        pts += floor
        objs = prox_objectives(pts, x0, g, tau0, eta, alpha, family)
        obj_out = (out @ g + tau0 * local_psi(out, alpha, family)
                   + bregman_local(out, x0, alpha, family) / eta)
        assert obj_out <= objs.min() + 1e-6

        # Euclidean projection KKT residual.
        z = rng.uniform(-1.0, 2.0, size=na)
        x = project_truncated_simplex(z, sx)
        assert abs(x.sum() - 1.0) <= 1e-12
        assert np.all(x >= floor - 1e-12)
        active = x > floor + 1e-10
        assert active.any()
        lam = np.mean(z[active] - x[active])
        resid = max(np.abs(z[active] - x[active] - lam).max(initial=0.0),
                    np.maximum(z[~active] - x[~active] - lam, 0.0)
                    .max(initial=0.0))
        assert resid <= 1e-9
    print("\ncriterion 2 (prox beats grid oracle, projection KKT): PASS")


def test_criterion_3_estimator_unbiasedness():
    tree = build_kuhn()
    prof = uniform_profile(tree)
    n = 200_000
    for tau in (0.0, 0.01):
        family = ENTROPY if tau else None
        exact = compute_feedback(tree, prof, TRAJQ, tau=tau, alpha=1.0,
                                 family=family)
        rng = np.random.default_rng(303)
        sums = [np.zeros(na) for na in tree.actions_per_infoset]
        sq = [np.zeros(na) for na in tree.actions_per_infoset]
        for _ in range(n):
            traj = sample_trajectory(tree, prof, rng)
            for si, (a, val) in estimate_trajectory_q(
                    tree, traj, prof, tau=tau, alpha=1.0,
                    family=family).items():
                sums[si][a] += val
                sq[si][a] += val * val
        for si in range(tree.num_infosets):
            mean = sums[si] / n
            se = np.sqrt(np.maximum(sq[si] / n - mean ** 2, 1e-12) / n)
            assert np.all(np.abs(mean - exact.q[si]) <= 4.0 * se)
    print("\ncriterion 3 (trajectory estimator unbiased, 200k samples): "
          "PASS")


def test_criterion_4_baseline_sanity():
    tree = build_kuhn()
    params = SolverParams(tree, feedback=CF, tau=0.0, gamma=0.0)
    state = SolverState(tree, params)
    for _ in range(10_000):
        cfr_plus_step(state, tree, params)
    avg = average_profile(state, tree)
    expl = exploitability(tree, avg)
    assert expl <= 1e-4
    value = expected_utility(tree, avg)
    # Kuhn utilities are halved to fit [-1, 1], so the classic game value
    # -1/18 appears as -1/36.
    target = -1.0 / 36.0
    assert abs(value - target) <= 1e-3 / 2.0
    # Cross-check with pure-strategy enumeration: the P1 value of the
    # equilibrium candidate is pinched between the two best responses.
    own = sorted(tree.infoset_ids(PLAYER1))
    best_p1 = -np.inf
    for combo in itertools.product(
            *[range(tree.actions_per_infoset[si]) for si in own]):
        prof = [np.asarray(a, dtype=float) for a in avg]
        for si, a in zip(own, combo):
            prof[si] = np.zeros(tree.actions_per_infoset[si])
            prof[si][a] = 1.0
        best_p1 = max(best_p1, expected_utility(tree, prof))
    assert value <= best_p1 + 1e-12
    assert abs(best_p1 - target) <= 1e-3 / 2.0 + expl
    print(f"\ncriterion 4 (CFR+ expl {expl:.2e}, value "
          f"{value * 2:.6f} (chips) vs -1/18): PASS")


def test_criterion_5_qfr_full_information_convergence():
    etas = (0.1, 0.01, 0.001, 0.0001)
    violations = 0
    ratios = {}
    for game_name, tree in (("kuhn", build_kuhn()), ("leduc", build_leduc())):
        constants = game_constants(tree, QVALUE, ENTROPY, tau=0.001,
                                   gamma0=0.001)
        best_ratio = np.inf
        for eta in etas:
            params = SolverParams(tree, feedback=QVALUE, family=ENTROPY,
                                  tau=0.001, gamma=0.001, eta=eta)
            state = SolverState(tree, params)
            expl_10 = None
            for it in range(1, 10_001):
                m = qfr_full_step(state, tree, params)
                violations += check_m_bounds(m, constants)
                if it == 10:
                    expl_10 = exploitability(tree, state.profile(tree))
            expl_final = exploitability(tree, state.profile(tree))
            best_ratio = min(best_ratio, expl_final / expl_10)
        ratios[game_name] = best_ratio
        assert best_ratio <= 0.1
    M_VIOLATIONS["criterion5"] = violations
    print(f"\ncriterion 5 (full-info convergence, best-cell ratios "
          f"kuhn {ratios['kuhn']:.3g}, leduc {ratios['leduc']:.3g}): PASS")


def test_criterion_6_qfr_stochastic_best_iterate():
    tree = build_kuhn()
    tau, gamma, eta = 0.001, 0.01, 0.01  # eta tuned by grid search
    reference, ref_gap = compute_reference(tree, tau, gamma=gamma, tol=1e-7)
    assert ref_gap <= 1e-7
    constants = game_constants(tree, TRAJQ, ENTROPY, tau=tau, gamma0=gamma)
    checkpoints = (1_000, 10_000, 100_000)
    best_gaps = []
    best_breg_at = {c: [] for c in checkpoints}
    violations = 0
    for seed in range(20):
        params = SolverParams(tree, feedback=TRAJQ, family=ENTROPY,
                              tau=tau, gamma=gamma, eta=eta)
        state = SolverState(tree, params)
        rng = np.random.default_rng(seed)
        best_gap = np.inf
        best_breg = np.inf
        for it in range(1, 100_001):
            qfr_stochastic_step(state, tree, params, rng)
            if it % 1000 == 0:
                prof = state.profile(tree)
                fb = compute_feedback(tree, prof, TRAJQ)
                violations += check_m_bounds(fb.m, constants)
                gap = perturbed_regularized_gap(tree, prof, tau, 1.0,
                                                ENTROPY, params.gamma)
                breg = bregman_to_reference(tree, prof, reference)
                best_gap = min(best_gap, gap)
                best_breg = min(best_breg, breg)
                if it in checkpoints:
                    best_breg_at[it].append(best_breg)
        best_gaps.append(best_gap)
    M_VIOLATIONS["criterion6"] = violations
    med_gap = float(np.median(best_gaps))
    med_breg = [float(np.median(best_breg_at[c])) for c in checkpoints]
    assert med_gap <= 0.05
    assert med_breg[0] > med_breg[1] > med_breg[2]
    print(f"\ncriterion 6 (stochastic best-iterate: median gap "
          f"{med_gap:.4f} <= 0.05, median best Bregman "
          f"{med_breg[0]:.4f} > {med_breg[1]:.4f} > {med_breg[2]:.4f}): "
          "PASS")


def test_criterion_7_m_bound_violations():
    if M_VIOLATIONS["criterion5"] is None or M_VIOLATIONS["criterion6"] is None:
        pytest.skip("requires the criterion 5 and 6 runs (full suite)")
    assert M_VIOLATIONS["criterion5"] == 0
    assert M_VIOLATIONS["criterion6"] == 0
    print("\ncriterion 7 (zero feedback-scale bound violations in 5-6): "
          "PASS")


def test_criterion_8_lazy_eager_equivalence():
    """The library's lazy step runs every zero-feedback step eagerly; the
    deferred side is the per-row oracle that replays them at visits."""
    tree = build_kuhn()
    params = SolverParams(tree, feedback=TRAJQ, family=ENTROPY, tau=0.01,
                          gamma=0.05, eta=0.05)
    s_lazy = LazyOracleState(tree, params)
    s_eager = SolverState(tree, params)
    rng = np.random.default_rng(808)
    for _ in range(1000):
        traj = sample_trajectory(tree, s_eager.cur_views, rng)
        lazy_qfr_step(s_eager, tree, params, traj=traj)
        oracle_lazy_step(s_lazy, tree, params, traj=traj)
        # Strategy sequences agree exactly at every up-to-date infoset.
        for si in range(tree.num_infosets):
            if s_lazy.last_seen[si] == s_lazy.t:
                off = tree.infoset_offset[si]
                na = tree.actions_per_infoset[si]
                assert np.array_equal(s_lazy.cur[off:off + na],
                                      s_eager.cur[off:off + na])
    oracle_catch_up(s_lazy, tree, params)
    assert np.array_equal(s_lazy.cur, s_eager.cur)
    assert np.array_equal(s_lazy.bar, s_eager.bar)
    print("\ncriterion 8 (lazy/eager exact equivalence, 1000 steps): PASS")


def test_criterion_9_constants_table_instances():
    tree = build_kuhn()
    # Kuhn's sequence-form floor is gamma0 ** 2 / 12: own depth 2, 12
    # infosets.
    c_tq = game_constants(tree, TRAJQ, ENTROPY, gamma0=0.6)
    assert c_tq.m2 == pytest.approx(12.0 / 0.6 ** 2)
    c_cf = game_constants(tree, CF, ENTROPY, gamma0=0.1)
    assert c_cf.m1 == 1.0 and c_cf.m2 == 1.0
    c_q = game_constants(tree, QVALUE, ENTROPY, gamma0=0.1)
    assert c_q.m1 == pytest.approx(c_q.gamma_seq * c_q.min_chance_mass)
    assert c_q.min_chance_mass == pytest.approx(1.0 / 3.0)
    print("\ncriterion 9 (constants table instances): PASS")
