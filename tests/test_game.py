"""Tree construction, serialization, sequence form, and reach machinery."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efglab.game import (CHANCE, PLAYER1, PLAYER2, GameFormatError,
                         GameValidationError,
                         Infoset, Node, dump_game, expected_utility,
                         expected_utility_traversal, exploration_distribution,
                         gamma_lower_bound, load_game, random_profile,
                         reach_probabilities, to_sequence_form,
                         uniform_profile, validate_perfect_recall,
                         validate_profile)
from efglab.games import build_kuhn, build_matching_pennies


# ---------------------------------------------------------------------------
# Built-in games


def test_kuhn_infoset_counts(kuhn):
    assert len(kuhn.infoset_ids(PLAYER1)) == 6
    assert len(kuhn.infoset_ids(PLAYER2)) == 6


def test_kuhn_terminal_count(kuhn):
    assert len(kuhn.terminal_ids) == 30


def test_kuhn_chance_probs(kuhn):
    root = kuhn.nodes[kuhn.root]
    assert root.is_chance
    assert np.allclose(root.chance_probs, 1.0 / 6.0)


def test_leduc_infoset_count(leduc):
    assert leduc.num_infosets == 936


def test_leduc_perfect_recall(leduc):
    assert validate_perfect_recall(leduc) == []


def test_leduc_utilities_scaled(leduc):
    assert np.all(np.abs(leduc.terminal_utils) <= 1.0)


def test_kuhn_perfect_recall(kuhn):
    assert validate_perfect_recall(kuhn) == []


def test_perfect_recall_violation_reported():
    # Two player-1 nodes with different own histories merged into infoset 1.
    root = Node(owner=PLAYER1, infoset=0, actions=["l", "r"], children=[1, 2])
    mid_l = Node(owner=PLAYER1, infoset=1, actions=["l", "r"],
                 children=[3, 4])
    mid_r = Node(owner=PLAYER1, infoset=1, actions=["l", "r"],
                 children=[5, 6])
    terms = [Node(utility=0.0) for _ in range(4)]
    nodes = [root, mid_l, mid_r] + terms
    s0 = Infoset(PLAYER1, ["l", "r"])
    s0.members = [0]
    s1 = Infoset(PLAYER1, ["l", "r"])
    s1.members = [1, 2]
    report = validate_perfect_recall(nodes, [s0, s1])
    assert len(report) == 1
    assert report[0]["infoset"] == 1


# ---------------------------------------------------------------------------
# JSON round trip


def test_load_matching_pennies_doc(pennies):
    doc = dump_game(pennies)
    tree = load_game(doc)
    assert tree.num_infosets == 2
    assert len(tree.infoset_ids(PLAYER1)) == 1
    assert len(tree.infoset_ids(PLAYER2)) == 1


def test_load_rejects_bad_chance_sum():
    doc = {
        "name": "bad",
        "root": 0,
        "nodes": [
            {"id": 0, "kind": "chance", "actions": [
                {"label": "a", "child": 1, "prob": 0.5},
                {"label": "b", "child": 3, "prob": 0.4}]},
            {"id": 1, "kind": "p1", "infoset": 0, "actions": [
                {"label": "x", "child": 2}]},
            {"id": 2, "kind": "terminal", "utility_p1": 0.0},
            {"id": 3, "kind": "terminal", "utility_p1": 0.0},
        ],
    }
    with pytest.raises(GameValidationError, match="chance probabilities"):
        load_game(doc)


def test_kuhn_round_trip(kuhn, rng):
    tree = load_game(json.loads(json.dumps(dump_game(kuhn))))
    assert tree.utility_scale == kuhn.utility_scale == 2.0
    assert tree.num_nodes == kuhn.num_nodes
    assert tree.num_infosets == kuhn.num_infosets
    assert np.allclose(tree.terminal_utils, kuhn.terminal_utils)
    prof = random_profile(kuhn, rng)
    assert expected_utility(tree, prof) == pytest.approx(
        expected_utility(kuhn, prof), abs=1e-14)


@pytest.mark.parametrize("scale", [0.0, -2.0, float("nan"), "2", True])
def test_load_rejects_bad_utility_scale(pennies, scale):
    doc = {**dump_game(pennies), "utility_scale": scale}
    with pytest.raises(GameFormatError, match="utility_scale"):
        load_game(doc)


# ---------------------------------------------------------------------------
# Sequence form


def test_sequence_form_uniform_depth_two(kuhn):
    prof = uniform_profile(kuhn)
    for si, s in enumerate(kuhn.infosets):
        if s.own_depth == 2:
            sf = to_sequence_form(kuhn, prof, s.owner)
            assert np.allclose(sf.seq[si], 0.25)
            break
    else:
        pytest.fail("no own-depth-2 infoset in Kuhn")


def test_sequence_form_deterministic(kuhn):
    prof = []
    for s in kuhn.infosets:
        x = np.zeros(s.num_actions)
        x[0] = 1.0
        prof.append(x)
    for p in (PLAYER1, PLAYER2):
        sf = to_sequence_form(kuhn, prof, p)
        for si in kuhn.infoset_ids(p):
            assert set(np.unique(sf.seq[si])) <= {0.0, 1.0}


def test_sequence_form_flow_conservation(kuhn, rng):
    for _ in range(20):
        prof = random_profile(kuhn, rng)
        for p in (PLAYER1, PLAYER2):
            sf = to_sequence_form(kuhn, prof, p)
            for si in kuhn.infoset_ids(p):
                s = kuhn.infosets[si]
                parent = sf.realization(s.parent_seq)
                assert abs(sf.seq[si].sum() - parent) <= 1e-12


# ---------------------------------------------------------------------------
# Reach probabilities


def test_reach_root_is_ones(kuhn, rng):
    mu1, mu2, muc = reach_probabilities(kuhn, random_profile(kuhn, rng))
    assert (mu1[kuhn.root], mu2[kuhn.root], muc[kuhn.root]) == (1, 1, 1)


def test_reach_multiplicativity(kuhn, rng):
    prof = random_profile(kuhn, rng)
    mu1, mu2, muc = reach_probabilities(kuhn, prof)
    # Path-product oracle: multiply every edge probability from the root.
    for i, node in enumerate(kuhn.nodes):
        path = 1.0
        j = i
        while kuhn.nodes[j].parent >= 0:
            par = kuhn.nodes[j].parent
            a = kuhn.nodes[j].parent_action
            pn = kuhn.nodes[par]
            if pn.is_chance:
                path *= pn.chance_probs[a]
            else:
                path *= prof[pn.infoset][a]
            j = par
        assert abs(mu1[i] * mu2[i] * muc[i] - path) <= 1e-12


def test_reach_terminal_mass_is_one(kuhn, rng):
    prof = random_profile(kuhn, rng, min_prob=1e-3)
    mu1, mu2, muc = reach_probabilities(kuhn, prof)
    t = kuhn.terminal_ids
    assert (mu1[t] * mu2[t] * muc[t]).sum() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Expected utility


def test_expected_utility_always_fold(kuhn):
    # Player 1 checks then folds everywhere; oracle by direct traversal.
    prof = []
    for s in kuhn.infosets:
        x = np.zeros(s.num_actions)
        # Action labels make intent explicit: prefer check/fold when present.
        order = [s.actions.index(a) for a in ("check", "fold")
                 if a in s.actions]
        x[order[0] if order else 0] = 1.0
        prof.append(x)
    assert expected_utility(kuhn, prof) == pytest.approx(
        expected_utility_traversal(kuhn, prof), abs=1e-14)


def test_expected_utility_zero_game(pennies):
    doc = dump_game(pennies)
    for nd in doc["nodes"]:
        if nd["kind"] == "terminal":
            nd["utility_p1"] = 0.0
    tree = load_game(doc)
    prof = uniform_profile(tree)
    assert expected_utility(tree, prof) == 0.0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_expected_utility_two_paths_agree(seed):
    tree = build_kuhn()
    prof = random_profile(tree, np.random.default_rng(seed))
    assert abs(expected_utility(tree, prof)
               - expected_utility_traversal(tree, prof)) <= 1e-12


# ---------------------------------------------------------------------------
# Exploration distribution and floors


def _terminal_count_oracle(tree, si, a):
    """Number of terminal-for-owner infosets in the subtree of (si, a)."""
    kids = [sj for sj, s in enumerate(tree.infosets)
            if s.parent_seq == (si, a)]
    if not kids:
        return 1
    total = 0
    for sj in kids:
        total += sum(_terminal_count_oracle(tree, sj, b)
                     for b in range(tree.infosets[sj].num_actions))
    return total


def test_exploration_distribution_matches_counts(kuhn):
    nu = exploration_distribution(kuhn)
    for si, s in enumerate(kuhn.infosets):
        counts = np.array([_terminal_count_oracle(kuhn, si, a)
                           for a in range(s.num_actions)], dtype=float)
        assert np.allclose(nu[si], counts / counts.sum())
        assert np.all(nu[si] > 0.0)


def test_exploration_distribution_leaf_uniform(kuhn):
    nu = exploration_distribution(kuhn)
    found = False
    for si, s in enumerate(kuhn.infosets):
        if all(_terminal_count_oracle(kuhn, si, a) == 1
               for a in range(s.num_actions)):
            assert np.allclose(nu[si], 0.5)
            found = True
    assert found


def test_gamma_lower_bound_instances(kuhn):
    assert gamma_lower_bound(kuhn, 1.0) == pytest.approx(1.0 / 12.0)
    assert gamma_lower_bound(kuhn, 0.1) == pytest.approx(0.01 / 12.0)


def test_gamma_lower_bound_single_infoset():
    doc = {
        "name": "one",
        "root": 0,
        "nodes": [
            {"id": 0, "kind": "p1", "infoset": 0, "actions": [
                {"label": "a", "child": 1}, {"label": "b", "child": 2}]},
            {"id": 1, "kind": "terminal", "utility_p1": 1.0},
            {"id": 2, "kind": "terminal", "utility_p1": -1.0},
        ],
    }
    tree = load_game(doc)
    assert gamma_lower_bound(tree, 0.5) == pytest.approx(0.5)


def test_perturbation_floor_property(kuhn, rng):
    from efglab.regularizers import TruncatedSimplex, project_truncated_simplex
    gamma0 = 0.1
    nu = exploration_distribution(kuhn)
    prof = random_profile(kuhn, rng)
    clamped = [project_truncated_simplex(prof[si],
                                         TruncatedSimplex(gamma0, nu[si]))
               for si in range(kuhn.num_infosets)]
    validate_profile(kuhn, clamped)
    bound = gamma_lower_bound(kuhn, gamma0)
    for p in (PLAYER1, PLAYER2):
        sf = to_sequence_form(kuhn, clamped, p)
        for si in kuhn.infoset_ids(p):
            assert np.all(sf.seq[si] >= bound - 1e-15)


@pytest.mark.parametrize("row", [[np.nan, np.nan], [np.nan, 1.0],
                                 [np.inf, -np.inf]])
def test_validate_profile_rejects_non_finite(kuhn, row):
    prof = uniform_profile(kuhn)
    prof[3] = np.asarray(row)
    with pytest.raises(ValueError, match="non-finite"):
        validate_profile(kuhn, prof)


def test_matching_pennies_value(pennies):
    assert expected_utility(pennies, uniform_profile(pennies)) == 0.0
