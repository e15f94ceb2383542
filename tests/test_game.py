"""Tree construction, serialization, sequence form, and reach machinery."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efglab.game import (CHANCE, PLAYER1, PLAYER2, GameFormatError, GameTree,
                         GameValidationError,
                         Infoset, Node, dump_game, expected_utility,
                         exploration_distribution, gamma_lower_bound,
                         load_game, random_profile, uniform_profile,
                         validate_profile)
from efglab.games import build_kuhn, build_matching_pennies
from oracles import (expected_utility_traversal, infoset_depths,
                     infoset_members, own_histories, own_sequences,
                     parent_links, reach_probabilities,
                     terminal_count_oracle, to_sequence_form,
                     validate_perfect_recall)


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


def _p1(infoset, children):
    return Node(owner=PLAYER1, infoset=infoset, actions=["l", "r"],
                children=children)


def _two_node_recall_violation():
    """Player 1's two nodes after its first decision merged into infoset
    1: their last own pairs differ."""
    return [_p1(0, [1, 2]), _p1(1, [3, 4]), _p1(1, [5, 6])] + [
        Node(utility=0.0) for _ in range(4)]


def _deep_recall_violation(shallow, deep):
    """Player 1's two nodes after its first decision merged into infoset
    `shallow`, and below "l" at each of them a player-1 node, both in
    infoset `deep`. Those two share their last own pair (shallow, "l");
    their histories differ only above it."""
    t = [Node(utility=0.0) for _ in range(6)]
    return [_p1(0, [1, 6]), _p1(shallow, [2, 5]), _p1(deep, [3, 4]),
            t[0], t[1], t[2], _p1(shallow, [7, 10]), _p1(deep, [8, 9]),
            t[3], t[4], t[5]]


# The error names the smallest infoset whose members' last own pairs
# differ: the shallower one, even where the deeper one has the smaller id.
@pytest.mark.parametrize("nodes, flagged, named", [
    (_two_node_recall_violation(), [1], 1),
    (_deep_recall_violation(1, 2), [1, 2], 1),
    (_deep_recall_violation(2, 1), [1, 2], 2),
], ids=["two-node", "deep", "deep-numbered-first"])
def test_imperfect_recall_raises_naming_the_shallower_infoset(nodes, flagged,
                                                              named):
    assert [v["infoset"] for v in validate_perfect_recall(nodes)] == flagged
    infosets = [Infoset(PLAYER1, ["l", "r"]) for _ in range(len(flagged) + 1)]
    with pytest.raises(GameValidationError,
                       match=f"imperfect recall: infoset {named} members"):
        GameTree("x", nodes, infosets)


def _pair_of(tree, q):
    """The (infoset, action) pair of a node_seq entry, None for -1."""
    if q < 0:
        return None
    si = int(tree.pair_infoset[q])
    return si, int(q - tree.infoset_offset[si])


@pytest.mark.parametrize("game", ["kuhn", "leduc", "pennies"])
def test_node_seq_and_own_depth_match_the_history_walk(game, request):
    tree = request.getfixturevalue(game)
    hist = own_histories(tree.nodes)
    for p in (PLAYER1, PLAYER2):
        assert ([_pair_of(tree, q) for q in tree.node_seq[p - PLAYER1]]
                == [h[-1] if h else None for h in hist[p]])
    parent_seq, own_depth = own_sequences(tree)
    assert tree.own_depth.dtype == np.int64
    assert tree.own_depth.tolist() == own_depth
    parents = tree.node_seq[tree.infoset_owner - PLAYER1, tree.first_member]
    assert [_pair_of(tree, q) for q in parents] == parent_seq


@pytest.mark.parametrize("game", ["kuhn", "leduc", "pennies", "mixed_depth"])
def test_member_arrays_and_infoset_depth_match_the_walk(game, request):
    tree = request.getfixturevalue(game)
    members = infoset_members(tree)
    for got, want in [
            (tree.member_node, [h for hs in members for h in hs]),
            (tree.member_infoset,
             [si for si, hs in enumerate(members) for _ in hs]),
            (tree.first_member, [hs[0] for hs in members]),
            (tree.infoset_depth, infoset_depths(tree))]:
        assert got.dtype == np.int64
        assert got.tolist() == want


def test_node_and_infoset_hold_only_the_game_document():
    assert Node.__slots__ == ("owner", "infoset", "actions", "children",
                              "chance_probs", "utility")
    assert Infoset.__slots__ == ("owner", "actions")


def _leaf():
    return Node(utility=0.0)


# Infoset 1 never has a member (nor an action): each structural error
# fires before the member check, and the member check, on the last
# structure, fires before any later step could run on that infoset.
@pytest.mark.parametrize("nodes, message", [
    ([_p1(0, [1, 3]), _leaf(), _leaf()], "node 0: child 3 out of range"),
    ([_p1(0, [1, 2]),
      Node(owner=CHANCE, actions=["a", "b"], children=[3, 1],
           chance_probs=[0.5, 0.5]), _leaf(), _leaf()],
     "node 1: child 1 not in topological order"),
    ([_p1(0, [1, 1]), _leaf()], "node 1 has two parents"),
    ([_p1(0, [1, 2]), _leaf(), _leaf(), _leaf()],
     "node 3 unreachable from root"),
    ([_p1(0, [1, 2]), _leaf(), _leaf()], "infoset 1 has no member nodes"),
    ([], "game has no nodes"),
    ([_p1(0, [1, 2]), Node(), _leaf()], "terminal node 1 missing utility"),
    ([_p1(0, [1, 2]), Node(utility=0.0, children=[2]), _leaf()],
     "terminal node 1 has children"),
    ([Node(owner=PLAYER1, infoset=0, actions=["l", "r"]), _leaf()],
     "non-terminal node 0 has no children"),
    ([_p1(0, [1]), _leaf()], "node 0: actions/children mismatch"),
    ([Node(owner=CHANCE, actions=["a", "b"], children=[1, 2],
           chance_probs=[0.5, 0.3, 0.2]), _leaf(), _leaf()],
     "chance node 0: bad prob vector"),
    ([Node(owner=CHANCE, actions=["a", "b"], children=[1, 2],
           chance_probs=[1.0, 0.0]), _leaf(), _leaf()],
     "chance node 0: non-positive outcome probability"),
    ([Node(owner=7, infoset=0, actions=["l", "r"], children=[1, 2]),
      _leaf(), _leaf()], "node 0: bad owner 7"),
    ([_p1(2, [1, 2]), _leaf(), _leaf()], "node 0: bad infoset id"),
    ([Node(owner=PLAYER2, infoset=0, actions=["l", "r"], children=[1, 2]),
      _leaf(), _leaf()], "node 0: infoset 0 owner mismatch"),
    ([Node(owner=PLAYER1, infoset=0, actions=["r", "l"], children=[1, 2]),
      _leaf(), _leaf()], "node 0: infoset 0 action labels differ"),
    ([_p1(0, [0, 0])], "game has no terminal nodes"),
], ids=["out-of-range", "not-topological", "two-parents", "unreachable",
        "no-members", "no-nodes", "terminal-without-utility",
        "terminal-with-children", "non-terminal-without-children",
        "actions-children-mismatch", "bad-prob-vector",
        "non-positive-chance-prob", "bad-owner", "bad-infoset-id",
        "owner-mismatch", "labels-differ", "no-terminal"])
def test_faulty_structure_is_rejected_with_its_message(nodes, message):
    infosets = [Infoset(PLAYER1, ["l", "r"]), Infoset(PLAYER2, [])]
    with pytest.raises(GameValidationError, match=f"^{re.escape(message)}$"):
        GameTree("x", nodes, infosets)


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


@pytest.mark.parametrize("nodes", [
    [Node(utility=0.5)],
    [Node(owner=CHANCE, actions=["a", "b"], children=[1, 2],
          chance_probs=[0.5, 0.5]),
     Node(utility=0.5), Node(utility=-0.5)],
], ids=["terminal-root", "chance-only"])
def test_tree_without_decision_nodes_is_rejected(nodes):
    with pytest.raises(GameValidationError, match="no decision nodes"):
        GameTree("x", nodes, [])


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


def _coin_doc():
    """A valid document: a fair coin, then one player-1 decision."""
    return {"name": "coin", "root": 0, "nodes": [
        {"id": 0, "kind": "chance", "actions": [
            {"label": "a", "child": 1, "prob": 0.5},
            {"label": "b", "child": 3, "prob": 0.5}]},
        {"id": 1, "kind": "p1", "infoset": 0, "actions": [
            {"label": "x", "child": 2}]},
        {"id": 2, "kind": "terminal", "utility_p1": 0.0},
        {"id": 3, "kind": "terminal", "utility_p1": 0.0}]}


@pytest.mark.parametrize("edit", [
    lambda doc: doc.update(nodes=[5]),
    lambda doc: doc["nodes"][1].update(actions=5),
    lambda doc: doc["nodes"][1].update(actions=[5]),
    lambda doc: doc["nodes"][2].update(utility_p1=None),
    lambda doc: doc["nodes"][0]["actions"][0].update(prob=[0.5]),
    lambda doc: doc.update(root=[0]),
    lambda doc: doc["nodes"][1]["actions"][0].update(child=[2]),
    lambda doc: doc["nodes"][1].update(kind=["p1"]),
    lambda doc: doc["nodes"][3].update(utility_p1=10 ** 400),
    lambda doc: doc["nodes"][0]["actions"][1].update(prob=float("nan")),
], ids=["node not an object", "actions not a list", "action not an object",
        "utility null", "prob a list", "root a list", "child a list",
        "kind a list", "utility beyond float", "prob nan"])
def test_load_rejects_entries_of_the_wrong_type(edit):
    doc = _coin_doc()
    assert load_game(doc).num_infosets == 1
    edit(doc)
    with pytest.raises(GameFormatError):
        load_game(doc)


def _add_terminal(doc, oid):
    doc["nodes"].append({"id": oid, "kind": "terminal", "utility_p1": 0.0})


def _terminal_with_actions(doc):
    doc["nodes"][2]["actions"] = [{"label": "y", "child": 4}]
    _add_terminal(doc, 4)


def _decision_without_actions(doc):
    del doc["nodes"][1]["actions"]
    del doc["nodes"][2]


def _infoset_relabelled(doc):
    """Node 3 becomes a second member of infoset 0 with another label."""
    doc["nodes"][3] = {"id": 3, "kind": "p1", "infoset": 0,
                       "actions": [{"label": "y", "child": 4}]}
    _add_terminal(doc, 4)


def _no_decision_node(doc):
    doc["nodes"][1:3] = [{"id": 1, "kind": "terminal", "utility_p1": 0.0}]


# One edit per structural rule of the document, each with its message.
@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.pop("root"), "missing required field: 'root'"),
    (lambda doc: doc.update(nodes=[]), "'nodes' must be a non-empty list"),
    (lambda doc: doc["nodes"][3].update(id=2), "duplicate node id 2"),
    (lambda doc: doc.update(root=9), "root id 9 not present"),
    (lambda doc: doc["nodes"][1]["actions"][0].update(child=9),
     "child id 9 not present"),
    (lambda doc: doc["nodes"][1]["actions"][0].update(child=3),
     "node 3 reached twice (not a tree)"),
    (lambda doc: _add_terminal(doc, 4), "document contains unreachable nodes"),
    (_terminal_with_actions, "terminal node 2: has actions"),
    (_decision_without_actions, "node 1: non-terminal without actions"),
    (lambda doc: doc["nodes"][0].update(infoset=0),
     "chance node 0: has infoset"),
    (lambda doc: doc["nodes"][1]["actions"][0].update(prob=1.0),
     "decision node 1: prob only allowed at chance nodes"),
    (_infoset_relabelled, "infoset 0: inconsistent owner or action labels"),
    (lambda doc: doc["nodes"][1].update(infoset=1),
     "infoset ids must be dense from 0"),
    (_no_decision_node, "game has no decision nodes"),
], ids=["missing field", "nodes empty", "duplicate id", "root absent",
        "child absent", "reached twice", "unreachable",
        "terminal with actions", "decision without actions",
        "chance with infoset", "prob at decision", "infoset inconsistent",
        "infoset ids not dense", "no decision nodes"])
def test_load_rejects_a_faulty_document_with_its_message(edit, message):
    doc = _coin_doc()
    assert load_game(doc).num_infosets == 1
    edit(doc)
    with pytest.raises(GameFormatError, match=f"^{re.escape(message)}$"):
        load_game(doc)


def _root_given_as_true(doc):
    """Shift every node id up by one, so the root's id is 1, and give the
    root as true."""
    for nd in doc["nodes"]:
        nd["id"] += 1
        for act in nd.get("actions", []):
            act["child"] += 1
    doc["root"] = True


# Each edit would load without the type checks: a bool passes for the
# integer 1 (True == 1 and hash(True) == hash(1)), and the name is not read.
@pytest.mark.parametrize("edit", [
    lambda doc: doc.update(name=5),
    lambda doc: doc.update(name=["pennies"]),
    _root_given_as_true,
    lambda doc: doc["nodes"][1].update(id=True),
    lambda doc: doc["nodes"][0]["actions"][0].update(child=True),
    lambda doc: doc["nodes"][1].update(infoset=True),
], ids=["name a number", "name a list", "root a bool", "node id a bool",
        "child a bool", "infoset a bool"])
def test_load_rejects_a_bool_for_an_integer_and_a_name_not_a_string(
        pennies, edit):
    doc = dump_game(pennies)
    assert load_game(doc).num_infosets == 2
    edit(doc)
    with pytest.raises(GameFormatError):
        load_game(doc)


def test_load_rejects_a_file_that_is_not_json(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    with pytest.raises(GameFormatError, match="not a JSON document"):
        load_game(str(path))


# ---------------------------------------------------------------------------
# Sequence form


def test_sequence_form_uniform_depth_two(kuhn):
    prof = uniform_profile(kuhn)
    for si, s in enumerate(kuhn.infosets):
        if kuhn.own_depth[si] == 2:
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
                parent = sf.realization(sf.parent_seq[si])
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
    up = parent_links(kuhn.nodes)
    for i, node in enumerate(kuhn.nodes):
        path = 1.0
        j = i
        while up[j][0] >= 0:
            par, a = up[j]
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


def test_exploration_distribution_matches_counts(kuhn):
    nu = exploration_distribution(kuhn)
    for si, s in enumerate(kuhn.infosets):
        counts = np.array([terminal_count_oracle(kuhn, si, a)
                           for a in range(s.num_actions)], dtype=float)
        assert np.allclose(nu[si], counts / counts.sum())
        assert np.all(nu[si] > 0.0)


def test_exploration_distribution_leaf_uniform(kuhn):
    nu = exploration_distribution(kuhn)
    found = False
    for si, s in enumerate(kuhn.infosets):
        if all(terminal_count_oracle(kuhn, si, a) == 1
               for a in range(s.num_actions)):
            assert np.allclose(nu[si], 0.5)
            found = True
    assert found


def test_exploration_distribution_is_built_once_and_read_only(kuhn, leduc):
    for tree in (kuhn, leduc):
        nu = exploration_distribution(tree)
        assert nu is exploration_distribution(tree)
        assert len(nu) == tree.num_infosets
        assert np.array_equal(np.concatenate(nu), tree.nu_flat)
        with pytest.raises(ValueError):
            nu[0][0] = 0.5
        with pytest.raises(ValueError):
            tree.nu_flat[0] = 0.5


def test_row_groups_and_infoset_depth_are_built_once_and_read_only(kuhn,
                                                                  leduc):
    for tree in (kuhn, leduc):
        counts = tree.actions_per_infoset
        groups = []
        for na in sorted(set(counts.tolist())):
            idx = np.flatnonzero(counts == na)
            pairs = tree.infoset_offset[idx][:, None] + np.arange(na)
            groups.append((idx, pairs, tree.nu_flat[pairs]))
        assert len(tree.row_groups) == len(groups)
        for got, want in zip(tree.row_groups, groups):
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)
                with pytest.raises(ValueError):
                    a[0] = 0
        depth = tree.infoset_depth
        assert depth.dtype == np.int64
        assert depth.tolist() == infoset_depths(tree)
        with pytest.raises(ValueError):
            depth[0] = 0


def test_gamma_lower_bound_instances(kuhn):
    assert gamma_lower_bound(kuhn, 1.0) == pytest.approx(1.0 / 12.0)
    assert gamma_lower_bound(kuhn, 0.1) == pytest.approx(0.01 / 12.0)
    assert gamma_lower_bound(kuhn, 0.0) == 0.0


@pytest.mark.parametrize("gamma0", [-1.0, 1.5, float("nan")])
def test_gamma_lower_bound_rejects_gamma_outside_the_unit_interval(kuhn,
                                                                   gamma0):
    with pytest.raises(ValueError, match=r"gamma must be finite and in \[0"):
        gamma_lower_bound(kuhn, gamma0)


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
    from efglab.regularizers import TruncatedSimplex
    from oracles import project_truncated_simplex
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


@pytest.mark.parametrize("row", [[0.7, 0.7], [1.5, -0.5], [0.5, 0.5 - 2e-9]])
def test_validate_profile_rejects_a_row_off_the_simplex(kuhn, row):
    prof = uniform_profile(kuhn)
    validate_profile(kuhn, prof)
    prof[3] = np.asarray(row)
    with pytest.raises(ValueError, match=r"^profile\[3\]: not a distribution$"):
        validate_profile(kuhn, prof)


def test_matching_pennies_value(pennies):
    assert expected_utility(pennies, uniform_profile(pennies)) == 0.0
