"""Extensive-form game trees with perfect recall.

Two-player zero-sum games with chance nodes. Utilities are stored for
player 1 only (player 2's utility is the negation) and must lie in [-1, 1].
Nodes are kept in topological order (every parent precedes its children) and
infosets are numbered by first encounter in that order.
"""

import json

import numpy as np

CHANCE = 0
PLAYER1 = 1
PLAYER2 = 2

_KIND_TO_OWNER = {"p1": PLAYER1, "p2": PLAYER2, "chance": CHANCE}
_OWNER_TO_KIND = {v: k for k, v in _KIND_TO_OWNER.items()}


class GameError(Exception):
    """Base class for game construction/validation failures."""


class GameFormatError(GameError):
    """Raised when a serialized game document is malformed."""


class GameValidationError(GameError):
    """Raised when a structurally parsed game violates an invariant."""


class Node:
    """One node of the game tree.

    owner is PLAYER1/PLAYER2/CHANCE for decision and chance nodes and None
    for terminals. Terminals carry utility (player 1's payoff); chance nodes
    carry chance_probs aligned with children.
    """

    __slots__ = ("owner", "infoset", "actions", "children", "chance_probs",
                 "utility", "parent", "parent_action", "depth")

    def __init__(self, owner=None, infoset=None, actions=None, children=None,
                 chance_probs=None, utility=None):
        self.owner = owner
        self.infoset = infoset
        self.actions = actions if actions is not None else []
        self.children = children if children is not None else []
        self.chance_probs = chance_probs
        self.utility = utility
        self.parent = -1
        self.parent_action = -1
        self.depth = 0

    @property
    def is_terminal(self):
        return self.owner is None

    @property
    def is_chance(self):
        return self.owner == CHANCE


class Infoset:
    """A set of nodes indistinguishable to their owner.

    parent_seq is the owner's previous (infoset, action) pair on the path to
    any member (identical across members by perfect recall), or None at the
    top of the owner's decision tree. depth is the maximum member node depth
    counted in actions of all players; own_depth counts only the owner's own
    decisions (1 for the owner's first decision).
    """

    __slots__ = ("owner", "actions", "members", "parent_seq", "depth",
                 "own_depth")

    def __init__(self, owner, actions):
        self.owner = owner
        self.actions = actions
        self.members = []
        self.parent_seq = None
        self.depth = 0
        self.own_depth = 1

    @property
    def num_actions(self):
        return len(self.actions)


class GameTree:
    """A validated two-player zero-sum extensive-form game."""

    def __init__(self, name, nodes, infosets, utility_scale=1.0):
        self.name = name
        self.nodes = nodes
        self.infosets = infosets
        self.root = 0
        self.utility_scale = utility_scale
        self._finalize()

    @property
    def num_nodes(self):
        return len(self.nodes)

    @property
    def num_infosets(self):
        return len(self.infosets)

    def infoset_ids(self, player):
        return self._player_infosets[player]

    def _finalize(self):
        """Validate structure and build traversal caches."""
        _validate_structure(self)
        _check_perfect_recall(self)

        # Nodes grouped by depth, used for level-synchronous sweeps.
        max_depth = max(n.depth for n in self.nodes)
        levels = [[] for _ in range(max_depth + 1)]
        for i, n in enumerate(self.nodes):
            levels[n.depth].append(i)
        self.levels = [np.asarray(l, dtype=np.int64) for l in levels]

        self._player_infosets = {
            PLAYER1: [i for i, s in enumerate(self.infosets) if s.owner == PLAYER1],
            PLAYER2: [i for i, s in enumerate(self.infosets) if s.owner == PLAYER2],
        }

        # Flat edge arrays grouped by parent depth (descending order is a
        # backward value sweep; ascending is a forward reach sweep).
        ep, ec, es, ea, ew = [], [], [], [], []
        for i, n in enumerate(self.nodes):
            for a, c in enumerate(n.children):
                ep.append(i)
                ec.append(c)
                if n.is_chance:
                    es.append(-1)
                    ea.append(a)
                    ew.append(n.chance_probs[a])
                else:
                    es.append(n.infoset)
                    ea.append(a)
                    ew.append(0.0)
        self.edge_parent = np.asarray(ep, dtype=np.int64)
        self.edge_child = np.asarray(ec, dtype=np.int64)
        self.edge_infoset = np.asarray(es, dtype=np.int64)
        self.edge_action = np.asarray(ea, dtype=np.int64)
        self.edge_chance_prob = np.asarray(ew, dtype=np.float64)
        depth_arr = np.asarray([n.depth for n in self.nodes], dtype=np.int64)
        self.node_depth = depth_arr
        order = np.argsort(depth_arr[self.edge_parent], kind="stable")
        for attr in ("edge_parent", "edge_child", "edge_infoset",
                     "edge_action", "edge_chance_prob"):
            setattr(self, attr, getattr(self, attr)[order])
        pd = depth_arr[self.edge_parent]
        self.edge_level_slices = []
        for d in range(max_depth + 1):
            lo = np.searchsorted(pd, d, side="left")
            hi = np.searchsorted(pd, d, side="right")
            self.edge_level_slices.append((lo, hi))

        self.terminal_ids = np.asarray(
            [i for i, n in enumerate(self.nodes) if n.is_terminal],
            dtype=np.int64)
        self.terminal_utils = np.asarray(
            [self.nodes[i].utility for i in self.terminal_ids])

        # Flat (infoset, action) pair indexing for vectorized strategies.
        self.actions_per_infoset = np.asarray(
            [s.num_actions for s in self.infosets], dtype=np.int64)
        self.infoset_offset = np.concatenate(
            [[0], np.cumsum(self.actions_per_infoset)[:-1]]).astype(np.int64)
        self.num_pairs = int(self.actions_per_infoset.sum())
        self.pair_infoset = np.repeat(np.arange(self.num_infosets),
                                      self.actions_per_infoset)
        dec = self.edge_infoset >= 0
        self.edge_pair = np.where(
            dec, self.infoset_offset[np.clip(self.edge_infoset, 0, None)]
            + self.edge_action, -1)
        owners = np.asarray([(-1 if n.is_terminal else n.owner)
                             for n in self.nodes], dtype=np.int64)
        self.node_owner = owners
        self.edge_owner = owners[self.edge_parent]
        self.member_node = np.asarray(
            [h for s in self.infosets for h in s.members], dtype=np.int64)
        self.member_infoset = np.repeat(
            np.arange(self.num_infosets),
            np.asarray([len(s.members) for s in self.infosets]))
        self.first_member = np.asarray([s.members[0] for s in self.infosets],
                                       dtype=np.int64)
        self.infoset_owner = np.asarray([s.owner for s in self.infosets],
                                        dtype=np.int64)

        # Static chance reach and player sequence indices per terminal,
        # for the bilinear expected-utility path.
        n_nodes = self.num_nodes
        muc = np.ones(n_nodes)
        sig = {PLAYER1: [None] * n_nodes, PLAYER2: [None] * n_nodes}
        for i, n in enumerate(self.nodes):
            for a, c in enumerate(n.children):
                if n.is_chance:
                    muc[c] = muc[i] * n.chance_probs[a]
                else:
                    muc[c] = muc[i]
                for p in (PLAYER1, PLAYER2):
                    if n.owner == p:
                        sig[p][c] = (n.infoset, a)
                    else:
                        sig[p][c] = sig[p][i]
        self.chance_reach = muc
        self.sigma1 = sig[PLAYER1]
        self.sigma2 = sig[PLAYER2]


def _validate_structure(tree):
    nodes = tree.nodes
    if not nodes:
        raise GameValidationError("game has no nodes")
    seen_terminal = False
    for i, n in enumerate(nodes):
        if n.is_terminal:
            seen_terminal = True
            if n.utility is None:
                raise GameValidationError(f"terminal node {i} missing utility")
            if not -1.0 - 1e-12 <= n.utility <= 1.0 + 1e-12:
                raise GameValidationError(
                    f"terminal node {i} utility {n.utility} outside [-1, 1]")
            if n.children:
                raise GameValidationError(f"terminal node {i} has children")
            continue
        if not n.children:
            raise GameValidationError(f"non-terminal node {i} has no children")
        if len(n.children) != len(n.actions):
            raise GameValidationError(f"node {i}: actions/children mismatch")
        if n.is_chance:
            p = np.asarray(n.chance_probs, dtype=np.float64)
            if p.shape != (len(n.children),):
                raise GameValidationError(f"chance node {i}: bad prob vector")
            if np.any(p <= 0.0):
                raise GameValidationError(
                    f"chance node {i}: non-positive outcome probability")
            if abs(p.sum() - 1.0) > 1e-9:
                raise GameValidationError(
                    f"chance node {i}: chance probabilities sum to "
                    f"{p.sum()}")
            n.chance_probs = p
        else:
            if n.owner not in (PLAYER1, PLAYER2):
                raise GameValidationError(f"node {i}: bad owner {n.owner}")
            if n.infoset is None or not 0 <= n.infoset < len(tree.infosets):
                raise GameValidationError(f"node {i}: bad infoset id")
            s = tree.infosets[n.infoset]
            if s.owner != n.owner:
                raise GameValidationError(
                    f"node {i}: infoset {n.infoset} owner mismatch")
            if s.actions != n.actions:
                raise GameValidationError(
                    f"node {i}: infoset {n.infoset} action labels differ")
    if not seen_terminal:
        raise GameValidationError("game has no terminal nodes")

    # Reachability, parent links, topological order, depths.
    parent = [-1] * len(nodes)
    parent_action = [-1] * len(nodes)
    for i, n in enumerate(nodes):
        for a, c in enumerate(n.children):
            if not 0 <= c < len(nodes):
                raise GameValidationError(f"node {i}: child {c} out of range")
            if c <= i:
                raise GameValidationError(
                    f"node {i}: child {c} not in topological order")
            if parent[c] != -1:
                raise GameValidationError(f"node {c} has two parents")
            parent[c] = i
            parent_action[c] = a
    for i in range(1, len(nodes)):
        if parent[i] == -1:
            raise GameValidationError(f"node {i} unreachable from root")
    for i, n in enumerate(nodes):
        n.parent = parent[i]
        n.parent_action = parent_action[i]
        n.depth = 0 if parent[i] == -1 else nodes[parent[i]].depth + 1

    for si, s in enumerate(tree.infosets):
        s.members = [i for i, n in enumerate(nodes)
                     if not n.is_terminal and not n.is_chance and n.infoset == si]
        if not s.members:
            raise GameValidationError(f"infoset {si} has no member nodes")
        s.depth = max(nodes[i].depth for i in s.members)


def _own_histories(nodes):
    """Own action history per node per player: tuple of (infoset, action)."""
    hist = {PLAYER1: [()] * len(nodes), PLAYER2: [()] * len(nodes)}
    for i, n in enumerate(nodes):
        for a, c in enumerate(n.children):
            for p in (PLAYER1, PLAYER2):
                h = hist[p][i]
                if n.owner == p:
                    h = h + ((n.infoset, a),)
                hist[p][c] = h
    return hist


def validate_perfect_recall(tree_or_nodes, infosets=None):
    """Report perfect-recall violations as data rather than exceptions.

    Accepts either a GameTree or raw ``(nodes, infosets)`` lists in
    parent-before-child order.  Returns a list of violation records, one per
    infoset whose members disagree on the owner's own action history; an
    empty list means the structure has perfect recall.
    """
    if infosets is None:
        nodes, infosets = tree_or_nodes.nodes, tree_or_nodes.infosets
    else:
        nodes = tree_or_nodes
    hist = _own_histories(nodes)
    violations = []
    for si, s in enumerate(infosets):
        keys = {hist[s.owner][i] for i in s.members}
        if len(keys) != 1:
            violations.append({"infoset": si,
                               "histories": sorted(keys)})
    return violations


def _check_perfect_recall(tree):
    """Verify perfect recall and derive parent sequences and own depths."""
    nodes = tree.nodes
    violations = validate_perfect_recall(tree)
    if violations:
        raise GameValidationError(
            f"imperfect recall: infoset {violations[0]['infoset']} members "
            f"have distinct own-action histories (not supported)")
    hist = _own_histories(nodes)
    for si, s in enumerate(tree.infosets):
        key = hist[s.owner][s.members[0]]
        s.parent_seq = key[-1] if key else None
        s.own_depth = len(key) + 1
        if s.parent_seq is not None:
            ps, _ = s.parent_seq
            if tree.infosets[ps].own_depth >= s.own_depth:
                raise GameValidationError(
                    f"infoset {si}: parent sequence not shallower")


# ---------------------------------------------------------------------------
# Profiles


def uniform_profile(tree):
    """Uniform behavioral strategy at every infoset of both players."""
    return [np.full(s.num_actions, 1.0 / s.num_actions)
            for s in tree.infosets]


def random_profile(tree, rng, min_prob=0.0):
    """Random interior behavioral profile (Dirichlet at each infoset)."""
    prof = []
    for s in tree.infosets:
        x = rng.dirichlet(np.ones(s.num_actions))
        if min_prob > 0.0:
            x = (1.0 - min_prob * s.num_actions) * x + min_prob
        prof.append(x)
    return prof


def flatten_profile(tree, profile):
    """Concatenate per-infoset distributions into one flat pair array."""
    return np.concatenate([np.asarray(profile[si], dtype=np.float64)
                           for si in range(tree.num_infosets)])


def unflatten_profile(tree, flat):
    """Per-infoset views into a flat pair array (shares memory)."""
    return [flat[o:o + n] for o, n in
            zip(tree.infoset_offset, tree.actions_per_infoset)]


def validate_profile(tree, profile, atol=1e-9):
    if len(profile) != tree.num_infosets:
        raise ValueError("profile length does not match infoset count")
    for si, s in enumerate(tree.infosets):
        x = np.asarray(profile[si])
        if x.shape != (s.num_actions,):
            raise ValueError(f"profile[{si}]: wrong shape")
        if not np.all(np.isfinite(x)):
            raise ValueError(f"profile[{si}]: non-finite entries")
        if np.any(x < -atol) or abs(x.sum() - 1.0) > atol:
            raise ValueError(f"profile[{si}]: not a distribution")


# ---------------------------------------------------------------------------
# Sequence form and reach probabilities


class SequenceFormStrategy:
    """Sequence-form realization plan for one player.

    seq[s][a] = product of the player's own action probabilities along the
    unique own path ending with action a at infoset s. The empty sequence has
    realization 1.
    """

    def __init__(self, tree, player, profile):
        self.player = player
        self.seq = [None] * tree.num_infosets
        for si in tree.infoset_ids(player):
            s = tree.infosets[si]
            parent = self.realization(s.parent_seq)
            self.seq[si] = parent * np.asarray(profile[si], dtype=np.float64)

    def realization(self, sigma):
        """Realization weight of a sequence (None = empty sequence)."""
        if sigma is None:
            return 1.0
        si, a = sigma
        return self.seq[si][a]


def to_sequence_form(tree, profile, player):
    return SequenceFormStrategy(tree, player, profile)


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


def expected_utility(tree, profile):
    """Player 1's expected utility, computed in sequence form.

    Sums chance reach times both players' sequence realizations over
    terminals; equals the path-product traversal value.
    """
    sf1 = to_sequence_form(tree, profile, PLAYER1)
    sf2 = to_sequence_form(tree, profile, PLAYER2)
    total = 0.0
    for t, u in zip(tree.terminal_ids, tree.terminal_utils):
        total += (tree.chance_reach[t] * sf1.realization(tree.sigma1[t])
                  * sf2.realization(tree.sigma2[t]) * u)
    return total


def expected_utility_traversal(tree, profile):
    """Player 1's expected utility by direct backward traversal."""
    vals = np.zeros(tree.num_nodes)
    for d in range(len(tree.levels) - 1, -1, -1):
        for i in tree.levels[d]:
            node = tree.nodes[i]
            if node.is_terminal:
                vals[i] = node.utility
            elif node.is_chance:
                vals[i] = float(np.dot(node.chance_probs,
                                       vals[node.children]))
            else:
                vals[i] = float(np.dot(profile[node.infoset],
                                       vals[node.children]))
    return vals[tree.root]


# ---------------------------------------------------------------------------
# Exploration distribution and perturbation floor


def exploration_distribution(tree):
    """Terminal-infoset-count action weights nu, per infoset.

    For infoset s of player i, nu[s][a] is proportional to the number of
    "terminal-for-i" infosets (infosets of i with no further own infosets
    below them) in the subtree hanging off (s, a); an action leading to no
    further own infoset counts as 1. Weights are normalized per infoset.
    """
    children = {}  # (infoset, action) -> child infosets of same owner
    for si, s in enumerate(tree.infosets):
        if s.parent_seq is not None:
            children.setdefault(s.parent_seq, []).append(si)

    counts = [None] * tree.num_infosets

    def count(si):
        if counts[si] is not None:
            return counts[si]
        s = tree.infosets[si]
        per_action = np.ones(s.num_actions)
        for a in range(s.num_actions):
            kids = children.get((si, a), [])
            if kids:
                per_action[a] = sum(count(k).sum() for k in kids)
        counts[si] = per_action
        return per_action

    nu = []
    for si in range(tree.num_infosets):
        c = count(si)
        nu.append(c / c.sum())
    return nu


def gamma_lower_bound(tree, gamma0):
    """Sequence-form mass floor implied by per-infoset floor gamma0.

    Equals gamma0 ** D / num_infosets where D is the maximum infoset depth
    counted in the owner's own actions.
    """
    d = max(s.own_depth for s in tree.infosets)
    return gamma0 ** d / tree.num_infosets


# ---------------------------------------------------------------------------
# JSON serialization


def dump_game(tree):
    """Serialize a game tree to the JSON document structure."""
    nodes = []
    for i, n in enumerate(tree.nodes):
        if n.is_terminal:
            nodes.append({"id": i, "kind": "terminal",
                          "utility_p1": float(n.utility)})
            continue
        doc = {"id": i, "kind": _OWNER_TO_KIND[n.owner]}
        if not n.is_chance:
            doc["infoset"] = n.infoset
        acts = []
        for a, c in enumerate(n.children):
            act = {"label": n.actions[a], "child": c}
            if n.is_chance:
                act["prob"] = float(n.chance_probs[a])
            acts.append(act)
        doc["actions"] = acts
        nodes.append(doc)
    return {"name": tree.name, "nodes": nodes, "root": tree.root,
            "utility_scale": float(tree.utility_scale)}


def save_game(tree, path):
    with open(path, "w") as f:
        json.dump(dump_game(tree), f, indent=1)


def load_game(source):
    """Load a game from a JSON document (dict, path, or file object).

    Node ids in the document may be arbitrary unique integers; they are
    remapped to topological order. Infoset ids must be dense from 0.
    """
    if isinstance(source, dict):
        doc = source
    elif isinstance(source, (str, bytes)):
        with open(source) as f:
            doc = json.load(f)
    else:
        doc = json.load(source)

    try:
        name = doc["name"]
        raw_nodes = doc["nodes"]
        root = doc["root"]
    except (KeyError, TypeError) as e:
        raise GameFormatError(f"missing required field: {e}") from e
    if not isinstance(raw_nodes, list) or not raw_nodes:
        raise GameFormatError("'nodes' must be a non-empty list")

    by_id = {}
    for nd in raw_nodes:
        if "id" not in nd or not isinstance(nd["id"], int):
            raise GameFormatError("every node needs an integer 'id'")
        if nd["id"] in by_id:
            raise GameFormatError(f"duplicate node id {nd['id']}")
        by_id[nd["id"]] = nd
    if root not in by_id:
        raise GameFormatError(f"root id {root} not present")

    # Depth-first preorder from root for topological numbering (matches the
    # built-in game builders, so dump/load round trips preserve indices).
    order = []
    index = {}
    stack = [root]
    seen = {root}
    while stack:
        oid = stack.pop()
        index[oid] = len(order)
        order.append(oid)
        nd = by_id[oid]
        kids = []
        for act in nd.get("actions", []):
            if "child" not in act:
                raise GameFormatError("action missing 'child'")
            c = act["child"]
            if c not in by_id:
                raise GameFormatError(f"child id {c} not present")
            if c in seen:
                raise GameFormatError(
                    f"node {c} reached twice (not a tree)")
            seen.add(c)
            kids.append(c)
        stack.extend(reversed(kids))
    if len(order) != len(raw_nodes):
        raise GameFormatError("document contains unreachable nodes")

    infoset_meta = {}
    nodes = []
    for oid in order:
        nd = by_id[oid]
        kind = nd.get("kind")
        if kind == "terminal":
            if "utility_p1" not in nd:
                raise GameFormatError(f"terminal node {oid}: no utility_p1")
            if "actions" in nd and nd["actions"]:
                raise GameFormatError(f"terminal node {oid}: has actions")
            nodes.append(Node(utility=float(nd["utility_p1"])))
            continue
        if kind not in _KIND_TO_OWNER:
            raise GameFormatError(f"node {oid}: unknown kind {kind!r}")
        owner = _KIND_TO_OWNER[kind]
        acts = nd.get("actions", [])
        if not acts:
            raise GameFormatError(f"node {oid}: non-terminal without actions")
        labels = [a.get("label") for a in acts]
        if any(not isinstance(l, str) for l in labels):
            raise GameFormatError(f"node {oid}: action labels must be strings")
        children = [index[a["child"]] for a in acts]
        if owner == CHANCE:
            if "infoset" in nd:
                raise GameFormatError(f"chance node {oid}: has infoset")
            if any("prob" not in a for a in acts):
                raise GameFormatError(f"chance node {oid}: missing prob")
            probs = np.asarray([float(a["prob"]) for a in acts])
            nodes.append(Node(owner=CHANCE, actions=labels,
                              children=children, chance_probs=probs))
        else:
            if any("prob" in a for a in acts):
                raise GameFormatError(
                    f"decision node {oid}: prob only allowed at chance nodes")
            si = nd.get("infoset")
            if not isinstance(si, int) or si < 0:
                raise GameFormatError(f"node {oid}: bad infoset id")
            meta = infoset_meta.setdefault(si, (owner, labels))
            if meta != (owner, labels):
                raise GameFormatError(
                    f"infoset {si}: inconsistent owner or action labels")
            nodes.append(Node(owner=owner, infoset=si, actions=labels,
                              children=children))

    if infoset_meta:
        n_sets = max(infoset_meta) + 1
        if sorted(infoset_meta) != list(range(n_sets)):
            raise GameFormatError("infoset ids must be dense from 0")
    else:
        raise GameFormatError("game has no decision nodes")
    infosets = [Infoset(*infoset_meta[i]) for i in range(n_sets)]

    scale = doc.get("utility_scale", 1.0)
    if (not isinstance(scale, (int, float)) or isinstance(scale, bool)
            or not np.isfinite(scale) or scale <= 0.0):
        raise GameFormatError(
            f"'utility_scale' must be a positive number, got {scale!r}")
    return GameTree(name, nodes, infosets, utility_scale=float(scale))
