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
                 "utility")

    def __init__(self, owner=None, infoset=None, actions=None, children=None,
                 chance_probs=None, utility=None):
        self.owner = owner
        self.infoset = infoset
        self.actions = actions if actions is not None else []
        self.children = children if children is not None else []
        self.chance_probs = chance_probs
        self.utility = utility

    @property
    def is_terminal(self):
        return self.owner is None

    @property
    def is_chance(self):
        return self.owner == CHANCE


class Infoset:
    """A set of nodes indistinguishable to their owner.

    Its members, depths and parent sequence are on the tree
    (`GameTree.member_node`, `GameTree.infoset_depth`, `GameTree.own_depth`,
    `GameTree.node_seq`).
    """

    __slots__ = ("owner", "actions")

    def __init__(self, owner, actions):
        self.owner = owner
        self.actions = actions

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
        return np.flatnonzero(self.infoset_owner == player).tolist()

    def _finalize(self):
        """Validate structure and build traversal caches."""
        depth_arr = _validate_structure(self)

        # Members: the decision nodes stably sorted by infoset, so each
        # infoset's members run in ascending node order from first_member.
        dec_node, node_infoset = np.asarray(
            [(i, n.infoset) for i, n in enumerate(self.nodes)
             if not n.is_terminal and not n.is_chance], dtype=np.int64).T
        count = np.bincount(node_infoset, minlength=self.num_infosets)
        if not count.all():
            raise GameValidationError(
                f"infoset {count.argmin()} has no member nodes")
        order = np.argsort(node_infoset, kind="stable")
        self.member_node = dec_node[order]
        self.member_infoset = node_infoset[order]
        starts = np.concatenate([[0], np.cumsum(count)[:-1]])
        self.first_member = self.member_node[starts]
        # Depth in actions of all players: the deepest member's node depth.
        self.infoset_depth = np.maximum.reduceat(depth_arr[self.member_node],
                                                 starts)

        # Flat edge arrays grouped by parent depth (descending order is a
        # backward value sweep; ascending is a forward reach sweep). Chance
        # edges have infoset -1; decision edges have chance probability 0.
        edges = [(i, c, -1 if n.is_chance else n.infoset, a,
                  n.chance_probs[a] if n.is_chance else 0.0)
                 for i, n in enumerate(self.nodes)
                 for a, c in enumerate(n.children)]
        parent, child, infoset, action, prob = zip(*edges)
        order = np.argsort(depth_arr[list(parent)], kind="stable")
        self.edge_parent = np.asarray(parent, dtype=np.int64)[order]
        self.edge_child = np.asarray(child, dtype=np.int64)[order]
        edge_infoset = np.asarray(infoset, dtype=np.int64)[order]
        edge_action = np.asarray(action, dtype=np.int64)[order]
        edge_chance_prob = np.asarray(prob, dtype=np.float64)[order]
        bounds = np.searchsorted(depth_arr[self.edge_parent],
                                 np.arange(depth_arr.max() + 2))
        self.edge_level_slices = list(zip(bounds[:-1], bounds[1:]))

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
        self.infoset_owner = np.asarray([s.owner for s in self.infosets],
                                        dtype=np.int64)

        self.pair_owner = self.infoset_owner[self.pair_infoset]

        # Decision edges: their index among the edges, pair, parent and
        # child, and the owner's row (0 for player 1, 1 for player 2).
        dec = edge_infoset >= 0
        self.dec_edge = np.flatnonzero(dec)
        self.dec_pair = (self.infoset_offset[edge_infoset[dec]]
                         + edge_action[dec])
        dec_parent = self.edge_parent[dec]
        self.dec_child = self.edge_child[dec]
        dec_row = self.infoset_owner[edge_infoset[dec]] - PLAYER1

        # Sequence form (von Stengel 1996): a player's reach at a node is
        # the realization weight of the player's last own pair on the path
        # to it. node_seq[p - 1] holds that pair for player p (-1 for the
        # empty sequence), and own_count[p - 1] the number of p's decisions
        # on the path. Chance reach does not depend on the profile, so it
        # is swept here once.
        chance_weight = np.where(dec, 1.0, edge_chance_prob)
        dec_bounds = np.searchsorted(self.dec_edge, bounds)
        seq = np.full((2, self.num_nodes), -1, dtype=np.int64)
        own_count = np.zeros((2, self.num_nodes), dtype=np.int64)
        chance_reach = np.ones(self.num_nodes)
        for (lo, hi), a, b in zip(self.edge_level_slices, dec_bounds[:-1],
                                  dec_bounds[1:]):
            par = self.edge_parent[lo:hi]
            ch = self.edge_child[lo:hi]
            seq[:, ch] = seq[:, par]
            own_count[:, ch] = own_count[:, par]
            seq[dec_row[a:b], self.dec_child[a:b]] = self.dec_pair[a:b]
            own_count[dec_row[a:b], self.dec_child[a:b]] += 1
            chance_reach[ch] = chance_reach[par] * chance_weight[lo:hi]
        self.node_seq = seq
        chance_reach.flags.writeable = False
        self.chance_reach = chance_reach

        # Perfect recall: the members of every infoset share the owner's
        # last own pair (the parent sequence). By induction over own depth
        # they then share the owner's whole own history.
        row = self.infoset_owner - PLAYER1
        parent_pair = seq[row, self.first_member]
        member_pair = seq[row[self.member_infoset], self.member_node]
        bad = member_pair != parent_pair[self.member_infoset]
        if bad.any():
            raise GameValidationError(
                f"imperfect recall: infoset "
                f"{self.member_infoset[bad.argmax()]} members have distinct "
                f"own-action histories (not supported)")
        # Own depth counts the owner's decisions, 1 at the first.
        self.own_depth = own_count[row, self.first_member] + 1

        # The pairs of each own depth, shallowest first, with the pair of
        # their parent sequence.
        pair_depth = self.own_depth[self.pair_infoset]
        self.seq_levels = [
            (pairs, parent_pair[self.pair_infoset[pairs]])
            for pairs in (np.flatnonzero(pair_depth == d)
                          for d in range(1, pair_depth.max() + 1))]

        # The gathers of the reach and value sweeps, which read reach as
        # values.reach_flat's sequence weights x (x[-1] = 1 is the empty
        # sequence, node_seq's -1). At a decision edge's parent: the
        # opponent's sequence, and chance reach times the owner's sign (+1
        # for player 1, -1 for player 2; a sign folds into a product
        # exactly). At an infoset: the owner's parent sequence. At a
        # member: the opponent's sequence, chance reach and the sign of the
        # owner's regularizer bonus in player 1's values (-1 for player 1).
        # At a terminal: both players' sequences.
        self.dec_opp_seq = seq[1 - dec_row, dec_parent]
        self.dec_weight = (chance_reach[dec_parent]
                           * np.where(dec_row == 0, 1.0, -1.0))
        self.infoset_seq = parent_pair
        member_row = row[self.member_infoset]
        self.member_opp_seq = seq[1 - member_row, self.member_node]
        self.member_chance = chance_reach[self.member_node]
        self.member_sign = np.where(member_row == 0, -1.0, 1.0)
        self.terminal_seq = seq[:, self.terminal_ids]
        # Each edge's probability is concatenate((flat, chance_edge_prob))
        # [edge_src]: the pair's entry of the flat profile at a decision
        # edge, the outcome probability at a chance edge.
        self.chance_edge_prob = edge_chance_prob[~dec]
        edge_src = np.empty(dec.shape[0], dtype=np.int64)
        edge_src[dec] = self.dec_pair
        edge_src[~dec] = self.num_pairs + np.arange(
            self.chance_edge_prob.shape[0])
        self.edge_src = edge_src
        # Player 1's values-to-go before the sweep: the utility at each
        # terminal, 0 elsewhere.
        self.terminal_base = np.zeros(self.num_nodes)
        self.terminal_base[self.terminal_ids] = self.terminal_utils

        # The exploration distribution nu: one flat read-only pair array,
        # and a tuple of per-infoset views into it.
        nu_flat = _terminal_count_weights(self)
        nu_flat.flags.writeable = False
        self.nu_flat = nu_flat
        self.nu = tuple(nu_flat[o:o + n] for o, n in
                        zip(self.infoset_offset, self.actions_per_infoset))

        # Row groups for batched prox and argmax solves, read-only like the
        # depths: per action count, the infosets, their pairs and nu rows.
        groups = []
        for na in sorted(set(self.actions_per_infoset.tolist())):
            idx = np.flatnonzero(self.actions_per_infoset == na)
            pairs = self.infoset_offset[idx][:, None] + np.arange(na)
            groups.append((idx, pairs, nu_flat[pairs]))
        self.row_groups = tuple(groups)
        for a in (self.infoset_depth, *(a for g in groups for a in g),
                  self.pair_owner, self.dec_opp_seq, self.dec_weight,
                  self.infoset_seq, self.member_opp_seq, self.member_chance,
                  self.member_sign, self.terminal_seq, self.chance_edge_prob,
                  self.edge_src, self.terminal_base):
            a.flags.writeable = False


def _validate_structure(tree):
    """Check the game document; return each node's depth (int64) in
    actions of all players."""
    nodes = tree.nodes
    if not nodes:
        raise GameValidationError("game has no nodes")
    for i, n in enumerate(nodes):
        if n.is_terminal:
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
    if not any(n.is_terminal for n in nodes):
        raise GameValidationError("game has no terminal nodes")
    if not any(n.owner in (PLAYER1, PLAYER2) for n in nodes):
        raise GameValidationError("game has no decision nodes")

    # Reachability, one parent per node, topological order, depths.
    parent = [-1] * len(nodes)
    depth = [0] * len(nodes)
    for i, n in enumerate(nodes):
        for c in n.children:
            if not 0 <= c < len(nodes):
                raise GameValidationError(f"node {i}: child {c} out of range")
            if c <= i:
                raise GameValidationError(
                    f"node {i}: child {c} not in topological order")
            if parent[c] != -1:
                raise GameValidationError(f"node {c} has two parents")
            parent[c] = i
            depth[c] = depth[i] + 1
    for i in range(1, len(nodes)):
        if parent[i] == -1:
            raise GameValidationError(f"node {i} unreachable from root")
    return np.asarray(depth, dtype=np.int64)


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
    """A new flat float64 pair array from a per-infoset list of
    distributions or from a flat pair array (a 1-D array over the tree's
    pairs). Every exported evaluator accepts either form through here; a
    list that does not have one row of each infoset's action count raises
    ValueError naming the first bad row."""
    if isinstance(profile, np.ndarray) and profile.ndim == 1:
        if profile.shape != (tree.num_pairs,):
            raise ValueError(f"flat profile of {profile.shape[0]} entries "
                             f"for {tree.num_pairs} pairs")
        return profile.astype(np.float64)
    rows = [np.asarray(x, dtype=np.float64) for x in profile]
    n = tree.num_infosets
    for si, x in enumerate(rows[:n]):
        if x.shape != (tree.actions_per_infoset[si],):
            raise ValueError(f"profile[{si}]: wrong shape {x.shape} for "
                             f"{tree.actions_per_infoset[si]} actions")
    if len(rows) != n:
        raise ValueError(f"profile[{min(len(rows), n)}]: "
                         f"{'extra row' if len(rows) > n else 'missing'}, "
                         f"the game has {n} infosets")
    return np.concatenate(rows)


def unflatten_profile(tree, flat):
    """Per-infoset views into a flat pair array (shares memory)."""
    return [flat[o:o + n] for o, n in
            zip(tree.infoset_offset, tree.actions_per_infoset)]


def validate_profile(tree, profile):
    """Raise ValueError unless `profile` (in a form flatten_profile takes)
    holds a finite distribution, to within 1e-9, at every infoset."""
    flat = flatten_profile(tree, profile)
    for si, x in enumerate(unflatten_profile(tree, flat)):
        if not np.all(np.isfinite(x)):
            raise ValueError(f"profile[{si}]: non-finite entries")
        if np.any(x < -1e-9) or abs(x.sum() - 1.0) > 1e-9:
            raise ValueError(f"profile[{si}]: not a distribution")


# ---------------------------------------------------------------------------
# Expected utility


def expected_utility(tree, profile):
    """Player 1's expected utility: the sum over terminals of chance reach
    times both players' reach times the utility."""
    from .values import reach_flat
    x1, x2 = reach_flat(tree, flatten_profile(tree, profile))[
        tree.terminal_seq]
    return float(np.sum(tree.chance_reach[tree.terminal_ids] * x1 * x2
                        * tree.terminal_utils))


# ---------------------------------------------------------------------------
# Exploration distribution and perturbation floor


def exploration_distribution(tree):
    """Terminal-infoset-count action weights nu, per infoset.

    For infoset s of player i, nu[s][a] is proportional to the number of
    "terminal-for-i" infosets (infosets of i with no further own infosets
    below them) in the subtree hanging off (s, a); an action leading to no
    further own infoset counts as 1. Weights are normalized per infoset.
    Returns the tree's tuple of read-only rows, built once with the tree.
    """
    return tree.nu


def _terminal_count_weights(tree):
    """Flat normalized action weights of exploration_distribution, swept
    over tree.seq_levels from the deepest own depth up.

    A pair's weight is the sum of the weights of its owner's pairs one own
    depth below it, or 1 for a pair with none: the number of terminal-for-i
    infosets under it. The weights are integers, so every sum is exact and
    its order does not matter.
    """
    w = np.zeros(tree.num_pairs)
    for pairs, parents in reversed(tree.seq_levels):
        w[pairs] = np.maximum(w[pairs], 1.0)
        below = parents >= 0
        np.add.at(w, parents[below], w[pairs[below]])
    total = np.bincount(tree.pair_infoset, weights=w,
                        minlength=tree.num_infosets)
    return w / total[tree.pair_infoset]


def gamma_lower_bound(tree, gamma0):
    """Sequence-form mass floor implied by per-infoset floor gamma0.

    Equals gamma0 ** D / num_infosets where D is the maximum infoset depth
    counted in the owner's own actions. Raises ValueError unless gamma0 is
    in [0, 1] (regularizers.RATE_RULES["gamma"]).
    """
    from .regularizers import check_rate
    check_rate(gamma=gamma0)
    d = int(tree.own_depth.max())
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


def _is_number(v):
    """A finite JSON number that converts to a float (not a bool)."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and abs(v) <= float(np.finfo(float).max))


def _is_int(v):
    """A JSON integer (not a bool, although bool subclasses int)."""
    return isinstance(v, int) and not isinstance(v, bool)


def load_game(source):
    """Load a game from a JSON document (dict, path, or file object).

    Node ids in the document may be arbitrary unique integers; they are
    remapped to topological order. Infoset ids must be dense from 0.
    """
    if isinstance(source, (str, bytes)):
        with open(source) as f:
            return load_game(f)
    try:
        doc = source if isinstance(source, dict) else json.load(source)
    except ValueError as e:  # not JSON, or not text
        raise GameFormatError(f"not a JSON document: {e}") from e

    try:
        name = doc["name"]
        raw_nodes = doc["nodes"]
        root = doc["root"]
    except (KeyError, TypeError) as e:
        raise GameFormatError(f"missing required field: {e}") from e
    if not isinstance(name, str):
        raise GameFormatError(f"'name' must be a string, got {name!r}")
    if not isinstance(raw_nodes, list) or not raw_nodes:
        raise GameFormatError("'nodes' must be a non-empty list")

    by_id = {}
    for nd in raw_nodes:
        if not isinstance(nd, dict) or not _is_int(nd.get("id")):
            raise GameFormatError("every node needs an integer 'id'")
        if nd["id"] in by_id:
            raise GameFormatError(f"duplicate node id {nd['id']}")
        by_id[nd["id"]] = nd
    if not _is_int(root):
        raise GameFormatError(f"'root' must be an integer id, got {root!r}")
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
        acts = nd.get("actions", [])
        if not isinstance(acts, list) or not all(
                isinstance(a, dict) and isinstance(a.get("label"), str)
                and _is_int(a.get("child")) for a in acts):
            raise GameFormatError(
                f"node {oid}: actions must be a list of objects with a "
                f"string 'label' and an integer 'child'")
        for act in acts:
            c = act["child"]
            if c not in by_id:
                raise GameFormatError(f"child id {c} not present")
            if c in seen:
                raise GameFormatError(
                    f"node {c} reached twice (not a tree)")
            seen.add(c)
        stack.extend(reversed([a["child"] for a in acts]))
    if len(order) != len(raw_nodes):
        raise GameFormatError("document contains unreachable nodes")

    infoset_meta = {}
    nodes = []
    for oid in order:
        nd = by_id[oid]
        kind = nd.get("kind")
        acts = nd.get("actions", [])
        if kind == "terminal":
            if not _is_number(nd.get("utility_p1")):
                raise GameFormatError(f"node {oid}: utility_p1 not a number")
            if acts:
                raise GameFormatError(f"terminal node {oid}: has actions")
            nodes.append(Node(utility=float(nd["utility_p1"])))
            continue
        if not isinstance(kind, str) or kind not in _KIND_TO_OWNER:
            raise GameFormatError(f"node {oid}: unknown kind {kind!r}")
        owner = _KIND_TO_OWNER[kind]
        if not acts:
            raise GameFormatError(f"node {oid}: non-terminal without actions")
        labels = [a["label"] for a in acts]
        children = [index[a["child"]] for a in acts]
        if owner == CHANCE:
            if "infoset" in nd:
                raise GameFormatError(f"chance node {oid}: has infoset")
            if not all(_is_number(a.get("prob")) for a in acts):
                raise GameFormatError(f"chance node {oid}: prob not a number")
            probs = np.asarray([float(a["prob"]) for a in acts])
            nodes.append(Node(owner=CHANCE, actions=labels,
                              children=children, chance_probs=probs))
        else:
            if any("prob" in a for a in acts):
                raise GameFormatError(
                    f"decision node {oid}: prob only allowed at chance nodes")
            si = nd.get("infoset")
            if not _is_int(si) or si < 0:
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
    if not _is_number(scale) or scale <= 0.0:
        raise GameFormatError(
            f"'utility_scale' must be a positive number, got {scale!r}")
    return GameTree(name, nodes, infosets, utility_scale=float(scale))
