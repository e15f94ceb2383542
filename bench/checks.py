"""Output checks for the efglab benchmark.

Every check raises CheckError with a message naming what is wrong, so a
caller can count the operation it belongs to as failed. The exploitability
oracle is written apart from efglab.evaluate: a plain memoized recursion
over tree.nodes, with no flat arrays and no own-depth ordering.
"""

import math

import numpy as np

from efglab.game import PLAYER1, PLAYER2, exploration_distribution

# Closed-form value of Kuhn poker for player 1 (-1/18 chips), in the stored
# utility scale (payoffs divided by 2).
KUHN_VALUE = -1.0 / 36.0

EXPLOITABILITY_TOL = 1e-9
SIMPLEX_TOL = 1e-12


class CheckError(Exception):
    """An output of the program failed a benchmark check."""


def oracle_best_response_value(tree, profile, player):
    """Value to `player` of a best response against `profile`.

    The value of a node is the player's expected payoff below it when the
    player best-responds; the action at an infoset maximizes the sum over
    its members of chance-and-opponent reach times the child's value,
    lowest index first among ties.
    """
    nodes = tree.nodes
    sign = 1.0 if player == PLAYER1 else -1.0
    reach = [0.0] * len(nodes)
    members = {}

    def push(h, r):
        reach[h] = r
        node = nodes[h]
        if node.is_terminal:
            return
        if node.owner == player:
            members.setdefault(node.infoset, []).append(h)
        for a, c in enumerate(node.children):
            if node.is_chance:
                push(c, r * float(node.chance_probs[a]))
            elif node.owner == player:
                push(c, r)
            else:
                push(c, r * float(profile[node.infoset][a]))

    value_memo = {}
    choice = {}

    def value(h):
        if h in value_memo:
            return value_memo[h]
        node = nodes[h]
        if node.is_terminal:
            v = sign * node.utility
        elif node.is_chance:
            v = sum(float(p) * value(c)
                    for p, c in zip(node.chance_probs, node.children))
        elif node.owner != player:
            x = profile[node.infoset]
            v = sum(float(x[a]) * value(c)
                    for a, c in enumerate(node.children))
        else:
            v = value(node.children[act(node.infoset)])
        value_memo[h] = v
        return v

    def act(si):
        if si not in choice:
            n_act = len(nodes[members[si][0]].children)
            totals = [sum(reach[h] * value(nodes[h].children[a])
                          for h in members[si]) for a in range(n_act)]
            choice[si] = max(range(n_act), key=totals.__getitem__)
        return choice[si]

    push(tree.root, 1.0)
    return value(tree.root)


def check_exploitability(tree, profile, reported):
    """The reported exploitability must match the oracle's to 1e-9.

    Returns the oracle's (v1, v2), the two players' best-response values.
    """
    v1 = oracle_best_response_value(tree, profile, PLAYER1)
    v2 = oracle_best_response_value(tree, profile, PLAYER2)
    if not abs((v1 + v2) - reported) <= EXPLOITABILITY_TOL:
        raise CheckError(f"exploitability {reported!r} differs from the "
                         f"oracle's {v1 + v2!r} by more than "
                         f"{EXPLOITABILITY_TOL}")
    return v1, v2


def check_kuhn_bracket(v1, v2):
    """Best responses of both players must bracket Kuhn's game value."""
    if not (-v2 - 1e-12 <= KUHN_VALUE <= v1 + 1e-12):
        raise CheckError(f"oracle values [{-v2!r}, {v1!r}] do not bracket "
                         f"the Kuhn value {KUHN_VALUE!r}")


def check_in_perturbed_simplex(tree, profile, gamma):
    """Every row sums to 1 and respects its floor gamma * nu."""
    nu = exploration_distribution(tree)
    if len(profile) != tree.num_infosets:
        raise CheckError("profile length does not match the infoset count")
    for si, x in enumerate(profile):
        x = np.asarray(x, dtype=np.float64)
        floor = gamma * nu[si]
        if x.shape != floor.shape:
            raise CheckError(f"profile row {si} has shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise CheckError(f"profile row {si} is not finite: {x}")
        if abs(x.sum() - 1.0) > SIMPLEX_TOL * x.shape[0]:
            raise CheckError(f"profile row {si} sums to {x.sum()!r}")
        if np.any(x < floor - SIMPLEX_TOL):
            raise CheckError(f"profile row {si} {x} falls below its floor "
                             f"{floor}")


def check_rows_finite(rows):
    """Every metric the harness reported is a finite number or absent."""
    for row in rows:
        for key, v in row.items():
            if v is not None and not math.isfinite(v):
                raise CheckError(f"iter {row['iter']}: {key} is {v!r}")


def check_no_m_violations(count):
    if count != 0:
        raise CheckError(f"{count} m-bound violations")


def check_bit_equal(name, got, want):
    """Two float arrays must agree bit for bit."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape or not np.array_equal(got, want):
        diff = (np.flatnonzero(got != want) if got.shape == want.shape
                else "shape")
        raise CheckError(f"{name} differs at {diff}")


def check_ratio(name, last, first, ratio):
    """`last` must end at most `ratio` times `first`."""
    if not (math.isfinite(last) and math.isfinite(first)
            and last <= ratio * first):
        raise CheckError(f"{name}: {last!r} is not below {ratio} x "
                         f"{first!r}")


def check_below(name, value, bound):
    if not (math.isfinite(value) and value <= bound):
        raise CheckError(f"{name}: {value!r} is not below {bound!r}")


def same_outcome(a, b):
    """Whether two RunOutcomes hold identical rows, apart from their
    wall-clock column, and identical final profiles."""
    if len(a.rows) != len(b.rows) or a.m_violations != b.m_violations:
        return False
    if any({**ra, "wall_ms": None} != {**rb, "wall_ms": None}
           for ra, rb in zip(a.rows, b.rows)):
        return False
    return all(np.array_equal(x, y)
               for x, y in zip(a.final_profile, b.final_profile))
