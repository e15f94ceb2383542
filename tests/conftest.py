import numpy as np
import pytest

from efglab.game import load_game
from efglab.games import build_kuhn, build_leduc, build_matching_pennies

# Player 2's infoset 1 has one member right after player 1's first move and
# one behind a chance node, so its members lie at node depths 1 and 2.
MIXED_DEPTH_DOC = {
    "name": "mixed-depth",
    "root": 0,
    "nodes": [
        {"id": 0, "kind": "p1", "infoset": 0, "actions": [
            {"label": "L", "child": 1}, {"label": "R", "child": 2}]},
        {"id": 1, "kind": "p2", "infoset": 1, "actions": [
            {"label": "a", "child": 3}, {"label": "b", "child": 4}]},
        {"id": 2, "kind": "chance", "actions": [
            {"label": "x", "child": 5, "prob": 0.3},
            {"label": "y", "child": 6, "prob": 0.7}]},
        {"id": 3, "kind": "p1", "infoset": 2, "actions": [
            {"label": "u", "child": 7}, {"label": "d", "child": 8},
            {"label": "s", "child": 15}]},
        {"id": 4, "kind": "terminal", "utility_p1": 0.5},
        {"id": 5, "kind": "p2", "infoset": 1, "actions": [
            {"label": "a", "child": 9}, {"label": "b", "child": 10}]},
        {"id": 6, "kind": "p2", "infoset": 3, "actions": [
            {"label": "c", "child": 11}, {"label": "e", "child": 12}]},
        {"id": 7, "kind": "terminal", "utility_p1": 1.0},
        {"id": 8, "kind": "terminal", "utility_p1": -0.5},
        {"id": 9, "kind": "p1", "infoset": 4, "actions": [
            {"label": "u", "child": 13}, {"label": "d", "child": 14}]},
        {"id": 10, "kind": "terminal", "utility_p1": -1.0},
        {"id": 11, "kind": "terminal", "utility_p1": 0.25},
        {"id": 12, "kind": "terminal", "utility_p1": -0.25},
        {"id": 13, "kind": "terminal", "utility_p1": -0.75},
        {"id": 14, "kind": "terminal", "utility_p1": 0.6},
        {"id": 15, "kind": "terminal", "utility_p1": 0.1},
    ],
}


@pytest.fixture(scope="session")
def kuhn():
    return build_kuhn()


@pytest.fixture(scope="session")
def leduc():
    return build_leduc()


@pytest.fixture(scope="session")
def pennies():
    return build_matching_pennies()


@pytest.fixture(scope="session")
def mixed_depth():
    return load_game(MIXED_DEPTH_DOC)


@pytest.fixture
def rng():
    return np.random.default_rng(7)
