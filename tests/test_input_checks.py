"""Input checks that no other test reaches: each rejection's exact message or exit code."""

import random

import pytest

from misact import (
    Graph,
    cover,
    f_map,
    is_externally_complete,
    is_pruned_graph_of,
    mis_difference_decomposition,
    parse_edge_list,
    pruned_instance,
    random_pruned_instance,
    repeated_subsets_detail,
    tree_center,
    verify_family,
)
from misact.cli import USAGE_ERROR, run
from misact.io import EdgeListError

P3 = Graph(3, [(1, 2), (2, 3)])
STAR = Graph(4, [(1, 2), (1, 3), (1, 4)])  # pruned from its centre: every other vertex a leaf
# two branches of three from vertex 1: rooted there, vertices 2 and 5 have children but no leaf child
LONG_ARMS = Graph(7, [(1, 2), (2, 3), (3, 4), (1, 5), (5, 6), (6, 7)])

CASES = [
    ("parse-comment-only", lambda: parse_edge_list("# only a comment\n"), EdgeListError,
     "line 1: empty input, expected header 'n m'"),
    ("parse-header-words", lambda: parse_edge_list("a b\n"), EdgeListError,
     "line 1: header must be two integers"),
    ("parse-negative-count", lambda: parse_edge_list("-1 0\n"), EdgeListError,
     "line 1: counts must be non-negative"),
    ("parse-edge-word", lambda: parse_edge_list("2 1\n1 x\n"), EdgeListError,
     "line 2: edge must be two integers"),
    ("family-unknown", lambda: verify_family("nope", 3), ValueError,
     "family must be one of ('kn', 'join', 'pendant', 'lex', 'colex')"),
    ("family-pendant-without-sizes", lambda: verify_family("pendant", 3), ValueError,
     "pendant family needs the pendant-block sizes"),
    ("detail-above-bound", lambda: repeated_subsets_detail(cover(Graph(3)), oracle_bound=2),
     ValueError, "exhaustive scan refused for n=3 > 2"),
    ("difference-not-maximal", lambda: mis_difference_decomposition(P3, {1}, {2}), ValueError,
     "first set [1] is not a maximal independent set"),
    ("difference-equal-sets", lambda: mis_difference_decomposition(P3, {1, 3}, {1, 3}),
     ValueError, "the two sets must differ"),
    ("externally-complete-not-maximal", lambda: is_externally_complete(P3, {1}), ValueError,
     "[1] is not a maximal independent set"),
    ("centre-of-empty-graph", lambda: tree_center(Graph(0)), ValueError,
     "a tree needs at least one vertex"),
    ("centre-of-triangle-and-vertex", lambda: tree_center(Graph(4, [(1, 2), (2, 3), (1, 3)])),
     ValueError, "not a tree: disconnected"),
    ("pruned-graph-of-unpruned-tree", lambda: is_pruned_graph_of(LONG_ARMS, 1, LONG_ARMS),
     ValueError, "tree is not pruned when rooted at 1"),
    ("leaf-mode", lambda: pruned_instance(STAR, root=1).leaf_set("bad"), ValueError,
     "leaf mode must be one of ('tree', 'host')"),
    ("children-mode", lambda: f_map(pruned_instance(STAR, root=1), [], children_mode="bad"),
     ValueError, "children mode must be one of ('host', 'tree')"),
    ("instance-host-size", lambda: pruned_instance(STAR, Graph(5), root=1), ValueError,
     "tree and host must share the vertex set"),
    ("random-instance-too-small",
     lambda: random_pruned_instance(random.Random(0), max_vertices=2), ValueError,
     "a rooted instance needs at least three vertices"),
    ("neighbours-of-vertex-0", lambda: Graph(2).neighbors(0), ValueError,
     "vertex 0 outside 1..2"),
]


@pytest.mark.parametrize("call, error, message", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_rejection_message(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert str(raised.value) == message


def test_verify_without_input_is_a_usage_error(capsys):
    assert run(["verify"]) == USAGE_ERROR == 64
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "usage error: verify needs a file or --family\n")


def test_graph_equality_and_hash():
    """A graph equals only a graph, and equal graphs hash alike."""
    g = Graph(2, [(1, 2)])
    assert g.__eq__(2) is NotImplemented and g != 2
    assert hash(g) == hash(Graph(2, [(2, 1)])) and len({g, Graph(2, [(1, 2)]), Graph(2)}) == 2
