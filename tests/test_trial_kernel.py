"""The labelling search's trial kernel, and the cover kernel, against the reference loop."""

import random

import pytest

from misact import Graph, complete_graph, random_graph
from misact.activities import (
    _INDEX_MIN,
    _activity_planes,
    _member_tables,
    _orientation,
    _trial_masks,
)
from misact.graph import _mis_by_pivot

from reference import activity_masks_loop, rank_masks
from sample_graphs import disjoint_cliques

SEED = 20261021


def star(n: int, centre: int) -> Graph:
    return Graph(n, [(centre, v) for v in range(1, n + 1) if v != centre])


def cycle(n: int) -> Graph:
    return Graph(n, [(v, v % n + 1) for v in range(1, n + 1)])


STRUCTURED = [
    Graph(0), Graph(1), Graph(5), complete_graph(1), complete_graph(2), complete_graph(6),
    star(2, 1), star(6, 1), star(7, 4), cycle(3), cycle(4), cycle(7),
    Graph(7, [(2, 5), (5, 6)]),  # isolated 1, 3, 4 and 7
    Graph(9, [(3, 4), (4, 5), (5, 3), (8, 9)]),  # a triangle, an edge, four isolated
    disjoint_cliques([3, 3, 3, 3]), disjoint_cliques([2] * 7),
]


def gnp_graphs() -> list[Graph]:
    """G(n, p) for n 0-16, 12 per n, and the first ten draws of G(16, 0.15)
    with _INDEX_MIN or more maximal independent sets, which the verdict's pair
    scan takes on its index."""
    rng = random.Random(SEED)
    graphs = [random_graph(n, rng.choice((0.1, 0.2, 0.4, 0.7)), rng=rng)
              for n in range(17) for _ in range(12)]
    draws = (random_graph(16, 0.15, rng=rng) for _ in range(1000))
    return graphs + [g for g in draws if len(list(_mis_by_pivot(g))) >= _INDEX_MIN][:10]


GRAPHS = STRUCTURED + gnp_graphs()


def expected_masks(g: Graph, gens: list[int], perm) -> list[tuple[int, int]]:
    below = rank_masks(perm)
    return [(m & ~i, m | e) for m in gens for i, e in [activity_masks_loop(g, m, below)]]


def test_random_graphs_reach_both_sides_of_the_crossover():
    ks = [len(list(_mis_by_pivot(g))) for g in GRAPHS[len(STRUCTURED):]]
    assert len(ks) >= 200
    assert sum(k < _INDEX_MIN for k in ks) >= 100 and sum(k >= _INDEX_MIN for k in ks) >= 10


@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"n{g.n}m{g.edge_count()}")
def test_trial_masks_match_the_activity_kernels(g):
    rng = random.Random(g.n * 1000 + g.edge_count())
    gens = list(_mis_by_pivot(g))
    tables = _member_tables(g, gens)
    perms = [list(range(1, g.n + 1)), list(range(g.n, 0, -1))]
    for _ in range(4):
        perms.append(rng.sample(range(1, g.n + 1), g.n))
    for perm in perms:
        up, expected = _orientation(g, perm), expected_masks(g, gens, perm)
        assert _trial_masks(tables, up) == expected, perm
        ints, exts, _ = _activity_planes(g, gens, up)
        assert [(m & ~i, m | e) for m, i, e in zip(gens, ints, exts)] == expected, perm
