"""The labelling search's trial kernel against the activity kernels it replaces."""

import random

import pytest

from misact import Graph, complete_graph, random_graph
from misact.activities import _INDEX_MIN, _activities, _member_tables, _rank_masks, _trial_masks
from misact.graph import _mis_by_pivot

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
    with _INDEX_MIN or more maximal independent sets, which _activities takes
    on bit planes."""
    rng = random.Random(SEED)
    graphs = [random_graph(n, rng.choice((0.1, 0.2, 0.4, 0.7)), rng=rng)
              for n in range(17) for _ in range(12)]
    draws = (random_graph(16, 0.15, rng=rng) for _ in range(1000))
    return graphs + [g for g in draws if len(list(_mis_by_pivot(g))) >= _INDEX_MIN][:10]


GRAPHS = STRUCTURED + gnp_graphs()


def expected_masks(g: Graph, gens: list[int], below) -> list[tuple[int, int]]:
    return [(m & ~i, m | e) for m, i, e in zip(gens, *_activities(g, gens, below)[:2])]


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
        below = _rank_masks(perm)
        assert _trial_masks(g, tables, below) == expected_masks(g, gens, below), perm
