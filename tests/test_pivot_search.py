"""The pivot search that decides each leaf at its parent, against the search
that pushed every branch (reference.mis_by_pivot_stack)."""

import random

import pytest

from misact import Graph, complete_graph, is_maximal_independent, random_graph
from misact.graph import _mis_by_pivot, set_of

from reference import mis_by_pivot_stack


def _seeded_graphs() -> list[Graph]:
    rng = random.Random(47)
    graphs = []
    for n in range(15):
        graphs += [Graph(n), complete_graph(n)]
        for _ in range(8):
            isolated = {v for v in range(1, n + 1) if rng.random() < 0.3}
            edges = [(u, v) for u, v in random_graph(n, rng.random(), rng=rng).edges()
                     if u not in isolated and v not in isolated]
            graphs.append(Graph(n, edges))
    graphs += [random_graph(n, 0.3, rng=rng) for n in (30, 34, 38, 42, 46, 50)]
    return graphs


GRAPHS = _seeded_graphs()
RAW = [list(_mis_by_pivot(g)) for g in GRAPHS]


def test_sample_reaches_wide_covers():
    assert len(GRAPHS) >= 150
    assert max(map(len, RAW)) >= 2000


@pytest.mark.parametrize("i", range(len(GRAPHS)))
def test_matches_the_stack_search(i):
    g, raw = GRAPHS[i], RAW[i]
    assert sorted(raw) == sorted(mis_by_pivot_stack(g))
    assert len(set(raw)) == len(raw)
    assert all(is_maximal_independent(g, set_of(m)) for m in raw)


def test_every_vertex_isolated_yields_the_full_set():
    assert list(_mis_by_pivot(Graph(0))) == [0]
    assert list(_mis_by_pivot(Graph(7))) == [0b1111111]
