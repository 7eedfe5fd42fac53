"""The activity kernels with rank masks against the same kernels on a relabelled graph."""

import random

import pytest

from misact import Graph, ext_active, random_graph, relabel
from misact.activities import (
    _INDEX_MIN,
    _activities,
    _activity_masks,
    _activity_planes,
    _natural_ranks,
    _rank_masks,
)
from misact.graph import _bits, _mis_masks

from sample_graphs import disjoint_cliques

SEED = 20261019


def seeded_graphs() -> list[Graph]:
    """G(n, p) for n 0-20, and graphs on at most 12 vertices with 64 or more
    maximal independent sets: disjoint triangles and edges."""
    rng = random.Random(SEED)
    return [random_graph(n, rng.choice((0.15, 0.3, 0.6)), rng=rng)
            for n in range(21) for _ in range(3)] + [
        disjoint_cliques(s) for s in ([3, 3, 3, 3], [3, 3, 2, 2, 2], [2] * 6, [3, 3, 3, 2, 1])
    ]


def seeded_perm(n: int, rng: random.Random) -> tuple[int, ...]:
    p = list(range(1, n + 1))
    rng.shuffle(p)
    return tuple(p)


def renamed(mask: int, perm) -> int:
    return sum(1 << (perm[v - 1] - 1) for v in _bits(mask))


GRAPHS = seeded_graphs()


def test_graphs_reach_both_sides_of_the_crossover():
    ks = [len(_mis_masks(g)) for g in GRAPHS]
    assert min(ks) < _INDEX_MIN <= max(ks)
    assert any(g.n <= 12 and k >= _INDEX_MIN for g, k in zip(GRAPHS, ks))


def test_rank_masks():
    rng = random.Random(SEED)
    for n in range(10):
        perm = seeded_perm(n, rng)
        below = _rank_masks(perm)
        assert below[1:] == [sum(1 << (w - 1) for w in range(1, n + 1) if perm[w - 1] < perm[u - 1])
                             for u in range(1, n + 1)]
        assert _rank_masks(range(1, n + 1)) == list(_natural_ranks(n))


@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"n{g.n}m{g.edge_count()}")
def test_rank_kernels_match_the_relabelled_graph(g):
    """(Int, Ext) under the rank masks of perm, renamed by perm, are those of
    the renamed sets on relabel(g, perm), on both kernels."""
    rng = random.Random(g.n)
    gens = _mis_masks(g)
    for perm in [tuple(range(1, g.n + 1))] + [seeded_perm(g.n, rng) for _ in range(3)]:
        below = _rank_masks(perm)
        h = relabel(g, perm)
        expected = _activities(h, [renamed(m, perm) for m in gens], _natural_ranks(g.n))
        per_set = [_activity_masks(g, m, below) for m in gens]
        planes = _activity_planes(g, gens, below)[:2]
        for ints, exts in ([i for i, _ in per_set], [e for _, e in per_set]), planes:
            assert [renamed(m, perm) for m in ints] == expected[0]
            assert [renamed(m, perm) for m in exts] == expected[1]


def test_reversed_mode_ext_on_seeded_sets():
    """Reversed mode is the standard kernel under reversed labels: u outside A
    is active when it has a larger neighbour in A."""
    rng = random.Random(SEED)
    for g in GRAPHS:
        for m in _mis_masks(g)[:8]:
            a = set(_bits(m & rng.getrandbits(max(g.n, 1))))  # independent, maybe not maximal
            expected = {u for u in g.vertices
                        if u not in a and any(u < v for v in g.neighbors(u) & a)}
            assert ext_active(g, a, mode="reversed") == expected
