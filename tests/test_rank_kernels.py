"""The activity kernels under a permutation's orientation against the same
kernels on the relabelled graph, and the orientation against the labels."""

import random

import pytest

from misact import Graph, ext_active, random_graph, relabel
from misact.activities import (
    _INDEX_MIN,
    _activity_masks,
    _activity_planes,
    _member_tables,
    _orientation,
    _trial_batch,
)
from misact.graph import _bits, _mis_masks

from reference import activity_masks_loop, rank_masks
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


def test_orientation_is_the_label_comparison():
    """up[v] holds the neighbours of v with a larger label, under the vertex
    numbers, the reversed labels and seeded permutations."""
    rng = random.Random(SEED)
    for g in GRAPHS:
        natural = tuple(range(1, g.n + 1))
        for perm in (natural, tuple(range(g.n, 0, -1)), seeded_perm(g.n, rng)):
            expected = [0] + [sum(1 << (u - 1) for u in g.neighbors(v) if perm[u - 1] > perm[v - 1])
                              for v in g.vertices]
            assert _orientation(g, perm) == expected, perm
        assert _orientation(g) == _orientation(g, natural)


@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: f"n{g.n}m{g.edge_count()}")
def test_rank_kernels_match_the_relabelled_graph(g):
    """(Int, Ext) under the orientation of perm, renamed by perm, are those of
    the renamed sets on relabel(g, perm), on every kernel and the reference loop."""
    rng = random.Random(g.n)
    gens = _mis_masks(g)
    tables = _member_tables(g, gens)
    for perm in [tuple(range(1, g.n + 1))] + [seeded_perm(g.n, rng) for _ in range(3)]:
        up = _orientation(g, perm)
        h = relabel(g, perm)
        expected = [activity_masks_loop(h, renamed(m, perm), rank_masks(range(1, g.n + 1)))
                    for m in gens]
        ints, exts, _ = _activity_planes(g, gens, up)
        ends = _trial_batch(g, tables, [perm])[1](0)
        trial = [(m ^ lo, hi ^ m) for m, (lo, hi) in zip(gens, ends)]
        below = rank_masks(perm)
        loop = [activity_masks_loop(g, m, below) for m in gens]
        single = [_activity_masks(g, m, up) for m in gens]
        for pairs in list(zip(ints, exts)), trial, loop, single:
            assert [(renamed(i, perm), renamed(e, perm)) for i, e in pairs] == expected, perm


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
