"""The bit-plane activity kernel against the per-set reference pass."""

import random

import pytest

from misact import Graph, cover, random_graph
from misact.activities import (
    _INDEX_MIN,
    ActivityReport,
    Cover,
    _activity_masks,
    _activity_planes,
    _orientation,
)
from misact.graph import _mis_masks

from reference import activity_masks_loop, rank_masks
from sample_graphs import all_named_graphs

SEED = 20261018


def seeded_graphs():
    """G(n, p) for n 0-26; the denser draws at the top have k below _INDEX_MIN,
    the sparser ones above it."""
    rng = random.Random(SEED)
    return [random_graph(n, rng.choice((0.1, 0.3, 0.5, 0.8)), rng=rng)
            for n in range(27) for _ in range(4)]


def isolated_graphs():
    """Isolated vertices at the ends and in the middle of the labels."""
    return [Graph(1), Graph(5), Graph(4, [(2, 3)]), Graph(6, [(1, 2), (5, 6)]),
            Graph(7, [(2, 5), (5, 6), (3, 6)])]


GRAPHS = all_named_graphs() + [Graph(0)] + isolated_graphs() + seeded_graphs()


def test_seeded_graphs_reach_both_sides_of_the_crossover():
    ks = [len(_mis_masks(g)) for g in seeded_graphs()]
    assert min(ks) < _INDEX_MIN <= max(ks)


def labellings(g: Graph) -> list[tuple[int, ...]]:
    """The identity, the reversed labels and two seeded permutations of g's vertices."""
    rng = random.Random(g.n + 1)
    return [tuple(range(1, g.n + 1)), tuple(range(g.n, 0, -1)),
            *(tuple(rng.sample(range(1, g.n + 1), g.n)) for _ in range(2))]


@pytest.mark.parametrize("g", GRAPHS)
def test_planes_match_the_per_set_pass(g):
    """Maximal and non-maximal independent sets, one and none, under each labelling."""
    gens = _mis_masks(g)
    rng = random.Random(g.n)
    subsets = [m & rng.getrandbits(g.n) if g.n else 0 for m in gens]  # independent, not maximal
    for perm in labellings(g):
        up, below = _orientation(g, perm), rank_masks(perm)
        for sets in (gens, subsets, gens[:1], []):
            expected = [activity_masks_loop(g, m, below) for m in sets]
            ints, exts, _ = _activity_planes(g, sets, up)
            assert list(zip(ints, exts)) == expected, perm
            assert [_activity_masks(g, m, up) for m in sets] == expected, perm
    assert [_activity_masks(g, m) for m in subsets] == [
        activity_masks_loop(g, m, rank_masks(range(1, g.n + 1))) for m in subsets
    ]


@pytest.mark.parametrize("g", GRAPHS)
def test_cover_is_the_same_on_either_path(g):
    """cover() on the bit-plane kernel, and a cover built from the reference loop."""
    gens = _mis_masks(g)
    below = rank_masks(range(1, g.n + 1))
    loop = Cover(g.n, tuple(ActivityReport(m, *activity_masks_loop(g, m, below)) for m in gens))
    c = cover(g)
    assert c == loop and c._planes is not None
    assert [e.mis_mask for e in c.entries] == gens
