"""The bit-plane activity kernel against the per-set pass it batches."""

import random

import pytest

import misact.activities
from misact import Graph, cover, random_graph
from misact.activities import _INDEX_MIN, _activity_masks, _activity_planes
from misact.graph import _mis_masks

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


@pytest.mark.parametrize("g", GRAPHS)
def test_planes_match_the_per_set_pass(g):
    gens = _mis_masks(g)
    rng = random.Random(g.n)
    subsets = [m & rng.getrandbits(g.n) if g.n else 0 for m in gens]  # independent, not maximal
    for sets in (gens, subsets, gens[:1], []):
        ints, exts, _ = _activity_planes(g, sets)
        assert list(zip(ints, exts)) == [_activity_masks(g, m) for m in sets]


@pytest.mark.parametrize("g", GRAPHS)
def test_cover_is_the_same_on_either_path(monkeypatch, g):
    covers = []
    for threshold in (0, 1 << 30):  # every cover on the planes, then none
        monkeypatch.setattr(misact.activities, "_INDEX_MIN", threshold)
        covers.append(cover(g))
    assert covers[0] == covers[1]
    assert [e.mis_mask for e in covers[0].entries] == _mis_masks(g)
