"""The labelling search's batch kernel, and the cover kernel, against the reference loop."""

import random

import pytest

import misact.activities
from misact import (
    Graph,
    complete_graph,
    enumerate_maximal_independent_sets,
    ext_active,
    find_complete,
    int_active,
    interval_of,
    is_complete,
    is_internally_complete,
    random_graph,
    singleton_generator_for,
)
from misact.activities import (
    _INDEX_MIN,
    _activity_planes,
    _orientation,
    _trial_batch,
)
from misact.graph import _mis_by_pivot

from reference import activity_masks_loop, brute_ext, brute_int, rank_masks
from sample_graphs import cycle_beside_triangles, disjoint_cliques

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
    perms = [list(range(1, g.n + 1)), list(range(g.n, 0, -1))]
    for _ in range(4):
        perms.append(rng.sample(range(1, g.n + 1), g.n))
    for perm in perms:
        up, expected = _orientation(g, perm), expected_masks(g, gens, perm)
        ints, exts, _ = _activity_planes(g, gens, up)
        assert [(m & ~i, m | e) for m, i, e in zip(gens, ints, exts)] == expected, perm


def batch_graphs() -> list[Graph]:
    """Graphs of 0 to 25 vertices, with n = 1 and isolated vertices among them, and one
    with more sets than the labellings of a full search batch."""
    rng = random.Random(SEED + 1)
    return STRUCTURED + [
        Graph(17, [(1, 17), (2, 9)]), disjoint_cliques([3] * 5), cycle_beside_triangles(),
        *(random_graph(n, p, rng=rng) for n in (2, 8, 9, 16, 17, 25) for p in (0.2, 0.5)),
    ]


def orientation_key(g: Graph, perm) -> int:
    """Bit e set when the e-th edge (u, w) of g.edges() has w labelled above u."""
    return sum(1 << e for e, (u, w) in enumerate(g.edges()) if perm[w - 1] > perm[u - 1])


@pytest.mark.parametrize("width", [1, 8, 9, 64, 65, 256])
@pytest.mark.parametrize("g", batch_graphs(), ids=lambda g: f"n{g.n}m{g.edge_count()}")
def test_trial_batch_matches_the_trial_kernel(g, width):
    """Every labelling of a batch gets the orientation key and the interval ends that
    the reference loop gives it, read in any order."""
    rng = random.Random(g.n * 1000 + g.edge_count() + width)
    perms = [tuple(rng.sample(range(1, g.n + 1), g.n)) for _ in range(width)]
    gens = list(_mis_by_pivot(g))
    keys, ends = _trial_batch(g, gens, perms)
    assert keys == [orientation_key(g, perm) for perm in perms]
    for t in rng.sample(range(width), width):
        assert ends(t) == expected_masks(g, gens, perms[t]), perms[t]


def refuse_trial_batch(*args):
    raise AssertionError("a single set's activities take no search batch")


@pytest.mark.parametrize(
    "g",
    STRUCTURED + [star(n, c) for n in range(1, 10) for c in range(1, n + 1)],
    ids=[f"structured{i}" for i in range(len(STRUCTURED))]
    + [f"star{n}c{c}" for n in range(1, 10) for c in range(1, n + 1)],
)
def test_single_sets_take_the_cover_kernel(g, monkeypatch):
    """The single-set calls give the definitions' activities without a search batch:
    on every maximal independent set, and on it less its largest member."""
    monkeypatch.setattr(misact.activities, "_trial_batch", refuse_trial_batch)
    full = frozenset(g.vertices)
    complete = []
    for a in enumerate_maximal_independent_sets(g):
        i, e = brute_int(g, a), brute_ext(g, a)
        for s in (a, a - {max(a, default=0)}):
            assert int_active(g, s) == brute_int(g, s), s
            assert ext_active(g, s) == brute_ext(g, s), s
            assert ext_active(g, s, mode="reversed") == {
                u for u in full - s if any(u < v for v in g.neighbors(u) & s)
            }, s
        report = interval_of(g, a)
        assert (report.generator, report.int_, report.ext) == (a, i, e)
        assert is_internally_complete(g, a) == (i == a)
        assert is_complete(g, a) == (i == a and a | e == full)
        if i == a and a | e == full:
            complete.append(a)
    assert find_complete(g) == (complete[0] if complete else None)
    for v in g.vertices:
        a = singleton_generator_for(g, v)
        assert v in a and a - brute_int(g, a) <= {v}, (v, a)
