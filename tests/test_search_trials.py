"""The labelling search, enumerating once, against a full rebuild per trial."""

import random
from itertools import islice, permutations
from math import factorial

import pytest

import misact.activities
import misact.search
from misact import Graph, complete_graph, random_graph, relabel, search_labelling
from misact.activities import _INDEX_MIN, _PLANE_MAX
from misact.graph import _mis_masks
from misact.search import _BATCH, _BATCH_COLUMNS, _shuffles

from reference import search_labelling_loop
from sample_graphs import cycle_beside_triangles, dense_five_overlapping, disjoint_cliques, wheel_five

SEED = 20261018


def star(n: int, centre: int) -> Graph:
    return Graph(n, [(centre, v) for v in range(1, n + 1) if v != centre])


def cycle(n: int) -> Graph:
    return Graph(n, [(v, v % n + 1) for v in range(1, n + 1)])


def gnp_graphs(count_per_n: int, ns) -> list[Graph]:
    rng = random.Random(SEED)
    return [random_graph(n, rng.uniform(0.15, 0.8), rng=rng)
            for n in ns for _ in range(count_per_n)]


STRUCTURED = [
    Graph(0), Graph(1), Graph(2), Graph(6),
    complete_graph(1), complete_graph(2), complete_graph(5), complete_graph(7),
    star(5, 1), star(5, 3), star(6, 6), star(9, 4),
    Graph(6, [(2, 5), (5, 6)]),  # isolated 1, 3 and 4
    Graph(8, [(1, 8), (2, 3), (3, 8), (2, 8)]),  # isolated 4-7
    Graph(7, [(3, 4), (4, 5), (5, 3)]),  # a triangle beside four isolated vertices
    cycle(5), cycle(6), wheel_five(), dense_five_overlapping(),
]


@pytest.mark.parametrize("budget", [1, 2, 50])
@pytest.mark.parametrize("seed", [0, 7, SEED])
@pytest.mark.parametrize("g", gnp_graphs(1, range(13)), ids=lambda g: f"n{g.n}m{g.edge_count()}")
def test_random_mode_on_gnp(g, seed, budget):
    got = search_labelling(g, budget=budget, mode="random", seed=seed)
    assert got == search_labelling_loop(g, budget=budget, mode="random", seed=seed)


@pytest.mark.parametrize("g", STRUCTURED, ids=repr)
@pytest.mark.parametrize("budget", [1, 2, 50])
def test_random_mode_on_structured_graphs(g, budget):
    got = search_labelling(g, budget=budget, mode="random", seed=3)
    assert got == search_labelling_loop(g, budget=budget, mode="random", seed=3)


def test_random_mode_default_seed():
    g = wheel_five()
    assert search_labelling(g, budget=20, mode="random") == search_labelling_loop(
        g, budget=20, mode="random")


EXHAUSTIVE = [g for g in STRUCTURED if g.n <= 6] + gnp_graphs(2, range(7))


@pytest.mark.parametrize("g", EXHAUSTIVE, ids=repr)
def test_exhaustive_mode(g):
    assert search_labelling(g) == search_labelling_loop(g)


def test_exhaustive_cases_cover_both_outcomes():
    """Some cases stop early on a partition, and some find no labelling that partitions."""
    results = [(search_labelling(g), factorial(g.n)) for g in EXHAUSTIVE]
    assert any(r.found_partition and 1 < r.trials < total for r, total in results)
    assert any(not r.found_partition and r.trials == total for r, total in results)


def many_sets() -> list[Graph]:
    """Graphs with 64 or more maximal independent sets, so that every trial takes
    their activities on bit planes: G(16-18, 0.2), whose trials count by Shannon
    expansion, and disjoint triangles and edges on 12 vertices, seeded
    relabellings, whose trials count on lattice planes."""
    rng = random.Random(SEED)
    draws = (random_graph(rng.randint(16, 18), 0.2, rng=rng) for _ in range(100))
    sparse = [g for g in draws if len(_mis_masks(g)) >= _INDEX_MIN][:6]
    small = [relabel(disjoint_cliques(sizes), rng.sample(range(1, 13), 12))
             for sizes in ([3, 3, 3, 3], [2] * 6, [3, 3, 2, 2, 2])]
    return sparse + small


@pytest.mark.parametrize("g", many_sets(), ids=lambda g: f"n{g.n}m{g.edge_count()}")
def test_random_mode_with_many_sets(g):
    assert len(_mis_masks(g)) >= _INDEX_MIN
    budget = 3 if g.n > _PLANE_MAX else 20
    got = search_labelling(g, budget=budget, mode="random", seed=5)
    assert got == search_labelling_loop(g, budget=budget, mode="random", seed=5)


K33 = Graph(6, [(u, v) for u in (1, 2, 3) for v in (4, 5, 6)])


@pytest.mark.parametrize(
    "g, found, trials, repeats, perm",
    [
        (cycle(4), False, 24, 4, (1, 3, 2, 4)),
        (cycle(5), True, 3, 0, (1, 2, 4, 3, 5)),
        (cycle(6), False, 720, 16, (1, 2, 4, 3, 5, 6)),
        (cycle(7), False, 5040, 16, (1, 2, 4, 3, 6, 5, 7)),
        (cycle(8), False, 40320, 64, (1, 2, 4, 3, 5, 7, 6, 8)),
        (K33, False, 720, 8, (1, 2, 3, 4, 5, 6)),
    ],
    ids=["C4", "C5", "C6", "C7", "C8", "K33"],
)
def test_exhaustive_answers_on_small_graphs(g, found, trials, repeats, perm):
    """Only C5 among these has a partitioning labelling; the others walk all n! of them."""
    r = search_labelling(g)
    assert (r.found_partition, r.trials, r.verdict.repeated_subset_count, r.permutation) == (
        found, trials, repeats, perm)


def path(n: int) -> Graph:
    return Graph(n, [(v, v + 1) for v in range(1, n)])


def walked(g: Graph, r) -> list[tuple[int, ...]]:
    """The permutations the search r on g tried, in order, rebuilt from its mode,
    seed and trial count."""
    if r.mode == "exhaustive":
        return list(islice(permutations(range(1, g.n + 1)), r.trials))
    rng, perms = random.Random(r.seed), [tuple(range(1, g.n + 1))]
    for _ in range(r.trials - 1):
        p = list(range(1, g.n + 1))
        rng.shuffle(p)
        perms.append(tuple(p))
    return perms


def orientation(g: Graph, perm) -> frozenset[tuple[int, int]]:
    """The edges of g, each as (lower label's end, higher label's end) under perm."""
    return frozenset((u, v) if perm[u - 1] < perm[v - 1] else (v, u) for u, v in g.edges())


def counted(monkeypatch) -> list:
    """Patch the repeat counter to record each count it runs: one per trial
    counted, in the search, and one more for the winner's verdict."""
    runs, repeats = [], misact.activities._repeats

    def spy(*args):
        runs.append(result := repeats(*args))
        return result

    monkeypatch.setattr(misact.search, "_repeats", spy)
    monkeypatch.setattr(misact.activities, "_repeats", spy)
    return runs


@pytest.mark.parametrize(
    "g, search, orientations",
    [
        (cycle(8), {}, 254),  # 2^8 - 2: all but the two cyclic ones
        (path(8), {}, 128),  # 2^7: a tree's every orientation is acyclic
        (random_graph(11, 0.3, seed=SEED), {"mode": "random", "budget": 200, "seed": 0}, None),
    ],
    ids=["C8", "P8", "G11"],
)
def test_each_orientation_is_counted_once(monkeypatch, g, search, orientations):
    runs = counted(monkeypatch)
    r = search_labelling(g, **search)
    keys = {orientation(g, perm) for perm in walked(g, r)}
    assert orientations in (None, len(keys))
    assert len(runs) - 1 == len(keys) < r.trials


def kept_runs(g: Graph, r, kept: int) -> int:
    """How many counts the search r on g runs when it keeps those of the first
    `kept` distinct orientations and counts every other one anew."""
    seen, runs = set(), 0
    for perm in walked(g, r):
        if (key := orientation(g, perm)) not in seen:
            runs += 1
            if len(seen) < kept:
                seen.add(key)
    return runs


KEPT = 4  # a bound that most searches below pass


@pytest.mark.parametrize("g", EXHAUSTIVE, ids=repr)
def test_exhaustive_mode_past_the_bound(monkeypatch, g):
    monkeypatch.setattr(misact.search, "_ORIENTATIONS_KEPT", KEPT)
    runs = counted(monkeypatch)
    r = search_labelling(g)
    assert len(runs) - 1 == kept_runs(g, r, KEPT)
    assert r == search_labelling_loop(g)


@pytest.mark.parametrize("g", gnp_graphs(1, range(13)), ids=lambda g: f"n{g.n}m{g.edge_count()}")
def test_random_mode_past_the_bound(monkeypatch, g):
    monkeypatch.setattr(misact.search, "_ORIENTATIONS_KEPT", KEPT)
    runs = counted(monkeypatch)
    r = search_labelling(g, budget=50, mode="random", seed=7)
    assert len(runs) - 1 == kept_runs(g, r, KEPT)
    assert r == search_labelling_loop(g, budget=50, mode="random", seed=7)


def test_the_bound_counts_some_orientations_again():
    """Some exhaustive searches above meet a dropped orientation twice, so the
    bound changes how many counts they run."""
    assert any(kept_runs(g, r, KEPT) > kept_runs(g, r, r.trials)
               for g in EXHAUSTIVE for r in [search_labelling(g)])



@pytest.mark.parametrize("seed", [0, 1, 7, SEED])
def test_shuffles_draw_as_random_shuffle(seed):
    """The inline draws give random.shuffle's permutations and leave the generator
    where random.shuffle leaves it."""
    for n in range(26):
        rng, expected = random.Random(seed), [tuple(range(1, n + 1))]
        for _ in range(5):
            p = list(range(1, n + 1))
            rng.shuffle(p)
            expected.append(tuple(p))
        drawn = random.Random(seed)
        assert list(_shuffles(n, 6, drawn)) == expected, n
        assert drawn.getstate() == rng.getstate()


@pytest.mark.parametrize("budget", [1, _BATCH - 1, _BATCH, _BATCH + 1, 2 * _BATCH + 1])
@pytest.mark.parametrize(
    "g", [random_graph(8, 0.4, seed=SEED), STRUCTURED[13], cycle_beside_triangles()], ids=repr
)
def test_random_budgets_at_the_batch_edges(g, budget):
    r = search_labelling(g, budget=budget, mode="random", seed=4)
    assert r.trials == budget
    assert r == search_labelling_loop(g, budget=budget, mode="random", seed=4)


def test_many_sets_shorten_the_batches(monkeypatch):
    """With 270 sets, a batch holds the labellings of at most _BATCH_COLUMNS columns,
    fewer than _BATCH, and the search still picks the reference loop's labelling."""
    sizes, trial_batch = [], misact.search._trial_batch

    def recorded(G, gens, perms):
        sizes.append(len(perms))
        return trial_batch(G, gens, perms)

    monkeypatch.setattr(misact.search, "_trial_batch", recorded)
    g, size = cycle_beside_triangles(), _BATCH_COLUMNS // 270
    r = search_labelling(g, budget=513, mode="random", seed=4)
    assert size < _BATCH and sizes == [size, size, 513 - 2 * size]
    assert r == search_labelling_loop(g, budget=513, mode="random", seed=4)


@pytest.mark.parametrize("batch", [1, 2, 3, 5])
@pytest.mark.parametrize("g", gnp_graphs(1, range(2, 10)), ids=lambda g: f"n{g.n}m{g.edge_count()}")
def test_small_batches(monkeypatch, g, batch):
    """Batches of a few labellings, with budgets that end on, before and after a
    batch's last labelling, give the search's results; so do exhaustive searches
    up to 6 vertices."""
    monkeypatch.setattr(misact.search, "_BATCH", batch)
    for budget in (1, batch, batch + 1, 3 * batch - 1):
        got = search_labelling(g, budget=budget, mode="random", seed=batch)
        assert got == search_labelling_loop(g, budget=budget, mode="random", seed=batch)
    if g.n <= 6:
        assert search_labelling(g) == search_labelling_loop(g)


# The first labelling of this graph whose cover partitions is the 378th: at _BATCH = 256, the
# 122nd of the second batch.
MID_BATCH = Graph(7, [(1, 2), (1, 3), (1, 5), (1, 6), (1, 7), (2, 3), (2, 6), (2, 7), (3, 4),
                      (3, 5), (4, 6), (4, 7), (5, 7), (6, 7)])


@pytest.mark.parametrize("batch", [_BATCH, 1, 2, 377, 378, 379])
def test_exhaustive_stop_mid_batch(monkeypatch, batch):
    assert _BATCH < 378 and 378 % _BATCH  # past the first batch of the search's own size
    monkeypatch.setattr(misact.search, "_BATCH", batch)
    r = search_labelling(MID_BATCH)
    assert (r.found_partition, r.trials) == (True, 378)
    assert r == search_labelling_loop(MID_BATCH)


@pytest.mark.parametrize("kept", [1, 5, 300])
@pytest.mark.parametrize("g", [random_graph(9, 0.3, seed=SEED), cycle(8)], ids=repr)
def test_the_bound_crossed_inside_a_batch(monkeypatch, g, kept):
    """The kept counts run out within a batch: the later trials of that batch and
    the ones after count their new orientations anew."""
    monkeypatch.setattr(misact.search, "_ORIENTATIONS_KEPT", kept)
    runs = counted(monkeypatch)
    r = search_labelling(g, budget=600, mode="random", seed=2)
    assert len(runs) - 1 == kept_runs(g, r, kept)
    assert r == search_labelling_loop(g, budget=600, mode="random", seed=2)
