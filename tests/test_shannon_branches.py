"""The Shannon counter's bit-set branches against the list counter it replaced
(reference.shannon_counts_lists): the same (covered, repeated, least) on random
cubes, on few cubes over few bits, on the covers of seeded random graphs and on
the interval ends of labelling-search trials."""

import random
from itertools import product

import pytest

from misact import cover, random_graph
from misact.activities import _interval_masks, _shannon_counts, _trial_batch
from misact.graph import _mis_by_pivot

from reference import shannon_counts_lists


def random_cube(rng: random.Random, n: int) -> tuple[int, int]:
    lo = rng.getrandbits(n) & rng.getrandbits(n)
    return lo, lo | rng.getrandbits(n)


def assert_same(free: int, cubes: list[tuple[int, int]]) -> None:
    assert _shannon_counts(free, cubes) == shannon_counts_lists(free, cubes), (free, cubes)


def test_random_cubes_on_all_or_part_of_a_lattice():
    """Whole and partial `free`, with duplicated cubes in about a third of the cases."""
    rng = random.Random(33)
    for _ in range(600):
        n = rng.randint(0, 11)
        free = rng.choice(((1 << n) - 1, rng.getrandbits(n)))
        cubes = [random_cube(rng, n) for _ in range(rng.randint(0, 20))]
        if cubes and rng.random() < 0.35:
            cubes += rng.choices(cubes, k=rng.randint(1, 4))
        assert_same(free, cubes)


@pytest.mark.parametrize("n, most", [(0, 3), (1, 3), (2, 3), (3, 2)])
def test_every_few_cubes_over_few_bits(n, most):
    """Every `free` on n bits, with every list of up to `most` cubes: n = 0, the
    empty list, one and two cubes (the inclusion-exclusion base case), and three
    cubes, whose branches split or are held whole by their first cube."""
    cubes = [(lo, hi) for hi in range(1 << n) for lo in range(1 << n) if not lo & ~hi]
    for free in range(1 << n):
        for k in range(most + 1):
            for chosen in product(cubes, repeat=k):
                assert_same(free, list(chosen))


@pytest.mark.parametrize("n", range(13, 26))
def test_covers_of_random_graphs(n):
    p = (0.2, 0.3, 0.5)[n % 3]
    masks = _interval_masks(cover(random_graph(n, p, seed=n)))
    assert_same((1 << n) - 1, masks)


@pytest.mark.parametrize("n, p", [(14, 0.3), (16, 0.2), (18, 0.3), (20, 0.4)])
def test_search_trial_cubes(n, p):
    """The interval ends of a batch of random labellings, from the search's kernel."""
    rng = random.Random(n)
    g = random_graph(n, p, rng=rng)
    perms = [tuple(rng.sample(range(1, n + 1), n)) for _ in range(6)]
    _, ends = _trial_batch(g, list(_mis_by_pivot(g)), perms)
    for t in range(len(perms)):
        assert_same((1 << n) - 1, ends(t))
