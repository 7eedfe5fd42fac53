"""Lattice-plane counts from cached split-product cube planes against the AND loop."""

import random

import pytest

from misact.activities import _cube_plane, _plane_counts

from reference import plane_counts_and

SEED = 20261020


def random_cubes(rng: random.Random, width: int, count: int) -> list[tuple[int, int]]:
    """Cubes on `width` bits, most of them nonempty; a few have a lo bit outside hi."""
    cubes = []
    for _ in range(count):
        lo = rng.getrandbits(width) & rng.getrandbits(width)
        hi = lo | rng.getrandbits(width)
        if rng.random() < 0.1:
            hi &= ~rng.getrandbits(width)
        cubes.append((lo, hi))
    return cubes


@pytest.mark.parametrize("n", range(13))
def test_split_product_matches_the_and_loop(n):
    """Every n on both sides of the 6-bit split, with cube bits beyond free."""
    rng = random.Random(SEED + n)
    free = (1 << n) - 1
    for _ in range(60):
        cubes = random_cubes(rng, n + rng.randint(0, 3), rng.randint(0, 20))
        assert _plane_counts(free, cubes) == plane_counts_and(free, cubes)


@pytest.mark.parametrize("n", range(13))
def test_cube_plane_bits(n):
    rng = random.Random(SEED - n)
    for lo, hi in random_cubes(rng, n, 40):
        plane = _cube_plane(lo, hi)
        assert plane == sum(1 << x for x in range(1 << n) if lo & ~x == 0 and x & ~hi == 0)


def test_more_distinct_cubes_than_the_cache_holds():
    rng = random.Random(SEED)
    n = 12
    free = (1 << n) - 1
    distinct = list(dict.fromkeys(random_cubes(rng, n, 1600)))
    assert len(distinct) > _cube_plane.cache_info().maxsize
    cubes = distinct + distinct[:200]  # evicted by then, so built again
    _cube_plane.cache_clear()
    assert _plane_counts(free, cubes) == plane_counts_and(free, cubes)
    info = _cube_plane.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, len(cubes), info.maxsize)
