"""Exact coverage and repeat counting in the partition verdict and the repeated-subset
listing, against the 2^n histogram."""

import random
import tracemalloc
from itertools import combinations

from hypothesis import given, settings, strategies as st

from misact import (
    Graph,
    cover,
    partition_verdict,
    random_graph,
    relabel,
    repeated_subsets_detail,
)
import misact.activities
from misact.activities import (
    _PLANE_MAX,
    _cover_counts,
    _generators_containing,
    _interval_masks,
    _plane_counts,
    _shannon_counts,
    _trial_batch,
)
from misact.graph import _mis_by_pivot, set_of
from misact.pruned import random_pruned_instance

from reference import subset_histogram
from sample_graphs import all_named_graphs


def brute_union_size(n: int, cubes: list[tuple[int, int]]) -> int:
    return sum(
        1
        for x in range(1 << n)
        if any(lo & ~x == 0 and x & ~hi == 0 for lo, hi in cubes)
    )


def brute_repeats(n: int, cubes: list[tuple[int, int]]) -> tuple[int, int | None]:
    """Number of subsets of the n bits lying in two or more of the cubes, and the smallest."""
    repeated = [
        x
        for x in range(1 << n)
        if sum(1 for lo, hi in cubes if lo & ~x == 0 and x & ~hi == 0) >= 2
    ]
    return len(repeated), min(repeated, default=None)


def random_cube(rng: random.Random, n: int) -> tuple[int, int]:
    lo = rng.getrandbits(n) & rng.getrandbits(n)
    return lo, lo | rng.getrandbits(n)


class TestCoverCounts:
    """The counter, and through the subclasses below each of its two cores."""

    count = staticmethod(_cover_counts)

    def test_edge_cases(self):
        count = self.count
        assert count(0, []) == (0, 0, None)
        assert count(0, [(0, 0)]) == (1, 0, None)  # n = 0: the one empty subset
        assert count(0, [(0, 0)] * 2) == (1, 1, 0)
        assert count(0b1111, []) == (0, 0, None)
        assert count(0b1111, [(0, 0b1111)]) == (16, 0, None)  # the full cube
        assert count(0b1111, [(0, 0b1111)] * 2) == (16, 16, 0)  # two full cubes
        assert count(0b1111, [(0, 0b1111)] * 3) == (16, 16, 0)  # covered twice over
        assert count(0b1111, [(0b0101, 0b0101)]) == (1, 0, None)  # a single point
        assert count(0b1111, [(0b0001, 0b1111), (0, 0b1111)]) == (16, 8, 0b0001)
        assert count(0b111, [(0b001, 0b011)] * 3) == (2, 2, 0b001)  # repeats count once
        # a duplicated cube counts as repeated; the cube on bit 3 is disjoint from it
        dup = (0b0001, 0b0111)
        assert count(0b1111, [dup, (0b1000, 0b1111), dup]) == (12, 4, 0b0001)
        # one whole cube: it repeats the union of the other two, which are disjoint
        assert count(0b1111, [(0, 0b1111), (0b0001, 0b0011), (0b0100, 0b1100)]) == (16, 4, 0b0001)
        # ... and the smallest subset of that union comes from its second cube
        assert count(0b1111, [(0, 0b1111), (0b0110, 0b0111), (0b0100, 0b1100)]) == (16, 4, 0b0100)

    def test_matches_brute_force_on_random_cubes(self):
        count = self.count
        rng = random.Random(11)
        for _ in range(400):
            n = rng.randint(0, 9)
            cubes = [random_cube(rng, n) for _ in range(rng.randint(0, 14))]
            covered, repeated, least = count((1 << n) - 1, cubes)
            assert covered == brute_union_size(n, cubes)
            assert (repeated, least) == brute_repeats(n, cubes)

    def test_many_small_cubes(self):
        count = self.count
        rng = random.Random(12)
        n = 12
        cubes = []
        for _ in range(300):  # cubes with 2-4 free bits, so the union is ragged
            lo = rng.getrandbits(n)
            free = 0
            for b in rng.sample(range(n), rng.randint(2, 4)):
                free |= 1 << b
            cubes.append((lo & ~free, lo | free))
        covered, repeated, least = count((1 << n) - 1, cubes)
        assert covered == brute_union_size(n, cubes)
        assert (repeated, least) == brute_repeats(n, cubes)

    def test_either_side_of_the_plane_crossover(self):
        rng = random.Random(14)
        for n in (_PLANE_MAX, _PLANE_MAX + 1):
            for _ in range(6):
                cubes = [random_cube(rng, n) for _ in range(rng.randint(1, 24))]
                covered, repeated, least = self.count((1 << n) - 1, cubes)
                assert covered == brute_union_size(n, cubes)
                assert (repeated, least) == brute_repeats(n, cubes)


class TestPlaneCounts(TestCoverCounts):
    count = staticmethod(_plane_counts)


class TestShannonCounts(TestCoverCounts):
    count = staticmethod(_shannon_counts)


def test_counter_picks_its_core(monkeypatch):
    """Planes for a whole lattice of up to _PLANE_MAX bits, Shannon expansion otherwise."""
    calls = []
    for core in ("_plane_counts", "_shannon_counts"):
        monkeypatch.setattr(misact.activities, core,
                            lambda free, cubes, core=core: calls.append((core, free)))
    frees = [0, 1, 0b111, (1 << _PLANE_MAX) - 1, (1 << _PLANE_MAX + 1) - 1, 0b110, 0b1011]
    for free in frees:
        _cover_counts(free, [])
    planes = [(f, "_plane_counts") for f in frees[:4]]
    assert calls == [(c, f) for f, c in planes + [(f, "_shannon_counts") for f in frees[4:]]]


def test_counts_on_the_bits_of_free():
    """Only the subsets of `free` count, and the cubes are read on its bits alone;
    the smallest repeated subset is a subset of free too."""
    rng = random.Random(15)
    for _ in range(200):
        n = rng.randint(1, 9)
        free = rng.getrandbits(n)
        cubes = [random_cube(rng, n) for _ in range(rng.randint(0, 10))]
        subsets = [x for x in range(1 << n) if x & ~free == 0]
        held = [sum(1 for lo, hi in cubes if lo & free & ~x == 0 and x & ~hi == 0)
                for x in subsets]
        repeated = [x for x, h in zip(subsets, held) if h >= 2]
        expected = (len(held) - held.count(0), len(repeated), min(repeated, default=None))
        assert _cover_counts(free, cubes) == expected
        if free & (free + 1):  # not a whole lattice: the Shannon core
            assert _shannon_counts(free, cubes) == expected


def histogram_verdict(C):
    """(repeated count, witness subset, its first two generators) from the 2^n scan."""
    counts = subset_histogram(C)
    assert counts.count(0) == 0
    repeated = len(counts) - counts.count(1)
    if not repeated:
        return 0, None
    x = next(i for i, c in enumerate(counts) if c >= 2)
    gens = [e.generator for e in C.entries if e.interval.contains(set_of(x))]
    return repeated, (set_of(x), gens[0], gens[1])


def assert_matches_histogram(C):
    v = partition_verdict(C)
    repeated, witness = histogram_verdict(C)
    assert v.repeated_subset_count == repeated
    assert v.is_partition == (repeated == 0)
    assert (tuple(v.witness) if v.witness else None) == witness


@st.composite
def relabelled_graphs(draw, max_n: int = 12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=3 * n)) if pairs else []
    perm = draw(st.permutations(range(1, n + 1)))
    return relabel(Graph(n, edges), perm)


class TestVerdictAgainstHistogram:
    @settings(max_examples=80, deadline=None)
    @given(relabelled_graphs())
    def test_count_and_witness_match(self, g):
        assert_matches_histogram(cover(g))

    def test_seeded_non_partition_at_n21(self):
        g = random_graph(21, 0.3, seed=1)
        c = cover(g)
        assert not partition_verdict(c).is_partition
        assert_matches_histogram(c)


def traced_verdict(C):
    """partition_verdict(C) and the peak bytes it allocated, by tracemalloc."""
    tracemalloc.start()
    try:
        v = partition_verdict(C)
        return v, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestVerdictWithoutHistogram:
    # A 2^23 byte table alone is 8 MB; the exact verdict needs far less.
    PEAK_LIMIT = 1 << 20

    def test_partition(self):
        tree = random_pruned_instance(random.Random(6), max_vertices=24).tree
        assert tree.n == 23
        v, peak = traced_verdict(cover(tree))
        assert peak < self.PEAK_LIMIT
        assert v.is_partition and v.repeated_subset_count == 0 and v.witness is None

    def test_non_partition(self):
        g = random_graph(23, 0.3, seed=3)
        c = cover(g)
        v, peak = traced_verdict(c)
        assert peak < self.PEAK_LIMIT
        assert not v.is_partition
        assert v.repeated_subset_count == 4292224  # the histogram's count
        assert v.witness.subset == frozenset()  # its smallest repeated subset
        excess = sum(e.interval.size() for e in c.entries) - (1 << g.n)
        assert 0 < v.repeated_subset_count <= excess
        gens = [e for e in c.entries if e.interval.contains(v.witness.subset)]
        assert [e.generator for e in gens[:2]] == [v.witness.generator_a,
                                                   v.witness.generator_b]


class TestRepeatedDetailAgainstHistogram:
    def test_sample_and_seeded_graphs(self):
        rng = random.Random(13)
        graphs = all_named_graphs() + [
            random_graph(rng.randint(0, 12), rng.choice((0.2, 0.3, 0.5)), rng=rng)
            for _ in range(80)
        ]
        non_partitions = 0
        for g in graphs:
            c = cover(g)
            masks = _interval_masks(c)
            expected = [
                (set_of(x), _generators_containing(c, masks, x))
                for x, count in enumerate(subset_histogram(c))
                if count >= 2
            ]
            assert repeated_subsets_detail(c) == expected
            non_partitions += bool(expected)
        assert non_partitions >= 40  # most seeded graphs repeat subsets


def test_shannon_counts_do_not_follow_the_cube_order():
    """Any order of the cubes gives the same counts and smallest repeated subset: the
    trial ends of G(n, 0.3), n 13-16, under seeded labellings, and random cubes on
    part of a lattice."""
    rng = random.Random(16)
    cases = []
    for n in (13, 14, 15, 16):
        g = random_graph(n, 0.3, rng=rng)
        gens = list(_mis_by_pivot(g))
        for _ in range(3):
            perm = tuple(rng.sample(range(1, n + 1), n))
            cases.append(((1 << n) - 1, _trial_batch(g, gens, [perm])[1](0)))
    for _ in range(40):
        n = rng.randint(1, 10)
        cases.append((rng.getrandbits(n), [random_cube(rng, n) for _ in range(rng.randint(0, 12))]))
    for free, cubes in cases:
        expected = _shannon_counts(free, cubes)
        for _ in range(4):
            assert _shannon_counts(free, rng.sample(cubes, len(cubes))) == expected
