"""partition_verdict against the subset histogram, and its single pair scan."""

import random

import pytest

import misact.activities
from misact import Graph, cover, partition_verdict, random_graph
from misact.activities import Cover
from misact.graph import set_of

from reference import subset_histogram
from sample_graphs import all_named_graphs, dense_five_overlapping, dense_five_partition


def seeded_graphs(count, seed, max_n=12):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(0, max_n)
        yield random_graph(n, rng.choice((0.1, 0.3, 0.5, 0.8)), rng=rng)


def variants(c):
    """The cover, the cover without its first entry, and with it repeated."""
    yield c
    yield Cover(c.n, c.entries[1:])
    yield Cover(c.n, c.entries[:1] + c.entries)


def holds(e, x):
    return e.lower_mask & ~x == 0 and x & ~e.upper_mask == 0


def expected_within_bound(c):
    """(misses, None) on a broken cover, else (0, (count, witness)).

    The witness is the smallest repeated subset with its first two
    generators, or None for a partition.
    """
    counts = subset_histogram(c)
    missed = counts.count(0)
    if missed:
        return missed, None
    repeated = [x for x, k in enumerate(counts) if k >= 2]
    if not repeated:
        return 0, (0, None)
    x = repeated[0]
    gens = [e.generator for e in c.entries if holds(e, x)]
    return 0, (len(repeated), (x, gens[0], gens[1]))


def first_pair_by_double_loop(c):
    for i, a in enumerate(c.entries):
        for b in c.entries[i + 1:]:
            lo = a.lower_mask | b.lower_mask
            if lo & ~a.upper_mask == 0 and lo & ~b.upper_mask == 0:
                return lo, a.generator, b.generator
    return None


def check(c, bound):
    if c.n <= bound:
        missed, want = expected_within_bound(c)
        if missed:
            with pytest.raises(RuntimeError, match=f"^cover misses {missed} subsets;"):
                partition_verdict(c, oracle_bound=bound)
            return
        count, witness = want
        v = partition_verdict(c, oracle_bound=bound)
        assert v.is_partition == (count == 0)
        assert v.repeated_subset_count == count
    else:
        pair = first_pair_by_double_loop(c)
        sizes = sum(e.interval.size() for e in c.entries)
        if (pair is None) != (sizes == 1 << c.n):
            with pytest.raises(RuntimeError, match="partition methods disagree"):
                partition_verdict(c, oracle_bound=bound)
            return
        witness = pair
        v = partition_verdict(c, oracle_bound=bound)
        assert v.is_partition == (pair is None)
        assert v.repeated_subset_count == (0 if pair is None else None)
    if witness is None:
        assert v.witness is None
    else:
        x, a, b = witness
        assert v.witness.subset == set_of(x)
        assert (v.witness.generator_a, v.witness.generator_b) == (a, b)


class TestAgainstHistogram:
    def test_sample_graphs(self):
        for g in all_named_graphs() + [Graph(0), Graph(1)]:
            for c in variants(cover(g)):
                for bound in (0, g.n - 1, 25):
                    check(c, bound)

    def test_seeded_random_graphs(self):
        for g in seeded_graphs(80, 91):
            for c in variants(cover(g)):
                for bound in (0, g.n - 1, 25):
                    check(c, bound)


class TestSinglePairScan:
    @pytest.fixture
    def scans(self, monkeypatch):
        calls = []
        scan = misact.activities._overlapping_pairs

        def counted(masks):
            calls.append(len(masks))
            return scan(masks)

        monkeypatch.setattr(misact.activities, "_overlapping_pairs", counted)
        return calls

    @pytest.mark.parametrize(
        "build, bound, partition",
        [
            (dense_five_partition, 25, True),
            (dense_five_overlapping, 25, False),
            (dense_five_overlapping, 3, False),
        ],
    )
    def test_one_scan_per_verdict(self, scans, build, bound, partition):
        c = cover(build())
        assert partition_verdict(c, oracle_bound=bound).is_partition == partition
        assert len(scans) == 1

    def test_one_scan_on_seeded_graphs(self, scans):
        for g in seeded_graphs(40, 92):
            c = cover(g)
            for bound in (0, 25):
                scans.clear()
                partition_verdict(c, oracle_bound=bound)
                assert len(scans) == 1
