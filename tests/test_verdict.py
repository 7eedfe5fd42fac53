"""partition_verdict against the subset histogram, its single pair scan, its
checks on broken covers and a broken counter, and its witness against the
pair scan resumed over every pair."""

import random

import pytest

import misact.activities
from misact import Graph, cover, partition_verdict, random_graph
from misact.activities import (
    _INDEX_MIN,
    ActivityReport,
    Cover,
    PartitionVerdict,
    _interval_masks,
    _repeats,
)
from misact.graph import set_of

from reference import partition_verdict_resumed, subset_histogram
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

        def counted(masks, planes=None):
            calls.append(len(masks))
            return scan(masks, planes)

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


def without(c, i):
    entries = list(c.entries)
    del entries[i]
    return Cover(c.n, tuple(entries))


def repeated_by_histogram(c):
    counts = subset_histogram(c)
    assert counts.count(0) == 0
    return len(counts) - counts.count(1)


class TestFaults:
    @pytest.mark.parametrize(
        "build, drop, missed",
        [
            (dense_five_partition, 0, 16),
            (dense_five_partition, -1, 4),
            (dense_five_overlapping, 0, 16),
            (lambda: random_graph(12, 0.3, seed=5), 0, 1024),
        ],
    )
    def test_missing_entry(self, build, drop, missed):
        broken = without(cover(build()), drop)
        assert subset_histogram(broken).count(0) == missed
        message = f"^cover misses {missed} subsets; coverage violated$"
        with pytest.raises(RuntimeError, match=message):
            partition_verdict(broken)
        with pytest.raises(RuntimeError, match=message):
            _repeats(broken.n, _interval_masks(broken), 25)

    def test_missing_entry_on_seeded_graphs(self):
        for g in seeded_graphs(30, 93):
            c = cover(g)
            for i in {0, len(c.entries) // 2, len(c.entries) - 1}:
                broken = without(c, i)
                missed = subset_histogram(broken).count(0)
                if missed:
                    with pytest.raises(RuntimeError, match=f"^cover misses {missed} subsets;"):
                        partition_verdict(broken)
                else:  # the other intervals hold the dropped one
                    assert partition_verdict(broken).repeated_subset_count == (
                        repeated_by_histogram(broken)
                    )

    @pytest.mark.parametrize(
        "build, count",
        [
            (dense_five_overlapping, 18),
            (dense_five_partition, 16),
            (lambda: random_graph(12, 0.3, seed=5), 2752),
        ],
    )
    def test_duplicated_entry(self, build, count):
        c = cover(build())
        doubled = Cover(c.n, c.entries[:1] + c.entries)
        assert repeated_by_histogram(doubled) == count
        v = partition_verdict(doubled)
        assert not v.is_partition and v.repeated_subset_count == count

    def test_duplicated_entry_on_seeded_graphs(self):
        for g in seeded_graphs(30, 94):
            c = cover(g)
            for i in {0, len(c.entries) - 1}:
                doubled = Cover(c.n, c.entries + c.entries[i:i + 1])
                count = repeated_by_histogram(doubled)
                assert count >= c.entries[i].interval.size()
                assert partition_verdict(doubled).repeated_subset_count == count

    @pytest.mark.parametrize(
        "build, repeated", [(dense_five_overlapping, 0), (dense_five_partition, 1)]
    )
    def test_counter_disagreeing_with_the_pairs(self, monkeypatch, build, repeated):
        count = misact.activities._cover_counts

        def broken(free, cubes):
            return count(free, cubes)[0], repeated, 0 if repeated else None

        monkeypatch.setattr(misact.activities, "_cover_counts", broken)
        c = cover(build())
        message = "^partition methods disagree on a covered lattice$"
        with pytest.raises(RuntimeError, match=message):
            partition_verdict(c)
        with pytest.raises(RuntimeError, match=message):
            _repeats(c.n, _interval_masks(c), 25)

    def test_counter_naming_a_subset_of_one_interval(self, monkeypatch):
        """A smallest repeated subset that only one interval holds is a disagreement,
        not an IndexError: the verdict checks its witness's generators."""
        count = misact.activities._cover_counts
        c = cover(dense_five_overlapping())
        single = next(x for x, held in enumerate(subset_histogram(c)) if held == 1)
        monkeypatch.setattr(misact.activities, "_cover_counts",
                            lambda free, cubes: (*count(free, cubes)[:2], single))
        with pytest.raises(RuntimeError, match="^partition methods disagree on a covered lattice$"):
            partition_verdict(c)

    def test_above_the_bound(self, monkeypatch):
        def refuse(free, cubes):
            raise AssertionError("counted above the bound")

        monkeypatch.setattr(misact.activities, "_cover_counts", refuse)
        c = cover(dense_five_overlapping())
        v = partition_verdict(c, oracle_bound=4)
        assert not v.is_partition and v.repeated_subset_count is None
        x, a, b = first_pair_by_double_loop(c)
        assert tuple(v.witness) == (set_of(x), a, b)
        c = cover(dense_five_partition())
        assert partition_verdict(c, oracle_bound=4) == PartitionVerdict(True, 0, None)
        for g in seeded_graphs(40, 95):
            c = cover(g)
            v = partition_verdict(c, oracle_bound=g.n - 1)
            pair = first_pair_by_double_loop(c)
            if pair is None:
                assert v == PartitionVerdict(True, 0, None)
            else:
                assert v.repeated_subset_count is None
                assert tuple(v.witness) == (set_of(pair[0]), pair[1], pair[2])


def witness_covers(seed, count):
    """Seeded covers with fewer and with at least _INDEX_MIN entries, each
    also with one entry dropped and with one duplicated."""
    rng = random.Random(seed)
    out = []
    while len(out) < 4 * count:
        g = random_graph(rng.randint(4, 21), rng.choice((0.2, 0.3, 0.5)), rng=rng)
        c = cover(g)
        i = rng.randrange(len(c.entries))
        out += [c, Cover(c.n, c.entries[:i] + c.entries[i + 1:]),
                Cover(c.n, c.entries[:i + 1] + c.entries[i:]),
                Cover(c.n, c.entries + c.entries[i:i + 1])]
    return out


class TestWitnessAgainstResumedScan:
    """The counter's smallest repeated subset against the scan resumed over every pair."""

    @staticmethod
    def outcome(verdict_fn, c, bound):
        try:
            return verdict_fn(c, oracle_bound=bound)
        except RuntimeError as exc:
            return str(exc)

    def test_seeded_covers(self):
        covers = witness_covers(96, 60)
        sizes = [len(c.entries) for c in covers]
        assert min(sizes) < _INDEX_MIN <= max(sizes)
        assert sum(s >= _INDEX_MIN for s in sizes) >= 20
        ties = witnesses = 0
        for c in covers:
            los = [e.lower_mask for e in c.entries]
            ties += len(set(los)) < len(los)
            for bound in (25, c.n - 1):
                got = self.outcome(partition_verdict, c, bound)
                assert got == self.outcome(partition_verdict_resumed, c, bound)
                witnesses += isinstance(got, PartitionVerdict) and got.witness is not None
        assert ties > len(covers) // 2 and witnesses > len(covers)

    def test_equal_lower_ends(self):
        # every interval holds the empty set: the first pair's meet, 0, is the smallest
        for k in (3, _INDEX_MIN + 5):
            c = Cover(8, tuple(ActivityReport(1 << (j % 8), 1 << (j % 8), 255 & ~(1 << (j % 8)))
                               for j in range(k)))
            v = partition_verdict(c, oracle_bound=25)
            assert v == partition_verdict_resumed(c, oracle_bound=25)
            assert v.witness.subset == frozenset()
