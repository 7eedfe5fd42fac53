"""The indexed pairwise interval scan against a plain double loop, and the
counter's smallest repeated subset against the meets of the pairs it finds."""

import random

from misact import cover, random_graph
from misact.activities import _INDEX_MIN, _cover_counts, _interval_masks, _overlapping_pairs
from misact.pruned import random_pruned_instance


def all_pairs(masks):
    """Every intersecting pair i < j, by testing each pair in turn."""
    for i in range(len(masks)):
        lo_i, hi_i = masks[i]
        for j in range(i + 1, len(masks)):
            lo_j, hi_j = masks[j]
            lo = lo_i | lo_j
            if lo & ~hi_i == 0 and lo & ~hi_j == 0:
                yield i, j


def first_pair(masks):
    return next(all_pairs(masks), None)


def first_overlap(masks):
    return next(_overlapping_pairs(masks), None)


def random_intervals(rng, k, n, free):
    """k nonempty intervals over n vertices, each with about `free` free bits."""
    out = []
    for _ in range(k):
        hi = rng.getrandbits(n) if n else 0
        lo = hi
        for v in range(n):
            if hi >> v & 1 and rng.random() < free:
                lo &= ~(1 << v)
        out.append((lo, hi))
    return out


class TestRandomIntervals:
    def test_empty_and_single(self):
        assert first_overlap([]) is None
        assert first_overlap([(0b01, 0b11)]) is None
        assert first_overlap([(0, 0)]) is None
        assert first_overlap([(0, 0), (0, 0)]) == (0, 1)  # equal points meet

    def test_matches_double_loop(self):
        # short lists take the direct pair loop, long ones the index
        assert _INDEX_MIN <= 100
        rng = random.Random(31)
        for _ in range(400):
            k = rng.choice((0, 1, 2, rng.randint(3, _INDEX_MIN), rng.randint(_INDEX_MIN, 200)))
            n = rng.randint(0, 18)
            masks = random_intervals(rng, k, n, rng.choice((0.05, 0.2, 0.5)))
            assert first_overlap(masks) == first_pair(masks)
            assert list(_overlapping_pairs(masks)) == list(all_pairs(masks))

    def test_counter_least_is_the_smallest_meet(self):
        """The counter's smallest repeated subset is min(lo_i | lo_j) over the meeting pairs."""
        rng = random.Random(34)
        found = 0
        for _ in range(400):
            k = rng.choice((2, rng.randint(3, _INDEX_MIN), rng.randint(_INDEX_MIN, 200)))
            n = rng.randint(1, 18)
            masks = random_intervals(rng, k, n, rng.choice((0.2, 0.5, 0.8)))
            masks += rng.sample(masks, min(k, rng.randint(0, 3)))  # repeats: equal lower ends
            meets = [masks[i][0] | masks[j][0] for i, j in all_pairs(masks)]
            assert _cover_counts((1 << n) - 1, masks)[2] == min(meets, default=None)
            found += bool(meets)
        assert found > 300
        # covers on both sides of _INDEX_MIN
        sizes = []
        for n in range(6, 19):
            for p in (0.2, 0.35, 0.5):
                masks = _interval_masks(cover(random_graph(n, p, rng=rng)))
                if meets := [masks[i][0] | masks[j][0] for i, j in all_pairs(masks)]:
                    sizes.append(len(masks))
                    assert _cover_counts((1 << n) - 1, masks)[2] == min(meets)
        assert min(sizes) < _INDEX_MIN <= max(sizes)


class TestCovers:
    def test_pruned_hosts_above_25(self):
        # a host that is its pruned tree gives a partition: every row is scanned
        rng = random.Random(32)
        for p, count in ((0.0, 4), (0.05, 6)):
            seen = []
            while len(seen) < count:
                inst = random_pruned_instance(rng, max_vertices=30, host_edge_probability=p)
                if inst.host.n > 25:
                    masks = _interval_masks(cover(inst.host))
                    seen.append(first_overlap(masks))
                    assert seen[-1] == first_pair(masks)
            if p == 0.0:
                assert seen == [None] * count

    def test_random_graphs_26_to_40(self):
        # G(n, 0.3) covers are not partitions
        rng = random.Random(33)
        for n in range(26, 41, 2):
            masks = _interval_masks(cover(random_graph(n, 0.3, rng=rng)))
            got = first_overlap(masks)
            assert got is not None
            assert got == first_pair(masks)
