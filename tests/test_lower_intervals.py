"""Under a partitioning labelling the lower intervals partition the independent sets.

For an independent set X, the greedy of locate_generator keeps all of X, so
the located generator B holds X and X lies in [B - Int(B); B].  Under a
partition that is X's only interval, so the lower intervals [A - Int(A); A]
partition the independent sets, and the sum over A of 2^|Int(A)| is i(G),
the number of independent sets.  The converse fails: the identity holds for
some labellings that do not partition, and fails for others.
"""

import random
from itertools import combinations

from misact import cover, partition_verdict, random_graph, relabel

SEED = 20261020


def independent_sets(g) -> list[int]:
    """Masks of the independent sets of g, by brute force over every subset."""
    edges = [(1 << (u - 1)) | (1 << (v - 1))
             for u, v in combinations(range(1, g.n + 1), 2) if v in g.neighbors(u)]
    return [x for x in range(1 << g.n) if all(x & e != e for e in edges)]


def seeded_labellings(count):
    """(graph, cover, is partition) for random labellings of seeded G(n <= 11, p)."""
    rng = random.Random(SEED)
    for _ in range(count):
        g = random_graph(rng.randint(1, 11), rng.uniform(0.1, 0.7), rng=rng)
        perm = list(range(1, g.n + 1))
        rng.shuffle(perm)
        h = relabel(g, perm)
        c = cover(h)
        yield h, c, partition_verdict(c).is_partition


def test_lower_intervals_partition_the_independent_sets():
    seen = {True: 0, False: 0}
    identity = {True: 0, False: 0}  # over the labellings that do not partition
    for g, c, is_partition in seeded_labellings(400):
        seen[is_partition] += 1
        total = sum(1 << e.int_mask.bit_count() for e in c.entries)
        independent = independent_sets(g)
        if is_partition:
            assert total == len(independent)
            for x in independent:  # each in exactly one lower interval
                held = [e for e in c.entries if e.lower_mask & ~x == 0 and x & ~e.mis_mask == 0]
                assert len(held) == 1
        else:
            identity[total == len(independent)] += 1
    assert min(seen.values()) >= 100
    assert identity[False] > 0  # the identity fails without a partition
    assert identity[True] > 0  # and holds for some labellings that do not partition
