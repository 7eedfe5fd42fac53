"""Vertex activities and the interval covers they generate.

Each maximal independent set A owns the interval

    [A - Int(A);  A + Ext(A)]

where Ext(A) holds the vertices outside A adjacent to a smaller member of A,
and Int(A) holds the members of A that no larger neighbour can replace.  The
intervals of all maximal independent sets always cover the full subset
lattice; whether they form a partition depends on the labelling, and the
machinery here decides that question three independent ways.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain, permutations
from typing import Iterable, Iterator, Mapping, NamedTuple

from .graph import (
    Graph,
    Interval,
    _bits,
    _is_independent_mask,
    _mis_masks,
    _vertex_set_mask,
    enumerate_maximal_independent_sets,  # noqa: F401  bench/spans.py traces it here
    is_maximal_independent,
    relabel,
    set_of,
)

__all__ = [
    "ActivityReport",
    "Cover",
    "PartitionVerdict",
    "RepeatWitness",
    "ActivityPolynomial",
    "LabellingSearchResult",
    "MisDifference",
    "ext_active",
    "subs",
    "int_active",
    "interval_of",
    "cover",
    "locate_generator",
    "subset_multiplicity",
    "intervals_intersect",
    "partition_verdict",
    "repeated_subsets_detail",
    "search_labelling",
    "activity_polynomial",
    "mis_difference_decomposition",
]

# Up to this many vertices, unless overridden, partition_verdict reports the
# exact repeated-subset count, verify walks all 2^n subsets through
# locate_generator, and repeated_subsets_detail lists the repeated subsets.
DEFAULT_ORACLE_BOUND = 25
# No override may exceed this one: it caps verify's walk over all 2^bound subsets.
MAX_ORACLE_BOUND = 30
# Exhaustive labelling search walks at most this many vertices' n! permutations.
FACTORIAL_BOUND = 9

ACTIVITY_MODES = ("standard", "reversed")


def _independent_mask_checked(G: Graph, A: Iterable[int]) -> int:
    m = _vertex_set_mask(G, A)
    if not _is_independent_mask(G, m):
        raise ValueError(f"{sorted(set_of(m))} is not independent")
    return m


def ext_active(G: Graph, A: Iterable[int], mode: str = "standard") -> frozenset[int]:
    """Externally active vertices of the independent set A.

    Standard mode collects each vertex outside A that is adjacent to and
    greater than some member of A; reversed mode flips the comparison.
    """
    if mode not in ACTIVITY_MODES:
        raise ValueError(f"mode must be one of {ACTIVITY_MODES}")
    m = _independent_mask_checked(G, A)
    if mode == "standard":
        return set_of(_activity_masks(G, m)[1])
    out = 0
    for a in _bits(m):
        out |= G.adj_mask[a] & ((1 << (a - 1)) - 1)  # neighbours labelled < a
    return set_of(out & ~m)


def subs(G: Graph, A: Iterable[int], v: int) -> frozenset[int]:
    """Neighbours of v that can substitute v in A while keeping independence."""
    m = _independent_mask_checked(G, A)
    if v < 1 or not m >> (v - 1) & 1:
        raise ValueError(f"vertex {v} is not a member of {sorted(set_of(m))}")
    rest = m ^ (1 << (v - 1))  # u can replace v when u has no neighbour left in A - {v}
    return frozenset(u for u in _bits(G.adj_mask[v]) if not G.adj_mask[u] & rest)


def _activity_masks(G: Graph, m: int) -> tuple[int, int]:
    """(Int, Ext) of the independent set m in one pass over its non-members.

    A non-member u with x = N(u) & A is externally active when x holds a
    label below u.  When x is the single member v, u can replace v (it has
    no other neighbour in A), and if u > v that makes v internally passive.
    """
    passive = ext = 0
    rest = G.full_mask & ~m
    while rest:
        bit = rest & -rest
        x = G.adj_mask[bit.bit_length()] & m
        if x & (bit - 1):
            ext |= bit
            if not x & (x - 1):
                passive |= x
        rest ^= bit
    return m & ~passive, ext


def int_active(G: Graph, A: Iterable[int]) -> frozenset[int]:
    """Internally active vertices: members no larger neighbour can replace."""
    m = _independent_mask_checked(G, A)
    return set_of(_activity_masks(G, m)[0])


@dataclass(frozen=True, slots=True)
class ActivityReport:
    """Activities of one maximal independent set and the interval it generates.

    Built from bitmasks (bit v-1 stands for vertex v): the generator A, its
    internally active members Int(A) and its externally active vertices
    Ext(A).  The interval's endpoints are `lower_mask` = A - Int(A) and
    `upper_mask` = A + Ext(A).  The vertex-set attributes `generator`,
    `int_`, `ext`, `interval`, `lower` and `upper` are frozensets built on
    access.
    """

    mis_mask: int
    int_mask: int
    ext_mask: int

    @property
    def generator(self) -> frozenset[int]:
        return set_of(self.mis_mask)

    @property
    def int_(self) -> frozenset[int]:
        return set_of(self.int_mask)

    @property
    def ext(self) -> frozenset[int]:
        return set_of(self.ext_mask)

    @property
    def lower_mask(self) -> int:
        return self.mis_mask & ~self.int_mask

    @property
    def upper_mask(self) -> int:
        return self.mis_mask | self.ext_mask

    @property
    def lower(self) -> frozenset[int]:
        return set_of(self.lower_mask)

    @property
    def upper(self) -> frozenset[int]:
        return set_of(self.upper_mask)

    @property
    def interval(self) -> Interval:
        return Interval(self.lower, self.upper)


@dataclass(frozen=True)
class Cover:
    """Interval cover of the subset lattice, one entry per maximal independent set."""

    n: int
    entries: tuple[ActivityReport, ...]

    def generators(self) -> list[frozenset[int]]:
        return [e.generator for e in self.entries]

    def multiplicity_of(self, X: Iterable[int]) -> int:
        s = frozenset(X)
        return sum(1 for e in self.entries if e.interval.contains(s))


def interval_of(G: Graph, A: Iterable[int]) -> ActivityReport:
    """Activity report of a maximal independent set A."""
    m = _vertex_set_mask(G, A)
    if not is_maximal_independent(G, set_of(m)):
        raise ValueError(f"{sorted(set_of(m))} is not a maximal independent set")
    return ActivityReport(m, *_activity_masks(G, m))


def cover(G: Graph) -> Cover:
    """Interval cover generated by all maximal independent sets, canonical order."""
    return Cover(
        n=G.n,
        entries=tuple(ActivityReport(m, *_activity_masks(G, m)) for m in _mis_masks(G)),
    )


def _locate_generator_mask(G: Graph, xm: int) -> int:
    adj = G.adj_mask
    b = 0
    m = xm
    while m:  # members of X, ascending
        bit = m & -m
        if not adj[bit.bit_length()] & b:
            b |= bit
        m ^= bit
    rest = G.full_mask & ~xm
    while rest:  # non-members, descending
        v = rest.bit_length()
        bit = 1 << (v - 1)
        if not adj[v] & b:
            b |= bit
        rest ^= bit
    return b


def locate_generator(G: Graph, X: Iterable[int]) -> frozenset[int]:
    """A maximal independent set whose interval contains X.

    Greedy pass over the vertex sequence "members of X ascending, then the
    rest descending", keeping whatever stays independent.  The result B
    satisfies X - B <= Ext(B) and B - X <= Int(B), hence contains X in its
    generated interval.
    """
    return set_of(_locate_generator_mask(G, _vertex_set_mask(G, X)))


def subset_multiplicity(G: Graph, X: Iterable[int]) -> int:
    """Number of maximal independent sets whose interval contains X.

    Always at least 1.  Builds the full cover; prefer Cover.multiplicity_of
    when querying many subsets of one graph.
    """
    return cover(G).multiplicity_of(set_of(_vertex_set_mask(G, X)))


def intervals_intersect(a: Interval, b: Interval) -> bool:
    """Intervals meet exactly when the union of lowers fits under both uppers."""
    lo = a.lower | b.lower
    return lo <= a.upper and lo <= b.upper


class RepeatWitness(NamedTuple):
    """A subset generated by two distinct maximal independent sets."""

    subset: frozenset[int]
    generator_a: frozenset[int]
    generator_b: frozenset[int]


@dataclass(frozen=True)
class PartitionVerdict:
    """Whether a cover's intervals are pairwise disjoint.

    repeated_subset_count is the number of distinct subsets lying in two or
    more intervals.  It is exact up to the verdict's `oracle_bound`; above it
    a partition still reports 0, but a non-partition reports None (some
    repeat exists, and the exact count was not computed).  The witness is a
    repeated subset with two of its generators; up to the bound it is the
    smallest repeated subset as a bitmask (bit v-1 for vertex v).
    """

    is_partition: bool
    repeated_subset_count: int | None
    witness: RepeatWitness | None


def _interval_masks(C: Cover) -> list[tuple[int, int]]:
    return [(e.lower_mask, e.upper_mask) for e in C.entries]


# Covers with fewer entries skip the index: measured on G(n, p) and tree
# covers with n 10-26, the index overtook the pair loop between 40 and 70.
_INDEX_MIN = 64
# _BIT_DIGITS[b] maps each byte to the ASCII digit of its bit b.
_BIT_DIGITS = [bytes(48 + (x >> b & 1) for x in range(256)) for b in range(8)]


def _columns(rows: list[int], width: int) -> list[int]:
    """Transpose a bit matrix: bit j of column v is bit v of rows[j].

    Every row must fit in `width` bits.  Column v is the byte plane v // 8
    of the rows, sliced out of one buffer, with each byte turned into the
    digit of its bit v % 8 by `bytes.translate`: the work per cell runs in C.
    """
    size = (width + 7) // 8
    data = b"".join(r.to_bytes(size, "little") for r in reversed(rows))
    return [
        int(data[v >> 3::size].translate(_BIT_DIGITS[v & 7]), 2) for v in range(width)
    ]


def _overlapping_pairs(masks: list[tuple[int, int]]) -> Iterator[tuple[int, int]]:
    """Every intersecting pair (i, j), i < j, in lexicographic order.

    Every interval must be nonempty (lo <= hi).  Intervals i and j meet when
    lo_i <= hi_j and lo_j <= hi_i.  Per vertex bit, two k-bit index sets
    over the entries hold those whose upper endpoint has the bit and those
    whose lower endpoint lacks it.  Row i starts from the entries after i,
    keeps those whose upper has each bit of lo_i and whose lower lacks each
    bit outside hi_i, and what is left are its partners: about k*n big-int
    operations in place of k^2 pair tests.  Below _INDEX_MIN entries the
    pairs are tested directly, which is cheaper there.
    """
    k = len(masks)
    if k < _INDEX_MIN:
        for i, (lo_i, hi_i) in enumerate(masks):
            for j in range(i + 1, k):
                lo_j, hi_j = masks[j]
                lo = lo_i | lo_j
                if lo & ~hi_i == 0 and lo & ~hi_j == 0:
                    yield i, j
        return
    span = 0
    for _, hi in masks:
        span |= hi
    width = span.bit_length()
    every = (1 << k) - 1
    upper_has = _columns([hi for _, hi in masks], width)
    lower_lacks = [every ^ c for c in _columns([lo for lo, _ in masks], width)]
    for i, (lo, hi) in enumerate(masks):
        cand = every >> (i + 1) << (i + 1)
        for v in _bits(lo):
            cand &= upper_has[v - 1]
        for v in _bits(span & ~hi):
            cand &= lower_lacks[v - 1]
        for j in _bits(cand):
            yield i, j - 1


def _check_oracle_bound(oracle_bound: int) -> None:
    if oracle_bound > MAX_ORACLE_BOUND:
        raise ValueError(
            f"oracle bound {oracle_bound} exceeds the limit {MAX_ORACLE_BOUND}"
        )


def _union_size(free: int, cubes: list[tuple[int, int]]) -> int:
    """Number of subsets x of `free` with lo <= x <= hi for some (lo, hi).

    Shannon expansion on a bit the first cube fixes (in lo, or outside hi):
    the two halves are disjoint, and each keeps only the cubes that allow
    its value of the bit.  A cube that fixes no free bit covers the whole
    half, and a lone cube covers 2^(its unfixed bits).  Every cube must be
    nonempty (lo <= hi).  The stack depth stays at most the popcount of free.
    """
    total = 0
    stack = [(free, cubes)]
    while stack:
        free, cubes = stack.pop()
        if not cubes:
            continue
        lo, hi = cubes[0]
        fixed = free & (lo | ~hi)
        if len(cubes) == 1:
            total += 1 << (free & ~fixed).bit_count()
            continue
        if any(not free & (c[0] | ~c[1]) for c in cubes):
            total += 1 << free.bit_count()
            continue
        bit = fixed & -fixed
        free ^= bit
        stack.append((free, [c for c in cubes if not c[0] & bit]))  # bit off
        stack.append((free, [c for c in cubes if c[1] & bit]))  # bit on
    return total


def _meets(
    masks: list[tuple[int, int]], pairs: Iterable[tuple[int, int]]
) -> list[tuple[int, int]]:
    """The distinct intersections [lo_i|lo_j; hi_i&hi_j] of the given pairs.

    `pairs` holds index pairs of intersecting intervals, as yielded by
    _overlapping_pairs(masks), so every meet is nonempty.
    """
    out: dict[tuple[int, int], None] = {}
    for i, j in pairs:
        (lo_i, hi_i), (lo_j, hi_j) = masks[i], masks[j]
        out[lo_i | lo_j, hi_i & hi_j] = None
    return list(out)


def _generators_containing(
    C: Cover, masks: list[tuple[int, int]], x: int
) -> list[frozenset[int]]:
    return [
        e.generator
        for e, (lo, hi) in zip(C.entries, masks)
        if x & ~hi == 0 and lo & ~x == 0
    ]


def partition_verdict(C: Cover, oracle_bound: int = DEFAULT_ORACLE_BOUND) -> PartitionVerdict:
    """Decide partition-hood of a cover by independent methods.

    Method one tests pairwise interval disjointness.  Method two compares the
    summed interval sizes against 2^n, which suffices because the intervals
    are known to cover every subset.  Up to `oracle_bound` vertices a third
    method counts exactly: the union of the intervals must be all 2^n
    subsets, and the repeated subsets are the union of the pairwise interval
    intersections, whose size is reported.  Both unions are counted by
    splitting on fixed bits, so no per-subset table is built; the bound only
    decides whether the exact count is reported.

    Checks run in this order, over one pair scan:
      1. up to the bound, a subset in no interval raises "cover misses";
      2. the first overlapping pair must agree with the size sum;
      3. a partition returns;
      4. above the bound, the first pair gives the witness;
      5. up to it, the scan resumes after that pair to collect the meets,
         whose union must be nonempty.
    A disagreement between methods raises RuntimeError, since it would mean
    the cover violates the coverage guarantee it was built under.
    """
    masks = _interval_masks(C)
    full = (1 << C.n) - 1
    if C.n <= oracle_bound:
        missed = full + 1 - _union_size(full, masks)
        if missed:
            raise RuntimeError(f"cover misses {missed} subsets; coverage violated")
    pairs = _overlapping_pairs(masks)
    first = next(pairs, None)
    size_sum = sum(1 << (hi.bit_count() - lo.bit_count()) for lo, hi in masks)
    if (first is None) != (size_sum == full + 1):
        raise RuntimeError("partition methods disagree on a covered lattice")
    if first is None:
        return PartitionVerdict(True, 0, None)
    if C.n > oracle_bound:
        i, j = first
        witness = RepeatWitness(set_of(masks[i][0] | masks[j][0]),
                                C.entries[i].generator, C.entries[j].generator)
        return PartitionVerdict(False, None, witness)
    meets = _meets(masks, chain([first], pairs))
    repeated = _union_size(full, meets)
    if repeated == 0:
        raise RuntimeError("partition methods disagree on a covered lattice")
    x = min(lo for lo, _ in meets)
    gens = _generators_containing(C, masks, x)
    return PartitionVerdict(False, repeated, RepeatWitness(set_of(x), gens[0], gens[1]))


def repeated_subsets_detail(
    C: Cover, oracle_bound: int = DEFAULT_ORACLE_BOUND
) -> list[tuple[frozenset[int], list[frozenset[int]]]]:
    """Every subset lying in two or more intervals, with its generators.

    Subsets come in ascending bitmask order (bit v-1 for vertex v).
    """
    _check_oracle_bound(oracle_bound)
    if C.n > oracle_bound:
        raise ValueError(f"exhaustive scan refused for n={C.n} > {oracle_bound}")
    masks = _interval_masks(C)
    repeated: set[int] = set()
    # the repeated subsets are the meets' union
    for lo, hi in _meets(masks, _overlapping_pairs(masks)):
        free = hi & ~lo
        s = free
        while True:
            repeated.add(lo | s)
            if not s:
                break
            s = (s - 1) & free
    return [(set_of(x), _generators_containing(C, masks, x)) for x in sorted(repeated)]


@dataclass(frozen=True)
class LabellingSearchResult:
    permutation: tuple[int, ...]  # vertex i is renamed permutation[i-1]
    verdict: PartitionVerdict
    found_partition: bool
    mode: str
    trials: int
    seed: int | None


def _shuffles(n: int, count: int, rng: random.Random) -> Iterator[tuple[int, ...]]:
    """The identity, then `count - 1` seeded shuffles of 1..n."""
    yield tuple(range(1, n + 1))
    for _ in range(count - 1):
        p = list(range(1, n + 1))
        rng.shuffle(p)
        yield tuple(p)


def search_labelling(
    G: Graph,
    budget: int | None = None,
    mode: str = "exhaustive",
    seed: int | None = None,
) -> LabellingSearchResult:
    """Search vertex relabellings for one minimizing the repeated-subset count.

    Exhaustive mode walks all n! permutations in lexicographic order (bounded
    by FACTORIAL_BOUND) so ties resolve to the lexicographically smallest
    permutation; it stops early once a partition shows up.  Random mode tries
    the identity and then `budget - 1` seeded shuffles; the seed is recorded
    in the result so runs can be reproduced.
    """
    if budget is not None and budget <= 0:
        raise ValueError("budget must be positive")
    if mode not in ("exhaustive", "random"):
        raise ValueError("mode must be 'exhaustive' or 'random'")
    if G.n > DEFAULT_ORACLE_BOUND:
        raise ValueError("labelling search needs exact repeat counts; graph too large")

    if mode == "exhaustive":
        if G.n > FACTORIAL_BOUND:
            raise ValueError(
                f"exhaustive search over {G.n}! labellings refused; "
                f"bound is {FACTORIAL_BOUND}!"
            )
        candidates: Iterable[tuple[int, ...]] = permutations(range(1, G.n + 1))
    else:
        if budget is None:
            raise ValueError("random mode needs a trial budget")
        if seed is None:
            seed = 0
        candidates = _shuffles(G.n, budget, random.Random(seed))

    best_perm: tuple[int, ...] | None = None
    best: PartitionVerdict | None = None
    trials = 0
    for perm in candidates:
        v = partition_verdict(cover(relabel(G, perm)))
        trials += 1
        key = (v.repeated_subset_count, perm)
        if best is None or key < (best.repeated_subset_count, best_perm):
            best_perm, best = perm, v
        if mode == "exhaustive" and best.is_partition:
            break

    assert best_perm is not None and best is not None
    return LabellingSearchResult(
        permutation=best_perm,
        verdict=best,
        found_partition=best.is_partition,
        mode=mode,
        trials=trials,
        seed=seed if mode == "random" else None,
    )


@dataclass(frozen=True, eq=True)
class ActivityPolynomial:
    """Coefficients of sum over maximal independent sets of x^|S| y^|Ext| z^|Int|."""

    coefficients: Mapping[tuple[int, int, int], int]

    def evaluate(self, x: float, y: float, z: float) -> float:
        return sum(
            c * x**s * y**e * z**i for (s, e, i), c in self.coefficients.items()
        )

    def mis_count(self) -> int:
        return sum(self.coefficients.values())


def activity_polynomial(G: Graph) -> ActivityPolynomial:
    """Exact coefficient map (|S|, |Ext(S)|, |Int(S)|) -> multiplicity."""
    coeffs: dict[tuple[int, int, int], int] = {}
    for e in cover(G).entries:
        key = (e.mis_mask.bit_count(), e.ext_mask.bit_count(), e.int_mask.bit_count())
        coeffs[key] = coeffs.get(key, 0) + 1
    return ActivityPolynomial(coeffs)


@dataclass(frozen=True)
class MisDifference:
    """Unique exchange decomposition between two maximal independent sets."""

    removed: frozenset[int]  # members of the first set absent from the second
    added: frozenset[int]  # members of the second set absent from the first
    added_meets_ext_of_first: bool
    removed_meets_ext_of_second: bool


def mis_difference_decomposition(
    G: Graph, A: Iterable[int], B: Iterable[int]
) -> MisDifference:
    """Decompose B as (A - removed) + added and report the activity witness.

    At least one of the two witness flags always holds: either some added
    vertex is externally active in A, or some removed vertex is externally
    active in B.
    """
    a = frozenset(A)
    b = frozenset(B)
    for name, s in (("first", a), ("second", b)):
        if not is_maximal_independent(G, s):
            raise ValueError(f"{name} set {sorted(s)} is not a maximal independent set")
    if a == b:
        raise ValueError("the two sets must differ")
    removed = a - b
    added = b - a
    flag_n = bool(added & ext_active(G, a))
    flag_m = bool(removed & ext_active(G, b))
    if not (flag_n or flag_m):
        raise RuntimeError("exchange without an externally active witness")
    return MisDifference(
        removed=removed,
        added=added,
        added_meets_ext_of_first=flag_n,
        removed_meets_ext_of_second=flag_m,
    )
