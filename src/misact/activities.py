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

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from operator import or_, xor
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .graph import (
    Graph,
    Interval,
    _DIGIT_BITS,
    _WORD_BITS,
    _bits,
    _is_independent_mask,
    _is_maximal_independent_mask,
    _mask_bytes,
    _mis_by_pivot,
    _mis_masks,
    _vertex_set_mask,
    _words,
    enumerate_maximal_independent_sets,  # noqa: F401  bench/spans.py traces it here
    is_maximal_independent,
    set_of,
)

__all__ = [
    "ActivityReport",
    "Cover",
    "PartitionVerdict",
    "RepeatWitness",
    "ActivityPolynomial",
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
    "activity_polynomial",
    "mis_difference_decomposition",
]

# Up to this many vertices, unless overridden, partition_verdict reports the
# exact repeated-subset count, verify locates every one of the 2^n subsets,
# and repeated_subsets_detail lists the repeated subsets.
DEFAULT_ORACLE_BOUND = 25
# verify_all and repeated_subsets_detail refuse a larger bound, or one below 0:
# they walk or list up to 2^bound subsets.  partition_verdict counts them and
# takes any bound.
MAX_ORACLE_BOUND = 30

ACTIVITY_MODES = ("standard", "reversed")

# The kernel's planes of a cover's interval ends, (lower, upper): bit j of
# plane v - 1 says whether vertex v lies in the lower (upper) end of entry j.
_Planes = tuple[list[int], list[int]]
_Index = tuple[int, list[int], list[int]]  # the pair walk's index (_pair_index)


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
    up = None if mode == "standard" else _orientation(G, range(G.n, 0, -1))  # labels reversed
    return set_of(_activity_masks(G, m, up)[1])


def subs(G: Graph, A: Iterable[int], v: int) -> frozenset[int]:
    """Neighbours of v that can substitute v in A while keeping independence."""
    m = _independent_mask_checked(G, A)
    if v < 1 or not m >> (v - 1) & 1:
        raise ValueError(f"vertex {v} is not a member of {sorted(set_of(m))}")
    rest = m ^ (1 << (v - 1))  # u can replace v when u has no neighbour left in A - {v}
    return frozenset(u for u in _bits(G.adj_mask[v]) if not G.adj_mask[u] & rest)


def _orientation(G: Graph, perm: Sequence[int] | None = None) -> list[int]:
    """up[v]: the neighbours of v labelled above v when vertex v is labelled perm[v-1].

    Int and Ext compare a vertex's label only with its neighbours', so the
    kernels read a labelling only through this orientation of its edges,
    each from the lower label to the higher.  Without perm the labels are
    the vertex numbers, and up[v] is adj[v] >> v << v; otherwise one pass
    over the labels from the highest down.  Index 0 is unused.
    """
    adj = G.adj_mask
    if perm is None:
        return [a >> v << v for v, a in enumerate(adj)]
    order = [0] * G.n  # order[p - 1]: the vertex labelled p
    for v, p in enumerate(perm, 1):
        order[p - 1] = v
    up, above = [0] * (G.n + 1), 0
    for v in reversed(order):
        up[v] = adj[v] & above
        above |= 1 << (v - 1)
    return up


def _activity_masks(G: Graph, m: int, up: list[int] | None = None) -> tuple[int, int]:
    """(Int, Ext) of the independent set m under the orientation `up`, by default
    the vertex numbers' (_orientation): the cover kernel on its one set, in O(n + m)."""
    [i], [e], _ = _activity_planes(G, [m], _orientation(G) if up is None else up)
    return i, e


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
    """Interval cover of the subset lattice, one entry per maximal independent set.

    A cover that cover() built keeps the bit-plane kernel's _Planes, which
    its verdict's pair index (_pair_index) reads in place of the masks.
    They take no part in equality or repr; a cover made any other way,
    dataclasses.replace included, has none.
    """

    n: int
    entries: tuple[ActivityReport, ...]
    _planes: _Planes | None = field(default=None, init=False, compare=False, repr=False)

    def generators(self) -> list[frozenset[int]]:
        return [e.generator for e in self.entries]

    def multiplicity_of(self, X: Iterable[int]) -> int:
        s = frozenset(X)
        return sum(1 for e in self.entries if e.interval.contains(s))


def interval_of(G: Graph, A: Iterable[int]) -> ActivityReport:
    """Activity report of a maximal independent set A."""
    m = _vertex_set_mask(G, A)
    if not _is_maximal_independent_mask(G, m):
        raise ValueError(f"{sorted(set_of(m))} is not a maximal independent set")
    return ActivityReport(m, *_activity_masks(G, m))


def _end_planes(
    G: Graph, gens: list[int], edges: list[tuple[int, int, int]], width: int
) -> tuple[list[int], list[int], list[int]]:
    """The activity rule, bit-sliced: the planes of the interval ends of many columns.

    A column is an independent set under an orientation of the edges:
    column j * width + t is gens[j] under orientation t.  `edges` holds
    (u, w, p) for each edge {u < w}, where bit t of p is set when
    orientation t puts w above u.  Bit c of the set plane a[v] says whether
    v lies in column c's set.  At width 1 the planes come from gens as they
    are, otherwise from each set repeated `width` times, and one
    multiplication repeats each edge plane once per set.  One pass over the
    edges finds, for each vertex u, the columns where u has one (`one`), two
    or more (`two`), and one below u (`low`) neighbour in the set.  Outside
    the set, `low` makes u externally active; without `two` (`single`), u
    can also replace its one neighbour v, which `low` puts below u, so v is
    internally passive: a second pass marks those.  Returns the set planes,
    the lower ends' planes (the passive members) and the upper ends' (a |
    low), for the vertices 1..n.
    """
    n = G.n
    sets = gens if width == 1 else [m for m in gens for _ in range(width)]
    a = [0, *_columns(sets, n)]  # index 0 is unused
    repeat = ((1 << len(sets)) - 1) // ((1 << width) - 1)  # bit j * width for each set j
    one, two, low = [0] * (n + 1), [0] * (n + 1), [0] * (n + 1)
    for u, w, p in edges:
        p *= repeat
        au, aw = a[u], a[w]
        two[u] |= one[u] & aw
        one[u] |= aw
        low[u] |= aw & ~p
        two[w] |= one[w] & au
        one[w] |= au
        low[w] |= au & p
    single = [lo & ~s & ~t for lo, s, t in zip(low, a, two)]
    passive = [0] * (n + 1)
    for u, w, _ in edges:  # in the columns of single[w], u is w's one neighbour in the set
        passive[u] |= single[w] & a[u]
        passive[w] |= single[u] & a[w]
    return a[1:], passive[1:], list(map(or_, a[1:], low[1:]))  # passive[v] lies in a[v]


def _activity_planes(
    G: Graph, gens: list[int], up: list[int]
) -> tuple[list[int], list[int], _Planes]:
    """(Int, Ext) masks of each independent set in `gens` under the orientation `up`
    (_orientation), and its _Planes: the kernel (_end_planes) at width 1, one column
    per set."""
    edges = [(u, w, up[u] >> (w - 1) & 1) for u, w in G.edges()]
    a, lowers, uppers = _end_planes(G, gens, edges, 1)
    ints, exts = (_columns(list(map(xor, a, ends)), len(gens)) for ends in (lowers, uppers))
    return ints, exts, (lowers, uppers)


def _trial_batch(
    G: Graph, gens: list[int], perms: list[tuple[int, ...]]
) -> tuple[list[int], Callable[[int], list[tuple[int, int]]]]:
    """Orientation keys and interval ends of the independent sets `gens` under many
    labellings, bit-sliced: bit t of an edge plane is perms[t]'s.

    Each label takes one byte, so every label must lie below 128, as it does
    for the at most 25 vertices of a search (search._check_exact).  Each edge
    {u < w} has one plane, of the labellings that put w above u: with one
    byte per labelling, the labels of w, each raised by 128, less those of u
    keep bit 7 of a byte exactly there.  keys[t], the transpose of the edge
    planes (_columns), is perms[t]'s orientation as one int: bit e for the
    e-th edge of G.edges().  ends(t) is (A - Int(A), A + Ext(A)) of each set
    A of gens under perms[t].  Its first call runs the kernel (_end_planes)
    once on the edge planes at width B = len(perms), and transposes its end
    planes into one mask per column; column j * B + t is gens[j] under
    perms[t].
    """
    n, width = G.n, len(perms)
    # byte t of lab[v] holds the label of v in perms[t], counted from the last byte, so
    # that the digits a plane is read from put perms[0] last, as bit 0
    labels = b"".join(map(bytes, reversed(perms)))
    raised = int.from_bytes(b"\x80" * width, "big")
    lab = [0, *(int.from_bytes(labels[v::n], "big") for v in range(n))]
    edges = []  # (u, w, the plane of w labelled above u) per edge {u < w}
    for u, w in G.edges():
        diff = ((lab[w] | raised) - lab[u]).to_bytes(width, "big")
        edges.append((u, w, int(diff.translate(_BIT_DIGITS[7]), 2)))
    columns = None  # (lower ends, upper ends), one mask per column, on demand

    def ends(t: int) -> list[tuple[int, int]]:
        nonlocal columns
        if columns is None:
            _, *planes = _end_planes(G, gens, edges, width)
            columns = [_columns(p, len(gens) * width) for p in planes]
        los, his = columns
        return list(zip(los[t::width], his[t::width]))

    return _columns([p for _, _, p in edges], width), ends


def cover(G: Graph) -> Cover:
    """Interval cover generated by all maximal independent sets, canonical order."""
    gens = _mis_masks(G)
    ints, exts, planes = _activity_planes(G, gens, _orientation(G))
    c = Cover(n=G.n, entries=tuple(map(ActivityReport, gens, ints, exts)))
    object.__setattr__(c, "_planes", planes)  # the frozen Cover's one field outside __init__
    return c


def _locate_planes(G: Graph, planes: list[int], full: int) -> list[int]:
    """locate_generator's greedy on many subsets at once, by bit slicing.

    Bit x of planes[v] says whether v lies in subset x, and `full` has one
    bit per subset.  Returns the planes B: bit x of B[v] says whether v
    lies in the generator located for x.  Index 0 of both is unused.
    """
    adj, up = G.adj_mask, _orientation(G)
    b = [0] * (G.n + 1)
    for v in G.vertices:  # members of x, ascending
        block = 0
        for u in _bits(adj[v] ^ up[v]):  # the neighbours below v
            block |= b[u]
        b[v] = planes[v] & ~block
    for v in reversed(G.vertices):  # non-members, descending
        block = planes[v]
        for u in _bits(adj[v]):
            block |= b[u]
        b[v] |= full & ~block
    return b


def _locate_generator_mask(G: Graph, xm: int) -> int:
    # The one-subset planes are 0 or 1, unpacked from and packed into one binary string.
    b = _locate_planes(G, [0, *format(xm, f"0{G.n}b").encode().translate(_DIGIT_BITS)[::-1]], 1)
    return int(bytes(b[:0:-1]).translate(_BIT_DIGITS[0]) or b"0", 2)


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
    # The stored masks, not the lower_mask/upper_mask properties: two calls fewer per entry.
    return [(e.mis_mask & ~e.int_mask, e.mis_mask | e.ext_mask) for e in C.entries]


# Below this many entries the first-pair walk tests pairs directly: on an
# overlapping cover it mostly stops in its first rows (1-25 us on G(n, p), n
# 10-26), where building the pair index costs 2-5x that from the kernel's
# planes, 10-35x from the masks.  A full walk (partition covers of pruned
# hosts, k 16-160) is faster on the index from about k = 24 with planes, 44 without.
_INDEX_MIN = 64
# _BIT_DIGITS[b] maps each byte to the ASCII digit of its bit b; graph._DIGIT_BITS maps back.
_BIT_DIGITS = [bytes(48 + (x >> b & 1) for x in range(256)) for b in range(8)]


def _columns(rows: list[int], width: int) -> list[int]:
    """Transpose a bit matrix: bit j of column v is bit v of rows[j].

    Every row must fit in `width` bits.  From at most _WORD_BITS wider rows
    (the kernel's n planes of k bits), each row is spread to one byte per
    bit, eight rows are ORed into each byte of a buffer of words, and the
    words are read back at once.  Otherwise column v is the byte plane v // 8
    of the rows (_mask_bytes), with each byte turned into the digit of its
    bit v % 8 by `bytes.translate`.  The work per cell runs in C.
    """
    if len(rows) <= _WORD_BITS < width:
        buf = bytearray(8 * width)
        for g in range(0, len(rows), 8):
            spread = 0  # byte j holds bit j of the eight rows from g on
            for b, row in enumerate(rows[g:g + 8]):
                bits = format(row, f"0{width}b").encode().translate(_DIGIT_BITS)
                spread |= int.from_bytes(bits, "big") << b
            buf[g >> 3::8] = spread.to_bytes(width, "little")
        return _words(buf)
    data, size = _mask_bytes(reversed(rows), width)
    return [  # without rows, every column is 0
        int(data[v >> 3::size].translate(_BIT_DIGITS[v & 7]) or b"0", 2) for v in range(width)
    ]


def _pair_index(masks: list[tuple[int, int]], planes: _Planes | None = None) -> _Index:
    """(span, upper_has, lower_lacks) of the intervals `masks`.

    span is the union of the upper ends; per vertex bit v - 1 of span,
    upper_has and lower_lacks hold the entries (bit j for entry j) whose
    upper end has the bit and whose lower end lacks it.  They come from the
    kernel's planes when given, else from the masks transposed.
    """
    if planes is None:
        his = [hi for _, hi in masks]
        width = max(map(int.bit_length, his), default=0)
        planes = _columns([lo for lo, _ in masks], width), _columns(his, width)
    lowers, uppers = planes
    span = sum(1 << v for v, p in enumerate(uppers) if p)
    width, every = span.bit_length(), (1 << len(masks)) - 1
    return span, uppers[:width], [every ^ p for p in lowers[:width]]


def _partners(index: _Index, interval: tuple[int, int], cand: int) -> int:
    """The entries of the bit set `cand` (bit j for entry j) whose intervals meet `interval`.

    What is left of cand after one AND per bit of its lower end and per bit
    of the index's span outside its upper end: about n big-int operations
    in place of k pair tests.
    """
    lo, hi = interval
    span, upper_has, lower_lacks = index
    for v in _bits(lo):
        cand &= upper_has[v - 1]
    for v in _bits(span & ~hi):
        cand &= lower_lacks[v - 1]
    return cand


def _overlapping_pairs(
    masks: list[tuple[int, int]], planes: _Planes | None = None
) -> Iterator[tuple[int, int]]:
    """Every intersecting pair (i, j), i < j, in lexicographic order.

    Every interval must be nonempty (lo <= hi).  Intervals i and j meet when
    lo_i <= hi_j and lo_j <= hi_i.  Below _INDEX_MIN entries each pair is
    tested directly; from there on each row's partners come from the pair
    index (_pair_index, from the kernel's planes when given).
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
    index, every = _pair_index(masks, planes), (1 << k) - 1
    for i in range(k):
        for j in _bits(_partners(index, masks[i], every >> (i + 1) << (i + 1))):
            yield i, j - 1


def _check_oracle_bound(oracle_bound: int) -> None:
    if oracle_bound < 0:
        raise ValueError(f"oracle bound {oracle_bound} is below 0")
    if oracle_bound > MAX_ORACLE_BOUND:
        raise ValueError(
            f"oracle bound {oracle_bound} exceeds the limit {MAX_ORACLE_BOUND}"
        )


# Up to this many free bits, _cover_counts counts on lattice planes.  Against
# the Shannon expansion on the covers of G(n, p), p 0.3 and 0.5, ten graphs
# each, in canonical and shuffled order, each cube's plane built afresh: in
# the median 2.3-3.8x as fast for n 6-11, 1.7x at 12, 1.2x at 13, 0.8x at 14
# and 0.3-0.5x at 15-16; every plane cached, 2.1x at 14 and 0.9x at 16.
_PLANE_MAX = 12


def _cover_counts(free: int, cubes: list[tuple[int, int]]) -> tuple[int, int, int | None]:
    """(covered, repeated, least): the subsets x of `free` with lo <= x <= hi
    for at least one, and for at least two, of the cubes (lo, hi), and the
    smallest of the latter as a bitmask (None when there is none).

    When `free` is the whole lattice of at most _PLANE_MAX bits, the count
    runs on lattice planes (_plane_counts); otherwise by Shannon expansion
    on bit sets of cubes (_shannon_counts).  Every cube needs lo <= hi.
    """
    if not free & (free + 1) and free.bit_length() <= _PLANE_MAX:
        return _plane_counts(free, cubes)
    return _shannon_counts(free, cubes)


def _plane_counts(free: int, cubes: list[tuple[int, int]]) -> tuple[int, int, int | None]:
    """_cover_counts on lattice planes, one bit per subset, for free = 2^n - 1.

    Each cube's plane comes from _cube_plane, cached across calls.  `twice`
    gathers the subsets a cube shares with the earlier ones, `once` those of
    any cube; the lowest bit of `twice` is the smallest repeated subset.  The
    planes take 2^n bits each, so this suits small n only.
    """
    once = twice = 0
    for lo, hi in cubes:
        s = _cube_plane(lo & free, hi & free)
        twice |= once & s
        once |= s
    return once.bit_count(), twice.bit_count(), (twice & -twice).bit_length() - 1 if twice else None


@lru_cache(maxsize=1024)
def _cube_plane(lo: int, hi: int) -> int:
    """Lattice plane of the cube [lo; hi]: bit x is set when lo <= x <= hi.

    The low 6 bits of x and the rest meet the cube independently, so the
    plane is the product of the low bits' spread at stride 1, which fits in
    64 bits, and the high bits' spread at stride 64: no product carries.
    """
    if lo & ~hi:
        return 0
    return _spread(lo & 63, hi & 63, 1) * _spread(lo >> 6, hi >> 6, 64)


@lru_cache(maxsize=1024)
def _spread(lo: int, hi: int, stride: int) -> int:
    """Bit stride * x for every x with lo <= x <= hi (lo <= hi)."""
    free = s = hi & ~lo
    out = 1 << stride * lo
    while s:
        out |= 1 << stride * (lo | s)
        s = (s - 1) & free
    return out


def _shannon_counts(free: int, cubes: list[tuple[int, int]]) -> tuple[int, int, int | None]:
    """_cover_counts by one Shannon expansion, for any `free`.

    The cubes are sorted once, the most free bits first, so that the cost
    does not follow the order they come in; a branch holds a bit set of
    them, bit j for cube j.  It splits on the lowest free bit its first cube
    fixes (in lo, or outside hi) into two disjoint halves, each the cubes
    that allow its value of the bit: one AND with the plane of the cubes
    whose lower end lacks the bit, or whose upper end has it.  Empty halves
    are dropped.  A branch its first cube holds whole is covered; in count
    mode the union of its other cubes is what it repeats, counted on as a
    plain union, and in union mode it is repeated.  Two cubes or fewer are
    counted by inclusion-exclusion.  Each branch carries `on`, its split
    bits set to 1: the smallest subset it holds of a cube (lo, hi) is
    on | lo & free, and of the whole branch `on`.
    """
    covered, repeated, least = 0, 0, free + 1  # least starts above every subset of free
    cubes = sorted(cubes, key=lambda cube: (free & cube[1] & ~cube[0]).bit_count(), reverse=True)
    los, his = [lo & free for lo, _ in cubes], [hi & free for _, hi in cubes]
    fixes, every = [lo | ~hi for lo, hi in cubes], (1 << len(cubes)) - 1
    allow0 = [every ^ p for p in _columns(los, free.bit_length())]  # bit j: cube j allows the bit off
    allow1 = _columns(his, free.bit_length())  # ... and on
    stack = [(free, every, True, 0)] if cubes else []  # True: count both; False: the union into repeated
    while stack:
        free, held, both, on = stack.pop()
        j = (held & -held).bit_length() - 1
        rest = held ^ 1 << j
        if not rest & (rest - 1):  # one or two cubes
            sizes = meet = 0
            for i in (j, rest.bit_length() - 1) if rest else (j,):
                sizes += 1 << (free & his[i] & ~los[i]).bit_count()
                if not both and on | los[i] & free < least:
                    least = on | los[i] & free
            if rest:
                lo, hi = los[j] | los[i], his[j] & his[i]
                if not free & lo & ~hi:
                    meet = 1 << (free & hi & ~lo).bit_count()
                    if both and on | lo & free < least:
                        least = on | lo & free
            if both:
                covered += sizes - meet
                repeated += meet
            else:
                repeated += sizes - meet
            continue
        fixed = free & fixes[j]
        if not fixed:  # the first cube holds the whole branch
            size = 1 << free.bit_count()
            if both:
                covered += size
                stack.append((free, rest, False, on))
            else:
                repeated += size
                if on < least:
                    least = on
            continue
        bit = fixed & -fixed
        free ^= bit
        b = bit.bit_length() - 1
        if off := held & allow0[b]:
            stack.append((free, off, both, on))
        if held := held & allow1[b]:
            stack.append((free, held, both, on | bit))
    return covered, repeated, least if repeated else None


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
    method counts exactly, in one pass of _cover_counts (on lattice planes up
    to _PLANE_MAX vertices, above by Shannon expansion over bit sets of the
    intervals) that tracks the subsets lying in at least one interval and in
    at least two: the first count must be all 2^n subsets, the second is the
    reported repeat count, and the smallest repeated subset is the witness.
    No per-subset table is built; the bound only decides whether the exact
    count is reported.

    Checks run in this order, over one pair walk (_overlapping_pairs):
      1. up to the bound, a subset in no interval raises "cover misses";
      2. the first overlapping pair must agree with the size sum;
      3. up to the bound, there must be an overlapping pair exactly when
         the repeat count is nonzero;
      4. a partition returns;
      5. the witness, a repeated subset, must lie in two intervals: up to
         the bound, the smallest, which the counting pass names; above it,
         the first overlapping pair's meet lower end.
    A disagreement between methods raises RuntimeError, since it would mean
    the cover violates the coverage guarantee it was built under.
    """
    masks = _interval_masks(C)
    repeated, x = _repeats(C.n, masks, oracle_bound, C._planes)
    if x is None:
        return PartitionVerdict(True, 0, None)
    gens = _generators_containing(C, masks, x)
    if len(gens) < 2:
        raise RuntimeError("partition methods disagree on a covered lattice")
    return PartitionVerdict(False, repeated, RepeatWitness(set_of(x), gens[0], gens[1]))


def _repeats(
    n: int, masks: list[tuple[int, int]], oracle_bound: int, planes: _Planes | None = None
) -> tuple[int | None, int | None]:
    """partition_verdict without the witness's generators: the repeat count and a repeated subset.

    Runs checks 1-4 of partition_verdict on the intervals `masks` of a cover
    on n vertices, with one counting pass and the pair walk stopped at its
    first overlapping pair, which reads the kernel's `planes` when given.
    A partition gives (0, None).  Up to the bound, the count comes with the
    smallest repeated subset, from the same pass.  Above it, None comes
    with the first pair's meet lower end, whose first two holders are that
    pair: any earlier one would make an earlier pair.
    """
    full = (1 << n) - 1
    if n <= oracle_bound:
        covered, repeated, least = _cover_counts(full, masks)
        if missed := full + 1 - covered:
            raise RuntimeError(f"cover misses {missed} subsets; coverage violated")
    first = next(_overlapping_pairs(masks, planes), None)
    size_sum = sum(1 << (hi.bit_count() - lo.bit_count()) for lo, hi in masks)
    if (first is None) != (size_sum == full + 1):
        raise RuntimeError("partition methods disagree on a covered lattice")
    if n <= oracle_bound and (first is None) != (repeated == 0):
        raise RuntimeError("partition methods disagree on a covered lattice")
    if first is None:
        return 0, None
    if n <= oracle_bound:
        return repeated, least
    return None, masks[first[0]][0] | masks[first[1]][0]


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
    # the repeated subsets are the union of the distinct pairwise meets [lo_i|lo_j; hi_i&hi_j]
    meets = {
        (masks[i][0] | masks[j][0], masks[i][1] & masks[j][1])
        for i, j in _overlapping_pairs(masks, C._planes)
    }
    for lo, hi in meets:
        free = hi & ~lo
        s = free
        while True:
            repeated.add(lo | s)
            if not s:
                break
            s = (s - 1) & free
    return [(set_of(x), _generators_containing(C, masks, x)) for x in sorted(repeated)]


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
    """Exact coefficient map (|S|, |Ext(S)|, |Int(S)|) -> multiplicity, keys sorted."""
    gens = list(_mis_by_pivot(G))  # a multiset: no canonical sort
    ints, exts, _ = _activity_planes(G, gens, _orientation(G))
    coeffs = Counter(zip(*(map(int.bit_count, masks) for masks in (gens, exts, ints))))
    return ActivityPolynomial(dict(sorted(coeffs.items())))


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
