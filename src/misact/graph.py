"""Simple undirected graphs on labelled vertices 1..n.

Vertex sets cross the API as frozensets of 1-based labels.  Internally the
heavy routines work on integer bitmasks (bit v-1 stands for vertex v), which
is what keeps the exhaustive subset scans elsewhere in the package cheap.
Maximal independent sets are enumerated once, as the maximal cliques of the
complement graph, by the pivoting Bron-Kerbosch search of Tomita, Tanaka and
Takahashi (2006), which decides each leaf at its parent and yields the sets in
no specified order.  Graphs are immutable; every function here is pure.
"""

from __future__ import annotations

import random
import sys
from array import array
from itertools import compress, count
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

__all__ = [
    "Graph",
    "Interval",
    "mask_of",
    "set_of",
    "open_neighborhood",
    "closed_neighborhood",
    "induced_subgraph",
    "is_independent",
    "is_dominating",
    "is_maximal_independent",
    "enumerate_maximal_independent_sets",
    "greedy_maximal_independent_set",
    "relabel",
    "random_graph",
]


def mask_of(vertices: Iterable[int]) -> int:
    """Pack 1-based vertex labels into a bitmask; a label below 1 raises ValueError."""
    labels = set(vertices)
    if bad := sorted(v for v in labels if v < 1):
        raise ValueError(f"labels {bad} below 1")
    digits = bytearray(b"0" * max(labels, default=0))  # highest label first, read in one pass
    for v in labels:
        digits[-v] = 49  # "1"
    return int(digits or b"0", 2)


# Maps the ASCII digits "0" and "1" to the bytes 0 and 1.
_DIGIT_BITS = bytes.maketrans(b"01", b"\0\1")


def set_of(mask: int) -> frozenset[int]:
    """Unpack a bitmask into a frozenset of 1-based labels; a negative mask raises ValueError."""
    if mask < 0:
        raise ValueError(f"mask {mask} is negative")
    return frozenset(_members(mask))


def _members(mask: int) -> Iterator[int]:
    """The labels of a mask of at least 0, ascending: one pass over its binary digits in C,
    where each _bits step copies the whole int, so _bits suits only narrow masks."""
    return compress(count(1), bin(mask)[:1:-1].encode().translate(_DIGIT_BITS))


def _bits(mask: int) -> Iterator[int]:
    while mask:
        b = mask & -mask
        yield b.bit_length()
        mask ^= b


class Interval(NamedTuple):
    """The lattice interval [lower; upper] = {X : lower <= X <= upper}."""

    lower: frozenset[int]
    upper: frozenset[int]

    def contains(self, subset: Iterable[int]) -> bool:
        s = frozenset(subset)
        return self.lower <= s <= self.upper

    def size(self) -> int:
        """Number of subsets in the interval."""
        return 1 << (len(self.upper) - len(self.lower))


class Graph:
    """Immutable simple graph whose vertices are exactly 1..n.

    Self-loops are rejected, duplicate edges collapse, and adjacency is
    kept symmetric.  The bitmasks are the only storage: ``adj_mask[v]`` is
    the open neighbourhood of v, and ``neighbors(v)`` gives it as a frozenset.
    """

    __slots__ = ("n", "adj_mask", "full_mask")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        masks = [0] * (n + 1)
        for u, v in edges:
            if not (1 <= u <= n) or not (1 <= v <= n):
                raise ValueError(f"edge ({u},{v}) uses a label outside 1..{n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            masks[u] |= 1 << (v - 1)
            masks[v] |= 1 << (u - 1)
        self.n = n
        self.adj_mask = tuple(masks)
        self.full_mask = (1 << n) - 1

    @classmethod
    def _from_rows(cls, rows: Iterable[int]) -> Graph:
        """The graph whose ``adj_mask`` is `rows`, unchecked.

        rows[0] is 0, and rows[1:] must be symmetric and free of self-loops.
        """
        G = object.__new__(cls)
        G.adj_mask = tuple(rows)
        G.n = len(G.adj_mask) - 1
        G.full_mask = (1 << G.n) - 1
        return G

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    def neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return set_of(self.adj_mask[v])

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adj_mask[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adj_mask[u] >> (v - 1) & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        return [(u, v) for u in self.vertices for v in _bits(self.adj_mask[u] >> u << u)]

    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj_mask) // 2

    def _check_vertex(self, v: int) -> None:
        if not (1 <= v <= self.n):
            raise ValueError(f"vertex {v} outside 1..{self.n}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.adj_mask == other.adj_mask

    def __hash__(self) -> int:
        return hash((self.n, self.adj_mask))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"


def _vertex_set_mask(G: Graph, S: Iterable[int]) -> int:
    labels = set(S)
    bad = sorted(v for v in labels if not 1 <= v <= G.n)
    if bad:
        raise ValueError(f"labels {bad} outside 1..{G.n}")
    return mask_of(labels)


def open_neighborhood(G: Graph, S: Iterable[int]) -> frozenset[int]:
    """Union of the neighbourhoods of the members of S."""
    return set_of(_open_mask(G, _vertex_set_mask(G, S)))


def closed_neighborhood(G: Graph, S: Iterable[int]) -> frozenset[int]:
    """open_neighborhood(G, S) together with S itself."""
    m = _vertex_set_mask(G, S)
    return set_of(m | _open_mask(G, m))


def induced_subgraph(G: Graph, S: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Subgraph induced by S, relabelled 1..|S| in label order.

    Returns the new graph and the old-to-new label map.
    """
    keep = _vertex_set_mask(G, S)
    bit = {old: 1 << i for i, old in enumerate(_bits(keep))}  # each kept vertex's new bit
    rows = [0, *(sum(map(bit.__getitem__, _bits(G.adj_mask[u] & keep))) for u in bit)]
    return Graph._from_rows(rows), {old: b.bit_length() for old, b in bit.items()}


def _is_independent_mask(G: Graph, m: int) -> bool:
    return not _open_mask(G, m) & m


def _open_mask(G: Graph, m: int) -> int:
    out = 0
    for v in _members(m):
        out |= G.adj_mask[v]
    return out


def is_independent(G: Graph, S: Iterable[int]) -> bool:
    """True when no two members of S are adjacent."""
    return _is_independent_mask(G, _vertex_set_mask(G, S))


def is_dominating(G: Graph, S: Iterable[int]) -> bool:
    """True when every vertex is in S or adjacent to a member of S."""
    m = _vertex_set_mask(G, S)
    return (m | _open_mask(G, m)) == G.full_mask


def is_maximal_independent(G: Graph, S: Iterable[int]) -> bool:
    """True when S is independent and dominating.

    For independent S the two conditions are equivalent to maximality:
    a vertex can be added exactly when it is undominated.
    """
    return _is_maximal_independent_mask(G, _vertex_set_mask(G, S))


def _is_maximal_independent_mask(G: Graph, m: int) -> bool:
    out = _open_mask(G, m)
    return not out & m and m | out == G.full_mask


def _mis_by_pivot(G: Graph) -> Iterator[int]:
    """Maximal cliques of the complement graph, in no specified order (_mis_masks sorts them).

    A branch (r, p, x) pivots on the lowest vertex u of p | x with the most candidates
    p & comp[u].  Each child is decided at its parent: with candidates it waits on an explicit
    stack, so the depth is not bounded by Python's recursion limit; without them it is yielded
    if its x is empty and dropped otherwise.  Isolated vertices, in every set, start r.
    """
    full = G.full_mask
    isolated = mask_of(v for v in G.vertices if not G.adj_mask[v])
    if isolated == full:  # no edges, n = 0 included
        yield full
        return
    comp = [0] + [full & ~(G.adj_mask[v] | 1 << (v - 1)) for v in G.vertices]
    stack = [(isolated, full & ~isolated, 0)]
    while stack:
        r, p, x = stack.pop()
        best, rest = -1, p | x
        while rest:
            b = rest & -rest
            rest ^= b
            if (c := (p & comp[b.bit_length()]).bit_count()) > best:
                best, pivot = c, b
        cand = p & ~comp[pivot.bit_length()]
        while cand:  # move each candidate from p to x in turn
            bit = cand & -cand
            if q := p & (cv := comp[bit.bit_length()]):
                stack.append((r | bit, q, x & cv))
            elif not x & cv:
                yield r | bit
            cand, p, x = cand ^ bit, p ^ bit, x | bit


# _REV[x] is the byte x with its eight bits in reverse order.
_REV = bytes(int(f"{x:08b}"[::-1], 2) for x in range(256))

# Masks of up to _WORD_BITS bits travel as 8-byte little-endian words, as int.to_bytes(8,
# "little") writes them; without an 8-byte array type there is no word path.
_WORD_BITS = 64 if array("Q").itemsize == 8 else 0
_SWAP = sys.byteorder == "big"


def _mask_bytes(masks: Iterable[int], width: int) -> tuple[bytes, int]:
    """(data, stride): the masks, each below 2^width, one little-endian stride of data each:
    a word, all packed in one call, up to _WORD_BITS bits, else one int.to_bytes per mask."""
    if width <= _WORD_BITS:
        words = array("Q", masks)
        if _SWAP:
            words.byteswap()
        return words.tobytes(), 8
    size = (width + 7) // 8
    return b"".join([m.to_bytes(size, "little") for m in masks]), size


def _words(data: bytes | bytearray) -> list[int]:
    """The 8-byte little-endian words of data as ints, the inverse of _mask_bytes up to 64 bits."""
    words = array("Q", data)
    if _SWAP:
        words.byteswap()
    return words.tolist()


def _canonical_order(masks: Iterable[int], n: int) -> list[int]:
    """An antichain of masks on n vertices, sorted by their sorted member lists."""
    # No member list of an antichain is a prefix of another, so the set holding the lowest vertex
    # of the symmetric difference comes first: descending order of the bit-reversed masks, keyed
    # by their little-endian bytes with each byte's bits reversed.
    size = (n + 7) // 8
    return sorted(masks, key=lambda m: m.to_bytes(size, "little").translate(_REV), reverse=True)


def _mis_masks(G: Graph) -> list[int]:
    """Masks of all maximal independent sets, sorted by their sorted member lists."""
    return _canonical_order(_mis_by_pivot(G), G.n)


def enumerate_maximal_independent_sets(G: Graph) -> list[frozenset[int]]:
    """All maximal independent sets, sorted by their sorted member lists."""
    return [set_of(m) for m in _mis_masks(G)]


def greedy_maximal_independent_set(G: Graph, order: Sequence[int]) -> frozenset[int]:
    """Scan `order`, keeping each vertex that stays independent.

    `order` must list every vertex of G exactly once.  The result is a
    maximal independent set: any rejected vertex is adjacent to a kept one.
    """
    seen = _vertex_set_mask(G, order)
    if seen != G.full_mask or len(order) != G.n:
        raise ValueError("order must enumerate every vertex exactly once")
    cur = 0
    for v in order:
        bit = 1 << (v - 1)
        if not G.adj_mask[v] & cur:
            cur |= bit
    return set_of(cur)


def _normalize_perm(perm: Mapping[int, int] | Sequence[int], n: int) -> dict[int, int]:
    if isinstance(perm, Mapping):
        mapping = {int(k): int(v) for k, v in perm.items()}
    else:
        mapping = {i + 1: int(p) for i, p in enumerate(perm)}
    if sorted(mapping) != list(range(1, n + 1)) or sorted(mapping.values()) != list(
        range(1, n + 1)
    ):
        raise ValueError("permutation must be a bijection on 1..n")
    return mapping


def relabel(G: Graph, perm: Mapping[int, int] | Sequence[int]) -> Graph:
    """Isomorphic copy with vertex i renamed perm(i).

    `perm` is either a map {old: new} or a sequence whose i-th entry (0-based)
    is the new name of vertex i+1.  Non-bijections are rejected.
    """
    mapping = _normalize_perm(perm, G.n)
    return _relabelled(G, [0, *(1 << (mapping[v] - 1) for v in G.vertices)])


def _relabelled(G: Graph, image: list[int]) -> Graph:
    """relabel without its check: vertex v becomes the vertex of the bit image[v].

    image[0] is 0, and image[1:] must hold each of the n vertex bits once.
    """
    get = image.__getitem__
    rows = [0] * (G.n + 1)
    for v in G.vertices:
        rows[image[v].bit_length()] = sum(map(get, _bits(G.adj_mask[v])))
    return Graph._from_rows(rows)


def random_graph(n: int, p: float, seed: int | None = None,
                 rng: random.Random | None = None) -> Graph:
    """Erdos-Renyi style G(n, p) sample; deterministic given seed or rng."""
    if rng is None:
        rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if rng.random() < p
    ]
    return Graph(n, edges)
