"""Simple undirected graphs on labelled vertices 1..n.

Vertex sets cross the API as frozensets of 1-based labels.  Internally the
heavy routines work on integer bitmasks (bit v-1 stands for vertex v), which
is what keeps the exhaustive subset scans elsewhere in the package cheap.
Maximal independent sets are enumerated once, as the maximal cliques of the
complement graph, by the pivoting Bron-Kerbosch search of Tomita, Tanaka and
Takahashi (2006).  Graphs are immutable; every function here is pure.
"""

from __future__ import annotations

import random
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
    """Pack 1-based vertex labels into a bitmask."""
    m = 0
    for v in vertices:
        m |= 1 << (v - 1)
    return m


def set_of(mask: int) -> frozenset[int]:
    """Unpack a bitmask into a frozenset of 1-based labels."""
    return frozenset(_bits(mask))


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
    kept symmetric.  ``adj[v]`` is the open neighbourhood of v as a
    frozenset; ``adj_mask[v]`` is the same neighbourhood as a bitmask.
    """

    __slots__ = ("n", "adj", "adj_mask", "full_mask")

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
        self.adj = tuple(set_of(m) for m in masks)
        self.full_mask = (1 << n) - 1

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.vertices)

    def neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return self.adj[v]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self.adj[u]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, sorted."""
        return [(u, v) for u in self.vertices for v in sorted(self.adj[u]) if u < v]

    def edge_count(self) -> int:
        return sum(len(self.adj[v]) for v in self.vertices) // 2

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
    m = _vertex_set_mask(G, S)
    out = 0
    for v in _bits(m):
        out |= G.adj_mask[v]
    return set_of(out)


def closed_neighborhood(G: Graph, S: Iterable[int]) -> frozenset[int]:
    """open_neighborhood(G, S) together with S itself."""
    return set_of(_closed_mask(G, _vertex_set_mask(G, S)))


def induced_subgraph(G: Graph, S: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Subgraph induced by S, relabelled 1..|S| in label order.

    Returns the new graph and the old-to-new label map.
    """
    keep = sorted(set_of(_vertex_set_mask(G, S)))
    old_to_new = {old: i + 1 for i, old in enumerate(keep)}
    edges = [
        (old_to_new[u], old_to_new[v])
        for u in keep
        for v in G.adj[u]
        if v in old_to_new and u < v
    ]
    return Graph(len(keep), edges), old_to_new


def _is_independent_mask(G: Graph, m: int) -> bool:
    rest = m
    while rest:
        b = rest & -rest
        if G.adj_mask[b.bit_length()] & m:
            return False
        rest ^= b
    return True


def _closed_mask(G: Graph, m: int) -> int:
    out = m
    for v in _bits(m):
        out |= G.adj_mask[v]
    return out


def is_independent(G: Graph, S: Iterable[int]) -> bool:
    """True when no two members of S are adjacent."""
    return _is_independent_mask(G, _vertex_set_mask(G, S))


def is_dominating(G: Graph, S: Iterable[int]) -> bool:
    """True when every vertex is in S or adjacent to a member of S."""
    return _closed_mask(G, _vertex_set_mask(G, S)) == G.full_mask


def is_maximal_independent(G: Graph, S: Iterable[int]) -> bool:
    """True when S is independent and dominating.

    For independent S the two conditions are equivalent to maximality:
    a vertex can be added exactly when it is undominated.
    """
    m = _vertex_set_mask(G, S)
    return _is_independent_mask(G, m) and _closed_mask(G, m) == G.full_mask


def _mis_by_pivot(G: Graph) -> list[int]:
    """Maximal cliques of the complement graph, found with a pivoting search.

    The search runs on an explicit stack of frames [r, p, x, candidates], so
    its depth (one level per member) is not bounded by Python's recursion
    limit.  Each frame takes its candidates in ascending label order.
    Isolated vertices lie in every maximal independent set, so the search
    starts with them in r and runs on the other vertices only.
    """
    n = G.n
    full = G.full_mask
    comp = [0] * (n + 1)
    isolated = 0
    for v in range(1, n + 1):
        comp[v] = full & ~G.adj_mask[v] & ~(1 << (v - 1))
        if not G.adj_mask[v]:
            isolated |= 1 << (v - 1)
    out: list[int] = []
    stack: list[list[int]] = []
    r, p, x = isolated, full & ~isolated, 0
    while True:
        if p or x:
            pivot = max(_bits(p | x), key=lambda u: (p & comp[u]).bit_count())
            stack.append([r, p, x, p & ~comp[pivot]])
        else:
            out.append(r)
        while stack and not stack[-1][3]:
            stack.pop()
        if not stack:
            return out
        frame = stack[-1]
        r, p, x, cand = frame
        bit = cand & -cand
        frame[1] = p & ~bit
        frame[2] = x | bit
        frame[3] = cand ^ bit
        v = bit.bit_length()
        r, p, x = r | bit, p & comp[v], x & comp[v]


def _mis_masks(G: Graph) -> list[int]:
    """Masks of all maximal independent sets, sorted by their sorted member lists."""
    return sorted(_mis_by_pivot(G), key=lambda m: list(_bits(m)))


def enumerate_maximal_independent_sets(G: Graph) -> list[frozenset[int]]:
    """All maximal independent sets, sorted by their sorted member lists.

    They are the maximal cliques of the complement graph, found by a
    pivoting search.
    """
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
    return Graph(G.n, [(mapping[u], mapping[v]) for u, v in G.edges()])


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
