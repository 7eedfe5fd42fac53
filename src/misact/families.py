"""Graph families with closed-form covers: cliques, clique-empty joins,
cliques with pendants, and the lex/colex graphs.

Each constructor fixes the canonical labelling under which the closed-form
cover is valid (clique first, attachments after).  The predicted covers are
built entry for entry and are meant to equal the computed ones exactly;
callers cross-check rather than trust.  `FAMILIES` names each family and
holds everything the CLI and the verifier know about it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, count, islice
from typing import Callable, Iterable, Sequence

from .activities import ActivityReport, Cover
from .graph import Graph, mask_of

__all__ = [
    "FAMILIES",
    "Family",
    "SdsDecomposition",
    "SisDecomposition",
    "complete_graph",
    "empty_graph",
    "join",
    "kn_plus_em",
    "kn_with_pendants",
    "pendant_partition_predicate",
    "sds",
    "sis",
    "lex_graph",
    "colex_graph",
    "lex_neighborhoods",
    "colex_neighborhoods",
    "predicted_cover_kn",
    "predicted_cover_join",
    "predicted_cover_lex",
    "predicted_cover_colex",
]


def complete_graph(n: int) -> Graph:
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    full = (1 << n) - 1
    return Graph._from_rows([0, *(full ^ 1 << v for v in range(n))])


def empty_graph(n: int) -> Graph:
    return Graph(n)


def join(G1: Graph, G2: Graph) -> Graph:
    """Disjoint union with all cross edges; G2's labels shift up by G1.n."""
    low, high = G1.full_mask, G2.full_mask << G1.n
    return Graph._from_rows([
        0,
        *(row | high for row in G1.adj_mask[1:]),
        *(row << G1.n | low for row in G2.adj_mask[1:]),
    ])


def kn_plus_em(n: int, m: int) -> Graph:
    """Clique on 1..n joined to m isolated vertices labelled n+1..n+m."""
    return join(complete_graph(n), empty_graph(m))


def kn_with_pendants(n: int, sizes: Sequence[int]) -> Graph:
    """Clique on 1..n with sizes[i-1] pendant vertices hung on clique vertex i.

    Pendants take the labels n+1, n+2, ... block by block, so every pendant
    label exceeds every clique label.
    """
    if len(sizes) != n:
        raise ValueError("need one pendant-block size per clique vertex")
    if any(s < 0 for s in sizes):
        raise ValueError("pendant-block sizes must be non-negative")
    clique, first, rows, pendants = (1 << n) - 1, n, [0], []
    for i, s in enumerate(sizes):
        rows.append(clique ^ 1 << i | ((1 << s) - 1) << first)  # pendants first+1..first+s
        pendants += [1 << i] * s
        first += s
    return Graph._from_rows(rows + pendants)


def pendant_partition_predicate(sizes: Sequence[int]) -> bool:
    """Whether the pendant construction's cover is a partition.

    True exactly when every clique vertex has a pendant, or the largest
    clique label is among the pendant-free ones.
    """
    n = len(sizes)
    bare = {i for i, s in enumerate(sizes, start=1) if s == 0}
    return not bare or n in bare


@dataclass(frozen=True)
class _Decomposition:
    m: int
    n: int
    parts: tuple[int, ...]

    @property
    def depth(self) -> int:
        return len(self.parts)


@dataclass(frozen=True)
class SdsDecomposition(_Decomposition):
    """m written as (n-1) + (n-2) + ... with a short final part."""


@dataclass(frozen=True)
class SisDecomposition(_Decomposition):
    """m written as 1 + 2 + 3 + ... with a short final part."""


def _parts(m: int, caps: Iterable[int]) -> tuple[int, ...]:
    """Split m greedily: take each cap in turn until the remainder fits one."""
    parts = []
    for cap in caps:
        if m <= cap:
            parts.append(m)
            break
        parts.append(cap)
        m -= cap
    return tuple(parts)


def sds(m: int, n: int) -> SdsDecomposition:
    """Unique decomposition m = (n-1) + (n-2) + ... + p_k with 1 <= p_k <= n-k."""
    if n < 2 or not (n - 1 <= m <= n * (n - 1) // 2):
        raise ValueError(f"sds needs n-1 <= m <= n(n-1)/2; got m={m}, n={n}")
    return SdsDecomposition(m=m, n=n, parts=_parts(m, range(n - 1, 0, -1)))


def sis(m: int, n: int) -> SisDecomposition:
    """Unique decomposition m = 1 + 2 + ... + q_k with 1 <= q_k <= k."""
    if n < 2 or not (1 <= m <= n * (n - 1) // 2):
        raise ValueError(f"sis needs 1 <= m <= n(n-1)/2; got m={m}, n={n}")
    return SisDecomposition(m=m, n=n, parts=_parts(m, count(1)))


def _check_edge_count(n: int, m: int) -> None:
    top = n * (n - 1) // 2
    if not (0 <= m <= top):
        raise ValueError(f"edge count {m} outside 0..{top}")


def lex_graph(n: int, m: int) -> Graph:
    """First m vertex pairs in lexicographic order: 12, 13, ..., 1n, 23, ..."""
    _check_edge_count(n, m)
    return Graph(n, islice(combinations(range(1, n + 1), 2), m))


def colex_graph(n: int, m: int) -> Graph:
    """First m vertex pairs in colexicographic order: 12, 13, 23, 14, 24, ..."""
    _check_edge_count(n, m)
    return Graph(n, islice(((i, j) for j in range(2, n + 1) for i in range(1, j)), m))


def lex_neighborhoods(n: int, m: int) -> dict[int, frozenset[int]]:
    """Closed-form neighbourhoods of the lex graph, valid for m >= n.

    With k the decomposition depth and p its final part: vertices below k see
    everything, vertex k sees all smaller vertices plus the next p labels,
    vertices k+1..k+p see 1..k, and later vertices see 1..k-1.
    """
    if m < n:
        raise ValueError("closed-form lex neighbourhoods need m >= n")
    if m == 0:
        return {}  # n = 0: the empty graph, which has no sds decomposition
    d = sds(m, n)
    k, p = d.depth, d.parts[-1]
    everyone = frozenset(range(1, n + 1))
    out: dict[int, frozenset[int]] = {}
    for i in range(1, n + 1):
        if i < k:
            out[i] = everyone - {i}
        elif i == k:
            out[i] = frozenset(range(1, k)) | frozenset(range(k + 1, k + p + 1))
        elif i <= k + p:
            out[i] = frozenset(range(1, k + 1))
        else:
            out[i] = frozenset(range(1, k))
    return out


def colex_neighborhoods(n: int, m: int) -> dict[int, frozenset[int]]:
    """Closed-form neighbourhoods of the colex graph.

    With k the decomposition depth and q its final part: vertices up to q
    see 1..k+1 minus themselves, vertices q+1..k see 1..k minus themselves,
    vertex k+1 sees 1..q, and everything past k+1 is isolated.
    """
    if m == 0:
        return {i: frozenset() for i in range(1, n + 1)}
    d = sis(m, n)
    k, q = d.depth, d.parts[-1]
    out: dict[int, frozenset[int]] = {}
    for i in range(1, n + 1):
        if i <= q:
            out[i] = frozenset(range(1, k + 2)) - {i}
        elif i <= k:
            out[i] = frozenset(range(1, k + 1)) - {i}
        elif i == k + 1:
            out[i] = frozenset(range(1, q + 1))
        else:
            out[i] = frozenset()
    return out


def _entry(gen, int_, ext) -> ActivityReport:
    return ActivityReport(mask_of(gen), mask_of(int_), mask_of(ext))


def _rng(a: int, b: int) -> frozenset[int]:
    """Labels a..b inclusive."""
    return frozenset(range(a, b + 1))


def predicted_cover_kn(n: int) -> Cover:
    """Closed-form cover of the clique: [{i}; {i..n}] plus [empty; {n}]."""
    if n < 1:
        raise ValueError("need at least one vertex")
    entries = [_entry({i}, (), _rng(i + 1, n)) for i in range(1, n)]
    entries.append(_entry({n}, {n}, ()))
    return Cover(n=n, entries=tuple(entries))


def predicted_cover_join(n: int, m: int) -> Cover:
    """Closed-form cover of the clique-empty join under canonical labels.

    Without an empty side the join is the clique itself; without a clique
    the formula below leaves the single generator 1..m.
    """
    if m == 0 and n > 0:
        return predicted_cover_kn(n)
    total = n + m
    entries = [_entry({i}, (), _rng(i + 1, total)) for i in range(1, n + 1)]
    v2 = _rng(n + 1, total)
    entries.append(_entry(v2, v2, ()))
    return Cover(n=total, entries=tuple(entries))


def predicted_cover_lex(n: int, m: int) -> Cover:
    """Closed-form cover of the lex graph; always a partition."""
    _check_edge_count(n, m)
    if m == 0:  # the edgeless graph is K_0 joined to E_n
        return predicted_cover_join(0, n)
    if m < n - 1:
        # star around vertex 1 with leaves 2..m+1; the rest is isolated
        iso = _rng(m + 2, n)
        entries = (
            _entry({1} | iso, iso, _rng(2, m + 1)),
            _entry(_rng(2, n), _rng(2, n), ()),
        )
        return Cover(n=n, entries=entries)
    d = sds(m, n)
    k, p = d.depth, d.parts[-1]
    entries = [_entry({i}, (), _rng(i + 1, n)) for i in range(1, k)]
    if p == n - k:
        entries.append(_entry({k}, (), _rng(k + 1, n)))
    else:
        tail = _rng(k + p + 1, n)
        entries.append(_entry({k} | tail, tail, _rng(k + 1, k + p)))
    entries.append(_entry(_rng(k + 1, n), _rng(k + 1, n), ()))
    return Cover(n=n, entries=tuple(entries))


def predicted_cover_colex(n: int, m: int) -> Cover:
    """Closed-form cover of the colex graph; always a partition."""
    _check_edge_count(n, m)
    if m == 0:  # the edgeless graph is K_0 joined to E_n
        return predicted_cover_join(0, n)
    d = sis(m, n)
    k, q = d.depth, d.parts[-1]
    iso = _rng(k + 2, n)
    entries = []
    if q == k:
        for i in range(1, k + 1):
            entries.append(_entry({i} | iso, iso, _rng(i + 1, n) - iso))
        entries.append(_entry({k + 1} | iso, {k + 1} | iso, ()))
    else:
        for i in range(1, q + 1):
            entries.append(_entry({i} | iso, iso, _rng(i + 1, n) - iso))
        for i in range(q + 1, k):
            entries.append(
                _entry({i, k + 1} | iso, {k + 1} | iso, _rng(i + 1, n) - iso - {k + 1})
            )
        entries.append(_entry({k, k + 1} | iso, {k, k + 1} | iso, ()))
    return Cover(n=n, entries=tuple(entries))


@dataclass(frozen=True)
class Family:
    """One named family: how to build it and what the paper predicts.

    `graph` and `cover` take the `params` as keyword arguments.  A family
    has either a closed-form `cover` or, when only partition-hood is known,
    a `partition` predicate on its pendant-block sizes.  `neighborhoods`
    maps the params to closed-form neighbourhoods, or to None where the
    formula does not apply.  `vertices` counts an instance's vertices from the params.
    """

    params: tuple[str, ...]
    graph: Callable[..., Graph]
    cover: Callable[..., Cover] | None = None
    partition: Callable[[Sequence[int]], bool] | None = None
    neighborhoods: Callable[..., dict[int, frozenset[int]] | None] | None = None
    vertices: Callable[..., int] = lambda n, **_: n


FAMILIES: dict[str, Family] = {
    "kn": Family(("n",), complete_graph, predicted_cover_kn),
    "join": Family(("n", "m"), kn_plus_em, predicted_cover_join, vertices=lambda n, m: n + m),
    "pendant": Family(("n", "sizes"), kn_with_pendants,
                      partition=pendant_partition_predicate,
                      vertices=lambda n, sizes: n + sum(sizes)),
    "lex": Family(("n", "m"), lex_graph, predicted_cover_lex,
                  neighborhoods=lambda n, m: lex_neighborhoods(n, m) if m >= n > 0 else None),
    "colex": Family(("n", "m"), colex_graph, predicted_cover_colex,
                    neighborhoods=colex_neighborhoods),
}
