"""Externally, internally, and fully complete maximal independent sets.

The special sets are generators located by `locate_generator`: the one
located for V is the externally complete set, the one located for the
empty set is an internally complete set, and the one located for {v} is
the singleton generator of v.

An externally complete set generates everything above it (its external
activity is the whole complement); the ascending greedy pass produces the
unique one.  An internally complete set generates everything below itself
(every member is internally active); the descending greedy pass always
produces one, though others may exist.  A set that is both generates the
entire subset lattice, which also means the cover cannot be a partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .activities import (
    Cover,
    PartitionVerdict,
    _activity_masks,
    _locate_generator_mask,
    cover,
    ext_active,
    interval_of,
    partition_verdict,
)
from .graph import (
    Graph,
    _bits,
    _is_maximal_independent_mask,
    enumerate_maximal_independent_sets,  # noqa: F401  bench/spans.py traces it here
    is_maximal_independent,
    set_of,
)

__all__ = [
    "Obstruction",
    "externally_complete",
    "internally_complete",
    "enumerate_internally_complete",
    "is_externally_complete",
    "is_internally_complete",
    "is_complete",
    "find_complete",
    "partition_obstructions",
    "singleton_generator_for",
    "isolated_after_removal_check",
]


def externally_complete(G: Graph) -> frozenset[int]:
    """The unique maximal independent set S with Ext(S) = complement of S.

    Ascending greedy: every rejected vertex is adjacent to a smaller kept
    one, which is exactly external activity.
    """
    return set_of(_locate_generator_mask(G, G.full_mask))


def internally_complete(G: Graph) -> frozenset[int]:
    """A maximal independent set S with Int(S) = S, by descending greedy.

    Not unique in general; see enumerate_internally_complete.
    """
    return set_of(_locate_generator_mask(G, 0))


def is_externally_complete(G: Graph, A: Iterable[int], mode: str = "standard") -> bool:
    s = frozenset(A)
    if not is_maximal_independent(G, s):
        raise ValueError(f"{sorted(s)} is not a maximal independent set")
    return ext_active(G, s, mode=mode) == G.vertex_set - s


def is_internally_complete(G: Graph, A: Iterable[int]) -> bool:
    return interval_of(G, A).lower_mask == 0


def enumerate_internally_complete(G: Graph) -> list[frozenset[int]]:
    """All internally complete sets, in canonical order."""
    return _internally_complete(cover(G))


def _internally_complete(C: Cover) -> list[frozenset[int]]:
    return [e.generator for e in C.entries if e.int_mask == e.mis_mask]


def is_complete(G: Graph, A: Iterable[int]) -> bool:
    """Both internally and externally complete: the interval is the lattice."""
    e = interval_of(G, A)
    return e.lower_mask == 0 and e.upper_mask == G.full_mask


def find_complete(G: Graph) -> frozenset[int] | None:
    """The complete maximal independent set, if the graph has one.

    A complete set must coincide with the unique externally complete set,
    so only that one candidate needs its internal side checked.
    """
    m = _locate_generator_mask(G, G.full_mask)
    return set_of(m) if _activity_masks(G, m)[0] == m else None


@dataclass(frozen=True)
class Obstruction:
    """A structural reason the cover cannot be a partition."""

    kind: str  # "complete_set_exists" or "two_internally_complete"
    witnesses: tuple[frozenset[int], ...]


def partition_obstructions(G: Graph) -> list[Obstruction]:
    """Detect structures that force repeated subsets in the cover.

    A complete set generates every subset, so any second generator's interval
    overlaps it; two internally complete sets both generate the empty set.
    A graph whose only maximal independent set is complete (an edgeless one)
    has a single-interval cover and no obstruction.  When any obstruction is
    present the computed verdict is cross-checked to be a non-partition; a
    mismatch would be a soundness bug, hence the hard error.
    """
    c = cover(G)
    return _obstructions(c, partition_verdict(c), find_complete(G))


def _obstructions(
    C: Cover, verdict: PartitionVerdict, comp: frozenset[int] | None
) -> list[Obstruction]:
    """partition_obstructions on a graph's cover C, its verdict and its find_complete."""
    out: list[Obstruction] = []
    if comp is not None and len(C.entries) >= 2:
        out.append(Obstruction("complete_set_exists", (comp,)))
    internals = _internally_complete(C)
    if len(internals) >= 2:
        out.append(Obstruction("two_internally_complete", tuple(internals)))
    if out and verdict.is_partition:
        raise RuntimeError("obstruction found but cover is a partition")
    return out


def singleton_generator_for(G: Graph, v: int) -> frozenset[int]:
    """A maximal independent set A containing v with lower endpoint {v} or empty.

    Construction: the located generator of {v}, which is v plus the
    descending greedy over the vertices outside N[v], by original labels.
    The postcondition (A - Int(A) is {v} or empty) is asserted.
    """
    G._check_vertex(v)
    bit = 1 << (v - 1)
    m = _locate_generator_mask(G, bit)
    if not _is_maximal_independent_mask(G, m):
        raise RuntimeError(f"construction for vertex {v} is not maximal")
    low = m & ~_activity_masks(G, m)[0]
    if low not in (0, bit):
        raise RuntimeError(
            f"lower endpoint {sorted(set_of(low))} is neither empty nor {{{v}}}"
        )
    return set_of(m)


def isolated_after_removal_check(G: Graph, v: int) -> tuple[bool, bool | None]:
    """Does deleting N[v] leave isolated vertices, and the activity consequence.

    Returns (has_isolated, verified).  When has_isolated is true, every
    maximal independent set containing v is checked to have a non-empty
    internal activity set and `verified` reports the outcome; otherwise
    `verified` is None.
    """
    G._check_vertex(v)
    bit = 1 << (v - 1)
    rest = G.full_mask & ~(bit | G.adj_mask[v])
    if all(G.adj_mask[u] & rest for u in _bits(rest)):
        return False, None
    return True, all(e.int_mask for e in cover(G).entries if e.mis_mask & bit)
