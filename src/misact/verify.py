"""Cross-check harness: runs every invariant the library promises on one
graph, or compares a family's closed-form cover against the computed one.

Each check returns a named pass/fail with a short detail string; the CLI
turns any failure into exit code 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Sequence

from .activities import (
    DEFAULT_ORACLE_BOUND,
    Cover,
    PartitionVerdict,
    _check_oracle_bound,
    _interval_masks,
    _locate_planes,
    cover,
    int_active,
    partition_verdict,
)
from .complete import (
    _internally_complete,
    _obstructions,
    externally_complete,
    find_complete,
    internally_complete,
)
from .families import FAMILIES, Family
from .graph import (
    Graph,
    _bits,
    _is_maximal_independent_mask,
    enumerate_maximal_independent_sets,  # noqa: F401  bench/spans.py traces it here
    set_of,
)

__all__ = ["CheckResult", "verify_all", "verify_family"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


# The location check walks the lattice in chunks of 2^_CHUNK_BITS subsets.  On
# G(20, 0.3), seed 7, best of 15: 16 took 0.009 s and peaked at 0.7 MB; 12
# took 0.024 s, and one chunk of 2^20 took 0.016 s and peaked at 10.8 MB.
_CHUNK_BITS = 16


@cache
def _index_planes(width: int) -> tuple[int, ...]:
    """Bit x of plane i says whether bit i of x is set, for x < 2^width."""
    out = []
    for i in range(width):
        plane, span = ((1 << (1 << i)) - 1) << (1 << i), 2 << i
        while span < 1 << width:
            plane |= plane << span
            span <<= 1
        out.append(plane)
    return tuple(out)


def _first_bad_locate(G: Graph, C: Cover) -> int | None:
    """The first subset x, in mask order, whose located generator's interval lacks x.

    Runs _locate_planes chunk by chunk: the low vertices, the window, get
    periodic planes, the others constant ones, 0 or `full`.  Entry (A, lo,
    hi) holds x when B(x) = A and lo <= x <= hi.  On the window's bits,
    lo <= x <= hi is the AND of two planes, one per half of the window,
    each built once and shared by the entries with the same bits of lo and
    hi there (_part_planes); above it, one scalar test per chunk and per
    entry.  When A is a maximal independent set, B(x) = A exactly when
    B(x) holds A and is independent, since an independent superset of a
    maximal independent set is that set: the AND of the B planes of A,
    outside the conflict plane, the OR of B_u & B_v over the edges uv.  Any
    other A keeps the exact test: the AND of its B planes, less the OR of
    the others.  The bad subsets are those no entry holds.
    """
    n = G.n
    width = min(n, _CHUNK_BITS)
    window = (1 << width) - 1
    full = (1 << (1 << width)) - 1
    low = _index_planes(width)
    masks = _interval_masks(C)
    half = (1 << (width + 1) // 2) - 1
    entries = []
    for e, (lo, hi), low_half, high_half in zip(
        C.entries, masks, _part_planes(low, full, half, masks),
        _part_planes(low, full, window ^ half, masks),
    ):
        m = e.mis_mask
        others = None if _is_maximal_independent_mask(G, m) else [*_bits(G.full_mask & ~m)]
        entries.append((lo & ~window, G.full_mask & ~(hi | window), low_half, high_half,
                        [*_bits(m)], others))
    # each vertex u with its neighbours above u: every edge uv once
    later = [(u, vs) for u in G.vertices if (vs := [*_bits(G.adj_mask[u] >> u << u)])]
    for base in range(0, 1 << n, 1 << width):
        planes = [0, *low, *(full if base >> i & 1 else 0 for i in range(width, n))]
        bad = full ^ _held(_locate_planes(G, planes, full), entries, later, base)
        if bad:
            return base + (bad & -bad).bit_length() - 1
    return None


def _part_planes(
    low: tuple[int, ...], full: int, part: int, masks: list[tuple[int, int]]
) -> list[int]:
    """Per interval (lo, hi), the plane of lo <= x <= hi on the bits of `part`.

    An AND of the index planes `low` of the bits of lo and of the
    complements of those outside hi, built once per distinct (lo & part,
    hi & part) and shared.
    """
    outside = {v: full ^ low[v - 1] for v in _bits(part)}
    shapes: dict[tuple[int, int], int] = {}
    out = []
    for lo, hi in masks:
        key = (lo & part, hi & part)
        if key not in shapes:
            shape = full
            for v in _bits(key[0]):
                shape &= low[v - 1]
            for v in _bits(part & ~hi):
                shape &= outside[v]
            shapes[key] = shape
        out.append(shapes[key])
    return out


def _held(b: list[int], entries: list[tuple], later: list[tuple[int, list[int]]], base: int) -> int:
    """The subsets of the chunk at `base` that their located generator's entry holds.

    `b` holds the chunk's B planes; `entries` each entry as (bits of lo
    above the window, bits above it outside hi, its planes on the window's
    two halves, members, non-members or None); `later` each vertex u with
    its neighbours above u, if any.
    """
    good = exact = 0
    for lo_high, out_high, low_half, high_half, members, others in entries:
        if lo_high & ~base or base & out_high:
            continue
        on = low_half & high_half
        for v in members:
            on &= b[v]
        if others is None:
            good |= on
        elif on:
            off = 0
            for v in others:
                off |= b[v]
            exact |= on & ~off
    conflict = 0
    for u, vs in later:
        near = 0
        for v in vs:
            near |= b[v]
        conflict |= b[u] & near
    return good ^ (good & conflict) | exact


def verify_all(G: Graph, oracle_bound: int = DEFAULT_ORACLE_BOUND) -> list[CheckResult]:
    """Run the library's invariants on one graph.

    Up to `oracle_bound` vertices the coverage check reads the exact verdict,
    which raises RuntimeError if a subset lies in no interval, and the
    location check runs the greedy of locate_generator on bit planes over
    all 2^n subsets; beyond that both are skipped with a note.  An
    obstruction on a cover whose verdict is a partition raises RuntimeError
    (CLI exit 3).  A bound below 0 or above MAX_ORACLE_BOUND raises
    ValueError before anything is computed.
    """
    _check_oracle_bound(oracle_bound)
    out: list[CheckResult] = []
    c = cover(G)
    # up to the bound the verdict counts the intervals' union and raises on a miss
    verdict = partition_verdict(c, oracle_bound=oracle_bound)

    if G.n <= oracle_bound:
        out.append(CheckResult("coverage", True, "every subset lies in some interval"))
        bad_locate = _first_bad_locate(G, c)
        out.append(
            CheckResult(
                "locate_generator",
                bad_locate is None,
                "greedy generator contains every subset"
                if bad_locate is None
                else f"fails for {sorted(set_of(bad_locate))}",
            )
        )
    else:
        out.append(CheckResult("coverage", True, f"skipped: n={G.n} > {oracle_bound}"))
        out.append(CheckResult("locate_generator", True, f"skipped: n={G.n} > {oracle_bound}"))

    ext_complete = [e.generator for e in c.entries if e.ext_mask == G.full_mask & ~e.mis_mask]
    algo = externally_complete(G)
    out.append(
        CheckResult(
            "externally_complete_unique",
            len(ext_complete) == 1 and ext_complete[0] == algo,
            f"greedy gives {sorted(algo)}; scan found "
            f"{[sorted(s) for s in ext_complete]}",
        )
    )

    internal = internally_complete(G)
    out.append(
        CheckResult(
            "internally_complete",
            int_active(G, internal) == internal and internal in _internally_complete(c),
            f"descending greedy gives {sorted(internal)}",
        )
    )

    ext_empty_ok = all(e.int_mask == e.mis_mask for e in c.entries if not e.ext_mask)
    out.append(
        CheckResult(
            "ext_empty_implies_int_full",
            ext_empty_ok,
            "externally empty sets are internally complete",
        )
    )

    # _obstructions raises RuntimeError when an obstruction meets a partition verdict
    obstructions = _obstructions(c, verdict, find_complete(G))
    out.append(
        CheckResult(
            "obstruction_consistency",
            True,
            f"obstructions={[o.kind for o in obstructions]}, "
            f"is_partition={verdict.is_partition}",
        )
    )
    return out


def verify_family(family: str, n: int, m: int = 0,
                  sizes: Sequence[int] | None = None) -> list[CheckResult]:
    """Compare a family's closed-form cover or partition predicate with the computed one."""
    fam = FAMILIES.get(family)
    if fam is None:
        raise ValueError(f"family must be one of {tuple(FAMILIES)}")
    if "sizes" in fam.params and sizes is None:
        raise ValueError("pendant family needs the pendant-block sizes")
    values = {"n": n, "m": m, "sizes": sizes}
    return _family_checks(fam, {p: values[p] for p in fam.params})[2]


def _family_checks(fam: Family, params: dict) -> tuple[Cover | bool, PartitionVerdict, list]:
    """(prediction, verdict on the computed cover, CheckResults) for one family instance.

    A closed-form cover is checked entry for entry, for partition-hood and,
    where it applies, against the neighbourhood formula; a partition
    predicate against the verdict.  `predict` and `verify --family` both
    run these checks.
    """
    G = fam.graph(**params)
    computed = cover(G)
    verdict = partition_verdict(computed)
    if fam.cover is None:
        predicted = fam.partition(params["sizes"])
        return predicted, verdict, [CheckResult(
            "pendant_predicate", predicted == verdict.is_partition,
            f"predicted partition={predicted}, computed={verdict.is_partition}",
        )]
    predicted = fam.cover(**params)
    checks = [
        CheckResult(
            "predicted_cover", predicted == computed,
            f"{len(predicted.entries)} predicted vs {len(computed.entries)} computed entries",
        ),
        CheckResult(
            "partition", verdict.is_partition, f"repeated subsets: {verdict.repeated_subset_count}"
        ),
    ]
    formulas = fam.neighborhoods(**params) if fam.neighborhoods else None
    if formulas is not None:
        checks.append(CheckResult(
            "neighborhood_formula", all(formulas[v] == G.neighbors(v) for v in G.vertices),
            "closed-form neighbourhoods match adjacency",
        ))
    return predicted, verdict, checks
