"""Cross-check harness: runs every invariant the library promises on one
graph, or compares a family's closed-form cover against the computed one.

Each check returns a named pass/fail with a short detail string; the CLI
turns any failure into exit code 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .activities import (
    DEFAULT_ORACLE_BOUND,
    _check_oracle_bound,
    _locate_generator_mask,
    _subset_histogram,
    cover,
    ext_active,
    int_active,
    interval_of,
    partition_verdict,
)
from .complete import (
    enumerate_internally_complete,
    externally_complete,
    internally_complete,
    partition_obstructions,
)
from .families import (
    colex_graph,
    colex_neighborhoods,
    complete_graph,
    kn_plus_em,
    kn_with_pendants,
    lex_graph,
    lex_neighborhoods,
    pendant_partition_predicate,
    predicted_cover_colex,
    predicted_cover_join,
    predicted_cover_kn,
    predicted_cover_lex,
)
from .graph import Graph, enumerate_maximal_independent_sets, set_of

__all__ = ["CheckResult", "verify_all", "verify_family"]

FAMILIES = ("kn", "join", "pendant", "lex", "colex")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, passed: bool, detail: str = "") -> CheckResult:
    return CheckResult(name=name, passed=passed, detail=detail)


def verify_all(G: Graph, oracle_bound: int = DEFAULT_ORACLE_BOUND) -> list[CheckResult]:
    """Run the library's invariants on one graph.

    Exhaustive subset passes run only up to `oracle_bound` vertices; beyond
    that the coverage and location checks are skipped with a note.  A bound
    above MAX_ORACLE_BOUND raises ValueError before anything is computed.
    """
    _check_oracle_bound(oracle_bound)
    out: list[CheckResult] = []
    c = cover(G)

    small = G.n <= oracle_bound
    if small:
        counts = _subset_histogram(c)
        zero = counts.count(0)
        out.append(
            _result(
                "coverage",
                zero == 0,
                "every subset lies in some interval"
                if zero == 0
                else f"{zero} subsets uncovered",
            )
        )
        bad_locate = None
        reports: dict[int, tuple[int, int, int, int]] = {}
        for x in range(1 << G.n):
            b = _locate_generator_mask(G, x)
            if b not in reports:
                rep = interval_of(G, set_of(b))
                reports[b] = (rep.lower_mask, rep.upper_mask, rep.ext_mask, rep.int_mask)
            lo, hi, ext_m, int_m = reports[b]
            if lo & ~x or x & ~hi or (x & ~b) & ~ext_m or (b & ~x) & ~int_m:
                bad_locate = x
                break
        out.append(
            _result(
                "locate_generator",
                bad_locate is None,
                "greedy generator contains every subset"
                if bad_locate is None
                else f"fails for {sorted(set_of(bad_locate))}",
            )
        )
    else:
        out.append(_result("coverage", True, f"skipped: n={G.n} > {oracle_bound}"))
        out.append(_result("locate_generator", True, f"skipped: n={G.n} > {oracle_bound}"))

    mis = enumerate_maximal_independent_sets(G)
    ext_complete = [A for A in mis if ext_active(G, A) == G.vertex_set - A]
    algo = externally_complete(G)
    out.append(
        _result(
            "externally_complete_unique",
            len(ext_complete) == 1 and ext_complete[0] == algo,
            f"greedy gives {sorted(algo)}; scan found "
            f"{[sorted(s) for s in ext_complete]}",
        )
    )

    internal = internally_complete(G)
    out.append(
        _result(
            "internally_complete",
            int_active(G, internal) == internal
            and internal in enumerate_internally_complete(G),
            f"descending greedy gives {sorted(internal)}",
        )
    )

    ext_empty_ok = all(int_active(G, A) == A for A in mis if not ext_active(G, A))
    out.append(
        _result(
            "ext_empty_implies_int_full",
            ext_empty_ok,
            "externally empty sets are internally complete",
        )
    )

    verdict = partition_verdict(c, oracle_bound=oracle_bound)
    obstructions = partition_obstructions(G)
    consistent = not obstructions or not verdict.is_partition
    out.append(
        _result(
            "obstruction_consistency",
            consistent,
            f"obstructions={[o.kind for o in obstructions]}, "
            f"is_partition={verdict.is_partition}",
        )
    )
    return out


def _covers_equal(a, b) -> bool:
    return a.n == b.n and a.entries == b.entries


def verify_family(family: str, n: int, m: int = 0,
                  sizes: Sequence[int] | None = None) -> list[CheckResult]:
    """Compare a family's closed-form cover with the computed one."""
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}")
    out: list[CheckResult] = []

    if family == "pendant":
        if sizes is None:
            raise ValueError("pendant family needs the pendant-block sizes")
        G = kn_with_pendants(n, sizes)
        predicted = pendant_partition_predicate(sizes)
        verdict = partition_verdict(cover(G))
        out.append(
            _result(
                "pendant_predicate",
                predicted == verdict.is_partition,
                f"predicted partition={predicted}, computed={verdict.is_partition}",
            )
        )
        return out

    if family == "kn":
        G, predicted = complete_graph(n), predicted_cover_kn(n)
    elif family == "join":
        G, predicted = kn_plus_em(n, m), predicted_cover_join(n, m)
    elif family == "lex":
        G, predicted = lex_graph(n, m), predicted_cover_lex(n, m)
    else:
        G, predicted = colex_graph(n, m), predicted_cover_colex(n, m)

    computed = cover(G)
    out.append(
        _result(
            "predicted_cover",
            _covers_equal(predicted, computed),
            f"{len(predicted.entries)} predicted vs {len(computed.entries)} computed entries",
        )
    )
    verdict = partition_verdict(computed)
    out.append(
        _result(
            "partition",
            verdict.is_partition,
            f"repeated subsets: {verdict.repeated_subset_count}",
        )
    )
    if family == "lex" and m >= n:
        formulas = lex_neighborhoods(n, m)
        out.append(
            _result(
                "neighborhood_formula",
                all(formulas[v] == G.adj[v] for v in G.vertices),
                "closed-form neighbourhoods match adjacency",
            )
        )
    if family == "colex":
        formulas = colex_neighborhoods(n, m)
        out.append(
            _result(
                "neighborhood_formula",
                all(formulas[v] == G.adj[v] for v in G.vertices),
                "closed-form neighbourhoods match adjacency",
            )
        )
    return out
