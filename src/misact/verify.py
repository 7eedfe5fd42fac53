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
    _interval_masks,
    _locate_generator_mask,
    cover,
    int_active,
    partition_verdict,
)
from .complete import _internally_complete, _obstructions, externally_complete, internally_complete
from .families import FAMILIES
from .graph import (
    Graph,
    enumerate_maximal_independent_sets,  # noqa: F401  bench/spans.py traces it here
    set_of,
)

__all__ = ["CheckResult", "verify_all", "verify_family"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def verify_all(G: Graph, oracle_bound: int = DEFAULT_ORACLE_BOUND) -> list[CheckResult]:
    """Run the library's invariants on one graph.

    Up to `oracle_bound` vertices the coverage check reads the exact verdict,
    which raises RuntimeError if a subset lies in no interval, and the
    location check walks all 2^n subsets; beyond that both are skipped with
    a note.  An obstruction on a cover whose verdict is a partition raises
    RuntimeError (CLI exit 3).  A bound above MAX_ORACLE_BOUND raises
    ValueError before anything is computed.
    """
    _check_oracle_bound(oracle_bound)
    out: list[CheckResult] = []
    c = cover(G)
    # up to the bound the verdict counts the intervals' union and raises on a miss
    verdict = partition_verdict(c, oracle_bound=oracle_bound)

    if G.n <= oracle_bound:
        out.append(CheckResult("coverage", True, "every subset lies in some interval"))
        # the greedy result must be a generator of the cover whose interval holds x
        intervals = {e.mis_mask: iv for e, iv in zip(c.entries, _interval_masks(c))}
        bad_locate = None
        for x in range(1 << G.n):
            iv = intervals.get(_locate_generator_mask(G, x))
            if iv is None or iv[0] & ~x or x & ~iv[1]:
                bad_locate = x
                break
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
    obstructions = _obstructions(G, c, verdict)
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
    params = {p: values[p] for p in fam.params}
    G = fam.graph(**params)

    if fam.cover is None:
        predicted = fam.partition(sizes)
        verdict = partition_verdict(cover(G))
        return [
            CheckResult(
                "pendant_predicate",
                predicted == verdict.is_partition,
                f"predicted partition={predicted}, computed={verdict.is_partition}",
            )
        ]

    predicted = fam.cover(**params)
    computed = cover(G)
    out = [
        CheckResult(
            "predicted_cover",
            predicted == computed,
            f"{len(predicted.entries)} predicted vs {len(computed.entries)} computed entries",
        )
    ]
    verdict = partition_verdict(computed)
    out.append(
        CheckResult(
            "partition",
            verdict.is_partition,
            f"repeated subsets: {verdict.repeated_subset_count}",
        )
    )
    formulas = fam.neighborhoods(n, m) if fam.neighborhoods else None
    if formulas is not None:
        out.append(
            CheckResult(
                "neighborhood_formula",
                all(formulas[v] == G.adj[v] for v in G.vertices),
                "closed-form neighbourhoods match adjacency",
            )
        )
    return out
