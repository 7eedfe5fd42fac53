"""Command-line interface.

Exit codes: 0 success, 1 malformed input or domain error, 2 a verification
or partition promise failed, 3 internal error (a cross-check inside the
library failed), 64 usage error.  All reports are JSON on standard output
except `generate`, which emits the edge-list text format.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .activities import (
    DEFAULT_ORACLE_BOUND,
    activity_polynomial,
    cover,
    partition_verdict,
    search_labelling,
)
from .complete import (
    _internally_complete,
    _obstructions,
    enumerate_internally_complete,  # noqa: F401  bench/spans.py traces it here
    externally_complete,
    find_complete,
    partition_obstructions,  # noqa: F401  bench/spans.py traces it here
)
from .families import FAMILIES
from .graph import Graph
from .io import cover_report, emit_edge_list, parse_edge_list, to_json, verdict_report
from .pruned import pruned_instance, pruned_partition
from .verify import verify_all, verify_family

INTERNAL_ERROR = 3
USAGE_ERROR = 64


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _read_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _parse_sizes(raw: str) -> list[int]:
    try:
        return [int(x) for x in raw.split(",") if x != ""]
    except ValueError:
        raise ValueError(f"sizes must be comma-separated integers, got {raw!r}") from None


def _family_values(args: argparse.Namespace) -> dict:
    """The family's parameters by name; a pendant clique has one vertex per block."""
    params = FAMILIES[args.family].params
    if "sizes" in params:
        sizes = _parse_sizes(_need(args, "sizes"))
        return {"n": len(sizes), "sizes": sizes}
    return {p: _need(args, p) for p in params}


def _need(args: argparse.Namespace, name: str):
    value = getattr(args, name, None)
    if value is None:
        raise _UsageError(f"--{name} is required for family '{args.family}'")
    return value


def _cmd_cover(args: argparse.Namespace) -> int:
    G = _read_graph(args.file)
    c = cover(G)
    _emit(to_json(cover_report(c, partition_verdict(c))), args.out)
    return 0


def _cmd_partition_check(args: argparse.Namespace) -> int:
    G = _read_graph(args.file)
    verdict = partition_verdict(cover(G))
    _emit(to_json({"n": G.n, **verdict_report(verdict)}), args.out)
    return 0


def _cmd_complete_sets(args: argparse.Namespace) -> int:
    G = _read_graph(args.file)
    comp = find_complete(G)
    c = cover(G)
    verdict = partition_verdict(c)
    report = {
        "n": G.n,
        "externally_complete": sorted(externally_complete(G)),
        "internally_complete": [sorted(s) for s in _internally_complete(c)],
        "complete": sorted(comp) if comp is not None else None,
        "obstructions": [
            {"kind": o.kind, "witnesses": [sorted(w) for w in o.witnesses]}
            for o in _obstructions(G, c, verdict)
        ],
        "is_partition": verdict.is_partition,
    }
    _emit(to_json(report), args.out)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    _emit(emit_edge_list(FAMILIES[args.family].graph(**_family_values(args))), args.out)
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    fam = FAMILIES[args.family]
    values = _family_values(args)
    computed = cover(fam.graph(**values))
    verdict = partition_verdict(computed)
    if fam.cover is None:
        predicted = fam.partition(values["sizes"])
        report = {
            "family": args.family,
            "sizes": values["sizes"],
            "predicted_partition": predicted,
            "computed_partition": verdict.is_partition,
            "verified": predicted == verdict.is_partition,
        }
    else:
        predicted = fam.cover(**values)
        report = {
            "family": args.family,
            "params": {"n": args.n, "m": args.m},
            **cover_report(predicted, verdict),
            "verified": predicted.entries == computed.entries and verdict.is_partition,
        }
    _emit(to_json(report), args.out)
    return 0 if report["verified"] else 2


def _cmd_pruned(args: argparse.Namespace) -> int:
    tree = _read_graph(args.tree)
    host = _read_graph(args.host) if args.host else None
    instance = pruned_instance(tree, host, args.root)
    report_obj = pruned_partition(instance, leaf_mode=args.leaf_mode)
    body = cover_report(report_obj.cover, report_obj.verdict)
    for entry, fl in zip(body["entries"], report_obj.f_lowers):
        entry["f_lower"] = sorted(fl)
    report = {
        "root": instance.root,
        "leaf_mode": report_obj.leaf_mode,
        "tree_leaves": sorted(instance.leaf_set_tree),
        "host_leaves": sorted(instance.leaf_set_host),
        **body,
        "lower_matches_f": report_obj.lower_matches_f,
        "int_equals_tree_leaves": report_obj.int_equals_tree_leaves,
    }
    _emit(to_json(report), args.out)
    return 0 if report_obj.verdict.is_partition else 2


def _cmd_search_labelling(args: argparse.Namespace) -> int:
    G = _read_graph(args.file)
    result = search_labelling(
        G, budget=args.budget, mode=args.mode, seed=args.seed
    )
    report = {
        "n": G.n,
        "mode": result.mode,
        "seed": result.seed,
        "trials": result.trials,
        "best_permutation": list(result.permutation),
        "found_partition": result.found_partition,
        **verdict_report(result.verdict),
    }
    _emit(to_json(report), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.family:
        checks = verify_family(args.family, **_family_values(args))
        target = f"family:{args.family}"
    elif args.file:
        checks = verify_all(_read_graph(args.file), oracle_bound=args.oracle_bound)
        target = args.file
    else:
        raise _UsageError("verify needs a file or --family")
    report = {
        "target": target,
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks
        ],
        "all_passed": all(c.passed for c in checks),
    }
    _emit(to_json(report), args.out)
    return 0 if report["all_passed"] else 2


def _cmd_polynomial(args: argparse.Namespace) -> int:
    G = _read_graph(args.file)
    poly = activity_polynomial(G)
    terms = [
        {"mis_size": s, "ext_size": e, "int_size": i, "count": c}
        for (s, e, i), c in sorted(poly.coefficients.items())
    ]
    report = {"n": G.n, "terms": terms, "mis_count": poly.mis_count()}
    _emit(to_json(report), args.out)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="misact", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, **kwargs) -> argparse.ArgumentParser:
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--out", help="write output to a file instead of stdout")
        return p

    p = add("cover", _cmd_cover, help="activity cover of a graph")
    p.add_argument("file")

    p = add("partition-check", _cmd_partition_check, help="partition verdict only")
    p.add_argument("file")

    p = add("complete-sets", _cmd_complete_sets, help="complete sets and obstructions")
    p.add_argument("file")

    for name, func in (("generate", _cmd_generate), ("predict", _cmd_predict)):
        p = add(name, func, help=f"{name} a graph family instance")
        p.add_argument("family", choices=tuple(FAMILIES))
        p.add_argument("--n", type=int)
        p.add_argument("--m", type=int)
        p.add_argument("--sizes", help="comma-separated pendant block sizes")

    p = add("pruned", _cmd_pruned, help="partition pipeline for a pruned instance")
    p.add_argument("--tree", required=True)
    p.add_argument("--host")
    p.add_argument("--root", type=int)
    p.add_argument("--leaf-mode", choices=("tree", "host"), default="tree")

    p = add("search-labelling", _cmd_search_labelling, help="find a low-repeat labelling")
    p.add_argument("file")
    p.add_argument("--mode", choices=("exhaustive", "random"), default="exhaustive")
    p.add_argument("--budget", type=int)
    p.add_argument("--seed", type=int)

    p = add("verify", _cmd_verify, help="run invariant or family checks")
    p.add_argument("file", nargs="?")
    p.add_argument("--family", choices=tuple(FAMILIES))
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--sizes")
    p.add_argument("--oracle-bound", type=int, default=DEFAULT_ORACLE_BOUND)

    p = add("polynomial", _cmd_polynomial, help="activity polynomial coefficients")
    p.add_argument("file")

    return parser


def run(argv: Sequence[str]) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, OSError) as exc:  # EdgeListError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
