"""Edge-list text format and JSON report shaping.

The text format: first non-comment line is `n m`, followed by m lines `u v`
with 1-based labels.  Lines starting with `#` and blank lines are ignored.
Parsing and emitting round-trip exactly, and every report built here is
deterministic byte for byte for identical inputs.
"""

from __future__ import annotations

import json
from functools import cache
from typing import Any

from .activities import Cover, PartitionVerdict
from .graph import Graph, _bits

__all__ = [
    "MAX_VERTICES",
    "EdgeListError",
    "parse_edge_list",
    "emit_edge_list",
    "cover_report",
    "verdict_report",
    "to_json",
]


# Largest header vertex count accepted: a Graph allocates per-vertex tables
# before any edge is read, so an unchecked header could ask for gigabytes.
MAX_VERTICES = 100_000


class EdgeListError(ValueError):
    """Malformed edge-list input; the message carries the line number."""


def parse_edge_list(text: str) -> Graph:
    """Parse the `n m` / `u v` text format into a Graph."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append((lineno, line))
    if not rows:
        raise EdgeListError("line 1: empty input, expected header 'n m'")

    head_no, head = rows[0]
    fields = head.split()
    if len(fields) != 2:
        raise EdgeListError(f"line {head_no}: header must be 'n m', got {head!r}")
    try:
        n, m = int(fields[0]), int(fields[1])
    except ValueError:
        raise EdgeListError(f"line {head_no}: header must be two integers") from None
    if n < 0 or m < 0:
        raise EdgeListError(f"line {head_no}: counts must be non-negative")
    if n > MAX_VERTICES:
        raise EdgeListError(f"line {head_no}: vertex count {n} exceeds the limit {MAX_VERTICES}")

    body = rows[1:]
    if len(body) != m:
        raise EdgeListError(
            f"line {head_no}: header promises {m} edges, found {len(body)}"
        )
    edges = []
    for lineno, line in body:
        fields = line.split()
        if len(fields) != 2:
            raise EdgeListError(f"line {lineno}: edge must be 'u v', got {line!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise EdgeListError(f"line {lineno}: edge must be two integers") from None
        if not (1 <= u <= n) or not (1 <= v <= n):
            raise EdgeListError(f"line {lineno}: label outside 1..{n} in '{u} {v}'")
        if u == v:
            raise EdgeListError(f"line {lineno}: self-loop at {u}")
        edges.append((u, v))
    return Graph(n, edges)


def emit_edge_list(G: Graph) -> str:
    """Serialize a graph to the text format, edges sorted."""
    chunks = ("".join(f"{u} {v}\n" for v in _bits(G.adj_mask[u] >> u << u)) for u in G.vertices)
    return "".join([f"{G.n} {G.edge_count()}\n", *chunks])  # one chunk per vertex, no edge list


def cover_report(C: Cover, verdict: PartitionVerdict) -> dict[str, Any]:
    return {
        "n": C.n,
        "entries": [
            {
                "mis": list(_bits(e.mis_mask)),
                "int": list(_bits(e.int_mask)),
                "ext": list(_bits(e.ext_mask)),
                "lower": list(_bits(e.lower_mask)),
                "upper": list(_bits(e.upper_mask)),
            }
            for e in C.entries
        ],
        **verdict_report(verdict),
    }


def verdict_report(verdict: PartitionVerdict) -> dict[str, Any]:
    witness = None
    if verdict.witness is not None:
        witness = {
            "subset": sorted(verdict.witness.subset),
            "generators": [
                sorted(verdict.witness.generator_a),
                sorted(verdict.witness.generator_b),
            ],
        }
    return {
        "is_partition": verdict.is_partition,
        "repeated_subsets": verdict.repeated_subset_count,
        "witness": witness,
    }


def to_json(payload: dict[str, Any]) -> str:
    """`json.dumps(payload, indent=2) + "\n"`, byte for byte.

    CPython runs its C encoder only without indentation, so the containers
    are laid out here and keys and scalars go to `json.dumps`.  A list of
    plain ints, such as a vertex list, is joined in one step.  Keys must be
    strings.
    """
    out: list[str] = []
    digits = cache(str)  # vertex labels repeat: convert each once per call

    def encode(value: Any, nl: str) -> None:
        inner = nl + "  "
        if isinstance(value, (list, tuple)):
            if not value:
                out.append("[]")
            elif set(map(type, value)) == {int}:  # not bools: True == 1
                out.append("[" + inner + ("," + inner).join(map(digits, value)) + nl + "]")
            else:
                sep = "[" + inner
                for item in value:
                    out.append(sep)
                    encode(item, inner)
                    sep = "," + inner
                out.append(nl + "]")
        elif isinstance(value, dict):
            if not value:
                out.append("{}")
                return
            sep = "{" + inner
            for key, item in value.items():
                if not isinstance(key, str):
                    raise TypeError(f"keys must be str, not {type(key).__name__}")
                out.append(sep + json.dumps(key) + ": ")
                encode(item, inner)
                sep = "," + inner
            out.append(nl + "}")
        else:
            out.append(json.dumps(value))

    encode(payload, "\n")
    out.append("\n")
    return "".join(out)
