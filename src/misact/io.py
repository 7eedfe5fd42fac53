"""Edge-list text format and JSON report shaping.

The text format: first non-comment line is `n m`, followed by m lines `u v`
with 1-based labels.  Lines starting with `#` and blank lines are ignored.
Parsing and emitting round-trip exactly, and every report built here is
deterministic byte for byte for identical inputs.
"""

from __future__ import annotations

import json
import re
from functools import cache
from typing import Any, Sequence

from .activities import Cover, PartitionVerdict
from .graph import Graph

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
    # Character i of bin(row >> u) reversed is vertex u + 1 + i: a scan linear in the row.
    chunks = ("".join([f"{u} {u + i.end()}\n" for i in re.finditer("1", bin(row >> u)[:1:-1])])
              for u, row in enumerate(G.adj_mask))
    return "".join([f"{G.n} {G.edge_count()}\n", *chunks])  # one chunk per vertex, no edge list


class _Rendered(str):
    """JSON text that to_json writes as it stands."""


class _ByteLines(dict):
    """Byte value -> the list lines (comma, newline, indent, label) of the
    labels its bits stand for at one byte offset, each made on first use."""

    def __init__(self, offset: int) -> None:
        self.base = 8 * offset + 1

    def __missing__(self, x: int) -> str:
        self[x] = text = "".join(f",\n        {self.base + i}" for i in range(8) if x >> i & 1)
        return text


# One table per byte offset, shared by every cover; it holds only the bytes met.
_byte_lines = cache(_ByteLines)


def cover_report(
    C: Cover, verdict: PartitionVerdict, f_lowers: Sequence[int] | None = None
) -> dict[str, Any]:
    """The cover and its verdict, for the top level of a report.

    "entries" is JSON text made from the masks: the list of {"mis", "int",
    "ext", "lower", "upper"} vertex lists (and "f_lower" from the masks
    `f_lowers`) as to_json would lay it out there.  Each vertex list is one
    join of its mask's bytes, looked up in their offsets' tables.
    """
    tables = [_byte_lines(b) for b in range((C.n + 7) // 8)]
    size = len(tables)

    def vl(m: int) -> str:
        lines = "".join(map(dict.__getitem__, tables, m.to_bytes(size, "little")))
        return "[" + lines[1:] + "\n      ]" if m else "[]"

    items = [
        f'{{\n      "mis": {vl(e.mis_mask)},\n      "int": {vl(e.int_mask)},\n      "ext": '
        f'{vl(e.ext_mask)},\n      "lower": {vl(e.lower_mask)},\n      "upper": {vl(e.upper_mask)}'
        for e in C.entries
    ]
    if f_lowers is not None:
        items = [f'{it},\n      "f_lower": {vl(m)}' for it, m in zip(items, f_lowers, strict=True)]
    if items:  # brackets on the end items, so that only the join copies the whole text
        items[0] = "[\n    " + items[0]
        items[-1] += "\n    }\n  ]"
    entries = _Rendered("\n    },\n    ".join(items) or "[]")
    return {"n": C.n, "entries": entries, **verdict_report(verdict)}


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


def to_json(payload: Any) -> str:
    """`json.dumps(payload, indent=2) + "\n"`, byte for byte.

    Each top-level value goes to `json.dumps` and is indented one level;
    text that cover_report rendered is written as it stands.  The top-level
    keys must be strings.
    """
    if not isinstance(payload, dict) or not payload:
        return json.dumps(payload, indent=2) + "\n"
    parts = []
    for key, value in payload.items():
        if not isinstance(key, str):
            raise TypeError(f"keys must be str, not {type(key).__name__}")
        if not isinstance(value, _Rendered):  # a newline in JSON text is layout
            value = json.dumps(value, indent=2).replace("\n", "\n  ")
        parts += (",\n  ", json.dumps(key), ": ", value)
    return "".join(["{\n  ", *parts[1:], "\n}\n"])  # one copy of the rendered text
