"""Edge-list text format and JSON report shaping.

The text format: first non-comment line is `n m`, followed by m lines `u v`
with 1-based labels.  Lines starting with `#` and blank lines are ignored.
Parsing and emitting round-trip exactly, and every report built here is
deterministic byte for byte for identical inputs.
"""

from __future__ import annotations

import json
from functools import cache
from itertools import chain
from operator import and_, inv, neg, not_, or_, sub
from typing import Any, Sequence

from .activities import Cover, PartitionVerdict
from .graph import Graph, _mask_bytes

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
    rows = map(_row_lines, range(len(G.adj_mask)), G.adj_mask)  # one chunk per vertex
    return "".join([f"{G.n} {G.edge_count()}\n", *rows])


def _row_lines(u: int, row: int) -> str:
    """The lines "u v" of the neighbours v > u in `row`, ascending.

    Bit i of row >> u is vertex u + 1 + i.  find locates each nonzero byte
    (at C speed over the zero ones), and _BYTE_BITS lists the bits inside it.
    """
    row >>= u
    data = row.to_bytes((row.bit_length() + 7) // 8, "little")
    marks = data.translate(_NONZERO)
    head = f"{u} "
    lines = []
    p = marks.find(1)
    while p >= 0:
        base = u + 8 * p
        for b in _BYTE_BITS[data[p]]:
            lines.append(f"{head}{base + b}\n")
        p = marks.find(1, p + 1)
    return "".join(lines)


# _NONZERO maps every nonzero byte to 1; _BYTE_BITS[x] lists the set bits of the byte x, 1-based.
_NONZERO = bytes([0] + [1] * 255)
_BYTE_BITS = [tuple(b + 1 for b in range(8) if x >> b & 1) for x in range(256)]


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


class _ListStarts(dict):
    """(previous list empty?, lowest label) -> the text from the end of the
    previous vertex list through the lowest label of one column's list, each
    made on first use.  A previous flag of None marks the first entry, a
    lowest label of 0 an empty list and one of None the end of the entries."""

    def __init__(self, name: str, opens_entry: bool) -> None:
        opening = f'\n      "{name}": ['
        self.first = "[\n    {" + opening
        self.head = ("\n    },\n    {" if opens_entry else ",") + opening

    def __missing__(self, key: tuple[bool | None, int | None]) -> str:
        prev_empty, low = key
        if prev_empty is None:
            text = self.first
        else:
            text = "]" if prev_empty else "\n      ]"
            text += "\n    }\n  ]" if low is None else self.head
        if low:
            text += f"\n        {low}"
        self[key] = text
        return text


# One table per byte offset and one per column, shared by every cover; each
# holds only the keys met.
_byte_lines = cache(_ByteLines)
_list_starts = cache(_ListStarts)


def _entries_text(n: int, columns: dict[str, list[int]]) -> str:
    """The JSON list of entries, entry i holding the vertex list of each
    column's mask i, as to_json lays it out at the top level of a report.

    The text is one join over a list of parts, filled column by column:
    each entry has, per column, one boundary part and then one part per
    mask byte, each plane of bytes looked up in its offset's table
    (_mask_bytes packs a column up to 64 bits as words in one call).  A
    boundary part closes the previous list and writes the lowest label of
    its own, which is cleared from the bytes; its key says whether that list
    is empty and the previous one was, so no pass fixes the text up.
    """
    *_, last = columns.values()
    k = len(last)
    if not k:
        return "[]"
    byte_tables = [_byte_lines(b) for b in range((n + 7) // 8)]
    size = len(byte_tables)
    stride = len(columns) * (1 + size)
    parts = [""] * (k * stride + 1)  # and one part for the end
    starts = [_list_starts(name, c == 0) for c, name in enumerate(columns)]
    prev_empty = chain((None,), map(not_, last))  # the previous list: the last of the entry before
    for c, col in enumerate(columns.values()):
        at = c * (1 + size)
        lows = list(map(and_, col, map(neg, col)))
        keys = zip(prev_empty, map(int.bit_length, lows))
        parts[at:k * stride:stride] = map(starts[c].__getitem__, keys)
        data, step = _mask_bytes(map(sub, col, lows), n)
        for b, table in enumerate(byte_tables):
            parts[at + 1 + b::stride] = map(table.__getitem__, data[b::step])
        prev_empty = map(not_, col)
    parts[-1] = starts[0][not last[-1], None]
    return "".join(parts)


def cover_report(
    C: Cover, verdict: PartitionVerdict, f_lowers: Sequence[int] | None = None
) -> dict[str, Any]:
    """The cover and its verdict, for the top level of a report.

    "entries" is JSON text made from the masks: the list of {"mis", "int",
    "ext", "lower", "upper"} vertex lists (and "f_lower" from the masks
    `f_lowers`, one per entry) as to_json would lay it out there.  It is
    written column by column, each column's masks as one byte string, and
    joined once (see _entries_text).
    """
    mis = [e.mis_mask for e in C.entries]
    ints = [e.int_mask for e in C.entries]
    exts = [e.ext_mask for e in C.entries]
    columns = {"mis": mis, "int": ints, "ext": exts,
               "lower": list(map(and_, mis, map(inv, ints))), "upper": list(map(or_, mis, exts))}
    if f_lowers is not None:
        columns["f_lower"] = f_lowers = list(f_lowers)
        if len(f_lowers) != len(mis):
            raise ValueError(f"f_lowers has {len(f_lowers)} masks for {len(mis)} cover entries")
    entries = _Rendered(_entries_text(C.n, columns))
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
