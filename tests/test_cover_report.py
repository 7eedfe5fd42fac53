"""The cover report written from masks against the list-building layout."""

import json
import random

import pytest

from misact import Graph, cover, partition_verdict, random_graph
from misact.activities import Cover, PartitionVerdict
from misact.families import FAMILIES, complete_graph
from misact.graph import mask_of
from misact.io import cover_report, to_json
from misact.pruned import pruned_partition, random_pruned_instance

from reference import cover_report_lists
from sample_graphs import all_named_graphs

SEED = 20261018
COLUMNS = ("mis", "int", "ext", "lower", "upper", "f_lower")


def assert_written_as(got: str, report: dict) -> None:
    """got is json.dumps(report, indent=2) + newline; on a mismatch, name the
    first differing line rather than diff texts of up to megabytes."""
    want = json.dumps(report, indent=2) + "\n"
    if got != want:
        i = next((i for i, (a, b) in enumerate(zip(got.splitlines(), want.splitlines())) if a != b),
                 min(got.count("\n"), want.count("\n")))
        pytest.fail(f"line {i + 1}: got {got.splitlines()[i:i + 1]}, "
                    f"want {want.splitlines()[i:i + 1]}")


def seeded_graphs():
    """Vertex counts on both sides of each byte boundary of a mask up to 64,
    and the sizes of the benchmark's large covers."""
    rng = random.Random(SEED)
    small = [random_graph(n, rng.uniform(0.2, 0.7), rng=rng)
             for n in (0, 1, 7, 8, 9, 15, 16, 17, 20) for _ in range(3)]
    sizes = [n for b in range(24, 65, 8) for n in (b - 1, b, b + 1) if n <= 64] + [30, 42, 44, 50]
    return small + [random_graph(n, rng.uniform(0.45, 0.7), rng=rng) for n in sizes]


def wide_label_graphs():
    """Labels past one byte: K_300, and a sparse graph on 260 vertices whose
    edges sit among the labels above 255 and at the ends."""
    rng = random.Random(SEED)
    edges = {tuple(sorted(rng.sample(range(250, 261), 2))) for _ in range(6)}
    return [complete_graph(300), Graph(260, sorted(edges | {(1, 260), (8, 256)}))]


def empty_list_graphs():
    """Covers with an empty list in every column: the empty graph, edgeless
    graphs, isolated vertices beside edges, and K_n, whose last set has
    empty Ext."""
    return [Graph(0), Graph(1), Graph(9), Graph(6, [(1, 2), (4, 5)]),
            Graph(17, [(2, 16), (16, 17), (9, 10)]), complete_graph(5), complete_graph(9)]


def with_f_lowers(c, rng):
    """Masks for "f_lower", one per entry: about a third empty, the rest
    random subsets of the generator."""
    return [0 if rng.random() < 0.35 else e.mis_mask & rng.getrandbits(max(c.n, 1))
            for e in c.entries]


def check(c, v, f_lowers=None):
    got = to_json(cover_report(c, v, f_lowers))
    assert_written_as(got, cover_report_lists(c, v, f_lowers))


@pytest.mark.parametrize(
    "g", all_named_graphs() + seeded_graphs() + wide_label_graphs() + empty_list_graphs())
def test_matches_the_list_layout(g):
    c = cover(g)
    v = partition_verdict(c)
    check(c, v)
    check(c, v, with_f_lowers(c, random.Random(g.n)))


def test_the_inputs_reach_every_case():
    """Each byte boundary, 64 and more entries, labels past 255, and an empty
    list in every column, after an empty list and after a full one."""
    covers = [cover(g) for g in seeded_graphs() + wide_label_graphs() + empty_list_graphs()]
    assert {c.n for c in covers} >= {8 * b + d for b in range(1, 9) for d in (-1, 0, 1)} - {65}
    assert max(len(c.entries) for c in covers if c.n > 48) >= 64
    assert max(c.n for c in covers) == 300
    seen = set()
    for c in covers:
        f_lowers = with_f_lowers(c, random.Random(c.n))
        masks = [m for e, f in zip(c.entries, f_lowers)
                 for m in (e.mis_mask, e.int_mask, e.ext_mask, e.lower_mask, e.upper_mask, f)]
        seen |= {(COLUMNS[i % 6], not m, not masks[i - 1] if i else None)
                 for i, m in enumerate(masks)}
    assert {(col, True) for col in COLUMNS} <= {(col, empty) for col, empty, _ in seen}
    assert {(col, True, prev) for col in ("ext", "lower", "f_lower") for prev in (True, False)} <= seen
    assert {("mis", False, True), ("mis", False, False)} <= seen


def test_an_empty_cover_is_an_empty_list():
    c, v = Cover(4, ()), PartitionVerdict(False, None, None)
    assert cover_report(c, v)["entries"] == cover_report(c, v, [])["entries"] == "[]"
    check(c, v)
    check(c, v, [])


@pytest.mark.parametrize("delta", [-1, 1])
def test_f_lowers_of_the_wrong_length_are_refused(delta):
    c = cover(Graph(5, [(1, 2), (2, 3), (4, 5)]))
    f_lowers = [e.mis_mask for e in c.entries]
    f_lowers = f_lowers[:delta] if delta < 0 else f_lowers + [1]
    with pytest.raises(ValueError, match="f_lowers"):
        cover_report(c, partition_verdict(c), f_lowers)


@pytest.mark.parametrize(
    "family, values",
    [("kn", {"n": n}) for n in (1, 2, 8, 9, 17)]
    + [("join", {"n": n, "m": m}) for n, m in ((0, 3), (3, 0), (2, 7), (8, 9))]
    + [(f, {"n": n, "m": m}) for f in ("lex", "colex")
       for n, m in ((4, 3), (5, 6), (8, 12), (9, 20), (17, 30))],
)
def test_every_family_cover(family, values):
    predicted = FAMILIES[family].cover(**values)
    v = partition_verdict(predicted)
    head = {"family": family, "params": values}
    got = to_json({**head, **cover_report(predicted, v), "verified": True})
    assert_written_as(got, {**head, **cover_report_lists(predicted, v), "verified": True})


@pytest.mark.parametrize("leaf_mode", ["tree", "host"])
def test_pruned_reports_with_f_lower(leaf_mode):
    rng = random.Random(SEED)
    for _ in range(25):
        inst = random_pruned_instance(rng, max_vertices=rng.choice((8, 9, 16, 18)))
        r = pruned_partition(inst, leaf_mode=leaf_mode)
        f_lowers = [mask_of(fl) for fl in r.f_lowers]
        got = to_json({"root": inst.root, **cover_report(r.cover, r.verdict, f_lowers)})
        want = {"root": inst.root, **cover_report_lists(r.cover, r.verdict, f_lowers)}
        assert_written_as(got, want)
