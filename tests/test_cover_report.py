"""The cover report written from masks against the list-building layout."""

import json
import random

import pytest

from misact import cover, partition_verdict, random_graph
from misact.families import FAMILIES
from misact.graph import mask_of
from misact.io import cover_report, to_json
from misact.pruned import pruned_partition, random_pruned_instance

from reference import cover_report_lists
from sample_graphs import all_named_graphs

SEED = 20261018


def expected(report: dict) -> str:
    return json.dumps(report, indent=2) + "\n"


def seeded_graphs():
    """Vertex counts on both sides of each byte boundary of a mask."""
    rng = random.Random(SEED)
    return [random_graph(n, rng.uniform(0.2, 0.7), rng=rng)
            for n in (0, 1, 7, 8, 9, 16, 17, 20) for _ in range(3)]


@pytest.mark.parametrize("g", all_named_graphs() + seeded_graphs())
def test_matches_the_list_layout(g):
    c = cover(g)
    v = partition_verdict(c)
    assert to_json(cover_report(c, v)) == expected(cover_report_lists(c, v))


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
    assert got == expected({**head, **cover_report_lists(predicted, v), "verified": True})


@pytest.mark.parametrize("leaf_mode", ["tree", "host"])
def test_pruned_reports_with_f_lower(leaf_mode):
    rng = random.Random(SEED)
    for _ in range(25):
        inst = random_pruned_instance(rng, max_vertices=rng.choice((8, 9, 16, 18)))
        r = pruned_partition(inst, leaf_mode=leaf_mode)
        f_lowers = [mask_of(fl) for fl in r.f_lowers]
        got = to_json({"root": inst.root, **cover_report(r.cover, r.verdict, f_lowers)})
        want = {"root": inst.root, **cover_report_lists(r.cover, r.verdict, f_lowers)}
        assert got == expected(want)
