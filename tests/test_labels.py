"""Vertex labels outside 1..n raise a defined ValueError everywhere."""

import re

import pytest

from misact import (
    closed_neighborhood,
    cover,
    ext_active,
    induced_subgraph,
    int_active,
    interval_of,
    is_complete,
    is_dominating,
    is_externally_complete,
    is_independent,
    is_internally_complete,
    is_maximal_independent,
    locate_generator,
    mis_difference_decomposition,
    open_neighborhood,
    subs,
    subset_multiplicity,
)
from misact.graph import greedy_maximal_independent_set, mask_of

from sample_graphs import dense_five_overlapping

G = dense_five_overlapping()
MIS = sorted(cover(G).generators(), key=sorted)[0]

VERTEX_SET_CALLS = {
    "is_independent": lambda S: is_independent(G, S),
    "is_dominating": lambda S: is_dominating(G, S),
    "is_maximal_independent": lambda S: is_maximal_independent(G, S),
    "open_neighborhood": lambda S: open_neighborhood(G, S),
    "closed_neighborhood": lambda S: closed_neighborhood(G, S),
    "induced_subgraph": lambda S: induced_subgraph(G, S),
    "ext_active": lambda S: ext_active(G, S),
    "int_active": lambda S: int_active(G, S),
    "interval_of": lambda S: interval_of(G, S | {3}),
    "locate_generator": lambda S: locate_generator(G, S),
    "subset_multiplicity": lambda S: subset_multiplicity(G, S),
    "is_internally_complete": lambda S: is_internally_complete(G, S),
    "is_externally_complete": lambda S: is_externally_complete(G, S),
    "is_complete": lambda S: is_complete(G, S),
    "mis_difference_decomposition": lambda S: mis_difference_decomposition(G, S, MIS),
    "greedy_maximal_independent_set": lambda S: greedy_maximal_independent_set(
        G, sorted(S) + list(range(2, G.n + 1))
    ),
}


@pytest.mark.parametrize("name", sorted(VERTEX_SET_CALLS))
@pytest.mark.parametrize("label", [0, -1, 6])
def test_label_outside_range(name, label):
    with pytest.raises(ValueError, match=rf"^labels \[{label}\] outside 1\.\.5$"):
        VERTEX_SET_CALLS[name]({label})


def test_both_ends_listed_together():
    with pytest.raises(ValueError, match=r"^labels \[-2, 0, 7\] outside 1\.\.5$"):
        is_independent(G, [7, 0, -2, 1])


@pytest.mark.parametrize("v", [-1, 0, 6])
def test_subs_vertex_outside_range(v):
    text = f"vertex {v} is not a member of {sorted(MIS)}"
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        subs(G, MIS, v)


@pytest.mark.parametrize("labels, bad", [([0], "[0]"), ([3, -1, 0, -1], "[-1, 0]")])
def test_mask_of_label_below_one(labels, bad):
    with pytest.raises(ValueError, match=rf"^labels {re.escape(bad)} below 1$"):
        mask_of(labels)
    assert mask_of([1, 3]) == 0b101
