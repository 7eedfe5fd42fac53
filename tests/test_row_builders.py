"""Graphs built from adjacency rows against the same graphs built from edge lists."""

import random

import pytest

from misact import (
    Graph,
    complete_graph,
    empty_graph,
    induced_subgraph,
    join,
    kn_plus_em,
    kn_with_pendants,
    random_graph,
)
from misact.pruned import compute_levels, max_pruned_supergraph, random_pruned_instance

from reference import (
    complete_graph_edges,
    induced_subgraph_edges,
    join_edges,
    kn_with_pendants_edges,
    max_pruned_supergraph_edges,
)


def same_graph(got: Graph, want: Graph) -> bool:
    return (got.n, got.adj_mask, got.full_mask) == (want.n, want.adj_mask, want.full_mask)


@pytest.mark.parametrize("n", range(41))
def test_families(n):
    assert same_graph(complete_graph(n), complete_graph_edges(n))
    for m in range(6):
        want = join_edges(complete_graph_edges(n), Graph(m))
        assert same_graph(kn_plus_em(n, m), want), m
        assert same_graph(join(empty_graph(m), complete_graph(n)),
                          join_edges(Graph(m), complete_graph_edges(n))), m


@pytest.mark.parametrize("n", range(41))
def test_kn_with_pendants(n):
    rng = random.Random(n)
    for sizes in [[0] * n, [1] * n] + [[rng.randint(0, 4) for _ in range(n)] for _ in range(4)]:
        assert same_graph(kn_with_pendants(n, sizes), kn_with_pendants_edges(n, sizes)), sizes


def test_complete_graph_rejects_a_negative_count():
    with pytest.raises(ValueError, match="vertex count must be non-negative"):
        complete_graph(-1)


def test_join_of_random_graphs():
    rng = random.Random(11)
    for _ in range(60):
        G1 = random_graph(rng.randint(0, 12), rng.random(), rng=rng)
        G2 = random_graph(rng.randint(0, 12), rng.random(), rng=rng)
        assert same_graph(join(G1, G2), join_edges(G1, G2))


@pytest.mark.parametrize("inter_level_only", [False, True])
def test_max_pruned_supergraph(inter_level_only):
    rng = random.Random(13)
    for _ in range(400):
        inst = random_pruned_instance(rng, max_vertices=rng.randint(3, 24))
        levels = compute_levels(inst.tree, inst.root)
        got = max_pruned_supergraph(inst.tree, levels, inter_level_only)
        want = max_pruned_supergraph_edges(inst.tree, levels, inter_level_only)
        assert same_graph(got, want)


def test_induced_subgraphs():
    rng = random.Random(17)
    for _ in range(300):
        G = random_graph(rng.randint(0, 20), rng.random(), rng=rng)
        S = [v for v in G.vertices if rng.random() < 0.6]
        got, got_map = induced_subgraph(G, S)
        want, want_map = induced_subgraph_edges(G, S)
        assert same_graph(got, want)
        assert got_map == want_map
