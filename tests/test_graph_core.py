"""Graph substrate: construction, set algebra, predicates, enumeration."""

import random
import tracemalloc
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from misact import (
    Graph,
    closed_neighborhood,
    complete_graph,
    emit_edge_list,
    enumerate_maximal_independent_sets,
    greedy_maximal_independent_set,
    induced_subgraph,
    is_dominating,
    is_independent,
    is_maximal_independent,
    open_neighborhood,
    parse_edge_list,
    random_graph,
    relabel,
)
from misact.graph import _bits, _canonical_order, _mis_by_pivot, _mis_masks, mask_of, set_of

from reference import brute_mis
from sample_graphs import (
    OVERLAP_TO_PARTITION_PERM,
    dense_five_overlapping,
    dense_five_partition,
    tailed_triangle,
)


@st.composite
def graphs(draw, max_n: int = 8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = list(combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    return Graph(n, edges)


class TestConstruction:
    def test_tailed_triangle_degrees(self):
        g = tailed_triangle()
        assert g.degree(2) == 3
        assert g.neighbors(2) == {3, 4, 5}

    def test_no_edges(self):
        g = Graph(3)
        assert all(g.neighbors(v) == frozenset() for v in g.vertices)

    def test_duplicate_edges_collapse(self):
        g = Graph(4, [(1, 2), (1, 2), (2, 1)])
        assert g.edge_count() == 1

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            Graph(3, [(1, 4)])

    def test_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(2, 2)])

    def test_equality_and_repr(self):
        assert tailed_triangle() == tailed_triangle()
        assert tailed_triangle() != dense_five_overlapping()
        assert "n=5" in repr(tailed_triangle())

    def test_dense_graph_keeps_only_masks(self):
        # n masks of n bits: a frozenset per vertex as well took 24 MB here
        n = 600
        tracemalloc.start()
        try:
            g = complete_graph(n)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.edge_count() == n * (n - 1) // 2
        assert retained < 4 * n * n // 8


class TestAccessorsAgainstEdgeList:
    # 63, 64 and 65 straddle a 64-bit word of the masks
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 63, 64, 65, 130])
    def test_accessors_match_constructor_input(self, n):
        rng = random.Random(n)
        expected = [e for e in combinations(range(1, n + 1), 2) if rng.random() < 0.4]
        given = expected + rng.sample(expected, len(expected) // 3)  # duplicates
        given = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in given]
        rng.shuffle(given)
        g = Graph(n, given)

        assert g.edges() == expected
        assert g.edge_count() == len(expected)
        nbrs = {v: set() for v in range(1, n + 1)}
        for u, v in expected:
            nbrs[u].add(v)
            nbrs[v].add(u)
        for u in g.vertices:
            assert g.neighbors(u) == nbrs[u]
            assert g.degree(u) == len(nbrs[u])
            assert [v for v in g.vertices if g.has_edge(u, v)] == sorted(nbrs[u])
        text = emit_edge_list(g)
        assert text == f"{n} {len(expected)}\n" + "".join(f"{u} {v}\n" for u, v in expected)
        assert parse_edge_list(text) == g


class TestNeighborhoods:
    def test_single_vertex(self):
        g = tailed_triangle()
        assert open_neighborhood(g, {2}) == {3, 4, 5}

    def test_empty_set(self):
        g = tailed_triangle()
        assert open_neighborhood(g, set()) == frozenset()
        assert closed_neighborhood(g, set()) == frozenset()

    def test_closed_union(self):
        g = tailed_triangle()
        assert closed_neighborhood(g, {3, 5}) == {1, 2, 3, 4, 5}

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            open_neighborhood(tailed_triangle(), {9})


class TestInducedSubgraph:
    def test_triangle(self):
        sub, mapping = induced_subgraph(tailed_triangle(), {2, 3, 4})
        assert mapping == {2: 1, 3: 2, 4: 3}
        assert sorted(sub.edges()) == [(1, 2), (1, 3), (2, 3)]

    def test_empty(self):
        sub, mapping = induced_subgraph(tailed_triangle(), set())
        assert sub.n == 0 and mapping == {}

    def test_full_is_identity(self):
        g = tailed_triangle()
        sub, mapping = induced_subgraph(g, g.vertex_set)
        assert sub == g
        assert mapping == {v: v for v in g.vertices}


class TestPredicates:
    def test_known_maximal(self):
        g = tailed_triangle()
        assert is_independent(g, {3, 5})
        assert is_dominating(g, {3, 5})
        assert is_maximal_independent(g, {3, 5})

    def test_adjacent_pair(self):
        assert not is_independent(tailed_triangle(), {2, 3})

    def test_empty_on_single_vertex(self):
        g = Graph(1)
        assert is_independent(g, set())
        assert not is_dominating(g, set())

    @pytest.mark.parametrize(
        "build", [tailed_triangle, dense_five_overlapping, dense_five_partition]
    )
    def test_maximal_iff_independent_dominating_exhaustive(self, build):
        g = build()
        members = set(enumerate_maximal_independent_sets(g))
        for x in range(1 << g.n):
            s = set_of(x)
            expected = is_independent(g, s) and is_dominating(g, s)
            assert is_maximal_independent(g, s) == expected
            assert (s in members) == expected


class TestEnumeration:
    def test_overlapping_labelling(self):
        got = enumerate_maximal_independent_sets(dense_five_overlapping())
        assert got == [{1}, {2, 3}, {3, 5}, {4}]

    def test_partition_labelling(self):
        got = enumerate_maximal_independent_sets(dense_five_partition())
        assert got == [{1}, {2}, {3, 4}, {3, 5}]

    def test_clique_singletons(self):
        g = Graph(3, [(1, 2), (1, 3), (2, 3)])
        assert enumerate_maximal_independent_sets(g) == [{1}, {2}, {3}]

    def test_never_empty(self):
        for n in range(1, 6):
            assert enumerate_maximal_independent_sets(Graph(n))

    def test_matches_brute_mis_on_seeded_graphs(self):
        rng = random.Random(4)
        for _ in range(40):
            g = random_graph(rng.randint(1, 9), rng.random(), rng=rng)
            assert enumerate_maximal_independent_sets(g) == brute_mis(g)

    def test_large_graph_routes_through_pivot(self):
        g = random_graph(24, 0.5, seed=8)  # too large for brute_mis
        got = enumerate_maximal_independent_sets(g)
        assert got == sorted((set_of(m) for m in _mis_by_pivot(g)), key=sorted)
        assert all(is_maximal_independent(g, s) for s in got)

    def test_deep_search_without_recursion(self):
        # one search level per member: 1200 levels on the edgeless graph
        assert _mis_masks(Graph(1200)) == [(1 << 1200) - 1]
        g = Graph(1200, [(1, 2), (2, 3)])  # a short path among isolated vertices
        rest = ((1 << 1200) - 1) & ~0b111
        assert _mis_masks(g) == [rest | 0b101, rest | 0b010]

    def test_deep_search_without_isolated_vertices(self):
        # K_{600,600}: the isolated-vertex seed is empty, so the search itself
        # descends 600 levels to reach either side
        side = (1 << 600) - 1
        g = Graph(1200, [(u, v) for u in range(1, 601) for v in range(601, 1201)])
        assert _mis_masks(g) == [side, side << 600]

    def test_isolated_vertices_match_brute_mis(self):
        # isolated vertices seed every search; the rest is enumerated as usual
        assert _mis_masks(Graph(0)) == [0]
        assert enumerate_maximal_independent_sets(Graph(5)) == brute_mis(Graph(5))
        rng = random.Random(26)
        for _ in range(60):
            n = rng.randint(1, 11)
            isolated = {v for v in range(1, n + 1) if rng.random() < 0.4}
            edges = [(u, v) for u, v in random_graph(n, rng.random(), rng=rng).edges()
                     if u not in isolated and v not in isolated]
            g = Graph(n, edges)
            assert enumerate_maximal_independent_sets(g) == brute_mis(g)

    def test_canonical_order_is_member_list_order(self):
        # the bit-reversed sort key against the member lists it stands for
        rng = random.Random(30)
        for i in range(300):
            n = i % 31
            isolated = {v for v in range(1, n + 1) if rng.random() < 0.2}
            edges = [(u, v) for u, v in random_graph(n, rng.uniform(0.1, 0.8), rng=rng).edges()
                     if u not in isolated and v not in isolated]
            g = Graph(n, edges)
            expected = sorted(_mis_by_pivot(g), key=lambda m: list(_bits(m)))
            assert _mis_masks(g) == expected

    def test_canonical_key_on_seeded_antichains(self):
        # the byte-reversed sort key against the member lists, without the enumerator
        rng = random.Random(31)
        for n in range(71):
            for _ in range(4):
                kept = []
                for _ in range(rng.randint(0, 60)):
                    m = rng.getrandbits(n)
                    if rng.random() < 0.5:  # sparser masks, so some pairs are comparable
                        m &= rng.getrandbits(n)
                    if all(m & ~k and k & ~m for k in kept):  # incomparable with every kept mask
                        kept.append(m)
                rng.shuffle(kept)
                expected = sorted(kept, key=lambda m: list(_bits(m)))
                assert _canonical_order(kept, n) == expected

    def test_path_counts(self):
        # maximal independent sets of the path P_n: a(n) = a(n-2) + a(n-3)
        counts = [1, 1, 2, 2]
        for n in range(4, 31):
            counts.append(counts[n - 2] + counts[n - 3])
        for n in (1, 2, 3, 10, 20, 30):
            path = Graph(n, [(v, v + 1) for v in range(1, n)])
            got = _mis_masks(path)
            assert len(got) == len(set(got)) == counts[n]
            assert all(is_maximal_independent(path, set_of(m)) for m in got)

    def test_matches_networkx_cliques_of_complement(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(21)
        for n, p in ((12, 0.3), (20, 0.4), (30, 0.3), (45, 0.5), (60, 0.5), (60, 0.6)):
            g = random_graph(n, p, rng=rng)
            h = nx.Graph()
            h.add_nodes_from(g.vertices)
            h.add_edges_from(g.edges())
            cliques = nx.find_cliques(nx.complement(h))
            expected = sorted((sum(1 << (v - 1) for v in c) for c in cliques),
                              key=lambda m: sorted(set_of(m)))
            assert _mis_masks(g) == expected

    def test_maximal_iff_on_larger_random_graphs(self):
        rng = random.Random(14)
        for _ in range(3):
            g = random_graph(rng.randint(10, 12), rng.uniform(0.2, 0.5), rng=rng)
            members = set(enumerate_maximal_independent_sets(g))
            for x in range(1 << g.n):
                s = set_of(x)
                expected = is_independent(g, s) and is_dominating(g, s)
                assert is_maximal_independent(g, s) == expected
                assert (s in members) == expected

    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_matches_brute_force(self, g):
        assert enumerate_maximal_independent_sets(g) == brute_mis(g)

    @settings(max_examples=40, deadline=None)
    @given(graphs(max_n=7), st.randoms(use_true_random=False))
    def test_permutation_equivariance(self, g, rnd):
        perm = list(range(1, g.n + 1))
        rnd.shuffle(perm)
        mapping = {i + 1: p for i, p in enumerate(perm)}
        relabelled = relabel(g, mapping)
        direct = {frozenset(mapping[v] for v in s)
                  for s in enumerate_maximal_independent_sets(g)}
        assert set(enumerate_maximal_independent_sets(relabelled)) == direct


class TestGreedy:
    def test_ascending_on_tailed_triangle(self):
        assert greedy_maximal_independent_set(tailed_triangle(), [1, 2, 3, 4, 5]) == {1, 2}

    def test_order_must_be_complete(self):
        with pytest.raises(ValueError):
            greedy_maximal_independent_set(tailed_triangle(), [1, 2, 3])

    def test_result_always_maximal(self):
        rng = random.Random(11)
        for _ in range(25):
            g = random_graph(rng.randint(1, 10), rng.random(), rng=rng)
            order = list(g.vertices)
            rng.shuffle(order)
            assert is_maximal_independent(g, greedy_maximal_independent_set(g, order))


@pytest.mark.parametrize("width", [0, 1, 63, 64, 65, 40000])
def test_set_of_is_the_bit_walk(width):
    """set_of reads the binary digits in one pass; _bits clears one bit per step.
    mask_of packs the labels back in one pass too."""
    rng = random.Random(width)
    full = (1 << width) - 1
    masks = {0, full, full >> 1, full & ~(full >> 1)}  # empty, full, all but the top, the top
    masks |= {rng.getrandbits(width) & rng.getrandbits(width) for _ in range(20)}
    for m in masks:
        assert set_of(m) == frozenset(_bits(m))
        assert mask_of(set_of(m)) == m


@pytest.mark.parametrize("mask", [-1, -5, -(1 << 70)])
def test_set_of_refuses_a_negative_mask(mask):
    with pytest.raises(ValueError, match=f"^mask {mask} is negative$"):
        set_of(mask)


class TestRelabel:
    def test_overlap_to_partition(self):
        assert relabel(dense_five_overlapping(), OVERLAP_TO_PARTITION_PERM) == (
            dense_five_partition()
        )

    def test_identity(self):
        g = tailed_triangle()
        assert relabel(g, {v: v for v in g.vertices}) == g

    def test_involution_roundtrip(self):
        g = tailed_triangle()
        swap = {1: 2, 2: 1, 3: 3, 4: 5, 5: 4}
        assert relabel(relabel(g, swap), swap) == g

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError, match="bijection"):
            relabel(tailed_triangle(), {1: 1, 2: 1, 3: 3, 4: 4, 5: 5})

    def test_sequence_form(self):
        g = dense_five_overlapping()
        as_seq = relabel(g, (2, 4, 3, 1, 5))
        assert as_seq == dense_five_partition()
