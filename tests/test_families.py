"""Closed-form covers: cliques, joins, pendants, lex and colex graphs."""

import dataclasses
import tracemalloc
from itertools import combinations, product

import pytest

from misact import (
    Graph,
    SdsDecomposition,
    SisDecomposition,
    colex_graph,
    colex_neighborhoods,
    complete_graph,
    cover,
    empty_graph,
    join,
    kn_plus_em,
    kn_with_pendants,
    lex_graph,
    lex_neighborhoods,
    partition_verdict,
    pendant_partition_predicate,
    predicted_cover_colex,
    predicted_cover_join,
    predicted_cover_kn,
    predicted_cover_lex,
    sds,
    sis,
    subset_multiplicity,
)


def pairs(n: int) -> int:
    return n * (n - 1) // 2


class TestCliqueCover:
    def test_five(self):
        got = [(sorted(e.lower), sorted(e.upper)) for e in predicted_cover_kn(5).entries]
        assert got == [
            ([1], [1, 2, 3, 4, 5]),
            ([2], [2, 3, 4, 5]),
            ([3], [3, 4, 5]),
            ([4], [4, 5]),
            ([], [5]),
        ]

    def test_single_vertex(self):
        c = predicted_cover_kn(1)
        assert [(e.lower, sorted(e.upper)) for e in c.entries] == [(frozenset(), [1])]

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_computed_and_partitions(self, n):
        predicted = predicted_cover_kn(n)
        computed = cover(complete_graph(n))
        assert predicted.entries == computed.entries
        assert partition_verdict(computed).is_partition
        assert sum(e.interval.size() for e in computed.entries) == 1 << n


class TestJoinCover:
    def test_two_by_two(self):
        got = [(sorted(e.lower), sorted(e.upper)) for e in predicted_cover_join(2, 2).entries]
        assert got == [([1], [1, 2, 3, 4]), ([2], [2, 3, 4]), ([], [3, 4])]

    def test_join_with_single_isolated_is_clique(self):
        # K_n joined with one extra vertex is K_{n+1}; predictions must agree
        for n in range(1, 6):
            assert predicted_cover_join(n, 1).entries == predicted_cover_kn(n + 1).entries

    def test_star_case(self):
        got = [(sorted(e.lower), sorted(e.upper)) for e in predicted_cover_join(1, 3).entries]
        assert got == [([1], [1, 2, 3, 4]), ([], [2, 3, 4])]

    @pytest.mark.parametrize("n,m", list(product(range(1, 6), range(1, 6))))
    def test_matches_computed(self, n, m):
        predicted = predicted_cover_join(n, m)
        computed = cover(kn_plus_em(n, m))
        assert predicted.entries == computed.entries
        assert partition_verdict(computed).is_partition

    def test_degenerate_shapes_match_computed(self):
        assert predicted_cover_join(0, 3).entries == cover(empty_graph(3)).entries
        assert predicted_cover_join(3, 0).entries == cover(complete_graph(3)).entries
        # every shape from the empty graph up, including no clique or no empty side
        for n, m in product(range(8), repeat=2):
            assert predicted_cover_join(n, m) == cover(kn_plus_em(n, m)), (n, m)

    def test_join_construction(self):
        g = join(complete_graph(2), empty_graph(2))
        assert sorted(g.edges()) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4)]


class TestPendants:
    def test_construction_labels(self):
        g = kn_with_pendants(3, (1, 0, 2))
        assert g.n == 6
        assert g.neighbors(4) == {1}
        assert g.neighbors(5) == {3} and g.neighbors(6) == {3}

    def test_size_vector_validation(self):
        with pytest.raises(ValueError):
            kn_with_pendants(3, (1, 1))
        with pytest.raises(ValueError):
            kn_with_pendants(2, (1, -1))

    def test_predicate_cases(self):
        assert pendant_partition_predicate((1, 1, 1)) is True
        assert pendant_partition_predicate((1, 0, 0)) is True
        assert pendant_partition_predicate((1, 0, 1)) is False

    def test_counterexample_repeats_top_singleton(self):
        # one bare clique vertex below the top one: {n} lands in two intervals
        g = kn_with_pendants(3, (1, 0, 1))
        assert subset_multiplicity(g, {3}) == 2

    def test_predicate_matches_exhaustive_sweep(self):
        for n in range(1, 5):
            for sizes in product(range(7), repeat=n):
                if sum(sizes) > 6:
                    continue
                got = partition_verdict(cover(kn_with_pendants(n, sizes))).is_partition
                assert got == pendant_partition_predicate(sizes), (n, sizes)


class TestNegativeVertexCount:
    @pytest.mark.parametrize("build", [complete_graph, empty_graph])
    def test_rejected(self, build):
        with pytest.raises(ValueError, match="^vertex count must be non-negative$"):
            build(-1)


class TestDecompositions:
    def test_known_values(self):
        assert sds(6, 5).parts == (4, 2)
        assert sds(6, 5).depth == 2
        assert sis(7, 6).parts == (1, 2, 3, 1)
        assert sis(7, 6).depth == 4

    def test_single_part(self):
        for n in range(2, 8):
            assert sds(n - 1, n).parts == (n - 1,)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            sds(2, 4)  # below n-1
        with pytest.raises(ValueError):
            sds(7, 4)  # above n(n-1)/2
        with pytest.raises(ValueError):
            sis(0, 5)
        with pytest.raises(ValueError):
            sis(11, 5)

    def test_value_semantics(self):
        # both kinds share one frozen base but stay distinct types
        assert repr(sds(6, 4)) == "SdsDecomposition(m=6, n=4, parts=(3, 2, 1))"
        assert repr(sis(4, 4)) == "SisDecomposition(m=4, n=4, parts=(1, 2, 1))"
        assert sds(6, 4) == SdsDecomposition(m=6, n=4, parts=(3, 2, 1))
        assert hash(sds(6, 4)) == hash(SdsDecomposition(m=6, n=4, parts=(3, 2, 1)))
        assert SdsDecomposition(m=3, n=3, parts=(2, 1)) != SisDecomposition(
            m=3, n=3, parts=(2, 1)
        )
        for d in (sds(6, 4), sis(4, 4)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                d.m = 0
            with pytest.raises(dataclasses.FrozenInstanceError):
                d.extra = 0

    def _sds_candidates(self, m, n):
        out = []
        for k in range(1, n):
            head = [n - i for i in range(1, k)]
            tail = m - sum(head)
            if 1 <= tail <= n - k:
                out.append(tuple(head + [tail]))
        return out

    def _sis_candidates(self, m, n):
        out = []
        for k in range(1, n):
            head = list(range(1, k))
            tail = m - sum(head)
            if 1 <= tail <= k:
                out.append(tuple(head + [tail]))
        return out

    def test_uniqueness_by_enumeration(self):
        for n in range(2, 13):
            for m in range(n - 1, pairs(n) + 1):
                cands = self._sds_candidates(m, n)
                assert cands == [sds(m, n).parts], (m, n)
            for m in range(1, pairs(n) + 1):
                cands = self._sis_candidates(m, n)
                assert cands == [sis(m, n).parts], (m, n)


class TestLexColexConstruction:
    def test_lex_ordering_prefix(self):
        g = lex_graph(5, 6)
        assert g.edges() == [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4)]

    def test_colex_ordering_prefix(self):
        g = colex_graph(6, 7)
        assert sorted(g.edges()) == sorted(
            [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4), (1, 5)]
        )

    def test_zero_edges(self):
        assert lex_graph(4, 0).edge_count() == 0
        assert colex_graph(4, 0).edge_count() == 0

    def test_range_validation(self):
        with pytest.raises(ValueError):
            lex_graph(4, 7)
        with pytest.raises(ValueError):
            colex_graph(4, -1)

    def test_full_edge_budget_is_clique(self):
        assert lex_graph(5, 10) == complete_graph(5)
        assert colex_graph(5, 10) == complete_graph(5)

    def test_matches_sorted_pair_prefix(self):
        for n in range(0, 10):
            lex = list(combinations(range(1, n + 1), 2))
            colex = sorted(lex, key=lambda e: (e[1], e[0]))
            for m in range(0, pairs(n) + 1):
                assert lex_graph(n, m) == Graph(n, lex[:m]), (n, m)
                assert colex_graph(n, m) == Graph(n, colex[:m]), (n, m)

    @pytest.mark.parametrize("build", [lex_graph, colex_graph])
    def test_few_edges_of_many_pairs_stay_small(self, build):
        # the 4.5 million pairs of n=3000 are never materialised
        tracemalloc.start()
        try:
            g = build(3000, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.edge_count() == 5
        assert peak < 5 * 2**20


class TestNeighborhoodFormulas:
    def test_lex_worked_case(self):
        nb = lex_neighborhoods(5, 6)
        assert nb[2] == {1, 3, 4}
        assert nb[1] == {2, 3, 4, 5}
        assert nb[5] == {1}

    def test_colex_worked_case(self):
        nb = colex_neighborhoods(6, 7)
        assert nb[1] == {2, 3, 4, 5}
        assert nb[5] == {1}
        assert nb[6] == frozenset()

    def test_lex_domain_guard(self):
        with pytest.raises(ValueError, match="m >= n"):
            lex_neighborhoods(5, 4)

    def test_empty_graph(self):
        """The empty graph has no sds decomposition, and no neighbourhoods to give."""
        assert lex_neighborhoods(0, 0) == colex_neighborhoods(0, 0) == {}

    def test_formulas_match_adjacency(self):
        for n in range(2, 11):
            for m in range(n, pairs(n) + 1):
                g = lex_graph(n, m)
                nb = lex_neighborhoods(n, m)
                assert all(nb[v] == g.neighbors(v) for v in g.vertices), ("lex", n, m)
            for m in range(0, pairs(n) + 1):
                g = colex_graph(n, m)
                nb = colex_neighborhoods(n, m)
                assert all(nb[v] == g.neighbors(v) for v in g.vertices), ("colex", n, m)


class TestLexColexCovers:
    def test_lex_worked_example(self):
        got = [
            (sorted(e.generator), sorted(e.lower), sorted(e.upper))
            for e in predicted_cover_lex(5, 6).entries
        ]
        assert got == [
            ([1], [1], [1, 2, 3, 4, 5]),
            ([2, 5], [2], [2, 3, 4, 5]),
            ([3, 4, 5], [], [3, 4, 5]),
        ]

    def test_colex_worked_example(self):
        got = [
            (sorted(e.generator), sorted(e.lower), sorted(e.upper))
            for e in predicted_cover_colex(6, 7).entries
        ]
        assert got == [
            ([1, 6], [1], [1, 2, 3, 4, 5, 6]),
            ([2, 5, 6], [2], [2, 3, 4, 5, 6]),
            ([3, 5, 6], [3], [3, 4, 5, 6]),
            ([4, 5, 6], [], [4, 5, 6]),
        ]

    def test_lex_star_case(self):
        got = [
            (sorted(e.generator), sorted(e.lower), sorted(e.upper))
            for e in predicted_cover_lex(6, 3).entries
        ]
        assert got == [
            ([1, 5, 6], [1], [1, 2, 3, 4, 5, 6]),
            ([2, 3, 4, 5, 6], [], [2, 3, 4, 5, 6]),
        ]

    def test_full_sweep_matches_computed(self):
        for n in range(1, 9):
            for m in range(pairs(n) + 1):
                for predicted, g in (
                    (predicted_cover_lex(n, m), lex_graph(n, m)),
                    (predicted_cover_colex(n, m), colex_graph(n, m)),
                ):
                    computed = cover(g)
                    assert predicted.entries == computed.entries, (n, m)
                    assert partition_verdict(computed).is_partition, (n, m)
