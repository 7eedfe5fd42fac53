"""Activities, generated intervals, covers, verdicts, labelling search."""

import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from misact import (
    Graph,
    activity_polynomial,
    complete_graph,
    cover,
    ext_active,
    int_active,
    interval_of,
    intervals_intersect,
    locate_generator,
    mis_difference_decomposition,
    partition_verdict,
    random_graph,
    relabel,
    repeated_subsets_detail,
    search_labelling,
    subs,
    subset_multiplicity,
)
from misact.activities import _INDEX_MIN, MAX_ORACLE_BOUND, Cover
from misact.graph import Interval, set_of

from reference import (
    brute_ext,
    brute_int,
    brute_intervals,
    brute_is_partition,
    brute_mis,
    brute_multiplicity,
    brute_repeated_subsets,
    brute_subs,
    subsets,
)
from sample_graphs import (
    dense_five_overlapping,
    dense_five_partition,
    tailed_triangle,
    wheel_five,
)


@st.composite
def graphs(draw, max_n: int = 8, min_n: int = 1):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = list(combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    return Graph(n, edges)


class TestExternalActivity:
    def test_tailed_triangle(self):
        assert ext_active(tailed_triangle(), {3, 5}) == {4}

    def test_top_vertex_of_clique(self):
        g = complete_graph(6)
        assert ext_active(g, {6}) == frozenset()

    def test_edgeless(self):
        assert ext_active(Graph(4), {1, 3}) == frozenset()

    def test_rejects_dependent_set(self):
        with pytest.raises(ValueError, match="independent"):
            ext_active(tailed_triangle(), {2, 3})

    def test_reversed_mode(self):
        g = tailed_triangle()
        # neighbours smaller than a member instead of larger
        assert ext_active(g, {3, 5}, mode="reversed") == {1, 2}
        with pytest.raises(ValueError, match="mode"):
            ext_active(g, {3, 5}, mode="upside-down")


class TestSubstitutes:
    def test_both_members(self):
        g = tailed_triangle()
        assert subs(g, {3, 5}, 3) == {4}
        assert subs(g, {3, 5}, 5) == {1}

    def test_isolated_vertex(self):
        g = Graph(3, [(1, 2)])
        assert subs(g, {3, 1}, 3) == frozenset()

    def test_rejects_non_member(self):
        with pytest.raises(ValueError, match="member"):
            subs(tailed_triangle(), {3, 5}, 4)


class TestInternalActivity:
    def test_tailed_triangle(self):
        assert int_active(tailed_triangle(), {3, 5}) == {5}

    def test_overlapping_labelling_rows(self):
        g = dense_five_overlapping()
        assert int_active(g, {3, 5}) == {3, 5}
        assert int_active(g, {1}) == frozenset()
        assert int_active(g, {2, 3}) == {3}

    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_matches_brute_force(self, g):
        # every independent subset of each maximal one, the sets themselves included
        independent = {
            frozenset(c)
            for M in brute_mis(g)
            for r in range(len(M) + 1)
            for c in combinations(sorted(M), r)
        }
        for A in independent:
            assert int_active(g, A) == brute_int(g, A)
            assert ext_active(g, A) == brute_ext(g, A)
            for v in A:
                assert subs(g, A, v) == brute_subs(g, A, v)

    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_containment_and_empty_ext_rule(self, g):
        for A in brute_mis(g):
            e, i = ext_active(g, A), int_active(g, A)
            assert e <= g.vertex_set - A
            assert i <= A
            if not e:
                assert i == A  # externally empty forces internally complete


class TestIntervalOf:
    def test_table_rows(self):
        g = dense_five_overlapping()
        rep = interval_of(g, {2, 3})
        assert (rep.lower, rep.upper) == ({2}, {2, 3, 4, 5})
        g2 = dense_five_partition()
        assert interval_of(g2, {3, 4}).interval == Interval(
            frozenset({4}), frozenset({3, 4, 5})
        )
        assert interval_of(g2, {3, 5}).interval == Interval(
            frozenset(), frozenset({3, 5})
        )

    def test_rejects_non_maximal(self):
        with pytest.raises(ValueError, match="maximal"):
            interval_of(tailed_triangle(), {3})


class TestCover:
    def test_overlapping_labelling(self):
        c = cover(dense_five_overlapping())
        rows = [
            (sorted(e.generator), sorted(e.int_), sorted(e.ext),
             sorted(e.lower), sorted(e.upper))
            for e in c.entries
        ]
        assert rows == [
            ([1], [], [2, 3, 4, 5], [1], [1, 2, 3, 4, 5]),
            ([2, 3], [3], [4, 5], [2], [2, 3, 4, 5]),
            ([3, 5], [3, 5], [4], [], [3, 4, 5]),
            ([4], [], [5], [4], [4, 5]),
        ]

    def test_partition_labelling(self):
        c = cover(dense_five_partition())
        assert [(sorted(e.lower), sorted(e.upper)) for e in c.entries] == [
            ([1], [1, 2, 3, 4, 5]),
            ([2], [2, 3, 4, 5]),
            ([4], [3, 4, 5]),
            ([], [3, 5]),
        ]

    def test_single_vertex(self):
        c = cover(Graph(1))
        assert len(c.entries) == 1
        assert c.entries[0].interval == Interval(frozenset(), frozenset({1}))

    @settings(max_examples=40, deadline=None)
    @given(graphs(min_n=9, max_n=14))
    def test_entries_match_brute_force_beyond_n8(self, g):
        for e in cover(g).entries:
            A = e.generator
            assert e.int_ == brute_int(g, A)
            assert e.ext == brute_ext(g, A)
            assert e.lower == A - e.int_
            assert e.upper == A | e.ext
            assert e.interval == (e.lower, e.upper)
            assert e.mis_mask == sum(1 << (v - 1) for v in A)

    def test_multiplicity_of(self):
        g = dense_five_overlapping()
        c = cover(g)
        for X in subsets(g.n):
            assert c.multiplicity_of(X) == brute_multiplicity(g, X)
        assert c.multiplicity_of({1, 6}) == 0  # a label outside 1..n
        assert c.multiplicity_of({0}) == 0


class TestLocateGenerator:
    def test_membership_example(self):
        g = dense_five_overlapping()
        B = locate_generator(g, {4, 5})
        rep = interval_of(g, B)
        assert rep.lower <= {4, 5} <= rep.upper

    def test_fixed_point_on_mis(self):
        g = dense_five_overlapping()
        for A in brute_mis(g):
            assert locate_generator(g, A) == A

    def test_empty_set_matches_descending_greedy(self):
        from misact import internally_complete

        for build in (tailed_triangle, dense_five_overlapping, wheel_five):
            g = build()
            assert locate_generator(g, set()) == internally_complete(g)

    @settings(max_examples=50, deadline=None)
    @given(graphs())
    def test_postconditions_everywhere(self, g):
        for X in subsets(g.n):
            B = locate_generator(g, X)
            rep = interval_of(g, B)
            assert rep.lower <= X <= rep.upper
            assert X - B <= rep.ext
            assert B - X <= rep.int_


class TestMultiplicityAndVerdict:
    def test_known_multiplicities(self):
        g = dense_five_overlapping()
        assert subset_multiplicity(g, {4}) == 2
        assert subset_multiplicity(g, {1}) == 1
        assert subset_multiplicity(dense_five_partition(), {4}) == 1

    def test_overlapping_verdict(self):
        v = partition_verdict(cover(dense_five_overlapping()))
        assert not v.is_partition
        assert v.repeated_subset_count == 2
        assert v.witness is not None
        assert {v.witness.generator_a, v.witness.generator_b} == {
            frozenset({3, 5}),
            frozenset({4}),
        }

    def test_partition_verdict(self):
        v = partition_verdict(cover(dense_five_partition()))
        assert v.is_partition
        assert v.repeated_subset_count == 0
        assert v.witness is None

    def test_clique_partition(self):
        assert partition_verdict(cover(complete_graph(4))).is_partition

    def test_repeated_detail(self):
        detail = repeated_subsets_detail(cover(dense_five_overlapping()))
        assert [sorted(x) for x, _ in detail] == [[4], [4, 5]]
        for _, gens in detail:
            assert sorted(map(sorted, gens)) == [[3, 5], [4]]

    def test_repeated_detail_bound_above_limit_rejected(self):
        c = cover(dense_five_overlapping())  # small: the bound alone is refused
        with pytest.raises(ValueError, match="exceeds the limit"):
            repeated_subsets_detail(c, oracle_bound=MAX_ORACLE_BOUND + 1)
        assert len(repeated_subsets_detail(c, oracle_bound=MAX_ORACLE_BOUND)) == 2

    def test_intersect_predicate(self):
        a = Interval(frozenset({1}), frozenset({1, 2, 3}))
        b = Interval(frozenset({2}), frozenset({1, 2, 3}))
        c = Interval(frozenset({2}), frozenset({2, 3}))
        assert intervals_intersect(a, b)  # {1,2} sits in both
        assert not intervals_intersect(a, c)  # nothing holds 1 yet avoids it

    def test_methods_agree_beyond_exhaustive_bound(self):
        g = dense_five_partition()
        v = partition_verdict(cover(g), oracle_bound=3)  # force the large-n path
        assert v.is_partition and v.repeated_subset_count == 0
        g2 = dense_five_overlapping()
        v2 = partition_verdict(cover(g2), oracle_bound=3)
        assert not v2.is_partition
        assert v2.repeated_subset_count is None
        assert v2.witness is not None
        lo = v2.witness.subset  # union of the overlapping lower endpoints
        reps = [interval_of(g2, w) for w in (v2.witness.generator_a, v2.witness.generator_b)]
        assert all(r.lower <= lo <= r.upper for r in reps)

    @settings(max_examples=40, deadline=None)
    @given(graphs(max_n=7))
    def test_verdict_matches_brute_force(self, g):
        v = partition_verdict(cover(g))
        assert v.is_partition == brute_is_partition(g)
        assert v.repeated_subset_count == len(brute_repeated_subsets(g))

    @settings(max_examples=30, deadline=None)
    @given(graphs(max_n=7))
    def test_coverage_and_multiplicity_against_oracle(self, g):
        c = cover(g)
        for X in subsets(g.n):
            m = c.multiplicity_of(X)
            assert m >= 1
            assert m == brute_multiplicity(g, X)


class TestLabellingSearch:
    def test_exhaustive_finds_partition(self):
        result = search_labelling(dense_five_overlapping(), mode="exhaustive")
        assert result.found_partition
        assert result.permutation == (1, 2, 4, 3, 5)
        assert result.verdict.repeated_subset_count == 0

    def test_clique_returns_identity(self):
        result = search_labelling(complete_graph(4), mode="exhaustive")
        assert result.permutation == (1, 2, 3, 4)
        assert result.verdict.repeated_subset_count == 0

    def test_wheel_minimum_frozen(self):
        # exhaustive scan over all 120 labellings of the wheel
        result = search_labelling(wheel_five(), mode="exhaustive")
        assert not result.found_partition
        assert result.verdict.repeated_subset_count == 4
        assert result.permutation == (1, 2, 4, 3, 5)

    def test_random_mode_echoes_seed(self):
        result = search_labelling(
            dense_five_overlapping(), budget=30, mode="random", seed=7
        )
        assert result.seed == 7
        assert result.trials == 30
        assert result.verdict.repeated_subset_count is not None

    def test_random_mode_includes_identity_baseline(self):
        result = search_labelling(complete_graph(5), budget=3, mode="random", seed=1)
        assert result.permutation == (1, 2, 3, 4, 5)
        assert result.found_partition

    def test_zero_budget_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            search_labelling(dense_five_overlapping(), budget=0, mode="random")

    @pytest.mark.parametrize("extra", [{"budget": 2}, {"seed": 9}, {"budget": 2, "seed": 9}])
    def test_exhaustive_rejects_budget_and_seed(self, extra):
        with pytest.raises(ValueError, match="^budget and seed apply to random mode only$"):
            search_labelling(wheel_five(), mode="exhaustive", **extra)

    def test_exhaustive_size_guard(self):
        with pytest.raises(ValueError, match="refused"):
            search_labelling(Graph(10), mode="exhaustive")


class TestActivityPolynomial:
    def test_overlapping_labelling_terms(self):
        poly = activity_polynomial(dense_five_overlapping())
        assert dict(poly.coefficients) == {
            (1, 4, 0): 1,
            (2, 2, 1): 1,
            (2, 1, 2): 1,
            (1, 1, 0): 1,
        }

    def test_clique_closed_form(self):
        for n in range(1, 7):
            poly = activity_polynomial(complete_graph(n))
            expected = {(1, n - i, 0): 1 for i in range(1, n)}
            expected[(1, 0, 1)] = 1
            assert dict(poly.coefficients) == expected

    def test_single_vertex(self):
        assert dict(activity_polynomial(Graph(1)).coefficients) == {(1, 0, 1): 1}

    @settings(max_examples=40, deadline=None)
    @given(graphs())
    def test_ones_evaluation_counts_mis(self, g):
        poly = activity_polynomial(g)
        assert poly.evaluate(1, 1, 1) == len(brute_mis(g))

    def test_matches_the_sorted_cover(self):
        # built on the enumeration's raw order; the coefficients count the same multiset
        rng = random.Random(53)
        ks = []
        for _ in range(40):
            g = random_graph(rng.randint(4, 24), rng.uniform(0.1, 0.6), rng=rng)
            entries = cover(g).entries
            expected = Counter(
                (e.mis_mask.bit_count(), e.ext_mask.bit_count(), e.int_mask.bit_count())
                for e in entries
            )
            coefficients = activity_polynomial(g).coefficients
            assert coefficients == expected
            assert list(coefficients) == sorted(coefficients)
            ks.append(len(entries))
        assert min(ks) < _INDEX_MIN <= max(ks)


class TestMisDifference:
    def test_overlapping_labelling_pair(self):
        d = mis_difference_decomposition(dense_five_overlapping(), {2, 3}, {3, 5})
        assert d.removed == {2} and d.added == {5}
        assert d.added_meets_ext_of_first

    def test_partition_labelling_pair(self):
        d = mis_difference_decomposition(dense_five_partition(), {3, 4}, {3, 5})
        assert d.removed == {4} and d.added == {5}
        assert d.added_meets_ext_of_first  # 5 is externally active in {3,4}

    def test_clique_pair(self):
        g = complete_graph(3)
        d = mis_difference_decomposition(g, {1}, {3})
        assert d.removed == {1} and d.added == {3}
        assert d.added_meets_ext_of_first

    def test_identity_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            mis_difference_decomposition(dense_five_overlapping(), {4}, {4})

    @settings(max_examples=40, deadline=None)
    @given(graphs(max_n=7))
    def test_reconstruction_and_witness(self, g):
        mis = brute_mis(g)
        for A, B in combinations(mis, 2):
            d = mis_difference_decomposition(g, A, B)
            assert (A - d.removed) | d.added == B
            assert not d.removed & d.added
            assert d.added_meets_ext_of_first or d.removed_meets_ext_of_second


class TestCoverageUnderRelabelling:
    def test_random_labellings_keep_coverage(self):
        rng = random.Random(12)
        for _ in range(10):
            g = random_graph(rng.randint(1, 8), rng.uniform(0.1, 0.7), rng=rng)
            perm = list(g.vertices)
            rng.shuffle(perm)
            h = relabel(g, perm)
            c = cover(h)
            for X in subsets(h.n):
                assert c.multiplicity_of(X) >= 1
