"""Externally/internally/fully complete sets and partition obstructions."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import misact.complete
from misact import (
    Graph,
    complete_graph,
    cover,
    enumerate_internally_complete,
    enumerate_maximal_independent_sets,
    ext_active,
    externally_complete,
    find_complete,
    greedy_maximal_independent_set,
    int_active,
    internally_complete,
    interval_of,
    is_complete,
    is_externally_complete,
    is_internally_complete,
    isolated_after_removal_check,
    partition_obstructions,
    partition_verdict,
    random_graph,
    singleton_generator_for,
    subset_multiplicity,
)

from reference import brute_isolated_after_removal, brute_mis
from sample_graphs import (
    dense_five_overlapping,
    dense_five_partition,
    hub_five,
    seven_edge_five,
    tailed_triangle,
    ten_vertex_with_complete_a,
    ten_vertex_with_complete_b,
    wheel_five,
)


@st.composite
def graphs(draw, max_n: int = 8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = list(combinations(range(1, n + 1), 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    return Graph(n, edges)


class TestExternallyComplete:
    def test_tailed_triangle(self):
        g = tailed_triangle()
        s = externally_complete(g)
        assert s == {1, 2}
        assert ext_active(g, s) == g.vertex_set - s

    def test_clique_takes_smallest(self):
        for n in range(1, 7):
            assert externally_complete(complete_graph(n)) == {1}

    def test_edgeless_takes_everything(self):
        g = Graph(4)
        s = externally_complete(g)
        assert s == g.vertex_set
        assert ext_active(g, s) == frozenset()

    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_unique_by_exhaustive_scan(self, g):
        hits = [
            A
            for A in enumerate_maximal_independent_sets(g)
            if ext_active(g, A) == g.vertex_set - A
        ]
        assert hits == [externally_complete(g)]


class TestLocatedSpecialSets:
    def test_located_for_all_and_none_are_the_greedy_passes(self):
        rng = random.Random(8)
        for _ in range(120):
            g = random_graph(rng.randint(0, 14), rng.uniform(0.05, 0.9), rng=rng)
            up = range(1, g.n + 1)
            assert externally_complete(g) == greedy_maximal_independent_set(g, up)
            assert internally_complete(g) == greedy_maximal_independent_set(g, up[::-1])


class TestInternallyComplete:
    def test_overlapping_labelling(self):
        g = dense_five_overlapping()
        s = internally_complete(g)
        assert s == {3, 5}
        assert int_active(g, s) == s

    def test_clique_takes_largest(self):
        for n in range(1, 7):
            g = complete_graph(n)
            assert internally_complete(g) == {n}
            assert interval_of(g, {n}).interval.lower == frozenset()

    def test_hub_five(self):
        assert internally_complete(hub_five()) == {5}

    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_always_internally_complete(self, g):
        s = internally_complete(g)
        assert int_active(g, s) == s
        assert s in enumerate_internally_complete(g)


class TestEnumerateInternallyComplete:
    def test_wheel(self):
        assert enumerate_internally_complete(wheel_five()) == [{2, 4}, {3, 5}]

    def test_hub_five(self):
        assert enumerate_internally_complete(hub_five()) == [{2, 4}, {5}]

    def test_seven_edge_five(self):
        assert enumerate_internally_complete(seven_edge_five()) == [{1, 5}, {2, 4}]

    def test_clique(self):
        for n in range(1, 6):
            assert enumerate_internally_complete(complete_graph(n)) == [{n}]

    def test_two_internally_complete_repeat_empty_set(self):
        for build in (wheel_five, hub_five, seven_edge_five):
            g = build()
            assert subset_multiplicity(g, set()) >= 2


class TestCompleteSets:
    def test_ten_vertex_a(self):
        g = ten_vertex_with_complete_a()
        s = find_complete(g)
        assert s == {1, 4, 5, 6, 8, 10}
        assert is_complete(g, s)
        assert interval_of(g, s).interval == (frozenset(), g.vertex_set)
        assert not partition_verdict(cover(g)).is_partition

    def test_ten_vertex_b(self):
        g = ten_vertex_with_complete_b()
        s = find_complete(g)
        assert s == {1, 2, 3, 7, 8, 9}
        assert interval_of(g, s).interval == (frozenset(), g.vertex_set)
        assert not partition_verdict(cover(g)).is_partition

    def test_partition_labelling_has_none(self):
        g = dense_five_partition()
        assert find_complete(g) is None
        assert not any(is_complete(g, A) for A in enumerate_maximal_independent_sets(g))

    def test_predicate_rejects_non_maximal(self):
        with pytest.raises(ValueError, match="maximal"):
            is_complete(tailed_triangle(), {3})

    @settings(max_examples=40, deadline=None)
    @given(graphs())
    def test_find_complete_matches_scan(self, g):
        scan = [A for A in enumerate_maximal_independent_sets(g) if
                is_externally_complete(g, A) and is_internally_complete(g, A)]
        found = find_complete(g)
        assert scan == ([found] if found is not None else [])


class TestReversedMode:
    @settings(max_examples=60, deadline=None)
    @given(graphs())
    def test_descending_greedy_complete_under_reversed_ext(self, g):
        # with the flipped comparison, the descending greedy output is both
        # internally complete and externally complete, for every graph
        s = internally_complete(g)
        assert int_active(g, s) == s
        assert ext_active(g, s, mode="reversed") == g.vertex_set - s
        rep = interval_of(g, s)
        assert rep.interval.lower == frozenset()
        assert s | ext_active(g, s, mode="reversed") == g.vertex_set

    def test_holds_up_to_twelve_vertices(self):
        rng = random.Random(21)
        for _ in range(60):
            g = random_graph(rng.randint(1, 12), rng.uniform(0.05, 0.8), rng=rng)
            s = internally_complete(g)
            assert int_active(g, s) == s
            assert ext_active(g, s, mode="reversed") == g.vertex_set - s


class TestObstructions:
    def test_complete_set_obstruction(self):
        obs = partition_obstructions(ten_vertex_with_complete_a())
        kinds = {o.kind for o in obs}
        assert "complete_set_exists" in kinds
        witness = next(o for o in obs if o.kind == "complete_set_exists").witnesses[0]
        assert witness == {1, 4, 5, 6, 8, 10}

    def test_two_internally_complete_obstruction(self):
        obs = partition_obstructions(hub_five())
        kinds = {o.kind for o in obs}
        assert "two_internally_complete" in kinds
        witnesses = next(
            o for o in obs if o.kind == "two_internally_complete"
        ).witnesses
        assert set(witnesses) == {frozenset({5}), frozenset({2, 4})}

    def test_partition_labelling_clean(self):
        assert partition_obstructions(dense_five_partition()) == []

    @settings(max_examples=40, deadline=None)
    @given(graphs())
    def test_obstruction_forces_non_partition(self, g):
        if partition_obstructions(g):
            assert not partition_verdict(cover(g)).is_partition


class TestSingletonGenerator:
    def test_tailed_triangle(self):
        g = tailed_triangle()
        A = singleton_generator_for(g, 2)
        low = A - int_active(g, A)
        assert low in (frozenset(), frozenset({2}))

    def test_clique_top(self):
        g = complete_graph(5)
        A = singleton_generator_for(g, 5)
        assert A == {5}
        assert int_active(g, A) == A

    def test_isolated_vertex_member(self):
        g = Graph(4, [(1, 2)])
        A = singleton_generator_for(g, 3)
        assert 3 in A
        assert 3 in int_active(g, A)

    def test_maximality_checked_on_the_mask(self, monkeypatch):
        """The located generator's maximality is checked on its mask, with no frozenset
        round trip through is_maximal_independent."""

        def refuse(*args):
            raise AssertionError("maximality checked through a vertex set")

        monkeypatch.setattr(misact.complete, "is_maximal_independent", refuse)
        for g in (tailed_triangle(), complete_graph(5), Graph(6, [(1, 6), (2, 6), (3, 6)])):
            for v in g.vertices:
                A = singleton_generator_for(g, v)
                assert v in A and A - int_active(g, A) <= {v}

    @settings(max_examples=40, deadline=None)
    @given(graphs())
    def test_postcondition_everywhere(self, g):
        for v in g.vertices:
            A = singleton_generator_for(g, v)
            assert v in A
            assert A in brute_mis(g)
            low = A - int_active(g, A)
            assert low in (frozenset(), frozenset({v}))


class TestIsolatedAfterRemoval:
    def test_clique_leaves_nothing(self):
        has, verified = isolated_after_removal_check(complete_graph(4), 2)
        assert has is False and verified is None

    def test_path_end(self):
        g = Graph(4, [(1, 2), (2, 3), (3, 4)])
        has, verified = isolated_after_removal_check(g, 1)
        assert has is False  # remaining 3-4 still has its edge

    def test_star_leaf(self):
        g = Graph(4, [(1, 2), (1, 3), (1, 4)])
        # removing N[2] = {1,2} strands the other two leaves
        has, verified = isolated_after_removal_check(g, 2)
        assert has is True and verified is True

    def test_property_over_random_graphs(self):
        rng = random.Random(3)
        for _ in range(30):
            g = random_graph(rng.randint(1, 9), rng.uniform(0.1, 0.8), rng=rng)
            for v in g.vertices:
                has, verified = isolated_after_removal_check(g, v)
                if has:
                    assert verified is True

    def test_matches_frozenset_reference(self):
        rng = random.Random(11)
        for _ in range(70):
            g = random_graph(rng.randint(1, 9), rng.uniform(0.05, 0.8), rng=rng)
            for v in g.vertices:
                assert isolated_after_removal_check(g, v) == brute_isolated_after_removal(g, v)
