"""Layered trees, admissible hosts, the leaf-completion map, and partitions."""

import random
from itertools import combinations, product

import pytest

from misact import (
    Graph,
    compute_levels,
    cover,
    enumerate_maximal_independent_sets,
    f_inverse,
    f_map,
    int_active,
    is_independent,
    is_maximal_independent,
    is_pruned_graph_of,
    is_pruned_tree,
    level_labelling,
    max_pruned_supergraph,
    partition_verdict,
    pruned_instance,
    pruned_partition,
    random_pruned_instance,
    relabel,
    tree_center,
)
from misact.pruned import level_labelling_violation

from reference import brute_tree_center, private_leaf_violations
from sample_graphs import (
    layered_host,
    layered_tree,
    sparse_layered_host,
    sparse_layered_tree,
)

# the nine generators of the layered host and their intervals, keyed by
# (generator, lower, complement of upper)
LAYERED_EXPECTED = [
    ([1, 7, 8, 12], [1, 8], []),
    ([1, 7, 12, 14], [1], [8]),
    ([2, 3, 5, 6, 9, 11], [3, 9], [1]),
    ([2, 3, 5, 6, 11, 12], [3], [1, 9]),
    ([2, 4, 5, 6, 7, 8, 10], [4, 8], [1, 3]),
    ([2, 4, 5, 6, 7, 10, 13, 14], [4], [1, 3, 8]),
    ([2, 5, 6, 7, 8, 10, 11, 12], [8], [1, 3, 4]),
    ([2, 5, 6, 7, 9, 10, 11, 13, 14], [9], [1, 3, 4, 8]),
    ([2, 5, 6, 7, 10, 11, 12, 13, 14], [], [1, 3, 4, 8, 9]),
]


class TestLevels:
    def test_layered_tree_levels(self):
        levels = compute_levels(layered_tree(), 1)
        assert levels.level[1] == 1
        assert all(levels.level[v] == 2 for v in range(2, 7))
        assert all(levels.level[v] == 3 for v in range(7, 12))
        assert all(levels.level[v] == 4 for v in (12, 13, 14))
        assert levels.height == 4
        assert levels.leaves == {2, 5, 6, 7, 10, 11, 12, 13, 14}
        assert levels.children[8] == {13, 14}
        assert levels.parent[8] == 3

    def test_star_rooted_at_hub(self):
        g = Graph(4, [(1, 2), (1, 3), (1, 4)])
        levels = compute_levels(g, 1)
        assert levels.height == 2
        assert levels.leaves == {2, 3, 4}

    def test_short_path_rooted_at_middle(self):
        g = Graph(3, [(1, 2), (2, 3)])
        levels = compute_levels(g, 2)
        assert levels.level_sets == (frozenset({2}), frozenset({1, 3}))

    def test_rejects_low_degree_root(self):
        g = Graph(3, [(1, 2), (2, 3)])
        with pytest.raises(ValueError, match="degree"):
            compute_levels(g, 1)

    def test_rejects_non_tree(self):
        with pytest.raises(ValueError, match="tree"):
            compute_levels(Graph(3, [(1, 2), (2, 3), (1, 3)]), 1)
        with pytest.raises(ValueError, match="tree"):
            compute_levels(Graph(4, [(1, 2), (1, 3), (2, 3)]), 1)


class TestPrunedTreePredicate:
    def test_layered_tree(self):
        assert is_pruned_tree(layered_tree(), 1)

    def test_short_path(self):
        assert is_pruned_tree(Graph(3, [(1, 2), (2, 3)]), 2)

    def test_bare_internal_node_fails(self):
        # 2 has a single non-leaf child, so no leaf child
        g = Graph(5, [(1, 2), (1, 3), (2, 4), (4, 5)])
        assert not is_pruned_tree(g, 1)

    def test_center(self):
        assert tree_center(layered_tree()) == 1
        assert tree_center(Graph(4, [(1, 2), (2, 3), (3, 4)])) == 2

    def test_center_matches_minimum_eccentricity(self):
        rng = random.Random(4)
        for _ in range(150):
            n = rng.randint(1, 20)
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            t = Graph(n, [(perm[rng.randint(1, v - 1) - 1], perm[v - 1]) for v in range(2, n + 1)])
            assert tree_center(t) == brute_tree_center(t)


class TestHostRange:
    def test_layered_host_is_admissible(self):
        assert is_pruned_graph_of(layered_tree(), 1, layered_host())

    def test_tree_is_its_own_host(self):
        assert is_pruned_graph_of(layered_tree(), 1, layered_tree())

    def test_leaf_to_leaf_edge_is_not(self):
        t = layered_tree()
        bad = Graph(14, t.edges() + [(2, 5)])
        assert not is_pruned_graph_of(t, 1, bad)

    def test_maximal_host_edges(self):
        t = layered_tree()
        levels = compute_levels(t, 1)
        hmax = max_pruned_supergraph(t, levels)
        extra = set(hmax.edges()) - set(t.edges())
        assert {(1, 9), (1, 13), (4, 12), (8, 9), (3, 4)} <= extra
        # leaves gain nothing; same-level edges only among internal nodes
        assert all(u not in levels.leaves or v not in levels.leaves
                   for u, v in extra)
        inter = max_pruned_supergraph(t, levels, inter_level_only=True)
        assert set(hmax.edges()) - set(inter.edges()) == {(3, 4), (8, 9)}

    def test_depth_two_has_no_skip_edges(self):
        g = Graph(4, [(1, 2), (1, 3), (1, 4)])
        hmax = max_pruned_supergraph(g, compute_levels(g, 1))
        assert hmax == g

    def test_vertex_count_mismatch(self):
        with pytest.raises(ValueError, match="vertex set"):
            is_pruned_graph_of(layered_tree(), 1, Graph(3))


class TestLevelLabelling:
    def test_layered_tree_already_labelled(self):
        assert level_labelling(layered_tree(), 1) == {v: v for v in range(1, 15)}

    def test_root_gets_label_one(self):
        g = Graph(3, [(1, 2), (2, 3)])
        assert level_labelling(g, 2)[2] == 1

    def test_violation_detection(self):
        levels = compute_levels(Graph(3, [(1, 2), (2, 3)]), 2)
        u, v = level_labelling_violation(levels)
        assert levels.level[u] < levels.level[v] and u > v
        good = compute_levels(layered_tree(), 1)
        assert level_labelling_violation(good) is None

    def test_relabelled_tree_satisfies_labelling(self):
        g = Graph(5, [(3, 1), (3, 5), (1, 2), (1, 4)])
        perm = level_labelling(g, 3)
        relabelled = relabel(g, perm)
        levels = compute_levels(relabelled, perm[3])
        assert level_labelling_violation(levels) is None


class TestInstanceValidation:
    def test_defaults(self):
        inst = pruned_instance(layered_tree())
        assert inst.root == 1
        assert inst.host == inst.tree

    def test_leaf_sets_differ(self):
        inst = pruned_instance(layered_tree(), layered_host(), 1)
        assert inst.leaf_set_tree == {2, 5, 6, 7, 10, 11, 12, 13, 14}
        assert inst.leaf_set_host == {2, 5, 6, 7}

    def test_rejects_non_pruned_tree(self):
        g = Graph(5, [(1, 2), (1, 3), (2, 4), (4, 5)])
        with pytest.raises(ValueError, match="leaf child"):
            pruned_instance(g, root=1)

    def test_rejects_out_of_range_host(self):
        t = layered_tree()
        with pytest.raises(ValueError, match="admissible"):
            pruned_instance(t, Graph(14, t.edges() + [(2, 5)]), 1)


class TestLeafCompletion:
    def test_worked_examples(self):
        inst = pruned_instance(layered_tree(), layered_host(), 1)
        assert f_map(inst, {1, 8}) == {1, 7, 8, 12}
        assert f_map(inst, set()) == inst.leaf_set_tree
        assert f_inverse(inst, {1, 7, 8, 12}) == {1, 8}
        assert f_inverse(inst, {2, 5, 6, 7, 10, 11, 12, 13, 14}) == frozenset()

    def test_bijection_on_layered_host(self):
        inst = pruned_instance(layered_tree(), layered_host(), 1)
        core = sorted(inst.host.vertex_set - inst.leaf_set_tree)
        independents = [
            frozenset(c)
            for r in range(len(core) + 1)
            for c in combinations(core, r)
            if is_independent(inst.host, c)
        ]
        mis = enumerate_maximal_independent_sets(inst.host)
        assert len(independents) == len(mis) == 9
        images = {f_map(inst, S) for S in independents}
        assert images == set(mis)
        for A in mis:
            assert f_map(inst, f_inverse(inst, A)) == A

    def test_tree_children_mode_matches_on_plain_tree(self):
        inst = pruned_instance(layered_tree())
        for S in ({1, 8}, {3, 9}, set(), {4}):
            assert f_map(inst, S, children_mode="tree") == f_map(
                inst, S, children_mode="host"
            )

    def test_rejects_leaf_members(self):
        inst = pruned_instance(layered_tree(), layered_host(), 1)
        with pytest.raises(ValueError, match="leaves"):
            f_map(inst, {2})

    def test_rejects_dependent_argument(self):
        inst = pruned_instance(layered_tree(), layered_host(), 1)
        with pytest.raises(ValueError, match="independent"):
            f_map(inst, {1, 3})

    def test_inverse_rejects_non_maximal(self):
        inst = pruned_instance(layered_tree(), layered_host(), 1)
        with pytest.raises(ValueError, match="maximal"):
            f_inverse(inst, {1})

    def test_host_leaf_mode_is_exposed_and_differs(self):
        # with the host's own leaves the map need not land on a maximal set;
        # the discrepancy is exactly why both modes are reported
        inst = pruned_instance(layered_tree(), layered_host(), 1)
        image = f_map(inst, {12}, leaf_mode="host")
        assert image == {2, 5, 6, 7, 12}
        assert not is_maximal_independent(inst.host, image)
        assert f_inverse(inst, {1, 7, 8, 12}, leaf_mode="host") == {1, 8, 12}


class TestPrunedPartition:
    def test_layered_instance_reproduces_worked_intervals(self):
        inst = pruned_instance(layered_tree(), layered_host(), 1)
        report = pruned_partition(inst)
        got = [
            (sorted(e.generator), sorted(e.lower),
             sorted(inst.host.vertex_set - e.upper))
            for e in report.cover.entries
        ]
        assert got == LAYERED_EXPECTED
        assert report.verdict.is_partition
        assert report.lower_matches_f
        assert report.int_equals_tree_leaves
        assert report.f_lowers == tuple(e.interval.lower for e in report.cover.entries)

    def test_leaf_activity_on_layered_instance(self):
        inst = pruned_instance(layered_tree(), layered_host(), 1)
        for A in enumerate_maximal_independent_sets(inst.host):
            assert int_active(inst.host, A) == A & inst.leaf_set_tree

    def test_star_partition(self):
        g = Graph(4, [(1, 2), (1, 3), (1, 4)])
        report = pruned_partition(pruned_instance(g, root=1))
        assert [(sorted(e.lower), sorted(e.upper)) for e in report.cover.entries] == [
            ([1], [1, 2, 3, 4]),
            ([], [2, 3, 4]),
        ]
        assert report.verdict.is_partition

    def test_rejects_labelling_violation(self):
        g = Graph(3, [(1, 2), (2, 3)])  # root 2 sits at level 1 with label 2
        with pytest.raises(ValueError, match="labelling"):
            pruned_partition(pruned_instance(g, root=2))

    def test_sparse_host_counterexample_is_reported_not_hidden(self):
        # a depth-four host where a skip edge steals a leaf child: the leaf
        # rule breaks and the cover genuinely fails to partition
        inst = pruned_instance(sparse_layered_tree(), sparse_layered_host(), 1)
        report = pruned_partition(inst)
        assert not report.int_equals_tree_leaves
        assert not report.lower_matches_f
        assert not report.verdict.is_partition
        assert report.verdict.repeated_subset_count == 128
        host = inst.host
        # 5's only leaf child 9 also meets 1, and 1 is not adjacent to 5
        # (likewise 10 meets 2 while 2 is not adjacent to 6)
        assert private_leaf_violations(inst.tree, host, 1) == {5, 6}
        assert int_active(host, {1, 5, 10}) == {5, 10}  # 5 is not a tree leaf
        # the robust halves still hold
        for e in report.cover.entries:
            assert e.generator & inst.leaf_set_tree <= e.int_
            assert f_map(inst, f_inverse(inst, e.generator)) == e.generator

    def test_leaves_never_feed_external_activity(self):
        for tree, host in (
            (layered_tree(), layered_host()),
            (sparse_layered_tree(), sparse_layered_host()),
        ):
            inst = pruned_instance(tree, host, 1)
            for leaf in inst.leaf_set_tree:
                assert all(u < leaf for u in host.neighbors(leaf))


class TestRandomInstances:
    def test_generator_produces_valid_instances(self):
        rng = random.Random(5)
        for _ in range(25):
            inst = random_pruned_instance(rng, max_vertices=14)
            assert inst.tree.n <= 14
            assert is_pruned_tree(inst.tree, inst.root)
            assert is_pruned_graph_of(inst.tree, inst.root, inst.host)
            assert level_labelling_violation(inst.levels) is None

    def test_plain_trees_always_partition_with_leaf_rule(self):
        rng = random.Random(6)
        for _ in range(30):
            inst = random_pruned_instance(rng, max_vertices=14,
                                          host_edge_probability=0.0)
            report = pruned_partition(inst)
            assert report.verdict.is_partition
            assert report.lower_matches_f
            assert report.int_equals_tree_leaves

    def test_round_trip_and_robust_invariants_on_hosts(self):
        rng = random.Random(7)
        for _ in range(30):
            inst = random_pruned_instance(rng, max_vertices=14)
            c = pruned_partition(inst).cover
            misets = [e.generator for e in c.entries]
            assert len(set(f_inverse(inst, A) for A in misets)) == len(misets)
            for e in c.entries:
                assert f_map(inst, f_inverse(inst, e.generator)) == e.generator
                assert e.generator & inst.leaf_set_tree <= e.int_


def _level_labelled_trees(n):
    """Parent lists of every tree on 1..n rooted at 1 with levels ascending in label.

    parents[v - 2] is the parent of v; each vertex hangs from a smaller label
    and sits no shallower than its predecessor.
    """
    def grow(parents, level):
        v = len(parents) + 2
        if v > n:
            yield parents
            return
        for p in range(1, v):
            if level[p] + 1 >= level[v - 1]:
                yield from grow(parents + [p], level + [level[p] + 1])

    yield from grow([], [0, 1])


class TestPrivateLeafHypothesis:
    def test_sufficient_for_partition_on_all_small_hosts(self):
        # every admissible host over every level-labelled pruned tree rooted
        # at 1 on at most eight vertices
        hosts = meeting = non_partitions = 0
        for n in range(3, 9):
            for parents in _level_labelled_trees(n):
                tree = Graph(n, [(p, v) for v, p in enumerate(parents, start=2)])
                if tree.degree(1) < 2 or not is_pruned_tree(tree, 1):
                    continue
                levels = compute_levels(tree, 1)
                assert level_labelling_violation(levels) is None
                extra = sorted(
                    set(max_pruned_supergraph(tree, levels).edges()) - set(tree.edges())
                )
                for keep in product((False, True), repeat=len(extra)):
                    host = Graph(n, tree.edges() + [e for e, k in zip(extra, keep) if k])
                    hosts += 1
                    partition = partition_verdict(cover(host)).is_partition
                    non_partitions += not partition
                    if not private_leaf_violations(tree, host, 1):
                        meeting += 1
                        assert partition, (tree.edges(), host.edges())
                    if not partition:
                        assert levels.height >= 4, host.edges()
        assert (hosts, meeting, non_partitions) == (19854, 12702, 224)
