"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
Criteria 4-6 share a seeded corpus of 200 random graphs (n <= 12) with ten
random labellings each; criterion 13 uses a seeded stream of 100 random
layered-host instances.  Both seeds are fixed constants.
"""

import random
import time
from itertools import combinations, product

import pytest

from misact import (
    Graph,
    activity_polynomial,
    colex_graph,
    complete_graph,
    cover,
    enumerate_internally_complete,
    enumerate_maximal_independent_sets,
    ext_active,
    externally_complete,
    find_complete,
    int_active,
    internally_complete,
    interval_of,
    is_independent,
    kn_plus_em,
    kn_with_pendants,
    lex_graph,
    lex_neighborhoods,
    colex_neighborhoods,
    partition_verdict,
    pendant_partition_predicate,
    predicted_cover_colex,
    predicted_cover_join,
    predicted_cover_kn,
    predicted_cover_lex,
    pruned_instance,
    pruned_partition,
    random_graph,
    random_pruned_instance,
    relabel,
    repeated_subsets_detail,
    sds,
    sis,
    subset_multiplicity,
)
from misact.activities import _interval_masks, _locate_generator_mask, _overlapping_pairs
from misact.graph import mask_of, set_of

from reference import private_leaf_violations, subset_histogram
from sample_graphs import (
    all_named_graphs,
    dense_five_overlapping,
    dense_five_partition,
    hub_five,
    layered_host,
    layered_tree,
    seven_edge_five,
    tailed_triangle,
    ten_vertex_with_complete_a,
    ten_vertex_with_complete_b,
    wheel_five,
)

CORPUS_SEED = 20250808
PRUNED_SEED = 0


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def corpus():
    """200 seeded random graphs, each under ten random labellings."""
    rng = random.Random(CORPUS_SEED)
    out = []
    for _ in range(200):
        n = rng.randint(1, 12)
        g = random_graph(n, rng.uniform(0.1, 0.6), rng=rng)
        variants = []
        for _ in range(10):
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            variants.append(relabel(g, perm))
        out.append((g, variants))
    return out


def test_criterion_01_first_example_activities():
    g = tailed_triangle()
    ok = ext_active(g, {3, 5}) == {4} and int_active(g, {3, 5}) == {5}
    _report(1, ok, "Ext({3,5})={4} and Int({3,5})={5} on the five-vertex example")


def test_criterion_02_overlapping_labelling_table():
    g = dense_five_overlapping()
    c = cover(g)
    rows = [
        (sorted(e.generator), sorted(e.int_), sorted(e.ext),
         sorted(e.lower), sorted(e.upper))
        for e in c.entries
    ]
    expected = [
        ([1], [], [2, 3, 4, 5], [1], [1, 2, 3, 4, 5]),
        ([2, 3], [3], [4, 5], [2], [2, 3, 4, 5]),
        ([3, 5], [3, 5], [4], [], [3, 4, 5]),
        ([4], [], [5], [4], [4, 5]),
    ]
    verdict = partition_verdict(c)
    repeats = repeated_subsets_detail(c)
    ok = (
        rows == expected
        and verdict.is_partition is False
        and verdict.repeated_subset_count == 2
        and [sorted(x) for x, _ in repeats] == [[4], [4, 5]]
        and all(sorted(map(sorted, gens)) == [[3, 5], [4]] for _, gens in repeats)
    )
    _report(2, ok, "four generators, their activity columns, two repeated subsets")


def test_criterion_03_partition_labelling_table():
    c = cover(dense_five_partition())
    intervals = [(sorted(e.lower), sorted(e.upper)) for e in c.entries]
    expected = [
        ([1], [1, 2, 3, 4, 5]),
        ([2], [2, 3, 4, 5]),
        ([4], [3, 4, 5]),
        ([], [3, 5]),
    ]
    verdict = partition_verdict(c)
    ok = (
        intervals == expected
        and verdict.is_partition is True
        and verdict.repeated_subset_count == 0
    )
    _report(3, ok, "four disjoint intervals, zero repeated subsets")


def test_criterion_04_coverage_on_random_corpus(corpus):
    start = time.monotonic()
    checked = 0
    for _, variants in corpus:
        for h in variants:
            counts = subset_histogram(cover(h))
            assert counts.count(0) == 0, "a subset escaped every interval"
            checked += 1
    elapsed = time.monotonic() - start
    ok = checked == 2000 and elapsed <= 60
    _report(4, ok, f"coverage on {checked} labelled graphs in {elapsed:.1f}s (budget 60s)")


def test_criterion_05_locate_generator_on_random_corpus(corpus):
    checked = 0
    for _, variants in corpus:
        for h in variants:
            reports: dict[int, tuple[int, int, int, int]] = {}
            for x in range(1 << h.n):
                b = _locate_generator_mask(h, x)
                if b not in reports:
                    rep = interval_of(h, set_of(b))
                    reports[b] = (
                        mask_of(rep.interval.lower),
                        mask_of(rep.interval.upper),
                        mask_of(rep.ext),
                        mask_of(rep.int_),
                    )
                lo, hi, ext_m, int_m = reports[b]
                assert not (lo & ~x or x & ~hi), "located interval misses the subset"
                assert not ((x & ~b) & ~ext_m), "dropped vertices not externally active"
                assert not ((b & ~x) & ~int_m), "added vertices not internally active"
            checked += 1
    _report(5, True, f"greedy location postconditions on all subsets of {checked} graphs")


def test_criterion_06_complete_set_algorithms_on_random_corpus(corpus):
    for _, variants in corpus:
        for h in variants:
            hits = [
                A
                for A in enumerate_maximal_independent_sets(h)
                if ext_active(h, A) == h.vertex_set - A
            ]
            assert hits == [externally_complete(h)], "ascending greedy not unique hit"
            s = internally_complete(h)
            assert int_active(h, s) == s, "descending greedy not internally complete"
    _report(6, True, "unique externally complete set and internally complete greedy, 2000 graphs")


def test_criterion_07_complete_set_fixtures():
    failures = []
    for g, expected in (
        (ten_vertex_with_complete_a(), {1, 4, 5, 6, 8, 10}),
        (ten_vertex_with_complete_b(), {1, 2, 3, 7, 8, 9}),
    ):
        s = find_complete(g)
        if s != expected:
            failures.append(f"complete set {s} != {sorted(expected)}")
            continue
        if interval_of(g, s).interval != (frozenset(), g.vertex_set):
            failures.append("complete set does not generate the full lattice")
        if partition_verdict(cover(g)).is_partition:
            failures.append("cover with a complete set cannot be a partition")
    _report(7, not failures, "; ".join(failures) or "both ten-vertex fixtures check out")


def test_criterion_08_internally_complete_families():
    expected = [
        (wheel_five(), [{2, 4}, {3, 5}]),
        (hub_five(), [{2, 4}, {5}]),
        (seven_edge_five(), [{1, 5}, {2, 4}]),
    ]
    failures = []
    for g, families in expected:
        got = enumerate_internally_complete(g)
        if got != families:
            failures.append(f"families {got} != {families}")
        if partition_verdict(cover(g)).is_partition:
            failures.append("two internally complete sets must block the partition")
    _report(8, not failures, "; ".join(failures) or "three five-vertex families exact, all non-partitions")


def test_criterion_09_clique_partitions():
    failures = []
    for n in range(1, 11):
        computed = cover(complete_graph(n))
        if predicted_cover_kn(n).entries != computed.entries:
            failures.append(f"n={n} prediction mismatch")
        if not partition_verdict(computed).is_partition:
            failures.append(f"n={n} not a partition")
        if sum(e.interval.size() for e in computed.entries) != 1 << n:
            failures.append(f"n={n} size identity broken")
    _report(9, not failures, "; ".join(failures) or "clique covers n=1..10 exact with size identity")


def test_criterion_10_joins_and_pendants():
    failures = []
    for n in range(1, 6):
        for m in range(1, 6):
            if predicted_cover_join(n, m).entries != cover(kn_plus_em(n, m)).entries:
                failures.append(f"join n={n} m={m}")
    swept = 0
    for n in range(1, 5):
        for sizes in product(range(7), repeat=n):
            if sum(sizes) > 6:
                continue
            predicted = pendant_partition_predicate(sizes)
            got = partition_verdict(cover(kn_with_pendants(n, sizes))).is_partition
            if predicted != got:
                failures.append(f"pendants {sizes}")
            swept += 1
    if subset_multiplicity(kn_with_pendants(3, (1, 0, 1)), {3}) != 2:
        failures.append("counterexample should repeat the top singleton")
    _report(
        10,
        not failures,
        "; ".join(failures) or f"joins to 5x5 and {swept} pendant vectors match",
    )


def test_criterion_11_decompositions():
    failures = []
    if sds(6, 5).parts != (4, 2):
        failures.append("sds(6,5)")
    if sis(7, 6).parts != (1, 2, 3, 1):
        failures.append("sis(7,6)")
    for n in range(2, 13):
        top = n * (n - 1) // 2
        for m in range(n - 1, top + 1):
            cands = []
            for k in range(1, n):
                head = [n - i for i in range(1, k)]
                tail = m - sum(head)
                if 1 <= tail <= n - k:
                    cands.append(tuple(head + [tail]))
            if cands != [sds(m, n).parts]:
                failures.append(f"sds({m},{n}) candidates {cands}")
        for m in range(1, top + 1):
            cands = []
            for k in range(1, n):
                head = list(range(1, k))
                tail = m - sum(head)
                if 1 <= tail <= k:
                    cands.append(tuple(head + [tail]))
            if cands != [sis(m, n).parts]:
                failures.append(f"sis({m},{n}) candidates {cands}")
    _report(11, not failures, "; ".join(failures[:3]) or "greedy decompositions unique for n<=12")


def test_criterion_12_lex_colex():
    failures = []
    lex_example = [
        (sorted(e.generator), sorted(e.lower), sorted(e.upper))
        for e in cover(lex_graph(5, 6)).entries
    ]
    if lex_example != [
        ([1], [1], [1, 2, 3, 4, 5]),
        ([2, 5], [2], [2, 3, 4, 5]),
        ([3, 4, 5], [], [3, 4, 5]),
    ]:
        failures.append("lex(5,6) worked example")
    colex_example = [
        (sorted(e.generator), sorted(e.lower), sorted(e.upper))
        for e in cover(colex_graph(6, 7)).entries
    ]
    if colex_example != [
        ([1, 6], [1], [1, 2, 3, 4, 5, 6]),
        ([2, 5, 6], [2], [2, 3, 4, 5, 6]),
        ([3, 5, 6], [3], [3, 4, 5, 6]),
        ([4, 5, 6], [], [4, 5, 6]),
    ]:
        failures.append("colex(6,7) worked example")
    for n in range(1, 9):
        top = n * (n - 1) // 2
        for m in range(top + 1):
            for tag, g, predicted in (
                ("lex", lex_graph(n, m), predicted_cover_lex(n, m)),
                ("colex", colex_graph(n, m), predicted_cover_colex(n, m)),
            ):
                computed = cover(g)
                if predicted.entries != computed.entries:
                    failures.append(f"{tag}({n},{m}) prediction")
                if not partition_verdict(computed).is_partition:
                    failures.append(f"{tag}({n},{m}) partition")
            g = lex_graph(n, m)
            if m >= n and any(
                lex_neighborhoods(n, m)[v] != g.adj[v] for v in g.vertices
            ):
                failures.append(f"lex({n},{m}) neighbourhoods")
            gc = colex_graph(n, m)
            if any(colex_neighborhoods(n, m)[v] != gc.adj[v] for v in gc.vertices):
                failures.append(f"colex({n},{m}) neighbourhoods")
    _report(12, not failures, "; ".join(failures[:3]) or "worked examples plus full n<=8 sweep")


def test_criterion_13_pruned_pipeline():
    start = time.monotonic()
    failures = []

    inst = pruned_instance(layered_tree(), layered_host(), 1)
    report = pruned_partition(inst)
    got = [
        (sorted(e.generator), sorted(e.lower), sorted(inst.host.vertex_set - e.upper))
        for e in report.cover.entries
    ]
    expected = [
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
    if got != expected:
        failures.append("nine worked intervals differ")
    if not report.verdict.is_partition:
        failures.append("worked instance not a partition")

    core = sorted(inst.host.vertex_set - inst.leaf_set_tree)
    independents = [
        frozenset(c)
        for r in range(len(core) + 1)
        for c in combinations(core, r)
        if is_independent(inst.host, c)
    ]
    from misact import f_map

    mis = enumerate_maximal_independent_sets(inst.host)
    if not (len(independents) == len(mis) == 9):
        failures.append(f"bijection counts {len(independents)} vs {len(mis)}")
    if {f_map(inst, S) for S in independents} != set(mis):
        failures.append("leaf completion not onto the maximal sets")
    if any(int_active(inst.host, A) != A & inst.leaf_set_tree for A in mis):
        failures.append("internal activity is not exactly the tree leaves")

    if private_leaf_violations(inst.tree, inst.host, inst.root):
        failures.append("worked instance violates the private-leaf hypothesis")

    # 100 seeded random instances: hosts drawn uniformly from the admissible
    # edge range over random pruned trees up to 16 vertices.  The unqualified
    # partition claim is false on this class: a skip edge u-l into the only
    # leaf child l of an internal vertex v, with u not adjacent to v, makes v
    # internally active (README, "Tests and the acceptance suite"; the
    # sparse_layered_tree / sparse_layered_host fixtures in sample_graphs).
    # So the claim is checked under the private-leaf hypothesis that its leaf
    # argument needs: every vertex with children has a leaf child whose other
    # host neighbours are all host neighbours of that vertex.  Instances that
    # meet it must partition with the leaf rule intact, and every
    # non-partition must violate it, so no failure goes unexplained.
    rng = random.Random(PRUNED_SEED)
    methods_disagreed = []
    leaf_rule_failed = []
    unexplained = []
    meeting = 0
    non_partitions = 0
    for i in range(100):
        instance = random_pruned_instance(rng, max_vertices=16)
        c = cover(instance.host)
        pairwise = next(_overlapping_pairs(_interval_masks(c)), None) is None
        size_identity = (
            sum(e.interval.size() for e in c.entries) == 1 << instance.host.n
        )
        counts = subset_histogram(c)
        exhaustive = counts.count(0) == 0 and len(counts) == counts.count(1)
        if not (pairwise == size_identity == exhaustive):
            methods_disagreed.append(i)
        non_partitions += not pairwise
        if private_leaf_violations(instance.tree, instance.host, instance.root):
            continue
        meeting += 1
        if not pairwise:
            unexplained.append(i)
            continue
        report = pruned_partition(instance)
        if not (report.int_equals_tree_leaves and report.lower_matches_f):
            leaf_rule_failed.append(i)
    if methods_disagreed:
        failures.append(f"verdict methods disagreed on instances {methods_disagreed}")
    if unexplained:
        failures.append(
            f"instances {unexplained} meet the private-leaf hypothesis "
            "but are not partitions"
        )
    if leaf_rule_failed:
        failures.append(
            f"instances {leaf_rule_failed} meet the private-leaf hypothesis "
            "but Int(A) is not A ∩ leaves"
        )
    if not meeting:
        failures.append("no seeded instance meets the private-leaf hypothesis")
    elapsed = time.monotonic() - start
    if elapsed > 120:
        failures.append(f"over budget: {elapsed:.1f}s")
    _report(
        13,
        not failures,
        "; ".join(failures)
        or f"worked instance and 100 random instances in {elapsed:.1f}s (budget 120s); "
        f"{meeting}/100 meet the private-leaf hypothesis and all partition; "
        f"{non_partitions}/100 are non-partitions, each violating it",
    )


def test_criterion_14_polynomial_counts_generators(corpus):
    graphs = list(all_named_graphs())
    graphs += [complete_graph(n) for n in range(1, 9)]
    for n in range(1, 7):
        for m in range(n * (n - 1) // 2 + 1):
            graphs.append(lex_graph(n, m))
            graphs.append(colex_graph(n, m))
    graphs += [g for g, _ in corpus]
    for g in graphs:
        assert activity_polynomial(g).evaluate(1, 1, 1) == len(
            enumerate_maximal_independent_sets(g)
        )
    _report(14, True, f"evaluation at (1,1,1) counts generators on {len(graphs)} graphs")
