"""The invariant harness across fixture, random, and family targets."""

import dataclasses

import pytest

import misact.activities
import misact.cli
import misact.complete
import misact.verify
from misact import Cover, cover, emit_edge_list, random_graph, verify_all, verify_family
from misact.activities import MAX_ORACLE_BOUND, ActivityReport
from misact.graph import _bits, set_of
from misact.verify import _first_bad_locate

from sample_graphs import (
    dense_five_partition,
    hub_five,
    ten_vertex_with_complete_a,
)


def by_name(checks):
    return {c.name: c for c in checks}


class TestVerifyAll:
    def test_partition_labelling_all_green(self):
        checks = verify_all(dense_five_partition())
        assert all(c.passed for c in checks)
        assert {
            "coverage",
            "locate_generator",
            "externally_complete_unique",
            "internally_complete",
            "ext_empty_implies_int_full",
            "obstruction_consistency",
        } <= set(by_name(checks))

    def test_complete_set_fixture_is_consistent(self):
        checks = by_name(verify_all(ten_vertex_with_complete_a()))
        assert checks["obstruction_consistency"].passed
        assert "complete_set_exists" in checks["obstruction_consistency"].detail

    def test_two_internally_complete_fixture(self):
        checks = by_name(verify_all(hub_five()))
        assert all(c.passed for c in checks.values())
        assert "two_internally_complete" in checks["obstruction_consistency"].detail

    def test_seeded_random_graph_coverage(self):
        g = random_graph(12, 0.3, seed=42)
        checks = by_name(verify_all(g))
        assert checks["coverage"].passed
        assert checks["locate_generator"].passed

    def test_oracle_bound_skips_exhaustive_passes(self):
        checks = by_name(verify_all(random_graph(9, 0.4, seed=1), oracle_bound=5))
        assert "skipped" in checks["coverage"].detail
        assert checks["externally_complete_unique"].passed

    def test_oracle_bound_above_limit_rejected(self):
        g = dense_five_partition()  # small: the bound alone is refused
        with pytest.raises(ValueError, match="exceeds the limit"):
            verify_all(g, oracle_bound=MAX_ORACLE_BOUND + 1)
        assert all(c.passed for c in verify_all(g, oracle_bound=MAX_ORACLE_BOUND))


class TestVerifyAllCore:
    def test_builds_one_cover(self, monkeypatch):
        calls = []

        def counted(G):
            calls.append(G.n)
            return misact.activities.cover(G)

        for mod in (misact.cli, misact.complete, misact.verify):
            monkeypatch.setattr(mod, "cover", counted)
        assert all(c.passed for c in verify_all(hub_five()))
        assert calls == [5]

    def test_locate_reporting_another_generator_fails(self, monkeypatch):
        g = dense_five_partition()
        entries = cover(g).entries
        # entries with and without a lower endpoint, so each side of the check is exercised
        assert any(e.lower_mask for e in entries) and not all(e.lower_mask for e in entries)
        for entry in entries:
            # every subset located to this generator: B_v is full exactly for its members
            monkeypatch.setattr(
                misact.verify, "_locate_planes",
                lambda G, planes, full: [0] + [full if entry.mis_mask >> (v - 1) & 1 else 0
                                               for v in G.vertices])
            # the first subset, in mask order, outside that generator's interval
            bad = next(x for x in range(1 << g.n)
                       if entry.lower_mask & ~x or x & ~entry.upper_mask)
            check = by_name(verify_all(g))["locate_generator"]
            assert not check.passed
            assert check.detail == f"fails for {sorted(set_of(bad))}"

    def test_locate_reporting_a_generator_and_a_neighbour_fails(self, monkeypatch):
        # B(x) holds A for every x, so only the conflict plane tells B(x) from A
        g = dense_five_partition()
        entries = cover(g).entries
        assert any(not e.lower_mask for e in entries)  # there [] lies in A's interval
        for entry in entries:
            for u in _bits(g.full_mask & ~entry.mis_mask):  # each adjacent to a member
                located = entry.mis_mask | 1 << (u - 1)
                monkeypatch.setattr(
                    misact.verify, "_locate_planes",
                    lambda G, planes, full: [0] + [full if located >> (v - 1) & 1 else 0
                                                   for v in G.vertices])
                # no entry has the located generator, so the first subset fails
                check = by_name(verify_all(g))["locate_generator"]
                assert not check.passed
                assert check.detail == "fails for []"

    @pytest.mark.parametrize("kind", ["non-independent", "non-maximal"])
    def test_locate_reporting_a_broken_generator_of_the_cover(self, monkeypatch, kind):
        # the entry with that generator holds exactly the subsets of its interval
        g = dense_five_partition()
        c = cover(g)
        held_empty = False
        for i, e in enumerate(c.entries):
            outside = g.full_mask & ~e.mis_mask
            if kind == "non-independent":
                m = e.mis_mask | outside & -outside
            else:
                m = e.mis_mask & (e.mis_mask - 1)
            broken = ActivityReport(m, m & ~e.lower_mask, e.ext_mask)  # lower end kept in m
            C = Cover(c.n, c.entries[:i] + (broken,) + c.entries[i + 1:])
            monkeypatch.setattr(misact.verify, "_locate_planes",
                                lambda G, planes, full: [0] + [full if m >> (v - 1) & 1 else 0
                                                               for v in G.vertices])
            bad = next(x for x in range(1 << g.n)
                       if broken.lower_mask & ~x or x & ~broken.upper_mask)
            held_empty |= bad > 0
            assert _first_bad_locate(g, C) == bad
        assert held_empty

    @pytest.mark.parametrize("dropped", range(4))
    def test_cover_missing_an_entry_raises(self, monkeypatch, dropped):
        g = dense_five_partition()  # a partition: each interval holds subsets no other does

        def short(G):
            c = misact.activities.cover(G)
            return Cover(c.n, c.entries[:dropped] + c.entries[dropped + 1:])

        monkeypatch.setattr(misact.verify, "cover", short)
        with pytest.raises(RuntimeError, match=r"^cover misses \d+ subsets; coverage violated$"):
            verify_all(g)

    @staticmethod
    def _claim_partition(monkeypatch):
        def claimed(C, **kwargs):
            v = misact.activities.partition_verdict(C, **kwargs)
            return dataclasses.replace(v, is_partition=True)

        monkeypatch.setattr(misact.verify, "partition_verdict", claimed)

    def test_obstruction_on_a_partition_verdict_raises(self, monkeypatch):
        self._claim_partition(monkeypatch)
        with pytest.raises(RuntimeError, match="^obstruction found but cover is a partition$"):
            verify_all(ten_vertex_with_complete_a())

    def test_obstruction_on_a_partition_verdict_exits_three(self, monkeypatch, tmp_path, capsys):
        self._claim_partition(monkeypatch)
        path = tmp_path / "g.txt"
        path.write_text(emit_edge_list(ten_vertex_with_complete_a()))
        assert misact.cli.run(["verify", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: obstruction found but cover is a partition\n"

    def test_locate_reporting_a_non_generator_fails(self, monkeypatch):
        # the empty set is independent but not maximal, so no cover entry has it
        monkeypatch.setattr(misact.verify, "_locate_planes",
                            lambda G, planes, full: [0] * (G.n + 1))
        check = by_name(verify_all(hub_five()))["locate_generator"]
        assert not check.passed
        assert check.detail == "fails for []"


class TestVerifyFamily:
    def test_each_family(self):
        assert all(c.passed for c in verify_family("kn", 7))
        assert all(c.passed for c in verify_family("join", 3, 4))
        assert all(c.passed for c in verify_family("lex", 6, 9))
        assert all(c.passed for c in verify_family("colex", 6, 7))
        assert all(c.passed for c in verify_family("pendant", 3, sizes=(1, 0, 1)))

    def test_family_check_names(self):
        names = {c.name for c in verify_family("lex", 5, 6)}
        assert names == {"predicted_cover", "partition", "neighborhood_formula"}
