"""The greedy of locate_generator on bit planes, and verify's location check built on it."""

import random
import tracemalloc

import pytest

import misact.activities
import misact.verify
from misact import Cover, Graph, cover, random_graph, verify_all
from misact.activities import ActivityReport, _locate_generator_mask
from misact.graph import _bits, set_of
from misact.verify import _first_bad_locate

from reference import first_bad_locate, locate_mask
from sample_graphs import all_named_graphs, dense_five_partition, hub_five

SEED = 20261018


def by_name(checks):
    return {c.name: c for c in checks}


def seeded_graphs(count, max_n):
    rng = random.Random(SEED)
    return [random_graph(i % (max_n + 1), rng.uniform(0.1, 0.7), rng=rng) for i in range(count)]


def test_index_planes_have_one_home():
    """The location check's cached lattice planes live in verify, their one caller;
    bit x of plane i is bit i of x."""
    assert not hasattr(misact.activities, "_index_planes")
    for width in range(7):
        planes = misact.verify._index_planes(width)
        assert [[p >> x & 1 for x in range(1 << width)] for p in planes] == [
            [x >> i & 1 for x in range(1 << width)] for i in range(width)]


class TestOneBitPlanes:
    @pytest.mark.parametrize(
        "g", [g for g in all_named_graphs() if g.n <= 8] + seeded_graphs(60, 8)
    )
    def test_matches_the_loop_on_every_subset(self, g):
        for x in range(1 << g.n):
            assert _locate_generator_mask(g, x) == locate_mask(g, x)

    def test_matches_the_loop_across_words(self):
        """Masks packed through one binary string: graphs across the byte and
        word boundaries, Graph(0) and edgeless graphs, some subsets each."""
        rng = random.Random(SEED)
        graphs = [Graph(0), Graph(1), Graph(64), Graph(200), Graph(70, [(3, 69)])]
        graphs += [random_graph(n, rng.uniform(0.02, 0.3), rng=rng)
                   for n in (7, 8, 9, 63, 64, 65, 130) for _ in range(3)]
        for g in graphs:
            for x in {0, g.full_mask, *(rng.getrandbits(g.n) for _ in range(8))}:
                assert _locate_generator_mask(g, x) == locate_mask(g, x)


@pytest.fixture(scope="module")
def lattice_cases():
    """(graph, cover or None, reference first bad subset) for each graph's own
    cover (None: verify_all computes it) and for its cover less one entry,
    whose subsets then fail the location check."""
    out = []
    for i, g in enumerate(all_named_graphs() + seeded_graphs(300, 14)):
        c = cover(g)
        j = i % len(c.entries)
        short = Cover(c.n, c.entries[:j] + c.entries[j + 1:])
        out += [(g, None, first_bad_locate(g, c)), (g, short, first_bad_locate(g, short))]
    return out


@pytest.mark.parametrize("chunk_bits", [None, 3])
def test_first_bad_matches_the_reference(monkeypatch, lattice_cases, chunk_bits):
    if chunk_bits is not None:  # several chunks, and constant planes above the low bits
        monkeypatch.setattr(misact.verify, "_CHUNK_BITS", chunk_bits)
    for g, C, expected in lattice_cases:
        if C is None:
            check = by_name(verify_all(g))["locate_generator"]
            assert expected is None and check.passed
        else:
            assert _first_bad_locate(g, C) == expected


def test_a_repeated_generator_holds_x_through_any_copy():
    """An entry appended with the first entry's generator and the one-set
    interval [A; A] leaves every subset held: the first copy still holds
    them.  The reference once kept only the last copy of a generator and
    flagged x = 3 here."""
    g = dense_five_partition()
    c = cover(g)
    first = c.entries[0].mis_mask
    doubled = Cover(c.n, c.entries + (ActivityReport(first, 0, 0),))
    assert first_bad_locate(g, doubled) is None
    assert _first_bad_locate(g, doubled) is None
    # with only the short copy, the first subset it misses is flagged by both
    alone = Cover(c.n, c.entries[1:] + (ActivityReport(first, 0, 0),))
    assert first_bad_locate(g, alone) == _first_bad_locate(g, alone) == 3


def broken_covers(g, c, i):
    """(kind, cover): the cover c of g with entry i dropped, duplicated, its
    generator made non-independent (a non-member added: each is adjacent to
    a member) and made non-maximal (a member removed), where g allows."""
    e = c.entries[i]

    def replaced(m):
        return Cover(c.n, c.entries[:i] + (ActivityReport(m, e.int_mask & m, e.ext_mask),)
                     + c.entries[i + 1:])

    yield "dropped", Cover(c.n, c.entries[:i] + c.entries[i + 1:])
    yield "duplicated", Cover(c.n, c.entries[:i + 1] + c.entries[i:])
    if outside := g.full_mask & ~e.mis_mask:
        yield "non-independent", replaced(e.mis_mask | outside & -outside)
    if e.mis_mask:
        yield "non-maximal", replaced(e.mis_mask & (e.mis_mask - 1))


@pytest.mark.parametrize("chunk_bits", [None, 3])
def test_broken_covers_match_the_reference(monkeypatch, chunk_bits):
    if chunk_bits is not None:
        monkeypatch.setattr(misact.verify, "_CHUNK_BITS", chunk_bits)
    kinds = {}
    for i, g in enumerate(all_named_graphs() + seeded_graphs(80, 12)):
        c = cover(g)
        for kind, broken in broken_covers(g, c, i % len(c.entries)):
            kinds[kind] = kinds.get(kind, 0) + 1
            assert _first_bad_locate(g, broken) == first_bad_locate(g, broken)
    assert len(kinds) == 4 and min(kinds.values()) > 40


def narrowed_covers(c, i):
    """(kind, cover): the cover c with entry i's highest internally active
    member moved into its lower end, and with its highest externally active
    vertex dropped from its upper end, where the entry has one."""
    e = c.entries[i]

    def replaced(int_mask, ext_mask):
        return Cover(c.n, c.entries[:i] + (ActivityReport(e.mis_mask, int_mask, ext_mask),)
                     + c.entries[i + 1:])

    def top(m):
        return 1 << m.bit_length() - 1

    if e.int_mask:
        yield "lower end raised", replaced(e.int_mask ^ top(e.int_mask), e.ext_mask)
    if e.ext_mask:
        yield "upper end lowered", replaced(e.int_mask, e.ext_mask ^ top(e.ext_mask))


def test_covers_narrowed_above_the_window_match_the_reference(monkeypatch):
    """With 3-bit chunks the highest active vertices mostly lie above the
    window, where one scalar test per chunk and entry reads lo and hi."""
    monkeypatch.setattr(misact.verify, "_CHUNK_BITS", 3)
    kinds = {}
    for i, g in enumerate(all_named_graphs() + seeded_graphs(80, 12)):
        c = cover(g)
        for kind, narrowed in narrowed_covers(c, i % len(c.entries)):
            kinds[kind] = kinds.get(kind, 0) + 1
            assert _first_bad_locate(g, narrowed) == first_bad_locate(g, narrowed)
    assert len(kinds) == 2 and min(kinds.values()) > 40


def ascending_twice(G, planes, full):
    """_locate_planes with its second pass run ascending, as the first."""
    b = [0] * (G.n + 1)
    for v in G.vertices:
        block = 0
        for u in _bits(G.adj_mask[v] & ((1 << (v - 1)) - 1)):
            block |= b[u]
        b[v] = planes[v] & ~block
    for v in G.vertices:
        block = planes[v]
        for u in _bits(G.adj_mask[v]):
            block |= b[u]
        b[v] |= full & ~block
    return b


class TestMutations:
    @pytest.mark.parametrize("g", all_named_graphs(), ids=lambda g: f"n{g.n}")
    def test_second_pass_ascending_is_flagged(self, monkeypatch, g):
        monkeypatch.setattr(misact.verify, "_locate_planes", ascending_twice)
        assert not by_name(verify_all(g))["locate_generator"].passed

    @pytest.mark.parametrize("dropped", range(1, 6))
    def test_dropped_plane_is_flagged(self, monkeypatch, dropped):
        def without_plane(G, planes, full):
            b = misact.activities._locate_planes(G, planes, full)
            b[dropped] = 0
            return b

        monkeypatch.setattr(misact.verify, "_locate_planes", without_plane)
        # every vertex lies in some maximal independent set, which locates itself
        assert not by_name(verify_all(hub_five()))["locate_generator"].passed

    def test_cube_off_by_one_bit_is_flagged(self, monkeypatch):
        g = dense_five_partition()  # a partition: each subset's interval is the located one
        masks = misact.activities._interval_masks(cover(g))
        for i, (lo, hi) in enumerate(masks):
            for v in _bits(hi & ~lo):
                bit = 1 << (v - 1)
                for cube in ((lo | bit, hi), (lo, hi & ~bit)):
                    shifted = masks[:i] + [cube] + masks[i + 1:]
                    monkeypatch.setattr(misact.verify, "_interval_masks", lambda C: shifted)
                    # the first subset, in mask order, the shrunken cube lost
                    bad = next(x for x in range(1 << g.n)
                               if not (lo & ~x or x & ~hi) and (cube[0] & ~x or x & ~cube[1]))
                    check = by_name(verify_all(g))["locate_generator"]
                    assert not check.passed
                    assert check.detail == f"fails for {sorted(set_of(bad))}"


def test_peak_memory_stays_flat():
    # unchunked, each of the ~60 planes over 2^20 subsets would take 128 KB
    g = random_graph(20, 0.3, seed=7)
    tracemalloc.start()
    try:
        checks = verify_all(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert by_name(checks)["locate_generator"].passed
    assert peak < 1 << 20
