"""Masks of up to 64 bits as machine words, each word path against the byte path it replaced.

The references in tests/reference.py lay every mask out by int.to_bytes: the
transpose (_columns), the cover report's entries and the verdict's pair
index, which a cover built on the bit-plane kernel now reads from the
kernel's planes.  The canonical sort keys by bytes at every n; it is
checked here across the word boundary against a sort by member lists.
"""

import dataclasses
import random

import pytest

import misact.activities
from misact import Cover, Graph, cover, partition_verdict, random_graph
from misact.activities import (
    _INDEX_MIN,
    _columns,
    _interval_masks,
    _overlapping_pairs,
    _pair_index,
)
from misact.graph import _WORD_BITS, _canonical_order, _mask_bytes, _mis_by_pivot, _words
from misact.io import _entries_text

from reference import columns_bytes, entries_text_bytes, pair_index_bytes

SEED = 20261019
# Row counts and widths on both sides of a byte and of a word.
SIZES = (0, 1, 7, 8, 63, 64, 65, 130)


def test_words_are_the_bytes_int_to_bytes_writes():
    assert _WORD_BITS == 64  # the word paths run on this platform
    rng = random.Random(SEED)
    masks = [0, 1, 1 << 63, (1 << 64) - 1] + [rng.getrandbits(64) for _ in range(20)]
    for width in (1, 8, 63, 64):
        fitting = [m & ((1 << width) - 1) for m in masks]
        data, step = _mask_bytes(fitting, width)
        assert step == 8 and data == b"".join(m.to_bytes(8, "little") for m in fitting)
        assert _words(data) == fitting
    for width in (65, 130):
        wide = [0, (1 << width) - 1] + [rng.getrandbits(width) for _ in range(5)]
        size = (width + 7) // 8
        assert _mask_bytes(iter(wide), width) == (
            b"".join(m.to_bytes(size, "little") for m in wide), size)


def seeded_rows(rng, count, width):
    """count random rows of width bits, the first all ones and the last the top bit alone."""
    rows = [rng.getrandbits(width) if width else 0 for _ in range(count)]
    if count and width:
        rows[0], rows[-1] = (1 << width) - 1, 1 << (width - 1)
    return rows


@pytest.mark.parametrize("width", SIZES)
@pytest.mark.parametrize("count", SIZES)
def test_columns_match_the_byte_planes(count, width):
    rng = random.Random(f"{SEED}/{count}/{width}")
    for rows in (seeded_rows(rng, count, width), seeded_rows(rng, count, width), [0] * count):
        columns = _columns(rows, width)
        assert columns == columns_bytes(rows, width)
        assert _columns(columns, count) == rows  # the transpose of the transpose


def antichains(rng, n):
    """Seeded antichains on n vertices: sets of one size, and the maximal
    independent sets of a random graph while they stay few."""
    for _ in range(4):
        size = rng.randint(1, n)
        yield list({sum(1 << v for v in rng.sample(range(n), size)) for _ in range(60)})
    g = random_graph(n, 0.6 if n > 24 else 0.4, rng=rng)
    yield list(_mis_by_pivot(g))


@pytest.mark.parametrize("n", range(1, 67))
def test_canonical_order_matches_the_byte_key(n):
    rng = random.Random(f"{SEED}/{n}")
    for masks in antichains(rng, n):
        rng.shuffle(masks)
        assert _canonical_order(iter(masks), n) == sorted(
            masks, key=lambda m: [v for v in range(n) if m >> v & 1])


COLUMNS = ("mis", "int", "ext", "lower", "upper", "f_lower")


@pytest.mark.parametrize("n", range(56, 73))
def test_entries_text_matches_the_byte_path(n):
    rng = random.Random(f"{SEED}/{n}")
    for k in (1, 2, 9):
        columns = {}
        for name in COLUMNS:  # random masks, with empty lists, the lowest and the top vertex
            col = [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(k)]
            col[rng.randrange(k)] = rng.choice((0, 1, 1 << (n - 1), (1 << n) - 1))
            columns[name] = col
        for names in (COLUMNS[:5], COLUMNS):
            chosen = {name: columns[name] for name in names}
            assert _entries_text(n, chosen) == entries_text_bytes(n, chosen)


def kernel_covers():
    """Seeded covers from the bit-plane kernel, k >= _INDEX_MIN: six disjoint
    edges (2^6 = 64 sets, a partition), then 15 of G(n, p)."""
    out = [cover(Graph(12, [(2 * i + 1, 2 * i + 2) for i in range(6)]))]
    rng = random.Random(SEED)
    while len(out) < 16:
        c = cover(random_graph(rng.randint(12, 26), rng.uniform(0.15, 0.5), rng=rng))
        if len(c.entries) >= _INDEX_MIN:
            out.append(c)
    return out


@pytest.fixture(scope="module")
def covers():
    out = kernel_covers()
    assert min(len(c.entries) for c in out) == _INDEX_MIN
    verdicts = {partition_verdict(c, oracle_bound=0).is_partition for c in out}
    assert verdicts == {True, False}
    return out


def test_planes_are_the_transposed_interval_ends(covers):
    for c in covers:
        lowers, uppers = c._planes
        masks = _interval_masks(c)
        assert lowers == columns_bytes([lo for lo, _ in masks], c.n)
        assert uppers == columns_bytes([hi for _, hi in masks], c.n)


def test_index_from_planes_is_the_pair_index(covers, monkeypatch):
    for c in covers:
        masks = _interval_masks(c)
        index = _pair_index(masks, c._planes)
        assert index == _pair_index(masks) == pair_index_bytes(masks)
    planes = []

    def spy(masks, given=None):
        planes.append(given)
        return _pair_index(masks, given)

    monkeypatch.setattr(misact.activities, "_pair_index", spy)
    for c in covers:  # k >= _INDEX_MIN: the walk's one index, on the cover's planes
        planes.clear()
        partition_verdict(c)
        assert len(planes) == 1 and planes[0] is c._planes


def test_verdict_is_the_same_without_planes(covers):
    for c in covers:
        bare = Cover(c.n, c.entries)
        assert bare._planes is None and bare == c and repr(bare) == repr(c)
        masks = _interval_masks(c)
        assert list(_overlapping_pairs(masks, c._planes)) == list(_overlapping_pairs(masks))
        for bound in (0, 25):
            assert partition_verdict(c, bound) == partition_verdict(bare, bound)


def test_planes_are_kept_only_by_the_kernel(covers):
    c = covers[0]
    assert dataclasses.replace(c, entries=c.entries[1:])._planes is None
    for small in map(cover, (Graph(0), Graph(3), Graph(6, [(1, 2), (3, 4), (5, 6)]))):
        assert len(small.entries) < _INDEX_MIN  # below the pair index, on the kernel all the same
        lowers, uppers = small._planes
        masks = _interval_masks(small)
        assert lowers == columns_bytes([lo for lo, _ in masks], small.n)
        assert uppers == columns_bytes([hi for _, hi in masks], small.n)
