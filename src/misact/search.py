"""Labelling search: the relabelling of a graph whose cover repeats the fewest subsets.

The paper asks which labellings make the activity intervals partition the
subset lattice; search_labelling asks it of one graph.  _MODES maps each
mode to its source of candidate permutations, called as source(n, budget,
seed), and to whether its walk stops at the first partition.  A source is a
plain function, not a generator, so that it checks the mode's arguments
before any enumeration.  One loop ranks every mode's trials, which _trials
counts in batches.  The kernels it runs stay in activities: _trial_batch,
which runs the activity kernel, and _repeats.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice, permutations
from typing import Iterable, Iterator

from .activities import (
    DEFAULT_ORACLE_BOUND,
    PartitionVerdict,
    _repeats,
    _trial_batch,
    cover,
    partition_verdict,
)
from .graph import Graph, _mis_by_pivot, _relabelled

__all__ = ["LabellingSearchResult", "search_labelling"]

# Exhaustive labelling search walks at most this many vertices' n! permutations.
FACTORIAL_BOUND = 9
# A labelling search keeps the repeat counts of at most this many distinct edge
# orientations, each keyed by one int of a bit per edge (84 B with its dict entry
# at n = 24, m = 139); later ones are counted anew.
_ORIENTATIONS_KEPT = 4096
# The search takes its labellings in batches of at most _BATCH, and fewer when the
# sets are many: a batch's kernel runs on at most _BATCH_COLUMNS (set, labelling) columns.
_BATCH, _BATCH_COLUMNS = 256, 1 << 16


@dataclass(frozen=True)
class LabellingSearchResult:
    permutation: tuple[int, ...]  # vertex i is renamed permutation[i-1]
    verdict: PartitionVerdict
    found_partition: bool
    mode: str
    trials: int
    seed: int | None


def _check_exact(n: int) -> None:
    if n > DEFAULT_ORACLE_BOUND:
        raise ValueError("labelling search needs exact repeat counts; graph too large")


def _exhaustive(n: int, budget: int | None, seed: int | None) -> Iterable[tuple[int, ...]]:
    """All n! permutations of 1..n, in lexicographic order."""
    if budget is not None or seed is not None:
        raise ValueError("budget and seed apply to random mode only")
    _check_exact(n)
    if n > FACTORIAL_BOUND:
        raise ValueError(
            f"exhaustive search over {n}! labellings refused; bound is {FACTORIAL_BOUND}!"
        )
    return permutations(range(1, n + 1))


def _random(n: int, budget: int | None, seed: int | None) -> Iterable[tuple[int, ...]]:
    """The identity, then `budget - 1` shuffles seeded by `seed`."""
    _check_exact(n)
    if budget is None:
        raise ValueError("random mode needs a trial budget")
    return _shuffles(n, budget, random.Random(seed))


def _shuffles(n: int, count: int, rng: random.Random) -> Iterator[tuple[int, ...]]:
    """The identity, then `count - 1` seeded shuffles of 1..n.

    The swaps are drawn from rng.getrandbits inline, as random.shuffle draws
    them through random.Random._randbelow, so the permutations and the
    generator's state after them are those of random.shuffle.
    """
    identity = list(range(1, n + 1))
    yield tuple(identity)
    getrandbits = rng.getrandbits
    swaps = [(i, i + 1, (i + 1).bit_length()) for i in reversed(range(1, n))]
    for _ in range(count - 1):
        p = identity[:]
        for i, below, bits in swaps:
            j = getrandbits(bits)
            while j >= below:
                j = getrandbits(bits)
            p[i], p[j] = p[j], p[i]
        yield tuple(p)


def _trials(
    G: Graph, candidates: Iterable[tuple[int, ...]]
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(repeat count, permutation) of each candidate in turn, counted in batches (_trial_batch)."""
    gens = list(_mis_by_pivot(G))
    size = max(1, min(_BATCH, _BATCH_COLUMNS // len(gens)))
    counts: dict[int, int] = {}  # repeat count by orientation key, bounded
    candidates = iter(candidates)
    while batch := list(islice(candidates, size)):
        keys, ends = _trial_batch(G, gens, batch)
        for t, (perm, key) in enumerate(zip(batch, keys)):
            count = counts.get(key)
            if count is None:
                count = _repeats(G.n, ends(t), DEFAULT_ORACLE_BOUND)[0]
                if len(counts) < _ORIENTATIONS_KEPT:
                    counts[key] = count
            yield count, perm


_MODES = {"exhaustive": (_exhaustive, True), "random": (_random, False)}


def search_labelling(
    G: Graph,
    budget: int | None = None,
    mode: str = "exhaustive",
    seed: int | None = None,
) -> LabellingSearchResult:
    """Search vertex relabellings for one minimizing the repeated-subset count.

    Trials are ranked by (repeated-subset count, permutation), so a tie goes
    to the lexicographically smallest permutation.  Exhaustive mode walks all
    n! permutations in lexicographic order (bounded by FACTORIAL_BOUND) and
    stops early once a partition shows up.  Random mode tries the identity
    and then `budget - 1` seeded shuffles; the seed is recorded in the result
    so runs can be reproduced.  Only random mode takes `budget` and `seed`.

    A relabelling maps the maximal independent sets onto themselves, so they
    are enumerated once per search.  Each trial reads its labels only through
    the permutation's orientation and runs every check of the verdict on the
    original masks (_repeats): the repeat count does not depend on vertex
    names or entry order.  The trials come in batches of up to _BATCH, fewer
    when a batch would pass _BATCH_COLUMNS (set, labelling) columns, whose
    orientations and interval ends the bit-sliced activity kernel gives
    (_trial_batch); the ends are built only for a batch where some
    orientation is not kept.  Its lattice-plane count
    takes each cube's plane from a cache of split products (_cube_plane),
    since most cubes recur from trial to trial.  Permutations with one
    orientation have one count, so the search keeps the counts of the first
    _ORIENTATIONS_KEPT distinct orientations, keyed by the orientation as
    one int with a bit per edge, and a trial that meets a kept one takes its
    count.  Only the winning labelling is given its witness: its cover comes
    from cover() on the relabelled graph.
    """
    if budget is not None and budget <= 0:
        raise ValueError("budget must be positive")
    if mode not in _MODES:
        raise ValueError(f"mode must be {' or '.join(map(repr, _MODES))}")
    if budget is not None and seed is None:
        seed = 0  # only random mode takes a budget; its shuffles default to seed 0
    source, stops_at_partition = _MODES[mode]
    candidates = source(G.n, budget, seed)

    best: tuple[int, tuple[int, ...]] | None = None  # (count, perm)
    for trials, trial in enumerate(_trials(G, candidates), 1):
        if best is None or trial < best:
            best = trial
        if stops_at_partition and best[0] == 0:
            break

    assert best is not None
    best_perm = best[1]
    verdict = partition_verdict(cover(_relabelled(G, [0, *(1 << (p - 1) for p in best_perm)])))
    return LabellingSearchResult(best_perm, verdict, verdict.is_partition, mode, trials, seed)
