"""Labelling search: the relabelling of a graph whose cover repeats the fewest subsets.

The paper asks which labellings make the activity intervals partition the
subset lattice; search_labelling asks it of one graph.  _MODES maps each
mode to its source of candidate permutations, called as source(n, budget,
seed), and to whether its walk stops at the first partition.  A source is a
plain function, not a generator, so that it checks the mode's arguments
before any enumeration.  One loop ranks every mode's trials.  The kernels it
runs stay in activities: _member_tables, _orientation, _trial_masks and
_repeats.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import permutations
from typing import Iterable, Iterator

from .activities import (
    DEFAULT_ORACLE_BOUND,
    PartitionVerdict,
    _member_tables,
    _orientation,
    _repeats,
    _trial_masks,
    cover,
    partition_verdict,
)
from .graph import Graph, _mis_by_pivot, _relabelled

__all__ = ["LabellingSearchResult", "search_labelling"]

# Exhaustive labelling search walks at most this many vertices' n! permutations.
FACTORIAL_BOUND = 9
# A labelling search keeps the repeat counts of at most this many distinct
# edge orientations, up to about 1 KB each (n = 24); later ones are counted anew.
_ORIENTATIONS_KEPT = 4096


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
    """The identity, then `count - 1` seeded shuffles of 1..n."""
    yield tuple(range(1, n + 1))
    for _ in range(count - 1):
        p = list(range(1, n + 1))
        rng.shuffle(p)
        yield tuple(p)


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
    are enumerated once, and the label-free part of their activities, each
    member's neighbours and private neighbours, is tabled once per search
    (_member_tables).  Each trial reads its labels only through the
    permutation's orientation (_orientation, _trial_masks) and runs every
    check of the verdict on the original masks (_repeats): the repeat count
    does not depend on vertex names or entry order.  Its lattice-plane count
    takes each cube's plane from a cache of split products (_cube_plane),
    since most cubes recur from trial to trial.  Permutations with one
    orientation have one count, so the search keeps the counts of the first
    _ORIENTATIONS_KEPT distinct orientations, keyed by the orientation, and
    a trial that meets a kept one takes its count.  Only the winning
    labelling is given its witness: its cover comes from cover() on the
    relabelled graph.
    """
    if budget is not None and budget <= 0:
        raise ValueError("budget must be positive")
    if mode not in _MODES:
        raise ValueError(f"mode must be {' or '.join(map(repr, _MODES))}")
    if budget is not None and seed is None:
        seed = 0  # only random mode takes a budget; its shuffles default to seed 0
    source, stops_at_partition = _MODES[mode]
    candidates = source(G.n, budget, seed)

    gens = list(_mis_by_pivot(G))
    tables = _member_tables(G, gens)
    counts: dict[tuple[int, ...], int] = {}  # repeat count by orientation (up), bounded
    best: tuple[int, tuple[int, ...]] | None = None  # (count, perm)
    for trials, perm in enumerate(candidates, 1):
        up = _orientation(G, perm)
        count = counts.get(key := tuple(up))
        if count is None:
            count = _repeats(G.n, _trial_masks(tables, up), DEFAULT_ORACLE_BOUND)[0]
            if len(counts) < _ORIENTATIONS_KEPT:
                counts[key] = count
        if best is None or (count, perm) < best:
            best = (count, perm)
        if stops_at_partition and best[0] == 0:
            break

    assert best is not None
    best_perm = best[1]
    verdict = partition_verdict(cover(_relabelled(G, [0, *(1 << (p - 1) for p in best_perm)])))
    return LabellingSearchResult(best_perm, verdict, verdict.is_partition, mode, trials, seed)
