"""Reference computations and output checks for the benchmark.

Everything here is computed from the benchmark's own adjacency masks and
from the definitions, not by calling misact: maximal independent sets by
branching on the lowest undominated vertex, activities straight from
their definitions.  Each `check_*` function returns a list of problems;
an empty list means the output is correct.
"""

from __future__ import annotations

import json
from itertools import groupby


def bits(m: int):
    while m:
        b = m & -m
        yield b.bit_length()
        m ^= b


def mask(labels) -> int:
    m = 0
    for v in labels:
        m |= 1 << (v - 1)
    return m


def mis_masks(adj: list[int]) -> list[int]:
    """All maximal independent sets, in misact's order (by sorted member list).

    Every maximal independent set meets the closed neighbourhood of each
    vertex it does not yet dominate.  Branching on the members of that
    neighbourhood, and banning each one in the branches that follow it,
    reaches every maximal independent set exactly once.
    """
    n = len(adj) - 1
    full = (1 << n) - 1
    closed = [0] + [adj[v] | 1 << (v - 1) for v in range(1, n + 1)]
    out: list[int] = []

    def grow(s: int, dominated: int, banned: int) -> None:
        free = full & ~dominated
        if not free:
            out.append(s)
            return
        cand = closed[(free & -free).bit_length()] & ~dominated & ~banned
        while cand:
            b = cand & -cand
            grow(s | b, dominated | closed[b.bit_length()], banned)
            banned |= b
            cand ^= b

    grow(0, 0, 0)
    return sorted(out, key=lambda m: list(bits(m)))


def activities(adj: list[int], m: int) -> tuple[int, int]:
    """(Int, Ext) of the maximal independent set m, from the definitions.

    Ext: vertices outside m adjacent to a smaller member of m.  Int:
    members v of m with no larger neighbour u that could replace v, that
    is, no u > v adjacent to v and to nothing else in m.
    """
    ext = 0
    for a in bits(m):
        ext |= adj[a] >> a << a
    int_ = 0
    for v in bits(m):
        rest = m & ~(1 << (v - 1))
        if all(adj[u] & rest for u in bits(adj[v] >> v << v)):
            int_ |= 1 << (v - 1)
    return int_, ext & ~m


class Reference:
    """The benchmark's own cover of one graph: generators, Int, Ext, verdict."""

    def __init__(self, adj: list[int]) -> None:
        self.adj = adj
        self.n = len(adj) - 1
        self.mis = mis_masks(adj)
        self.acts = [activities(adj, m) for m in self.mis]
        self.size_sum = sum(1 << (i.bit_count() + e.bit_count()) for i, e in self.acts)
        self.is_partition = self.size_sum == 1 << self.n

    def props(self) -> dict:
        """Input properties: n, m, k, is_partition, and the excess
        multiplicity (summed interval sizes over 2^n, the cost of a full
        per-subset scan relative to the lattice)."""
        m = sum(a.bit_count() for a in self.adj) // 2
        return {"n": self.n, "m": m, "k": len(self.mis), "is_partition": self.is_partition,
                "excess": self.size_sum / (1 << self.n)}

    def histogram_repeats(self) -> tuple[int, int | None]:
        """(repeated-subset count, smallest repeated subset); exhaustive, small n only."""
        counts = bytearray(1 << self.n)
        for m, (i, e) in zip(self.mis, self.acts):
            lo, free = m & ~i, i | e
            s = free
            while True:
                x = lo | s
                if counts[x] < 2:
                    counts[x] += 1
                if not s:
                    break
                s = (s - 1) & free
        first = counts.find(2)
        return counts.count(2), (first if first >= 0 else None)


def _within(ref: Reference, x: int, gen: int) -> bool:
    i, e = ref.acts[ref.mis.index(gen)]
    lo, hi = gen & ~i, gen | e
    return lo & ~x == 0 and x & ~hi == 0


def _check_verdict(ref: Reference, rep: dict, problems: list[str]) -> None:
    if rep["is_partition"] != ref.is_partition:
        problems.append(f"is_partition {rep['is_partition']} != {ref.is_partition}")
        return
    repeated, witness = rep["repeated_subsets"], rep["witness"]
    if ref.is_partition:
        if repeated != 0 or witness is not None:
            problems.append("partition reported with repeats or a witness")
        return
    if repeated is not None and repeated < 1:
        problems.append("non-partition reported without repeats")
    if ref.n <= 25 and repeated is None:
        problems.append("exact repeat count missing below the oracle bound")
    if witness is None:
        problems.append("non-partition reported without a witness")
        return
    x = mask(witness["subset"])
    a, b = (mask(g) for g in witness["generators"])
    if a == b or a not in ref.mis or b not in ref.mis:
        problems.append("witness generators are not two distinct maximal independent sets")
    elif not (_within(ref, x, a) and _within(ref, x, b)):
        problems.append("witness subset outside a generator's interval")


def _check_entries(ref: Reference, entries: list[dict], is_partition: bool,
                   problems: list[str]) -> None:
    adj, full = ref.adj, (1 << ref.n) - 1
    if [mask(e["mis"]) for e in entries] != ref.mis:
        problems.append(f"{len(entries)} generators, expected the {len(ref.mis)} "
                        "maximal independent sets in canonical order")
        return
    size_sum = 0
    for e, m, (i, x) in zip(entries, ref.mis, ref.acts):
        lo, hi = mask(e["lower"]), mask(e["upper"])
        closed = m
        for v in bits(m):
            if adj[v] & m:
                problems.append(f"mis {e['mis']} is not independent")
            closed |= adj[v]
        if closed != full:
            problems.append(f"mis {e['mis']} is not maximal")
        if lo & ~m or m & ~hi:
            problems.append(f"mis {e['mis']} not within [lower, upper]")
        if mask(e["int"]) != i or mask(e["ext"]) != x or lo != m & ~i or hi != m | x:
            problems.append(f"activities of {e['mis']} differ from the definitions")
        size_sum += 1 << (hi & ~lo).bit_count()
        if len(problems) > 5:
            return
    if size_sum < 1 << ref.n or (size_sum == 1 << ref.n) != is_partition:
        problems.append(f"interval sizes sum to {size_sum} against 2^{ref.n}")


def check_cover(ref: Reference, text: str) -> list[str]:
    rep, problems = json.loads(text), []
    if rep["n"] != ref.n:
        problems.append("wrong n")
    _check_entries(ref, rep["entries"], rep["is_partition"], problems)
    _check_verdict(ref, rep, problems)
    return problems


def check_partition_check(ref: Reference, text: str) -> list[str]:
    rep, problems = json.loads(text), []
    if rep["n"] != ref.n:
        problems.append("wrong n")
    _check_verdict(ref, rep, problems)
    return problems


def check_polynomial(ref: Reference, text: str) -> list[str]:
    rep = json.loads(text)
    keys = sorted((m.bit_count(), e.bit_count(), i.bit_count())
                  for m, (i, e) in zip(ref.mis, ref.acts))
    terms = [{"mis_size": s, "ext_size": e, "int_size": i, "count": len(list(g))}
             for (s, e, i), g in groupby(keys)]
    if rep != {"n": ref.n, "terms": terms, "mis_count": len(ref.mis)}:
        return ["activity polynomial differs from the reference"]
    return []


def _greedy(adj: list[int], order) -> int:
    s = 0
    for v in order:
        if not adj[v] & s:
            s |= 1 << (v - 1)
    return s


def check_complete_sets(ref: Reference, text: str) -> list[str]:
    rep = json.loads(text)
    ext_complete = _greedy(ref.adj, range(1, ref.n + 1))
    internals = [m for m, (i, _) in zip(ref.mis, ref.acts) if i == m]
    i_ext = ref.acts[ref.mis.index(ext_complete)][0]
    complete = ext_complete if i_ext == ext_complete else None
    obstructions = []
    if complete is not None and len(ref.mis) >= 2:
        obstructions.append({"kind": "complete_set_exists", "witnesses": [list(bits(complete))]})
    if len(internals) >= 2:
        obstructions.append({"kind": "two_internally_complete",
                             "witnesses": [list(bits(m)) for m in internals]})
    expected = {
        "n": ref.n,
        "externally_complete": list(bits(ext_complete)),
        "internally_complete": [list(bits(m)) for m in internals],
        "complete": list(bits(complete)) if complete is not None else None,
        "obstructions": obstructions,
        "is_partition": ref.is_partition,
    }
    return [] if rep == expected else ["complete sets differ from the reference"]


def check_pruned(ref: Reference, tree_adj: list[int], text: str) -> list[str]:
    rep, problems = json.loads(text), []
    tree_leaves = mask(v for v in range(2, ref.n + 1) if tree_adj[v].bit_count() == 1)
    host_leaves = [v for v in range(1, ref.n + 1) if ref.adj[v].bit_count() == 1]
    if (rep["root"], rep["leaf_mode"]) != (1, "tree"):
        problems.append("wrong root or leaf mode")
    if rep["tree_leaves"] != list(bits(tree_leaves)) or rep["host_leaves"] != host_leaves:
        problems.append("leaf sets differ from the reference")
    entries = rep["entries"]
    _check_entries(ref, entries, rep["is_partition"], problems)
    _check_verdict(ref, rep, problems)
    if problems:
        return problems
    f_lowers = [m & ~tree_leaves for m in ref.mis]
    if [mask(e["f_lower"]) for e in entries] != f_lowers:
        problems.append("f_lower is not the leaf-stripped generator")
    lower_matches = all(mask(e["lower"]) == f for e, f in zip(entries, f_lowers))
    int_leaves = all(i == m & tree_leaves for m, (i, _) in zip(ref.mis, ref.acts))
    if (rep["lower_matches_f"], rep["int_equals_tree_leaves"]) != (lower_matches, int_leaves):
        problems.append("leaf-rule flags differ from the reference")
    return problems


VERIFY_CHECKS = ["coverage", "locate_generator", "externally_complete_unique",
                 "internally_complete", "ext_empty_implies_int_full",
                 "obstruction_consistency"]


def check_verify(ref: Reference, text: str) -> list[str]:
    rep = json.loads(text)
    checks = [(c["name"], c["passed"]) for c in rep["checks"]]
    if checks != [(name, True) for name in VERIFY_CHECKS] or rep["all_passed"] is not True:
        return [f"verify reported {checks}, all_passed={rep['all_passed']}"]
    return []


def check_search(ref: Reference, budget: int, seed: int, text: str) -> list[str]:
    rep, problems = json.loads(text), []
    perm = rep["best_permutation"]
    if (rep["n"], rep["mode"], rep["seed"], rep["trials"]) != (ref.n, "random", seed, budget):
        problems.append("search header differs from the request")
    if sorted(perm) != list(range(1, ref.n + 1)):
        return problems + ["best_permutation is not a permutation"]
    new = [0] * (ref.n + 1)
    for u in range(1, ref.n + 1):
        new[perm[u - 1]] = mask(perm[v - 1] for v in bits(ref.adj[u]))
    best = Reference(new)
    repeated, first = best.histogram_repeats()
    identity_repeated, _ = ref.histogram_repeats()
    if rep["repeated_subsets"] != repeated or repeated > identity_repeated:
        problems.append(f"best labelling has {repeated} repeats, reported "
                        f"{rep['repeated_subsets']}; identity has {identity_repeated}")
    if rep["found_partition"] != (repeated == 0) or rep["is_partition"] != (repeated == 0):
        problems.append("partition flags disagree with the repeat count")
    if repeated and rep["witness"]["subset"] != list(bits(first)):
        problems.append("witness is not the smallest repeated subset")
    _check_verdict(best, rep, problems)
    return problems
