"""Reference implementations used as oracles.

Everything here works by brute force on plain Python sets, straight from the
definitions, and touches only Graph.n and Graph.neighbors.  None of the
package's bitmask machinery is reused, so agreement between the two is
meaningful.
The exceptions are subset_histogram, first_bad_locate and
cover_report_lists, which take a computed cover and read its masks: they
check what the library concludes from a cover (coverage, repeats, location)
or how it writes one, not the cover itself; and search_labelling_loop, which
runs the library's cover and verdict once per trial to check that the
labelling search, which enumerates once, picks the same labelling.  Some
keep the old form of a replaced fast path: activity_masks_loop, the (Int,
Ext) of one set in a pass over its non-members on the graph's masks, with
labels compared by rank_masks; partition_verdict_resumed, the
verdict whose pair scan resumes over every overlapping pair for the
witness; mis_by_pivot_stack, the pivot
search on the graph's masks with one stack entry per branch, leaves included;
edge_list_per_edge, the edge-list text one edge at a time; plane_counts_and,
the lattice-plane count with each cube's plane built by an AND loop over
index planes; shannon_counts_lists, the Shannon count with each branch's
cubes in a list, split by one filtering pass per half; columns_bytes, entries_text_bytes and pair_index_bytes,
which lay every mask out as int.to_bytes writes it, with no 64-bit machine
words; and the graph builders complete_graph_edges, join_edges,
kn_with_pendants_edges, induced_subgraph_edges and max_pruned_supergraph_edges,
which build each derived graph from an edge list.
"""

import random
from itertools import chain, combinations, permutations
from operator import and_, neg, not_, sub

from misact import Graph, cover, partition_verdict
from misact.activities import (
    PartitionVerdict,
    RepeatWitness,
    _cover_counts,
    _overlapping_pairs,
)
from misact.graph import set_of
from misact.io import _byte_lines, _list_starts, verdict_report
from misact.search import LabellingSearchResult


def subsets(n: int):
    verts = range(1, n + 1)
    for r in range(n + 1):
        for c in combinations(verts, r):
            yield frozenset(c)


def brute_independent(G: Graph, S) -> bool:
    return all(v not in G.neighbors(u) for u, v in combinations(sorted(S), 2))


def brute_dominating(G: Graph, S) -> bool:
    covered = set(S)
    for v in S:
        covered |= G.neighbors(v)
    return len(covered) == G.n


def brute_mis(G: Graph) -> list[frozenset[int]]:
    out = [
        S
        for S in subsets(G.n)
        if brute_independent(G, S) and brute_dominating(G, S)
    ]
    return sorted(out, key=sorted)


def brute_ext(G: Graph, A) -> frozenset[int]:
    A = frozenset(A)
    return frozenset(
        v for a in A for v in G.neighbors(a) if v > a and v not in A
    )


def brute_subs(G: Graph, A, v: int) -> frozenset[int]:
    rest = frozenset(A) - {v}
    return frozenset(
        u for u in G.neighbors(v) if brute_independent(G, rest | {u})
    )


def brute_int(G: Graph, A) -> frozenset[int]:
    out = set()
    for v in A:
        s = brute_subs(G, A, v)
        if not s or v > max(s):
            out.add(v)
    return frozenset(out)


def brute_intervals(G: Graph) -> list[tuple[frozenset, frozenset, frozenset]]:
    """(generator, lower, upper) triples for every maximal independent set."""
    return [
        (A, A - brute_int(G, A), A | brute_ext(G, A))
        for A in brute_mis(G)
    ]


def brute_multiplicity(G: Graph, X) -> int:
    X = frozenset(X)
    return sum(1 for _, lo, hi in brute_intervals(G) if lo <= X <= hi)


def brute_repeated_subsets(G: Graph) -> list[frozenset[int]]:
    triples = brute_intervals(G)
    out = [
        X
        for X in subsets(G.n)
        if sum(1 for _, lo, hi in triples if lo <= X <= hi) >= 2
    ]
    return sorted(out, key=sorted)


def brute_is_partition(G: Graph) -> bool:
    triples = brute_intervals(G)
    for X in subsets(G.n):
        if sum(1 for _, lo, hi in triples if lo <= X <= hi) != 1:
            return False
    return True


def rank_masks(perm) -> list[int]:
    """below[u]: the vertices labelled below u when vertex v is labelled perm[v-1].

    Index 0 is unused; one label comparison per pair of vertices.
    """
    n = len(perm)
    return [0] + [sum(1 << (w - 1) for w in range(1, n + 1) if perm[w - 1] < perm[u - 1])
                  for u in range(1, n + 1)]


def activity_masks_loop(G: Graph, m: int, below) -> tuple[int, int]:
    """(Int, Ext) of the independent set m in one pass over its non-members.

    A non-member u with x = N(u) & A is externally active when x holds a
    label below u.  When x is the single member v, u can replace v (it has
    no other neighbour in A), and if v is labelled below u that makes v
    internally passive.  Labels compare by the rank masks `below`.
    """
    passive = ext = 0
    rest = G.full_mask & ~m
    while rest:
        bit = rest & -rest
        u = bit.bit_length()
        x = G.adj_mask[u] & m
        if x & below[u]:
            ext |= bit
            if not x & (x - 1):
                passive |= x
        rest ^= bit
    return m & ~passive, ext


def subset_histogram(C) -> bytearray:
    """Per-subset interval membership counts of the cover C, saturated at 255.

    Indexed by bitmask (bit v-1 for vertex v); entry x counts the intervals
    [lower_mask; upper_mask] of C that hold x.
    """
    counts = bytearray(1 << C.n)
    for e in C.entries:
        lo, hi = e.lower_mask, e.upper_mask
        free = hi & ~lo
        s = free
        while True:
            x = lo | s
            if counts[x] < 255:
                counts[x] += 1
            if s == 0:
                break
            s = (s - 1) & free
    return counts


def locate_mask(G: Graph, x: int) -> int:
    """locate_generator's greedy on one subset mask, one vertex at a time.

    Members of x join in ascending order unless a neighbour already joined,
    then the other vertices in descending order.
    """
    return _locate_with(_adjacency_masks(G), x)


def _adjacency_masks(G: Graph) -> list[int]:
    return [0] + [sum(1 << (u - 1) for u in G.neighbors(v)) for v in range(1, G.n + 1)]


def _locate_with(adj: list[int], x: int) -> int:
    n = len(adj) - 1
    b = 0
    order = [v for v in range(1, n + 1) if x >> (v - 1) & 1]
    order += [v for v in range(n, 0, -1) if not x >> (v - 1) & 1]
    for v in order:
        if not adj[v] & b:
            b |= 1 << (v - 1)
    return b


def first_bad_locate(G: Graph, C) -> int | None:
    """The first subset x, in mask order, that no interval of its located generator holds.

    None when every x lies in the interval of some cover entry whose
    generator is the one locate_mask returns for it; a generator that
    repeats holds x through any of its entries.
    """
    adj = _adjacency_masks(G)
    intervals = {}
    for e in C.entries:
        intervals.setdefault(e.mis_mask, []).append((e.lower_mask, e.upper_mask))
    for x in range(1 << G.n):
        located = intervals.get(_locate_with(adj, x), ())
        if not any(lo & ~x == 0 and x & ~hi == 0 for lo, hi in located):
            return x
    return None


def partition_verdict_resumed(C, oracle_bound: int = 25) -> PartitionVerdict:
    """partition_verdict with its pair scan resumed over every overlapping pair.

    The checks and exceptions of partition_verdict.  Up to the bound the
    witness is min(lo_i | lo_j) over all the overlapping pairs; above it,
    the first pair's meet.  Its generators are the first two entries
    holding it.
    """
    masks = [(e.lower_mask, e.upper_mask) for e in C.entries]
    full = (1 << C.n) - 1
    if C.n <= oracle_bound:
        covered, repeated, _ = _cover_counts(full, masks)  # its own scan names the witness
        if missed := full + 1 - covered:
            raise RuntimeError(f"cover misses {missed} subsets; coverage violated")
    pairs = iter(_overlapping_pairs(masks))
    first = next(pairs, None)
    size_sum = sum(1 << (hi.bit_count() - lo.bit_count()) for lo, hi in masks)
    if (first is None) != (size_sum == full + 1):
        raise RuntimeError("partition methods disagree on a covered lattice")
    if C.n <= oracle_bound and (first is None) != (repeated == 0):
        raise RuntimeError("partition methods disagree on a covered lattice")
    if first is None:
        return PartitionVerdict(True, 0, None)
    x = masks[first[0]][0] | masks[first[1]][0]
    if C.n > oracle_bound:
        repeated = None
    else:
        for i, j in pairs:
            x = min(x, masks[i][0] | masks[j][0])
    gens = [e.generator for e, (lo, hi) in zip(C.entries, masks) if lo & ~x == 0 and x & ~hi == 0]
    return PartitionVerdict(False, repeated, RepeatWitness(set_of(x), gens[0], gens[1]))


def cover_report_lists(C, verdict, f_lowers=None) -> dict:
    """The cover report as plain lists: one dict of five vertex lists per
    entry, plus "f_lower" from the masks f_lowers when given."""

    def labels(m):
        return [v for v in range(1, C.n + 1) if m >> (v - 1) & 1]

    entries = [
        {
            "mis": labels(e.mis_mask),
            "int": labels(e.int_mask),
            "ext": labels(e.ext_mask),
            "lower": labels(e.lower_mask),
            "upper": labels(e.upper_mask),
        }
        for e in C.entries
    ]
    for entry, m in zip(entries, f_lowers or ()):
        entry["f_lower"] = labels(m)
    return {"n": C.n, "entries": entries, **verdict_report(verdict)}


def tree_children(T: Graph, root: int) -> dict[int, set[int]]:
    """Children of every vertex of the tree T hung from `root`, by breadth-first search."""
    children = {v: set() for v in range(1, T.n + 1)}
    seen = {root}
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for u in T.neighbors(v):
                if u not in seen:
                    seen.add(u)
                    children[v].add(u)
                    nxt.append(u)
        frontier = nxt
    return children


def private_leaf_violations(T: Graph, H: Graph, root: int) -> frozenset[int]:
    """Tree vertices with children but no private leaf child in the host H.

    A leaf child l of v is private when every host neighbour of l other than
    v is also a host neighbour of v, so l can stand in for v in any maximal
    independent set holding v.  The private-leaf hypothesis is that this set
    is empty; it reads only the tree and the host, never the cover.
    """
    children = tree_children(T, root)
    leaves = {v for v, ch in children.items() if not ch}
    return frozenset(
        v
        for v, ch in children.items()
        if ch and not any(H.neighbors(l) - {v} <= H.neighbors(v) for l in ch & leaves)
    )


def brute_isolated_after_removal(G: Graph, v: int) -> tuple[bool, bool | None]:
    """isolated_after_removal_check from the definitions, on frozensets.

    Deleting N[v] leaves isolated vertices when some remaining vertex has no
    remaining neighbour; then every maximal independent set holding v must
    have a non-empty internal activity set.
    """
    keep = frozenset(range(1, G.n + 1)) - G.neighbors(v) - {v}
    if all(G.neighbors(u) & keep for u in keep):
        return False, None
    return True, all(brute_int(G, A) for A in brute_mis(G) if v in A)


def brute_tree_center(T: Graph) -> int:
    """The vertex of minimum eccentricity in the tree T, lowest label on ties."""

    def eccentricity(s: int) -> int:
        dist = {s: 0}
        frontier = [s]
        while frontier:
            nxt = []
            for v in frontier:
                for u in T.neighbors(v):
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        nxt.append(u)
            frontier = nxt
        return max(dist.values())

    return min(range(1, T.n + 1), key=lambda v: (eccentricity(v), v))


def search_labelling_loop(G: Graph, budget=None, mode="exhaustive", seed=None):
    """search_labelling as a full relabel, cover and verdict per trial.

    Takes valid arguments only.  The candidates come in the library's order:
    exhaustive mode walks the permutations lexicographically and stops at the
    first partition; random mode tries the identity, then `budget - 1`
    shuffles from random.Random(seed).  Trials rank by (repeat count,
    permutation).
    """
    if mode == "exhaustive":
        candidates = permutations(range(1, G.n + 1))
    else:
        seed = 0 if seed is None else seed
        rng = random.Random(seed)
        candidates = [tuple(range(1, G.n + 1))]
        for _ in range(budget - 1):
            p = list(range(1, G.n + 1))
            rng.shuffle(p)
            candidates.append(tuple(p))
    best_perm = best = None
    trials = 0
    for perm in candidates:
        relabelled = Graph(G.n, [(perm[u - 1], perm[v - 1]) for u, v in G.edges()])
        v = partition_verdict(cover(relabelled))
        trials += 1
        key = (v.repeated_subset_count, perm)
        if best is None or key < (best.repeated_subset_count, best_perm):
            best_perm, best = perm, v
        if mode == "exhaustive" and best.is_partition:
            break
    return LabellingSearchResult(
        permutation=best_perm,
        verdict=best,
        found_partition=best.is_partition,
        mode=mode,
        trials=trials,
        seed=seed if mode == "random" else None,
    )


def mis_by_pivot_stack(G: Graph):
    """The maximal independent sets by the pivoting search, every branch on the stack.

    Each open branch (r, p, x) is pushed, leaves and dead branches included,
    and popped before it is decided; the pivot is the lowest vertex of p | x
    with the most candidates p & comp[u].  Yields masks, bit v-1 for vertex v.
    """
    full = G.full_mask
    comp = [0] + [full & ~(G.adj_mask[v] | 1 << (v - 1)) for v in range(1, G.n + 1)]
    isolated = sum(1 << (v - 1) for v in range(1, G.n + 1) if not G.adj_mask[v])
    stack = [(isolated, full & ~isolated, 0)]
    while stack:
        r, p, x = stack.pop()
        if not p | x:
            yield r
            continue
        pivot = max(_mask_bits(p | x), key=lambda u: (p & comp[u]).bit_count())
        for v in _mask_bits(p & ~comp[pivot]):  # move each candidate from p to x in turn
            bit = 1 << (v - 1)
            stack.append((r | bit, p & comp[v], x & comp[v]))
            p, x = p ^ bit, x | bit


def plane_counts_and(free: int, cubes) -> tuple[int, int, int | None]:
    """_plane_counts with each cube's plane an AND of index planes, for free = 2^n - 1.

    A cube's subsets are the AND of the index planes of its lo bits and the
    complements of those outside hi.  The smallest repeated subset is the
    lowest bit of `twice`, None when it is 0.
    """
    n = free.bit_length()
    planes = [sum(1 << x for x in range(1 << n) if x >> i & 1) for i in range(n)]
    outside = [~p for p in planes]
    every = (1 << (1 << n)) - 1
    once = twice = 0
    for lo, hi in cubes:
        s = every
        m = lo & free
        while m:
            bit = m & -m
            s &= planes[bit.bit_length() - 1]
            m ^= bit
        m = free & ~hi
        while m:
            bit = m & -m
            s &= outside[bit.bit_length() - 1]
            m ^= bit
        twice |= once & s
        once |= s
    least = next((x for x in range(1 << n) if twice >> x & 1), None)
    return once.bit_count(), twice.bit_count(), least


def shannon_counts_lists(free: int, cubes) -> tuple[int, int, int | None]:
    """_shannon_counts with each branch's cubes in a list, filtered by a pass per split.

    A branch splits on a bit its first cube fixes (in lo, or outside hi):
    the two halves are disjoint, and each keeps only the cubes that allow
    its value of the bit.  A branch where two or more cubes fix no free bit
    is covered twice over; where exactly one does, it is covered once, and
    the union of the other cubes is what it repeats, counted on as a plain
    union.  Two cubes or fewer are counted by inclusion-exclusion.  The
    stack depth stays at most the popcount of free.  Each branch carries
    `on`, its split bits set to 1: the smallest subset it holds of a cube
    (lo, hi) is on | lo & free, and of the whole branch `on`.  The cubes
    are sorted once, the most free bits first, so that the cost does not
    follow the order they come in.
    """
    covered, repeated, least = 0, 0, free + 1  # least starts above every subset of free
    cubes = sorted(cubes, key=lambda cube: (free & cube[1] & ~cube[0]).bit_count(), reverse=True)
    stack = [(free, cubes, True, 0)]  # True: count both; False: the union into repeated
    while stack:
        free, cubes, both, on = stack.pop()
        if len(cubes) < 3:
            sizes = meet = 0
            for lo, hi in cubes:
                sizes += 1 << (free & hi & ~lo).bit_count()
                if not both and on | lo & free < least:
                    least = on | lo & free
            if len(cubes) == 2:
                (lo, hi), (lo_b, hi_b) = cubes
                lo |= lo_b
                hi &= hi_b
                if not free & lo & ~hi:
                    meet = 1 << (free & hi & ~lo).bit_count()
                    if both and on | lo & free < least:
                        least = on | lo & free
            if both:
                covered += sizes - meet
                repeated += meet
            else:
                repeated += sizes - meet
            continue
        fixed = [free & (lo | ~hi) for lo, hi in cubes]
        whole = fixed.count(0)
        if whole:
            size = 1 << free.bit_count()
            if not both or whole > 1:
                repeated += size
                if on < least:
                    least = on
            if both:
                covered += size
                if whole == 1:
                    stack.append((free, [c for c, f in zip(cubes, fixed) if f], False, on))
            continue
        bit = fixed[0] & -fixed[0]
        free ^= bit
        stack.append((free, [c for c in cubes if not c[0] & bit], both, on))  # bit off
        stack.append((free, [c for c in cubes if c[1] & bit], both, on | bit))  # bit on
    return covered, repeated, least if repeated else None


def _mask_bits(mask: int):
    return [v for v in range(1, mask.bit_length() + 1) if mask >> (v - 1) & 1]


def edge_list_per_edge(G: Graph) -> str:
    """emit_edge_list's text from the sorted edge pairs, one line per edge."""
    edges = [(u, v) for u in range(1, G.n + 1) for v in sorted(G.neighbors(u)) if u < v]
    return "".join([f"{G.n} {len(edges)}\n", *(f"{u} {v}\n" for u, v in edges)])


def complete_graph_edges(n: int) -> Graph:
    """The clique on 1..n, from its edge list."""
    return Graph(n, combinations(range(1, n + 1), 2))


def kn_with_pendants_edges(n: int, sizes) -> Graph:
    """The clique on 1..n with sizes[i-1] pendants on vertex i, labelled n+1, ...
    block by block, from an edge list."""
    edges = list(combinations(range(1, n + 1), 2))
    nxt = n + 1
    for i, s in enumerate(sizes, start=1):
        for _ in range(s):
            edges.append((i, nxt))
            nxt += 1
    return Graph(n + sum(sizes), edges)


def join_edges(G1: Graph, G2: Graph) -> Graph:
    """Disjoint union with all cross edges, G2 shifted up by G1.n, from an edge list."""
    shift = G1.n
    edges = list(G1.edges())
    edges += [(u + shift, v + shift) for u, v in G2.edges()]
    edges += [(u, v + shift) for u in range(1, G1.n + 1) for v in range(1, G2.n + 1)]
    return Graph(G1.n + G2.n, edges)


def induced_subgraph_edges(G: Graph, S) -> tuple[Graph, dict[int, int]]:
    """The subgraph induced by S, relabelled 1..|S| in label order, from an edge list."""
    old_to_new = {old: i + 1 for i, old in enumerate(sorted(set(S)))}
    edges = [
        (old_to_new[u], old_to_new[v])
        for u in old_to_new
        for v in sorted(G.neighbors(u))
        if v > u and v in old_to_new
    ]
    return Graph(len(old_to_new), edges), old_to_new


def max_pruned_supergraph_edges(T: Graph, levels, inter_level_only: bool = False) -> Graph:
    """The largest admissible host over T, from the tree's edges and the added pairs."""
    leaves = levels.leaves
    lv = levels.level
    extra = []
    for v in range(1, T.n + 1):
        if v in leaves:
            continue
        for u in range(1, T.n + 1):
            if lv[u] - lv[v] >= 2:
                extra.append((v, u))
            elif not inter_level_only and u > v and u not in leaves and lv[u] == lv[v]:
                extra.append((v, u))
    return Graph(T.n, T.edges() + extra)


# _BIT_DIGITS[b] maps each byte to the ASCII digit of its bit b.
_BIT_DIGITS = [bytes(48 + (x >> b & 1) for x in range(256)) for b in range(8)]


def columns_bytes(rows, width: int) -> list[int]:
    """activities._columns on byte planes at every shape: bit j of column v is bit v of rows[j].

    Column v is the byte plane v // 8 of the rows, each laid out by
    int.to_bytes, with each byte turned into the digit of its bit v % 8.
    """
    size = (width + 7) // 8
    data = b"".join(r.to_bytes(size, "little") for r in reversed(rows))
    return [
        int(data[v >> 3::size].translate(_BIT_DIGITS[v & 7]) or b"0", 2) for v in range(width)
    ]


def entries_text_bytes(n: int, columns: dict) -> str:
    """io._entries_text with each column's masks laid out by int.to_bytes, at every n."""
    *_, last = columns.values()
    k = len(last)
    if not k:
        return "[]"
    byte_tables = [_byte_lines(b) for b in range((n + 7) // 8)]
    size = len(byte_tables)
    stride = len(columns) * (1 + size)
    parts = [""] * (k * stride + 1)
    starts = [_list_starts(name, c == 0) for c, name in enumerate(columns)]
    prev_empty = chain((None,), map(not_, last))
    for c, col in enumerate(columns.values()):
        at = c * (1 + size)
        lows = list(map(and_, col, map(neg, col)))
        keys = zip(prev_empty, map(int.bit_length, lows))
        parts[at:k * stride:stride] = map(starts[c].__getitem__, keys)
        data = b"".join(m.to_bytes(size, "little") for m in map(sub, col, lows))
        for b, table in enumerate(byte_tables):
            parts[at + 1 + b::stride] = map(table.__getitem__, data[b::size])
        prev_empty = map(not_, col)
    parts[-1] = starts[0][not last[-1], None]
    return "".join(parts)


def pair_index_bytes(masks) -> tuple[int, list[int], list[int]]:
    """activities._pair_index transposed on byte planes (columns_bytes): the
    union of the upper ends, and per bit of it the entries whose upper end
    has the bit and those whose lower end lacks it."""
    span = 0
    for _, hi in masks:
        span |= hi
    every = (1 << len(masks)) - 1
    upper_has = columns_bytes([hi for _, hi in masks], span.bit_length())
    lower_lacks = [every ^ c for c in columns_bytes([lo for lo, _ in masks], span.bit_length())]
    return span, upper_has, lower_lacks
