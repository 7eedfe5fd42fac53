"""Layered trees whose internal nodes all carry a leaf child, the host graphs
admissible over them, and the leaf-completion correspondence.

A host graph may add, on top of the tree, edges from any internal node to
vertices two or more levels deeper, plus edges among internal nodes sharing
a level.  Under a level labelling (smaller level, smaller label) the interval
cover of such a host is expected to be a partition, with the lower endpoint
of each interval recoverable by stripping the tree's leaves from the
generating set.  Both facts are checked rather than assumed, and
pruned_partition reports exactly what held.  When every vertex with
children has a private leaf child, one whose other host neighbours are all
neighbours of that vertex, the leaf can replace its parent in any
generator, so internal activity is exactly the generator's tree leaves; the
cover has then been a partition on every host checked, though that part is
not proved.  Without the hypothesis sparse hosts of depth four or more can
defeat the leaf rule (a skip edge into a parent's only leaf child), and
about 8% of random admissible hosts on sixteen vertices are not partitions.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping

from .activities import Cover, PartitionVerdict, cover, partition_verdict
from .graph import Graph, _bits, is_independent, is_maximal_independent, mask_of, relabel, set_of

__all__ = [
    "RootedLevels",
    "PrunedInstance",
    "PrunedPartitionReport",
    "tree_center",
    "compute_levels",
    "is_pruned_tree",
    "max_pruned_supergraph",
    "is_pruned_graph_of",
    "level_labelling",
    "level_labelling_violation",
    "pruned_instance",
    "f_map",
    "f_inverse",
    "pruned_partition",
    "random_pruned_instance",
]

LEAF_MODES = ("tree", "host")
CHILDREN_MODES = ("host", "tree")


@dataclass(frozen=True)
class RootedLevels:
    """Level structure of a tree rooted at `root`.

    Levels start at 1 for the root; children sit one level below their
    parent.  Leaves are exactly the childless vertices.
    """

    root: int
    level: Mapping[int, int]
    level_sets: tuple[frozenset[int], ...]
    children: Mapping[int, frozenset[int]]
    parent: Mapping[int, int | None]

    @property
    def height(self) -> int:
        return len(self.level_sets)

    @property
    def leaves(self) -> frozenset[int]:
        return frozenset(v for v, ch in self.children.items() if not ch)


def _check_tree(T: Graph) -> None:
    if T.n == 0:
        raise ValueError("a tree needs at least one vertex")
    if T.edge_count() != T.n - 1:
        raise ValueError("not a tree: wrong edge count")


def tree_center(T: Graph) -> int:
    """A center vertex of the tree, found by peeling leaves; ties break low.

    Each round removes every vertex with fewer than two neighbours left,
    until at most two remain.  A round that removes nothing means a cycle,
    which with n - 1 edges means the graph is disconnected.
    """
    _check_tree(T)
    alive = T.full_mask
    while alive.bit_count() > 2:
        leaves = 0
        for v in _bits(alive):
            nb = T.adj_mask[v] & alive
            if not nb & (nb - 1):
                leaves |= 1 << (v - 1)
        if not leaves:
            raise ValueError("not a tree: disconnected")
        alive &= ~leaves
    return (alive & -alive).bit_length()


def compute_levels(T: Graph, root: int) -> RootedLevels:
    """Breadth-first levels, children and parents of a tree from `root`.

    Rejects non-trees and roots of degree below two.
    """
    _check_tree(T)
    T._check_vertex(root)
    if T.degree(root) < 2:
        raise ValueError(f"root {root} has degree {T.degree(root)} < 2")
    level = {root: 1}
    parent: dict[int, int | None] = {root: None}
    q = deque([root])
    while q:
        v = q.popleft()
        for u in _bits(T.adj_mask[v]):
            if u not in level:
                level[u] = level[v] + 1
                parent[u] = v
                q.append(u)
    if len(level) != T.n:
        raise ValueError("not a tree: disconnected")
    height = max(level.values())
    level_sets = tuple(
        frozenset(v for v, l in level.items() if l == k) for k in range(1, height + 1)
    )
    children = {v: set_of(T.adj_mask[v]) - {parent[v]} for v in T.vertices}
    return RootedLevels(
        root=root,
        level=level,
        level_sets=level_sets,
        children=children,
        parent=parent,
    )


def _parent_without_leaf_child(levels: RootedLevels) -> int | None:
    leaves = levels.leaves
    return next((v for v, ch in levels.children.items() if ch and not ch & leaves), None)


def is_pruned_tree(T: Graph, root: int) -> bool:
    """True when every vertex that has children has at least one leaf child."""
    return _parent_without_leaf_child(compute_levels(T, root)) is None


def max_pruned_supergraph(
    T: Graph, levels: RootedLevels, inter_level_only: bool = False
) -> Graph:
    """Largest admissible host: level-skipping edges plus same-level cliques.

    Every internal node gains edges to all vertices two or more levels
    deeper.  Unless inter_level_only is set, internal nodes sharing a level
    are also joined into a clique.
    """
    leaves = mask_of(levels.leaves)
    layers = [mask_of(s) for s in levels.level_sets]
    rows = list(T.adj_mask)
    for i, layer in enumerate(layers):
        up = sum(m & ~leaves for m in layers[: max(i - 1, 0)])  # internal, two or more levels up
        down = sum(layers[i + 2:])
        peers = 0 if inter_level_only else layer & ~leaves
        for v in _bits(layer):
            rows[v] |= up if leaves >> (v - 1) & 1 else up | down | peers & ~(1 << (v - 1))
    return Graph._from_rows(rows)


def is_pruned_graph_of(T: Graph, root: int, H: Graph) -> bool:
    """Whether H sits between the pruned tree T and its maximal host."""
    if T.n != H.n:
        raise ValueError("tree and host must share the vertex set")
    levels = compute_levels(T, root)
    if _parent_without_leaf_child(levels) is not None:
        raise ValueError(f"tree is not pruned when rooted at {root}")
    return _in_admissible_range(T, levels, H)


def _in_admissible_range(T: Graph, levels: RootedLevels, H: Graph) -> bool:
    hmax = max_pruned_supergraph(T, levels)
    return all(
        T.adj_mask[v] & ~H.adj_mask[v] == 0 and H.adj_mask[v] & ~hmax.adj_mask[v] == 0
        for v in T.vertices
    )


def level_labelling(T: Graph, root: int) -> dict[int, int]:
    """Permutation renaming vertices level by level, old labels ascending."""
    levels = compute_levels(T, root)
    order = sorted(T.vertices, key=lambda v: (levels.level[v], v))
    return {old: i + 1 for i, old in enumerate(order)}


def level_labelling_violation(levels: RootedLevels) -> tuple[int, int] | None:
    """A pair (u, v) with l(u) < l(v) but u > v, or None when levels respect labels."""
    shallow_max = 0
    for level_set in levels.level_sets:
        low = min(level_set)
        if shallow_max > low:
            return shallow_max, low
        shallow_max = max(shallow_max, max(level_set))
    return None


@dataclass(frozen=True)
class PrunedInstance:
    """A pruned tree, an admissible host over it, and the derived structure."""

    tree: Graph
    host: Graph
    root: int
    levels: RootedLevels
    leaf_set_tree: frozenset[int]
    leaf_set_host: frozenset[int]

    def leaf_set(self, mode: str) -> frozenset[int]:
        if mode not in LEAF_MODES:
            raise ValueError(f"leaf mode must be one of {LEAF_MODES}")
        return self.leaf_set_tree if mode == "tree" else self.leaf_set_host


def pruned_instance(
    tree: Graph, host: Graph | None = None, root: int | None = None
) -> PrunedInstance:
    """Validate and bundle a pruned tree with a host graph.

    The root defaults to the tree center.  The host defaults to the tree
    itself and must lie inside the admissible edge range.
    """
    if host is None:
        host = tree
    if root is None:
        root = tree_center(tree)
    levels = compute_levels(tree, root)
    bad = _parent_without_leaf_child(levels)
    if bad is not None:
        raise ValueError(f"vertex {bad} has children but no leaf child")
    if tree.n != host.n:
        raise ValueError("tree and host must share the vertex set")
    if not _in_admissible_range(tree, levels, host):
        raise ValueError("host graph outside the admissible edge range")
    return PrunedInstance(
        tree=tree,
        host=host,
        root=root,
        levels=levels,
        leaf_set_tree=levels.leaves,
        leaf_set_host=frozenset(v for v in host.vertices if host.degree(v) == 1),
    )


def _children_of(instance: PrunedInstance, S: Iterable[int], mode: str) -> frozenset[int]:
    if mode not in CHILDREN_MODES:
        raise ValueError(f"children mode must be one of {CHILDREN_MODES}")
    lv = instance.levels.level
    out: set[int] = set()
    for v in S:
        if mode == "tree":
            out |= instance.levels.children[v]
        else:
            out |= {u for u in _bits(instance.host.adj_mask[v]) if lv[u] > lv[v]}
    return frozenset(out)


def f_map(
    instance: PrunedInstance,
    S: Iterable[int],
    leaf_mode: str = "tree",
    children_mode: str = "host",
) -> frozenset[int]:
    """Complete an independent set of the leaf-free host with all non-child leaves.

    S must be independent in the host and avoid the chosen leaf set.  The
    image is S plus every leaf that is not a child of S; children default to
    deeper host neighbours.
    """
    L = instance.leaf_set(leaf_mode)
    s = frozenset(S)
    if s & L:
        raise ValueError(f"{sorted(s & L)} are leaves; the argument must avoid them")
    if not is_independent(instance.host, s):
        raise ValueError(f"{sorted(s)} is not independent in the host")
    return s | (L - _children_of(instance, s, children_mode))


def f_inverse(
    instance: PrunedInstance, A: Iterable[int], leaf_mode: str = "tree"
) -> frozenset[int]:
    """Strip the leaves from a maximal independent set of the host."""
    a = frozenset(A)
    if not is_maximal_independent(instance.host, a):
        raise ValueError(f"{sorted(a)} is not a maximal independent set of the host")
    return a - instance.leaf_set(leaf_mode)


@dataclass(frozen=True)
class PrunedPartitionReport:
    """Cover of a level-labelled host plus the leaf-structure cross-checks.

    The cover's lower endpoints come from the activity computation itself;
    f_lower_masks holds the leaf-stripped generators as bitmasks for
    comparison, and `f_lowers` gives them as frozensets built on access.
    The two agreement flags record whether the leaf shortcuts held on this
    instance.  They hold when every vertex with children has a private leaf
    child (see the module docstring), and the verdict has then been a
    partition on every host checked; without it they can fail for sparse
    hosts of depth four or more, and the verdict with them.  The cover
    itself is computed soundly either way.
    """

    cover: Cover
    verdict: PartitionVerdict
    leaf_mode: str
    f_lower_masks: tuple[int, ...]
    lower_matches_f: bool
    int_equals_tree_leaves: bool

    @property
    def f_lowers(self) -> tuple[frozenset[int], ...]:
        return tuple(map(set_of, self.f_lower_masks))


def pruned_partition(
    instance: PrunedInstance, leaf_mode: str = "tree"
) -> PrunedPartitionReport:
    """Interval cover of the host with leaf-rule diagnostics.

    Rejects instances whose tree violates the level labelling, naming the
    offending vertex pair.
    """
    bad = level_labelling_violation(instance.levels)
    if bad is not None:
        raise ValueError(
            f"level labelling violated: vertex {bad[0]} is shallower than {bad[1]} "
            "but has the larger label"
        )
    keep = ~mask_of(instance.leaf_set(leaf_mode))
    tree_leaves = mask_of(instance.leaf_set_tree)
    c = cover(instance.host)
    f_lower_masks = tuple(e.mis_mask & keep for e in c.entries)
    return PrunedPartitionReport(
        cover=c,
        verdict=partition_verdict(c),
        leaf_mode=leaf_mode,
        f_lower_masks=f_lower_masks,
        lower_matches_f=all(e.mis_mask & ~e.int_mask == f
                            for e, f in zip(c.entries, f_lower_masks)),
        int_equals_tree_leaves=all(e.int_mask == e.mis_mask & tree_leaves for e in c.entries),
    )


def random_pruned_instance(
    rng: random.Random,
    max_vertices: int = 16,
    host_edge_probability: float = 0.5,
) -> PrunedInstance:
    """Sample a level-labelled pruned instance; a test utility.

    Grows a random attachment tree, hangs an extra leaf on every internal
    node lacking one (resampling when that overshoots the size cap), renames
    level by level, then keeps each admissible extra host edge independently.
    """
    if max_vertices < 3:
        raise ValueError("a rooted instance needs at least three vertices")
    while True:
        base = rng.randint(3, max(3, max_vertices - 1))
        parent = {v: rng.randint(1, v - 1) for v in range(2, base + 1)}
        edges = [(parent[v], v) for v in range(2, base + 1)]
        t0 = Graph(base, edges)
        root0 = tree_center(t0)
        levels0 = compute_levels(t0, root0)
        leaves0 = levels0.leaves
        n = base
        for v in list(t0.vertices):
            ch = levels0.children[v]
            if ch and not ch & leaves0:
                n += 1
                edges.append((v, n))
        if n <= max_vertices:
            break
    t1 = Graph(n, edges)
    perm = level_labelling(t1, root0)
    tree = relabel(t1, perm)
    root = perm[root0]
    levels = compute_levels(tree, root)
    hmax = max_pruned_supergraph(tree, levels)
    tree_edges = set(tree.edges())
    host_edges = list(tree_edges) + [
        e for e in hmax.edges() if e not in tree_edges and rng.random() < host_edge_probability
    ]
    return pruned_instance(tree, Graph(n, host_edges), root)
