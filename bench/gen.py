"""Seeded input generator for the benchmark, standard library only.

Deliberately independent of misact's own samplers (`random_graph`,
`random_pruned_instance`), so that a change to those functions cannot
change what the benchmark feeds the CLI.  Graphs are adjacency bitmask
lists indexed by 1-based label (bit v-1 stands for vertex v), the same
spelling the checker in check.py uses.
"""

from __future__ import annotations

import random


def edges_of(adj: list[int]) -> list[tuple[int, int]]:
    n = len(adj) - 1
    return [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1) if adj[u] >> (v - 1) & 1]


def adjacency(n: int, edges) -> list[int]:
    adj = [0] * (n + 1)
    for u, v in edges:
        adj[u] |= 1 << (v - 1)
        adj[v] |= 1 << (u - 1)
    return adj


def edge_list_text(adj: list[int]) -> str:
    edges = edges_of(adj)
    return f"{len(adj) - 1} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def gnp(n: int, p: float, rng: random.Random) -> list[int]:
    """G(n, p): each of the n(n-1)/2 pairs is an edge with probability p."""
    return adjacency(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                         if rng.random() < p])


def pruned_host(n: int, q: float, rng: random.Random) -> tuple[list[int], list[int]]:
    """A level-labelled pruned tree on exactly n >= 3 vertices and a host over it.

    Pruned: every vertex with children has a leaf child.  The tree grows
    from a root with two leaves; each step picks a vertex at random and
    gives it one more leaf child, adding a second leaf to the parent when
    the picked vertex was its parent's last leaf child.  Labels then run
    level by level from the root (label 1), in random order within a
    level.  The host keeps every tree edge and each admissible extra edge
    with probability q: an internal node to any vertex two or more levels
    deeper, or two internal nodes on the same level.

    Returns (tree adjacency, host adjacency); the root is vertex 1.
    """
    if n < 3:
        raise ValueError("a pruned instance needs at least three vertices")
    parent = [-1, 0, 0]
    children: list[list[int]] = [[1, 2], [], []]

    def add_leaf(v: int) -> None:
        parent.append(v)
        children.append([])
        children[v].append(len(parent) - 1)

    while len(parent) < n:
        v = rng.randrange(len(parent))
        if children[v]:
            add_leaf(v)
            continue
        p = parent[v]
        last_leaf = not any(c != v and not children[c] for c in children[p])
        if last_leaf and n - len(parent) < 2:
            continue
        add_leaf(v)
        if last_leaf:
            add_leaf(p)

    level = [0] * n
    order = [0]
    for v in order:  # breadth-first; order grows while we walk it
        for c in children[v]:
            level[c] = level[v] + 1
            order.append(c)
    keys = {v: (level[v], rng.random()) for v in range(n)}
    label = {v: i + 1 for i, v in enumerate(sorted(range(n), key=keys.__getitem__))}

    tree_edges = [(label[parent[v]], label[v]) for v in range(1, n)]
    internal = [v for v in range(n) if children[v]]
    extra = []
    for v in internal:
        for u in range(n):
            admissible = level[u] - level[v] >= 2 or (
                level[u] == level[v] and children[u] and label[u] > label[v])
            if admissible and rng.random() < q:
                extra.append((label[v], label[u]))
    return adjacency(n, tree_edges), adjacency(n, tree_edges + extra)
