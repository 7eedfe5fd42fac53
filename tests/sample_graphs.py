"""Shared fixture graphs, named by their structure.

The two dense five-vertex labellings are the same underlying graph; the
first produces two repeated subsets, the second a clean partition, and
OVERLAP_TO_PARTITION_PERM maps one onto the other.
"""

from misact import Graph


def tailed_triangle() -> Graph:
    """Triangle 2-3-4 with the path 2-5-1 hanging off it."""
    return Graph(5, [(3, 4), (2, 3), (2, 4), (2, 5), (1, 5)])


def dense_five_overlapping() -> Graph:
    """Eight-edge graph on five vertices; its cover repeats two subsets."""
    return Graph(5, [(1, 2), (2, 5), (2, 4), (1, 5), (1, 4), (1, 3), (4, 5), (3, 4)])


def dense_five_partition() -> Graph:
    """Same graph relabelled so the cover partitions the lattice."""
    return Graph(5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (4, 5)])


OVERLAP_TO_PARTITION_PERM = {1: 2, 2: 4, 3: 3, 4: 1, 5: 5}


def wheel_five() -> Graph:
    """Hub 1 joined to the cycle 2-3-4-5."""
    return Graph(5, [(1, 2), (1, 3), (1, 4), (1, 5), (2, 3), (3, 4), (4, 5), (5, 2)])


def hub_five() -> Graph:
    """Five vertices, hub 1; internally complete sets {5} and {2,4}."""
    return Graph(5, [(1, 2), (2, 5), (3, 5), (1, 5), (1, 4), (1, 3), (4, 5), (3, 4)])


def seven_edge_five() -> Graph:
    """Seven edges; internally complete sets {1,5} and {2,4}."""
    return Graph(5, [(3, 4), (1, 4), (4, 5), (2, 5), (3, 5), (1, 3), (1, 2)])


def ten_vertex_with_complete_a() -> Graph:
    """Ten vertices; {1,4,5,6,8,10} is both internally and externally complete."""
    return Graph(
        10,
        [(1, 2), (1, 3), (1, 7), (2, 5), (2, 8), (3, 4), (3, 5), (3, 8),
         (5, 9), (6, 7), (6, 9), (7, 10)],
    )


def ten_vertex_with_complete_b() -> Graph:
    """Ten vertices; {1,2,3,7,8,9} is both internally and externally complete."""
    return Graph(
        10,
        [(1, 6), (1, 10), (6, 7), (6, 10), (7, 5), (10, 9), (9, 5), (5, 2),
         (5, 3), (5, 4), (3, 4), (4, 8)],
    )


def layered_tree() -> Graph:
    """Fourteen-vertex pruned tree with a level labelling, rooted at 1."""
    return Graph(
        14,
        [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (4, 11), (4, 9), (3, 10),
         (3, 8), (3, 7), (9, 12), (8, 13), (8, 14)],
    )


def layered_host() -> Graph:
    """Admissible host over layered_tree with nine extra edges."""
    return Graph(
        14,
        layered_tree().edges()
        + [(1, 9), (1, 10), (4, 12), (3, 13), (3, 14), (1, 11), (3, 4), (8, 9), (1, 13)],
    )


def sparse_layered_tree() -> Graph:
    """Ten-vertex depth-four pruned tree used by the non-partition host below."""
    return Graph(
        10,
        [(1, 2), (1, 3), (1, 4), (2, 5), (2, 7), (3, 6), (3, 8), (5, 9), (6, 10)],
    )


def sparse_layered_host() -> Graph:
    """Admissible host over sparse_layered_tree whose cover is NOT a partition.

    The subset {1,2,3,4,6} lies in the intervals of both {1,5,10} and {1,6}:
    vertex 5's leaf child 9 is stolen by the skip edge 1-9, so 5 turns
    internally active and the interval of {1,5,10} grows to [{1}; V].
    """
    return Graph(
        10,
        sparse_layered_tree().edges()
        + [(1, 7), (1, 8), (1, 9), (2, 3), (2, 9), (2, 10), (5, 6)],
    )


def disjoint_cliques(sizes: list[int]) -> Graph:
    """Disjoint cliques of the given sizes, labelled block by block: the
    product of the sizes is the number of maximal independent sets."""
    edges, start = [], 1
    for s in sizes:
        edges += [(u, v) for u in range(start, start + s) for v in range(u + 1, start + s)]
        start += s
    return Graph(start - 1, edges)


def cycle_beside_triangles() -> Graph:
    """C8 on 1-8 beside three triangles on 9-17: 10 * 27 = 270 maximal independent
    sets, more than the 256 labellings of a full search batch.  No labelling's cover
    partitions, since none of C8's does."""
    triangles = disjoint_cliques([3, 3, 3])
    return Graph(17, [(v, v % 8 + 1) for v in range(1, 9)]
                 + [(u + 8, w + 8) for u, w in triangles.edges()])


def all_named_graphs() -> list[Graph]:
    return [
        tailed_triangle(),
        dense_five_overlapping(),
        dense_five_partition(),
        wheel_five(),
        hub_five(),
        seven_edge_five(),
        ten_vertex_with_complete_a(),
        ten_vertex_with_complete_b(),
        layered_tree(),
        layered_host(),
        sparse_layered_tree(),
        sparse_layered_host(),
    ]
