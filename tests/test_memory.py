"""Memory of the cover path on a large edgeless graph, traced by tracemalloc."""

import gc
import tracemalloc

from misact import Graph, cover, int_active


def test_edgeless_cover_builds_and_keeps_no_square_table():
    """No table of n rows of n bits on 20,000 vertices: neither the
    enumerator's complement rows (54.7 MB at peak when they were built before
    the edgeless return) nor a cached rank table (26.1 MB kept after the cover
    was dropped)."""
    g = Graph(20000)
    gc.collect()
    tracemalloc.start()
    try:
        c = cover(g)
        assert len(c.entries) == 1 and int_active(g, [1]) == {1}
        del c
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, peak
    assert retained < 1 << 20, retained
