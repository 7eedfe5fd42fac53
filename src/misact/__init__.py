"""Vertex activities of maximal independent sets.

Every maximal independent set of a labelled graph generates an interval in
the lattice of vertex subsets; together the intervals cover the whole
lattice, and for good labellings they partition it.  This package computes
the activities, builds and judges the covers, constructs the special
families with closed-form partitions, and handles the layered-tree hosts
where a leaf-completion map describes the generators.
"""

from .activities import (
    ActivityPolynomial,
    ActivityReport,
    Cover,
    MisDifference,
    PartitionVerdict,
    RepeatWitness,
    activity_polynomial,
    cover,
    ext_active,
    int_active,
    interval_of,
    intervals_intersect,
    locate_generator,
    mis_difference_decomposition,
    partition_verdict,
    repeated_subsets_detail,
    subs,
    subset_multiplicity,
)
from .complete import (
    Obstruction,
    enumerate_internally_complete,
    externally_complete,
    find_complete,
    internally_complete,
    is_complete,
    is_externally_complete,
    is_internally_complete,
    isolated_after_removal_check,
    partition_obstructions,
    singleton_generator_for,
)
from .families import (
    SdsDecomposition,
    SisDecomposition,
    colex_graph,
    colex_neighborhoods,
    complete_graph,
    empty_graph,
    join,
    kn_plus_em,
    kn_with_pendants,
    lex_graph,
    lex_neighborhoods,
    pendant_partition_predicate,
    predicted_cover_colex,
    predicted_cover_join,
    predicted_cover_kn,
    predicted_cover_lex,
    sds,
    sis,
)
from .graph import (
    Graph,
    Interval,
    closed_neighborhood,
    enumerate_maximal_independent_sets,
    greedy_maximal_independent_set,
    induced_subgraph,
    is_dominating,
    is_independent,
    is_maximal_independent,
    open_neighborhood,
    random_graph,
    relabel,
)
from .io import emit_edge_list, parse_edge_list
from .pruned import (
    PrunedInstance,
    PrunedPartitionReport,
    RootedLevels,
    compute_levels,
    f_inverse,
    f_map,
    is_pruned_graph_of,
    is_pruned_tree,
    level_labelling,
    max_pruned_supergraph,
    pruned_instance,
    pruned_partition,
    random_pruned_instance,
    tree_center,
)
from .search import LabellingSearchResult, search_labelling
from .verify import verify_all, verify_family

__version__ = "0.1.0"
