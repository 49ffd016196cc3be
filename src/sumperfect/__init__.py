"""Exact graph analysis around the alpha + omega >= n hereditary property:
invariant computation, recognition with witnesses, the 27-graph obstruction
family, and minimal forbidden induced subgraph mining."""

from .canon import canonical_form, canonical_key, canonical_labeling, is_isomorphic
from .family import (
    ForbiddenFamily,
    build_conjecture_family,
    build_family,
    enumerate_bipartite_pm6,
    verify_family,
)
from .graph6 import (
    FormatError,
    emit_edge_list,
    emit_graph6,
    parse_edge_list,
    parse_graph6,
)
from .graphs import (
    Graph,
    complement,
    delete_vertex,
    disjoint_union,
    from_edge_list,
    induced_subgraph,
    mask_of,
    vertices_of,
)
from .induced import Embedding, contains_induced
from .invariants import (
    InvariantReport,
    StableCliquePair,
    clique_number,
    compute_report,
    deficit,
    is_perfect_lovasz,
    is_sum_perfect_definitional,
    matching_number,
    max_clique,
    max_deficiency,
    max_stable_set,
    stability_number,
    triangle_count,
    validate_pair,
    vertex_cover_number,
)
from .enumeration import graphs_of_order, stream_graphs
from .mining import (
    ClassPredicate,
    MineResult,
    count_hc_forbidden,
    get_predicate,
    is_minimal_forbidden,
    mine_forbidden,
    verify_conjecture,
    verify_theorem_27,
    verify_threshold_equivalence,
)
from .recognition import (
    check_threshold_theorem,
    is_apex_threshold,
    is_split,
    is_sum_perfect,
    is_threshold,
    is_threshold_by_obstructions,
)

__version__ = "0.1.0"
