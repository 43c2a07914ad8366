"""Relay placement for unit-disk survivable networks.

Given terminals in a metric space, a set of unstable terminals, and pairwise
connectivity demands in {0,1,2}, the solvers place a small number of relay
points so that the unit-disk graph over terminals plus relays carries the
demanded number of edge-disjoint, relay-disjoint paths.
"""

from .errors import RelaysynthError
from .instances import (
    EPS_GEO,
    Instance,
    InstanceError,
    MetricSpace,
    Point,
    SolutionGraph,
    all_pairs_demands,
    bead_count,
    build_unit_disk_graph,
    make_instance,
    pairwise_distance,
    parse_instance,
    serialize_instance,
)
from .connectivity import (
    Biset,
    DemandViolation,
    FractionalBeadSolution,
    blocks,
    dfs_cycle,
    fractional_feasible,
    half_integral_witness,
    is_feasible,
    prune_minimal,
    r_components,
    tau_star,
    verify_feasible,
)
from .beads import BeadEdge, realize, tau_integral
from .steiner import (
    Hyperedge,
    Hypergraph,
    SchemeConfig,
    build_component_hypergraph,
    exact_component_oracle,
    mst_baseline,
)
from .local_replacement import (
    costed_hypergraph,
    local_replacement,
    max_overlapped_set,
    st_msp_scheme,
)
from .survivable import (
    degree_reduce,
    sn_backend_primal_dual,
    solve_sn_msp_012,
)
from .decomposition import (
    DecompositionCertificate,
    level_cut_partition,
    normalize_binary,
    proper_mapping,
    rank_certificate,
)

__version__ = "0.1.0"
