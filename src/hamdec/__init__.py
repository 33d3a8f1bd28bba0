"""hamdec: edge-disjoint Hamilton cycles in dense regular oriented graphs.

Construction side: reg() by b-matching and verified edge-disjoint Hamilton
cycles by cycle-factor patching, plus the lemma-level library of subproblem
partitioning, matching-based path covers and reservoir splicing.  Counting side: exact permanents and
Hamilton-decomposition counts at tiny sizes, sandwiched between the standard
matching bounds.
"""

from .graphs import (
    BipartiteGraph,
    DegreeSummary,
    OrientedGraph,
    bipartite_between,
    degree_summary,
    read_edge_list,
    rotational_tournament,
    write_edge_list,
)
from . import flows  # noqa: F401  loads flows.Dinic, which bench/spans.py wraps
from .factors import (
    Matching,
    extract_oriented_r_factor,
    gale_ryser_oracle,
    has_bipartite_r_factor,
    oriented_reg,
)
from .counting import (
    BoundReport,
    LogCount,
    bregman_bound,
    count_hamilton_cycles_exact,
    count_hamilton_decompositions_exact,
    decomposition_upper_bound,
    permanent,
    sandwich_experiment,
    vdw_bound,
)
from .pathcovers import (
    DirectedPath,
    HamPathDecomposition,
    PathCover,
    PathCoverFamily,
    build_path_cover_family,
    complete_digraph_path_decomposition,
    matchings_to_path_cover,
)
from .assembly import (
    Connectors,
    HamiltonCycle,
    complete_cover_to_cycle,
    complete_family_to_cycles,
    hamilton_path_between,
    patch_hamilton_cycles,
)
from .partition import PartitionReport, SubproblemSpec, build_partition, verify_partition
from .pipeline import (
    DecompositionCertificate,
    RunConfig,
    RunReport,
    approximate_decomposition,
    verify_certificate,
)

__version__ = "0.1.0"
