"""coverkit: deciding and certifying graph covering projections onto
small-block targets, with exact oracles and hardness-gadget generators."""

from .graphs import (
    Edge,
    Graph,
    GraphError,
    ParseError,
    bipartition,
    classify_component_shape,
    component_shapes,
    components,
    degree,
    is_connected,
    is_tree,
    parse_graph,
    project,
    serialize_graph,
    total_degree,
)
from .partition import (
    Partition,
    ReductionError,
    ReductionRecord,
    RefinementMatrix,
    degree_adjust,
    degree_partition,
    is_balanced,
    normalize_colours,
    reduce_pair,
)
from .covers import (
    BudgetExhausted,
    CoveringProjection,
    OracleResult,
    VerifyResult,
    is_degree_obedient,
    oracle_cover,
    partial_covers,
    verify_cover,
    verify_parity,
)
from .matching import (
    MatchingError,
    directed_cycle_cover_decomposition,
    general_perfect_matching,
    two_factorization,
)
from .twosat import TwoSat
from .classify import (
    BlockGraph,
    SmallShape,
    Verdict,
    analyze_target,
    block_shapes,
    classify_shape,
    recognize_shape,
    verdict,
)
from .solver import (
    SolveResult,
    SolveTrace,
    UnsupportedTarget,
    companion_mapping,
    complete_edge_mapping,
    solve_cover,
)
from . import gadgets

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
