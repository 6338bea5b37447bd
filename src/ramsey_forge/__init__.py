"""Exact small-scale Ramsey oracles, regularity tooling, and constructive
graph embedders with a reproducible experiment harness."""

from .dense import dense_witness_check
from .graphs import (
    BLUE,
    COLORS,
    RED,
    EdgeColoring,
    Graph,
    WeightedGraph,
    codegree,
    edges_between,
    induced,
    iter_bits,
    mask_of,
    other_color,
    pair_density,
)
from .morphisms import (
    CapacityProfile,
    VertexMap,
    compose,
    find_capacity_homomorphism,
    find_weighted_embedding,
    verify_capacity,
    verify_homomorphism,
)
from .oracles import (
    OracleResult,
    mono_copy_search,
    ramsey_number,
    stable_ramsey,
    weighted_ramsey,
)

__version__ = "0.1.0"

__all__ = [
    "BLUE",
    "COLORS",
    "RED",
    "CapacityProfile",
    "EdgeColoring",
    "Graph",
    "OracleResult",
    "VertexMap",
    "WeightedGraph",
    "codegree",
    "compose",
    "dense_witness_check",
    "edges_between",
    "find_capacity_homomorphism",
    "find_weighted_embedding",
    "induced",
    "iter_bits",
    "mask_of",
    "mono_copy_search",
    "other_color",
    "pair_density",
    "ramsey_number",
    "stable_ramsey",
    "verify_capacity",
    "verify_homomorphism",
    "weighted_ramsey",
]
