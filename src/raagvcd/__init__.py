"""Dimension bounds for outer automorphism groups of two-dimensional
right-angled Artin groups, with constructive witnesses."""

from .graph_core import (
    DefiningGraph,
    GraphError,
    IneligibleGraphError,
    ParseError,
    StructureAnomalyError,
    ValidationReport,
    gamma_zero,
    parse_graph,
    pieces,
    validate,
)
from .vcd_bounds import BoundResult, VcdReport, lower_bound, upper_bound, vcd_report
from .words import RaagWord, canonical, cyclic_reduce, equal, parse_word, reduce_word
from .autos import (
    GeneratorSet,
    RaagAutomorphism,
    build_generator_set,
    compose,
    inner_conjugator,
    inner_lattice,
    lift_local,
    project_local,
    verify_commuting,
)
from .psigma import PsigmaSpec, outer_rank, psigma_generators, psigma_vcd
from .ideal_edges import (
    HalfEdgeSet,
    IdealEdge,
    SimplicialComplex,
    build_complex,
    compatible,
    enumerate_ideal_edges,
    morse_collapse_certificate,
    reduced_homology,
)

__version__ = "0.1.0"
