"""Circle patterns on the sphere with prescribed overlap angles.

The package solves for configurations of spherical caps realizing a
given triangulation and overlap-angle assignment, verifies the
admissibility conditions and non-degeneracy of the result, and builds
the compact convex hyperbolic polyhedron the pattern bounds.
"""

from .angles import (
    AngleAssignment,
    ConditionReport,
    ConditionViolation,
    check_admissible,
    check_admissible_strict,
    check_dual_admissible,
    transport_dual_angles,
)
from .catalog import bipyramid, icosahedron, octahedron, stacked_tetrahedra
from .complexes import (
    DualComplex,
    Triangulation,
    build_dual_complex,
    build_triangulation,
    dualize,
    primalize,
    prismatic_circuits,
    separating_cycles,
    two_edge_arcs,
)
from .errors import KatSphereError
from .polyhedron import (
    HyperbolicPolyhedron,
    build_polyhedron,
    export_off,
    face_gram,
    face_gram_det,
    face_vertex,
)
from .solver import (
    Configuration,
    SolveOptions,
    SolveReport,
    gauge_normalize,
    initial_configuration,
    pattern_angles,
    regauge,
    solve,
)
from .sphere import (
    Cap,
    inversive_distance,
    overlap_angle,
    triple_intersection_empty,
    triple_realizable,
)
from .verify import (
    VerificationReport,
    check_contact_graph,
    check_irreducible,
    check_separating_triples,
    verify_pattern,
)

__version__ = "0.1.0"

__all__ = [
    "AngleAssignment",
    "Cap",
    "ConditionReport",
    "ConditionViolation",
    "Configuration",
    "DualComplex",
    "HyperbolicPolyhedron",
    "KatSphereError",
    "SolveOptions",
    "SolveReport",
    "Triangulation",
    "VerificationReport",
    "bipyramid",
    "build_dual_complex",
    "build_polyhedron",
    "build_triangulation",
    "check_admissible",
    "check_admissible_strict",
    "check_contact_graph",
    "check_dual_admissible",
    "check_irreducible",
    "check_separating_triples",
    "dualize",
    "export_off",
    "face_gram",
    "face_gram_det",
    "face_vertex",
    "gauge_normalize",
    "icosahedron",
    "initial_configuration",
    "inversive_distance",
    "octahedron",
    "overlap_angle",
    "pattern_angles",
    "primalize",
    "prismatic_circuits",
    "regauge",
    "separating_cycles",
    "solve",
    "stacked_tetrahedra",
    "transport_dual_angles",
    "triple_intersection_empty",
    "triple_realizable",
    "two_edge_arcs",
    "verify_pattern",
]
