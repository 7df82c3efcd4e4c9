"""Exception taxonomy shared across the package.

Every error raised by the library derives from KatSphereError so callers can
catch the whole family at once; the CLI maps subfamilies to exit codes.
"""


class KatSphereError(Exception):
    """Base class for all library errors."""


# -- combinatorics ----------------------------------------------------------

class ComplexError(KatSphereError):
    """Invalid combinatorial input."""


class NotManifold(ComplexError):
    """Some edge is not shared by exactly two faces with opposite orientations."""


class NotSphere(ComplexError):
    """Euler characteristic is not 2 (or the complex is disconnected)."""


class NotSimple(ComplexError):
    """A face repeats a vertex, or two faces share all three vertices."""


class TooFewVertices(ComplexError):
    """Fewer than five vertices; no irreducible pattern exists."""


class NotTrivalent(ComplexError):
    """A dual vertex is not incident to exactly three faces."""


class NotAFace(ComplexError):
    """The requested gauge triple is not a face of the triangulation."""


class DomainMismatch(ComplexError):
    """An angle assignment does not cover exactly the edge set."""


# -- spherical geometry -----------------------------------------------------

class GeometryError(KatSphereError):
    """Degenerate or out-of-domain metric data."""


class DegenerateCap(GeometryError):
    """Cap center not unit length or radius outside (0, pi)."""


class NotOverlapping(GeometryError):
    """Caps do not overlap: inversive distance >= 1."""


class Engulfing(GeometryError):
    """One cap contains the other: inversive distance <= -1."""


class DegenerateLength(GeometryError):
    """Center-distance formula left the arccos domain."""


class CoincidentBoundaries(GeometryError):
    """Two caps share the same boundary circle."""


class PreconditionViolated(KatSphereError):
    """Input data violates a documented precondition of the operation."""


# -- solver -----------------------------------------------------------------

class SolverError(KatSphereError):
    """Numerical solve failed."""


class EdgeNotOverlapping(SolverError):
    """Residual requested for a configuration where an edge pair has |I| >= 1."""


class NearSingularChart(SolverError):
    """Tangent basis construction degenerated at some center."""


class ConditionsViolated(SolverError):
    """Target angles fail the admissibility conditions; no solve attempted."""


# -- serialization ------------------------------------------------------------

class ParseError(KatSphereError):
    """A JSON interchange file is malformed or has the wrong shape."""


# -- polyhedron -------------------------------------------------------------

class PolyhedronError(KatSphereError):
    """Hyperbolic polyhedron construction failed."""


class NotPositiveDefinite(PolyhedronError):
    """A face's normal Gram matrix is not positive definite."""


class ConvexityViolation(PolyhedronError):
    """A polyhedron vertex escapes some supporting half-space."""
