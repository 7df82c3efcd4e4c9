"""Compact convex hyperbolic polyhedra induced by circle patterns.

Every cap determines a half-space of hyperbolic 3-space in the
hyperboloid model: the plane orthogonal (in the Minkowski sense) to the
cap's unit spacelike normal, taken on the side where the normal's form
value is negative.  Intersecting the half-spaces of an irreducible
pattern yields a compact convex polyhedron whose dihedral angles equal
the pattern's overlap angles and whose combinatorics are dual to the
triangulation: one polyhedron face per cap, one polyhedron vertex per
triangulation face.

Vertices are computed face by face as the Minkowski-orthogonal
complement of the three incident normals, gated by positive
definiteness of their Gram matrix.  Export projects to the Klein ball,
where compactness shows up as all vertex norms staying below one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angles import AngleAssignment
from .complexes import Triangulation
from .errors import ConvexityViolation, NotPositiveDefinite, PreconditionViolated
from .sphere import cap_plane_normal, common_orthogonal_point, minkowski_dot
from .verify import check_contact_graph, check_separating_triples

CONVEXITY_TOL = 1e-9    # slack allowed on half-space membership
INCIDENCE_TOL = 1e-9    # drift of a vertex off its defining planes


def face_gram(theta_i: float, theta_j: float, theta_k: float) -> np.ndarray:
    """Gram matrix of three unit plane normals meeting pairwise at the
    given angles; theta_i is the angle opposite the first normal."""
    ci, cj, ck = math.cos(theta_i), math.cos(theta_j), math.cos(theta_k)
    return np.array([
        [1.0, -ck, -cj],
        [-ck, 1.0, -ci],
        [-cj, -ci, 1.0],
    ])


def face_gram_det(theta_i: float, theta_j: float, theta_k: float) -> float:
    """Closed-form determinant of face_gram.

    The determinant factors over half-angle sums, so it vanishes exactly
    when one of the four combinations theta_i +- theta_j +- theta_k hits
    an odd multiple of pi.
    """
    s = 0.5 * (theta_i + theta_j + theta_k)
    return -4.0 * (math.cos(s) * math.cos(s - theta_k)
                   * math.cos(s - theta_i) * math.cos(s - theta_j))


def _positive_definite(g: np.ndarray) -> bool:
    if g[0, 0] <= 0.0:
        return False
    if g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0] <= 0.0:
        return False
    return float(np.linalg.det(g)) > 0.0


def face_vertex(n_i: np.ndarray, n_j: np.ndarray,
                n_k: np.ndarray) -> np.ndarray:
    """Common point of three hyperbolic planes, as a future-pointing
    unit timelike vector.  Raises NotPositiveDefinite when the planes do
    not meet in a single point of hyperbolic space."""
    normals = np.vstack([n_i, n_j, n_k])
    gram = np.array([[minkowski_dot(a, b) for b in normals]
                     for a in normals])
    if not _positive_definite(gram):
        raise NotPositiveDefinite(
            "plane normals have a non-positive-definite Gram matrix")
    return common_orthogonal_point(normals)


@dataclass(frozen=True, eq=False)
class HyperbolicPolyhedron:
    """Compact convex polyhedron in the hyperboloid model.

    Polyhedron vertices are indexed by the faces of the source
    triangulation and polyhedron faces by its vertices; face_cycles[v]
    lists the vertex indices around face v in rotation order.
    """
    face_normals: np.ndarray            # one unit spacelike row per face
    vertices: np.ndarray                # one unit timelike row per vertex
    face_cycles: tuple[tuple[int, ...], ...]
    dihedral_angles: dict[tuple[int, int], float]
    angle_error_inf: float = float("nan")

    def __post_init__(self):
        if len(self.vertices) == 0 or len(self.face_cycles) == 0:
            raise PreconditionViolated("a polyhedron cannot be empty")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_faces(self) -> int:
        return len(self.face_cycles)

    @property
    def n_edges(self) -> int:
        return len(self.dihedral_angles)

    def klein_vertices(self) -> np.ndarray:
        """Project the vertices into the Klein unit ball."""
        return self.vertices[:, :3] / self.vertices[:, 3:]


def build_polyhedron(tri: Triangulation, cfg,
                     theta: AngleAssignment) -> HyperbolicPolyhedron:
    """Intersect the half-spaces of a verified pattern.

    The configuration must have a clean contact graph and empty cap
    triples on all separating 3-cycles, and the target angles must admit
    a positive-definite Gram matrix on every face; violations raise
    PreconditionViolated or NotPositiveDefinite before any geometry is
    assembled.  ConvexityViolation reports a vertex escaping some
    non-incident half-space.
    """
    contact = check_contact_graph(tri, cfg)
    if not contact.ok:
        first = contact.violations[0]
        raise PreconditionViolated(
            f"contact graph violated: {first.kind} on pair {first.pair}")
    triples = check_separating_triples(tri, cfg)
    if not triples.ok:
        bad = next(r for r in triples.results if not r.empty)
        raise PreconditionViolated(
            f"caps of separating triple {bad.cycle} share a point")
    for (i, j, k) in tri.faces:
        det = face_gram_det(theta[(j, k)], theta[(k, i)], theta[(i, j)])
        if det <= 0.0:
            raise NotPositiveDefinite(
                f"target angles on face {(i, j, k)} are not realizable "
                f"(Gram determinant {det:.3e})")

    normals = np.vstack([cap_plane_normal(cfg.cap(v))
                         for v in range(tri.n_vertices)])
    verts = np.empty((tri.n_faces, 4))
    for fi, (i, j, k) in enumerate(tri.faces):
        try:
            verts[fi] = face_vertex(normals[i], normals[j], normals[k])
        except NotPositiveDefinite as exc:
            raise NotPositiveDefinite(
                f"planes of face {(i, j, k)} do not meet: {exc}") from exc

    # slack[f, w] = minkowski_dot(vertex of face f, normal of cap w)
    slack = (verts[:, :3] @ normals[:, :3].T
             - np.outer(verts[:, 3], normals[:, 3]))
    slack[np.arange(tri.n_faces)[:, None], tri.faces] = -np.inf
    outside = np.flatnonzero(slack > CONVEXITY_TOL)
    if outside.size:
        fi, w = divmod(int(outside[0]), tri.n_vertices)
        raise ConvexityViolation(
            f"vertex of face {tri.faces[fi]} lies outside the half-space "
            f"of cap {w} by {slack[fi, w]:.3e}")

    dihedrals = {}
    err = 0.0
    for (u, w) in tri.edges:
        c = -minkowski_dot(normals[u], normals[w])
        dihedrals[(u, w)] = math.acos(min(1.0, max(-1.0, c)))
        err = max(err, abs(dihedrals[(u, w)] - theta[(u, w)]))
    return HyperbolicPolyhedron(
        face_normals=normals, vertices=verts,
        face_cycles=tri.vertex_face_cycles, dihedral_angles=dihedrals,
        angle_error_inf=err)


def export_off(poly: HyperbolicPolyhedron, path) -> None:
    """Write the polyhedron as an ASCII OFF mesh in Klein coordinates.

    Floats are written with repr precision so a re-parse reproduces the
    projected coordinates exactly.
    """
    klein = poly.klein_vertices()
    lines = ["OFF", f"{poly.n_vertices} {poly.n_faces} {poly.n_edges}"]
    for row in klein:
        lines.append(" ".join(repr(float(x)) for x in row))
    for cycle in poly.face_cycles:
        lines.append(" ".join(str(i) for i in (len(cycle), *cycle)))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
