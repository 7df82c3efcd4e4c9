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
from .sphere import (
    MINKOWSKI_METRIC,
    _clamped_acos,
    _elementwise,
    _minkowski_rows,
    _plane_normals,
    common_orthogonal_point,
    minkowski_dot,
)
from .verify import check_contact_graph, check_separating_triples

CONVEXITY_TOL = 1e-9    # slack allowed on half-space membership
INCIDENCE_TOL = 1e-9    # drift of a vertex off its defining planes
SLACK_BLOCK_FLOATS = 1 << 18   # face x cap slacks held at once, about


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


def _positive_definite(g: np.ndarray) -> np.ndarray:
    """Sylvester's criterion on a stack of 3 x 3 matrices."""
    return ((g[..., 0, 0] > 0.0)
            & (g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0] > 0.0)
            & (np.linalg.det(g) > 0.0))


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
    target = np.array([theta[e] for e in tri.edges])
    det = _face_gram_dets(target[tri.face_edge_array])
    bad = np.flatnonzero(det <= 0.0)
    if bad.size:
        raise NotPositiveDefinite(
            f"target angles on face {tri.faces[bad[0]]} are not realizable "
            f"(Gram determinant {float(det[bad[0]]):.3e})")

    normals = _plane_normals(cfg.centers, cfg.radii)
    verts = _face_vertices(tri, normals)

    # slack[f, w] = minkowski_dot(vertex of face f, normal of cap w), in
    # blocks of faces; a block has two rows at least, because a one-row
    # product takes another BLAS path that rounds differently
    rows = max(2, SLACK_BLOCK_FLOATS // tri.n_vertices)
    for block in np.array_split(np.arange(tri.n_faces),
                                max(1, tri.n_faces // rows)):
        slack = (verts[block, :3] @ normals[:, :3].T
                 - np.outer(verts[block, 3], normals[:, 3]))
        slack[np.arange(len(block))[:, None], tri.face_array[block]] = -np.inf
        outside = np.flatnonzero(slack > CONVEXITY_TOL)
        if outside.size:
            fi, w = divmod(int(outside[0]), tri.n_vertices)
            raise ConvexityViolation(
                f"vertex of face {tri.faces[block[fi]]} lies outside the "
                f"half-space of cap {w} by {slack[fi, w]:.3e}")

    eu, ev = tri.edge_array.T
    dihedral = _elementwise(
        _clamped_acos, -_minkowski_rows(normals[eu], normals[ev]))
    return HyperbolicPolyhedron(
        face_normals=normals, vertices=verts,
        face_cycles=tri.vertex_face_cycles,
        dihedral_angles=dict(zip(tri.edges, dihedral.tolist())),
        angle_error_inf=float(np.max(np.abs(dihedral - target))))


def _face_gram_dets(th: np.ndarray) -> np.ndarray:
    """face_gram_det of every row (theta_i, theta_j, theta_k) of th."""
    ti, tj, tk = th.T
    s = 0.5 * (ti + tj + tk)
    cs, ck, ci, cj = (_elementwise(math.cos, x)
                      for x in (s, s - tk, s - ti, s - tj))
    return -4.0 * (cs * ck * ci * cj)


def _face_vertices(tri: Triangulation, normals: np.ndarray) -> np.ndarray:
    """face_vertex of every face's three plane normals, one row per face.

    The first face, in face order, whose planes do not meet raises what
    face_vertex raises for it: NotPositiveDefinite for a failed Gram test,
    common_orthogonal_point's PreconditionViolated after a passed one.
    """
    rows = normals[tri.face_array]
    ok = _positive_definite(_minkowski_rows(rows[:, :, None], rows[:, None]))
    meet = len(ok) if ok.all() else int(np.argmin(ok))
    _, sv, vt = np.linalg.svd(rows[:meet] @ MINKOWSKI_METRIC)
    q = vt[:, -1]
    q2 = _minkowski_rows(q, q)
    if np.any((sv[:, -1] < 1e-8 * sv[:, 0]) | (q2 >= -1e-12)):
        raise PreconditionViolated(
            "planes do not meet in a single hyperbolic point")
    if meet < len(ok):
        raise NotPositiveDefinite(
            f"planes of face {tri.faces[meet]} do not meet: plane normals "
            "have a non-positive-definite Gram matrix")
    q = q / np.sqrt(-q2)[:, None]
    return np.where(q[:, 3:] > 0.0, q, -q)


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
