"""Oriented sphere triangulations and their trivalent duals.

Both are given as lists of oriented face cycles over vertices 0..n-1,
and both builders run one surface check on that list: dense vertex ids,
every directed edge once and its reverse once, Euler characteristic 2,
every vertex link a single cycle in the rotation that check walks, and
connectivity over that rotation.  On top of it a triangulation needs
triangles, no two faces on one vertex set and more than four vertices;
a dual complex needs every vertex of degree 3.  Both classes share one
surface class holding what that check derives: the faces, the vertex
count, the sorted edges, the rotation and the two faces of each edge.
Everything else here (curve enumeration, dualization, primalization) is
derived from the face list and its rotation alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, NamedTuple

import numpy as np

from .errors import (
    NotManifold,
    NotSimple,
    NotSphere,
    NotTrivalent,
    TooFewVertices,
)

Vertex = int
Edge = tuple[int, int]  # undirected, always stored with u < v
Face = tuple[int, int, int]


def norm_edge(u: Vertex, v: Vertex) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class CurveReport:
    """A combinatorial curve on the triangulation.

    kind is one of 'arc2', 'face3', 'separating3', 'separating4',
    'prismatic3', 'prismatic4'.  For arcs, vertices = (endpoint, middle,
    endpoint); for cycles, vertices in cyclic order.
    """

    kind: str
    vertices: tuple[int, ...]
    edges: tuple[Edge, ...]


class _Surface:
    """Oriented sphere given by face cycles, with what _oriented_sphere
    derives from them; do not mutate fields after construction."""

    def __init__(self, faces: tuple[tuple[int, ...], ...], n_vertices: int,
                 edges: tuple[Edge, ...],
                 neighbors: tuple[tuple[int, ...], ...],
                 faces_of_edge: dict[Edge, tuple[int, int]]):
        self.faces = faces
        self.n_vertices = n_vertices
        self.edges = edges                      # sorted; fixes coordinate order
        self.neighbors = neighbors              # cyclic rotation order per vertex
        self.faces_of_edge = faces_of_edge

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(V={self.n_vertices}, "
                f"E={self.n_edges}, F={self.n_faces})")


class Triangulation(_Surface):
    """Immutable oriented triangulation of the sphere.

    Built via build_triangulation; do not mutate fields after construction.
    """

    @cached_property
    def adjacent(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(nb) for nb in self.neighbors)

    @cached_property
    def face_index(self) -> dict[frozenset[int], int]:
        return {frozenset(f): i for i, f in enumerate(self.faces)}

    def degree(self, v: Vertex) -> int:
        return len(self.neighbors[v])

    @cached_property
    def vertex_face_cycles(self) -> tuple[tuple[int, ...], ...]:
        """Face indices around each vertex, following its rotation."""
        return tuple(
            tuple(self.face_index[frozenset((v, x, y))]
                  for x, y in zip(cyc, cyc[1:] + cyc[:1]))
            for v, cyc in enumerate(self.neighbors))

    @cached_property
    def edge_array(self) -> np.ndarray:
        """The edges as a read-only (E, 2) index array, in tri.edges order."""
        return _frozen_index_array(self.edges, 2)

    @cached_property
    def face_array(self) -> np.ndarray:
        """The faces as a read-only (F, 3) index array, in tri.faces order."""
        return _frozen_index_array(self.faces, 3)

    @cached_property
    def face_edge_array(self) -> np.ndarray:
        """Read-only (F, 3) indices into tri.edges of the sides (j, k),
        (k, i) and (i, j) of each face (i, j, k), in tri.faces order."""
        n = self.n_vertices
        e, f = self.edge_array, self.face_array
        a, b = f[:, [1, 2, 0]], f[:, [2, 0, 1]]
        out = np.searchsorted(e[:, 0] * n + e[:, 1],
                              np.minimum(a, b) * n + np.maximum(a, b))
        out.setflags(write=False)
        return out

    @cached_property
    def nonadjacent_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Index arrays (us, vs) of the vertex pairs u < v that share no
        edge, in lexicographic order."""
        n = self.n_vertices
        apart = np.triu(np.ones((n, n), dtype=bool), 1)
        us, vs = zip(*self.edges)
        apart[us, vs] = False
        us, vs = np.nonzero(apart)
        us.setflags(write=False)
        vs.setflags(write=False)
        return us, vs

    # the curve sets, enumerated on first use; read them through
    # two_edge_arcs and separating_cycles
    @cached_property
    def _arcs2(self) -> tuple[CurveReport, ...]:
        return _enumerate_arcs(self)

    @cached_property
    def _separating3(self) -> tuple[CurveReport, ...]:
        return _enumerate_separating(self, 3)

    @cached_property
    def _separating4(self) -> tuple[CurveReport, ...]:
        return _enumerate_separating(self, 4)

    def is_face(self, u: Vertex, v: Vertex, w: Vertex) -> bool:
        return frozenset((u, v, w)) in self.face_index

    @property
    def is_double_tetrahedron(self) -> bool:
        """Triangular bipyramid: 5 vertices, two of them of degree 3."""
        if self.n_vertices != 5:
            return False
        return sum(1 for v in range(5) if self.degree(v) == 3) == 2


def _frozen_index_array(rows, width: int) -> np.ndarray:
    out = np.array(rows, dtype=int).reshape(-1, width)
    out.setflags(write=False)
    return out


def build_triangulation(faces: Iterable[Iterable[int]]) -> Triangulation:
    """Validate an oriented face list and derive the combinatorial structure.

    Raises NotSimple, NotManifold, NotSphere or TooFewVertices when the
    list does not describe a simplicial triangulation of the sphere on
    more than four vertices.
    """
    face_list: list[Face] = []
    for f in faces:
        tf = tuple(int(x) for x in f)
        if len(tf) != 3:
            raise NotSimple(f"face {tf} is not a triangle")
        if len(set(tf)) != 3:
            raise NotSimple(f"face {tf} repeats a vertex")
        if min(tf) < 0:
            raise NotSimple(f"face {tf} has a negative vertex index")
        face_list.append(tf)  # type: ignore[arg-type]
    if not face_list:
        raise TooFewVertices("empty face list")

    seen_sets = set()
    for f in face_list:
        key = frozenset(f)
        if key in seen_sets:
            raise NotSimple(f"two faces share the vertex set {sorted(f)}")
        seen_sets.add(key)

    n, edges, neighbors, faces_of_edge = _oriented_sphere(face_list)
    if n <= 4:
        raise TooFewVertices(f"{n} vertices; at least 5 required")
    return Triangulation(tuple(face_list), n, edges, neighbors,
                         faces_of_edge)


def _oriented_sphere(faces: list[tuple[int, ...]]) -> tuple[
        int, tuple[Edge, ...], tuple[tuple[int, ...], ...],
        dict[Edge, tuple[int, int]]]:
    """Check that oriented face cycles form a connected closed surface of
    Euler characteristic 2, the sphere, on the vertices 0..n-1.

    Returns n, the sorted edges, the rotation (each vertex's neighbors
    in cyclic order) and the two faces of each edge, the face of the
    direction seen first leading.  Raises NotSimple, NotManifold or
    NotSphere.
    """
    vertices = sorted({v for f in faces for v in f})
    n = vertices[-1] + 1
    if vertices != list(range(n)):
        raise NotSimple("vertex indices are not dense from 0")

    # Each directed edge must appear exactly once; the reverse once too.
    # Rotation: at the corner (y, v, x) of a face, the successor of x
    # around v is y.  The corners start at f[0], so the edges of a face
    # enter faces_of_edge in the order f[0]->f[1], f[1]->f[2], ...
    face_of: dict[tuple[int, int], int] = {}
    succ: list[dict[int, int]] = [{} for _ in range(n)]
    for fi, f in enumerate(faces):
        y, v = f[-1], f[0]
        for x in f[1:] + f[:1]:
            if (v, x) in face_of:
                raise NotManifold(f"directed edge {v}->{x} appears twice")
            face_of[v, x] = fi
            succ[v][x] = y
            y, v = v, x
    faces_of_edge: dict[Edge, tuple[int, int]] = {}
    for (u, v), fi in face_of.items():
        e = (u, v) if u < v else (v, u)
        if e not in faces_of_edge:
            if (v, u) not in face_of:
                raise NotManifold(f"edge {{{u},{v}}} lacks a second face")
            faces_of_edge[e] = (fi, face_of[v, u])

    edges = tuple(sorted(faces_of_edge))
    if n - len(edges) + len(faces) != 2:
        raise NotSphere(
            f"Euler characteristic {n - len(edges) + len(faces)} != 2")

    # Every directed edge has its reverse, so each succ[v] permutes the
    # neighbors of v and the walk from any of them closes up.
    neighbors: list[tuple[int, ...]] = []
    for v, nb in enumerate(succ):
        start = next(iter(nb))
        cycle = [start]
        x = nb[start]
        while x != start:
            cycle.append(x)
            x = nb[x]
        if len(cycle) != len(nb):
            raise NotManifold(f"link of vertex {v} is not a single cycle")
        neighbors.append(tuple(cycle))

    # A connected closed surface with chi = 2 is the sphere; a disjoint
    # union such as a sphere plus a torus also sums to chi = 2.
    reached = {0}
    stack = [0]
    while stack:
        for w in neighbors[stack.pop()]:
            if w not in reached:
                reached.add(w)
                stack.append(w)
    if len(reached) < n:
        raise NotSphere(
            f"{n - len(reached)} vertices are not connected to vertex 0")
    return n, edges, tuple(neighbors), faces_of_edge


def two_edge_arcs(tri: Triangulation) -> tuple[CurveReport, ...]:
    """All two-edge arcs whose endpoints are distinct and non-adjacent.

    Each arc is reported once, as (endpoint, middle, endpoint) with the
    endpoints sorted.  The tuple is enumerated once per triangulation.
    """
    return tri._arcs2


def separating_cycles(tri: Triangulation, k: int) -> tuple[CurveReport, ...]:
    """Simple k-cycles (k = 3 or 4) with at least one vertex on each side.

    The triangulation is simplicial on more than four vertices, so
    separation is decided locally: a 3-cycle separates exactly when it is
    not a face, and a 4-cycle (u, a, x, b) fails to separate exactly when
    one diagonal closes two faces inside it, i.e. {u, a, x} and {u, x, b}
    are faces, or {a, x, b} and {a, b, u} are.  The tuple is enumerated
    once per triangulation.
    """
    if k == 3:
        return tri._separating3
    if k == 4:
        return tri._separating4
    raise ValueError(f"cycle length {k} not supported (only 3 and 4)")


def _enumerate_arcs(tri: Triangulation) -> tuple[CurveReport, ...]:
    out = []
    for mid in range(tri.n_vertices):
        nb = sorted(tri.neighbors[mid])
        for i, u in enumerate(nb):
            for w in nb[i + 1:]:
                if w not in tri.adjacent[u]:
                    out.append(CurveReport(
                        kind="arc2",
                        vertices=(u, mid, w),
                        edges=(norm_edge(u, mid), norm_edge(mid, w))))
    return tuple(out)


def _enumerate_separating(tri: Triangulation,
                          k: int) -> tuple[CurveReport, ...]:
    if k == 3:
        raw = [c for c in _three_cycles(tri) if not tri.is_face(*c)]
    else:
        raw = [(u, a, x, b) for (u, a, x, b) in _four_cycles(tri)
               if not (tri.is_face(u, a, x) and tri.is_face(u, x, b)
                       or tri.is_face(a, x, b) and tri.is_face(a, b, u))]
    out = []
    for cyc in raw:
        edges = tuple(norm_edge(cyc[i], cyc[(i + 1) % k]) for i in range(k))
        out.append(CurveReport(kind=f"separating{k}", vertices=cyc,
                               edges=edges))
    return tuple(out)


def _three_cycles(tri: Triangulation) -> list[tuple[int, int, int]]:
    out = []
    for (u, v) in tri.edges:
        for w in sorted(tri.adjacent[u] & tri.adjacent[v]):
            if w > v:
                out.append((u, v, w))
    return out


def _four_cycles(tri: Triangulation) -> list[tuple[int, int, int, int]]:
    # u is the least vertex; a < b are its two cycle neighbors; x opposite.
    out = []
    for u in range(tri.n_vertices):
        nb = sorted(x for x in tri.adjacent[u] if x > u)
        for i, a in enumerate(nb):
            for b in nb[i + 1:]:
                for x in sorted(tri.adjacent[a] & tri.adjacent[b]):
                    if x > u and x != u:
                        out.append((u, a, x, b))
    return out


# -- dual complex ------------------------------------------------------------

class DualComplex(_Surface):
    """Oriented trivalent complex on the sphere (faces as vertex cycles)."""


def build_dual_complex(faces: Iterable[Iterable[int]]) -> DualComplex:
    """Validate a trivalent oriented polyhedral complex given by face cycles.

    Raises NotSimple for a face of fewer than three vertices, a repeated
    vertex or ids not dense from 0; NotManifold when a directed edge
    appears twice or lacks its reverse; NotSphere for an empty list, an
    Euler characteristic other than 2 or a disconnected complex; and
    NotTrivalent when a vertex does not have degree 3.
    """
    face_list: list[tuple[int, ...]] = []
    for f in faces:
        tf = tuple(int(x) for x in f)
        if len(tf) < 3:
            raise NotSimple(f"face {tf} has fewer than three vertices")
        if len(set(tf)) != len(tf):
            raise NotSimple(f"face {tf} repeats a vertex")
        face_list.append(tf)
    if not face_list:
        raise NotSphere("empty face list")

    n, edges, neighbors, faces_of_edge = _oriented_sphere(face_list)
    for v, nb in enumerate(neighbors):
        if len(nb) != 3:
            raise NotTrivalent(f"vertex {v} has degree {len(nb)}, expected 3")
    return DualComplex(tuple(face_list), n, edges, neighbors, faces_of_edge)


def dualize(tri: Triangulation) -> DualComplex:
    """Dual complex: one trivalent vertex per face, one face per vertex."""
    return build_dual_complex(tri.vertex_face_cycles)


class PrimalizeResult(NamedTuple):
    triangulation: Triangulation
    edge_map: dict[Edge, Edge]  # dual edge -> primal edge


def primalize(dual: DualComplex) -> PrimalizeResult:
    """Triangulation whose faces are the trivalent vertices of the dual.

    Also returns the induced bijection from dual edges to primal edges:
    the dual edge {w1, w2} maps to the primal edge joining the two dual
    faces that contain it.
    """
    # Around w with rotation (a, b, c), the face leaving w towards a lies
    # between the edges to a and to b, so it is the face those two share;
    # the triangle of w lists the faces leaving towards b, c and a.
    fe = dual.faces_of_edge
    triangles = []
    for w, (a, b, c) in enumerate(dual.neighbors):
        ea, eb = fe[norm_edge(w, a)], fe[norm_edge(w, b)]
        ec = fe[norm_edge(w, c)]
        triangles.append((_common_face(eb, ec), _common_face(ec, ea),
                          _common_face(ea, eb)))
    tri = build_triangulation(triangles)
    edge_map = {e: norm_edge(f1, f2) for e, (f1, f2) in fe.items()}
    return PrimalizeResult(tri, edge_map)


def _common_face(p: tuple[int, int], q: tuple[int, int]) -> int:
    return p[0] if p[0] in q else p[1]


def prismatic_circuits(dual: DualComplex, k: int) -> tuple[CurveReport, ...]:
    """Length-k circuits (k = 3 or 4) crossing k dual edges with all
    endpoints distinct.

    The circuits live on the primal triangulation of the dual complex;
    vertices in the report are primal vertices, i.e. dual face indices.
    Every prismatic circuit is a separating cycle; for k = 4 the distinct
    flank requirement also excludes cycles two consecutive edges of which
    lie on one triangle.
    """
    tri, _ = primalize(dual)
    out = []
    for rep in separating_cycles(tri, k):
        flanks: list[int] = []
        for e in rep.edges:
            flanks.extend(tri.faces_of_edge[e])
        if len(set(flanks)) == 2 * k:
            out.append(CurveReport(kind=f"prismatic{k}", vertices=rep.vertices,
                                   edges=rep.edges))
    return tuple(out)
