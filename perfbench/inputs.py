"""Input generators for the katsphere benchmark.

Everything here runs during set-up only.  The generators return plain
face lists (and, for geodesic meshes, vertex positions) so that every
timed operation builds its own fresh `Triangulation`, exactly as the
command line does when it reads a complex file.
"""

from __future__ import annotations

import math

import numpy as np

from katsphere import angles, catalog, complexes, solver

UNIFORM = 2.0 * math.pi / 5.0     # admissible on every geodesic level
PERTURBATION = 0.5                # radians, uniform in [-0.5, 0.5]
REALIZED_RADIUS = 0.6             # cap radius per longest incident edge


def _icosahedron_positions() -> np.ndarray:
    """Unit vectors for `catalog.icosahedron`: vertex 0 on top, upper
    ring 1..5, lower ring 6..10 turned by pi/5, vertex 11 below."""
    pts = np.zeros((12, 3))
    pts[0] = (0.0, 0.0, 1.0)
    pts[11] = (0.0, 0.0, -1.0)
    z, r = 1.0 / math.sqrt(5.0), 2.0 / math.sqrt(5.0)
    for i in range(1, 6):
        a = 2.0 * math.pi * (i - 1) / 5.0
        pts[i] = (r * math.cos(a), r * math.sin(a), z)
        b = a + math.pi / 5.0
        pts[i + 5] = (r * math.cos(b), r * math.sin(b), -z)
    return pts


def geodesic(level: int) -> tuple[list[tuple[int, int, int]], np.ndarray]:
    """Midpoint subdivision of the icosahedron, `level` times.

    Returns the oriented face list and the unit vertex positions; the
    mesh has 10 * 4**level + 2 vertices.  Midpoints are numbered in the
    order they are first met, so the labelling is deterministic.
    """
    faces = list(catalog.icosahedron().faces)
    pts = list(_icosahedron_positions())
    a, b, c = faces[0]
    if float(np.cross(pts[b] - pts[a], pts[c] - pts[a]) @ pts[a]) < 0.0:
        pts = [p * np.array([1.0, -1.0, 1.0]) for p in pts]
    for _ in range(level):
        mid: dict[tuple[int, int], int] = {}

        def midpoint(u: int, v: int) -> int:
            e = complexes.norm_edge(u, v)
            if e not in mid:
                p = pts[u] + pts[v]
                pts.append(p / np.linalg.norm(p))
                mid[e] = len(pts) - 1
            return mid[e]

        finer = []
        for (a, b, c) in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            finer += [(a, ab, ca), (ab, b, bc), (ca, bc, c), (ab, bc, ca)]
        faces = finer
    return faces, np.array(pts)


def realized_pattern(faces, positions: np.ndarray):
    """A realizable pattern on a geodesic mesh and its own angles.

    Each vertex gets a cap of radius REALIZED_RADIUS times its longest
    incident edge; the pattern is then moved into the gauge of the first
    face.  The target angles are read after regauging: read before, the
    boost's rounding leaves the 642-vertex pattern outside ANGLE_TOL.
    Returns (triangulation, configuration, angle assignment).
    """
    tri = complexes.build_triangulation(faces)
    radii = np.empty(tri.n_vertices)
    for v in range(tri.n_vertices):
        dots = positions[list(tri.neighbors[v])] @ positions[v]
        radii[v] = REALIZED_RADIUS * float(np.max(np.arccos(np.clip(dots, -1, 1))))
    cfg = solver.Configuration(tri, positions.copy(), radii, tri.faces[0])
    cfg = solver.regauge(cfg, tri.faces[0])
    return tri, cfg, angles.AngleAssignment(solver.pattern_angles(cfg))


def perturbed(tri, base: float, rng: np.random.Generator) -> angles.AngleAssignment:
    """The uniform assignment `base` with seeded noise on every edge."""
    noise = rng.uniform(-PERTURBATION, PERTURBATION, size=tri.n_edges)
    return angles.AngleAssignment(
        {e: base + float(d) for e, d in zip(tri.edges, noise)})


def neighbor_sets(faces) -> list[set[int]]:
    """Vertex adjacency read straight off a face list."""
    n = 1 + max(max(f) for f in faces)
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for (a, b, c) in faces:
        for u, v in ((a, b), (b, c), (c, a)):
            nbrs[u].add(v)
            nbrs[v].add(u)
    return nbrs


def geodesic_arc_count(faces) -> int:
    """Two-edge arcs of a mesh without separating 3-cycles: the link of a
    degree-d vertex is a d-cycle, so sum(C(d, 2) - d) over vertices."""
    return sum(math.comb(len(nb), 2) - len(nb) for nb in neighbor_sets(faces))


def expected_violations(faces, theta: angles.AngleAssignment) -> dict[str, int]:
    """Arc-pair and face-triple violations counted directly from the face
    list, as an oracle for `check_admissible` on meshes that have no
    separating 3- or 4-cycles."""
    nbrs = neighbor_sets(faces)
    arc = 0
    for mid, around in enumerate(nbrs):
        ring = sorted(around)
        for i, u in enumerate(ring):
            for w in ring[i + 1:]:
                if w not in nbrs[u]:
                    s = (theta[complexes.norm_edge(u, mid)]
                         + theta[complexes.norm_edge(mid, w)])
                    arc += s > math.pi
    face = 0
    for f in faces:
        ths = [theta[complexes.norm_edge(f[i], f[(i + 1) % 3])] for i in range(3)]
        face += not sum(ths) > math.pi
        face += sum(not ths[i] + ths[(i + 1) % 3] < ths[(i + 2) % 3] + math.pi
                    for i in range(3))
    return {"arc_pair": arc, "face_triple": face}
