"""Shared fixtures: catalog complexes, solved, realized and obtuse
patterns, a seeded RNG."""

import math

import numpy as np
import pytest

from katsphere.angles import AngleAssignment, check_admissible
from katsphere.catalog import bipyramid, icosahedron, octahedron, stacked_tetrahedra
from katsphere.complexes import build_triangulation, norm_edge
from katsphere.solver import Configuration, pattern_angles, regauge, solve


@pytest.fixture
def rng():
    return np.random.default_rng(20260818)


@pytest.fixture(scope="session")
def oct_tri():
    return octahedron()


@pytest.fixture(scope="session")
def ico_tri():
    return icosahedron()


@pytest.fixture(scope="session")
def bp3():
    return bipyramid(3)


@pytest.fixture(scope="session")
def bp4():
    return bipyramid(4)


@pytest.fixture(scope="session")
def bp5():
    return bipyramid(5)


@pytest.fixture(scope="session")
def stacked2():
    return stacked_tetrahedra(2)


@pytest.fixture(scope="session")
def octahedron_plus_torus(oct_tri):
    """Face list of the octahedron beside a disjoint 6 x 6 grid torus
    (vertices 6..41); the union has Euler characteristic 2 + 0 = 2."""
    def at(i, j):
        return 6 + 6 * (i % 6) + j % 6
    torus = []
    for i in range(6):
        for j in range(6):
            a, b, c, d = at(i, j), at(i + 1, j), at(i + 1, j + 1), at(i, j + 1)
            torus += [(a, b, c), (a, c, d)]
    return list(oct_tri.faces) + torus


@pytest.fixture(scope="session")
def cube_plus_torus_dual(octahedron_plus_torus):
    """Face cycles dual to octahedron_plus_torus: the cube beside the
    hexagonal dual of the grid torus, 80 trivalent vertices (8 + 72) with
    Euler characteristic 2 + 0.  Dual vertex i is triangle i; the faces
    around each primal vertex are walked on the face list itself, in the
    order of Triangulation.vertex_face_cycles."""
    succ = {}
    for fi, (a, b, c) in enumerate(octahedron_plus_torus):
        for v, x, y in ((a, b, c), (b, c, a), (c, a, b)):
            succ.setdefault(v, {})[x] = (y, fi)
    cycles = []
    for v in sorted(succ):
        start = x = next(iter(succ[v]))
        cycle = []
        while True:
            x, fi = succ[v][x]
            cycle.append(fi)
            if x == start:
                break
        cycles.append(cycle)
    return cycles


@pytest.fixture(scope="session")
def solved_oct(oct_tri):
    theta = AngleAssignment.constant(oct_tri, 2.0 * math.pi / 5.0)
    cfg, rep = solve(oct_tri, theta)
    assert rep.converged
    return cfg, theta


@pytest.fixture(scope="session")
def solved_bp3(bp3):
    theta = AngleAssignment({e: (0.3 if e[1] < 3 else 1.5) for e in bp3.edges})
    cfg, rep = solve(bp3, theta)
    assert rep.converged
    return cfg, theta


@pytest.fixture(scope="session")
def solved_ico(ico_tri):
    theta = AngleAssignment.constant(ico_tri, 0.45 * math.pi)
    cfg, rep = solve(ico_tri, theta)
    assert rep.converged
    return cfg, theta


def _icosahedron_positions(tri):
    """Unit vectors for catalog.icosahedron: vertex 0 on top, upper ring
    1..5, lower ring 6..10 turned by pi/5, vertex 11 below; mirrored if
    that embedding reverses the face orientation."""
    pts = np.zeros((12, 3))
    pts[0], pts[11] = (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)
    z, r = 1.0 / math.sqrt(5.0), 2.0 / math.sqrt(5.0)
    for i in range(1, 6):
        a = 2.0 * math.pi * (i - 1) / 5.0
        pts[i] = (r * math.cos(a), r * math.sin(a), z)
        pts[i + 5] = (r * math.cos(a + math.pi / 5.0),
                      r * math.sin(a + math.pi / 5.0), -z)
    a, b, c = tri.faces[0]
    if float(np.cross(pts[b] - pts[a], pts[c] - pts[a]) @ pts[a]) < 0.0:
        pts[:, 1] *= -1.0
    return pts


def geodesic(level):
    """The icosahedron midpoint-subdivided `level` times, with its unit
    vertex positions: (triangulation, (n, 3) array)."""
    ico = icosahedron()
    pts = list(_icosahedron_positions(ico))
    faces = list(ico.faces)
    for _ in range(level):
        mid = {}

        def midpoint(u, v):
            e = norm_edge(u, v)
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
    return build_triangulation(faces), np.array(pts)


def realized_geodesic(level):
    """The icosahedron subdivided `level` times with a cap of 0.6 times
    the longest incident edge on every vertex, gauged on its first face,
    and the angles it realizes: (triangulation, configuration, angles)."""
    tri, pos = geodesic(level)
    radii = np.array([
        0.6 * float(np.max(np.arccos(np.clip(
            pos[list(tri.neighbors[v])] @ pos[v], -1.0, 1.0))))
        for v in range(tri.n_vertices)])
    cfg = regauge(Configuration(tri, pos, radii, tri.faces[0]), tri.faces[0])
    return tri, cfg, AngleAssignment(pattern_angles(cfg))


@pytest.fixture(scope="session")
def realized_geodesic42():
    """realized_geodesic(1): 42 vertices."""
    return realized_geodesic(1)


@pytest.fixture(scope="session")
def geodesic162():
    """The twice-subdivided icosahedron, 162 vertices."""
    return geodesic(2)[0]


def greedy_obtuse(tri, seed):
    """Obtuse angles from the conditions, not from geometry: every edge
    starts at 0.4 pi, and in a seeded order each is raised to 0.55 pi,
    the raise kept only while the assignment stays admissible."""
    th = {e: 0.4 * math.pi for e in tri.edges}
    rng = np.random.default_rng(seed)
    for i in rng.permutation(tri.n_edges):
        e = tri.edges[i]
        th[e] = 0.55 * math.pi
        if not check_admissible(tri, AngleAssignment(th)).ok:
            th[e] = 0.4 * math.pi
    return AngleAssignment(th)


@pytest.fixture(scope="session")
def obtuse_bipyramid8():
    """bipyramid(8) with greedy obtuse angles at seed 0 (a third of the
    edges obtuse): (triangulation, angles)."""
    tri = bipyramid(8)
    return tri, greedy_obtuse(tri, 0)


@pytest.fixture(scope="session")
def obtuse_geodesic42():
    """The 42-vertex geodesic sphere with greedy obtuse angles at seed 0
    (29 % of the edges obtuse): (triangulation, angles)."""
    tri = geodesic(1)[0]
    return tri, greedy_obtuse(tri, 0)
