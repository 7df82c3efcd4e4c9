"""Tests for the hyperbolic polyhedron construction.

Frozen expectations:

* uniform angles 2*pi/3 on a face: the closed-form Gram determinant is
  -4*cos(pi)*cos(pi/3)^3 = 0.5,
* symmetric octahedron pattern: adjacent plane normals have Minkowski
  product -cos(2*pi/5), and each Klein vertex coordinate has magnitude
  sqrt(cos(2*pi/5) / (1 + cos(2*pi/5))) = 0.4858682717566457 so vertex
  norms sit at sqrt(3) times that, well inside the unit ball,
* octahedron pattern builds a combinatorial cube (8 vertices, 6 faces,
  12 edges); a triangular bipyramid builds a prism (6, 5, 9).

The array passes over faces and edges in build_polyhedron are compared
bit for bit with the per-face face_vertex loop and the per-edge
minkowski_dot loop they replaced, failures included.
"""

import itertools
import math
import re

import numpy as np
import pytest

import katsphere.polyhedron
from katsphere.angles import AngleAssignment
from katsphere.catalog import bipyramid, icosahedron
from katsphere.errors import (
    ConvexityViolation,
    DegenerateCap,
    NotPositiveDefinite,
    PreconditionViolated,
)
from katsphere.polyhedron import (
    HyperbolicPolyhedron,
    build_polyhedron,
    export_off,
    face_gram,
    face_gram_det,
    face_vertex,
)
from katsphere.solver import Configuration, pattern_angles
from katsphere.sphere import Cap, cap_plane_normal, minkowski_dot

OCT_ANGLE = 2.0 * math.pi / 5.0
OCT_SYMMETRIC_RHO = 1.0634400235777521
KLEIN_COORD = 0.4858682717566457     # sqrt(cos(2pi/5) / (1 + cos(2pi/5)))


def symmetric_octahedron_configuration(tri) -> Configuration:
    axes = {}
    for u in range(6):
        for v in range(u + 1, 6):
            if v not in tri.adjacent[u]:
                axes.setdefault(len(axes), (u, v))
    centers = np.zeros((6, 3))
    for k, (u, v) in axes.items():
        centers[u, k] = 1.0
        centers[v, k] = -1.0
    radii = np.full(6, OCT_SYMMETRIC_RHO)
    return Configuration(tri, centers, radii, tri.faces[0])


def assert_incidence_and_convexity(tri, poly):
    for fi, f in enumerate(tri.faces):
        for v in range(tri.n_vertices):
            slack = minkowski_dot(poly.vertices[fi], poly.face_normals[v])
            if v in f:
                assert abs(slack) <= 1e-9
            else:
                assert slack <= 1e-9


class TestFaceGram:
    def test_right_angles_give_identity(self):
        g = face_gram(math.pi / 2, math.pi / 2, math.pi / 2)
        assert np.allclose(g, np.eye(3), atol=1e-15)
        assert face_gram_det(math.pi / 2, math.pi / 2, math.pi / 2) == (
            pytest.approx(1.0, abs=1e-15))

    def test_angle_sum_pi_is_singular(self):
        assert face_gram_det(0.3, 0.5, math.pi - 0.8) == pytest.approx(
            0.0, abs=1e-15)

    def test_uniform_obtuse_value(self):
        # -4 * cos(pi) * cos(pi/3)^3 = 0.5
        t = 2.0 * math.pi / 3.0
        assert face_gram_det(t, t, t) == pytest.approx(0.5, abs=1e-12)
        assert np.linalg.det(face_gram(t, t, t)) == pytest.approx(
            0.5, abs=1e-12)

    def test_closed_form_matches_numeric(self, rng):
        for _ in range(1000):
            ti, tj, tk = rng.uniform(0.0, math.pi, size=3)
            closed = face_gram_det(ti, tj, tk)
            numeric = float(np.linalg.det(face_gram(ti, tj, tk)))
            assert closed == pytest.approx(numeric, abs=1e-12)

    def test_realizable_triples_are_positive_definite(self, rng):
        found = 0
        while found < 200:
            t = rng.uniform(0.0, math.pi, size=3)
            if t.sum() <= math.pi:
                continue
            if any(t[i] + t[j] >= t[k] + math.pi
                   for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1))):
                continue
            found += 1
            g = face_gram(*t)
            assert g[0, 0] > 0.0
            assert np.linalg.det(g[:2, :2]) > 0.0
            assert face_gram_det(*t) > 0.0


class TestPlaneNormal:
    def test_great_circle_normal(self):
        n = cap_plane_normal(Cap(np.array([1.0, 0.0, 0.0]), math.pi / 2))
        assert np.allclose(n, [1.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_orthogonal_caps_have_orthogonal_normals(self):
        a = cap_plane_normal(Cap(np.array([1.0, 0.0, 0.0]), math.pi / 2))
        b = cap_plane_normal(Cap(np.array([0.0, 1.0, 0.0]), math.pi / 2))
        assert minkowski_dot(a, b) == pytest.approx(0.0, abs=1e-15)

    def test_octahedron_adjacent_product(self, oct_tri):
        # adjacent caps sit at distance pi/2, so the product reduces to
        # -cot(rho)^2 = -cos(2*pi/5)
        cfg = symmetric_octahedron_configuration(oct_tri)
        u, v = oct_tri.edges[0]
        prod = -minkowski_dot(cap_plane_normal(cfg.cap(u)),
                              cap_plane_normal(cfg.cap(v)))
        assert prod == pytest.approx(math.cos(OCT_ANGLE), abs=1e-12)


class TestFaceVertex:
    def test_coordinate_great_circles_meet_at_apex(self):
        normals = [cap_plane_normal(Cap(np.eye(3)[i], math.pi / 2))
                   for i in range(3)]
        q = face_vertex(*normals)
        assert np.allclose(q, [0.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_symmetric_octahedron_corner(self, oct_tri):
        cfg = symmetric_octahedron_configuration(oct_tri)
        caps = [Cap(np.eye(3)[i], OCT_SYMMETRIC_RHO) for i in range(3)]
        q = face_vertex(*(cap_plane_normal(c) for c in caps))
        klein = q[:3] / q[3]
        assert np.allclose(klein, KLEIN_COORD, atol=1e-12)

    def test_concentric_caps_rejected(self):
        p = np.array([0.0, 0.0, 1.0])
        n1 = cap_plane_normal(Cap(p, 0.4))
        n2 = cap_plane_normal(Cap(p, 0.9))
        n3 = cap_plane_normal(Cap(np.array([1.0, 0.0, 0.0]), 0.7))
        with pytest.raises(NotPositiveDefinite):
            face_vertex(n1, n2, n3)


class TestBuildPolyhedron:
    def test_octahedron_yields_cube(self, oct_tri, solved_oct):
        cfg, theta = solved_oct
        poly = build_polyhedron(oct_tri, cfg, theta)
        assert (poly.n_vertices, poly.n_faces, poly.n_edges) == (8, 6, 12)
        assert poly.n_vertices - poly.n_edges + poly.n_faces == 2
        for angle in poly.dihedral_angles.values():
            assert angle == pytest.approx(OCT_ANGLE, abs=1e-8)
        assert poly.angle_error_inf <= 1e-8
        assert np.all(np.linalg.norm(poly.klein_vertices(), axis=1) < 1.0)
        assert_incidence_and_convexity(oct_tri, poly)
        # trivalence: each polyhedron vertex appears on exactly 3 faces
        counts = {i: 0 for i in range(poly.n_vertices)}
        for cycle in poly.face_cycles:
            for i in cycle:
                counts[i] += 1
        assert set(counts.values()) == {3}

    def test_symmetric_octahedron_klein_coordinates(self, oct_tri):
        cfg = symmetric_octahedron_configuration(oct_tri)
        theta = AngleAssignment.constant(oct_tri, OCT_ANGLE)
        poly = build_polyhedron(oct_tri, cfg, theta)
        klein = poly.klein_vertices()
        assert np.allclose(np.abs(klein), KLEIN_COORD, atol=1e-12)
        norms = np.linalg.norm(klein, axis=1)
        assert np.allclose(norms, math.sqrt(3.0) * KLEIN_COORD, atol=1e-12)
        assert poly.angle_error_inf <= 1e-12
        assert_incidence_and_convexity(oct_tri, poly)

    def test_bipyramid_yields_prism(self, bp3, solved_bp3):
        cfg, theta = solved_bp3
        poly = build_polyhedron(bp3, cfg, theta)
        assert (poly.n_vertices, poly.n_faces, poly.n_edges) == (6, 5, 9)
        assert poly.n_vertices - poly.n_edges + poly.n_faces == 2
        assert poly.angle_error_inf <= 1e-8
        assert_incidence_and_convexity(bp3, poly)
        # the prism has two triangle faces (the apex caps) and three
        # quadrilaterals (the equator caps)
        lengths = sorted(len(c) for c in poly.face_cycles)
        assert lengths == [3, 3, 4, 4, 4]

    def test_icosahedron_build(self, ico_tri, solved_ico):
        cfg, theta = solved_ico
        poly = build_polyhedron(ico_tri, cfg, theta)
        assert (poly.n_vertices, poly.n_faces, poly.n_edges) == (20, 12, 30)
        assert poly.angle_error_inf <= 1e-8
        assert np.all(np.linalg.norm(poly.klein_vertices(), axis=1) < 1.0)
        assert_incidence_and_convexity(ico_tri, poly)

    def test_shared_triple_point_refused(self, bp3):
        # equator caps large enough to share the north pole: the contact
        # graph is fine but the separating triple is not empty
        centers = np.array([
            [1.0, 0.0, 0.0],
            [-0.5, math.sqrt(3.0) / 2.0, 0.0],
            [-0.5, -math.sqrt(3.0) / 2.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, 0.0, -1.0],
        ])
        radii = np.array([1.58, 1.58, 1.58, 0.4, 0.4])
        cfg = Configuration(bp3, centers, radii, bp3.faces[0])
        from katsphere.verify import check_contact_graph
        assert check_contact_graph(bp3, cfg).ok
        theta = AngleAssignment.constant(bp3, 2.0)
        with pytest.raises(PreconditionViolated, match="separating triple"):
            build_polyhedron(bp3, cfg, theta)

    def test_broken_contact_refused(self, oct_tri):
        cfg = symmetric_octahedron_configuration(oct_tri)
        cfg = cfg.with_data(cfg.centers.copy(), np.full(6, math.pi / 2))
        theta = AngleAssignment.constant(oct_tri, math.pi / 2)
        with pytest.raises(PreconditionViolated, match="contact"):
            build_polyhedron(oct_tri, cfg, theta)

    def test_unrealizable_target_angles_refused(self, oct_tri, solved_oct):
        cfg, _ = solved_oct
        thin = AngleAssignment.constant(oct_tri, 0.2 * math.pi)
        with pytest.raises(NotPositiveDefinite):
            build_polyhedron(oct_tri, cfg, thin)

    @pytest.mark.parametrize("block_rows", [2, 3, 7])
    def test_slack_blocks_do_not_change_the_outcome(self, realized_geodesic42,
                                                    monkeypatch, rng,
                                                    block_rows):
        tri, cfg, _ = realized_geodesic42
        centers = cfg.centers + 1e-3 * rng.normal(size=cfg.centers.shape)
        centers /= np.linalg.norm(centers, axis=1)[:, None]
        cfg = cfg.with_data(centers, cfg.radii)
        theta = AngleAssignment(pattern_angles(cfg))
        want = build_polyhedron(tri, cfg, theta)
        # the slacks in one product, with a tolerance that only faces of
        # the second half exceed, so the violation lies past the first block
        v, n = want.vertices, want.face_normals
        slack = v[:, :3] @ n[:, :3].T - np.outer(v[:, 3], n[:, 3])
        slack[np.arange(tri.n_faces)[:, None], tri.faces] = -np.inf
        tol = float(np.max(slack[:tri.n_faces // 2]))
        fi, w = divmod(int(np.flatnonzero(slack > tol)[0]), tri.n_vertices)
        assert fi >= tri.n_faces // 2
        monkeypatch.setattr(katsphere.polyhedron, "SLACK_BLOCK_FLOATS",
                            block_rows * tri.n_vertices)
        got = build_polyhedron(tri, cfg, theta)
        assert got.vertices.tobytes() == want.vertices.tobytes()
        monkeypatch.setattr(katsphere.polyhedron, "CONVEXITY_TOL", tol)
        with pytest.raises(ConvexityViolation) as exc:
            build_polyhedron(tri, cfg, theta)
        assert str(exc.value) == (
            f"vertex of face {tri.faces[fi]} lies outside the half-space "
            f"of cap {w} by {slack[fi, w]:.3e}")

    def test_convexity_check_matches_scalar_oracle(self, realized_geodesic42,
                                                   monkeypatch, rng):
        # the realized pattern, jiggled so that equal slacks do not hide
        # the order of the search, with the angles it then realizes
        tri, cfg, _ = realized_geodesic42
        centers = cfg.centers + 1e-3 * rng.normal(size=cfg.centers.shape)
        centers /= np.linalg.norm(centers, axis=1)[:, None]
        cfg = cfg.with_data(centers, cfg.radii)
        theta = AngleAssignment(pattern_angles(cfg))
        poly = build_polyhedron(tri, cfg, theta)
        # slow oracle: one minkowski_dot per face vertex and non-incident
        # cap, in face-major order
        slack = {(fi, w): minkowski_dot(poly.vertices[fi],
                                        poly.face_normals[w])
                 for fi, f in enumerate(tri.faces)
                 for w in range(tri.n_vertices) if w not in f}
        assert max(slack.values()) <= katsphere.polyhedron.CONVEXITY_TOL
        # a tolerance inside the slack range, clear of every slack value,
        # must be reported at the first pair above it
        values = np.sort(list(slack.values()))
        k = next(i for i in range(99 * len(values) // 100, len(values) - 1)
                 if values[i + 1] - values[i] > 1e-9)
        tol = 0.5 * (values[k] + values[k + 1])
        fi, w = next(key for key, val in slack.items() if val > tol)
        monkeypatch.setattr(katsphere.polyhedron, "CONVEXITY_TOL", tol)
        with pytest.raises(ConvexityViolation, match=re.escape(
                f"face {tri.faces[fi]} lies outside the half-space of "
                f"cap {w} by")):
            build_polyhedron(tri, cfg, theta)


class TestExportOff:
    def test_off_round_trip(self, oct_tri, tmp_path):
        cfg = symmetric_octahedron_configuration(oct_tri)
        theta = AngleAssignment.constant(oct_tri, OCT_ANGLE)
        poly = build_polyhedron(oct_tri, cfg, theta)
        path = tmp_path / "cube.off"
        export_off(poly, path)
        lines = path.read_text(encoding="ascii").splitlines()
        assert lines[0] == "OFF"
        assert lines[1] == "8 6 12"
        parsed = np.array([[float(tok) for tok in line.split()]
                           for line in lines[2:10]])
        assert np.array_equal(parsed, poly.klein_vertices())
        face_lines = [line.split() for line in lines[10:16]]
        for toks in face_lines:
            assert int(toks[0]) == len(toks) - 1 == 4
            assert all(0 <= int(t) < 8 for t in toks[1:])
        assert np.all(np.linalg.norm(parsed, axis=1) < 1.0)

    def test_empty_polyhedron_refused(self):
        with pytest.raises(PreconditionViolated):
            HyperbolicPolyhedron(np.empty((0, 4)), np.empty((0, 4)), (), {})


class TestCombinatorialDuality:
    def test_face_cycles_match_dual(self, bp3, solved_bp3):
        # the polyhedron's face lattice is the dual complex: face v
        # is the cycle of triangulation faces around v
        cfg, theta = solved_bp3
        poly = build_polyhedron(bp3, cfg, theta)
        for v in range(bp3.n_vertices):
            cycle = poly.face_cycles[v]
            assert len(cycle) == bp3.degree(v)
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                # consecutive polyhedron vertices come from faces
                # sharing an edge through v
                shared = set(bp3.faces[a]) & set(bp3.faces[b])
                assert v in shared and len(shared) == 2

    def test_all_edges_present(self, oct_tri, solved_oct):
        cfg, theta = solved_oct
        poly = build_polyhedron(oct_tri, cfg, theta)
        assert set(poly.dihedral_angles) == set(oct_tri.edges)
        edge_pairs = set()
        for cycle in poly.face_cycles:
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                edge_pairs.add(frozenset((a, b)))
        # 12 geometric edges, each shared by two face cycles
        assert len(edge_pairs) == 12


# ---------------------------------------------------------------------------
# slow oracles for the array passes over faces and edges
# ---------------------------------------------------------------------------

def oracle_normals(tri, cfg):
    return np.vstack([cap_plane_normal(cfg.cap(v))
                      for v in range(tri.n_vertices)])


def oracle_face_vertices(tri, normals):
    """The per-face face_vertex loop that build_polyhedron replaced."""
    verts = np.empty((tri.n_faces, 4))
    for fi, (i, j, k) in enumerate(tri.faces):
        try:
            verts[fi] = face_vertex(normals[i], normals[j], normals[k])
        except NotPositiveDefinite as exc:
            raise NotPositiveDefinite(
                f"planes of face {(i, j, k)} do not meet: {exc}") from exc
    return verts


def outcome(fn, *args):
    """The bytes fn returns, or the type and message of what it raises."""
    try:
        return fn(*args).tobytes()
    except Exception as exc:
        return type(exc), str(exc)


def near_ideal_normals():
    """Three orthonormal plane normals whose common point q lies a
    Minkowski norm of about 1e-13 off the light cone: the Gram test passes
    and common_orthogonal_point refuses."""
    eta = 1e-13
    tilt = np.array([1.0 + eta, 0.0, 0.0, 1.0])
    return (np.array([0.0, 1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0, 0.0]),
            tilt / math.sqrt(minkowski_dot(tilt, tilt)))


def near_dependent_normals():
    """Three plane normals that meet at the ball center, with an exactly
    positive Gram determinant of 2**-52 but a smallest singular value
    below 1e-8 of the largest, so common_orthogonal_point refuses."""
    return (np.array([0.0, 1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0, 0.0]),
            np.array([2.0 ** -26, 0.0, 1.0, 0.0]))


def shrunk_octahedron_configuration(tri):
    """Caps 3 and 5 of the symmetric octahedron shrunk to 0.8: every edge
    still overlaps, but on face (3, 1, 5) the overlap angles sum to less
    than pi, so its planes do not meet."""
    cfg = symmetric_octahedron_configuration(tri)
    radii = cfg.radii.copy()
    radii[[3, 5]] = 0.8
    return cfg.with_data(cfg.centers, radii)


class TestArrayPassOracles:
    def test_vertices_and_dihedrals_match_loops(self, oct_tri, solved_oct, bp3,
                                                solved_bp3, ico_tri,
                                                solved_ico,
                                                realized_geodesic42):
        sym = symmetric_octahedron_configuration(oct_tri)
        for tri, cfg, theta in (
                (oct_tri, *solved_oct), (bp3, *solved_bp3),
                (ico_tri, *solved_ico), realized_geodesic42,
                (oct_tri, sym, AngleAssignment.constant(oct_tri, OCT_ANGLE))):
            poly = build_polyhedron(tri, cfg, theta)
            normals = oracle_normals(tri, cfg)
            assert poly.face_normals.tobytes() == normals.tobytes()
            assert poly.vertices.tobytes() == \
                oracle_face_vertices(tri, normals).tobytes()
            dihedrals, err = {}, 0.0
            for (u, w) in tri.edges:
                c = -minkowski_dot(normals[u], normals[w])
                dihedrals[(u, w)] = math.acos(min(1.0, max(-1.0, c)))
                err = max(err, abs(dihedrals[(u, w)] - theta[(u, w)]))
            assert repr(poly.dihedral_angles) == repr(dihedrals)
            assert poly.angle_error_inf == err

    def test_face_gram_dets_match_scalar(self, rng):
        th = rng.uniform(0.05, math.pi - 0.05, size=(200, 3))
        want = [face_gram_det(*row) for row in th.tolist()]
        assert katsphere.polyhedron._face_gram_dets(th).tolist() == want

    def test_gram_failure_raises_like_the_loop(self, oct_tri):
        cfg = shrunk_octahedron_configuration(oct_tri)
        want = outcome(oracle_face_vertices, oct_tri,
                       oracle_normals(oct_tri, cfg))
        assert want == (NotPositiveDefinite,
                        "planes of face (3, 1, 5) do not meet: plane normals "
                        "have a non-positive-definite Gram matrix")
        theta = AngleAssignment.constant(oct_tri, OCT_ANGLE)
        with pytest.raises(NotPositiveDefinite) as exc:
            build_polyhedron(oct_tri, cfg, theta)
        assert str(exc.value) == want[1]

    def test_svd_failure_raises_like_the_loop(self, oct_tri):
        # a triple that fails either test of common_orthogonal_point on
        # the first face (0, 2, 4), alone and ahead of the Gram failure on
        # face (3, 1, 5)
        for cfg, triple in itertools.product(
                (symmetric_octahedron_configuration(oct_tri),
                 shrunk_octahedron_configuration(oct_tri)),
                (near_ideal_normals(), near_dependent_normals())):
            normals = oracle_normals(oct_tri, cfg)
            normals[[0, 2, 4]] = triple
            want = outcome(oracle_face_vertices, oct_tri, normals)
            assert want == (PreconditionViolated,
                            "planes do not meet in a single hyperbolic point")
            assert outcome(katsphere.polyhedron._face_vertices, oct_tri,
                           normals) == want

    def test_random_normals_match_the_loop(self, rng):
        kinds = set()
        for tri in (bipyramid(5), icosahedron()):
            for _ in range(20):
                centers = rng.normal(size=(tri.n_vertices, 3))
                centers /= np.linalg.norm(centers, axis=1)[:, None]
                cfg = Configuration(tri, centers, rng.uniform(
                    0.3, 2.0, size=tri.n_vertices), tri.faces[0])
                normals = oracle_normals(tri, cfg)
                want = outcome(oracle_face_vertices, tri, normals)
                assert outcome(katsphere.polyhedron._face_vertices, tri,
                               normals) == want
                kinds.add(want[0] if isinstance(want, tuple) else bytes)
        assert NotPositiveDefinite in kinds

    def test_degenerate_cap_raises_like_cap(self, oct_tri):
        sym = symmetric_octahedron_configuration(oct_tri)
        theta = AngleAssignment.constant(oct_tri, OCT_ANGLE)
        centers = sym.centers.copy()
        centers[3] *= 1.0 + 1e-6
        for cfg in (sym.with_data(centers, sym.radii),
                    sym.with_data(sym.centers, np.where(
                        np.arange(6) == 4, math.pi, sym.radii))):
            want = outcome(oracle_normals, oct_tri, cfg)
            assert want[0] is DegenerateCap
            assert outcome(katsphere.polyhedron._plane_normals, cfg) == want
