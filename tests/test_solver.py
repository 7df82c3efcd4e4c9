"""Solver tests: gauge bookkeeping, derivatives, and convergence.

The Jacobian is checked against central finite differences of the
residual.  Convergence targets reuse the frozen constants derived in
test_sphere (see its module docstring): for the octahedron with all
angles 2*pi/5 the symmetric pattern has all radii equal with
1 - 3 cos^2 rho = 0, and after gauging the three non-gauge radii land at
0.452278 (computed independently by boosting the symmetric pattern so
the gauge planes pass through the ball center).
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from katsphere import solver
from katsphere.angles import AngleAssignment, check_admissible
from katsphere.catalog import bipyramid, icosahedron, octahedron, stacked_tetrahedra
from katsphere.errors import (
    ConditionsViolated,
    DegenerateCap,
    EdgeNotOverlapping,
    NotAFace,
    PreconditionViolated,
)
from katsphere.solver import (
    CENTERING_TOL,
    Configuration,
    SolveOptions,
    _gate_state,
    _jacobian,
    _layout,
    _punctured_start,
    _step,
    apply_step,
    gauge_normalize,
    initial_configuration,
    jacobian,
    pattern_angles,
    regauge,
    residual,
    solve,
)
from katsphere.sphere import (
    Cap,
    _inversive_pairs,
    _normal_caps,
    boost_to_center,
    cap_plane_normal,
    common_orthogonal_point,
    face_excesses,
    inversive_distance,
    minkowski_dot,
    plane_normal_cap,
    signed_excess,
)
from katsphere.polyhedron import build_polyhedron
from katsphere.verify import ANGLE_TOL, verify_pattern

from conftest import greedy_obtuse

SOUTH = np.array([0.0, 0.0, -1.0])

OCT_ANGLE = 2.0 * math.pi / 5.0
# radius of the symmetric octahedron pattern: tan^2 rho = 1 / cos theta
OCT_SYMMETRIC_RHO = 1.0634400235777521
# non-gauge radius after moving one face's planes through the ball center
OCT_GAUGED_RHO = 0.452278
# separation of antipodal caps: I = 1 + 2 cos theta, margin I - 1
OCT_MARGIN = 0.6180339887498945


def symmetric_octahedron_configuration(tri) -> Configuration:
    """The fully symmetric pattern: caps at the six coordinate poles."""
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


def bp3_assignment(tri):
    return AngleAssignment(
        {e: (0.3 if e[1] < 3 else 1.5) for e in tri.edges})


class TestInitialConfiguration:
    def test_gauge_is_exact(self, oct_tri):
        cfg = initial_configuration(oct_tri)
        a, b, c = cfg.gauge_face
        assert np.array_equal(cfg.centers[a], SOUTH)
        assert cfg.centers[b][1] == 0.0 and cfg.centers[b][0] > 0.0
        assert cfg.centers[c][1] > 0.0
        assert np.all(cfg.radii[[a, b, c]] == math.pi / 2)

    def test_centers_are_unit(self, ico_tri):
        cfg = initial_configuration(ico_tri)
        assert np.allclose(np.linalg.norm(cfg.centers, axis=1), 1.0)
        assert np.all(cfg.radii > 0.0) and np.all(cfg.radii < math.pi)

    def test_free_vertices_avoid_gauge_hemispheres(self, oct_tri):
        # the free caps live in the far octant, away from all three
        # gauge cap centers
        cfg = initial_configuration(oct_tri)
        free = [v for v in range(6) if v not in cfg.gauge_face]
        for g in cfg.gauge_face:
            for v in free:
                assert float(cfg.centers[v] @ cfg.centers[g]) < 0.0

    def test_gauge_face_must_be_a_face(self, oct_tri):
        with pytest.raises(NotAFace):
            initial_configuration(oct_tri, (0, 1, 2))

    def test_cyclic_rotation_accepted(self, oct_tri):
        f = oct_tri.faces[0]
        rot = (f[2], f[0], f[1])
        cfg = initial_configuration(oct_tri, rot)
        assert cfg.gauge_face == f

    def test_reversed_face_rejected(self, oct_tri):
        f = oct_tri.faces[0]
        rev = (f[1], f[0], f[2])
        if rev not in [g[k:] + g[:k] for g in oct_tri.faces for k in range(3)]:
            with pytest.raises(NotAFace):
                initial_configuration(oct_tri, rev)

    def test_deterministic(self, ico_tri):
        one = initial_configuration(ico_tri)
        two = initial_configuration(ico_tri)
        assert np.array_equal(one.centers, two.centers)
        assert np.array_equal(one.radii, two.radii)


class TestResidualAndAngles:
    def test_zero_residual_on_symmetric_pattern(self, oct_tri):
        cfg = symmetric_octahedron_configuration(oct_tri)
        theta = AngleAssignment.constant(oct_tri, OCT_ANGLE)
        r = residual(cfg, theta)
        assert np.max(np.abs(r)) < 1e-12

    def test_pattern_angles_match_caps(self, oct_tri):
        cfg = symmetric_octahedron_configuration(oct_tri)
        angles = pattern_angles(cfg)
        for (u, v), th in angles.items():
            direct = math.acos(inversive_distance(cfg.cap(u), cfg.cap(v)))
            assert th == pytest.approx(direct, abs=1e-15)

    def test_separated_edge_raises(self, oct_tri):
        cfg = symmetric_octahedron_configuration(oct_tri)
        radii = cfg.radii.copy()
        radii[:] = 0.2          # tiny caps at the poles no longer cross
        small = cfg.with_data(cfg.centers, radii)
        with pytest.raises(EdgeNotOverlapping):
            pattern_angles(small)
        with pytest.raises(EdgeNotOverlapping):
            residual(small, AngleAssignment.constant(oct_tri, OCT_ANGLE))

    def test_residual_order_follows_edges(self, oct_tri):
        cfg = symmetric_octahedron_configuration(oct_tri)
        theta = {e: OCT_ANGLE for e in oct_tri.edges}
        bump = oct_tri.edges[3]
        theta[bump] = OCT_ANGLE + 0.1
        r = residual(cfg, AngleAssignment(theta))
        assert r[3] == pytest.approx(-0.1, abs=1e-12)
        assert np.max(np.abs(np.delete(r, 3))) < 1e-12


class TestJacobian:
    @pytest.mark.parametrize("maker,angle", [
        (octahedron, OCT_ANGLE),
        (icosahedron, 0.45 * math.pi),
    ])
    def test_matches_finite_differences(self, maker, angle):
        tri = maker()
        theta = AngleAssignment.constant(tri, angle)
        cfg, rep = solve(tri, theta)
        assert rep.converged
        # evaluate a bit off the solution so no derivative vanishes; the
        # nudge must stay small because dI/dr ~ 1/sin^2(r) is steep for
        # the small caps of obtuse patterns
        lay_dim = jacobian(cfg).shape[1]
        rng = np.random.default_rng(11)
        cfg = apply_step(cfg, 0.005 * rng.standard_normal(lay_dim))

        J = jacobian(cfg)
        h = 1e-6
        fd = np.empty_like(J)
        for col in range(J.shape[1]):
            step = np.zeros(J.shape[1])
            step[col] = h
            plus = residual(apply_step(cfg, step), theta)
            minus = residual(apply_step(cfg, -step), theta)
            fd[:, col] = (plus - minus) / (2.0 * h)
        scale = np.maximum(np.abs(fd), 1.0)
        assert np.max(np.abs(J - fd) / scale) < 1e-5

    def test_square_system(self, oct_tri, ico_tri):
        for tri in (oct_tri, ico_tri):
            cfg = initial_configuration(tri)
            J = jacobian(cfg)
            assert J.shape == (tri.n_edges, 3 * tri.n_vertices - 6)
            assert J.shape[0] == J.shape[1]

    def test_nondegenerate_at_solution(self, oct_tri):
        theta = AngleAssignment.constant(oct_tri, OCT_ANGLE)
        cfg, rep = solve(oct_tri, theta)
        sv = np.linalg.svd(jacobian(cfg), compute_uv=False)
        assert sv[-1] > 1e-8 * sv[0]


class TestApplyStep:
    def test_zero_step_is_identity(self, oct_tri):
        cfg = initial_configuration(oct_tri)
        out = apply_step(cfg, np.zeros(3 * 6 - 6))
        assert np.allclose(out.centers, cfg.centers, atol=1e-15)
        assert np.array_equal(out.radii, cfg.radii)

    def test_step_preserves_gauge(self, oct_tri):
        cfg = initial_configuration(oct_tri)
        rng = np.random.default_rng(3)
        out = apply_step(cfg, 0.1 * rng.standard_normal(12))
        a, b, c = out.gauge_face
        assert np.array_equal(out.centers[a], SOUTH)
        assert out.centers[b][1] == 0.0
        assert np.all(out.radii[[a, b, c]] == math.pi / 2)
        assert np.allclose(np.linalg.norm(out.centers, axis=1), 1.0)

    def test_wrong_shape_rejected(self, oct_tri):
        cfg = initial_configuration(oct_tri)
        with pytest.raises(ValueError):
            apply_step(cfg, np.zeros(5))


# ---------------------------------------------------------------------------
# scalar oracles of the gauge chart, in x = log tan(r/2): per-vertex,
# per-edge and per-face loops
# ---------------------------------------------------------------------------

def oracle_layout(tri, gauge):
    """(tangent vertices, tangent columns, radius vertices, radius
    columns) of the gauge chart, as dicts keyed by vertex."""
    a, b, c = gauge
    tangent = sorted(v for v in range(tri.n_vertices) if v not in (a, b))
    radius = sorted(v for v in range(tri.n_vertices) if v not in (a, b, c))
    tangent_col = {v: 1 + 2 * i for i, v in enumerate(tangent)}
    base = 1 + 2 * len(tangent)
    radius_col = {v: base + i for i, v in enumerate(radius)}
    return tangent, tangent_col, radius, radius_col


def oracle_tangent_basis(p):
    seed = np.zeros(3)
    seed[int(np.argmin(np.abs(p)))] = 1.0
    e1 = seed - float(seed @ p) * p
    e1 = e1 / float(np.linalg.norm(e1))
    return e1, np.cross(p, e1)


def oracle_meridian_tangent(p):
    return np.array([-p[2], 0.0, p[0]])


def oracle_jacobian(cfg):
    tri = cfg.tri
    b = cfg.gauge_face[1]
    tangent, tangent_col, radius, radius_col = oracle_layout(
        tri, cfg.gauge_face)
    P, R = cfg.centers, cfg.radii
    cr, sr = np.cos(R), np.sin(R)
    # the solver's edge-wise inversive distances: unit centers and
    # a = sin^2(r/2), numerator |p - q|^2 / 2 - 2 (a_u + a_v) + 4 a_u a_v
    unit = P / np.sqrt([float(p @ p) for p in P])[:, None]
    a = np.sin(0.5 * R) ** 2
    inv = np.empty(tri.n_edges)
    for row, (u, v) in enumerate(tri.edges):
        d = unit[u] - unit[v]
        inv[row] = (0.5 * float(d @ d) - 2.0 * (a[u] + a[v])
                    + 4.0 * a[u] * a[v]) / (sr[u] * sr[v])
    scale = 1.0 / np.sqrt(np.maximum(1.0 - inv * inv, 1e-30))
    bases = {v: oracle_tangent_basis(P[v]) for v in tangent}
    J = np.zeros((tri.n_edges, 3 * tri.n_vertices - 6))
    for row, (u, v) in enumerate(tri.edges):
        s = scale[row]
        denom = sr[u] * sr[v]
        for end, other in ((u, v), (v, u)):
            if end == b:
                t_b = oracle_meridian_tangent(P[b])
                J[row, 0] = s * float(t_b @ P[other]) / denom
            elif end in bases:
                e1, e2 = bases[end]
                col = tangent_col[end]
                J[row, col] = s * float(e1 @ P[other]) / denom
                J[row, col + 1] = s * float(e2 @ P[other]) / denom
            if end in radius_col:
                # dTheta/dx = dTheta/dr * dr/dx with dr/dx = sin r
                C = float(P[end] @ P[other])
                J[row, radius_col[end]] = (
                    s * (cr[other] - C * cr[end]) / (sr[end] ** 2 * sr[other])
                    * sr[end])
    return J


def oracle_apply_step(cfg, delta):
    b = cfg.gauge_face[1]
    tangent, tangent_col, radius, radius_col = oracle_layout(
        cfg.tri, cfg.gauge_face)
    centers = cfg.centers.copy()
    radii = cfg.radii.copy()
    p = cfg.centers[b] + delta[0] * oracle_meridian_tangent(cfg.centers[b])
    centers[b] = p / np.linalg.norm(p)
    for v in tangent:
        e1, e2 = oracle_tangent_basis(cfg.centers[v])
        col = tangent_col[v]
        p = cfg.centers[v] + delta[col] * e1 + delta[col + 1] * e2
        centers[v] = p / np.linalg.norm(p)
    for v in radius:
        x = np.log(np.tan(0.5 * radii[v])) + delta[radius_col[v]]
        radii[v] = 2.0 * np.arctan(np.exp(x))
    return cfg.with_data(centers, radii)


def oracle_flipped(cfg):
    return frozenset(
        f for f in cfg.tri.faces
        if signed_excess(cfg.centers[f[0]], cfg.centers[f[1]],
                         cfg.centers[f[2]]) <= 1e-12)


def _chart_samples(cfg, rng):
    """The configuration itself and random steps away from it: small ones
    and large ones that flip faces."""
    out = [cfg]
    n_free = 3 * cfg.tri.n_vertices - 6
    for size in (1e-3, 0.05, 0.6):
        out.append(oracle_apply_step(cfg, size * rng.standard_normal(n_free)))
    return out


@pytest.fixture(scope="module")
def chart_cases(solved_oct, solved_bp3, solved_ico,
                realized_geodesic42):
    return [("octahedron", solved_oct[0]), ("bipyramid3", solved_bp3[0]),
            ("icosahedron", solved_ico[0]),
            ("geodesic42", realized_geodesic42[1])]


class TestChartOracles:
    """The array chart equals the scalar loops bit for bit."""

    def test_jacobian_matches_oracle(self, chart_cases):
        rng = np.random.default_rng(41)
        for name, cfg in chart_cases:
            for k, sample in enumerate(_chart_samples(cfg, rng)):
                J = jacobian(sample)
                assert J.flags.c_contiguous
                assert np.array_equal(J, oracle_jacobian(sample)), (name, k)

    def test_jacobian_squares_sines_like_the_oracle(self, chart_cases):
        # radii whose sin^2 rounds differently as pow(x, 2) and as x * x
        rng = np.random.default_rng(44)
        odd = [r for r in rng.uniform(0.2, 1.4, 20000)
               if math.sin(r) ** 2 != math.sin(r) * math.sin(r)]
        for name, cfg in chart_cases:
            radii = cfg.radii.copy()
            free = np.delete(np.arange(cfg.tri.n_vertices), cfg.gauge_face)
            radii[free] = np.resize(odd, len(free))
            sample = cfg.with_data(cfg.centers, radii)
            assert np.array_equal(jacobian(sample), oracle_jacobian(sample)), name

    def test_jacobian_buffer_is_zero_filled(self, chart_cases):
        # the LM loop reuses one buffer: stale entries must not survive
        for name, cfg in chart_cases:
            for gauge in (None, cfg.gauge_face):
                lay = _layout(cfg.tri.n_vertices, gauge)
                buf = np.full((cfg.tri.n_edges, lay.n_free), np.nan)
                got = _jacobian(cfg, lay, out=buf)
                assert got is buf
                assert np.array_equal(buf, _jacobian(cfg, lay)), (name, gauge)

    def test_apply_step_matches_oracle(self, chart_cases):
        rng = np.random.default_rng(42)
        for name, cfg in chart_cases:
            n_free = 3 * cfg.tri.n_vertices - 6
            first_radius = 1 + 2 * (cfg.tri.n_vertices - 2)
            for k, sample in enumerate(_chart_samples(cfg, rng)):
                wild = 0.3 * rng.standard_normal(n_free)
                wild[first_radius:] = rng.choice([-4.0, 4.0],
                                                 n_free - first_radius)
                for delta in (np.zeros(n_free),
                              0.01 * rng.standard_normal(n_free), wild):
                    got = apply_step(sample, delta)
                    want = oracle_apply_step(sample, delta)
                    assert np.array_equal(got.centers, want.centers), (name, k)
                    assert np.array_equal(got.radii, want.radii), (name, k)

    def test_flipped_faces_match_oracle(self, chart_cases):
        rng = np.random.default_rng(43)
        flips = 0
        for name, cfg in chart_cases:
            mirrored = cfg.with_data(cfg.centers * np.array([1.0, -1.0, 1.0]),
                                     cfg.radii)
            faces = cfg.tri.faces
            for k, sample in enumerate(_chart_samples(cfg, rng) + [mirrored]):
                want = oracle_flipped(sample)
                got = _gate_state(sample)[:len(faces)]
                assert got.tolist() == [f in want for f in faces], (name, k)
                flips += len(want)
        assert flips > 0


class TestEdgeKernel:
    """The edge kernel against a long-double evaluation of the classical
    formula (cos r_u cos r_v - p.q) / (sin r_u sin r_v) on small caps."""

    @pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                        reason="long double is no wider than double")
    def test_small_radii_match_long_double(self, ico_tri):
        tri = ico_tri
        u, v = tri.edge_array.T
        rng = np.random.default_rng(71)
        classical_misses = 0
        for _ in range(10):
            # caps of radius 1e-4 to 1e-3 within 1e-3 of the north pole:
            # most edges overlap
            xy = rng.uniform(-6e-4, 6e-4, (tri.n_vertices, 2))
            P = np.column_stack([xy, np.ones(tri.n_vertices)])
            P /= np.linalg.norm(P, axis=1)[:, None]
            R = rng.uniform(1e-4, 1e-3, tri.n_vertices)
            got = _inversive_pairs(P, R, u, v)
            Pl, Rl = P.astype(np.longdouble), R.astype(np.longdouble)
            Pl /= np.sqrt(np.sum(Pl * Pl, axis=1))[:, None]
            want = ((np.cos(Rl[u]) * np.cos(Rl[v]) - np.sum(Pl[u] * Pl[v], axis=1))
                    / (np.sin(Rl[u]) * np.sin(Rl[v])))
            scale = np.maximum(1.0, np.abs(want))
            assert np.max(np.abs(got - want) / scale) <= 1e-10
            classical = ((np.cos(R[u]) * np.cos(R[v])
                          - np.einsum("ij,ij->i", P[u], P[v]))
                         / (np.sin(R[u]) * np.sin(R[v])))
            classical_misses += np.max(np.abs(classical - want) / scale) > 1e-10
        # the tolerance is one the classical double formula misses
        assert classical_misses > 0


class TestGaugeNormalize:
    def test_rotated_pattern_comes_back(self, oct_tri):
        theta = AngleAssignment.constant(oct_tri, OCT_ANGLE)
        cfg, rep = solve(oct_tri, theta)
        assert rep.converged
        # apply a random rotation and renormalize
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] *= -1.0
        turned = cfg.with_data(cfg.centers @ q.T, cfg.radii.copy())
        back = gauge_normalize(turned)
        assert np.allclose(back.centers, cfg.centers, atol=1e-12)
        assert np.array_equal(back.radii, cfg.radii)

    def test_reflection_restores_third_vertex_sign(self, oct_tri):
        theta = AngleAssignment.constant(oct_tri, OCT_ANGLE)
        cfg, _ = solve(oct_tri, theta)
        mirrored = cfg.centers.copy()
        mirrored[:, 1] *= -1.0
        back = gauge_normalize(cfg.with_data(mirrored, cfg.radii.copy()))
        assert back.centers[back.gauge_face[2]][1] > 0.0
        assert np.allclose(back.centers, cfg.centers, atol=1e-12)


class TestMinkowskiBridge:
    """The boost machinery used by regauge and the polyhedron build."""

    def test_normal_round_trip(self):
        cap = Cap(np.array([0.6, 0.0, 0.8]), 1.234)
        again = plane_normal_cap(cap_plane_normal(cap))
        assert np.allclose(again.center, cap.center, atol=1e-15)
        assert again.radius == pytest.approx(cap.radius, abs=1e-15)

    def test_inversive_distance_is_minus_dot(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = rng.standard_normal(3)
            q = rng.standard_normal(3)
            one = Cap(p / np.linalg.norm(p), rng.uniform(0.3, 2.0))
            two = Cap(q / np.linalg.norm(q), rng.uniform(0.3, 2.0))
            assert inversive_distance(one, two) == pytest.approx(
                -minkowski_dot(cap_plane_normal(one), cap_plane_normal(two)),
                abs=1e-11)

    def test_boost_moves_point_to_origin(self):
        x0 = np.array([0.3, -0.2, 0.1])
        q = np.append(x0, 1.0) / math.sqrt(1.0 - float(x0 @ x0))
        B = boost_to_center(q)
        assert np.allclose(B @ q, [0, 0, 0, 1], atol=1e-12)
        # Lorentz: B^T diag(1,1,1,-1) B = diag(1,1,1,-1)
        M = np.diag([1.0, 1.0, 1.0, -1.0])
        assert np.allclose(B.T @ M @ B, M, atol=1e-12)

    def test_boost_gauges_the_symmetric_octahedron(self, oct_tri):
        cfg = symmetric_octahedron_configuration(oct_tri)
        normals = np.array([cap_plane_normal(cfg.cap(v))
                            for v in cfg.gauge_face])
        q = common_orthogonal_point(normals)
        B = boost_to_center(q)
        moved = [plane_normal_cap(B @ cap_plane_normal(cfg.cap(v)))
                 for v in range(6)]
        for v in cfg.gauge_face:
            assert moved[v].radius == pytest.approx(math.pi / 2, abs=1e-12)
        others = [moved[v].radius for v in range(6)
                  if v not in cfg.gauge_face]
        assert np.allclose(others, OCT_GAUGED_RHO, atol=5e-7)
        # angles survive the boost
        for (u, v) in oct_tri.edges:
            before = inversive_distance(cfg.cap(u), cfg.cap(v))
            after = inversive_distance(moved[u], moved[v])
            assert after == pytest.approx(before, abs=1e-12)


class TestSolve:
    def test_octahedron_uniform(self, oct_tri):
        theta = AngleAssignment.constant(oct_tri, OCT_ANGLE)
        cfg, rep = solve(oct_tri, theta)
        assert rep.converged
        assert rep.residual_inf < 1e-10
        angles = pattern_angles(cfg)
        assert max(abs(angles[e] - OCT_ANGLE) for e in oct_tri.edges) < 1e-8
        free = [v for v in range(6) if v not in cfg.gauge_face]
        assert np.allclose(cfg.radii[free], OCT_GAUGED_RHO, atol=5e-7)

    def test_octahedron_matches_symmetric_after_regauge(self, oct_tri):
        """Solving and regauging the known symmetric pattern agree."""
        theta = AngleAssignment.constant(oct_tri, OCT_ANGLE)
        solved, rep = solve(oct_tri, theta)
        assert rep.converged
        oracle = regauge(symmetric_octahedron_configuration(oct_tri),
                         oct_tri.faces[0])
        assert np.allclose(solved.centers, oracle.centers, atol=1e-6)
        assert np.allclose(solved.radii, oracle.radii, atol=1e-6)

    def test_bipyramid_mixed(self, bp3):
        cfg, rep = solve(bp3, bp3_assignment(bp3))
        assert rep.converged
        angles = pattern_angles(cfg)
        want = bp3_assignment(bp3)
        assert max(abs(angles[e] - want[e]) for e in bp3.edges) < 1e-9

    def test_icosahedron(self, ico_tri):
        theta = AngleAssignment.constant(ico_tri, 0.45 * math.pi)
        cfg, rep = solve(ico_tri, theta)
        assert rep.converged
        assert np.all(cfg.radii <= math.pi / 2)

    def test_inadmissible_raises(self, oct_tri):
        theta = AngleAssignment.constant(oct_tri, math.pi / 2)
        with pytest.raises(ConditionsViolated):
            solve(oct_tri, theta)

    def test_bad_gauge_raises(self, oct_tri):
        theta = AngleAssignment.constant(oct_tri, OCT_ANGLE)
        with pytest.raises(NotAFace):
            solve(oct_tri, theta, gauge_face=(0, 1, 2))

    def test_every_gauge_face_works(self, oct_tri):
        theta = AngleAssignment.constant(oct_tri, OCT_ANGLE)
        for f in oct_tri.faces:
            cfg, rep = solve(oct_tri, theta, gauge_face=f)
            assert rep.converged, f
            assert cfg.gauge_face == f

    def test_gauge_choice_leaves_angles_invariant(self, bp3):
        theta = bp3_assignment(bp3)
        results = []
        for f in bp3.faces[:3]:
            cfg, rep = solve(bp3, theta, gauge_face=f)
            assert rep.converged
            results.append(pattern_angles(cfg))
        for other in results[1:]:
            for e in bp3.edges:
                assert other[e] == pytest.approx(results[0][e], abs=1e-9)

    def test_solution_is_deterministic(self, bp3):
        theta = bp3_assignment(bp3)
        one, _ = solve(bp3, theta)
        two, _ = solve(bp3, theta)
        assert np.array_equal(one.centers, two.centers)
        assert np.array_equal(one.radii, two.radii)

    def test_obtuse_angles(self):
        tri = bipyramid(4)
        th = {}
        for e in tri.edges:
            if e in ((0, 4), (2, 5)):
                th[e] = 2.0
            elif e[1] >= 4:
                th[e] = 1.0
            else:
                th[e] = 1.2
        theta = AngleAssignment(th)
        assert check_admissible(tri, theta).ok
        cfg, rep = solve(tri, theta)
        assert rep.converged
        angles = pattern_angles(cfg)
        assert angles[(0, 4)] == pytest.approx(2.0, abs=1e-9)

    def test_stacked_sphere_every_gauge(self):
        tri = stacked_tetrahedra(2)
        sep = {(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)}
        th = {}
        for e in tri.edges:
            if e in sep:
                th[e] = 0.9
            elif e == (1, 3):
                th[e] = 1.7
            elif e in ((1, 4), (3, 5)):
                th[e] = 1.1
            else:
                th[e] = 1.2
        theta = AngleAssignment(th)
        for f in tri.faces:
            cfg, rep = solve(tri, theta, gauge_face=f)
            assert rep.converged, f
            a, b, c = cfg.gauge_face
            assert np.array_equal(cfg.centers[a], SOUTH)
            assert np.all(cfg.radii[[a, b, c]] == math.pi / 2)

    def test_report_records_accepted_targets(self, oct_tri):
        theta = AngleAssignment.constant(oct_tri, OCT_ANGLE)
        _, rep = solve(oct_tri, theta)
        assert rep.targets
        assert rep.targets[-1].s == 1.0
        for rec in rep.targets:
            assert rec.max_nongauge_radius < math.pi / 2
            assert rec.residual_inf < 1e-10

    def test_report_separation_margin(self, oct_tri):
        theta = AngleAssignment.constant(oct_tri, OCT_ANGLE)
        _, rep = solve(oct_tri, theta)
        assert rep.targets[-1].separation_margin == pytest.approx(
            OCT_MARGIN, abs=1e-9)


UNIFORM = 2.0 * math.pi / 5.0


def _constant(tri, angle):
    return tri, AngleAssignment.constant(tri, angle)


# solve inputs as (triangulation, angles), built from the session
# fixtures where they need them; `fx` looks a fixture up by name
CASES = {
    "octahedron": lambda fx: _constant(octahedron(), UNIFORM),
    "bipyramid3": lambda fx: (bipyramid(3), bp3_assignment(bipyramid(3))),
    "icosahedron": lambda fx: _constant(icosahedron(), 0.45 * math.pi),
    **{f"bipyramid{m}": (lambda fx, m=m: _constant(bipyramid(m), UNIFORM))
       for m in (6, 7, 8, 9, 10)},
    "geodesic42": lambda fx: _constant(fx("realized_geodesic42")[0], UNIFORM),
    "geodesic42-realized": lambda fx: (fx("realized_geodesic42")[0],
                                       fx("realized_geodesic42")[2]),
    "bipyramid8-obtuse": lambda fx: fx("obtuse_bipyramid8"),
    "geodesic42-obtuse": lambda fx: fx("obtuse_geodesic42"),
    **{f"sweep{t}": (lambda fx, t=t: _constant(
        octahedron(), 0.4 * math.pi + t * 0.1 * math.pi))
       for t in (0.0, 0.5, 0.9, 0.99)},
}

FROZEN = {
    "octahedron": (True, 5, 0, (1.0,), None),
    "bipyramid3": (True, 7, 0, (1.0,), None),
    "icosahedron": (True, 5, 0, (1.0,), None),
    "bipyramid6": (True, 5, 0, (1.0,), None),
    "bipyramid7": (True, 6, 0, (1.0,), None),
    "bipyramid8": (True, 7, 0, (1.0,), None),
    "bipyramid9": (True, 7, 0, (1.0,), None),
    "bipyramid10": (True, 8, 0, (1.0,), None),
    "bipyramid8-obtuse": (True, 13, 0, (1.0,), None),
    "geodesic42-obtuse": (True, 5, 0, (1.0,), None),
}


@pytest.mark.parametrize("name", list(FROZEN))
def test_frozen_trajectory(name, request):
    """Frozen counters of the default solve: converged, LM iterations,
    repairs (always 0), the parameters s of the report's records and the
    failure reason.  The first punctured start answers every case."""
    tri, theta = CASES[name](request.getfixturevalue)
    _, rep = solve(tri, theta)
    assert (rep.converged, rep.iterations, rep.repairs,
            tuple(t.s for t in rep.targets), rep.failure_reason) == FROZEN[name]


@pytest.mark.parametrize("kind", ["uniform", "obtuse"])
@pytest.mark.parametrize("m", range(4, 21))
def test_bipyramid_ladder(m, kind):
    """Uniform 2 pi / 5 and greedy obtuse angles (seed 0) on bipyramid(m)
    solve, verify and come back as the polyhedron's dihedral angles."""
    tri = bipyramid(m)
    theta = (AngleAssignment.constant(tri, UNIFORM) if kind == "uniform"
             else greedy_obtuse(tri, 0))
    cfg, rep = solve(tri, theta)
    assert rep.converged
    assert verify_pattern(tri, cfg, theta).ok
    assert build_polyhedron(tri, cfg, theta).angle_error_inf <= ANGLE_TOL


def test_failure_names_the_stage(oct_tri, monkeypatch):
    """Iterations ran but no start reached the target."""
    monkeypatch.setattr(solver, "MAX_ITERATIONS", 1)
    _, rep = solve(oct_tri, AngleAssignment.constant(oct_tri, UNIFORM))
    assert not rep.converged
    assert rep.iterations > 0
    assert rep.failure_reason == "no_start_converged"


class TestSolveOptions:
    @pytest.mark.parametrize("kwargs", [
        {"tolerance": 0.0}, {"tolerance": -1e-10}, {"tolerance": math.nan},
        {"tolerance": math.inf}, {"fallback_gauges": -1}])
    def test_unusable_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolveOptions(**kwargs)

    def test_no_fallback_faces_still_reports_a_failure(self, monkeypatch):
        # no admissible input is known to fail any more, so no start is
        # let iterate; the first punctured start and the reference leg
        # are still tried
        monkeypatch.setattr(solver, "MAX_ITERATIONS", 0)
        tri, theta = _constant(bipyramid(10), UNIFORM)
        _, rep = solve(tri, theta, options=SolveOptions(fallback_gauges=0))
        assert (rep.converged, rep.iterations, rep.repairs,
                rep.failure_reason) == (False, 0, 0, "cold_start_infeasible")


class TestDirectLeg:
    """The gauge-free chart, its cold starts, and their answers."""

    @pytest.mark.parametrize("maker", [octahedron, icosahedron,
                                       lambda: bipyramid(9)])
    def test_tutte_start_is_oriented_and_centered(self, maker):
        tri = maker()
        for w in range(tri.n_vertices):
            self._assert_oriented_and_centered(_punctured_start(tri, w))

    @staticmethod
    def _assert_oriented_and_centered(start):
        tri = start.tri
        assert np.allclose(np.linalg.norm(start.centers, axis=1), 1.0)
        assert np.linalg.norm(start.centers.mean(axis=0)) < CENTERING_TOL
        assert np.all(face_excesses(start.centers, tri.face_array) > 0.0)
        u, v = tri.edge_array.T
        length = np.arccos(np.clip(
            np.einsum("ij,ij->i", start.centers[u], start.centers[v]),
            -1.0, 1.0))
        for w in range(tri.n_vertices):
            longest = length[(u == w) | (v == w)].max()
            assert start.radii[w] == pytest.approx(
                solver.TUTTE_RADIUS * longest, rel=1e-12)

    @pytest.mark.parametrize("solved", ["solved_oct", "solved_bp3",
                                        "solved_ico"])
    def test_free_jacobian_matches_finite_differences(self, solved, request):
        cfg, theta = request.getfixturevalue(solved)
        n_cols = 3 * cfg.tri.n_vertices
        free = _layout(cfg.tri.n_vertices, None)
        rng = np.random.default_rng(61)
        h = 1e-6
        checked = 0
        for _ in range(1000):
            cand = _step(cfg, rng.uniform(-0.15, 0.15, n_cols), free)
            if not all(abs(inversive_distance(cand.cap(u), cand.cap(v)))
                       < 0.999 for u, v in cfg.tri.edges):
                continue
            J = _jacobian(cand, free)
            assert J.shape == (cfg.tri.n_edges, n_cols)
            fd = np.empty_like(J)
            for col in range(n_cols):
                step = np.zeros(n_cols)
                step[col] = h
                fd[:, col] = (residual(_step(cand, step, free), theta)
                              - residual(_step(cand, -step, free), theta)) / (2 * h)
            assert np.abs(J - fd).max() / max(1.0, np.abs(J).max()) <= 1e-5
            checked += 1
            if checked == 20:
                break
        assert checked == 20

    @pytest.mark.parametrize("name", [name for name in CASES
                                      if name != "bipyramid10"])
    def test_matches_face_gauge_path(self, name, request):
        """Rigidity: the pattern is unique up to Moebius maps, so a solve
        in the last face's gauge, regauged onto the first face, gives the
        default solve's answer."""
        tri, theta = CASES[name](request.getfixturevalue)
        cfg, rep = solve(tri, theta)
        assert rep.converged
        assert [t.s for t in rep.targets] == [1.0]
        assert verify_pattern(tri, cfg, theta).ok
        other, other_rep = solve(tri, theta, gauge_face=tri.faces[-1])
        assert other_rep.converged
        moved = regauge(other, tri.faces[0])
        assert np.max(np.abs(cfg.centers - moved.centers)) <= 1e-9
        assert np.max(np.abs(cfg.radii - moved.radii)) <= 1e-9

    def test_geodesic162_solves_and_verifies(self, geodesic162):
        theta = AngleAssignment.constant(geodesic162, UNIFORM)
        cfg, rep = solve(geodesic162, theta,
                         options=SolveOptions(fallback_gauges=0))
        assert rep.converged
        assert [t.s for t in rep.targets] == [1.0] and rep.repairs == 0
        # the first punctured start won, so its record counts every
        # iteration, the face-gauge polish's included: 5 in the free
        # chart, and none in the polish
        assert rep.targets[0].iterations == rep.iterations == 5
        assert verify_pattern(geodesic162, cfg, theta).ok


class TestDegenerationPath:
    """Walking the uniform octahedron angle toward pi/2 thins the
    separation margin like 2 cos(theta) while the radii swell."""

    def test_margin_law_and_radius_growth(self, oct_tri):
        prev_max = 0.0
        for t in (0.0, 0.5, 0.9, 0.99):
            th = 0.4 * math.pi + t * 0.1 * math.pi
            cfg, rep = solve(oct_tri, AngleAssignment.constant(oct_tri, th))
            assert rep.converged
            tail = rep.targets[-1]
            assert tail.separation_margin == pytest.approx(
                2.0 * math.cos(th), abs=1e-6)
            assert tail.max_nongauge_radius > prev_max
            assert tail.max_nongauge_radius < math.pi / 2
            prev_max = tail.max_nongauge_radius


class TestRegauge:
    def test_angles_preserved(self, bp3):
        theta = bp3_assignment(bp3)
        cfg, rep = solve(bp3, theta)
        assert rep.converged
        for f in bp3.faces:
            moved = regauge(cfg, f)
            angles = pattern_angles(moved)
            for e in bp3.edges:
                assert angles[e] == pytest.approx(theta[e], abs=1e-9)
            a, b, c = moved.gauge_face
            assert np.array_equal(moved.centers[a], SOUTH)
            assert moved.centers[c][1] > 0.0
            assert np.all(moved.radii[[a, b, c]] == math.pi / 2)

    def test_identity_regauge_is_fixed_point(self, oct_tri):
        theta = AngleAssignment.constant(oct_tri, OCT_ANGLE)
        cfg, _ = solve(oct_tri, theta)
        again = regauge(cfg, cfg.gauge_face)
        assert np.allclose(again.centers, cfg.centers, atol=1e-9)
        assert np.allclose(again.radii, cfg.radii, atol=1e-9)

    def test_free_answer_stays_in_tolerance(self, geodesic162):
        # the gauge-free answer of the first punctured start, moved into
        # the face gauge, needs no polish: the closed-form boost keeps
        # the residual below the default tolerance (a Gram-Schmidt boost
        # left 1.9e-9 here)
        tri = geodesic162
        tol = SolveOptions().tolerance
        target = np.full(tri.n_edges, UNIFORM)
        first = min(range(tri.n_vertices), key=lambda v: (-tri.degree(v), v))
        free, ok, _, _, _ = solver._levenberg(
            _punctured_start(tri, first), target, tol,
            _layout(tri.n_vertices, None))
        assert ok
        moved = regauge(free, tri.faces[0])
        assert np.max(np.abs(solver._residual_or_none(moved, target))) < tol
        _, ok, polish, _, _ = solver._levenberg(
            moved, target, tol, _layout(tri.n_vertices, tri.faces[0]))
        assert ok and polish == 0


def oracle_regauge(cfg, face):
    """regauge as a per-vertex loop through Cap objects; `face` as stored."""
    normals = np.array([cap_plane_normal(cfg.cap(v)) for v in face])
    boost = boost_to_center(common_orthogonal_point(normals))
    centers = np.empty_like(cfg.centers)
    radii = np.empty_like(cfg.radii)
    for v in range(cfg.tri.n_vertices):
        moved = plane_normal_cap(boost @ cap_plane_normal(cfg.cap(v)))
        centers[v] = moved.center
        radii[v] = moved.radius
    out = gauge_normalize(replace(cfg, centers=centers, radii=radii,
                                  gauge_face=face))
    radii = out.radii.copy()
    radii[list(face)] = math.pi / 2
    return out.with_data(out.centers, radii)


def _pattern(cfg):
    return cfg.centers, cfg.radii


def outcome(fn, *args):
    """The bytes of what fn returns, or the type and message it raises."""
    try:
        return b"".join(a.tobytes() for a in fn(*args))
    except Exception as exc:
        return type(exc), str(exc)


class TestRegaugeOracle:
    """regauge's array pass equals the per-vertex loop bit for bit."""

    def test_every_face_matches_the_loop(self, chart_cases):
        rng = np.random.default_rng(45)
        kinds = set()
        for name, cfg in chart_cases:
            nudged = oracle_apply_step(
                cfg, 0.01 * rng.standard_normal(3 * cfg.tri.n_vertices - 6))
            for sample in (cfg, nudged):
                for face in sample.tri.faces:
                    want = outcome(lambda: _pattern(oracle_regauge(sample, face)))
                    got = outcome(lambda: _pattern(regauge(sample, face)))
                    assert got == want, (name, face)
                    kinds.add(want[0] if isinstance(want, tuple) else bytes)
        # some faces of the realized geodesic pattern have gauge planes
        # that do not meet in the ball
        assert kinds == {bytes, PreconditionViolated}

    def test_degenerate_cap_raises_like_the_loop(self, solved_oct):
        cfg = solved_oct[0]
        face = cfg.tri.faces[-1]
        for v, radius in ((4, 0.0), (3, math.pi)):
            radii = cfg.radii.copy()
            radii[v] = radius
            bad = cfg.with_data(cfg.centers, radii)
            want = outcome(lambda: _pattern(oracle_regauge(bad, face)))
            assert want[0] is DegenerateCap
            assert outcome(lambda: _pattern(regauge(bad, face))) == want

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_normal_caps_match_plane_normal_cap(self):
        # spacelike, timelike and lightlike rows, and rows whose caps
        # come out degenerate (NaN, or overflowing the Minkowski norm)
        rng = np.random.default_rng(46)
        odd = [(0.0, 0.0, 1.0, 1.0), (math.nan, 0.0, 0.0, 0.0),
               (1e200, 0.0, 0.0, 0.0)]
        kinds = set()
        for _ in range(200):
            normals = rng.standard_normal((6, 4))
            normals[:, 3] *= rng.choice([0.1, 1.0, 3.0])
            if rng.random() < 0.3:
                normals[int(rng.integers(6))] = odd[int(rng.integers(3))]
            want = outcome(lambda: tuple(
                np.array(x) for x in zip(*(
                    (c.center, c.radius)
                    for c in map(plane_normal_cap, normals)))))
            assert outcome(_normal_caps, normals) == want
            kinds.add(want[0] if isinstance(want, tuple) else bytes)
        assert kinds == {bytes, DegenerateCap, PreconditionViolated}
