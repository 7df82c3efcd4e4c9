"""Spherical cap geometry: frozen oracle values and independent cross-checks.

The frozen constants in this file were produced by oracles that do not share
code with the library:

* ``0.6917182407210458`` -- center distance giving a right-angle crossing for
  two caps of radius 0.5, found by bisecting the measured tangent-vector
  angle at the crossing point (and equal to arccos(cos^2 0.5)).
* ``1.0634400235777521`` -- common radius of the regular six-cap pattern with
  all overlap angles 2*pi/5, i.e. arctan(1/sqrt(cos(2*pi/5))); plugging it
  back reproduces the angle to 1e-15.
* ``1.6180339887498945`` -- inversive distance of the antipodal pairs in that
  pattern, 1 + 2*cos(2*pi/5), the golden ratio.

Three earlier formulas stay here as oracles: the boost built by Minkowski
Gram-Schmidt (`gram_schmidt_boost`), the Gram form of the edge read,
`inversive_matrix` taken on one pair, and L'Huilier's area of a triangle
from its side lengths (`excess_lhuilier`), against `signed_excess`.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from katsphere.sphere import (
    MINKOWSKI_METRIC,
    Cap,
    _inversive_pairs,
    boost_to_center,
    cap_contains,
    caps_cover_sphere,
    caps_disjoint,
    center_distance,
    circle_intersection_points,
    face_excesses,
    fibonacci_sphere,
    inversive_distance,
    inversive_matrix,
    layout_triple,
    minkowski_dot,
    nearest_point_on_circle,
    overlap_angle,
    point_in_cap,
    signed_excess,
    sph_dist,
    triple_intersection_empty,
    triple_realizable,
    zeta_certificate,
)
from katsphere.errors import (
    CoincidentBoundaries,
    DegenerateCap,
    DegenerateLength,
    Engulfing,
    NotOverlapping,
    PreconditionViolated,
)

_PI = math.pi

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])


def colat_point(psi, azim):
    return np.array(
        [math.sin(psi) * math.cos(azim), math.sin(psi) * math.sin(azim), math.cos(psi)]
    )


def measured_angle(cap1, cap2):
    """Independent overlap-angle oracle via tangent vectors at a crossing.

    At a crossing point q, the tangent to each boundary circle is
    cross(center, q).  The angle between the circles as curves is the angle
    between those tangents; the overlap angle of the caps is its complement
    to pi when the caps are oriented consistently.
    """
    pts = circle_intersection_points(cap1, cap2)
    assert len(pts) == 2
    q = pts[0]
    t1 = np.cross(cap1.center, q)
    t2 = np.cross(cap2.center, q)
    c = float(np.dot(t1, t2) / (np.linalg.norm(t1) * np.linalg.norm(t2)))
    return _PI - math.acos(max(-1.0, min(1.0, c)))


def excess_lhuilier(l1, l2, l3):
    """Spherical excess (area) of a triangle from its side lengths, by
    L'Huilier's formula."""
    s = 0.5 * (l1 + l2 + l3)
    prod = (math.tan(0.5 * s) * math.tan(0.5 * (s - l1))
            * math.tan(0.5 * (s - l2)) * math.tan(0.5 * (s - l3)))
    return 4.0 * math.atan(math.sqrt(max(0.0, prod)))


unit_vec = st.builds(
    colat_point,
    st.floats(min_value=0.05, max_value=_PI - 0.05),
    st.floats(min_value=0.0, max_value=2 * _PI),
)


class TestCap:
    def test_requires_unit_center(self):
        with pytest.raises(DegenerateCap):
            Cap(np.array([0.0, 0.0, 2.0]), 0.5)
        with pytest.raises(DegenerateCap):
            Cap(np.zeros(3), 0.5)

    def test_requires_open_radius(self):
        with pytest.raises(DegenerateCap):
            Cap(EZ, 0.0)
        with pytest.raises(DegenerateCap):
            Cap(EZ, _PI)
        with pytest.raises(DegenerateCap):
            Cap(EZ, -0.1)

    def test_center_is_read_only(self):
        cap = Cap(EZ, 0.5)
        with pytest.raises(ValueError):
            cap.center[0] = 1.0

    def test_near_unit_center_normalized(self):
        cap = Cap(np.array([0.0, 0.0, 1.0 + 1e-12]), 0.5)
        assert np.linalg.norm(cap.center) == pytest.approx(1.0, abs=1e-15)


class TestDistances:
    def test_sph_dist_axes(self):
        assert sph_dist(EX, EY) == pytest.approx(_PI / 2, abs=1e-15)
        assert sph_dist(EZ, -EZ) == pytest.approx(_PI, abs=1e-15)
        assert sph_dist(EZ, EZ) == 0.0

    def test_great_circles_cosine_rule(self):
        # two hemispheres at center distance d have I = -cos d
        for d in (0.3, 1.2, 2.0, 2.9):
            a = Cap(EZ, _PI / 2)
            b = Cap(colat_point(d, 0.4), _PI / 2)
            assert inversive_distance(a, b) == pytest.approx(-math.cos(d), abs=1e-12)

    def test_tangency_is_unit_inversive_distance(self):
        a = Cap(EZ, 0.7)
        b = Cap(colat_point(0.7 + 0.4, 0.0), 0.4)
        assert inversive_distance(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_rotation_invariance(self, rng):
        for _ in range(25):
            m = np.linalg.qr(rng.normal(size=(3, 3)))[0]
            if np.linalg.det(m) < 0:
                m[:, 0] *= -1.0
            a = Cap(colat_point(0.9, 0.3), 0.8)
            b = Cap(colat_point(1.7, 2.1), 0.6)
            ra = Cap(m @ a.center, a.radius)
            rb = Cap(m @ b.center, b.radius)
            assert inversive_distance(ra, rb) == pytest.approx(
                inversive_distance(a, b), abs=1e-12
            )

    def test_matrix_matches_scalar(self, rng):
        centers = rng.normal(size=(9, 3))
        centers /= np.linalg.norm(centers, axis=1)[:, None]
        radii = rng.uniform(0.1, 3.0, size=9)
        caps = [Cap(c, r) for c, r in zip(centers, radii)]
        mat = inversive_matrix(centers, radii)
        assert mat.shape == (9, 9)
        want = [[inversive_distance(a, b) for b in caps] for a in caps]
        assert mat == pytest.approx(np.array(want), abs=1e-12)
        # a cap meets itself at inversive distance -1 (coincident circles)
        assert np.diag(mat) == pytest.approx(-np.ones(9), abs=1e-12)


class TestEdgeKernel:
    @pytest.mark.parametrize("r1, r2, theta", [
        (1e-4, 1.3e-4, 2.0 * _PI / 5.0), (1.3e-4, 1.9e-4, 0.9),
        (1e-4, 1e-4, 2.5), (2e-4, 1.1e-4, 1.3)])
    def test_small_caps_keep_their_angle(self, r1, r2, theta):
        # with a = sin^2(r/2), the caps meet at theta exactly when
        # sin^2(d/2) = (cos theta sin r1 sin r2 + 2 (a1 + a2) - 4 a1 a2) / 2;
        # the centers sit at +-d/2 from the north pole
        a1, a2 = math.sin(r1 / 2) ** 2, math.sin(r2 / 2) ** 2
        half = math.asin(math.sqrt(
            (math.cos(theta) * math.sin(r1) * math.sin(r2)
             + 2.0 * (a1 + a2) - 4.0 * a1 * a2) / 2.0))
        centers = np.array([[math.sin(half), 0.0, math.cos(half)],
                            [-math.sin(half), 0.0, math.cos(half)]])
        radii = np.array([r1, r2])
        got = _inversive_pairs(centers, radii, np.array([0]), np.array([1]))
        assert abs(math.acos(got[0]) - theta) <= 1e-10
        # the Gram form cancels: cos r1 cos r2 and p.q agree to 1e-8
        gram = inversive_matrix(centers, radii)[0, 1]
        assert abs(math.acos(gram) - theta) > 1e-10


def gram_schmidt_boost(q) -> np.ndarray:
    """The boost of earlier releases: a Minkowski-orthonormal frame of
    q's orthogonal complement, built by Gram-Schmidt from e1, e2, e3."""
    q = np.asarray(q, dtype=float)
    basis = []
    for k in range(3):
        v = np.zeros(4)
        v[k] = 1.0
        v = v + minkowski_dot(v, q) * q
        for u in basis:
            v = v - minkowski_dot(v, u) * u
        basis.append(v / math.sqrt(minkowski_dot(v, v)))
    rows = [MINKOWSKI_METRIC @ u for u in basis]
    rows.append(-(MINKOWSKI_METRIC @ q))
    return np.vstack(rows)


def hyperboloid_point(t: float) -> np.ndarray:
    """The timelike unit vector (x, t) with x along a fixed generic axis."""
    axis = np.array([0.48, -0.6, 0.64])
    return np.append(math.sqrt(t * t - 1.0) * axis, t)


def lorentz_defect(boost: np.ndarray) -> float:
    m = MINKOWSKI_METRIC
    return float(np.max(np.abs(boost.T @ m @ boost - m)))


class TestBoostToCenter:
    EPS = np.finfo(float).eps

    @pytest.mark.parametrize("t", [1.0, 1.5, 40.7, 400.0])
    def test_moves_the_point_home_and_stays_lorentz(self, t):
        q = hyperboloid_point(t)
        boost = boost_to_center(q)
        bound = 64.0 * self.EPS * t * t
        assert np.max(np.abs(boost @ q - [0.0, 0.0, 0.0, 1.0])) <= bound
        assert lorentz_defect(boost) <= bound

    def test_gram_schmidt_loses_the_bound_far_out(self):
        t = 400.0
        assert lorentz_defect(gram_schmidt_boost(hyperboloid_point(t))) \
            > 64.0 * self.EPS * t * t

    def test_differs_from_gram_schmidt_by_a_rotation(self):
        # both move q home, so B_gs B^-1 fixes e4: a rotation of R^3
        q = hyperboloid_point(40.7)
        boost = boost_to_center(q)
        inverse = MINKOWSKI_METRIC @ boost.T @ MINKOWSKI_METRIC
        rot = gram_schmidt_boost(q) @ inverse
        e4 = np.array([0.0, 0.0, 0.0, 1.0])
        assert np.max(np.abs(rot[3] - e4)) <= 1e-9
        assert np.max(np.abs(rot[:, 3] - e4)) <= 1e-9
        block = rot[:3, :3]
        assert np.max(np.abs(block.T @ block - np.eye(3))) <= 1e-9

    def test_rejects_points_off_the_upper_sheet(self):
        with pytest.raises(PreconditionViolated):
            boost_to_center([0.0, 0.0, 0.0, -1.0])
        with pytest.raises(PreconditionViolated):
            boost_to_center([0.5, 0.0, 0.0, 1.0])


class TestOverlapAngle:
    def test_frozen_right_angle_distance(self):
        # bisection oracle value for r1 = r2 = 0.5, theta = pi/2
        assert center_distance(0.5, 0.5, _PI / 2) == pytest.approx(
            0.6917182407210458, abs=1e-15
        )
        assert center_distance(0.5, 0.5, _PI / 2) == pytest.approx(
            math.acos(math.cos(0.5) ** 2), abs=1e-15
        )

    def test_round_trip_with_formula(self):
        for r1, r2, th in [(0.5, 0.5, _PI / 2), (0.9, 0.4, 2.0), (1.3, 1.1, 2.8)]:
            d = center_distance(r1, r2, th)
            a = Cap(EZ, r1)
            b = Cap(colat_point(d, 1.1), r2)
            assert overlap_angle(a, b) == pytest.approx(th, abs=1e-12)

    def test_measured_angle_agrees(self, rng):
        # the tangent-vector oracle confirms the arccos(I) convention
        for _ in range(40):
            r1 = rng.uniform(0.2, 1.4)
            r2 = rng.uniform(0.2, 1.4)
            th = rng.uniform(0.1, _PI - 0.1)
            d = center_distance(r1, r2, th)
            a = Cap(EZ, r1)
            b = Cap(colat_point(d, rng.uniform(0, 2 * _PI)), r2)
            assert measured_angle(a, b) == pytest.approx(th, abs=1e-9)

    def test_deeper_overlap_means_larger_angle(self):
        # moving the centers together increases the overlap angle
        last = 0.0
        for d in (1.3, 1.1, 0.9, 0.7, 0.5):
            a = Cap(EZ, 0.7)
            b = Cap(colat_point(d, 0.0), 0.7)
            th = overlap_angle(a, b)
            assert th > last
            last = th

    def test_disjoint_raises(self):
        a = Cap(EZ, 0.3)
        b = Cap(-EZ, 0.3)
        with pytest.raises(NotOverlapping):
            overlap_angle(a, b)

    def test_tangent_raises(self):
        a = Cap(EZ, 0.7)
        b = Cap(colat_point(1.1, 0.0), 0.4)
        with pytest.raises(NotOverlapping):
            overlap_angle(a, b)

    def test_engulfing_raises(self):
        a = Cap(EZ, 1.4)
        b = Cap(colat_point(0.1, 0.0), 0.2)
        with pytest.raises(Engulfing):
            overlap_angle(a, b)

    def test_center_distance_domain(self):
        with pytest.raises(PreconditionViolated):
            center_distance(0.0, 0.5, 1.0)
        with pytest.raises(PreconditionViolated):
            center_distance(0.5, _PI, 1.0)
        with pytest.raises(PreconditionViolated):
            center_distance(0.5, 0.5, 0.0)
        with pytest.raises(PreconditionViolated):
            center_distance(0.5, 0.5, _PI)

    def test_center_distance_degenerate_length(self):
        # two hemispheres at a vanishing angle sit at antipodal centers,
        # where cos(l) rounds onto -1 and the length is rejected
        with pytest.raises(DegenerateLength):
            center_distance(_PI / 2, _PI / 2, 1e-9)

    @given(
        r1=st.floats(min_value=0.1, max_value=1.5),
        r2=st.floats(min_value=0.1, max_value=1.5),
        th1=st.floats(min_value=0.1, max_value=3.0),
        th2=st.floats(min_value=0.1, max_value=3.0),
    )
    def test_center_distance_monotone_in_angle(self, r1, r2, th1, th2):
        assume(abs(th1 - th2) > 1e-6)
        lo, hi = sorted((th1, th2))
        try:
            d_lo = center_distance(r1, r2, lo)
            d_hi = center_distance(r1, r2, hi)
        except DegenerateLength:
            assume(False)
        assert d_hi < d_lo


class TestPredicates:
    def test_point_in_cap(self):
        cap = Cap(EZ, 0.8)
        assert point_in_cap(colat_point(0.79, 1.0), cap)
        assert not point_in_cap(colat_point(0.81, 1.0), cap)
        assert point_in_cap(colat_point(0.81, 1.0), cap, tol=1e-2)

    def test_caps_disjoint(self):
        assert caps_disjoint(Cap(EZ, 0.4), Cap(-EZ, 0.4))
        assert not caps_disjoint(Cap(EZ, 1.6), Cap(-EZ, 1.6))

    def test_cap_contains(self):
        big = Cap(EZ, 1.2)
        small = Cap(colat_point(0.3, 0.0), 0.5)
        assert cap_contains(big, small)
        assert not cap_contains(small, big)

    def test_caps_cover_sphere(self):
        assert caps_cover_sphere(Cap(EZ, 1.8), Cap(-EZ, 1.8))
        assert not caps_cover_sphere(Cap(EZ, 1.4), Cap(-EZ, 1.4))


class TestCircleIntersections:
    def test_crossing_points_on_both_circles(self, rng):
        for _ in range(30):
            a = Cap(colat_point(rng.uniform(0.2, 2.9), rng.uniform(0, 6)), rng.uniform(0.3, 1.5))
            th = rng.uniform(0.2, _PI - 0.2)
            r2 = rng.uniform(0.3, 1.5)
            d = center_distance(a.radius, r2, th)
            axis = np.cross(a.center, rng.normal(size=3))
            axis /= np.linalg.norm(axis)
            c2 = math.cos(d) * a.center + math.sin(d) * np.cross(axis, a.center)
            b = Cap(c2, r2)
            pts = circle_intersection_points(a, b)
            assert len(pts) == 2
            for q in pts:
                assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-12)
                assert sph_dist(q, a.center) == pytest.approx(a.radius, abs=1e-9)
                assert sph_dist(q, b.center) == pytest.approx(b.radius, abs=1e-9)

    def test_external_tangency_single_point(self):
        a = Cap(EZ, 0.6)
        b = Cap(colat_point(1.0, 0.0), 0.4)
        pts = circle_intersection_points(a, b)
        assert len(pts) == 1
        assert sph_dist(pts[0], a.center) == pytest.approx(0.6, abs=1e-9)
        assert sph_dist(pts[0], b.center) == pytest.approx(0.4, abs=1e-9)

    def test_internal_tangency_single_point(self):
        a = Cap(EZ, 1.0)
        b = Cap(colat_point(0.4, 0.0), 0.6)
        pts = circle_intersection_points(a, b)
        assert len(pts) == 1

    def test_disjoint_no_points(self):
        assert circle_intersection_points(Cap(EZ, 0.3), Cap(-EZ, 0.3)) == ()

    def test_nested_no_points(self):
        assert circle_intersection_points(Cap(EZ, 1.2), Cap(colat_point(0.1, 0), 0.3)) == ()

    def test_coincident_raises(self):
        a = Cap(EZ, 0.8)
        with pytest.raises(CoincidentBoundaries):
            circle_intersection_points(a, Cap(EZ, 0.8))
        # same boundary circle seen from the antipodal center
        with pytest.raises(CoincidentBoundaries):
            circle_intersection_points(a, Cap(-EZ, _PI - 0.8))

    def test_nearest_point_on_circle(self):
        cap = Cap(EZ, 0.7)
        target = colat_point(1.5, 0.9)
        q = nearest_point_on_circle(cap, target)
        assert sph_dist(q, cap.center) == pytest.approx(0.7, abs=1e-12)
        # sampled points on the circle are never closer
        for az in np.linspace(0, 2 * _PI, 720, endpoint=False):
            assert sph_dist(q, target) <= sph_dist(colat_point(0.7, az), target) + 1e-9


class TestTripleIntersection:
    def octant_caps(self, r):
        return Cap(EX, r), Cap(EY, r), Cap(EZ, r)

    def test_disjoint_pair_empty(self):
        a = Cap(EZ, 0.4)
        b = Cap(-EZ, 0.4)
        c = Cap(EX, 1.0)
        empty, witness = triple_intersection_empty(a, b, c)
        assert empty and witness is None

    def test_octant_caps_with_common_point(self):
        # arccos(1/sqrt(3)) = 0.9553 < 1.0, so the diagonal lies in all three
        empty, witness = triple_intersection_empty(*self.octant_caps(1.0))
        assert not empty
        for cap in self.octant_caps(1.0):
            assert point_in_cap(witness, cap, tol=1e-9)

    def test_octant_caps_just_too_small(self):
        # the deepest common direction is the diagonal at 0.9553 from each
        # center, so radius 0.95 leaves nothing
        empty, witness = triple_intersection_empty(*self.octant_caps(0.95))
        assert empty and witness is None

    def test_octant_caps_just_big_enough(self):
        empty, witness = triple_intersection_empty(*self.octant_caps(0.96))
        assert not empty

    def test_band_configuration_nonempty(self):
        caps = (Cap(-EX, 2.9), Cap(-EY, 2.9), Cap(-EZ, 2.9))
        empty, witness = triple_intersection_empty(*caps)
        assert not empty
        for cap in caps:
            assert point_in_cap(witness, cap, tol=1e-9)

    def test_containment_nonempty(self):
        small = Cap(EZ, 0.2)
        big1 = Cap(colat_point(0.3, 0.0), 1.2)
        big2 = Cap(colat_point(0.25, 2.0), 1.4)
        empty, witness = triple_intersection_empty(small, big1, big2)
        assert not empty

    def test_small_angle_triple_empty(self):
        # pairwise overlapping caps whose overlap angles sum below pi have
        # empty triple intersection; equilateral arrangement, side 1.7
        psi = math.acos(math.sqrt((math.cos(1.7) + 0.5) / 1.5))
        caps = [Cap(colat_point(psi, k * 2 * _PI / 3), 0.9) for k in range(3)]
        total = sum(
            overlap_angle(caps[i], caps[j]) for i, j in ((0, 1), (1, 2), (0, 2))
        )
        assert total < _PI
        empty, witness = triple_intersection_empty(*caps)
        assert empty and witness is None

    def test_witness_always_valid_when_nonempty(self, rng):
        # random threesomes: whenever the answer is nonempty the witness must
        # actually lie in all three caps
        for _ in range(200):
            caps = [
                Cap(
                    colat_point(rng.uniform(0.1, _PI - 0.1), rng.uniform(0, 2 * _PI)),
                    rng.uniform(0.2, 2.6),
                )
                for _ in range(3)
            ]
            empty, witness = triple_intersection_empty(*caps)
            if not empty:
                for cap in caps:
                    assert point_in_cap(witness, cap, tol=1e-7)

    def test_grid_agreement_with_dense_sampling(self, rng):
        # coarse exhaustive sampling cannot certify emptiness, but any sampled
        # common point must refute an "empty" verdict
        grid = fibonacci_sphere(20000)
        for _ in range(60):
            caps = [
                Cap(
                    colat_point(rng.uniform(0.1, _PI - 0.1), rng.uniform(0, 2 * _PI)),
                    rng.uniform(0.2, 2.8),
                )
                for _ in range(3)
            ]
            inside = np.ones(len(grid), dtype=bool)
            for cap in caps:
                inside &= grid @ cap.center >= math.cos(cap.radius)
            empty, _ = triple_intersection_empty(*caps)
            if inside.any():
                assert not empty


class TestTripleCertificate:
    def test_octahedron_lengths_are_right_angles(self):
        # radius arctan(1/sqrt(cos(2pi/5))) makes every center distance pi/2
        rho = 1.0634400235777521
        th = 2 * _PI / 5
        cert = triple_realizable((rho, rho, rho), (th, th, th))
        assert cert.realizable
        for l in cert.lengths:
            assert l == pytest.approx(_PI / 2, abs=1e-12)

    def test_zeta_frozen_value(self):
        # all angles 2pi/3: 1 - 3*cos^2 - 2*cos^3 with cos = -1/2 gives 1/2
        z = zeta_certificate(2 * _PI / 3, 2 * _PI / 3, 2 * _PI / 3)
        assert z == pytest.approx(0.5, abs=1e-12)

    @given(
        th1=st.floats(min_value=0.05, max_value=_PI - 0.05),
        th2=st.floats(min_value=0.05, max_value=_PI - 0.05),
        th3=st.floats(min_value=0.05, max_value=_PI - 0.05),
    )
    def test_zeta_product_identity(self, th1, th2, th3):
        # 1 - sum cos^2 - 2 prod cos == -4 cos(s) cos(s-t1) cos(s-t2) cos(s-t3)
        # with s the half-sum; both sides derived independently
        z = zeta_certificate(th1, th2, th3)
        s = 0.5 * (th1 + th2 + th3)
        prod = (
            -4.0
            * math.cos(s)
            * math.cos(s - th1)
            * math.cos(s - th2)
            * math.cos(s - th3)
        )
        assert z == pytest.approx(prod, abs=1e-10)

    @given(
        th1=st.floats(min_value=0.05, max_value=_PI - 0.05),
        th2=st.floats(min_value=0.05, max_value=_PI - 0.05),
        th3=st.floats(min_value=0.05, max_value=_PI - 0.05),
    )
    def test_zeta_positive_iff_face_admissible(self, th1, th2, th3):
        ths = (th1, th2, th3)
        total = sum(ths)
        pairwise_ok = all(
            ths[i] + ths[(i + 1) % 3] < ths[(i + 2) % 3] + _PI for i in range(3)
        )
        admissible = total > _PI and pairwise_ok
        assume(abs(total - _PI) > 1e-6)
        assume(
            all(
                abs(ths[i] + ths[(i + 1) % 3] - ths[(i + 2) % 3] - _PI) > 1e-6
                for i in range(3)
            )
        )
        z = zeta_certificate(*ths)
        if admissible:
            assert z > 0
        # outside the admissible cone zeta may take either sign depending on
        # which inequality fails, so only the forward implication is tested

    def test_realizable_random_admissible(self, rng):
        for _ in range(200):
            while True:
                ths = rng.uniform(0.4, _PI - 0.2, size=3)
                total = ths.sum()
                pairwise = all(
                    ths[i] + ths[(i + 1) % 3] < ths[(i + 2) % 3] + _PI
                    for i in range(3)
                )
                if total > _PI + 1e-3 and pairwise:
                    break
            radii = rng.uniform(0.15, _PI / 2 - 0.05, size=3)
            cert = triple_realizable(tuple(radii), tuple(ths))
            assert cert.realizable, (radii, ths, cert)
            assert cert.zeta > 0

    def test_domain_errors(self):
        with pytest.raises(PreconditionViolated):
            triple_realizable((0.0, 0.5, 0.5), (1.5, 1.5, 1.5))
        with pytest.raises(PreconditionViolated):
            triple_realizable((0.5, 0.5, 0.5), (0.0, 1.5, 1.5))


def try_certificate(radii, ths):
    """Certificate for a sampled triple, or None when outside the face cone."""
    try:
        cert = triple_realizable(tuple(radii), tuple(ths))
    except PreconditionViolated:
        return None
    return cert if cert.realizable else None


class TestLayout:
    def layout_for(self, radii, ths):
        return layout_triple(radii, ths)

    def test_gauge_positions(self):
        lay = self.layout_for((0.7, 0.8, 0.9), (1.9, 2.0, 2.1))
        np.testing.assert_allclose(lay.p_i, EZ, atol=1e-15)
        assert abs(lay.p_j[1]) < 1e-15
        assert lay.p_j[0] > 0
        assert lay.p_k[1] > 0

    def test_lengths_reproduced(self, rng):
        for _ in range(50):
            ths = rng.uniform(1.3, 2.6, size=3)
            radii = rng.uniform(0.3, 1.2, size=3)
            cert = try_certificate(radii, ths)
            if cert is None:
                continue
            lay = self.layout_for(tuple(radii), tuple(ths))
            assert sph_dist(lay.p_i, lay.p_j) == pytest.approx(cert.lengths[0], abs=1e-10)
            assert sph_dist(lay.p_j, lay.p_k) == pytest.approx(cert.lengths[1], abs=1e-10)
            assert sph_dist(lay.p_k, lay.p_i) == pytest.approx(cert.lengths[2], abs=1e-10)

    def test_angles_reproduced_closed_loop(self, rng):
        for _ in range(50):
            ths = rng.uniform(1.3, 2.6, size=3)
            radii = rng.uniform(0.3, 1.2, size=3)
            if try_certificate(radii, ths) is None:
                continue
            lay = self.layout_for(tuple(radii), tuple(ths))
            ci, cj, ck = lay.caps()
            assert overlap_angle(ci, cj) == pytest.approx(ths[0], abs=1e-10)
            assert overlap_angle(cj, ck) == pytest.approx(ths[1], abs=1e-10)
            assert overlap_angle(ck, ci) == pytest.approx(ths[2], abs=1e-10)

    def test_area_two_ways(self, rng):
        # angle-sum excess equals the l'Huilier evaluation of the same triangle
        for _ in range(30):
            ths = rng.uniform(1.5, 2.5, size=3)
            radii = rng.uniform(0.4, 1.0, size=3)
            if try_certificate(radii, ths) is None:
                continue
            lay = self.layout_for(tuple(radii), tuple(ths))
            a = sph_dist(lay.p_j, lay.p_k)
            b = sph_dist(lay.p_i, lay.p_k)
            c = sph_dist(lay.p_i, lay.p_j)
            assert abs(signed_excess(lay.p_i, lay.p_j, lay.p_k)) == pytest.approx(
                excess_lhuilier(a, b, c), abs=1e-9
            )

    def test_layout_orientation_fixed(self):
        lay = self.layout_for((0.7, 0.7, 0.7), (2.0, 2.0, 2.0))
        det = float(np.linalg.det(np.stack([lay.p_i, lay.p_j, lay.p_k])))
        assert det > 0


class TestSignedExcess:
    def test_octant_triangle_sign_convention(self):
        # det[ex, ey, ez] = +1, so this corner triangle counts as negative
        # in the chart convention used by the solver gauge
        val = signed_excess(EX, EY, EZ)
        assert val == pytest.approx(-_PI / 2, abs=1e-12)
        assert signed_excess(EY, EX, EZ) == pytest.approx(_PI / 2, abs=1e-12)

    def test_degenerate_is_zero(self):
        assert signed_excess(EX, EX, EY) == 0.0

    @pytest.mark.parametrize("pattern", ["solved_oct", "solved_ico",
                                         "realized_geodesic42"])
    def test_face_excesses_match_scalar_on_patterns(self, pattern, request):
        cfg = request.getfixturevalue(pattern)
        cfg = cfg[1] if pattern.startswith("realized") else cfg[0]
        faces = list(cfg.tri.faces)
        faces += [(k, j, i) for (i, j, k) in faces]       # flipped
        got = face_excesses(cfg.centers, faces)
        want = np.array([signed_excess(*cfg.centers[list(f)]) for f in faces])
        assert np.array_equal(np.sign(got), np.sign(want))
        assert np.max(np.abs(got - want)) <= 1e-15

    def test_face_excesses_match_scalar_on_random_triples(self, rng):
        pts = rng.standard_normal((40, 3))
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        meridian = np.array([[math.sin(t), 0.0, math.cos(t)]
                             for t in (0.3, 1.1, 2.0, 2.9)])
        meridian[3, 1] = 1e-15          # determinant below the 1e-14 cut
        centers = np.vstack([pts, meridian])
        faces = [tuple(int(x) for x in rng.choice(40, 3, replace=False))
                 for _ in range(100)]
        faces += [(k, j, i) for (i, j, k) in faces]       # flipped
        faces += [(40, 41, 42), (41, 42, 43), (43, 41, 40),  # collinear
                  (0, 0, 1), (2, 3, 3)]                    # repeated
        got = face_excesses(centers, faces)
        want = np.array([signed_excess(*centers[list(f)]) for f in faces])
        assert np.array_equal(np.sign(got), np.sign(want))
        assert np.array_equal(got == 0.0, want == 0.0)
        assert np.sum(want == 0.0) == 5
        # the same formula both ways; numpy's arctan2 may round an ulp
        # away from math.atan2
        assert np.all(np.abs(got - want) <= 2.0 * np.spacing(np.abs(want)))

    def test_thin_right_triangles(self):
        # legs a, b along two orthogonal meridians: tan(E/2) =
        # tan(a/2) tan(b/2); below the 1e-14 determinant cut the area
        # (under 5e-15 here) counts as degenerate
        legs = np.geomspace(1e-8, 1.5, 25)
        cut = 0
        for a in legs:
            for b in legs:
                m = np.array([[0.0, 0.0, 1.0],
                              [math.sin(a), 0.0, math.cos(a)],
                              [0.0, math.sin(b), math.cos(b)]])
                want = 2.0 * math.atan(math.tan(a / 2) * math.tan(b / 2))
                got = [signed_excess(m[0], m[2], m[1]),
                       -signed_excess(m[0], m[1], m[2]),
                       *face_excesses(m, [(0, 2, 1), (2, 1, 0)]),
                       *-face_excesses(m, [(0, 1, 2), (1, 2, 0)])]
                if abs(np.linalg.det(m)) < 1e-14:
                    cut += 1
                    assert all(g == 0.0 for g in got) and want < 5e-15, (a, b)
                else:
                    assert max(abs(g - want) for g in got) <= 1e-15, (a, b)
        assert 0 < cut < 25 * 25


class TestFibonacci:
    def test_unit_and_count(self):
        pts = fibonacci_sphere(500)
        assert pts.shape == (500, 3)
        np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)

    def test_deterministic(self):
        np.testing.assert_array_equal(fibonacci_sphere(64), fibonacci_sphere(64))

    def test_reasonable_coverage(self):
        # nearest sample to any direction should be within a few degrees
        pts = fibonacci_sphere(2000)
        for target in (EX, EY, EZ, -EX, -EY, -EZ):
            best = float(np.max(pts @ target))
            assert best > math.cos(0.1)
