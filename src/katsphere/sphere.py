"""Spherical caps, overlap angles, and three-circle layouts.

Caps are closed metric disks on the unit sphere, given by a unit center
vector and a radius in (0, pi).  The inversive distance of two caps is

    I = (cos r1 cos r2 - cos d) / (sin r1 sin r2),

with d the center distance; |I| < 1 means the boundary circles cross and
arccos I is the overlap angle, I = 1 is external tangency of the disks,
I > 1 means disjoint boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    CoincidentBoundaries,
    DegenerateCap,
    DegenerateLength,
    Engulfing,
    NotOverlapping,
    PreconditionViolated,
)

_PI = math.pi
TANGENT_EPS = 1e-9          # default tolerance for tangency detection
_UNIT_EPS = 1e-9            # allowed deviation of a center from unit length


def _as_unit(p) -> np.ndarray:
    v = np.asarray(p, dtype=float)
    if v.shape != (3,):
        raise DegenerateCap(f"center must be a 3-vector, got shape {v.shape}")
    n = float(np.linalg.norm(v))
    if abs(n - 1.0) > _UNIT_EPS:
        raise DegenerateCap(f"center has norm {n}, expected 1")
    v = v / n
    v.setflags(write=False)
    return v


def _unit_caps(centers: np.ndarray, radii: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """The rows of `centers` normalized as _as_unit does it, and a mask of
    the rows Cap accepts: center norm within _UNIT_EPS of 1, radius in
    (0, pi)."""
    norm = np.sqrt(_rowdot(centers, centers))
    valid = ~(np.abs(norm - 1.0) > _UNIT_EPS) & (0.0 < radii) & (radii < _PI)
    with np.errstate(divide="ignore", invalid="ignore"):
        return centers / norm[:, None], valid


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of matching rows, each rounded like np.dot."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _elementwise(fn, a: np.ndarray) -> np.ndarray:
    """fn on every element of a 1-D array through Python floats, so each
    result rounds like the scalar math call."""
    return np.array([fn(x) for x in a.tolist()], dtype=float)


def _clamped_acos(x: float) -> float:
    return math.acos(min(1.0, max(-1.0, x)))


@dataclass(frozen=True, eq=False)
class Cap:
    """Closed spherical cap: all points within `radius` of `center`."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _as_unit(self.center))
        r = float(self.radius)
        if not 0.0 < r < _PI:
            raise DegenerateCap(f"radius {r} outside the open interval (0, pi)")
        object.__setattr__(self, "radius", r)

    def __repr__(self) -> str:
        c = tuple(round(x, 6) for x in self.center)
        return f"Cap(center={c}, radius={round(self.radius, 6)})"


def sph_dist(p, q) -> float:
    """Great-circle distance between two unit vectors."""
    d = float(np.dot(p, q))
    return math.acos(min(1.0, max(-1.0, d)))


def inversive_distance(a: Cap, b: Cap) -> float:
    cosd = float(np.dot(a.center, b.center))
    return ((math.cos(a.radius) * math.cos(b.radius) - cosd)
            / (math.sin(a.radius) * math.sin(b.radius)))


def inversive_matrix(centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """Inversive distances of all cap pairs as an n x n array.

    Entry (u, v) is the inversive_distance formula on rows u and v.  The
    Gram product keeps the rounding of the scalar dot product, which a
    row-wise einsum does not, so reports stay reproducible.
    """
    c, s = np.cos(radii), np.sin(radii)
    return (np.outer(c, c) - centers @ centers.T) / np.outer(s, s)


def overlap_angle(a: Cap, b: Cap) -> float:
    """Intersection angle of the boundary circles, in (0, pi).

    Raises NotOverlapping when I >= 1 and Engulfing when I <= -1.
    """
    inv = inversive_distance(a, b)
    if inv >= 1.0:
        raise NotOverlapping(f"inversive distance {inv} >= 1")
    if inv <= -1.0:
        raise Engulfing(f"inversive distance {inv} <= -1")
    return math.acos(inv)


def center_distance(r1: float, r2: float, theta: float) -> float:
    """Distance between centers of caps with radii r1, r2 meeting at angle theta."""
    for name, val in (("r1", r1), ("r2", r2), ("theta", theta)):
        if not 0.0 < val < _PI:
            raise PreconditionViolated(f"{name} = {val} outside (0, pi)")
    arg = math.cos(r1) * math.cos(r2) - math.cos(theta) * math.sin(r1) * math.sin(r2)
    if not -1.0 < arg < 1.0:
        raise DegenerateLength(f"cos of center distance is {arg}")
    return math.acos(arg)


def point_in_cap(p, cap: Cap, tol: float = 0.0) -> bool:
    return float(np.dot(p, cap.center)) >= math.cos(cap.radius) - tol


def caps_disjoint(a: Cap, b: Cap) -> bool:
    """The closed disks have empty intersection."""
    return sph_dist(a.center, b.center) > a.radius + b.radius


def cap_contains(outer: Cap, inner: Cap, tol: float = 0.0) -> bool:
    """Closed containment of `inner` in `outer`."""
    return sph_dist(outer.center, inner.center) + inner.radius <= outer.radius + tol


def caps_cover_sphere(a: Cap, b: Cap) -> bool:
    """The two closed disks together cover the whole sphere."""
    return sph_dist(a.center, b.center) >= 2.0 * _PI - a.radius - b.radius


def nearest_point_on_circle(cap: Cap, target) -> np.ndarray:
    """Point of the boundary circle of `cap` closest to `target`."""
    c = cap.center
    t = np.asarray(target, dtype=float)
    u = t - float(np.dot(t, c)) * c
    n = float(np.linalg.norm(u))
    if n < 1e-14:
        # target at the axis: every circle point is equally near
        u = np.array([1.0, 0.0, 0.0]) - c[0] * c
        n = float(np.linalg.norm(u))
        if n < 1e-14:
            u = np.array([0.0, 1.0, 0.0]) - c[1] * c
            n = float(np.linalg.norm(u))
    u = u / n
    return math.cos(cap.radius) * c + math.sin(cap.radius) * u


def circle_intersection_points(a: Cap, b: Cap,
                               tangent_eps: float = TANGENT_EPS
                               ) -> tuple[np.ndarray, ...]:
    """Intersection points of the two boundary circles (0, 1 or 2 points).

    Exactly one point is returned when the caps are internally or
    externally tangent within `tangent_eps`.  Raises CoincidentBoundaries
    when both caps have the same boundary circle.
    """
    ca, cb = a.center, b.center
    t = float(np.dot(ca, cb))
    if t > 1.0 - 1e-14 and abs(a.radius - b.radius) <= 1e-12:
        raise CoincidentBoundaries("identical boundary circles")
    if t < -1.0 + 1e-14 and abs(a.radius + b.radius - _PI) <= 1e-12:
        raise CoincidentBoundaries("identical boundary circles (antipodal form)")

    d = sph_dist(ca, cb)
    tangent = (abs(d - (a.radius + b.radius)) <= tangent_eps
               or abs(d - abs(a.radius - b.radius)) <= tangent_eps
               or abs(d - (2.0 * _PI - a.radius - b.radius)) <= tangent_eps)

    den = 1.0 - t * t
    if den < 1e-28:
        return ()
    alpha = (math.cos(a.radius) - t * math.cos(b.radius)) / den
    beta = (math.cos(b.radius) - t * math.cos(a.radius)) / den
    base = alpha * ca + beta * cb
    if tangent:
        n = float(np.linalg.norm(base))
        if n < 1e-14:
            return ()
        return (base / n,)
    s = 1.0 - alpha * alpha - beta * beta - 2.0 * alpha * beta * t
    if s <= 0.0:
        return ()
    axis = np.cross(ca, cb)
    gamma = math.sqrt(s) / float(np.linalg.norm(axis))
    return (base + gamma * axis, base - gamma * axis)


def circle_intersections(centers: np.ndarray, radii: np.ndarray,
                         us: np.ndarray, vs: np.ndarray,
                         tangent_eps: float = TANGENT_EPS
                         ) -> tuple[np.ndarray, np.ndarray]:
    """circle_intersection_points of the cap pairs (us[i], vs[i]), all at once.

    Returns points (m, 2, 3), the + and the - crossing of each pair, and a
    mask found (m, 2) of the points the scalar function returns for
    Cap(centers[u], radii[u]) and Cap(centers[v], radii[v]): the first
    point alone on a tangent pair, none where a Cap would be rejected, the
    boundaries coincide or the scalar function returns nothing.  Each step
    rounds like the scalar one, so the found points equal its points bit
    for bit.
    """
    unit, valid = _unit_caps(centers, radii)
    cos_r = _elementwise(math.cos, np.where(valid, radii, 0.0))
    ca, cb, ra, rb = unit[us], unit[vs], radii[us], radii[vs]
    t = _rowdot(ca, cb)
    coincident = (((t > 1.0 - 1e-14) & (np.abs(ra - rb) <= 1e-12))
                  | ((t < -1.0 + 1e-14) & (np.abs(ra + rb - _PI) <= 1e-12)))
    d = _elementwise(_clamped_acos, t)
    tangent = ((np.abs(d - (ra + rb)) <= tangent_eps)
               | (np.abs(d - np.abs(ra - rb)) <= tangent_eps)
               | (np.abs(d - (2.0 * _PI - ra - rb)) <= tangent_eps))
    den = 1.0 - t * t
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = (cos_r[us] - t * cos_r[vs]) / den
        beta = (cos_r[vs] - t * cos_r[us]) / den
        base = alpha[:, None] * ca + beta[:, None] * cb
        base_norm = np.sqrt(_rowdot(base, base))
        s = 1.0 - alpha * alpha - beta * beta - 2.0 * alpha * beta * t
        axis = np.cross(ca, cb)
        axis_norm = np.sqrt(_rowdot(axis, axis))
        gamma = (np.sqrt(s) / axis_norm)[:, None]
        plus = np.where(tangent[:, None], base / base_norm[:, None],
                        base + gamma * axis)
        points = np.stack([plus, base - gamma * axis], axis=1)
    # the scalar function divides by axis_norm in Python, where 0 raises
    crossing = np.where(tangent, ~(base_norm < 1e-14),
                        ~(s <= 0.0) & (axis_norm != 0.0))
    ok = valid[us] & valid[vs] & ~coincident & ~(den < 1e-28) & crossing
    return points, np.column_stack([ok, ok & ~tangent])


def triple_intersection_empty(a: Cap, b: Cap, c: Cap
                              ) -> tuple[bool, np.ndarray | None]:
    """Decide whether three closed caps have empty common intersection.

    Returns (True, None) when empty, else (False, witness) with a point
    in all three caps.  The decision tests a finite witness set that is
    complete for caps: pairwise boundary crossings, cap centers for
    nested caps, and extremal boundary points for pairs that jointly
    cover the sphere.
    """
    caps = (a, b, c)
    triples = ((a, b, c), (b, c, a), (c, a, b))

    for x, y, _ in triples:
        if caps_disjoint(x, y):
            return True, None

    for x, y, z in triples:
        try:
            pts = circle_intersection_points(x, y)
        except CoincidentBoundaries:
            p = nearest_point_on_circle(x, z.center)
            if all(point_in_cap(p, w, tol=1e-12) for w in caps):
                return False, p
            continue
        for p in pts:
            if point_in_cap(p, z):
                return False, np.asarray(p)

    for x, y, z in triples:
        if cap_contains(y, x) and cap_contains(z, x):
            return False, np.array(x.center)

    for x, y, z in triples:
        if caps_cover_sphere(x, y):
            for ring in (x, y):
                p = nearest_point_on_circle(ring, z.center)
                if all(point_in_cap(p, w, tol=1e-12) for w in caps):
                    return False, p

    # robustness: deepest boundary point of each cap toward the third center
    for x, y, z in triples:
        for ring, other in ((x, y), (y, x)):
            p = nearest_point_on_circle(ring, z.center)
            if point_in_cap(p, other) and point_in_cap(p, z):
                return False, p

    return True, None


# -- three-circle layouts ----------------------------------------------------

class TripleCertificate(NamedTuple):
    lengths: tuple[float, float, float]   # (l_ij, l_jk, l_ki)
    quantity: float                       # sin^2 l_ij sin^2 l_jk - (...)^2
    zeta: float                           # angle-only positivity certificate
    realizable: bool                      # strict triangle inequalities hold


def _face_triple_ok(th: tuple[float, float, float]) -> bool:
    if not all(0.0 < t < _PI for t in th):
        return False
    if sum(th) <= _PI:
        return False
    for i in range(3):
        if th[i] + th[(i + 1) % 3] >= th[(i + 2) % 3] + _PI:
            return False
    return True


def zeta_certificate(th_ij: float, th_jk: float, th_ki: float) -> float:
    """1 - sum of squared cosines - twice the cosine product."""
    c1, c2, c3 = math.cos(th_ij), math.cos(th_jk), math.cos(th_ki)
    return 1.0 - c1 * c1 - c2 * c2 - c3 * c3 - 2.0 * c1 * c2 * c3


def triple_realizable(radii, angles) -> TripleCertificate:
    """Certificate that three caps with given radii and angles close up.

    radii = (r_i, r_j, r_k), angles = (th_ij, th_jk, th_ki).  The angles
    must satisfy the face inequalities (sum > pi, pairwise sums below the
    third plus pi); PreconditionViolated otherwise.
    """
    r = tuple(float(x) for x in radii)
    th = tuple(float(x) for x in angles)
    if not all(0.0 < x < _PI for x in r):
        raise PreconditionViolated(f"radii {r} outside (0, pi)")
    if not _face_triple_ok(th):
        raise PreconditionViolated(f"angles {th} fail the face inequalities")
    l_ij = center_distance(r[0], r[1], th[0])
    l_jk = center_distance(r[1], r[2], th[1])
    l_ki = center_distance(r[2], r[0], th[2])
    q = (math.sin(l_ij) ** 2 * math.sin(l_jk) ** 2
         - (math.cos(l_ij) * math.cos(l_jk) - math.cos(l_ki)) ** 2)
    zeta = zeta_certificate(*th)
    realizable = (l_ij + l_jk > l_ki and l_jk + l_ki > l_ij
                  and l_ki + l_ij > l_jk and l_ij + l_jk + l_ki < 2.0 * _PI)
    return TripleCertificate((l_ij, l_jk, l_ki), q, zeta, realizable)


@dataclass(frozen=True)
class ThreeCircleLayout:
    radii: tuple[float, float, float]
    angles: tuple[float, float, float]        # (th_ij, th_jk, th_ki)
    lengths: tuple[float, float, float]       # (l_ij, l_jk, l_ki)
    centers: np.ndarray                       # rows p_i, p_j, p_k
    inner_angles: tuple[float, float, float]  # triangle angles at i, j, k

    def caps(self) -> tuple[Cap, Cap, Cap]:
        return tuple(Cap(self.centers[i], self.radii[i]) for i in range(3))

    @property
    def p_i(self) -> np.ndarray:
        return self.centers[0]

    @property
    def p_j(self) -> np.ndarray:
        return self.centers[1]

    @property
    def p_k(self) -> np.ndarray:
        return self.centers[2]


def layout_triple(radii, angles) -> ThreeCircleLayout:
    """Place a realizable cap triple: p_i at the north pole, p_j on the
    x >= 0 meridian, p_k with positive y."""
    cert = triple_realizable(radii, angles)
    l_ij, l_jk, l_ki = cert.lengths
    r = tuple(float(x) for x in radii)
    th = tuple(float(x) for x in angles)

    def inner(a: float, b: float, c: float) -> float:
        # angle opposite side a, adjacent to sides b and c
        return _clamped_acos((math.cos(a) - math.cos(b) * math.cos(c))
                             / (math.sin(b) * math.sin(c)))

    ang_i = inner(l_jk, l_ij, l_ki)
    ang_j = inner(l_ki, l_ij, l_jk)
    ang_k = inner(l_ij, l_jk, l_ki)

    p_i = np.array([0.0, 0.0, 1.0])
    p_j = np.array([math.sin(l_ij), 0.0, math.cos(l_ij)])
    p_k = np.array([math.sin(l_ki) * math.cos(ang_i),
                    math.sin(l_ki) * math.sin(ang_i),
                    math.cos(l_ki)])
    centers = np.vstack([p_i, p_j, p_k])
    return ThreeCircleLayout(r, th, cert.lengths, centers,
                             (ang_i, ang_j, ang_k))


def excess_lhuilier(l1: float, l2: float, l3: float) -> float:
    """Spherical excess (area) of a triangle from its side lengths."""
    s = 0.5 * (l1 + l2 + l3)
    prod = (math.tan(0.5 * s) * math.tan(0.5 * (s - l1))
            * math.tan(0.5 * (s - l2)) * math.tan(0.5 * (s - l3)))
    return 4.0 * math.atan(math.sqrt(max(0.0, prod)))


def signed_excess(p_i, p_j, p_k) -> float:
    """Signed area of the geodesic triangle spanned by three centers.

    The sign is positive when the triple winds counterclockwise in the
    stereographic charts used by the gauge normalization, which is
    det[p_i, p_j, p_k] < 0 in ambient coordinates.  Degenerate triples
    (near-collinear centers) return 0.  The area comes from Van Oosterom
    and Strackee's tan(E/2) = |det| / (1 + p.q + q.r + r.p), which stays
    accurate on thin triangles where L'Huilier's formula cancels.
    """
    m = np.vstack([p_i, p_j, p_k])
    det = float(np.linalg.det(m))
    if abs(det) < 1e-14:
        return 0.0
    p, q, r = m
    denom = 1.0 + float(p @ q) + float(q @ r) + float(r @ p)
    area = 2.0 * math.atan2(abs(det), denom)
    return area if det < 0.0 else -area


def face_excesses(centers: np.ndarray, faces) -> np.ndarray:
    """signed_excess of every face's center triple, as one array.

    Signs and zeros come from the same determinant test; numpy's arctan2
    may round an ulp away from math.atan2.
    """
    m = centers[np.asarray(faces)]
    det = np.linalg.det(m)
    dots = (m[..., None, :] @ np.roll(m, -1, axis=1)[..., :, None])[..., 0, 0]
    area = 2.0 * np.arctan2(np.abs(det),
                            1.0 + dots[:, 0] + dots[:, 1] + dots[:, 2])
    return np.where(np.abs(det) < 1e-14, 0.0, np.where(det < 0.0, area, -area))


def fibonacci_sphere(count: int) -> np.ndarray:
    """Deterministic quasi-uniform sample of the unit sphere."""
    i = np.arange(count, dtype=float)
    z = 1.0 - 2.0 * (i + 0.5) / count
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden = _PI * (3.0 - math.sqrt(5.0))
    phi = golden * i
    return np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])


# ---------------------------------------------------------------------------
# Minkowski model of cap geometry
# ---------------------------------------------------------------------------
#
# A cap corresponds to a spacelike unit vector in Minkowski space R^{3,1}:
# the boundary circle is the intersection of the sphere with a plane, and
# that plane extends to a hyperbolic plane in the ball model.  Inversive
# distance is (minus) the Minkowski inner product of the normals, so the
# model turns cap geometry into linear algebra.

MINKOWSKI_METRIC = np.diag([1.0, 1.0, 1.0, -1.0])
MINKOWSKI_METRIC.setflags(write=False)


def minkowski_dot(u, v) -> float:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return float(u[0] * v[0] + u[1] * v[1] + u[2] * v[2] - u[3] * v[3])


def cap_plane_normal(cap: Cap) -> np.ndarray:
    """Spacelike unit normal of the plane carrying the boundary circle.

    Normalized so that minkowski_dot(n, n) = 1 and so that the inversive
    distance of two caps is -minkowski_dot(n1, n2).
    """
    s = math.sin(cap.radius)
    return np.array([cap.center[0] / s, cap.center[1] / s,
                     cap.center[2] / s, math.cos(cap.radius) / s])


def plane_normal_cap(n) -> Cap:
    """Inverse of cap_plane_normal, accepting any spacelike 4-vector."""
    n = np.asarray(n, dtype=float)
    norm2 = minkowski_dot(n, n)
    if norm2 <= 0.0:
        raise PreconditionViolated(
            f"normal is not spacelike: <n, n> = {norm2}")
    n = n / math.sqrt(norm2)
    m = float(np.linalg.norm(n[:3]))
    return Cap(n[:3] / m, math.acos(min(1.0, max(-1.0, n[3] / m))))


def _minkowski_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """minkowski_dot along the last axis, rounded like the scalar call."""
    return (a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]
            + a[..., 2] * b[..., 2] - a[..., 3] * b[..., 3])


def _plane_normals(centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """cap_plane_normal of every cap, one row per cap; the first cap that
    Cap rejects raises its DegenerateCap."""
    unit, valid = _unit_caps(centers, radii)
    if not valid.all():
        bad = int(np.argmin(valid))
        Cap(centers[bad], float(radii[bad]))
    sin = _elementwise(math.sin, radii)
    return np.column_stack([unit / sin[:, None],
                            _elementwise(math.cos, radii) / sin])


def _normal_caps(normals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """plane_normal_cap of every row, as (centers, radii); the first row
    it rejects raises what plane_normal_cap raises for it."""
    norm2 = _minkowski_rows(normals, normals)
    with np.errstate(divide="ignore", invalid="ignore"):
        n = normals / np.sqrt(norm2)[:, None]
        m = np.sqrt(_rowdot(n[:, :3], n[:, :3]))
        radii = _elementwise(_clamped_acos, n[:, 3] / m)
        centers, valid = _unit_caps(n[:, :3] / m[:, None], radii)
    bad = ~(norm2 > 0.0) | ~valid
    if bad.any():
        plane_normal_cap(normals[int(np.argmax(bad))])
    return centers, radii


def common_orthogonal_point(normals) -> np.ndarray:
    """The point of the hyperbolic ball lying on three given planes.

    Takes three spacelike plane normals and returns the timelike unit
    vector q with minkowski_dot(n_i, q) = 0, normalized to
    minkowski_dot(q, q) = -1 with positive last component.  Raises
    PreconditionViolated when the planes have no common ball point,
    which happens exactly when the normal span fails to be spacelike.
    """
    mat = np.asarray(normals, dtype=float)
    if mat.shape != (3, 4):
        raise PreconditionViolated(
            f"expected three plane normals, got shape {mat.shape}")
    _, sv, vt = np.linalg.svd(mat @ MINKOWSKI_METRIC)
    q = vt[-1]
    q2 = minkowski_dot(q, q)
    if sv[-1] < 1e-8 * sv[0] or q2 >= -1e-12:
        raise PreconditionViolated(
            "planes do not meet in a single hyperbolic point")
    q = q / math.sqrt(-q2)
    return q if q[3] > 0.0 else -q


def boost_to_center(q) -> np.ndarray:
    """Lorentz transformation moving a timelike unit vector to the origin.

    The returned 4x4 matrix B satisfies B q = (0, 0, 0, 1); planes through
    q become planes through the ball center, so caps whose boundary planes
    pass through q become great circles.
    """
    q = np.asarray(q, dtype=float)
    if abs(minkowski_dot(q, q) + 1.0) > 1e-9 or q[3] <= 0.0:
        raise PreconditionViolated(
            "expected a future-pointing timelike unit vector")
    basis = []
    for k in range(3):
        v = np.zeros(4)
        v[k] = 1.0
        v = v + minkowski_dot(v, q) * q
        for u in basis:
            v = v - minkowski_dot(v, u) * u
        n2 = minkowski_dot(v, v)
        if n2 < 1e-12:
            raise PreconditionViolated("degenerate orthogonal frame")
        basis.append(v / math.sqrt(n2))
    rows = [MINKOWSKI_METRIC @ u for u in basis]
    rows.append(-(MINKOWSKI_METRIC @ q))
    return np.vstack(rows)
