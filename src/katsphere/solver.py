"""Gauged Levenberg-Marquardt solver for spherical circle patterns.

Unknowns and gauge
------------------
A configuration assigns to every vertex of the triangulation a spherical
cap.  The solver has one chart: every vertex carries a pair of offsets
along a tangent frame at its center and x = log tan(r/2), which covers
all radii in (0, pi) (the radius variable of Bobenko and Springborn's
variational principle).  The (n, 3) integer map `_Layout.col` sends
coordinate k of vertex v to its free column, or to -1 where a gauge
fixes it; the Jacobian, the step and the feasibility test are array
passes over this map.

The Moebius group of the sphere has dimension six.  The face gauge of
one distinguished face (a, b, c) removes it by fixing coordinates:

* all three gauge radii stay at pi/2 (great circles),
* the center of `a` stays at the south pole (0, 0, -1),
* the center of `b` moves only along its meridian tangent, so it stays
  on the meridian y = 0; feasibility keeps it at x > 0,
* the center of `c` keeps y > 0, which fixes the remaining reflection.

The free coordinates are then the meridian offset of `b` (column 0), the
tangent pairs of the other vertices in vertex order, and x for every
vertex outside the gauge face: 1 + 2(n-2) + (n-3) = 3n - 6 coordinates
against one overlap-angle residual per edge, a square system.  Fixed
coordinates keep their bits through every step.

Without a gauge every coordinate is free.  The Levenberg-Marquardt
damping then absorbs the six-dimensional Moebius null space, so each cold
start of `solve` aims straight at the prescribed angles.  The starts are
tried in order, each built only when the one before it missed:

1. punctured Tutte starts: Tutte's barycentric embedding with one vertex
   w at infinity, lifted to the sphere by inverse stereographic
   projection and centered by Moebius boosts, at each of the
   1 + `SolveOptions.fallback_gauges` vertices of highest degree;
2. the reference leg, when uniform angles of 2 pi / 5 are admissible:
   the first punctured start solved for those angles, and their pattern
   aimed at the target.  It reaches the obtuse bipyramids on which every
   punctured start stalls.

Every start ends in one finish: its answer is moved into the requested
face gauge by `regauge`, polished there in the same chart with the
gauge's columns fixed, and accepted only with radii in bounds and no
flipped face or overlapping non-adjacent pair.  The first answer to pass
wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .angles import AngleAssignment, check_admissible
from .complexes import Triangulation
from .errors import (
    ConditionsViolated,
    EdgeNotOverlapping,
    NearSingularChart,
    NotAFace,
)
from .sphere import (
    Cap,
    _inversive_pairs,
    _normal_caps,
    _plane_normals,
    _rowdot,
    boost_to_center,
    common_orthogonal_point,
    face_excesses,
    inversive_matrix,
)
from .verify import radii_bounds, separation_margin

_PI = math.pi

_GAUGE_RADIUS = _PI / 2

# Levenberg-Marquardt damping
MAX_ITERATIONS = 250       # per Levenberg-Marquardt run
INITIAL_DAMPING = 1e-3
DAMPING_GROW = 10.0
DAMPING_SHRINK = 3.0
DAMPING_MAX = 1e10

# the punctured Tutte starts
REFERENCE_ANGLE = 2.0 * _PI / 5.0   # uniform angles of the reference leg
TUTTE_RADIUS = 0.55        # start radius per longest incident edge
CENTERING_STEPS = 100      # Moebius boosts tried to center the start
CENTERING_TOL = 1e-6       # centroid distance from the origin that suffices


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Configuration:
    """Cap centers and radii for every vertex, plus the gauged face."""

    tri: Triangulation
    centers: np.ndarray          # (n, 3) unit rows
    radii: np.ndarray            # (n,) in (0, pi)
    gauge_face: tuple[int, int, int]

    def cap(self, v: int) -> Cap:
        return Cap(self.centers[v], float(self.radii[v]))

    def with_data(self, centers: np.ndarray, radii: np.ndarray) -> "Configuration":
        return replace(self, centers=centers, radii=radii)


@dataclass(frozen=True)
class HomotopyRecord:
    """Diagnostics for an accepted solve; `s` is 1.0, the prescribed angles."""

    s: float
    iterations: int
    residual_inf: float
    damping: float
    step_norm: float
    min_radius: float
    max_nongauge_radius: float
    separation_margin: float


@dataclass(frozen=True)
class SolveReport:
    converged: bool
    residual_inf: float
    iterations: int
    targets: tuple[HomotopyRecord, ...]
    repairs: int
    failure_reason: str | None = None


@dataclass(frozen=True)
class SolveOptions:
    tolerance: float = 1e-10
    fallback_gauges: int = 6     # punctured starts after the first

    def __post_init__(self):
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise ValueError(f"tolerance must be positive and finite, "
                             f"got {self.tolerance!r}")
        if self.fallback_gauges < 0:
            raise ValueError(f"fallback_gauges must not be negative, "
                             f"got {self.fallback_gauges!r}")


# ---------------------------------------------------------------------------
# gauge bookkeeping
# ---------------------------------------------------------------------------

def _require_oriented_face(tri: Triangulation, face) -> tuple[int, int, int]:
    """The face as stored, provided `face` is one of its cyclic rotations."""
    f = tuple(int(v) for v in face)
    if len(f) != 3:
        raise NotAFace(f"gauge face must have three vertices, got {f}")
    i = tri.face_index.get(frozenset(f))
    if i is not None:
        stored = tri.faces[i]
        k = stored.index(f[0])
        if f == stored[k:] + stored[:k]:
            return stored
    raise NotAFace(f"{f} is not an oriented face of the triangulation")


class _Layout:
    """Free columns of a chart: col[v, k] for the tangent pair (k = 0, 1)
    and x = log tan(r/2) (k = 2) of vertex v, -1 where the face gauge
    fixes it.  Without a gauge every coordinate is free, in vertex order."""

    def __init__(self, n: int, gauge: tuple[int, int, int] | None):
        self.gauge = gauge
        if gauge is None:
            col = np.arange(3 * n).reshape(n, 3)
        else:
            a, b, c = gauge
            col = np.full((n, 3), -1)
            tangent = np.delete(np.arange(n), [a, b])
            col[tangent, 0] = 1 + 2 * np.arange(len(tangent))
            col[tangent, 1] = col[tangent, 0] + 1
            col[b, 0] = 0
            radius = np.delete(np.arange(n), gauge)
            col[radius, 2] = 1 + 2 * len(tangent) + np.arange(len(radius))
        col.setflags(write=False)
        self.col = col
        self.n_free = int(np.count_nonzero(col >= 0))


@lru_cache(maxsize=64)
def _layout(n: int, gauge: tuple[int, int, int] | None) -> _Layout:
    """The chart of `gauge` (None: no gauge), built once and shared
    read-only."""
    return _Layout(n, gauge)


def _tangent_frames(P: np.ndarray) -> np.ndarray:
    """Orthonormal tangent frames (n, 2, 3) at the unit rows of P."""
    rows = np.arange(len(P))
    k = np.argmin(np.abs(P), axis=1)
    seed = np.zeros_like(P)
    seed[rows, k] = 1.0
    e1 = seed - P[rows, k][:, None] * P
    norm = np.sqrt(_rowdot(e1, e1))
    bad = np.flatnonzero(norm < 1e-12)
    if bad.size:
        raise NearSingularChart(f"tangent chart degenerate at {P[bad[0]]}")
    e1 = e1 / norm[:, None]
    return np.stack([e1, np.cross(P, e1)], axis=1)


def _chart_frames(P: np.ndarray, lay: _Layout) -> np.ndarray:
    """The tangent frames of the chart: in a face gauge, b's first vector
    is its meridian tangent, so b moves along the meridian y = 0."""
    frames = _tangent_frames(P)
    if lay.gauge is not None:
        b = lay.gauge[1]
        frames[b, 0] = (-P[b, 2], 0.0, P[b, 0])
    return frames


# ---------------------------------------------------------------------------
# initial configuration
# ---------------------------------------------------------------------------

def initial_configuration(tri: Triangulation, gauge_face=None) -> Configuration:
    """Deterministic starting configuration in exact gauge position.

    The gauge caps are placed as three mutually orthogonal great circles
    (centers at the south pole, +x and +y).  The remaining caps must then
    live in the far octant, the spherical triangle cut out by the three
    gauge circles on the opposite side of the sphere; a harmonic layout
    places each free vertex at the average of its neighbors, with gauge
    neighbors standing in as soft anchors on the matching side of a model
    triangle, and the model is mapped to the far octant barycentrically.
    Free radii start at half the mean distance to the neighbors.
    """
    gauge = _require_oriented_face(tri, gauge_face or tri.faces[0])
    a, b, c = gauge
    n = tri.n_vertices

    # model triangle corners stand for the far-octant corners, which lie
    # on the circle pairs (a, b), (b, c) and (c, a) respectively
    m_ab = np.array([0.0, 0.0])
    m_bc = np.array([1.0, 0.0])
    m_ca = np.array([0.5, math.sqrt(3.0) / 2.0])
    side_mid = {a: 0.5 * (m_ab + m_ca),    # midpoint of the side on circle a
                b: 0.5 * (m_ab + m_bc),
                c: 0.5 * (m_bc + m_ca)}
    corner = {tuple(sorted(pair)): m for pair, m in
              (((a, b), m_ab), ((b, c), m_bc), ((c, a), m_ca))}
    centroid = (m_ab + m_bc + m_ca) / 3.0

    def anchor_for(v: int) -> np.ndarray:
        """Model-plane stand-in for the gauge neighbors of a free vertex.

        A vertex tied to one gauge circle belongs near that side; tied to
        two, near their shared corner; tied to all three, in the middle.
        """
        gs = tuple(g for g in sorted(gauge) if g in tri.adjacent[v])
        if len(gs) == 1:
            return side_mid[gs[0]]
        if len(gs) == 2:
            return corner[gs]
        return centroid

    free, plane = _harmonic(tri, gauge, lambda v, u: anchor_for(v))

    # barycentric transfer onto the far octant of the orthogonal gauge
    q_ab = np.array([0.0, -1.0, 0.0])
    q_bc = np.array([0.0, 0.0, 1.0])
    q_ca = np.array([-1.0, 0.0, 0.0])
    area = _tri_area2(m_ab, m_bc, m_ca)
    centers = np.zeros((n, 3))
    centers[a] = np.array([0.0, 0.0, -1.0])
    centers[b] = np.array([1.0, 0.0, 0.0])
    centers[c] = np.array([0.0, 1.0, 0.0])
    for v, w in zip(free, plane):
        lam_ab = _tri_area2(w, m_bc, m_ca) / area
        lam_bc = _tri_area2(m_ab, w, m_ca) / area
        lam_ca = _tri_area2(m_ab, m_bc, w) / area
        p = lam_ab * q_ab + lam_bc * q_bc + lam_ca * q_ca
        centers[v] = p / np.linalg.norm(p)

    radii = np.empty(n)
    for v in range(n):
        dots = centers[list(tri.neighbors[v])] @ centers[v]
        mean = float(np.mean(np.arccos(np.clip(dots, -1.0, 1.0))))
        radii[v] = min(max(0.5 * mean, 0.05), _GAUGE_RADIUS - 0.05)
    radii[[a, b, c]] = _GAUGE_RADIUS
    return Configuration(tri, centers, radii, gauge)


def _tri_area2(p: np.ndarray, q: np.ndarray, r: np.ndarray) -> float:
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def _harmonic(tri: Triangulation, fixed, anchor) -> tuple[list[int], np.ndarray]:
    """Plane layout of the vertices outside `fixed`, in vertex order: each
    sits at the mean of its neighbors, a fixed neighbor u of v standing
    at anchor(v, u).  Returns (free vertices, (len(free), 2) positions)."""
    free = [v for v in range(tri.n_vertices) if v not in fixed]
    idx = {v: i for i, v in enumerate(free)}
    mat = np.zeros((len(free), len(free)))
    rhs = np.zeros((len(free), 2))
    for v in free:
        nbrs = tri.neighbors[v]
        mat[idx[v], idx[v]] = float(len(nbrs))
        for u in nbrs:
            if u in fixed:
                rhs[idx[v]] += anchor(v, u)
            else:
                mat[idx[v], idx[u]] -= 1.0
    return free, np.linalg.solve(mat, rhs)


def _punctured_start(tri: Triangulation, w: int) -> Configuration:
    """A cold start of `solve`, in no gauge: Tutte's barycentric
    embedding with w at infinity.

    w's link sits on the unit circle, clockwise in rotation order, and
    every other vertex at the mean of its neighbors, so every face away
    from w is a convex triangle.  Inverse stereographic projection lifts
    the drawing to the sphere with w at the north pole, and Lorentz
    boosts that move the centroid of the centers to the ball center
    spread the vertices out (Moebius centering).  The builders derive
    the rotation in the direction of the faces, so every lifted face
    turns like the face gauge (positive face_excesses).  Each radius is
    TUTTE_RADIUS times the longest edge at its vertex.
    """
    link = tri.neighbors[w]
    angle = -2.0 * _PI * np.arange(len(link)) / len(link)
    ring = np.column_stack([np.cos(angle), np.sin(angle)])
    circle = dict(zip(link, ring))
    free, plane = _harmonic(tri, {w, *link}, lambda v, u: circle[u])
    xy = np.zeros((tri.n_vertices, 2))
    xy[free] = plane
    xy[list(link)] = ring
    q = _rowdot(xy, xy)
    P = np.column_stack([2.0 * xy, q - 1.0]) / (q + 1.0)[:, None]
    P[w] = (0.0, 0.0, 1.0)
    P = _moebius_center(P)

    u, v = tri.edge_array.T
    length = np.arccos(np.clip(_rowdot(P[u], P[v]), -1.0, 1.0))
    longest = np.zeros(tri.n_vertices)
    np.maximum.at(longest, u, length)
    np.maximum.at(longest, v, length)
    return Configuration(tri, P, TUTTE_RADIUS * longest, tri.faces[0])


def _moebius_center(P: np.ndarray) -> np.ndarray:
    """Unit rows P moved by Lorentz boosts until their centroid is within
    CENTERING_TOL of the ball center (at most CENTERING_STEPS boosts)."""
    for _ in range(CENTERING_STEPS):
        m = P.mean(axis=0)
        m2 = float(m @ m)
        if m2 < CENTERING_TOL ** 2:
            break
        boost = boost_to_center(np.append(m, 1.0) / math.sqrt(1.0 - m2))
        w = np.column_stack([P, np.ones(len(P))]) @ boost.T
        P = w[:, :3] / np.sqrt(_rowdot(w[:, :3], w[:, :3]))[:, None]
    return P


# ---------------------------------------------------------------------------
# residual and Jacobian
# ---------------------------------------------------------------------------

def _edge_angles(cfg: Configuration) -> np.ndarray:
    """Overlap angle per edge, in the order of tri.edges; raises
    EdgeNotOverlapping if a pair separated or engulfed."""
    inv = _inversive_pairs(cfg.centers, cfg.radii, *cfg.tri.edge_array.T)
    bad = np.nonzero(np.abs(inv) >= 1.0)[0]
    if bad.size:
        e = cfg.tri.edges[int(bad[0])]
        raise EdgeNotOverlapping(
            f"caps on edge {e} have inversive distance {inv[int(bad[0])]:.6f}")
    return np.arccos(inv)


def pattern_angles(cfg: Configuration) -> dict[tuple[int, int], float]:
    """Overlap angle on every edge; EdgeNotOverlapping if a pair separated."""
    th = _edge_angles(cfg)
    return {e: float(th[i]) for i, e in enumerate(cfg.tri.edges)}


def residual(cfg: Configuration, theta: AngleAssignment) -> np.ndarray:
    """Angle errors, one entry per edge of the triangulation (sorted)."""
    target = np.array([theta[e] for e in cfg.tri.edges])
    return _edge_angles(cfg) - target


def _residual_or_none(cfg: Configuration, target: np.ndarray) -> np.ndarray | None:
    inv = _inversive_pairs(cfg.centers, cfg.radii, *cfg.tri.edge_array.T)
    if np.any(np.abs(inv) >= 1.0 - 1e-12):
        return None
    return np.arccos(inv) - target


def _jacobian(cfg: Configuration, lay: _Layout,
              out: np.ndarray | None = None) -> np.ndarray:
    """Edge-angle derivatives in the free columns of `lay`, rows in the
    order of tri.edges; written into `out` (zero-filled first) when given.

    The angle on edge (u, v) is arccos(I(u, v)), so each entry carries
    the factor -1/sqrt(1 - I^2); and dr/dx = sin r.
    """
    P, R = cfg.centers, cfg.radii
    cr, sr = np.cos(R), np.sin(R)
    u, v = cfg.tri.edge_array.T
    inv = _inversive_pairs(P, R, u, v)
    scale = 1.0 / np.sqrt(np.maximum(1.0 - inv * inv, 1e-30))
    denom = sr[u] * sr[v]
    cos_d = _rowdot(P[u], P[v])
    frames = _chart_frames(P, lay)
    J = np.empty((cfg.tri.n_edges, lay.n_free)) if out is None else out
    J.fill(0.0)
    for end, other in ((u, v), (v, u)):
        # position: dTheta/dt = (t . p_other) / (denom sqrt); log radius:
        # dTheta/dx_end = (cos r_other - C cos r_end) sin r_end
        #                 / (sin^2 r_end sin r_other sqrt)
        # (float_power rounds sin^2 like libm pow; x * x sometimes differs)
        q = P[other]
        d = np.column_stack([
            scale * _rowdot(frames[end, 0], q) / denom,
            scale * _rowdot(frames[end, 1], q) / denom,
            scale * (cr[other] - cos_d * cr[end])
            / (np.float_power(sr[end], 2) * sr[other]) * sr[end]])
        cols = lay.col[end]
        row, k = np.nonzero(cols >= 0)
        J[row, cols[row, k]] = d[row, k]
    return J


def _step(cfg: Configuration, delta: np.ndarray, lay: _Layout) -> Configuration:
    """Move the free centers along their frames and the free x = log tan(r/2)
    by `delta`; fixed coordinates keep their bits."""
    d = np.append(delta, 0.0)[lay.col]      # a fixed coordinate reads 0
    centers = cfg.centers.copy()
    radii = cfg.radii.copy()

    moved = lay.col[:, 0] >= 0
    P = cfg.centers[moved]
    frames = _chart_frames(cfg.centers, lay)[moved]
    p = P + d[moved, :1] * frames[:, 0] + d[moved, 1:2] * frames[:, 1]
    centers[moved] = p / np.sqrt(_rowdot(p, p))[:, None]

    sized = lay.col[:, 2] >= 0
    x = np.log(np.tan(0.5 * radii[sized])) + d[sized, 2]
    with np.errstate(over="ignore"):     # r = pi, which _feasible rejects
        radii[sized] = 2.0 * np.arctan(np.exp(x))
    return cfg.with_data(centers, radii)


def _feasible(cfg: Configuration, lay: _Layout) -> bool:
    """Every radius inside (0, pi), where x is finite; in a face gauge also
    b strictly inside its meridian and c at y > 0."""
    ok = np.all((cfg.radii > 0.0) & (cfg.radii < _PI))
    if lay.gauge is not None:
        _, b, c = lay.gauge
        ok = ok and cfg.centers[b, 0] > 0.0 and cfg.centers[c, 1] > 0.0
    return bool(ok)


def jacobian(cfg: Configuration) -> np.ndarray:
    """Analytic derivative of the edge angles in the face-gauge chart of
    cfg.gauge_face: rows follow tri.edges, the 3n - 6 columns the gauge
    layout (meridian tangent of b, tangent pairs, x = log tan(r/2))."""
    return _jacobian(cfg, _layout(cfg.tri.n_vertices, cfg.gauge_face))


def apply_step(cfg: Configuration, delta: np.ndarray) -> Configuration:
    """Move the 3n - 6 free coordinates of the face gauge by `delta`,
    staying exactly in gauge."""
    lay = _layout(cfg.tri.n_vertices, cfg.gauge_face)
    if delta.shape != (lay.n_free,):
        raise ValueError(f"step has shape {delta.shape}, expected ({lay.n_free},)")
    return _step(cfg, delta, lay)


# ---------------------------------------------------------------------------
# gauge normalization of external configurations
# ---------------------------------------------------------------------------

def gauge_normalize(cfg: Configuration) -> Configuration:
    """Rotate (and reflect across y = 0 if needed) into gauge position.

    Afterwards the center of the first gauge vertex is exactly the south
    pole, the second sits on the meridian y = 0 with x >= 0, and the third
    has y > 0.  Radii are untouched; this is the rigid-motion part of the
    gauge only.
    """
    a, b, c = cfg.gauge_face
    z = -cfg.centers[a]
    x = cfg.centers[b] - float(cfg.centers[b] @ z) * z
    nx = float(np.linalg.norm(x))
    if nx < 1e-12:
        raise NearSingularChart("gauge vertices a and b are (anti)podal")
    x = x / nx
    y = np.cross(z, x)
    rot = np.vstack([x, y, z])
    centers = cfg.centers @ rot.T
    if centers[c, 1] < 0.0:
        centers[:, 1] *= -1.0
    centers[a] = np.array([0.0, 0.0, -1.0])
    centers[b, 1] = 0.0
    centers[b] /= np.linalg.norm(centers[b])
    return cfg.with_data(centers, cfg.radii.copy())


def regauge(cfg: Configuration, gauge_face) -> Configuration:
    """Transport a solved pattern to a different gauge face.

    Patterns are rigid up to sphere inversions, so the gauge is changed by
    the Lorentz boost that moves the intersection point of the new gauge
    planes to the ball center (turning those caps into great circles),
    followed by the rigid normalization.  Overlap angles are preserved.
    """
    stored = _require_oriented_face(cfg.tri, gauge_face)
    normals = _plane_normals(cfg.centers, cfg.radii)
    boost = boost_to_center(common_orthogonal_point(normals[list(stored)]))
    # a stack of matrix-vector products rounds like `boost @ normal`
    centers, radii = _normal_caps((boost @ normals[:, :, None])[:, :, 0])
    out = replace(cfg, centers=centers, radii=radii, gauge_face=stored)
    out = gauge_normalize(out)
    radii = out.radii.copy()
    radii[list(stored)] = _GAUGE_RADIUS
    return out.with_data(out.centers, radii)


# ---------------------------------------------------------------------------
# feasibility gates
# ---------------------------------------------------------------------------

def _gate_state(cfg: Configuration) -> np.ndarray:
    """Soft-violation mask: flipped faces in tri.faces order, then
    overlapping non-adjacent pairs in tri.nonadjacent_pairs order."""
    tri = cfg.tri
    pu, pv = tri.nonadjacent_pairs
    return np.concatenate([
        face_excesses(cfg.centers, tri.face_array) <= 1e-12,
        inversive_matrix(cfg.centers, cfg.radii)[pu, pv] <= 1.0])


# ---------------------------------------------------------------------------
# the inner Levenberg-Marquardt loop
# ---------------------------------------------------------------------------

def _levenberg(cfg: Configuration, target: np.ndarray, tolerance: float,
               lay: _Layout) -> tuple[Configuration, bool, int, float, float]:
    """Solve one target in the chart `lay`.  Returns (cfg, converged,
    iterations, damping, last_step_norm).

    A trial is accepted when it is feasible, adds no soft violation to
    those of the current iterate and lowers the cost.
    """
    lam = INITIAL_DAMPING
    r = _residual_or_none(cfg, target)
    if r is None:
        return cfg, False, 0, lam, 0.0
    state = _gate_state(cfg)
    cost = float(r @ r)
    step_norm = 0.0
    # one pair of normal-equation buffers per call: fresh n x n arrays on
    # every trial would churn the heap
    J = np.empty((cfg.tri.n_edges, lay.n_free))
    damped = np.empty((lay.n_free, lay.n_free))
    on_diag = np.arange(lay.n_free)
    for it in range(1, MAX_ITERATIONS + 1):
        if float(np.max(np.abs(r))) < tolerance:
            return cfg, True, it - 1, lam, step_norm
        _jacobian(cfg, lay, out=J)
        g = J.T @ r
        np.matmul(J.T, J, out=damped)
        jtj_diag = damped[on_diag, on_diag]
        diag = jtj_diag.copy()
        diag[diag < 1e-12] = 1e-12
        accepted = False
        while lam <= DAMPING_MAX:
            # np.linalg.solve factors a copy, so J^T J + lam diag(diag)
            # differs from trial to trial only on the diagonal
            damped[on_diag, on_diag] = jtj_diag + lam * diag
            try:
                delta = np.linalg.solve(damped, -g)
            except np.linalg.LinAlgError:
                lam *= DAMPING_GROW
                continue
            trial = _step(cfg, delta, lay)
            if _feasible(trial, lay):
                trial_state = _gate_state(trial)
                r_trial = (None if (trial_state & ~state).any()
                           else _residual_or_none(trial, target))
                if r_trial is not None and float(r_trial @ r_trial) < cost:
                    step_norm = float(np.linalg.norm(delta))
                    cfg, r, state = trial, r_trial, trial_state
                    cost = float(r_trial @ r_trial)
                    lam = max(lam / DAMPING_SHRINK, 1e-13)
                    accepted = True
                    break
            lam *= DAMPING_GROW
        if not accepted:
            return cfg, False, it, lam, step_norm
    converged = float(np.max(np.abs(r))) < tolerance
    return cfg, converged, MAX_ITERATIONS, lam, step_norm


# ---------------------------------------------------------------------------
# public solve
# ---------------------------------------------------------------------------

def _cold_starts(tri: Triangulation, fallback_gauges: int):
    """Yield (start, via) in the order `solve` tries them; `via` lists the
    angle arrays to solve for, from `start`, before the target.

    First come the punctured starts at the 1 + `fallback_gauges` vertices
    of highest degree (ties to the lower index), aimed straight at the
    target.  Last, if uniform angles of 2 pi / 5 are admissible, the
    reference leg: the first punctured start, aimed at the uniform
    angles and from their pattern at the target.  Each start is built
    only when asked for.
    """
    order = sorted(range(tri.n_vertices), key=lambda v: (-tri.degree(v), v))
    for w in order[:1 + fallback_gauges]:
        yield _punctured_start(tri, w), ()
    if check_admissible(tri, AngleAssignment.constant(tri, REFERENCE_ANGLE)).ok:
        reference = np.full(tri.n_edges, REFERENCE_ANGLE)
        yield _punctured_start(tri, order[0]), (reference,)


def solve(tri: Triangulation, theta: AngleAssignment, gauge_face=None,
          options: SolveOptions | None = None
          ) -> tuple[Configuration, SolveReport]:
    """Compute the gauged circle pattern for an admissible assignment.

    Raises ConditionsViolated when the admissibility check fails and
    NotAFace for a bad gauge face.  Numerical failure is reported through
    SolveReport.converged = False with a failure reason, never by an
    exception.

    The cold starts (punctured Tutte starts, then the reference leg) and
    their shared finish are described in the module docstring.  The
    finish turns down a pattern with a flipped face or overlapping
    non-adjacent caps: it has the right angles but is not the embedded
    one.  A solved report holds one record at s = 1 with the winning
    start's iterations (its reference leg's and polish's included);
    `iterations` sums all starts.  A failure reads
    `cold_start_infeasible` when no Levenberg-Marquardt iteration ran in
    any start and `no_start_converged` otherwise.  `repairs` is always 0.
    """
    opts = options or SolveOptions()
    report = check_admissible(tri, theta)
    if not report.ok:
        raise ConditionsViolated(report)

    requested = _require_oriented_face(tri, gauge_face or tri.faces[0])
    target = np.array([theta[e] for e in tri.edges])
    free = _layout(tri.n_vertices, None)
    gauged = _layout(tri.n_vertices, requested)
    total_iters = 0
    for cfg, via in _cold_starts(tri, opts.fallback_gauges):
        iters = 0
        for aim in (*via, target):
            cfg, ok, run, lam, step_norm = _levenberg(
                cfg, aim, opts.tolerance, free)
            iters += run
            if not ok:
                break
        total_iters += iters
        if not ok:
            continue
        out, ok, polish, _, _ = _levenberg(
            regauge(cfg, requested), target, opts.tolerance, gauged)
        total_iters += polish
        if ok and radii_bounds(tri, out).ok and not _gate_state(out).any():
            rinf = _residual_inf(out, target)
            record = _record(out, iters + polish, lam, step_norm, rinf)
            return out, SolveReport(
                converged=True, residual_inf=rinf, iterations=total_iters,
                targets=(record,), repairs=0)

    return cfg, SolveReport(
        converged=False, residual_inf=_residual_inf(cfg, target),
        iterations=total_iters, targets=(), repairs=0,
        failure_reason=("no_start_converged" if total_iters
                        else "cold_start_infeasible"))


def _residual_inf(cfg: Configuration, target: np.ndarray) -> float:
    r = _residual_or_none(cfg, target)
    if r is None:
        return float("inf")
    return float(np.max(np.abs(r)))


def _record(cfg: Configuration, iters: int, lam: float, step_norm: float,
            residual_inf: float) -> HomotopyRecord:
    stats = radii_bounds(cfg.tri, cfg)
    return HomotopyRecord(
        s=1.0, iterations=iters,
        residual_inf=residual_inf,
        damping=lam, step_norm=step_norm,
        min_radius=stats.min_radius,
        max_nongauge_radius=stats.max_nongauge_radius,
        separation_margin=separation_margin(cfg.tri, cfg))
