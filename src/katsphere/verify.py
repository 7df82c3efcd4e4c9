"""Diagnostics for solved circle patterns.

The checks are organized around a chain of nested configuration classes:

* contact structure: adjacent caps overlap, non-adjacent caps are
  strictly disjoint,
* prescribed angles: the overlap angles match a target assignment,
* gauge position: the distinguished face sits in normalized position
  with great-circle caps,
* irreducibility: no proper subset of the caps already covers the
  sphere.

Each stage implies the previous one, and `verify_pattern` reports the
deepest stage a configuration reaches together with all the individual
diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .angles import AngleAssignment
from .complexes import Triangulation, separating_cycles
from .sphere import (
    _clamped_acos,
    _inversive_pairs,
    _rowdot,
    circle_intersections,
    face_excesses,
    fibonacci_sphere,
    inversive_matrix,
    triple_intersection_empty,
)

_PI = math.pi

TANGENCY_EPS = 1e-9         # |I - 1| below this counts as tangency
NEAR_TANGENT_EPS = 1e-6     # tangency_diagnostics: pair and angle slack
GAUGE_POSITION_EPS = 1e-9   # allowed drift of the gauge caps
ANGLE_TOL = 1e-8            # overlap angle match for target assignments
EXCESS_TOL = 1e-6           # allowed defect of the total signed area
PROBE_BLOCK_FLOATS = 1 << 20  # probe x cap products held at once
PROBE_NUDGES = (1e-7, 1e-4, 3e-2)  # corner probe steps off both caps


# ---------------------------------------------------------------------------
# contact graph
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContactViolation:
    kind: str                       # lost_overlap | engulfing | overlap
    pair: tuple[int, int]           # | containment | tangency
    inversive: float


@dataclass(frozen=True)
class ContactReport:
    ok: bool
    violations: tuple[ContactViolation, ...]
    overlapping_edges: int
    separated_pairs: int


def _violations(kinds: tuple[str, ...], conditions: list[np.ndarray],
                us: np.ndarray, vs: np.ndarray,
                inv: np.ndarray) -> list[ContactViolation]:
    """One violation per pair meeting a condition, named after the first
    condition it meets, in pair order."""
    code = np.select(conditions, range(len(kinds)), -1)
    return [ContactViolation(kinds[code[i]], (int(us[i]), int(vs[i])),
                             float(inv[i]))
            for i in np.flatnonzero(code >= 0)]


def check_contact_graph(tri: Triangulation, cfg,
                        tangency_eps: float = TANGENCY_EPS) -> ContactReport:
    """Adjacent caps must genuinely cross, all others must stay apart.

    Non-adjacent pairs at inversive distance 1 (within tangency_eps) are
    flagged as `tangency`, the boundary case where two disks touch in a
    single point.  Edges are read through the edge kernel of `sphere`.
    """
    return _contact_report(
        tri, _inversive_pairs(cfg.centers, cfg.radii, *tri.edge_array.T),
        inversive_matrix(cfg.centers, cfg.radii), tangency_eps)


def _contact_report(tri: Triangulation, e_inv: np.ndarray, inv: np.ndarray,
                    tangency_eps: float) -> ContactReport:
    eu, ev = tri.edge_array.T
    pu, pv = tri.nonadjacent_pairs
    p_inv = inv[pu, pv]
    lost = _violations(("lost_overlap", "engulfing"),
                       [e_inv >= 1.0, e_inv <= -1.0], eu, ev, e_inv)
    near = _violations(("tangency", "containment", "overlap"),
                       [np.abs(p_inv - 1.0) <= tangency_eps,
                        p_inv <= -1.0, p_inv < 1.0], pu, pv, p_inv)
    bad = lost + near
    return ContactReport(not bad, tuple(bad), len(e_inv) - len(lost),
                         len(p_inv) - len(near))


def separation_margin(tri: Triangulation, cfg) -> float:
    """Min over non-adjacent pairs of (inversive distance - 1)."""
    return _separation_margin(tri, inversive_matrix(cfg.centers, cfg.radii))


def _separation_margin(tri: Triangulation, inv: np.ndarray) -> float:
    pu, pv = tri.nonadjacent_pairs
    if not pu.size:
        return float("inf")
    return float(np.min(inv[pu, pv])) - 1.0


# ---------------------------------------------------------------------------
# irreducibility
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IrreducibilityReport:
    ok: bool
    witnesses: dict[int, np.ndarray]    # vertex -> point only its cap covers
    inconclusive: tuple[int, ...]
    covering_caps: tuple[int, ...]      # caps that alone cover the sphere


def _witness_candidates(tri: Triangulation, cfg, samples: int):
    """Yield the deterministic probe points in four groups, each built
    only when the scan asks for it: the cap centers, the corner points
    nudged outward, the face circumpoints and a Fibonacci lattice.

    Edges come in edge order, each with the corners that
    circle_intersection_points finds, + before -, and every corner pushed
    away from both caps by each of PROBE_NUDGES; faces come in face order,
    each with the unit normal of its center triangle and then its negative.
    """
    # a copy: numpy multiplies an array by its own transpose through a
    # symmetric kernel, and every group should meet the caps through the
    # same product
    yield cfg.centers.copy()

    eu, ev = tri.edge_array.T
    corners, found = circle_intersections(cfg.centers, cfg.radii, eu, ev)
    edge = np.nonzero(found)[0]
    x = corners[found]
    away = 2.0 * x - cfg.centers[eu[edge]] - cfg.centers[ev[edge]]
    away = away - _rowdot(away, x)[:, None] * x
    norm = np.sqrt(_rowdot(away, away))
    keep = ~(norm < 1e-12)
    x, away = x[keep], away[keep] / norm[keep, None]
    steps = np.array(PROBE_NUDGES)[:, None]
    nudged = (x[:, None, :] + steps * away[:, None, :]).reshape(-1, 3)
    yield nudged / np.sqrt(_rowdot(nudged, nudged))[:, None]

    p_i, p_j, p_k = cfg.centers[tri.face_array].transpose(1, 0, 2)
    n = np.cross(p_j - p_i, p_k - p_i)
    norm = np.sqrt(_rowdot(n, n))
    keep = norm > 1e-12
    n = n[keep] / norm[keep, None]
    yield np.stack([n, -n], axis=1).reshape(-1, 3)

    yield fibonacci_sphere(samples)


def check_irreducible(tri: Triangulation, cfg,
                      samples: int = 20000) -> IrreducibilityReport:
    """Search a witness point per vertex that only this vertex's cap covers.

    A pattern is irreducible exactly when no union over a strict vertex
    subset covers the sphere; since unions grow with the subset, it is
    enough that for every single vertex the union of all other caps
    misses some point.

    The probes come in four groups, in this order: the cap centers, the
    corner points of each overlapping edge nudged away from both caps,
    the circumpoints of each face (plus and minus the unit normal of its
    center triangle) and a Fibonacci lattice of `samples` points.  Each
    vertex keeps the first probe that its cap alone covers, and the scan
    stops as soon as every vertex has one, so a later group is built
    only when an earlier one leaves a vertex without a witness.  A
    vertex with no witness among all the probes is reported inconclusive
    rather than reducible.  Raises ValueError for negative `samples`;
    zero means no lattice.
    """
    if samples < 0:
        raise ValueError(f"samples must be non-negative, got {samples}")
    radii = np.asarray(cfg.radii, dtype=float)
    covering = tuple(int(v) for v in np.nonzero(radii >= _PI)[0])
    if covering:
        return IrreducibilityReport(False, {}, tuple(range(tri.n_vertices)),
                                    covering)
    cos_r = np.cos(radii)
    # row blocks keep the probe x cap product within PROBE_BLOCK_FLOATS
    rows = max(1, PROBE_BLOCK_FLOATS // tri.n_vertices)
    blocks = (group[i:i + rows]
              for group in _witness_candidates(tri, cfg, samples)
              for i in range(0, len(group), rows))
    found: dict[int, np.ndarray] = {}
    for block in blocks:
        # per probe, the one cap that strictly covers it, or -1
        sole = _sole_cover(block @ cfg.centers.T > cos_r)
        owners, first = np.unique(sole, return_index=True)
        for v, i in zip(owners.tolist(), first.tolist()):
            if v >= 0 and v not in found:
                found[v] = block[i].copy()
        if len(found) == tri.n_vertices:
            break
    witnesses = {v: found[v] for v in sorted(found)}
    missing = tuple(v for v in range(tri.n_vertices) if v not in found)
    return IrreducibilityReport(not missing, witnesses, missing, ())


def _sole_cover(cover: np.ndarray) -> np.ndarray:
    return np.where(cover.sum(axis=1) == 1, cover.argmax(axis=1), -1)


# ---------------------------------------------------------------------------
# separating triples and tangencies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TripleResult:
    cycle: tuple[int, int, int]
    empty: bool
    witness: np.ndarray | None


@dataclass(frozen=True)
class TripleReport:
    ok: bool
    results: tuple[TripleResult, ...]


def check_separating_triples(tri: Triangulation, cfg) -> TripleReport:
    """Every separating 3-cycle's caps must have empty triple intersection."""
    results = []
    for rep in separating_cycles(tri, 3):
        i, j, k = rep.vertices
        empty, witness = triple_intersection_empty(
            cfg.cap(i), cfg.cap(j), cfg.cap(k))
        results.append(TripleResult((i, j, k), empty,
                                    None if witness is None else witness))
    return TripleReport(all(r.empty for r in results), tuple(results))


@dataclass(frozen=True)
class TangencyDiagnostic:
    pair: tuple[int, int]
    inversive: float
    point: np.ndarray
    third: int
    angle_sum: float
    consistent: bool


def tangency_diagnostics(tri: Triangulation, cfg,
                         tangency_eps: float = NEAR_TANGENT_EPS,
                         angle_eps: float = NEAR_TANGENT_EPS
                         ) -> tuple[TangencyDiagnostic, ...]:
    """Inspect near-tangent non-adjacent pairs.

    When non-adjacent disks touch, any third disk containing the contact
    point must see the pair under angles summing to at least pi.  A
    diagnostic with consistent=False signals a geometry violation near
    the degenerate boundary.
    """
    return _tangency_diagnostics(
        tri, cfg, inversive_matrix(cfg.centers, cfg.radii), tangency_eps,
        angle_eps)


def _tangency_diagnostics(tri: Triangulation, cfg, inv: np.ndarray,
                          tangency_eps: float, angle_eps: float
                          ) -> tuple[TangencyDiagnostic, ...]:
    pu, pv = tri.nonadjacent_pairs
    out: list[TangencyDiagnostic] = []
    for i in np.flatnonzero(np.abs(inv[pu, pv] - 1.0) <= tangency_eps):
        u, v = int(pu[i]), int(pv[i])
        # contact point: midpoint of the two boundary points facing
        # each other along the arc through the centers
        point = _facing_midpoint(cfg, u, v)
        inside = cfg.centers @ point - np.cos(cfg.radii) >= -1e-9
        for w in np.flatnonzero(inside):
            if w in (u, v):
                continue
            total = _clamped_acos(inv[w, u]) + _clamped_acos(inv[w, v])
            out.append(TangencyDiagnostic(
                (u, v), float(inv[u, v]), point, int(w), total,
                total >= _PI - angle_eps))
    return tuple(out)


def _facing_midpoint(cfg, u: int, v: int) -> np.ndarray:
    p, q = cfg.centers[u], cfg.centers[v]
    axis = np.cross(p, q)
    n = float(np.linalg.norm(axis))
    if n < 1e-12:
        return p.copy()
    axis /= n
    x_u = _rotate_toward(p, q, cfg.radii[u], axis)
    x_v = _rotate_toward(q, p, cfg.radii[v], axis)
    mid = x_u + x_v
    return mid / np.linalg.norm(mid)


def _rotate_toward(p: np.ndarray, q: np.ndarray, angle: float,
                   axis: np.ndarray) -> np.ndarray:
    t = q - float(q @ p) * p
    t /= np.linalg.norm(t)
    return math.cos(angle) * p + math.sin(angle) * t


# ---------------------------------------------------------------------------
# layout shape
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LayoutReport:
    ok: bool
    total_excess: float
    flipped_faces: tuple[tuple[int, int, int], ...]
    degenerate_faces: tuple[tuple[int, int, int], ...]


def check_center_triangulation(tri: Triangulation, cfg) -> LayoutReport:
    """The centers must span a geodesic triangulation of the sphere.

    Each face's center triple has to be positively oriented for the
    stored rotation system and the signed areas have to add up to the
    full sphere area 4*pi.
    """
    ex = face_excesses(cfg.centers, tri.face_array)
    total = float(np.cumsum(ex)[-1])     # summed in face order
    flipped = tuple(compress(tri.faces, ex < 0.0))
    degenerate = tuple(compress(tri.faces, ex == 0.0))
    ok = (not flipped and not degenerate
          and abs(total - 4.0 * _PI) <= EXCESS_TOL)
    return LayoutReport(ok, total, flipped, degenerate)


@dataclass(frozen=True)
class RadiiStats:
    ok: bool
    min_radius: float
    max_nongauge_radius: float


def radii_bounds(tri: Triangulation, cfg) -> RadiiStats:
    """Non-gauge radii must stay below pi/2 for a gauged pattern."""
    top = float(np.max(np.delete(cfg.radii, cfg.gauge_face)))
    return RadiiStats(bool(top < _PI / 2), float(np.min(cfg.radii)), top)


@dataclass(frozen=True)
class RingRatioReport:
    max_ratio: float
    table: dict[tuple[int, int], float]


def ring_ratios(tri: Triangulation, cfg) -> RingRatioReport:
    """Largest radius ratio across an edge; bounded on compact families."""
    ru, rv = cfg.radii[tri.edge_array.T]
    ratio = np.maximum(ru, rv) / np.minimum(ru, rv)
    return RingRatioReport(float(np.max(ratio)),
                           dict(zip(tri.edges, ratio.tolist())))


# ---------------------------------------------------------------------------
# aggregate report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
    in_contact: bool            # adjacency realized, others separated
    in_target: bool             # overlap angles match the assignment
    in_gauge: bool              # gauge face in normalized position
    in_irreducible: bool        # deepest class: irreducible gauged pattern
    angle_error_inf: float
    separation_margin: float
    contact: ContactReport
    irreducibility: IrreducibilityReport
    triples: TripleReport
    tangencies: tuple[TangencyDiagnostic, ...]
    layout: LayoutReport
    radii: RadiiStats
    rings: RingRatioReport

    @property
    def ok(self) -> bool:
        return self.in_irreducible and self.triples.ok and self.layout.ok


def _gauge_in_position(cfg) -> bool:
    a, b, c = cfg.gauge_face
    eps = GAUGE_POSITION_EPS
    if np.linalg.norm(cfg.centers[a] - np.array([0.0, 0.0, -1.0])) > eps:
        return False
    if abs(cfg.centers[b][1]) > eps or cfg.centers[b][0] <= 0.0:
        return False
    if cfg.centers[c][1] <= 0.0:
        return False
    return bool(np.max(np.abs(cfg.radii[[a, b, c]] - _PI / 2)) <= eps)


def verify_pattern(tri: Triangulation, cfg, theta: AngleAssignment,
                   samples: int = 20000) -> VerificationReport:
    """Run the full diagnostic battery on a configuration.

    The four headline flags form a chain: matching the target angles
    presumes a correct contact graph, gauge position presumes matching
    angles, and the irreducibility flag presumes all of the above.
    Raises ValueError for negative `samples`.  The edges are read once,
    through the edge kernel of `sphere`; the angle error is inf when an
    edge has |I| >= 1.
    """
    # the probe blocks are freed before the one inversive matrix is built,
    # so the two never share the heap
    irr = check_irreducible(tri, cfg, samples)
    inv = inversive_matrix(cfg.centers, cfg.radii)
    e_inv = _inversive_pairs(cfg.centers, cfg.radii, *tri.edge_array.T)
    contact = _contact_report(tri, e_inv, inv, TANGENCY_EPS)
    err = float("inf")
    if np.all(np.abs(e_inv) < 1.0):
        target = np.array([theta[e] for e in tri.edges])
        err = float(np.max(np.abs(np.arccos(e_inv) - target)))
    in_contact = contact.ok
    in_target = in_contact and err <= ANGLE_TOL
    in_gauge = in_target and _gauge_in_position(cfg)
    in_irr = in_gauge and irr.ok
    return VerificationReport(
        in_contact=in_contact,
        in_target=in_target,
        in_gauge=in_gauge,
        in_irreducible=in_irr,
        angle_error_inf=err,
        separation_margin=_separation_margin(tri, inv),
        contact=contact,
        irreducibility=irr,
        triples=check_separating_triples(tri, cfg),
        tangencies=_tangency_diagnostics(tri, cfg, inv, NEAR_TANGENT_EPS,
                                         NEAR_TANGENT_EPS),
        layout=check_center_triangulation(tri, cfg),
        radii=radii_bounds(tri, cfg),
        rings=ring_ratios(tri, cfg),
    )
