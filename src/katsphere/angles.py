"""Edge angle assignments and the admissibility conditions.

An assignment maps every edge of a triangulation to an intended overlap
angle in (0, pi).  The checks below decide whether such an assignment is
realizable by an irreducible circle pattern; they come in a plain and a
strict-arc variant, plus a transported variant for data given on the
trivalent dual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .complexes import (
    CurveReport,
    DualComplex,
    Edge,
    Triangulation,
    norm_edge,
    primalize,
    separating_cycles,
    two_edge_arcs,
)
from .errors import DomainMismatch

_PI = math.pi


class AngleAssignment:
    """Immutable map from canonical edges (u < v) to angles in (0, pi)."""

    def __init__(self, values: dict[Edge, float]):
        clean: dict[Edge, float] = {}
        for (u, v), th in values.items():
            e = norm_edge(int(u), int(v))
            if e in clean:
                raise DomainMismatch(f"edge {e} assigned twice")
            th = float(th)
            if not 0.0 < th < _PI:
                raise DomainMismatch(
                    f"angle {th} on edge {e} outside the open interval (0, pi)")
            clean[e] = th
        self._values = clean

    @classmethod
    def constant(cls, tri: Triangulation, theta: float) -> "AngleAssignment":
        return cls({e: theta for e in tri.edges})

    def __getitem__(self, edge: Edge) -> float:
        return self._values[norm_edge(*edge)]

    def __contains__(self, edge: Edge) -> bool:
        return norm_edge(*edge) in self._values

    def __len__(self) -> int:
        return len(self._values)

    def edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self._values))

    def items(self):
        return self._values.items()

    def check_domain(self, edges) -> None:
        """Raise DomainMismatch unless the assignment covers exactly `edges`."""
        want = set(edges)
        have = set(self._values)
        if want != have:
            missing = sorted(want - have)
            extra = sorted(have - want)
            raise DomainMismatch(
                f"assignment domain mismatch: missing {missing[:5]}, "
                f"extra {extra[:5]}")


@dataclass(frozen=True)
class ConditionViolation:
    condition: str        # arc_pair | face_triple | separating3 | separating4
    curve: CurveReport
    value: float          # offending angle sum
    bound: float
    strict: bool          # whether the comparison had to be strict

    @property
    def margin(self) -> float:
        """bound - value; nonpositive when violated."""
        return self.bound - self.value


@dataclass(frozen=True)
class ConditionReport:
    ok: bool
    checked: dict[str, int]
    violations: tuple[ConditionViolation, ...]
    strict_arcs: bool
    transported: dict[Edge, Edge] | None = field(default=None, compare=False)

    def violations_for(self, condition: str) -> tuple[ConditionViolation, ...]:
        return tuple(v for v in self.violations if v.condition == condition)


def _holds(value: float, bound: float, strict: bool) -> bool:
    return value < bound if strict else value <= bound


def check_admissible(tri: Triangulation,
                     theta: AngleAssignment) -> ConditionReport:
    """Admissibility of an angle assignment on a triangulation.

    Conditions checked, by exact IEEE comparisons:

    * arc_pair: two-edge arcs with non-adjacent endpoints have angle sum
      <= pi, strictly on the double tetrahedron;
    * face_triple: each face has angle sum > pi and each pairwise sum
      below the third angle plus pi;
    * separating3: separating 3-cycles have angle sum < pi;
    * separating4: separating 4-cycles have angle sum < 2 pi.
    """
    return _check(tri, theta, strict_arcs=tri.is_double_tetrahedron)


def check_admissible_strict(tri: Triangulation,
                            theta: AngleAssignment) -> ConditionReport:
    """Same as check_admissible but with strict arc sums on every complex."""
    return _check(tri, theta, strict_arcs=True)


def _check(tri: Triangulation, theta: AngleAssignment,
           strict_arcs: bool) -> ConditionReport:
    theta.check_domain(tri.edges)
    violations: list[ConditionViolation] = []
    checked: dict[str, int] = {}

    arcs = two_edge_arcs(tri)
    checked["arc_pair"] = len(arcs)
    for arc in arcs:
        s = theta[arc.edges[0]] + theta[arc.edges[1]]
        if not _holds(s, _PI, strict_arcs):
            violations.append(ConditionViolation(
                "arc_pair", arc, s, _PI, strict_arcs))

    checked["face_triple"] = tri.n_faces
    for f in tri.faces:
        edges = tuple(norm_edge(f[i], f[(i + 1) % 3]) for i in range(3))
        ths = tuple(theta[e] for e in edges)
        curve = CurveReport(kind="face3", vertices=f, edges=edges)
        total = sum(ths)
        if not _holds(-total, -_PI, True):   # total > pi
            violations.append(ConditionViolation(
                "face_triple", curve, total, _PI, True))
        for i in range(3):
            pair = ths[i] + ths[(i + 1) % 3]
            bound = ths[(i + 2) % 3] + _PI
            if not _holds(pair, bound, True):
                violations.append(ConditionViolation(
                    "face_triple", curve, pair, bound, True))

    for k, cond in ((3, "separating3"), (4, "separating4")):
        cycles = separating_cycles(tri, k)
        checked[cond] = len(cycles)
        bound = _PI if k == 3 else 2.0 * _PI
        for cyc in cycles:
            s = sum(theta[e] for e in cyc.edges)
            if not _holds(s, bound, True):
                violations.append(ConditionViolation(cond, cyc, s, bound, True))

    return ConditionReport(ok=not violations, checked=checked,
                           violations=tuple(violations),
                           strict_arcs=strict_arcs)


def transport_dual_angles(dual: DualComplex, theta_dual: AngleAssignment
                          ) -> tuple[Triangulation, AngleAssignment, dict[Edge, Edge]]:
    """Carry an assignment on dual edges across the canonical edge bijection."""
    theta_dual.check_domain(dual.edges)
    tri, edge_map = primalize(dual)
    primal = {edge_map[e]: th for e, th in theta_dual.items()}
    return tri, AngleAssignment(primal), edge_map


def check_dual_admissible(dual: DualComplex,
                          theta_dual: AngleAssignment) -> ConditionReport:
    """Admissibility for data on a trivalent complex.

    Transports the assignment to the primal triangulation and delegates;
    arc strictness lands on the triangular prism exactly when the primal
    is the double tetrahedron.  The report's `transported` field records
    the dual-to-primal edge bijection so violating curves can be read
    back on the dual side.
    """
    tri, theta, edge_map = transport_dual_angles(dual, theta_dual)
    rep = check_admissible(tri, theta)
    return ConditionReport(ok=rep.ok, checked=rep.checked,
                           violations=rep.violations,
                           strict_arcs=rep.strict_arcs,
                           transported=dict(edge_map))
