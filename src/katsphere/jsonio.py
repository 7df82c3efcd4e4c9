"""JSON interchange formats for complexes, angles, patterns, and reports.

All writers emit canonical JSON (sorted keys, two-space indent, repr
floats) so identical inputs produce byte-identical artifacts.  All
readers validate shape strictly and raise ParseError with the offending
path; geometric or combinatorial validity is left to the owning modules.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from .angles import AngleAssignment
from .complexes import DualComplex, Triangulation, build_dual_complex, build_triangulation
from .errors import ParseError


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise ParseError(message)


def _finite_number(x) -> bool:
    """A JSON number a float holds: not a boolean, NaN or Infinity (which
    Python's reader accepts), nor an integer beyond the float range."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


# ---------------------------------------------------------------------------
# complexes
# ---------------------------------------------------------------------------

def load_complex(path) -> tuple[str, Triangulation]:
    data = _load_json(path)
    _expect(isinstance(data, dict), f"{path}: top level must be an object")
    _expect("faces" in data, f"{path}: missing 'faces'")
    faces = data["faces"]
    _expect(isinstance(faces, list) and faces,
            f"{path}: 'faces' must be a non-empty list")
    for i, f in enumerate(faces):
        _expect(isinstance(f, list) and len(f) == 3
                and all(isinstance(v, int) for v in f),
                f"{path}: faces[{i}] must be three integer vertex ids")
    name = data.get("name", "")
    _expect(isinstance(name, str), f"{path}: 'name' must be a string")
    return name, build_triangulation([tuple(f) for f in faces])


def dump_complex(name: str, tri: Triangulation) -> str:
    return canonical_json(
        {"name": name, "faces": [list(f) for f in tri.faces]})


def load_dual(path) -> tuple[str, DualComplex]:
    data = _load_json(path)
    _expect(isinstance(data, dict), f"{path}: top level must be an object")
    _expect("dual_faces" in data, f"{path}: missing 'dual_faces'")
    faces = data["dual_faces"]
    _expect(isinstance(faces, list) and faces,
            f"{path}: 'dual_faces' must be a non-empty list")
    for i, f in enumerate(faces):
        _expect(isinstance(f, list) and len(f) >= 3
                and all(isinstance(v, int) for v in f),
                f"{path}: dual_faces[{i}] must be a cyclic list of >= 3 "
                f"integer vertex ids")
    name = data.get("name", "")
    _expect(isinstance(name, str), f"{path}: 'name' must be a string")
    return name, build_dual_complex([tuple(f) for f in faces])


def dump_dual(name: str, dual: DualComplex) -> str:
    return canonical_json(
        {"name": name, "dual_faces": [list(f) for f in dual.faces]})


# ---------------------------------------------------------------------------
# angle assignments
# ---------------------------------------------------------------------------

def _read_angles(path, entries, label: str,
                 degrees: bool = False) -> AngleAssignment:
    """Read a list of {u, v, theta} records found at `label` in `path`."""
    _expect(isinstance(entries, list) and entries,
            f"{path}: '{label}' must be a non-empty list")
    values = {}
    # messages are formatted only on failure: a mesh has thousands of edges
    for i, item in enumerate(entries):
        if not (isinstance(item, dict) and {"u", "v", "theta"} <= item.keys()):
            raise ParseError(f"{path}: {label}[{i}] needs keys u, v, theta")
        u, v, th = item["u"], item["v"], item["theta"]
        if not (isinstance(u, int) and isinstance(v, int) and u < v):
            raise ParseError(f"{path}: {label}[{i}] must have integer u < v")
        if not _finite_number(th):
            raise ParseError(f"{path}: {label}[{i}].theta must be a number")
        if (u, v) in values:
            raise ParseError(f"{path}: duplicate edge ({u}, {v})")
        values[(u, v)] = math.radians(float(th)) if degrees else float(th)
    return AngleAssignment(values)


def _angle_entries(theta: AngleAssignment) -> list[dict]:
    return [{"u": u, "v": v, "theta": th}
            for (u, v), th in sorted(theta.items())]


def load_angles(path, degrees: bool = False) -> AngleAssignment:
    data = _load_json(path)
    _expect(isinstance(data, dict) and "edges" in data,
            f"{path}: expected an object with an 'edges' list")
    return _read_angles(path, data["edges"], "edges", degrees)


def dump_angles(theta: AngleAssignment) -> str:
    return canonical_json({"edges": _angle_entries(theta)})


# ---------------------------------------------------------------------------
# patterns
# ---------------------------------------------------------------------------

def dump_pattern(cfg, report, theta: AngleAssignment | None) -> str:
    """Serialize a configuration with its solve report.

    The target angles ride inside the report so later verification can
    recheck the realized angles without a separate angles file.
    """
    rep = {
        "converged": bool(report.converged),
        "failure_reason": report.failure_reason,
        "homotopy_steps": len(report.targets),
        "iterations": int(report.iterations),
        "repairs": int(report.repairs),
    }
    if theta is not None:
        rep["target_angles"] = _angle_entries(theta)
    return canonical_json({
        "centers": [list(map(float, row)) for row in cfg.centers],
        "radii": [float(r) for r in cfg.radii],
        "gauge_face": list(cfg.gauge_face),
        "residual_inf": float(report.residual_inf),
        "report": rep,
    })


def load_pattern(path, tri: Triangulation):
    """Read a pattern file back as (Configuration, targets or None, report).

    The configuration is validated against the triangulation's vertex
    count and face list, and stored targets against its edge set;
    numerical quality is the verify module's job.
    """
    from .solver import Configuration

    data = _load_json(path)
    _expect(isinstance(data, dict), f"{path}: top level must be an object")
    for key in ("centers", "radii", "gauge_face"):
        _expect(key in data, f"{path}: missing '{key}'")
    centers = data["centers"]
    radii = data["radii"]
    n = tri.n_vertices
    _expect(isinstance(centers, list) and len(centers) == n,
            f"{path}: 'centers' must list {n} points")
    for i, row in enumerate(centers):
        _expect(isinstance(row, list) and len(row) == 3
                and all(_finite_number(x) for x in row),
                f"{path}: centers[{i}] must be three finite numbers")
    _expect(isinstance(radii, list) and len(radii) == n
            and all(_finite_number(x) for x in radii),
            f"{path}: 'radii' must list {n} finite numbers")
    gauge = data["gauge_face"]
    _expect(isinstance(gauge, list) and len(gauge) == 3
            and all(isinstance(v, int) for v in gauge),
            f"{path}: 'gauge_face' must be three vertex ids")
    _expect(tri.is_face(*gauge), f"{path}: gauge_face {gauge} is not a face")
    report = data.get("report", {})
    _expect(isinstance(report, dict), f"{path}: 'report' must be an object")
    theta = None
    if "target_angles" in report:
        theta = _read_angles(path, report["target_angles"],
                             "report.target_angles")
        theta.check_domain(tri.edges)
    cfg = Configuration(tri, np.array(centers, dtype=float),
                        np.array(radii, dtype=float), tuple(gauge))
    return cfg, theta, report


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

def _vec(x) -> list[float]:
    return [float(v) for v in x]


def dump_verification(rep, samples: int, angle_tol: float) -> str:
    witnesses = {str(v): _vec(w) for v, w in
                 sorted(rep.irreducibility.witnesses.items())}
    return canonical_json({
        "flags": {
            "contact": rep.in_contact,
            "target_angles": rep.in_target,
            "gauge": rep.in_gauge,
            "irreducible": rep.in_irreducible,
        },
        "ok": rep.ok,
        "angle_error_inf": float(rep.angle_error_inf),
        "separation_margin": float(rep.separation_margin),
        "contact": {
            "ok": rep.contact.ok,
            "overlapping_edges": rep.contact.overlapping_edges,
            "separated_pairs": rep.contact.separated_pairs,
            "violations": [
                {"kind": v.kind, "u": v.pair[0], "v": v.pair[1],
                 "inversive": float(v.inversive)}
                for v in rep.contact.violations],
        },
        "irreducibility": {
            "ok": rep.irreducibility.ok,
            "witnesses": witnesses,
            "inconclusive": list(rep.irreducibility.inconclusive),
            "covering_caps": list(rep.irreducibility.covering_caps),
        },
        "separating_triples": {
            "ok": rep.triples.ok,
            "results": [
                {"cycle": list(r.cycle), "empty": r.empty,
                 "witness": None if r.witness is None else _vec(r.witness)}
                for r in rep.triples.results],
        },
        "tangencies": [
            {"u": d.pair[0], "v": d.pair[1], "third": d.third,
             "inversive": float(d.inversive), "angle_sum": float(d.angle_sum),
             "consistent": d.consistent, "point": _vec(d.point)}
            for d in rep.tangencies],
        "layout": {
            "ok": rep.layout.ok,
            "total_excess": float(rep.layout.total_excess),
            "flipped_faces": [list(f) for f in rep.layout.flipped_faces],
            "degenerate_faces": [list(f) for f in rep.layout.degenerate_faces],
        },
        "radii": {
            "ok": rep.radii.ok,
            "min_radius": float(rep.radii.min_radius),
            "max_nongauge_radius": float(rep.radii.max_nongauge_radius),
        },
        "ring_ratio_max": float(rep.rings.max_ratio),
        "tolerances": {"samples": samples, "angle_tol": angle_tol},
    })


def dump_polyhedron(poly) -> str:
    return canonical_json({
        "face_normals": [_vec(row) for row in poly.face_normals],
        "vertices": [_vec(row) for row in poly.vertices],
        "klein_vertices": [_vec(row) for row in poly.klein_vertices()],
        "face_cycles": [list(c) for c in poly.face_cycles],
        "dihedral_angles": [
            {"u": u, "v": v, "angle": float(a)}
            for (u, v), a in sorted(poly.dihedral_angles.items())],
        "angle_error_inf": float(poly.angle_error_inf),
    })
