"""JSON interchange formats for complexes, angles, patterns, and reports.

All writers emit canonical JSON so identical inputs produce
byte-identical artifacts.  The canonical bytes are those of
`json.dumps(obj, sort_keys=True, indent=2)` plus a newline: keys sorted,
two-space indent, ASCII strings, floats by `float.__repr__`, and NaN or
Infinity spelled as Python's json module spells them.  `canonical_json`
writes them itself, because with an indent the standard library falls
back to its pure-Python encoder.  It also accepts numpy arrays as
leaves, written exactly as `arr.tolist()` would be, one row template
per array; writers pass their vector fields as arrays.  All readers
validate shape strictly and raise ParseError with the offending path;
geometric or combinatorial validity is left to the owning modules.
Vertex ids must be JSON integers: the readers test `type(v) is int`,
which turns away true and false (Python's bool subclasses int).
"""

from __future__ import annotations

import json
import math
import sys
from json.encoder import encode_basestring_ascii as _string

import numpy as np

from .angles import AngleAssignment
from .complexes import DualComplex, Triangulation, build_dual_complex, build_triangulation
from .errors import ParseError


def canonical_json(obj) -> str:
    """obj as `json.dumps(obj, sort_keys=True, indent=2)` writes it, plus
    a newline; numpy arrays are written as their `tolist()`.

    Raises TypeError for a dict key that is not a str and for any value
    json cannot write (numpy scalars other than float64 among them).
    """
    return _encode(obj, "\n") + "\n"


def _encode(obj, nl: str) -> str:
    """obj as JSON text; nl is a newline plus the indent obj starts at."""
    if isinstance(obj, float):      # the common leaf first
        if math.isfinite(obj):
            return float.__repr__(obj)
        return "NaN" if obj != obj else "Infinity" if obj > 0 else "-Infinity"
    if isinstance(obj, str):
        return _string(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = nl + "  "
        return ("[" + inner + ("," + inner).join([_encode(x, inner) for x in obj])
                + nl + "]")
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = nl + "  "
        # _string raises TypeError on a key that is not a str
        return ("{" + inner + ("," + inner).join(
            [_string(k) + ": " + _encode(v, inner) for k, v in sorted(obj.items())])
            + nl + "}")
    if isinstance(obj, np.ndarray):
        return _array(obj, nl)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _array(arr: np.ndarray, nl: str) -> str:
    """A finite 1-D or 2-D int or float array through one "%r" template
    per row; every other array element by element.  `tolist()` yields
    Python ints and floats, whose %r is their JSON text."""
    if (arr.ndim not in (1, 2) or arr.size == 0 or arr.dtype.kind not in "fiu"
            or arr.dtype.kind == "f" and not np.isfinite(arr).all()):
        return _encode(arr.tolist(), nl)
    inner = nl + "  "
    if arr.ndim == 1:
        return "[" + inner + ("," + inner).join(map(repr, arr.tolist())) + nl + "]"
    deeper = inner + "  "
    row = "[" + deeper + ("," + deeper).join(["%r"] * arr.shape[1]) + inner + "]"
    return ("[" + inner + ("," + inner).join([row % tuple(r) for r in arr.tolist()])
            + nl + "]")


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
                and all(type(v) is int for v in f),
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
                and all(type(v) is int for v in f),
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
        if not (type(u) is int and type(v) is int and u < v):
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
    residual = float(report.residual_inf)
    return canonical_json({
        "centers": cfg.centers,
        "radii": cfg.radii,
        "gauge_face": list(cfg.gauge_face),
        # JSON has no Infinity; a failed solve may end on one
        "residual_inf": residual if math.isfinite(residual) else None,
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
            and all(type(v) is int for v in gauge),
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

def dump_verification(rep, samples: int, angle_tol: float) -> str:
    witnesses = {str(v): w for v, w in
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
                 "witness": r.witness}
                for r in rep.triples.results],
        },
        "tangencies": [
            {"u": d.pair[0], "v": d.pair[1], "third": d.third,
             "inversive": float(d.inversive), "angle_sum": float(d.angle_sum),
             "consistent": d.consistent, "point": d.point}
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
        "face_normals": poly.face_normals,
        "vertices": poly.vertices,
        "klein_vertices": poly.klein_vertices(),
        "face_cycles": [list(c) for c in poly.face_cycles],
        "dihedral_angles": [
            {"u": u, "v": v, "angle": float(a)}
            for (u, v), a in sorted(poly.dihedral_angles.items())],
        "angle_error_inf": float(poly.angle_error_inf),
    })
