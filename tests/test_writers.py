"""The certify writers against their per-element originals.

`dump_verification`, `dump_polyhedron`, `export_off` and `render_svg`
format whole arrays row by row.  The originals below format one element
at a time through `json.dumps` and Python scalars; every artifact must
come out byte for byte the same.
"""

import json
import math

import numpy as np
import pytest

from katsphere.jsonio import dump_polyhedron, dump_verification
from katsphere.polyhedron import build_polyhedron, export_off
from katsphere.render import _rotation_to_north, render_svg
from katsphere.sphere import fibonacci_sphere
from katsphere.verify import ANGLE_TOL, verify_pattern

from conftest import realized_geodesic

# ---------------------------------------------------------------------------
# the per-element writers
# ---------------------------------------------------------------------------


def oracle_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _vec(x) -> list[float]:
    return [float(v) for v in x]


def oracle_dump_verification(rep, samples: int, angle_tol: float) -> str:
    witnesses = {str(v): _vec(w) for v, w in
                 sorted(rep.irreducibility.witnesses.items())}
    return oracle_json({
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


def oracle_dump_polyhedron(poly) -> str:
    return oracle_json({
        "face_normals": [_vec(row) for row in poly.face_normals],
        "vertices": [_vec(row) for row in poly.vertices],
        "klein_vertices": [_vec(row) for row in poly.klein_vertices()],
        "face_cycles": [list(c) for c in poly.face_cycles],
        "dihedral_angles": [
            {"u": u, "v": v, "angle": float(a)}
            for (u, v), a in sorted(poly.dihedral_angles.items())],
        "angle_error_inf": float(poly.angle_error_inf),
    })


def oracle_export_off(poly, path) -> None:
    klein = poly.klein_vertices()
    lines = ["OFF", f"{poly.n_vertices} {poly.n_faces} {poly.n_edges}"]
    for row in klein:
        lines.append(" ".join(repr(float(x)) for x in row))
    for cycle in poly.face_cycles:
        lines.append(" ".join(str(i) for i in (len(cycle), *cycle)))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def oracle_projection_pole(cfg, candidates: int = 400) -> np.ndarray:
    probes = fibonacci_sphere(candidates)
    dots = np.clip(probes @ cfg.centers.T, -1.0, 1.0)
    dist = np.arccos(dots)
    clearance = np.minimum(np.abs(dist - cfg.radii[None, :]), dist)
    return probes[int(np.argmax(clearance.min(axis=1)))]


def oracle_render_svg(tri, cfg) -> str:
    rot = _rotation_to_north(oracle_projection_pole(cfg))
    centers = cfg.centers @ rot.T
    circles, points = [], []
    for v in range(tri.n_vertices):
        p, rho = centers[v], float(cfg.radii[v])
        k = float(p[2]) - math.cos(rho)
        circles.append((-float(p[0]) / k, -float(p[1]) / k,
                        math.sin(rho) / abs(k)))
        points.append((float(p[0] / (1.0 - p[2])),
                       float(p[1] / (1.0 - p[2]))))

    xs = [c[0] - c[2] for c in circles] + [c[0] + c[2] for c in circles]
    ys = [c[1] - c[2] for c in circles] + [c[1] + c[2] for c in circles]
    xs += [p[0] for p in points]
    ys += [p[1] for p in points]
    lo_x, hi_x, lo_y, hi_y = min(xs), max(xs), min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y)
    pad = 0.05 * span
    view = (lo_x - pad, lo_y - pad,
            (hi_x - lo_x) + 2 * pad, (hi_y - lo_y) + 2 * pad)
    stroke = 0.004 * span

    def fmt(x: float) -> str:
        return f"{x:.4f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="800" height="800" '
        f'viewBox="{fmt(view[0])} {fmt(view[1])} {fmt(view[2])} '
        f'{fmt(view[3])}">',
        f'<g stroke="#888888" stroke-width="{fmt(stroke)}">',
    ]
    for (u, v) in tri.edges:
        parts.append(
            f'<line x1="{fmt(points[u][0])}" y1="{fmt(points[u][1])}" '
            f'x2="{fmt(points[v][0])}" y2="{fmt(points[v][1])}"/>')
    parts.append("</g>")
    parts.append(f'<g fill="none" stroke="#1f77b4" '
                 f'stroke-width="{fmt(stroke)}">')
    for (cx, cy, r) in circles:
        parts.append(f'<circle cx="{fmt(cx)}" cy="{fmt(cy)}" '
                     f'r="{fmt(r)}"/>')
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# byte identity on solved and realized patterns
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def realized_geodesic162():
    return realized_geodesic(2)


PATTERNS = ["solved_oct", "solved_bp3", "solved_ico",
            "realized_geodesic42", "realized_geodesic162"]
COMPLEXES = {"solved_oct": "oct_tri", "solved_bp3": "bp3",
             "solved_ico": "ico_tri"}


@pytest.fixture(params=PATTERNS)
def pattern(request):
    """(triangulation, configuration, angles) of each pattern."""
    name = request.param
    if name in COMPLEXES:
        cfg, theta = request.getfixturevalue(name)
        return request.getfixturevalue(COMPLEXES[name]), cfg, theta
    return request.getfixturevalue(name)


def test_dump_verification_bytes(pattern):
    tri, cfg, theta = pattern
    rep = verify_pattern(tri, cfg, theta)
    assert rep.ok
    assert dump_verification(rep, 20000, ANGLE_TOL) == \
        oracle_dump_verification(rep, 20000, ANGLE_TOL)


def test_dump_polyhedron_bytes(pattern):
    tri, cfg, theta = pattern
    poly = build_polyhedron(tri, cfg, theta)
    assert dump_polyhedron(poly) == oracle_dump_polyhedron(poly)


def test_export_off_bytes(pattern, tmp_path):
    tri, cfg, theta = pattern
    poly = build_polyhedron(tri, cfg, theta)
    export_off(poly, tmp_path / "got.off")
    oracle_export_off(poly, tmp_path / "want.off")
    assert (tmp_path / "got.off").read_bytes() == \
        (tmp_path / "want.off").read_bytes()


def test_render_svg_bytes(pattern):
    tri, cfg, _ = pattern
    assert render_svg(tri, cfg) == oracle_render_svg(tri, cfg)
