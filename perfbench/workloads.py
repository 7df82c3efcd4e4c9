"""The three benchmark workloads: validate, solve and certify.

A workload builds its inputs (the timed, repeated part of set-up),
asserts that its synthesized inputs are what they claim to be (once,
untimed), and hands out a fixed list of operations.  Each operation is
the sequence of calls one command-line invocation makes; its `check`
judges the answer afterwards, outside the timed region, and returns

* ("ok", None)        the answer passed its correctness gate,
* ("failed", reason)  the program reported an honest failure,
* ("wrong", reason)   the answer contradicts the gate.

Operations call the library through module attributes (`angles.check_admissible`,
not a local import) so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from katsphere import (
    angles,
    catalog,
    complexes,
    jsonio,
    polyhedron,
    render,
    solver,
    verify,
)

import inputs

VERIFY_SAMPLES = 20000     # the `katsphere verify` default
BP3 = "bipyramid-3"


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple[str, str | None]]
    known_failure: bool = False   # fails at the seed; kept to show a fix
    written: Callable[[object], int] = lambda payload: 0   # output bytes


def _bp3_angles(tri) -> angles.AngleAssignment:
    """The obtuse bipyramid(3) assignment of the acceptance tests."""
    return angles.AngleAssignment(
        {e: 0.3 if e[1] < 3 else 1.5 for e in tri.edges})


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise RuntimeError(f"set-up gate failed: {message}")


# ---------------------------------------------------------------------------
# validate: complexes and angles only
# ---------------------------------------------------------------------------

class Validate:
    """`katsphere validate`: build the triangulation, check admissibility.

    Geodesic meshes have no separating 3- or 4-cycles, yet every
    candidate is flood-filled today; the stacked tetrahedra have 300
    separating 3-cycles and 2191 separating 4-cycles, so there every
    candidate does need its side counts.
    """

    large_op = "geodesic-642"
    STACKS = 300
    # counted at the seed commit; no closed form
    STACKED_ARCS = 13848
    STACKED_SEPARATING4 = 2191

    def build(self, seed: int, workdir: str) -> dict:
        cases = {}
        for level in (2, 3):
            faces, _ = inputs.geodesic(level)
            tri = complexes.build_triangulation(faces)
            cases[f"geodesic-{tri.n_vertices}"] = (
                faces, angles.AngleAssignment.constant(tri, inputs.UNIFORM))
        stacked = catalog.stacked_tetrahedra(self.STACKS)
        cases[f"stacked-{self.STACKS}"] = (
            list(stacked.faces),
            angles.AngleAssignment.constant(stacked, inputs.UNIFORM))
        faces162 = cases["geodesic-162"][0]
        tri162 = complexes.build_triangulation(faces162)
        cases["geodesic-162-perturbed"] = (
            faces162, inputs.perturbed(tri162, inputs.UNIFORM,
                                       np.random.default_rng(seed)))
        dual = complexes.dualize(tri162)
        dual_theta = angles.AngleAssignment(
            {e: inputs.UNIFORM for e in dual.edges})
        return {"cases": cases, "dual": (list(dual.faces), dual_theta),
                "expected": self._expected(cases)}

    def _expected(self, cases) -> dict:
        """(verdict, checked counts, violations per condition) per case."""
        out = {}
        for name, (faces, theta) in cases.items():
            if name.startswith("stacked"):
                # three angles of 2 pi / 5 exceed pi on every separating
                # 3-cycle; every other condition holds
                checked = {"arc_pair": self.STACKED_ARCS,
                           "face_triple": len(faces),
                           "separating3": self.STACKS,
                           "separating4": self.STACKED_SEPARATING4}
                out[name] = (False, checked, {"separating3": self.STACKS})
                continue
            checked = {"arc_pair": inputs.geodesic_arc_count(faces),
                       "face_triple": len(faces),
                       "separating3": 0, "separating4": 0}
            bad = {k: v for k, v in
                   inputs.expected_violations(faces, theta).items() if v}
            out[name] = (not bad, checked, bad)
        return out

    def gate(self, data: dict) -> None:
        _require(not data["expected"]["geodesic-162-perturbed"][0],
                 "the perturbed assignment violates no condition")

    def ops(self, data: dict, workdir: str) -> list[Op]:
        out = []
        for name, (faces, theta) in data["cases"].items():
            def run(faces=faces, theta=theta):
                tri = complexes.build_triangulation(faces)
                return angles.check_admissible(tri, theta)
            out.append(Op(name, run, self._checker(data["expected"][name])))

        dual_faces, dual_theta = data["dual"]

        def run_dual():
            dual = complexes.build_dual_complex(dual_faces)
            return angles.check_dual_admissible(dual, dual_theta)
        out.append(Op("dual-geodesic-162", run_dual,
                      self._checker(data["expected"]["geodesic-162"])))
        return out

    @staticmethod
    def _checker(expected):
        verdict, checked, bad = expected

        def check(rep) -> tuple[str, str | None]:
            got = dict(Counter(v.condition for v in rep.violations))
            if rep.ok != verdict or dict(rep.checked) != checked or got != bad:
                return "wrong", (f"verdict {rep.ok}, checked {rep.checked}, "
                                 f"violations {got}; expected {expected}")
            return "ok", None
        return check


# ---------------------------------------------------------------------------
# solve: the Levenberg-Marquardt solver on small meshes
# ---------------------------------------------------------------------------

class Solve:
    """`katsphere solve`: check admissibility, solve, verify if converged.

    bipyramid(10), bipyramid(12) and geodesic-162 fail at the seed
    commit.  They stay in the list so that a solver fix shows in
    ok_share.  geodesic-162 runs with one fallback gauge: with the
    default six it stalls only after about three minutes.
    """

    large_op = "geodesic-162"
    SWEEP_TS = (0.0, 0.5, 0.9, 0.99)
    SWEEP_START, SWEEP_END = 0.4 * math.pi, 0.5 * math.pi

    def build(self, seed: int, workdir: str) -> dict:
        cases = []

        def add(name, tri, theta, options=None, known_failure=False):
            cases.append((name, list(tri.faces), theta, options, known_failure))

        oct_tri = catalog.octahedron()
        add("octahedron", oct_tri,
            angles.AngleAssignment.constant(oct_tri, inputs.UNIFORM))
        bp3 = catalog.bipyramid(3)
        add(BP3, bp3, _bp3_angles(bp3))
        ico = catalog.icosahedron()
        add("icosahedron", ico,
            angles.AngleAssignment.constant(ico, 0.45 * math.pi))
        for m in (6, 7, 8, 9, 10, 12):
            bp = catalog.bipyramid(m)
            add(f"bipyramid-{m}", bp,
                angles.AngleAssignment.constant(bp, inputs.UNIFORM),
                known_failure=m >= 10)
        faces42, pos42 = inputs.geodesic(1)
        tri42 = complexes.build_triangulation(faces42)
        add("geodesic-42", tri42,
            angles.AngleAssignment.constant(tri42, inputs.UNIFORM))
        tri42, cfg42, theta42 = inputs.realized_pattern(faces42, pos42)
        add("geodesic-42-realized", tri42, theta42)
        faces162, _ = inputs.geodesic(2)
        tri162 = complexes.build_triangulation(faces162)
        add("geodesic-162", tri162,
            angles.AngleAssignment.constant(tri162, inputs.UNIFORM),
            options=solver.SolveOptions(fallback_gauges=1), known_failure=True)
        return {"cases": cases, "sweep": list(oct_tri.faces),
                "realized": (tri42, cfg42, theta42)}

    def gate(self, data: dict) -> None:
        tri, cfg, theta = data["realized"]
        _require(angles.check_admissible(tri, theta).ok,
                 "realized geodesic-42 target is not admissible")
        _require(verify.verify_pattern(tri, cfg, theta).ok,
                 "realized geodesic-42 pattern does not verify")

    def ops(self, data: dict, workdir: str) -> list[Op]:
        out = []
        for name, faces, theta, options, known in data["cases"]:
            def run(faces=faces, theta=theta, options=options):
                tri = complexes.build_triangulation(faces)
                adm = angles.check_admissible(tri, theta)
                if not adm.ok:
                    return adm, None, None, None
                cfg, rep = solver.solve(tri, theta, options=options)
                vrep = (verify.verify_pattern(tri, cfg, theta)
                        if rep.converged else None)
                return adm, cfg, rep, vrep
            tol = (options or solver.SolveOptions()).tolerance
            out.append(Op(name, run, self._checker(tol), known))
        out.append(Op("octahedron-sweep", self._sweep(data["sweep"]),
                      self._check_sweep))
        return out

    @staticmethod
    def _checker(tol: float):
        def check(payload) -> tuple[str, str | None]:
            adm, _, rep, vrep = payload
            if not adm.ok:
                return "wrong", "admissible input reported inadmissible"
            if rep.converged:
                if not rep.residual_inf < tol:
                    return "wrong", f"converged with residual {rep.residual_inf:.3e}"
                if not vrep.ok:
                    return "wrong", "converged pattern does not verify"
                return "ok", None
            if not rep.failure_reason:
                return "wrong", "unconverged solve gives no failure reason"
            return "failed", rep.failure_reason
        return check

    def _sweep(self, faces):
        """`katsphere degenerate`: one triangulation, one solve per step."""
        def run():
            tri = complexes.build_triangulation(faces)
            rows = []
            for t in self.SWEEP_TS:
                theta = angles.AngleAssignment.constant(
                    tri, (1.0 - t) * self.SWEEP_START + t * self.SWEEP_END)
                adm = angles.check_admissible(tri, theta)
                if not adm.ok:
                    rows.append((t, False, None, None, None))
                    continue
                cfg, rep = solver.solve(tri, theta)
                if not rep.converged:
                    rows.append((t, True, rep, None, None))
                    continue
                rows.append((t, True, rep, verify.radii_bounds(tri, cfg),
                             verify.separation_margin(tri, cfg)))
            return rows
        return run

    @staticmethod
    def _check_sweep(rows) -> tuple[str, str | None]:
        tol = solver.SolveOptions().tolerance
        for t, admissible, rep, radii, margin in rows:
            if not admissible:
                return "wrong", f"step t={t} reported inadmissible"
            if not rep.converged:
                return "failed", f"t={t}: {rep.failure_reason}"
            if not (rep.residual_inf < tol and radii.ok and margin > 0.0):
                return "wrong", f"t={t}: residual {rep.residual_inf:.3e}, " \
                                f"radii ok {radii.ok}, margin {margin:.3e}"
        return "ok", None


# ---------------------------------------------------------------------------
# certify: verify, polyhedron, render and file formats
# ---------------------------------------------------------------------------

class Certify:
    """`katsphere verify`, `polyhedron` and `render` on stored patterns.

    Each op reads the complex and the pattern from files, verifies the
    pattern, builds the polyhedron and writes the verification report,
    the polyhedron, an OFF mesh and an SVG.
    """

    large_op = "geodesic-642"

    def build(self, seed: int, workdir: str) -> dict:
        patterns = {}
        for level in (2, 3):
            faces, pos = inputs.geodesic(level)
            tri, cfg, theta = inputs.realized_pattern(faces, pos)
            rep = solver.SolveReport(converged=True, residual_inf=0.0,
                                     iterations=0, targets=(), repairs=0)
            patterns[f"geodesic-{tri.n_vertices}"] = (tri, cfg, theta, rep)
        oct_tri, bp3, ico = (catalog.octahedron(), catalog.bipyramid(3),
                             catalog.icosahedron())
        for name, tri, theta in (
                ("octahedron", oct_tri,
                 angles.AngleAssignment.constant(oct_tri, inputs.UNIFORM)),
                (BP3, bp3, _bp3_angles(bp3)),
                ("icosahedron", ico,
                 angles.AngleAssignment.constant(ico, 0.45 * math.pi))):
            cfg, rep = solver.solve(tri, theta)
            patterns[name] = (tri, cfg, theta, rep)
        files = {}
        for name, (tri, cfg, theta, rep) in patterns.items():
            cpath = os.path.join(workdir, f"{name}.complex.json")
            ppath = os.path.join(workdir, f"{name}.pattern.json")
            with open(cpath, "w", encoding="utf-8") as fh:
                fh.write(jsonio.dump_complex(name, tri))
            with open(ppath, "w", encoding="utf-8") as fh:
                fh.write(jsonio.dump_pattern(cfg, rep, theta))
            files[name] = (cpath, ppath)
        return {"patterns": patterns, "files": files}

    def gate(self, data: dict) -> None:
        for name, (tri, cfg, theta, rep) in data["patterns"].items():
            _require(rep.converged, f"{name} did not solve")
            _require(angles.check_admissible(tri, theta).ok,
                     f"{name} target is not admissible")
            _require(verify.verify_pattern(tri, cfg, theta).ok,
                     f"{name} pattern does not verify")

    def ops(self, data: dict, workdir: str) -> list[Op]:
        out = []
        for name, (cpath, ppath) in data["files"].items():
            stem = os.path.join(workdir, name)

            def run(cpath=cpath, ppath=ppath, stem=stem):
                _, tri = jsonio.load_complex(cpath)
                cfg, theta, _ = jsonio.load_pattern(ppath, tri)
                vrep = verify.verify_pattern(tri, cfg, theta,
                                             samples=VERIFY_SAMPLES)
                poly = polyhedron.build_polyhedron(tri, cfg, theta)
                written = 0
                for suffix, text in (
                        ("verify.json", jsonio.dump_verification(
                            vrep, VERIFY_SAMPLES, verify.ANGLE_TOL)),
                        ("polyhedron.json", jsonio.dump_polyhedron(poly)),
                        ("svg", render.render_svg(tri, cfg))):
                    with open(f"{stem}.{suffix}", "w", encoding="utf-8") as fh:
                        written += fh.write(text)
                polyhedron.export_off(poly, f"{stem}.off")
                written += os.path.getsize(f"{stem}.off")
                return tri, vrep, poly, f"{stem}.off", written
            out.append(Op(name, run, self._check,
                          written=lambda payload: payload[-1]))
        return out

    @staticmethod
    def _check(payload) -> tuple[str, str | None]:
        tri, vrep, poly, off_path, _ = payload
        if not vrep.ok:
            return "wrong", "stored pattern does not verify"
        if not poly.angle_error_inf <= verify.ANGLE_TOL:
            return "wrong", f"dihedral error {poly.angle_error_inf:.3e}"
        if not np.all(np.linalg.norm(poly.klein_vertices(), axis=1) < 1.0):
            return "wrong", "a Klein vertex lies outside the unit ball"
        with open(off_path, encoding="ascii") as fh:
            lines = fh.read().splitlines()
        counts = tuple(int(x) for x in lines[1].split()) if len(lines) > 1 else ()
        want = (tri.n_faces, tri.n_vertices, tri.n_edges)
        if lines[:1] != ["OFF"] or counts != want \
                or len(lines) != 2 + want[0] + want[1]:
            return "wrong", f"OFF header {lines[:2]} for counts {want}"
        return "ok", None


WORKLOADS = {"validate": Validate, "solve": Solve, "certify": Certify}

