"""Command-line pipeline: validate, solve, verify, polyhedron, render,
and degeneration studies.

Exit codes: 0 success, 2 condition or gate failure, 3 unreadable or
malformed input, 4 numerical failure, 5 inconclusive verification.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from . import jsonio
from .angles import AngleAssignment, check_admissible, check_dual_admissible
from .errors import (
    ComplexError,
    ConditionsViolated,
    ParseError,
    PolyhedronError,
    PreconditionViolated,
    SolverError,
)
from .polyhedron import build_polyhedron, export_off
from .render import render_to_file
from .solver import SolveOptions, pattern_angles, solve
from .verify import (
    ANGLE_TOL,
    radii_bounds,
    ring_ratios,
    separation_margin,
    verify_pattern,
)

EXIT_OK = 0
EXIT_GATE = 2
EXIT_PARSE = 3
EXIT_NUMERIC = 4
EXIT_INCONCLUSIVE = 5


def _print_condition_report(rep, out=None) -> None:
    out = out or sys.stdout
    failing = {v.condition for v in rep.violations}
    for name in sorted(rep.checked):
        verdict = "FAIL" if name in failing else "ok"
        print(f"{name:<14} checked {rep.checked[name]:<5d} {verdict}",
              file=out)
    for v in rep.violations:
        strictness = " (strict bound)" if v.strict else ""
        print(f"  {v.condition} on {v.curve.vertices}: angle sum "
              f"{v.value:.6f} vs bound {v.bound:.6f}{strictness}", file=out)
    print(f"result: {'PASS' if rep.ok else 'FAIL'}", file=out)


def _write_manifest(path, inputs: dict, options: dict,
                    artifacts: list, timings: dict) -> None:
    payload = {
        "inputs": inputs,
        "options": options,
        "artifacts": sorted(artifacts),
        "timings_sec": timings,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(jsonio.canonical_json(payload))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    theta = jsonio.load_angles(args.angles, degrees=args.degrees)
    if args.dual:
        _, dual = jsonio.load_dual(args.complex)
        rep = check_dual_admissible(dual, theta)
    else:
        _, tri = jsonio.load_complex(args.complex)
        rep = check_admissible(tri, theta)
    _print_condition_report(rep)
    return EXIT_OK if rep.ok else EXIT_GATE


def cmd_solve(args) -> int:
    try:
        opts = SolveOptions(tolerance=args.tol)
    except ValueError as exc:
        raise ParseError(f"--tol: {exc}") from None
    _, tri = jsonio.load_complex(args.complex)
    theta = jsonio.load_angles(args.angles, degrees=args.degrees)
    t0 = time.perf_counter()
    try:
        cfg, rep = solve(tri, theta, options=opts)
    except ConditionsViolated as exc:     # solve checks admissibility first
        _print_condition_report(exc.args[0], out=sys.stderr)
        return EXIT_GATE
    solve_time = time.perf_counter() - t0
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(jsonio.dump_pattern(cfg, rep, theta))
    print(f"residual_inf: {rep.residual_inf:.3e}")
    print(f"iterations: {rep.iterations}")
    if not rep.converged:
        print(f"solver failed: {rep.failure_reason}", file=sys.stderr)
        return EXIT_NUMERIC
    t1 = time.perf_counter()
    vrep = verify_pattern(tri, cfg, theta)
    print(f"separation_margin: {vrep.separation_margin:.6f}")
    print(f"verified: {'yes' if vrep.ok else 'no'}")
    if args.manifest:
        _write_manifest(
            args.manifest,
            inputs={"complex": args.complex, "angles": args.angles},
            options={"tol": args.tol, "degrees": args.degrees},
            artifacts=[args.out],
            timings={"solve": solve_time,
                     "verify": time.perf_counter() - t1})
    return EXIT_OK if vrep.ok else EXIT_GATE


def cmd_verify(args) -> int:
    _, tri = jsonio.load_complex(args.complex)
    cfg, theta, _ = jsonio.load_pattern(args.pattern, tri)
    if theta is None:
        # no stored targets: check the pattern against its own measured
        # angles so the deeper gates still run
        try:
            theta = AngleAssignment(pattern_angles(cfg))
        except SolverError:
            theta = AngleAssignment.constant(tri, math.pi / 2)
    vrep = verify_pattern(tri, cfg, theta, samples=args.samples)
    sys.stdout.write(jsonio.dump_verification(vrep, args.samples, ANGLE_TOL))
    if vrep.ok:
        return EXIT_OK
    irr = vrep.irreducibility
    witnesses_only_gap = (vrep.in_gauge and vrep.triples.ok and vrep.layout.ok
                          and not irr.ok and not irr.covering_caps)
    return EXIT_INCONCLUSIVE if witnesses_only_gap else EXIT_GATE


def cmd_polyhedron(args) -> int:
    _, tri = jsonio.load_complex(args.complex)
    cfg, _, _ = jsonio.load_pattern(args.pattern, tri)
    theta = jsonio.load_angles(args.angles, degrees=args.degrees)
    theta.check_domain(tri.edges)
    t0 = time.perf_counter()
    poly = build_polyhedron(tri, cfg, theta)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(jsonio.dump_polyhedron(poly))
    artifacts = [args.out]
    if args.off:
        export_off(poly, args.off)
        artifacts.append(args.off)
    print(f"dihedral angle max error: {poly.angle_error_inf:.3e}")
    print(f"vertices: {poly.n_vertices}  faces: {poly.n_faces}  "
          f"edges: {poly.n_edges}")
    if args.manifest:
        _write_manifest(
            args.manifest,
            inputs={"complex": args.complex, "pattern": args.pattern,
                    "angles": args.angles},
            options={"degrees": args.degrees},
            artifacts=artifacts,
            timings={"build": time.perf_counter() - t0})
    return EXIT_OK


def cmd_render(args) -> int:
    _, tri = jsonio.load_complex(args.complex)
    cfg, _, _ = jsonio.load_pattern(args.pattern, tri)
    render_to_file(tri, cfg, args.out)
    print(f"wrote {args.out}: {tri.n_vertices} circles, "
          f"{tri.n_edges} contact edges")
    return EXIT_OK


def _parse_ts(args) -> list[float]:
    if args.ts is not None:
        try:
            ts = [float(tok) for tok in args.ts.split(",") if tok.strip()]
        except ValueError:
            raise ParseError(f"--ts must be comma-separated floats, "
                             f"got {args.ts!r}") from None
        if not ts:
            raise ParseError("--ts lists no values")
        return ts
    k = args.steps
    if k < 2:
        raise ParseError("--steps must be at least 2")
    return [i / (k - 1) for i in range(k)]


def cmd_degenerate(args) -> int:
    _, tri = jsonio.load_complex(args.complex)
    start = jsonio.load_angles(args.angles, degrees=args.degrees)
    start.check_domain(tri.edges)
    end = jsonio.load_angles(args.end, degrees=args.degrees)
    end.check_domain(tri.edges)
    ts = _parse_ts(args)

    rows = []
    failed = False
    for step, t in enumerate(ts):
        theta = AngleAssignment(
            {e: (1.0 - t) * start[e] + t * end[e] for e in tri.edges})
        adm = check_admissible(tri, theta)
        if not adm.ok:
            if step == 0:
                _print_condition_report(adm, out=sys.stderr)
                print("the family starts outside the admissible set",
                      file=sys.stderr)
                return EXIT_GATE
            failed = True
            rows.append([step, repr(t), "outside", "", "", "", "", ""])
            continue
        cfg, rep = solve(tri, theta)
        if not rep.converged:
            failed = True
            rows.append([step, repr(t), "stalled",
                         repr(rep.residual_inf), "", "", "", ""])
            continue
        stats = radii_bounds(tri, cfg)
        rows.append([
            step, repr(t), "ok", repr(rep.residual_inf),
            repr(stats.min_radius), repr(stats.max_nongauge_radius),
            repr(separation_margin(tri, cfg)),
            repr(ring_ratios(tri, cfg).max_ratio),
        ])

    header = ("step,t,status,residual_inf,min_radius,max_nongauge_radius,"
              "separation_margin,ring_ratio_max")
    lines = [header] + [",".join(str(x) for x in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_NUMERIC if failed else EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="katsphere",
        description="Circle patterns on the sphere and the hyperbolic "
                    "polyhedra they induce.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate",
                       help="check an angle assignment's admissibility")
    p.add_argument("complex", help="complex JSON file")
    p.add_argument("angles", help="angles JSON file")
    p.add_argument("--dual", action="store_true",
                   help="input is a trivalent dual complex")
    p.add_argument("--degrees", action="store_true",
                   help="angles file is in degrees")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="compute the gauged circle pattern")
    p.add_argument("complex")
    p.add_argument("angles")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="residual infinity-norm tolerance")
    p.add_argument("--out", default="pattern.json")
    p.add_argument("--degrees", action="store_true")
    p.add_argument("--manifest", default=None,
                   help="also write a run manifest JSON here")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="run the diagnostic battery")
    p.add_argument("complex")
    p.add_argument("pattern")
    p.add_argument("--samples", type=int, default=20000,
                   help="irreducibility witness sample count")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("polyhedron",
                       help="build the induced hyperbolic polyhedron")
    p.add_argument("complex")
    p.add_argument("pattern")
    p.add_argument("angles")
    p.add_argument("--out", default="polyhedron.json")
    p.add_argument("--off", default=None, help="also write an OFF mesh here")
    p.add_argument("--degrees", action="store_true")
    p.add_argument("--manifest", default=None)
    p.set_defaults(func=cmd_polyhedron)

    p = sub.add_parser("render", help="render the pattern as an SVG")
    p.add_argument("complex")
    p.add_argument("pattern")
    p.add_argument("--out", default="pattern.svg")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("degenerate",
                       help="solve along a family of angle assignments")
    p.add_argument("complex")
    p.add_argument("angles", help="angles at t = 0")
    p.add_argument("--end", required=True, help="angles at t = 1")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--steps", type=int, default=None,
                       help="number of uniform steps over [0, 1]")
    group.add_argument("--ts", default=None,
                       help="comma-separated interpolation parameters")
    p.add_argument("--out", default=None, help="CSV output (default stdout)")
    p.add_argument("--degrees", action="store_true")
    p.set_defaults(func=cmd_degenerate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ComplexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConditionsViolated as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GATE
    except (PreconditionViolated, PolyhedronError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GATE
    except SolverError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
