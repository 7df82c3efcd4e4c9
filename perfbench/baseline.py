"""Record a baseline file: every workload, plus a per-stage mesh ladder.

Usage, from the root of a checkout:

    python3 perfbench/baseline.py --out perfbench/BENCH_0.json

Each workload runs once per seed with tracing off and once with tracing
on, each in a fresh `run.py` process.  The file keeps every result line
and per-op detail, and the median of each end-to-end metric.  The ladder
times each pipeline stage on the geodesic meshes with 12, 42 and 162
vertices at the uniform angle 2 pi / 5 (median of --repeats).  The
162-vertex solve runs once, with one fallback gauge, as in the solve
workload.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import run    # pins BLAS to one thread before numpy is imported


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=900, check=True)
    detail, result = proc.stdout.strip().splitlines()[-2:]
    return {"result": json.loads(result), "detail": json.loads(detail)}


def workloads(seeds: list[int], seconds: float) -> dict:
    out = {}
    for name in ("validate", "solve", "certify"):
        plain = [_run(name, s, seconds, 0) for s in seeds]
        traced = _run(name, seeds[0], seconds, 1)
        medians = {k: statistics.median(r["result"]["metrics"][k]["value"]
                                        for r in plain)
                   for k in plain[0]["result"]["metrics"]}
        out[name] = {"medians": medians,
                     "fail_share": [r["detail"]["fail_share"] for r in plain],
                     "runs": plain, "traced": traced}
    return out


def _timed(fn, repeats: int):
    times, value = [], None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), value


def ladder(repeats: int) -> list[dict]:
    run._import_package()
    import inputs
    from katsphere import angles, complexes, polyhedron, solver, verify

    rows = []
    for level in (0, 1, 2):
        faces, _ = inputs.geodesic(level)
        tri = complexes.build_triangulation(faces)
        theta = angles.AngleAssignment.constant(tri, inputs.UNIFORM)
        row = {"vertices": tri.n_vertices}
        row["admissible_s"], adm = _timed(
            lambda: angles.check_admissible(
                complexes.build_triangulation(faces), theta), repeats)
        row["admissible"] = adm.ok
        options = solver.SolveOptions(fallback_gauges=1) if level == 2 else None
        row["solve_options"] = "fallback_gauges=1" if options else "default"
        row["solve_s"], (cfg, rep) = _timed(
            lambda: solver.solve(tri, theta, options=options),
            1 if options else repeats)
        row.update(converged=rep.converged, iterations=rep.iterations,
                   homotopy_legs=len(rep.targets), repairs=rep.repairs,
                   failure_reason=rep.failure_reason)
        if rep.converged:
            row["verify_s"], vrep = _timed(
                lambda: verify.verify_pattern(tri, cfg, theta), repeats)
            row["verify_ok"] = vrep.ok
            row["polyhedron_s"], _ = _timed(
                lambda: polyhedron.build_polyhedron(tri, cfg, theta), repeats)
        rows.append(row)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=os.path.join(run.HERE, "BENCH_0.json"))
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    payload = {"ladder": ladder(args.repeats),
               "environment": run.environment(args.seeds[0]),
               "seconds": args.seconds, "seeds": args.seeds,
               "workloads": workloads(args.seeds, args.seconds)}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
