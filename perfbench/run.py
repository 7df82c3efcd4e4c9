"""katsphere benchmark: one closed-loop client running a fixed op list.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload validate|solve|certify \\
        --seed N --seconds S --trace 0|1

The package is imported from `src/` next to this directory; the run
fails, before printing a result, when that tree is missing.  Set-up
builds the inputs from the seed (repeated, median reported) and checks
the synthesized ones once.  Then passes over the op list, in an order
shuffled by the seed, run until S seconds of op time are spent.  Op and
set-up times are scaled to a reference machine speed (speed.py).  With
--trace 1 the same number of seconds is run again with every public
layer function wrapped, and per-layer metrics replace the end-to-end
ones.  The last line of stdout is the result JSON; the line before it
holds the per-op details and the environment.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import shutil
import sys
import tempfile
import time
from statistics import median as _median

import speed

# one BLAS thread: the op latencies must not depend on the core count,
# and these variables are only read when numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 5


def _rank(xs: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least a share
    q of all samples at or below it."""
    s = sorted(xs)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def _import_package() -> float:
    """Import katsphere from the checkout's src/; returns the seconds."""
    if not os.path.isfile(os.path.join(SRC, "katsphere", "__init__.py")):
        raise SystemExit(f"error: no katsphere package under {SRC}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import katsphere  # noqa: F401
    from katsphere import (angles, catalog, complexes, jsonio,  # noqa: F401
                           polyhedron, render, solver, sphere, verify)
    elapsed = time.perf_counter() - t0
    if not os.path.abspath(katsphere.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: katsphere imported from {katsphere.__file__}")
    return elapsed


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def measure(ops, rng, seconds: float, probe, tracer=None) -> dict:
    """Closed loop: whole passes over the shuffled op list until `seconds`
    of op time are spent.  Checks and speed probes run between ops,
    untimed; each op time is scaled by the probes around and inside it
    (see speed.py)."""
    samples = []          # (op, scaled s, outcome, reason, measured s)
    pass_times = []       # scaled
    written = 0
    before = probe.seconds()
    while sum(s[4] for s in samples) < seconds or not pass_times:
        order = list(ops)
        rng.shuffle(order)
        spent = 0.0
        for op in order:
            inside: list[float] = []
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    with probe.sampling(inside):
                        payload = op.run()
                else:   # probes inside would land in the layer spans
                    payload = tracer.run_op(op.name, op.run)
            except Exception as exc:   # an op must not end the run
                dur = time.perf_counter() - t0 - sum(inside)
                outcome, reason = "error", f"{type(exc).__name__}: {exc}"
            else:
                dur = time.perf_counter() - t0 - sum(inside)
                outcome, reason = op.check(payload)
                written += op.written(payload)
                del payload
            if outcome == "failed" and op.known_failure:
                outcome = "known_failure"
            after = probe.seconds()
            speeds = [before, *inside, after]
            scaled = dur * speed.REFERENCE_S * len(speeds) / sum(speeds)
            before = after
            spent += scaled
            samples.append((op.name, scaled, outcome, reason, dur))
        pass_times.append(spent)
    return {"samples": samples, "pass_times": pass_times, "written": written}


def end_to_end(run: dict, large_op: str, setup_s: float) -> dict:
    large = [s[1] for s in run["samples"] if s[0] == large_op]
    ok = sum(1 for s in run["samples"] if s[2] == "ok")
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "pass_s": (_median(run["pass_times"]), "s"),
        "large_op_s": (_median(large), "s"),
        "ok_share": (ok / len(run["samples"]), "share"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


# ---------------------------------------------------------------------------
# per-layer metrics from the tracer
# ---------------------------------------------------------------------------

def _hook_cycles(tracer, args, result):
    tracer.counters["complexes.separating_found"] += len(result)


def _hook_witnesses(tracer, args, result):
    tracer.counters["verify.witnesses"] += len(result.witnesses)
    tracer.counters["verify.witness_probes"] += args[0].n_vertices


def _hook_solve(tracer, args, result):
    report = result[1]
    tracer.counters["solver.lm_iterations"] += report.iterations
    tracer.counters["solver.homotopy_legs"] += len(report.targets)
    tracer.counters["solver.repairs"] += report.repairs


HOOKS = {"complexes.separating_cycles": _hook_cycles,
         "verify.check_irreducible": _hook_witnesses,
         "solver.solve": _hook_solve}
# microsecond helpers in the inner loops: millions of calls per pass
COUNT_ONLY = ("sphere.minkowski_dot", "sphere.signed_excess", "sphere.sph_dist",
              "sphere.excess_lhuilier")
SKIP = ("complexes.norm_edge",)


class Absent(Exception):
    """A metric whose function or counter no longer exists."""


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, passes: int, overhead_share: float) -> tuple[dict, list]:
    """Every per-layer metric, per traced pass.  `<layer>.<fn>_s` is the
    function's inclusive time, `_self_s` its time outside child spans,
    `_calls` its call count; the rest are counters read off results."""

    def span(name: str, field: str) -> float:
        if name not in tracer.wrapped:
            raise Absent(name)
        stat = tracer.stats.get(name)
        value = getattr(stat, field) if stat is not None else 0
        return value / passes

    def counter(name: str, hook_span: str) -> float:
        if hook_span not in tracer.wrapped or hook_span in tracer.broken_hooks:
            raise Absent(name)
        return tracer.counters.get(name, 0.0) / passes

    def total(name):
        return lambda: span(name, "total_s")

    def self_time(name):
        return lambda: span(name, "self_s")

    def calls(name):
        return lambda: span(name, "calls")

    def module_sum(module: str, prefix: str) -> float:
        names = [n for n in tracer.wrapped
                 if n.startswith(f"{module}.{prefix}")]
        if not names:
            raise Absent(f"{module}.{prefix}*")
        return sum(span(n, "total_s") for n in names)

    def lm(name):
        return lambda: counter(f"solver.{name}", "solver.solve")

    s, c, share = "s", "count", "share"
    table = [
        ("complexes.build_triangulation_s", s, total("complexes.build_triangulation")),
        ("complexes.two_edge_arcs_s", s, total("complexes.two_edge_arcs")),
        ("complexes.separating_cycles_s", s, total("complexes.separating_cycles")),
        ("complexes.separating_cycles_calls", c, calls("complexes.separating_cycles")),
        ("complexes.separating_found", c,
         lambda: counter("complexes.separating_found", "complexes.separating_cycles")),
        ("angles.check_admissible_s", s, total("angles.check_admissible")),
        ("angles.check_admissible_self_s", s, self_time("angles.check_admissible")),
        ("angles.check_dual_admissible_s", s, total("angles.check_dual_admissible")),
        ("solver.solve_s", s, total("solver.solve")),
        ("solver.solve_self_s", s, self_time("solver.solve")),
        ("solver.initial_configuration_s", s, total("solver.initial_configuration")),
        ("solver.initial_configuration_calls", c, calls("solver.initial_configuration")),
        ("solver.jacobian_s", s, total("solver.jacobian")),
        ("solver.jacobian_calls", c, calls("solver.jacobian")),
        ("solver.apply_step_s", s, total("solver.apply_step")),
        ("solver.apply_step_calls", c, calls("solver.apply_step")),
        ("solver.trial_accept_share", share,
         lambda: _ratio(lm("lm_iterations")(), span("solver.apply_step", "calls"))),
        ("solver.lm_iterations", c, lm("lm_iterations")),
        ("solver.homotopy_legs", c, lm("homotopy_legs")),
        ("solver.repairs", c, lm("repairs")),
        ("solver.s_per_lm_iteration", s,
         lambda: _ratio(span("solver.solve", "total_s"), lm("lm_iterations")())),
        ("sphere.minkowski_dot_calls", c, calls("sphere.minkowski_dot")),
        ("sphere.signed_excess_calls", c, calls("sphere.signed_excess")),
        ("sphere.triple_intersection_empty_s", s, total("sphere.triple_intersection_empty")),
        ("verify.verify_pattern_s", s, total("verify.verify_pattern")),
        ("verify.check_contact_graph_s", s, total("verify.check_contact_graph")),
        ("verify.separation_margin_s", s, total("verify.separation_margin")),
        ("verify.tangency_diagnostics_s", s, total("verify.tangency_diagnostics")),
        ("verify.check_irreducible_s", s, total("verify.check_irreducible")),
        ("verify.check_separating_triples_s", s, total("verify.check_separating_triples")),
        ("verify.check_center_triangulation_s", s,
         total("verify.check_center_triangulation")),
        ("verify.witness_found_share", share,
         lambda: _ratio(counter("verify.witnesses", "verify.check_irreducible"),
                        counter("verify.witness_probes", "verify.check_irreducible"))),
        ("polyhedron.build_polyhedron_s", s, total("polyhedron.build_polyhedron")),
        ("polyhedron.build_polyhedron_self_s", s, self_time("polyhedron.build_polyhedron")),
        ("polyhedron.face_vertex_calls", c, calls("polyhedron.face_vertex")),
        ("polyhedron.face_vertex_s", s, total("polyhedron.face_vertex")),
        ("render.render_svg_s", s, total("render.render_svg")),
        ("jsonio.load_s", s, lambda: module_sum("jsonio", "load_")),
        ("jsonio.dump_s", s, lambda: module_sum("jsonio", "dump_")),
        ("jsonio.bytes_written", "bytes",
         lambda: tracer.counters["jsonio.bytes_written"] / passes),
        ("trace.overhead_share", share, lambda: overhead_share),
    ]
    metrics, absent = {}, []
    for name, unit, value in table:
        try:
            metrics[name] = {"value": float(value()), "unit": unit}
        except Absent:
            absent.append(name)
    return metrics, absent


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def environment(seed: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, AttributeError):
        blas = None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": _git_commit(),
        "seed": seed,
    }


def _git_commit() -> str | None:
    """HEAD of the checkout's git directory, when it has one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _summarize(samples) -> dict:
    ops: dict[str, dict] = {}
    for name, dur, outcome, reason, measured in samples:
        row = ops.setdefault(name, {"times": [], "measured": [],
                                    "outcomes": {}, "reasons": []})
        row["times"].append(dur)
        row["measured"].append(measured)
        row["outcomes"][outcome] = row["outcomes"].get(outcome, 0) + 1
        if reason and reason not in row["reasons"]:
            row["reasons"].append(reason)
    return {name: {"samples": len(r["times"]), "times_s": r["times"],
                   "measured_s": r["measured"],
                   "outcomes": r["outcomes"], "failure_reason": r["reasons"]}
            for name, r in sorted(ops.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("validate", "solve", "certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = _import_package()
    import workloads
    from tracing import Tracer

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        wl = workloads.WORKLOADS[args.workload]()
        probe = speed.SpeedProbe()
        probes = [probe.seconds()]
        builds = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            data = wl.build(args.seed, workdir)
            builds.append(time.perf_counter() - t0)
            probes.append(probe.seconds())
        setup_s = ((import_s + _median(builds))
                   * speed.REFERENCE_S / _median(probes))
        t0 = time.perf_counter()
        wl.gate(data)
        gate_s = time.perf_counter() - t0
        ops = wl.ops(data, workdir)
        rng = random.Random(args.seed)
        # the set-up's objects are the benchmark's, not the program's:
        # keep them out of the collections that run inside the ops
        gc.collect()
        gc.freeze()

        plain = measure(ops, rng, args.seconds, probe)
        runs = [plain]
        trace_ok = True
        detail = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "environment": environment(args.seed),
                  "setup": {"import_s": import_s, "build_s": builds,
                            "gate_s": gate_s, "probe_s": probes},
                  "passes": len(plain["pass_times"]),
                  "op_samples": len(plain["samples"])}
        if args.trace:
            tracer = Tracer(HOOKS, COUNT_ONLY, SKIP)
            tracer.install()
            try:
                traced = measure(ops, rng, args.seconds, probe, tracer)
            finally:
                restored = tracer.remove()
            tracer.counters["jsonio.bytes_written"] = traced["written"]
            runs.append(traced)
            overhead = (_median(traced["pass_times"])
                        / _median(plain["pass_times"]) - 1.0)
            metrics, absent = layer_metrics(
                tracer, len(traced["pass_times"]), overhead)
            consistent = tracer.self_time_consistent()
            trace_ok = restored and consistent
            trace_file = os.path.join(
                OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
            with open(trace_file, "w", encoding="utf-8") as fh:
                json.dump(tracer.dump(), fh)
            detail.update({"traced_passes": len(traced["pass_times"]),
                           "absent_metrics": absent,
                           "names_restored": restored,
                           "self_times_consistent": consistent,
                           "trace_file": os.path.relpath(trace_file, ROOT)})
        else:
            metrics = end_to_end(plain, wl.large_op, setup_s)

        samples = [s for run in runs for s in run["samples"]]
        failed = sum(1 for s in samples if s[2] in ("failed", "wrong", "error"))
        correct = trace_ok and not any(s[2] in ("wrong", "error") for s in samples)
        not_ok = sum(1 for s in plain["samples"] if s[2] != "ok")
        times = [s[1] for s in plain["samples"]]
        detail.update({"fail_share": not_ok / len(plain["samples"]),
                       "op_latency": {"p50_s": _rank(times, 0.5),
                                      "p90_s": _rank(times, 0.9),
                                      "samples": len(times)},
                       "ops": _summarize(plain["samples"])})
        print(json.dumps(detail, sort_keys=True))
        print(json.dumps({"correct": correct, "attempted": len(samples),
                          "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
