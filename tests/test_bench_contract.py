"""The names the benchmark harness in perfbench/ builds and reads.

perfbench/workloads.py builds SolveOptions and SolveReport by keyword
and reads the report's fields; perfbench/inputs.py builds realized
patterns through Configuration, regauge and pattern_angles; the sweep
reads radii_bounds and separation_margin.  The traced run of
perfbench/run.py reads its per-layer metrics off the public functions
it wraps, and leaves out a metric whose function is gone.  A rename or
deletion of any of them breaks the harness, so these tests make it fail
here first.
"""

import importlib.util
import json
import math
import os
import sys

import numpy as np
import pytest

from katsphere import (angles, catalog, complexes, jsonio,  # noqa: F401
                       polyhedron, render, solver, sphere, verify)
from katsphere.angles import AngleAssignment
from katsphere.catalog import octahedron

from conftest import geodesic


def test_options_and_report_build_by_keyword():
    opts = solver.SolveOptions(fallback_gauges=1)
    assert opts.fallback_gauges == 1 and opts.tolerance > 0.0
    rep = solver.SolveReport(converged=True, residual_inf=0.0,
                             iterations=0, targets=(), repairs=0)
    assert (rep.targets, rep.repairs, rep.failure_reason) == ((), 0, None)


def test_realized_pattern_builds_like_the_harness():
    tri, positions = geodesic(1)
    radii = np.empty(tri.n_vertices)
    for v in range(tri.n_vertices):
        dots = positions[list(tri.neighbors[v])] @ positions[v]
        radii[v] = 0.6 * float(np.max(np.arccos(np.clip(dots, -1, 1))))
    cfg = solver.Configuration(tri, positions.copy(), radii, tri.faces[0])
    cfg = solver.regauge(cfg, tri.faces[0])
    theta = AngleAssignment(solver.pattern_angles(cfg))
    assert verify.radii_bounds(tri, cfg).ok
    assert verify.separation_margin(tri, cfg) > 0.0
    rep = solver.SolveReport(converged=True, residual_inf=0.0,
                             iterations=0, targets=(), repairs=0)
    assert jsonio.dump_pattern(cfg, rep, theta)


def test_solve_report_reads_like_the_harness():
    tri = octahedron()
    theta = AngleAssignment.constant(tri, 2.0 * math.pi / 5.0)
    cfg, rep = solver.solve(tri, theta,
                            options=solver.SolveOptions(fallback_gauges=1))
    assert rep.converged and rep.residual_inf < solver.SolveOptions().tolerance
    assert rep.iterations > 0 and len(rep.targets) == 1 and rep.repairs == 0
    assert verify.radii_bounds(tri, cfg).ok
    assert verify.separation_margin(tri, cfg) > 0.0


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _load(name: str):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def harness():
    """perfbench/run.py and perfbench/tracing.py, read from the checkout.

    run.py imports its sibling `speed` and pins the BLAS thread variables
    when it loads; both are undone here, so the test process is left as
    it was."""
    env = {v: os.environ.get(v) for v in BLAS_VARS}
    sys.path.insert(0, PERFBENCH)
    try:
        return _load("run"), _load("tracing")
    finally:
        sys.path.remove(PERFBENCH)
        sys.modules.pop("speed", None)
        for var, value in env.items():
            if value is None:
                os.environ.pop(var, None)
            else:
                os.environ[var] = value


def test_traced_run_finds_every_declared_metric(harness):
    run, tracing = harness
    tracer = tracing.Tracer(run.HOOKS, run.COUNT_ONLY, run.SKIP)
    tracer.install()
    try:
        metrics, absent = run.layer_metrics(tracer, 1, 0.0)
    finally:
        restored = tracer.remove()
    assert restored
    assert absent == []
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = [m["name"] for m in json.load(fh)["per_layer"]]
    assert sorted(metrics) == sorted(declared)
