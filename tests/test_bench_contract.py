"""The names the benchmark harness in perfbench/ builds and reads.

perfbench/workloads.py builds SolveOptions and SolveReport by keyword
and reads the report's fields; perfbench/inputs.py builds realized
patterns through Configuration, regauge and pattern_angles; the sweep
reads radii_bounds and separation_margin.  A rename or deletion of any
of them breaks the harness, so these tests make it fail here first.
"""

import math

import numpy as np

from katsphere import jsonio, solver, verify
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
