"""Tests for the pattern diagnostics.

Frozen expectations:

* octahedron at uniform overlap 2*pi/5: every non-adjacent pair sits at
  inversive distance 1 + OCT_MARGIN with OCT_MARGIN = 2*cos(2*pi/5) =
  0.6180339887498945 (the golden ratio minus one),
* icosahedron contact counts: 30 overlapping edge pairs and
  C(12,2) - 30 = 36 separated non-adjacent pairs,
* symmetric octahedron: all radii equal, so the largest radius ratio
  across an edge is exactly 1.

The vectorized pair checks are compared with slow scalar oracles that
call sphere.inversive_distance once per vertex pair, and the array pass
over the edges behind the witness candidates with the per-edge loop of
Cap objects and circle_intersection_points it replaced, bit for bit.
The irreducibility check, which stops once every vertex has a witness,
is compared with the full scan of every probe against every cap.
"""

import math

import numpy as np
import pytest

from conftest import geodesic, greedy_obtuse
from katsphere.angles import AngleAssignment
from katsphere.catalog import bipyramid, icosahedron, octahedron, stacked_tetrahedra
from katsphere import verify
from katsphere.solver import Configuration, _gate_state, solve
from katsphere.sphere import (
    Cap,
    circle_intersection_points,
    circle_intersections,
    fibonacci_sphere,
    inversive_distance,
    point_in_cap,
    sph_dist,
)
from katsphere.verify import (
    TANGENCY_EPS,
    IrreducibilityReport,
    _facing_midpoint,
    check_center_triangulation,
    check_contact_graph,
    check_irreducible,
    check_separating_triples,
    radii_bounds,
    ring_ratios,
    separation_margin,
    tangency_diagnostics,
    triple_intersection_empty,
    verify_pattern,
)

OCT_ANGLE = 2.0 * math.pi / 5.0
OCT_MARGIN = 0.6180339887498945
OCT_SYMMETRIC_RHO = 1.0634400235777521
OCT_GAUGED_RHO = 0.452278


def symmetric_octahedron_configuration(tri) -> Configuration:
    axes = {}
    for u in range(6):
        for v in range(u + 1, 6):
            if v not in tri.adjacent[u]:
                axes.setdefault(len(axes), (u, v))
    centers = np.zeros((6, 3))
    for k, (u, v) in axes.items():
        centers[u, k] = 1.0
        centers[v, k] = -1.0
    radii = np.full(6, OCT_SYMMETRIC_RHO)
    return Configuration(tri, centers, radii, tri.faces[0])


def hemisphere_octahedron_configuration(tri) -> Configuration:
    """All six caps are hemispheres: antipodal pairs exactly tangent."""
    sym = symmetric_octahedron_configuration(tri)
    return sym.with_data(sym.centers.copy(), np.full(6, math.pi / 2))


def engulfing_octahedron_configuration(tri) -> Configuration:
    """Cap 0 grown until it swallows its four neighbours."""
    cfg = symmetric_octahedron_configuration(tri)
    radii = cfg.radii.copy()
    radii[0] = 3.0
    return cfg.with_data(cfg.centers, radii)


def containment_octahedron_configuration(tri) -> Configuration:
    """The cap antipodal to vertex 0 dragged next to vertex 0 and shrunk:
    the non-adjacent pair (0, 1) becomes nested."""
    cfg = symmetric_octahedron_configuration(tri)
    centers = cfg.centers.copy()
    radii = cfg.radii.copy()
    centers[1] = np.array([math.cos(0.1), math.sin(0.1), 0.0])
    radii[0], radii[1] = 1.0, 0.2
    return cfg.with_data(centers, radii)


def overlap_octahedron_configuration(tri) -> Configuration:
    """The cap antipodal to vertex 0 moved to distance 2 from it: the
    non-adjacent pair (0, 1) crosses without nesting."""
    cfg = symmetric_octahedron_configuration(tri)
    centers = cfg.centers.copy()
    centers[1] = np.array([math.cos(2.0), math.sin(2.0), 0.0])
    return cfg.with_data(centers, cfg.radii.copy())


def lost_overlap_octahedron_configuration(cfg) -> Configuration:
    """Caps 1 and 3 of a solved octahedron shrunk until they part."""
    radii = cfg.radii.copy()
    radii[1] = radii[3] = 0.05
    return cfg.with_data(cfg.centers, radii)


@pytest.fixture(scope="module")
def near_tangent_oct(oct_tri):
    # close to the degenerate uniform pi/2 family: separation margin
    # 2*cos(0.4999*pi) ~ 6.3e-4
    theta = AngleAssignment.constant(oct_tri, 0.4999 * math.pi)
    cfg, rep = solve(oct_tri, theta)
    assert rep.converged
    return cfg, theta


class TestContactGraph:
    def test_solved_octahedron_clean(self, oct_tri, solved_oct):
        rep = check_contact_graph(oct_tri, solved_oct[0])
        assert rep.ok
        assert rep.violations == ()
        assert rep.overlapping_edges == 12
        assert rep.separated_pairs == 3

    def test_icosahedron_counts(self, ico_tri, solved_ico):
        rep = check_contact_graph(ico_tri, solved_ico[0])
        assert rep.ok
        assert rep.overlapping_edges == 30
        assert rep.separated_pairs == 36

    def test_tangency_kind(self, oct_tri):
        cfg = hemisphere_octahedron_configuration(oct_tri)
        rep = check_contact_graph(oct_tri, cfg)
        assert not rep.ok
        assert {v.kind for v in rep.violations} == {"tangency"}
        assert {v.pair for v in rep.violations} == {(0, 1), (2, 3), (4, 5)}
        for v in rep.violations:
            assert v.inversive == pytest.approx(1.0, abs=1e-12)

    def test_lost_overlap_kind(self, oct_tri, solved_oct):
        cfg = lost_overlap_octahedron_configuration(solved_oct[0])
        rep = check_contact_graph(oct_tri, cfg)
        assert not rep.ok
        assert ("lost_overlap", (1, 3)) in {(v.kind, v.pair)
                                            for v in rep.violations}

    def test_engulfing_kind(self, oct_tri):
        cfg = engulfing_octahedron_configuration(oct_tri)
        rep = check_contact_graph(oct_tri, cfg)
        assert not rep.ok
        engulfed = {v.pair for v in rep.violations if v.kind == "engulfing"}
        assert engulfed == {(0, u) for u in oct_tri.adjacent[0]}

    def test_containment_kind(self, oct_tri):
        cfg = containment_octahedron_configuration(oct_tri)
        rep = check_contact_graph(oct_tri, cfg)
        kinds = {(v.kind, v.pair) for v in rep.violations}
        assert ("containment", (0, 1)) in kinds

    def test_overlap_kind(self, oct_tri):
        cfg = overlap_octahedron_configuration(oct_tri)
        rep = check_contact_graph(oct_tri, cfg)
        assert not rep.ok
        (hit,) = [v for v in rep.violations if v.pair == (0, 1)]
        assert hit.kind == "overlap"
        assert -1.0 < hit.inversive < 1.0 - TANGENCY_EPS
        assert hit.inversive == pytest.approx(
            inversive_distance(cfg.cap(0), cfg.cap(1)), abs=1e-12)
        assert rep.separated_pairs == 2


class TestSeparationMargin:
    def test_octahedron_margin_is_golden(self, oct_tri, solved_oct):
        m = separation_margin(oct_tri, solved_oct[0])
        assert m == pytest.approx(OCT_MARGIN, abs=1e-9)

    def test_symmetric_configuration_same_margin(self, oct_tri):
        cfg = symmetric_octahedron_configuration(oct_tri)
        assert separation_margin(oct_tri, cfg) == pytest.approx(
            OCT_MARGIN, abs=1e-12)

    def test_near_degenerate_margin(self, oct_tri, near_tangent_oct):
        m = separation_margin(oct_tri, near_tangent_oct[0])
        assert m == pytest.approx(2.0 * math.cos(0.4999 * math.pi), abs=1e-6)


class TestIrreducibility:
    def test_symmetric_octahedron_center_witnesses(self, oct_tri):
        cfg = symmetric_octahedron_configuration(oct_tri)
        rep = check_irreducible(oct_tri, cfg)
        assert rep.ok
        assert rep.inconclusive == ()
        # the cap centers themselves are the first probes, and each one
        # is covered by its own cap alone
        for v in range(6):
            assert np.allclose(rep.witnesses[v], cfg.centers[v])

    def test_icosahedron_all_witnesses(self, ico_tri, solved_ico):
        cfg = solved_ico[0]
        rep = check_irreducible(ico_tri, cfg, samples=20000)
        assert rep.ok
        assert len(rep.witnesses) == 12
        for v, w in rep.witnesses.items():
            assert sph_dist(w, cfg.centers[v]) < cfg.radii[v]
            for u in range(12):
                if u != v:
                    assert sph_dist(w, cfg.centers[u]) > cfg.radii[u]

    def test_covering_cap_is_reducible(self, oct_tri):
        cfg = symmetric_octahedron_configuration(oct_tri)
        radii = cfg.radii.copy()
        radii[0] = 3.2
        rep = check_irreducible(oct_tri, cfg.with_data(cfg.centers, radii))
        assert not rep.ok
        assert rep.covering_caps == (0,)

    def test_heavily_overlapping_is_inconclusive(self, oct_tri):
        # radius 2 caps at the coordinate poles: any five of them cover
        # the sphere, so no vertex admits a witness
        cfg = symmetric_octahedron_configuration(oct_tri)
        rep = check_irreducible(
            oct_tri, cfg.with_data(cfg.centers, np.full(6, 2.0)))
        assert not rep.ok
        assert rep.witnesses == {}
        assert rep.inconclusive == tuple(range(6))


    @pytest.mark.parametrize("block_rows", [1, 5])
    def test_probe_blocks_do_not_change_the_report(self, realized_geodesic42,
                                                   monkeypatch, block_rows):
        tri, cfg, _ = realized_geodesic42
        want = check_irreducible(tri, cfg)
        monkeypatch.setattr(verify, "PROBE_BLOCK_FLOATS",
                            block_rows * tri.n_vertices)
        got = check_irreducible(tri, cfg)
        assert want.ok and got.ok
        assert (got.inconclusive, got.covering_caps) == (
            want.inconclusive, want.covering_caps)
        assert list(got.witnesses) == list(want.witnesses)
        for v, w in want.witnesses.items():
            assert np.array_equal(got.witnesses[v], w)


@pytest.fixture(scope="module")
def solved_obtuse():
    """(name, tri, cfg) for obtuse bipyramids and obtuse geodesic-42:
    some of their centers lie in two caps, so the search reaches the
    corner probes."""
    out = []
    for name, tri in (("bipyramid4", bipyramid(4)),
                      ("bipyramid8", bipyramid(8)),
                      ("geodesic42", geodesic(1)[0])):
        cfg, rep = solve(tri, greedy_obtuse(tri, 0))
        assert rep.converged, name
        out.append((f"obtuse-{name}", tri, cfg))
    return out


def assert_same_irreducibility(got, want, name):
    assert (got.ok, got.inconclusive, got.covering_caps) == (
        want.ok, want.inconclusive, want.covering_caps), name
    assert list(got.witnesses) == list(want.witnesses), name
    for v, w in want.witnesses.items():
        assert np.array_equal(got.witnesses[v], w), (name, v)


class TestIrreducibilityOracle:
    def test_matches_the_full_scan(self, oct_tri, solved_oct, bp3,
                                   solved_bp3, ico_tri, solved_ico,
                                   realized_geodesic42, solved_obtuse):
        sym = symmetric_octahedron_configuration(oct_tri)
        cases = [("oct", oct_tri, solved_oct[0]),
                 ("bp3", bp3, solved_bp3[0]),
                 ("ico", ico_tri, solved_ico[0]),
                 ("geodesic42", *realized_geodesic42[:2]),
                 *solved_obtuse,
                 ("radius2", oct_tri, sym.with_data(sym.centers,
                                                    np.full(6, 2.0))),
                 ("covering", oct_tri, _edited(sym, r0=3.2))]
        for name, tri, cfg in cases:
            assert_same_irreducibility(check_irreducible(tri, cfg),
                                       oracle_check_irreducible(tri, cfg),
                                       name)

    def test_obtuse_witnesses_come_after_the_centers(self, solved_obtuse):
        for name, tri, cfg in solved_obtuse:
            rep = check_irreducible(tri, cfg)
            assert rep.ok, name
            assert any(not np.array_equal(w, cfg.centers[v])
                       for v, w in rep.witnesses.items()), name

    def test_lattice_is_built_only_when_needed(self, oct_tri, solved_oct,
                                               monkeypatch):
        def unreachable(samples):
            raise AssertionError("the lattice was built")

        monkeypatch.setattr(verify, "fibonacci_sphere", unreachable)
        assert check_irreducible(oct_tri, solved_oct[0]).ok
        # no vertex has a witness, so the scan runs through every group
        sym = symmetric_octahedron_configuration(oct_tri)
        with pytest.raises(AssertionError, match="the lattice was built"):
            check_irreducible(oct_tri, sym.with_data(sym.centers,
                                                     np.full(6, 2.0)))

    def test_witnesses_own_their_data(self, oct_tri, solved_oct):
        cfg = solved_oct[0]
        cfg = cfg.with_data(cfg.centers.copy(), cfg.radii.copy())
        rep = check_irreducible(oct_tri, cfg)
        kept = {v: w.copy() for v, w in rep.witnesses.items()}
        assert all(w.base is None for w in rep.witnesses.values())
        cfg.centers[:] = -cfg.centers
        assert_same_irreducibility(
            rep, IrreducibilityReport(True, kept, (), ()), "octahedron")

    def test_negative_samples_raise(self, oct_tri, solved_oct):
        cfg, theta = solved_oct
        with pytest.raises(ValueError, match="non-negative"):
            check_irreducible(oct_tri, cfg, samples=-1)
        with pytest.raises(ValueError, match="non-negative"):
            verify_pattern(oct_tri, cfg, theta, samples=-5)
        # zero samples means no lattice: the centers are witnesses
        assert verify_pattern(oct_tri, cfg, theta, samples=0).ok


class TestSeparatingTriples:
    def test_octahedron_vacuous(self, oct_tri, solved_oct):
        rep = check_separating_triples(oct_tri, solved_oct[0])
        assert rep.ok
        assert rep.results == ()

    def test_bipyramid_equator_passes(self, bp3, solved_bp3):
        rep = check_separating_triples(bp3, solved_bp3[0])
        assert rep.ok
        assert len(rep.results) == 1
        assert rep.results[0].cycle == (0, 1, 2)
        assert rep.results[0].empty
        assert rep.results[0].witness is None

    def test_three_hemispheres_fail_with_witness(self, bp3):
        # equator caps through a common point: the separating triple's
        # intersection is nonempty and a witness is produced
        centers = np.array([
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
            [1.0, 1.0, 1.0],
            [-1.0, -1.0, -1.0],
        ])
        centers[3] /= np.linalg.norm(centers[3])
        centers[4] /= np.linalg.norm(centers[4])
        radii = np.array([math.pi / 2, math.pi / 2, math.pi / 2, 0.2, 0.2])
        cfg = Configuration(bp3, centers, radii, bp3.faces[0])
        rep = check_separating_triples(bp3, cfg)
        assert not rep.ok
        bad = rep.results[0]
        assert not bad.empty
        for v in bad.cycle:
            assert point_in_cap(bad.witness, cfg.cap(v), tol=1e-9)


class TestTangencyDiagnostics:
    def test_well_separated_pattern_is_silent(self, oct_tri, solved_oct):
        assert tangency_diagnostics(oct_tri, solved_oct[0]) == ()

    def test_near_degenerate_pairs_consistent(self, oct_tri,
                                              near_tangent_oct):
        cfg = near_tangent_oct[0]
        diags = tangency_diagnostics(oct_tri, cfg, tangency_eps=1e-2,
                                     angle_eps=1e-2)
        assert {d.pair for d in diags} == {(0, 1), (2, 3), (4, 5)}
        for d in diags:
            assert d.consistent
            assert d.angle_sum >= math.pi - 1e-2

    def test_crafted_tangency_located(self, bp3):
        # apex caps tangent at a point on the arc between their centers;
        # equator cap 0 is centered on that contact point
        d, r3, r4 = 2.0, 1.2, 0.8
        contact = np.array([math.sin(r3), 0.0, math.cos(r3)])
        centers = np.array([
            contact,
            [0.0, 0.6, -0.8],
            [0.0, -0.6, -0.8],
            [0.0, 0.0, 1.0],
            [math.sin(d), 0.0, math.cos(d)],
        ])
        radii = np.array([0.3, 0.2, 0.2, r3, r4])
        cfg = Configuration(bp3, centers, radii, bp3.faces[0])
        diags = tangency_diagnostics(bp3, cfg, tangency_eps=1e-9)
        assert len(diags) == 1
        diag = diags[0]
        assert diag.pair == (3, 4)
        assert diag.third == 0
        assert np.allclose(diag.point, contact, atol=1e-9)
        assert diag.inversive == pytest.approx(1.0, abs=1e-12)
        assert diag.angle_sum > math.pi
        assert diag.consistent


class TestLayout:
    def test_solved_patterns_cover_sphere(self, oct_tri, solved_oct,
                                          bp3, solved_bp3,
                                          ico_tri, solved_ico):
        for tri, (cfg, _) in ((oct_tri, solved_oct), (bp3, solved_bp3),
                              (ico_tri, solved_ico)):
            rep = check_center_triangulation(tri, cfg)
            assert rep.ok
            assert rep.total_excess == pytest.approx(4 * math.pi, abs=1e-6)

    def test_mirrored_centers_flip_all_faces(self, oct_tri, solved_oct):
        cfg = solved_oct[0]
        mirrored = cfg.with_data(cfg.centers * np.array([1.0, -1.0, 1.0]),
                                 cfg.radii.copy())
        rep = check_center_triangulation(oct_tri, mirrored)
        assert not rep.ok
        assert len(rep.flipped_faces) == oct_tri.n_faces
        assert rep.total_excess == pytest.approx(-4 * math.pi, abs=1e-6)

    def test_coincident_centers_are_degenerate(self, oct_tri):
        # vertices 0 and 2 are adjacent, so the two faces on edge (0, 2)
        # collapse when their centers coincide
        cfg = symmetric_octahedron_configuration(oct_tri)
        centers = cfg.centers.copy()
        centers[2] = centers[0]
        rep = check_center_triangulation(
            oct_tri, cfg.with_data(centers, cfg.radii.copy()))
        assert not rep.ok
        assert rep.degenerate_faces


class TestRadiiAndRings:
    def test_solved_octahedron_radii(self, oct_tri, solved_oct):
        stats = radii_bounds(oct_tri, solved_oct[0])
        assert stats.ok
        assert stats.min_radius == pytest.approx(OCT_GAUGED_RHO, abs=5e-7)
        assert stats.max_nongauge_radius == pytest.approx(OCT_GAUGED_RHO,
                                                          abs=5e-7)

    def test_large_nongauge_radius_flagged(self, oct_tri, solved_oct):
        cfg = solved_oct[0]
        free = [v for v in range(6) if v not in cfg.gauge_face]
        radii = cfg.radii.copy()
        radii[free[0]] = 1.6
        assert not radii_bounds(oct_tri,
                                cfg.with_data(cfg.centers, radii)).ok

    def test_symmetric_ring_ratio_is_one(self, oct_tri):
        cfg = symmetric_octahedron_configuration(oct_tri)
        rep = ring_ratios(oct_tri, cfg)
        assert rep.max_ratio == pytest.approx(1.0, abs=1e-12)
        assert len(rep.table) == 12

    def test_gauged_ring_ratio(self, oct_tri, solved_oct):
        cfg = solved_oct[0]
        rep = ring_ratios(oct_tri, cfg)
        expected = (math.pi / 2) / float(np.min(cfg.radii))
        assert rep.max_ratio == pytest.approx(expected, rel=1e-12)


class TestVerifyPattern:
    def test_solved_octahedron_full_chain(self, oct_tri, solved_oct):
        cfg, theta = solved_oct
        rep = verify_pattern(oct_tri, cfg, theta)
        assert rep.in_contact and rep.in_target
        assert rep.in_gauge and rep.in_irreducible
        assert rep.ok
        assert rep.angle_error_inf <= 1e-8
        assert rep.separation_margin == pytest.approx(OCT_MARGIN, abs=1e-9)

    def test_bipyramid_full_chain(self, bp3, solved_bp3):
        cfg, theta = solved_bp3
        rep = verify_pattern(bp3, cfg, theta)
        assert rep.in_irreducible
        assert rep.triples.ok and len(rep.triples.results) == 1
        assert rep.ok

    def test_ungauged_configuration_stops_at_gauge(self, oct_tri):
        cfg = symmetric_octahedron_configuration(oct_tri)
        theta = AngleAssignment.constant(oct_tri, OCT_ANGLE)
        rep = verify_pattern(oct_tri, cfg, theta)
        assert rep.in_contact and rep.in_target
        assert not rep.in_gauge and not rep.in_irreducible
        assert rep.irreducibility.ok     # component check still passes

    def test_wrong_target_stops_at_angles(self, oct_tri, solved_oct):
        cfg, _ = solved_oct
        wrong = AngleAssignment.constant(oct_tri, 0.39 * math.pi)
        rep = verify_pattern(oct_tri, cfg, wrong)
        assert rep.in_contact
        assert not rep.in_target and not rep.in_gauge
        assert not rep.in_irreducible

    def test_broken_contact_stops_everything(self, oct_tri):
        cfg = hemisphere_octahedron_configuration(oct_tri)
        theta = AngleAssignment.constant(oct_tri, math.pi / 2)
        rep = verify_pattern(oct_tri, cfg, theta)
        assert not rep.in_contact and not rep.in_irreducible

    def test_flags_are_monotone(self, oct_tri, solved_oct, bp3, solved_bp3,
                                ico_tri, solved_ico):
        cases = [
            (oct_tri, *solved_oct),
            (bp3, *solved_bp3),
            (ico_tri, *solved_ico),
            (oct_tri, symmetric_octahedron_configuration(oct_tri),
             AngleAssignment.constant(oct_tri, OCT_ANGLE)),
            (oct_tri, hemisphere_octahedron_configuration(oct_tri),
             AngleAssignment.constant(oct_tri, math.pi / 2)),
        ]
        for tri, cfg, theta in cases:
            rep = verify_pattern(tri, cfg, theta)
            assert rep.in_target <= rep.in_contact
            assert rep.in_gauge <= rep.in_target
            assert rep.in_irreducible <= rep.in_gauge


class TestCapIntersectionStructure:
    """Exhaustive structure of triple and quadruple cap intersections.

    For an irreducible pattern every triple of caps with a common point
    spans a face, and no four caps share a point; the second statement
    follows from the first because no four vertices of a simple sphere
    triangulation with more than four vertices span four faces.
    """

    @pytest.mark.parametrize("name", ["oct", "bp3", "ico"])
    def test_triples_span_faces(self, name, request):
        tri_name = {"oct": "oct_tri", "bp3": "bp3", "ico": "ico_tri"}[name]
        tri = request.getfixturevalue(tri_name)
        cfg = request.getfixturevalue(f"solved_{name}")[0]
        n = tri.n_vertices
        empty = {}
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    is_empty, _ = triple_intersection_empty(
                        cfg.cap(i), cfg.cap(j), cfg.cap(k))
                    empty[(i, j, k)] = is_empty
                    if not is_empty:
                        assert tri.is_face(i, j, k)
        # every 4-subset contains an empty sub-triple, hence no point
        # lies in four caps at once
        import itertools
        for quad in itertools.combinations(range(n), 4):
            assert any(empty[t] for t in itertools.combinations(quad, 3))

    def test_random_subsets_never_cover(self, ico_tri, solved_ico, rng):
        # cross-check of the single-vertex reduction: for a random
        # proper subset, the witness of any omitted vertex is uncovered
        cfg = solved_ico[0]
        rep = check_irreducible(ico_tri, cfg)
        assert rep.ok
        for _ in range(50):
            size = int(rng.integers(1, 12))
            subset = rng.choice(12, size=size, replace=False)
            outside = [v for v in range(12) if v not in subset]
            w = rep.witnesses[outside[0]]
            for u in subset:
                assert sph_dist(w, cfg.centers[u]) > cfg.radii[u]


# ---------------------------------------------------------------------------
# slow oracles for the vectorized pair checks
# ---------------------------------------------------------------------------

def oracle_nonadjacent_inversive(tri, cfg) -> dict[tuple[int, int], float]:
    """Inversive distance of every non-adjacent pair u < v, in
    lexicographic order, one scalar call per pair."""
    return {(u, v): inversive_distance(cfg.cap(u), cfg.cap(v))
            for u in range(tri.n_vertices)
            for v in range(u + 1, tri.n_vertices)
            if v not in tri.adjacent[u]}


def oracle_contact_graph(tri, cfg, tangency_eps=TANGENCY_EPS):
    """(violations as (kind, pair, inversive), overlapping edges,
    separated pairs), classified pair by pair."""
    bad = []
    n_edges = 0
    for (u, v) in tri.edges:
        inv = inversive_distance(cfg.cap(u), cfg.cap(v))
        if inv >= 1.0:
            bad.append(("lost_overlap", (u, v), inv))
        elif inv <= -1.0:
            bad.append(("engulfing", (u, v), inv))
        else:
            n_edges += 1
    n_apart = 0
    for pair, inv in oracle_nonadjacent_inversive(tri, cfg).items():
        if abs(inv - 1.0) <= tangency_eps:
            bad.append(("tangency", pair, inv))
        elif inv <= -1.0:
            bad.append(("containment", pair, inv))
        elif inv < 1.0:
            bad.append(("overlap", pair, inv))
        else:
            n_apart += 1
    return bad, n_edges, n_apart


def oracle_tangency_diagnostics(tri, cfg, tangency_eps, angle_eps):
    """(pair, third cap, angle sum, consistent) for every cap that holds
    the contact point of a near-tangent non-adjacent pair."""
    out = []
    for (u, v), inv in oracle_nonadjacent_inversive(tri, cfg).items():
        if abs(inv - 1.0) > tangency_eps:
            continue
        point = _facing_midpoint(cfg, u, v)
        for w in range(tri.n_vertices):
            if w in (u, v):
                continue
            if float(point @ cfg.centers[w]) - math.cos(cfg.radii[w]) < -1e-9:
                continue
            total = sum(
                math.acos(min(1.0, max(-1.0, inversive_distance(
                    cfg.cap(w), cfg.cap(x))))) for x in (u, v))
            out.append(((u, v), w, total, total >= math.pi - angle_eps))
    return out


def random_configuration(tri, rng) -> Configuration:
    centers = rng.normal(size=(tri.n_vertices, 3))
    centers /= np.linalg.norm(centers, axis=1)[:, None]
    radii = rng.uniform(0.05, 2.5, size=tri.n_vertices)
    return Configuration(tri, centers, radii, tri.faces[0])


ORACLE_COMPLEXES = [
    octahedron(), icosahedron(), bipyramid(3), bipyramid(6),
    stacked_tetrahedra(1), stacked_tetrahedra(3),
]


class TestPairKernelOracles:
    @pytest.fixture(scope="class")
    def cases(self, oct_tri, solved_oct, bp3, solved_bp3, ico_tri,
              solved_ico, realized_geodesic42, near_tangent_oct):
        """(name, triangulation, configuration, tangency_eps) per case."""
        out = [
            ("solved_oct", oct_tri, solved_oct[0], TANGENCY_EPS),
            ("solved_bp3", bp3, solved_bp3[0], TANGENCY_EPS),
            ("solved_ico", ico_tri, solved_ico[0], TANGENCY_EPS),
            ("geodesic42", realized_geodesic42[0], realized_geodesic42[1],
             TANGENCY_EPS),
            ("near_tangent_oct", oct_tri, near_tangent_oct[0], 1e-2),
        ]
        for build in (symmetric_octahedron_configuration,
                      hemisphere_octahedron_configuration,
                      engulfing_octahedron_configuration,
                      containment_octahedron_configuration,
                      overlap_octahedron_configuration):
            out.append((build.__name__, oct_tri, build(oct_tri),
                        TANGENCY_EPS))
        out.append(("lost_overlap", oct_tri,
                    lost_overlap_octahedron_configuration(solved_oct[0]),
                    TANGENCY_EPS))
        rng = np.random.default_rng(20261018)
        for i, tri in enumerate(ORACLE_COMPLEXES):
            for k in range(3):
                out.append((f"random-{i}-{k}", tri,
                            random_configuration(tri, rng), 0.1))
        return out

    def test_contact_graph_matches_oracle(self, cases):
        kinds = set()
        for name, tri, cfg, eps in cases:
            rep = check_contact_graph(tri, cfg, tangency_eps=eps)
            want, n_edges, n_apart = oracle_contact_graph(tri, cfg, eps)
            assert [(v.kind, v.pair) for v in rep.violations] == \
                [(kind, pair) for kind, pair, _ in want], name
            assert [v.inversive for v in rep.violations] == pytest.approx(
                [inv for _, _, inv in want], rel=1e-12, abs=1e-12), name
            assert (rep.overlapping_edges, rep.separated_pairs) == \
                (n_edges, n_apart), name
            assert rep.ok == (not want), name
            kinds |= {kind for kind, _, _ in want}
        # the cases reach every kind the classifier knows
        assert kinds == {"lost_overlap", "engulfing", "tangency",
                         "containment", "overlap"}

    def test_separation_margin_matches_oracle(self, cases):
        for name, tri, cfg, _ in cases:
            want = min(oracle_nonadjacent_inversive(tri, cfg).values()) - 1.0
            assert separation_margin(tri, cfg) == pytest.approx(
                want, rel=1e-12, abs=1e-12), name

    def test_tangency_diagnostics_match_oracle(self, cases):
        found = 0
        for name, tri, cfg, eps in cases:
            eps = max(eps, 1e-6)
            got = tangency_diagnostics(tri, cfg, tangency_eps=eps,
                                       angle_eps=1e-2)
            want = oracle_tangency_diagnostics(tri, cfg, eps, 1e-2)
            assert [(d.pair, d.third, d.consistent) for d in got] == \
                [(pair, w, ok) for pair, w, _, ok in want], name
            assert [d.angle_sum for d in got] == pytest.approx(
                [total for _, _, total, _ in want], abs=1e-12), name
            found += len(got)
        assert found > 0

    def test_gate_bad_pairs_match_oracle(self, cases):
        for name, tri, cfg, _ in cases:
            want = [inv <= 1.0 for inv in
                    oracle_nonadjacent_inversive(tri, cfg).values()]
            assert _gate_state(cfg)[tri.n_faces:].tolist() == want, name


# ---------------------------------------------------------------------------
# slow oracles for the array passes over edges
# ---------------------------------------------------------------------------

def oracle_witness_candidates(tri, cfg, samples):
    """The per-edge Cap loop that verify._witness_candidates replaced."""
    pts = [cfg.centers]
    for (u, v) in tri.edges:
        try:
            corners = circle_intersection_points(cfg.cap(u), cfg.cap(v))
        except Exception:
            continue
        for x in corners:
            away = 2.0 * x - cfg.centers[u] - cfg.centers[v]
            away = away - float(away @ x) * x
            n = float(np.linalg.norm(away))
            if n < 1e-12:
                continue
            away /= n
            for eps in (1e-7, 1e-4, 3e-2):
                y = x + eps * away
                pts.append((y / np.linalg.norm(y))[None, :])
    for (i, j, k) in tri.faces:
        n = np.cross(cfg.centers[j] - cfg.centers[i],
                     cfg.centers[k] - cfg.centers[i])
        norm = float(np.linalg.norm(n))
        if norm > 1e-12:
            pts.append((n / norm)[None, :])
            pts.append((-n / norm)[None, :])
    pts.append(fibonacci_sphere(samples))
    return np.vstack(pts)


def oracle_check_irreducible(tri, cfg, samples=20000):
    """The full scan that check_irreducible replaced: every probe against
    every cap, then per vertex the first probe its cap alone covers."""
    radii = np.asarray(cfg.radii, dtype=float)
    covering = tuple(int(v) for v in np.nonzero(radii >= math.pi)[0])
    if covering:
        return IrreducibilityReport(False, {}, tuple(range(tri.n_vertices)),
                                    covering)
    probes = oracle_witness_candidates(tri, cfg, samples)
    cover = probes @ cfg.centers.T > np.cos(radii)
    sole = np.where(cover.sum(axis=1) == 1, cover.argmax(axis=1), -1)
    witnesses = {}
    for i, v in enumerate(sole.tolist()):
        if v >= 0 and v not in witnesses:
            witnesses[v] = probes[i]
    missing = tuple(v for v in range(tri.n_vertices) if v not in witnesses)
    return IrreducibilityReport(not missing, dict(sorted(witnesses.items())),
                                missing, ())


def oracle_crossings(ca, ra, cb, rb, tangent_eps):
    """circle_intersection_points on two Caps, () where either raises."""
    try:
        return circle_intersection_points(Cap(ca, ra), Cap(cb, rb),
                                          tangent_eps)
    except Exception:
        return ()


def _on_equator(angle):
    return np.array([math.cos(angle), math.sin(angle), 0.0])


def _edited(cfg, **rows):
    """cfg with center rows `c<v>=...` and radii `r<v>=...` replaced."""
    centers, radii = cfg.centers.copy(), cfg.radii.copy()
    for key, value in rows.items():
        (centers if key[0] == "c" else radii)[int(key[1:])] = value
    return cfg.with_data(centers, radii)


def skip_branch_configurations(oct_tri):
    """(name, configuration) per way an octahedron edge or face can lose
    its probes; vertex 0 sits at +x, 2 at +y and 4 at +z, and (0, 2),
    (0, 4), (2, 4) are edges of face (0, 2, 4)."""
    sym = symmetric_octahedron_configuration(oct_tri)
    rho = OCT_SYMMETRIC_RHO
    a = 0.5
    return [
        ("long_center", _edited(sym, c4=[0.0, 0.0, 1.5])),
        ("zero_center", _edited(sym, c4=[0.0, 0.0, 0.0])),
        ("zero_radius", _edited(sym, r2=0.0)),
        ("negative_radius", _edited(sym, r2=-0.5)),
        ("radius_pi", _edited(sym, r5=math.pi)),
        ("radius_above_pi", _edited(sym, r5=4.0)),
        # the same circle twice: also a face with two equal centers
        ("coincident", _edited(sym, c2=sym.centers[0])),
        ("coincident_antipodal", _edited(sym, c2=-sym.centers[0],
                                         r2=math.pi - rho)),
        # centers 1e-7 apart: the same circle within the scalar test's
        # tolerance, with cross products and den away from zero
        ("near_coincident", _edited(sym, c2=_on_equator(1e-7))),
        ("near_coincident_antipodal", _edited(
            sym, c2=-_on_equator(1e-7), r2=math.pi - rho)),
        ("antipodal_centers", _edited(sym, c2=-sym.centers[0])),
        # centers 1e-9 apart: the rounded center dot product is 1
        ("concentric", _edited(sym, c2=_on_equator(1e-9), r2=0.7)),
        ("tangent", _edited(sym, c2=_on_equator(1.2), r0=0.5, r2=0.7)),
        # boundaries touching where the two caps together cover the sphere
        ("tangent_covering", _edited(sym, c2=_on_equator(2.0 * math.pi - 4.0),
                                     r0=2.0, r2=2.0)),
        # two equal caps touching at the north pole, where the corner's
        # outward direction vanishes
        ("tangent_zero_away", _edited(
            sym, c0=[math.sin(a), 0.0, math.cos(a)],
            c2=[-math.sin(a), 0.0, math.cos(a)], r0=a, r2=a)),
        ("disjoint", _edited(sym, r0=0.3, r2=0.3)),
    ]


def stacked_candidates(tri, cfg, samples):
    """The groups of verify._witness_candidates as one array, in order."""
    return np.vstack(list(verify._witness_candidates(tri, cfg, samples)))


class TestArrayPassOracles:
    SAMPLES = 64

    def assert_candidates_match(self, tri, cfg, name):
        got = stacked_candidates(tri, cfg, self.SAMPLES)
        want = oracle_witness_candidates(tri, cfg, self.SAMPLES)
        assert got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name

    def test_witness_candidates_on_patterns(self, oct_tri, solved_oct, bp3,
                                            solved_bp3, ico_tri, solved_ico,
                                            realized_geodesic42):
        for name, tri, cfg in (
                ("oct", oct_tri, solved_oct[0]), ("bp3", bp3, solved_bp3[0]),
                ("ico", ico_tri, solved_ico[0]),
                ("geodesic42", realized_geodesic42[0],
                 realized_geodesic42[1]),
                ("symmetric_oct", oct_tri,
                 symmetric_octahedron_configuration(oct_tri))):
            self.assert_candidates_match(tri, cfg, name)

    def test_witness_candidates_on_perturbations(self, realized_geodesic42):
        rng = np.random.default_rng(20261018)
        for i, tri in enumerate(ORACLE_COMPLEXES):
            for k in range(3):
                self.assert_candidates_match(
                    tri, random_configuration(tri, rng), f"random-{i}-{k}")
        tri, cfg, _ = realized_geodesic42
        for k in range(3):
            centers = cfg.centers + 0.05 * rng.normal(size=cfg.centers.shape)
            centers /= np.linalg.norm(centers, axis=1)[:, None]
            radii = cfg.radii * rng.uniform(0.7, 1.4, size=cfg.radii.shape)
            self.assert_candidates_match(
                tri, cfg.with_data(centers, radii), f"geodesic42-{k}")

    def test_witness_candidates_skip_branches(self, oct_tri):
        full = len(stacked_candidates(
            oct_tri, symmetric_octahedron_configuration(oct_tri),
            self.SAMPLES))
        for name, cfg in skip_branch_configurations(oct_tri):
            self.assert_candidates_match(oct_tri, cfg, name)
            # every case drops probes the symmetric pattern has
            got = stacked_candidates(oct_tri, cfg, self.SAMPLES)
            assert len(got) < full, name

    def test_circle_intersections_match_scalar(self):
        north = np.array([0.0, 0.0, 1.0])

        def tilt(angle):
            return np.array([math.sin(angle), 0.0, math.cos(angle)])

        # a unit center whose rounded squared norm is below 1: two caps
        # on it pass the den test with a zero cross product, and the
        # scalar function divides by zero
        tilted = np.array([0.9698243673082586, -0.03271874667890908,
                           -0.24159921396994988])
        unit = Cap(tilted, 1.2).center
        assert float(unit @ unit) < 1.0
        with pytest.raises(ZeroDivisionError):
            circle_intersection_points(Cap(tilted, 1.2),
                                       Cap(tilted, 1.2 + 1e-11))
        # (name, center u, radius u, center v, radius v, tangent_eps,
        # points the scalar function finds)
        pairs = [
            ("crossing", north, 1.0, _on_equator(0.3), 1.2, TANGENCY_EPS, 2),
            ("tangent", north, 0.5, _on_equator(0.0), math.pi / 2 - 0.5,
             TANGENCY_EPS, 1),
            ("disjoint", north, 0.3, _on_equator(0.0), 0.3, TANGENCY_EPS, 0),
            ("coincident", north, 0.7, north, 0.7, TANGENCY_EPS, 0),
            ("coincident_antipodal", north, 0.7, -north, math.pi - 0.7,
             TANGENCY_EPS, 0),
            ("antipodal", north, 0.7, -north, 1.0, TANGENCY_EPS, 0),
            ("concentric", north, 0.7, north, 1.0, TANGENCY_EPS, 0),
            ("near_coincident", north, 0.7, tilt(1e-7), 0.7, TANGENCY_EPS, 0),
            ("near_coincident_antipodal", north, 0.7, -tilt(1e-7),
             math.pi - 0.7, TANGENCY_EPS, 0),
            ("den_zero", north, 0.7, tilt(1e-9), 1.0, TANGENCY_EPS, 0),
            ("tangent_inside", north, 0.9, tilt(0.4), 0.5, TANGENCY_EPS, 1),
            ("tangent_covering", north, 2.0, tilt(2.0 * math.pi - 4.0), 2.0,
             TANGENCY_EPS, 1),
            ("zero_axis", tilted, 1.2, tilted, 1.2 + 1e-11, TANGENCY_EPS, 0),
            # two great circles flagged tangent by a wide tolerance: the
            # base point of the formula is zero up to rounding
            ("tangent_zero_base", north, math.pi / 2, tilt(0.05), math.pi / 2,
             0.1, 0),
            ("long_center", 1.5 * north, 1.0, _on_equator(0.3), 1.2,
             TANGENCY_EPS, 0),
            ("zero_radius", north, 0.0, _on_equator(0.3), 1.2,
             TANGENCY_EPS, 0),
            ("radius_pi", north, 1.0, _on_equator(0.3), math.pi,
             TANGENCY_EPS, 0),
        ]
        for name, cu, ru, cv, rv, eps, count in pairs:
            points, found = circle_intersections(
                np.array([cu, cv]), np.array([ru, rv]), np.array([0]),
                np.array([1]), tangent_eps=eps)
            want = oracle_crossings(cu, ru, cv, rv, eps)
            assert len(want) == count, name
            assert found.shape == (1, 2), name
            assert points[found].tobytes() == \
                np.array(want).reshape(-1, 3).tobytes(), name

    def test_ring_ratios_match_scalar(self, oct_tri, solved_oct,
                                      realized_geodesic42):
        for tri, cfg in ((oct_tri, solved_oct[0]),
                         realized_geodesic42[:2]):
            table = {}
            for (u, v) in tri.edges:
                hi = max(cfg.radii[u], cfg.radii[v])
                lo = min(cfg.radii[u], cfg.radii[v])
                table[(u, v)] = float(hi / lo)
            rep = ring_ratios(tri, cfg)
            assert repr(rep.table) == repr(table)
            assert rep.max_ratio == max(table.values())
