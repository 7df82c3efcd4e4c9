"""Overlap-angle assignments and the admissibility conditions.

The frozen verdicts below were worked out by hand from the inequalities
(each example states the arithmetic in a comment), so they double as a
plain-arithmetic oracle for the checker.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from katsphere.angles import (
    AngleAssignment,
    check_admissible,
    check_admissible_strict,
    check_dual_admissible,
    transport_dual_angles,
)
from katsphere.catalog import bipyramid, icosahedron, octahedron
from katsphere.complexes import dualize
from katsphere.errors import DomainMismatch

_PI = math.pi


def bipyramid_angles(tri, equator, apex):
    """Assignment on bipyramid(m): equator edges vs apex-to-equator edges."""
    m = tri.n_vertices - 2
    values = {}
    for e in tri.edges:
        values[e] = equator if e[1] < m else apex
    return AngleAssignment(values)


class TestAssignment:
    def test_constant_covers_all_edges(self, oct_tri):
        th = AngleAssignment.constant(oct_tri, 1.0)
        assert len(th) == len(oct_tri.edges)
        th.check_domain(oct_tri.edges)

    def test_missing_edge_rejected(self, oct_tri):
        values = {e: 1.0 for e in oct_tri.edges[:-1]}
        th = AngleAssignment(values)
        with pytest.raises(DomainMismatch):
            th.check_domain(oct_tri.edges)

    def test_extra_edge_rejected(self, oct_tri):
        values = {e: 1.0 for e in oct_tri.edges}
        values[(0, 1)] = 1.0  # antipodal pair, not an edge
        th = AngleAssignment(values)
        with pytest.raises(DomainMismatch):
            th.check_domain(oct_tri.edges)

    def test_angle_range_enforced(self):
        with pytest.raises(DomainMismatch):
            AngleAssignment({(0, 1): 0.0})
        with pytest.raises(DomainMismatch):
            AngleAssignment({(0, 1): _PI})
        with pytest.raises(DomainMismatch):
            AngleAssignment({(0, 1): -0.3})

    def test_unordered_keys_normalized(self):
        th = AngleAssignment({(2, 1): 0.7})
        assert th[(1, 2)] == pytest.approx(0.7)
        assert (2, 1) in th


class TestAdmissibility:
    def test_octahedron_two_pi_fifth_ok(self, oct_tri):
        rep = check_admissible(oct_tri, AngleAssignment.constant(oct_tri, 2 * _PI / 5))
        assert rep.ok
        assert rep.violations == ()
        assert not rep.strict_arcs
        assert rep.checked["arc_pair"] == 12
        assert rep.checked["face_triple"] == 8
        assert rep.checked["separating4"] == 3

    def test_octahedron_right_angles_hit_quad_bound(self, oct_tri):
        # each separating 4-cycle sums to 4 * pi/2 = 2*pi, not < 2*pi
        rep = check_admissible(oct_tri, AngleAssignment.constant(oct_tri, _PI / 2))
        assert not rep.ok
        kinds = {v.condition for v in rep.violations}
        assert kinds == {"separating4"}
        assert len(rep.violations_for("separating4")) == 3
        for v in rep.violations_for("separating4"):
            assert v.value == pytest.approx(2 * _PI)
            assert v.bound == pytest.approx(2 * _PI)

    def test_icosahedron_right_angles_ok(self, ico_tri):
        # no separating 3- or 4-cycles, arcs sum to exactly pi (non-strict)
        rep = check_admissible(ico_tri, AngleAssignment.constant(ico_tri, _PI / 2))
        assert rep.ok

    def test_icosahedron_right_angles_not_strict(self, ico_tri):
        rep = check_admissible_strict(
            ico_tri, AngleAssignment.constant(ico_tri, _PI / 2)
        )
        assert not rep.ok
        assert {v.condition for v in rep.violations} == {"arc_pair"}

    def test_icosahedron_just_below_right_is_strict(self, ico_tri):
        rep = check_admissible_strict(
            ico_tri, AngleAssignment.constant(ico_tri, 0.45 * _PI)
        )
        assert rep.ok

    def test_bipyramid_apex_example_ok(self, bp3):
        # arcs through apexes: 1.5 + 1.5 = 3.0 <= pi
        rep = check_admissible(bp3, bipyramid_angles(bp3, equator=0.3, apex=1.5))
        assert rep.ok

    def test_bipyramid_apex_example_arc_violation(self, bp3):
        # 1.6 + 1.6 = 3.2 > pi
        rep = check_admissible(bp3, bipyramid_angles(bp3, equator=0.3, apex=1.6))
        assert not rep.ok
        assert {v.condition for v in rep.violations} == {"arc_pair"}
        worst = rep.violations_for("arc_pair")[0]
        assert worst.value == pytest.approx(3.2)
        assert worst.margin < 0

    def test_double_tetrahedron_arcs_are_strict(self, bp3):
        # bp3 is the double tetrahedron: arc sums of exactly pi are rejected
        rep = check_admissible(bp3, bipyramid_angles(bp3, _PI / 4, _PI / 2))
        assert rep.strict_arcs
        assert not rep.ok
        assert {v.condition for v in rep.violations} == {"arc_pair"}
        assert all(v.strict for v in rep.violations)

    def test_larger_bipyramid_arcs_not_strict(self, bp5):
        # same angles on bipyramid(5): arc sums of exactly pi pass the loose
        # bound, but each pair of apex arcs joins into a separating 4-cycle
        # summing to exactly 2*pi, which genuinely fails
        rep = check_admissible(bp5, bipyramid_angles(bp5, _PI / 4, _PI / 2))
        assert not rep.strict_arcs
        assert rep.violations_for("arc_pair") == ()
        assert {v.condition for v in rep.violations} == {"separating4"}
        assert len(rep.violations_for("separating4")) == 5
        for v in rep.violations_for("separating4"):
            assert v.value == pytest.approx(2 * _PI)

    def test_larger_bipyramid_admissible_angles(self, bp5):
        # the small-equator large-apex recipe is admissible on bipyramid(5)
        rep = check_admissible(bp5, bipyramid_angles(bp5, 0.3, 1.5))
        assert rep.ok
        assert not rep.strict_arcs

    def test_separating_triple_violation(self, bp3):
        # equator sum 3.3 > pi while faces stay admissible:
        # face total 1.1 + 1.2 + 1.2 = 3.5 > pi, pairwise bounds hold
        rep = check_admissible(bp3, bipyramid_angles(bp3, equator=1.1, apex=1.2))
        assert not rep.ok
        assert {v.condition for v in rep.violations} == {"separating3"}
        v = rep.violations_for("separating3")[0]
        assert v.value == pytest.approx(3.3)
        assert v.bound == pytest.approx(_PI)

    def test_face_total_violation(self, bp3):
        # tiny angles everywhere: every face sums to 0.3 < pi
        rep = check_admissible(bp3, bipyramid_angles(bp3, equator=0.1, apex=0.1))
        assert not rep.ok
        assert "face_triple" in {v.condition for v in rep.violations}

    def test_face_pairwise_violation(self, oct_tri):
        # one small angle among large ones: 2.8 + 2.8 = 5.6 > 0.3 + pi
        values = {e: 2.8 for e in oct_tri.edges}
        values[(0, 2)] = 0.3
        rep = check_admissible(oct_tri, AngleAssignment(values))
        assert not rep.ok
        conds = {v.condition for v in rep.violations}
        assert "face_triple" in conds

    def test_domain_mismatch_raises(self, oct_tri, bp3):
        th = AngleAssignment.constant(bp3, 1.0)
        with pytest.raises(DomainMismatch):
            check_admissible(oct_tri, th)

    def test_report_is_frozen(self, oct_tri):
        rep = check_admissible(oct_tri, AngleAssignment.constant(oct_tri, 2 * _PI / 5))
        with pytest.raises(AttributeError):
            rep.ok = False


class TestDualTransport:
    def test_cube_angles_land_on_octahedron(self, oct_tri):
        cube = dualize(oct_tri)
        th = AngleAssignment({e: 2 * _PI / 5 for e in cube.edges})
        tri, transported, edge_map = transport_dual_angles(cube, th)
        assert is_isomorphic_counts(tri, oct_tri)
        assert len(transported) == len(tri.edges)
        assert set(edge_map) == set(cube.edges)

    def test_dual_check_matches_primal(self, oct_tri):
        cube = dualize(oct_tri)
        good = AngleAssignment({e: 2 * _PI / 5 for e in cube.edges})
        ok_rep = check_dual_admissible(cube, good)
        assert ok_rep.ok
        assert ok_rep.transported is not None
        bad = AngleAssignment({e: _PI / 2 for e in cube.edges})
        bad_rep = check_dual_admissible(cube, bad)
        assert not bad_rep.ok
        assert {v.condition for v in bad_rep.violations} == {"separating4"}

    def test_prism_inherits_strictness(self, bp3):
        prism = dualize(bp3)
        th = AngleAssignment({e: _PI / 2 for e in prism.edges})
        rep = check_dual_admissible(prism, th)
        assert rep.strict_arcs
        assert not rep.ok


def is_isomorphic_counts(a, b):
    return a.n_vertices == b.n_vertices and len(a.faces) == len(b.faces)


# ---------------------------------------------------------------------------
# the straight line s * theta + (1 - s) * pi/3 toward uniform pi/3
# preserves admissibility (strictly, for s < 1)
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    jitter=st.lists(
        st.floats(min_value=-0.08, max_value=0.08), min_size=12, max_size=12
    ),
    s=st.floats(min_value=0.01, max_value=0.999),
)
def test_interpolation_preserves_admissibility(jitter, s):
    tri = octahedron()
    values = {e: 0.44 * _PI + j for e, j in zip(tri.edges, jitter)}
    th = AngleAssignment(values)
    assume(check_admissible(tri, th).ok)
    pulled = AngleAssignment(
        {e: s * t + (1.0 - s) * (_PI / 3.0) for e, t in th.items()})
    rep = check_admissible_strict(tri, pulled)
    assert rep.ok, [str(v) for v in rep.violations]


@settings(max_examples=40, deadline=None)
@given(s=st.floats(min_value=0.01, max_value=0.999))
def test_interpolation_from_boundary_case(s):
    # the octahedron at pi/2 sits on the admissible boundary; any genuine
    # pull toward pi/3 lands strictly inside
    tri = octahedron()
    pulled = AngleAssignment.constant(tri, s * (_PI / 2) + (1.0 - s) * (_PI / 3.0))
    rep = check_admissible_strict(tri, pulled)
    assert rep.ok


def test_interpolation_sits_on_boundary_at_zero():
    # at s = 0 every face total collapses onto the bound pi itself, so the
    # strict interior claim is genuinely open at that end
    tri = octahedron()
    s = 0.0
    pulled = AngleAssignment.constant(
        tri, s * (2 * _PI / 5) + (1.0 - s) * (_PI / 3.0))
    for face in tri.faces:
        total = sum(
            pulled[(min(a, b), max(a, b))]
            for a, b in ((face[0], face[1]), (face[1], face[2]), (face[2], face[0]))
        )
        assert total == pytest.approx(_PI, abs=1e-12)
