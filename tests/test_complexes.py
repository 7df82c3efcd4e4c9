"""Combinatorics of sphere triangulations, checked against brute-force oracles.

Every enumeration routine in ``katsphere.complexes`` is cross-checked here
against an independent itertools-based reimplementation that shares no code
with the library.  Counts for the catalog complexes are frozen explicitly.
"""

import itertools
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from katsphere.catalog import bipyramid, icosahedron, octahedron, stacked_tetrahedra
from katsphere.complexes import (
    CurveReport,
    build_dual_complex,
    build_triangulation,
    dualize,
    norm_edge,
    primalize,
    prismatic_circuits,
    separating_cycles,
    two_edge_arcs,
)
from katsphere.errors import (
    NotManifold,
    NotSimple,
    NotSphere,
    NotTrivalent,
    TooFewVertices,
)

from conftest import geodesic


# ---------------------------------------------------------------------------
# brute-force oracles (no shared code with the library internals)
# ---------------------------------------------------------------------------


def oracle_arcs(tri):
    """All two-edge arcs with non-adjacent endpoints, by edge-pair scan."""
    edge_set = set(tri.edges)
    out = set()
    for e1, e2 in itertools.combinations(tri.edges, 2):
        shared = set(e1) & set(e2)
        if len(shared) != 1:
            continue
        mid = next(iter(shared))
        u, w = sorted((set(e1) | set(e2)) - shared)
        if norm_edge(u, w) not in edge_set:
            out.add((u, mid, w))
    return out


def oracle_separating3(tri):
    """Triangles in the 1-skeleton that do not bound a face."""
    edge_set = set(tri.edges)
    face_sets = {frozenset(f) for f in tri.faces}
    out = set()
    for tri3 in itertools.combinations(range(tri.n_vertices), 3):
        if all(norm_edge(a, b) in edge_set for a, b in itertools.combinations(tri3, 2)):
            if frozenset(tri3) not in face_sets:
                out.add(frozenset(tri3))
    return out


def oracle_separating4(tri):
    """4-cycles with vertices on both sides.

    A side of a 4-cycle carries no vertex exactly when it is a square disk
    triangulated by one diagonal, i.e. when some diagonal (a, c) has both
    {a, b, c} and {a, c, d} among the faces.  That characterization needs no
    flood fill, which makes it a genuinely independent check.
    """
    edge_set = set(tri.edges)
    face_sets = {frozenset(f) for f in tri.faces}
    out = set()
    for quad in itertools.combinations(range(tri.n_vertices), 4):
        a = quad[0]
        for b, d in itertools.combinations(quad[1:], 2):
            (c,) = set(quad) - {a, b, d}
            cyc = (a, b, c, d)
            ring = [norm_edge(cyc[i], cyc[(i + 1) % 4]) for i in range(4)]
            if not all(e in edge_set for e in ring):
                continue
            chordless_side = False
            for p, q, r, s in ((a, c, b, d), (b, d, a, c)):
                if (
                    frozenset((p, r, q)) in face_sets
                    and frozenset((p, q, s)) in face_sets
                ):
                    chordless_side = True
            if not chordless_side:
                out.add(frozenset(ring))
    return out


def oracle_surface(faces):
    """Sorted edges, rotation and faces of each edge of oriented face
    cycles, by separate loops: a directed-edge table, a successor table
    (inside a face, the successor of the next vertex around v is the
    previous one) walked from its first entry at every vertex, and a scan
    of the directed edges in table order."""
    directed = {}
    succ = {}
    for fi, f in enumerate(faces):
        d = len(f)
        for i in range(d):
            directed[(f[i], f[(i + 1) % d])] = fi
            succ.setdefault(f[i], {})[f[(i + 1) % d]] = f[i - 1]
    neighbors = []
    for v in range(len(succ)):
        nb = succ[v]
        start = next(iter(nb))
        cycle = [start]
        while nb[cycle[-1]] != start:
            cycle.append(nb[cycle[-1]])
        neighbors.append(tuple(cycle))
    faces_of_edge = {}
    for (u, v), fi in directed.items():
        if norm_edge(u, v) not in faces_of_edge:
            faces_of_edge[norm_edge(u, v)] = (fi, directed[(v, u)])
    return tuple(sorted(faces_of_edge)), tuple(neighbors), faces_of_edge


def oracle_primal_faces(dual):
    """Triangles of the primal, by a walk over the corners of the dual
    faces: at the corner (a, w, b) of face fi, the next face around w is
    the one whose corner at w starts from b.  That walk runs clockwise,
    so each triangle is its reverse."""
    corners = {}
    for fi, f in enumerate(dual.faces):
        d = len(f)
        for i in range(d):
            corners.setdefault(f[i], {})[f[i - 1]] = (fi, f[(i + 1) % d])
    triangles = []
    for w in range(dual.n_vertices):
        entry = corners[w]
        a = next(iter(entry))
        cycle = []
        for _ in range(3):
            fi, a = entry[a]
            cycle.append(fi)
        triangles.append(tuple(reversed(cycle)))
    return tuple(triangles)


def assert_structure_matches_oracles(faces):
    """Exact equality, values and order, of the triangulation, its dual
    and the primal of that dual with the oracle loops."""
    tri = build_triangulation(faces)
    dual = dualize(tri)
    for cx in (tri, dual):
        edges, neighbors, faces_of_edge = oracle_surface(cx.faces)
        assert cx.edges == edges
        assert cx.neighbors == neighbors
        assert list(cx.faces_of_edge.items()) == list(faces_of_edge.items())
    assert tri.faces == tuple(tuple(f) for f in faces)
    prim, edge_map = primalize(dual)
    assert prim.faces == oracle_primal_faces(dual)
    assert list(edge_map.items()) == [
        (e, norm_edge(f1, f2)) for e, (f1, f2) in dual.faces_of_edge.items()]
    # the round trip keeps every face up to where its cycle starts
    for p, f in zip(prim.faces, tri.faces):
        assert p in rotations(f)


def rotations(cycle):
    """Every cyclic rotation of a vertex cycle."""
    return {cycle[k:] + cycle[:k] for k in range(len(cycle))}


def assert_exact_round_trip(tri):
    """primalize(dualize(tri)) keeps every vertex label: the same edges,
    the same faces in the same order, each up to where its cycle starts,
    and each vertex's neighbors as the same cycle."""
    back = primalize(dualize(tri)).triangulation
    assert back.edges == tri.edges
    assert len(back.faces) == len(tri.faces)
    for p, f in zip(back.faces, tri.faces):
        assert p in rotations(f)
    assert len(back.neighbors) == len(tri.neighbors)
    for p, nb in zip(back.neighbors, tri.neighbors):
        assert p in rotations(nb)


def oracle_cycle_sides(tri, cycle):
    """Vertex counts strictly inside the two sides of an embedded cycle.

    Faces are flood-filled without crossing the cycle's edges; a simple
    closed curve on the sphere yields exactly two face components, and
    every off-cycle vertex lies with all of its faces in one of them.
    """
    k = len(cycle)
    cedges = {norm_edge(cycle[i], cycle[(i + 1) % k]) for i in range(k)}
    comp = [-1] * tri.n_faces
    label = 0
    for start in range(tri.n_faces):
        if comp[start] != -1:
            continue
        comp[start] = label
        dq = deque([start])
        while dq:
            f = dq.popleft()
            a, b, c = tri.faces[f]
            for e in (norm_edge(a, b), norm_edge(b, c), norm_edge(c, a)):
                if e in cedges:
                    continue
                for g in tri.faces_of_edge[e]:
                    if comp[g] == -1:
                        comp[g] = label
                        dq.append(g)
        label += 1
    assert label == 2, f"cutting along {cycle} produced {label} regions"
    on_cycle = set(cycle)
    counts = [0, 0]
    for v in range(tri.n_vertices):
        if v not in on_cycle:
            counts[comp[tri.vertex_face_cycles[v][0]]] += 1
    return tuple(sorted(counts))


def assert_separates(tri, rep):
    """Both sides of the reported cycle hold a vertex, by flood fill."""
    sides = oracle_cycle_sides(tri, rep.vertices)
    assert sides[0] >= 1
    assert sum(sides) == tri.n_vertices - len(rep.vertices)
    return sides


def oracle_prismatic(tri, reports):
    """Filter separating cycles by the all-flanking-faces-distinct rule."""
    out = []
    for rep in reports:
        flanks = set()
        for e in rep.edges:
            for f in tri.faces:
                if set(e) <= set(f):
                    flanks.add(f)
        if len(flanks) == 2 * len(rep.vertices):
            out.append(rep)
    return out


def _sep_edge_sets(reports):
    return {frozenset(r.edges) for r in reports}


def seven_vertex_torus(offset=0):
    """Moebius-Kantor 7-vertex torus: chi = 7 - 21 + 14 = 0."""
    faces = []
    for i in range(7):
        faces.append((i, (i + 1) % 7, (i + 3) % 7))
        faces.append(((i + 1) % 7, (i + 4) % 7, (i + 3) % 7))
    return [tuple(v + offset for v in f) for f in faces]


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


class TestBuildValidation:
    def test_octahedron_counts(self, oct_tri):
        assert oct_tri.n_vertices == 6
        assert len(oct_tri.edges) == 12
        assert len(oct_tri.faces) == 8

    def test_icosahedron_counts(self, ico_tri):
        assert ico_tri.n_vertices == 12
        assert len(ico_tri.edges) == 30
        assert len(ico_tri.faces) == 20

    def test_too_few_vertices(self):
        tetra = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]
        with pytest.raises(TooFewVertices):
            build_triangulation(tetra)

    def test_degenerate_face_rejected(self):
        with pytest.raises(NotSimple):
            build_triangulation([(0, 1, 1), (0, 2, 3), (0, 3, 1), (1, 3, 2)])

    def test_duplicate_face_rejected(self, oct_tri):
        faces = list(oct_tri.faces) + [oct_tri.faces[0]]
        with pytest.raises((NotSimple, NotManifold)):
            build_triangulation(faces)

    def test_missing_face_not_manifold(self, oct_tri):
        with pytest.raises(NotManifold):
            build_triangulation(oct_tri.faces[:-1])

    def test_inconsistent_orientation_rejected(self, oct_tri):
        faces = list(oct_tri.faces)
        f = faces[0]
        faces[0] = (f[0], f[2], f[1])
        with pytest.raises(NotManifold):
            build_triangulation(faces)

    def test_disjoint_union_not_sphere(self, oct_tri):
        shifted = [tuple(v + 6 for v in f) for f in oct_tri.faces]
        with pytest.raises(NotSphere):
            build_triangulation(list(oct_tri.faces) + shifted)

    def test_sphere_plus_seven_vertex_torus_not_sphere(self, oct_tri):
        # chi = 2 + 0, and every vertex link is a cycle
        faces = list(oct_tri.faces) + seven_vertex_torus(offset=6)
        with pytest.raises(NotSphere, match="7 vertices are not connected"):
            build_triangulation(faces)

    def test_sphere_plus_grid_torus_not_sphere(self, octahedron_plus_torus):
        # no 3- or 4-cycle of the 6 x 6 torus separates anything
        with pytest.raises(NotSphere, match="36 vertices are not connected"):
            build_triangulation(octahedron_plus_torus)

    def test_torus_rejected(self):
        with pytest.raises((NotSphere, NotManifold)):
            build_triangulation(seven_vertex_torus())

    def test_rotation_order_consistent(self, ico_tri):
        for v in range(ico_tri.n_vertices):
            cyc = ico_tri.neighbors[v]
            assert len(cyc) == ico_tri.degree(v)
            for t in range(len(cyc)):
                u, w = cyc[t], cyc[(t + 1) % len(cyc)]
                assert ico_tri.is_face(v, u, w)

    def test_vertex_face_cycles_cover(self, oct_tri):
        seen = []
        for v in range(oct_tri.n_vertices):
            seen.extend(oct_tri.vertex_face_cycles[v])
        # every face appears once per corner, so three times in total
        for fi in range(len(oct_tri.faces)):
            assert seen.count(fi) == 3

    def test_vertex_face_cycles_follow_the_rotation(self, ico_tri, stacked2):
        # face t around v is the one on the corner (v, cyc[t], cyc[t + 1]),
        # looked up by a scan of the faces; the cycles are built once
        for tri in (ico_tri, stacked2):
            for v, cyc in enumerate(tri.neighbors):
                want = [next(i for i, f in enumerate(tri.faces)
                             if set(f) == {v, x, y})
                        for x, y in zip(cyc, cyc[1:] + cyc[:1])]
                assert list(tri.vertex_face_cycles[v]) == want
            assert tri.vertex_face_cycles is tri.vertex_face_cycles

    def test_cached_index_arrays(self, ico_tri, stacked2):
        for tri in (ico_tri, stacked2):
            assert tri.edge_array.tolist() == [list(e) for e in tri.edges]
            assert tri.face_array.tolist() == [list(f) for f in tri.faces]
            assert tri.edge_array is tri.edge_array
            sides = [[tri.edges[e] for e in row]
                     for row in tri.face_edge_array.tolist()]
            assert sides == [[norm_edge(j, k), norm_edge(k, i),
                              norm_edge(i, j)] for (i, j, k) in tri.faces]
            for arr in (tri.edge_array, tri.face_array, tri.face_edge_array):
                with pytest.raises(ValueError):
                    arr[0, 0] = 0

    def test_double_tetrahedron_flag(self, bp3, oct_tri, stacked2):
        assert bp3.is_double_tetrahedron
        assert stacked_tetrahedra(1).is_double_tetrahedron
        assert not oct_tri.is_double_tetrahedron
        assert not stacked2.is_double_tetrahedron


# ---------------------------------------------------------------------------
# arcs and separating cycles against the oracles
# ---------------------------------------------------------------------------

CATALOG = [
    octahedron(),
    icosahedron(),
    bipyramid(3),
    bipyramid(4),
    bipyramid(5),
    bipyramid(6),
    stacked_tetrahedra(1),
    stacked_tetrahedra(2),
    stacked_tetrahedra(3),
]


class TestCurveEnumeration:
    @pytest.mark.parametrize("tri", CATALOG, ids=lambda t: f"V{t.n_vertices}F{len(t.faces)}")
    def test_arcs_match_oracle(self, tri):
        got = {(a.vertices[0], a.vertices[1], a.vertices[2]) for a in two_edge_arcs(tri)}
        assert got == oracle_arcs(tri)

    @pytest.mark.parametrize("tri", CATALOG, ids=lambda t: f"V{t.n_vertices}F{len(t.faces)}")
    def test_separating3_match_oracle(self, tri):
        got = {frozenset(r.vertices) for r in separating_cycles(tri, 3)}
        assert got == oracle_separating3(tri)

    @pytest.mark.parametrize("tri", CATALOG, ids=lambda t: f"V{t.n_vertices}F{len(t.faces)}")
    def test_separating4_match_oracle(self, tri):
        got = _sep_edge_sets(separating_cycles(tri, 4))
        assert got == oracle_separating4(tri)

    def test_octahedron_frozen_counts(self, oct_tri):
        assert len(two_edge_arcs(oct_tri)) == 12
        assert separating_cycles(oct_tri, 3) == ()
        quads = separating_cycles(oct_tri, 4)
        assert len(quads) == 3
        for rep in quads:
            assert assert_separates(oct_tri, rep) == (1, 1)

    def test_icosahedron_frozen_counts(self, ico_tri):
        # each link is a pentagon: 5 non-adjacent pairs per vertex
        assert len(two_edge_arcs(ico_tri)) == 60
        assert separating_cycles(ico_tri, 3) == ()
        assert separating_cycles(ico_tri, 4) == ()

    def test_bipyramid3_frozen_counts(self, bp3):
        reps = separating_cycles(bp3, 3)
        assert len(reps) == 1
        assert set(reps[0].vertices) == {0, 1, 2}
        assert assert_separates(bp3, reps[0]) == (1, 1)
        assert separating_cycles(bp3, 4) == ()

    @pytest.mark.parametrize("tri", CATALOG, ids=lambda t: f"V{t.n_vertices}F{len(t.faces)}")
    def test_side_counts_invariant(self, tri):
        for k in (3, 4):
            for rep in separating_cycles(tri, k):
                assert_separates(tri, rep)

    def test_stacked300_frozen_counts(self):
        # nested cycles at a scale the catalog does not reach; the flood
        # fill checks a sample, since checking all of them takes seconds
        tri = stacked_tetrahedra(300)
        threes = separating_cycles(tri, 3)
        fours = separating_cycles(tri, 4)
        assert len(threes) == 300
        assert len(fours) == 2191
        assert len(two_edge_arcs(tri)) == 13848
        for rep in threes[::30] + fours[::150]:
            assert_separates(tri, rep)


# ---------------------------------------------------------------------------
# the curve sets cached on the triangulation
# ---------------------------------------------------------------------------


def uncached_two_edge_arcs(tri):
    """two_edge_arcs before it was cached on the triangulation."""
    out = []
    for mid in range(tri.n_vertices):
        nb = sorted(tri.neighbors[mid])
        for i, u in enumerate(nb):
            for w in nb[i + 1:]:
                if w not in tri.adjacent[u]:
                    out.append(CurveReport(
                        kind="arc2",
                        vertices=(u, mid, w),
                        edges=(norm_edge(u, mid), norm_edge(mid, w))))
    return tuple(out)


def uncached_separating_cycles(tri, k):
    """separating_cycles before it was cached on the triangulation."""
    if k == 3:
        raw = []
        for (u, v) in tri.edges:
            for w in sorted(tri.adjacent[u] & tri.adjacent[v]):
                if w > v and not tri.is_face(u, v, w):
                    raw.append((u, v, w))
    else:
        raw = []
        for u in range(tri.n_vertices):
            nb = sorted(x for x in tri.adjacent[u] if x > u)
            for i, a in enumerate(nb):
                for b in nb[i + 1:]:
                    for x in sorted(tri.adjacent[a] & tri.adjacent[b]):
                        if x > u and not (
                                tri.is_face(u, a, x) and tri.is_face(u, x, b)
                                or tri.is_face(a, x, b) and tri.is_face(a, b, u)):
                            raw.append((u, a, x, b))
    return tuple(
        CurveReport(kind=f"separating{k}", vertices=cyc,
                    edges=tuple(norm_edge(cyc[i], cyc[(i + 1) % k])
                                for i in range(k)))
        for cyc in raw)


CACHED_MESHES = [stacked_tetrahedra(1), stacked_tetrahedra(7),
                 stacked_tetrahedra(60), geodesic(1)[0], geodesic(2)[0]]


class TestCurveCache:
    @pytest.mark.parametrize("tri", CACHED_MESHES,
                             ids=lambda t: f"V{t.n_vertices}")
    def test_cached_sets_equal_the_enumeration(self, tri):
        # equal tuples: same curves, same order, same kinds and edges
        fresh = build_triangulation(tri.faces)
        assert two_edge_arcs(fresh) == uncached_two_edge_arcs(fresh)
        for k in (3, 4):
            assert separating_cycles(fresh, k) == \
                uncached_separating_cycles(fresh, k)

    @pytest.mark.parametrize("tri", CACHED_MESHES,
                             ids=lambda t: f"V{t.n_vertices}")
    def test_second_call_returns_the_same_tuple(self, tri):
        assert two_edge_arcs(tri) is two_edge_arcs(tri)
        for k in (3, 4):
            assert separating_cycles(tri, k) is separating_cycles(tri, k)

    @pytest.mark.parametrize("k", [0, 2, 5])
    def test_other_lengths_raise(self, oct_tri, k):
        with pytest.raises(ValueError, match="not supported"):
            separating_cycles(oct_tri, k)


# ---------------------------------------------------------------------------
# duals, primalization, prismatic circuits
# ---------------------------------------------------------------------------


class TestDuality:
    def test_octahedron_dual_is_cube(self, oct_tri):
        cube = dualize(oct_tri)
        assert cube.n_vertices == 8
        assert sorted(len(f) for f in cube.faces) == [4] * 6
        assert len(cube.edges) == 12

    def test_bipyramid3_dual_is_prism(self, bp3):
        prism = dualize(bp3)
        assert prism.n_vertices == 6
        assert sorted(len(f) for f in prism.faces) == [3, 3, 4, 4, 4]

    def test_icosahedron_dual_is_dodecahedron(self, ico_tri):
        dod = dualize(ico_tri)
        assert dod.n_vertices == 20
        assert sorted(len(f) for f in dod.faces) == [5] * 12

    def test_dual_requires_trivalent(self, oct_tri):
        # the octahedron itself, read as a polytopal complex, is 4-valent
        with pytest.raises(NotTrivalent):
            build_dual_complex(oct_tri.faces)

    def test_disconnected_dual_not_sphere(self, cube_plus_torus_dual):
        # chi = 2 + 0 and every vertex trivalent; the 72 torus vertices
        # are out of reach of the cube's vertex 0
        with pytest.raises(NotSphere, match="72 vertices are not connected"):
            build_dual_complex(cube_plus_torus_dual)

    @pytest.mark.parametrize(
        "tri", CATALOG + [geodesic(1)[0], geodesic(2)[0]],
        ids=lambda t: f"V{t.n_vertices}F{len(t.faces)}")
    def test_structure_matches_oracles(self, tri):
        assert_structure_matches_oracles(tri.faces)

    @pytest.mark.parametrize("tri", CATALOG, ids=lambda t: f"V{t.n_vertices}F{len(t.faces)}")
    def test_primalize_round_trip(self, tri):
        assert_exact_round_trip(tri)

    def test_primalize_edge_map_bijective(self, oct_tri):
        dual = dualize(oct_tri)
        result = primalize(dual)
        tri = result.triangulation
        assert set(result.edge_map.keys()) == set(dual.edges)
        assert sorted(result.edge_map.values()) == sorted(tri.edges)

    def test_cube_prismatic_quads(self, oct_tri):
        cube = dualize(oct_tri)
        assert len(prismatic_circuits(cube, 4)) == 3
        assert prismatic_circuits(cube, 3) == ()

    def test_prism_prismatic_triple(self, bp3):
        prism = dualize(bp3)
        assert len(prismatic_circuits(prism, 3)) == 1
        assert prismatic_circuits(prism, 4) == ()

    def test_dodecahedron_no_short_prismatic(self, ico_tri):
        dod = dualize(ico_tri)
        assert prismatic_circuits(dod, 3) == ()
        assert prismatic_circuits(dod, 4) == ()

    @pytest.mark.parametrize("tri", CATALOG, ids=lambda t: f"V{t.n_vertices}F{len(t.faces)}")
    def test_prismatic_matches_flank_oracle(self, tri):
        dual = dualize(tri)
        prim = primalize(dual).triangulation
        for k in (3, 4):
            got = _sep_edge_sets(prismatic_circuits(dual, k))
            want = _sep_edge_sets(oracle_prismatic(prim, separating_cycles(prim, k)))
            assert got == want


# ---------------------------------------------------------------------------
# randomized stacked spheres
# ---------------------------------------------------------------------------


@st.composite
def stacked_sphere(draw):
    """Random triangulation grown by repeatedly coning over a face."""
    n_steps = draw(st.integers(min_value=1, max_value=6))
    faces = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2)]
    nv = 4
    for _ in range(n_steps):
        idx = draw(st.integers(min_value=0, max_value=len(faces) - 1))
        a, b, c = faces.pop(idx)
        faces.extend([(a, b, nv), (b, c, nv), (c, a, nv)])
        nv += 1
    return faces


@settings(max_examples=60, deadline=None)
@given(faces=stacked_sphere())
def test_random_stacked_sphere_invariants(faces):
    tri = build_triangulation(faces)
    v, e, f = tri.n_vertices, len(tri.edges), len(tri.faces)
    assert v - e + f == 2
    got = {(a.vertices[0], a.vertices[1], a.vertices[2]) for a in two_edge_arcs(tri)}
    assert got == oracle_arcs(tri)
    assert {frozenset(r.vertices) for r in separating_cycles(tri, 3)} == oracle_separating3(tri)
    assert _sep_edge_sets(separating_cycles(tri, 4)) == oracle_separating4(tri)
    for k in (3, 4):
        for rep in separating_cycles(tri, k):
            assert_separates(tri, rep)


@settings(max_examples=30, deadline=None)
@given(faces=stacked_sphere())
def test_random_stacked_sphere_duality(faces):
    assert_exact_round_trip(build_triangulation(faces))


@settings(max_examples=30, deadline=None)
@given(faces=stacked_sphere())
def test_random_stacked_sphere_matches_oracles(faces):
    assert_structure_matches_oracles(faces)
