"""Tests for the JSON interchange readers and writers."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from katsphere.angles import AngleAssignment
from katsphere.errors import DomainMismatch, ParseError
from katsphere.jsonio import (
    canonical_json,
    dump_angles,
    dump_complex,
    dump_dual,
    dump_pattern,
    dump_polyhedron,
    dump_verification,
    load_angles,
    load_complex,
    load_dual,
    load_pattern,
)
from katsphere.complexes import dualize
from katsphere.polyhedron import build_polyhedron
from katsphere.solver import SolveReport
from katsphere.verify import verify_pattern


class TestComplexRoundTrip:
    def test_octahedron_round_trip(self, oct_tri, tmp_path):
        path = tmp_path / "oct.json"
        path.write_text(dump_complex("octahedron", oct_tri))
        name, tri = load_complex(path)
        assert name == "octahedron"
        assert tri.faces == oct_tri.faces

    def test_dual_round_trip(self, bp3, tmp_path):
        dual = dualize(bp3)
        path = tmp_path / "dual.json"
        path.write_text(dump_dual("prism", dual))
        name, loaded = load_dual(path)
        assert name == "prism"
        assert loaded.faces == dual.faces

    def test_missing_faces_key(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x"}')
        with pytest.raises(ParseError, match="faces"):
            load_complex(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ParseError, match="not valid JSON"):
            load_complex(path)

    def test_non_triangle_face(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"faces": [[0, 1, 2, 3]]}')
        with pytest.raises(ParseError, match="three integer"):
            load_complex(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            load_complex(tmp_path / "absent.json")


class TestAngles:
    def test_round_trip(self, oct_tri, tmp_path):
        theta = AngleAssignment.constant(oct_tri, 2.0 * math.pi / 5.0)
        path = tmp_path / "angles.json"
        path.write_text(dump_angles(theta))
        loaded = load_angles(path)
        assert dict(loaded.items()) == dict(theta.items())

    def test_degrees_conversion(self, tmp_path):
        path = tmp_path / "angles.json"
        path.write_text(json.dumps(
            {"edges": [{"u": 0, "v": 1, "theta": 90.0}]}))
        loaded = load_angles(path, degrees=True)
        assert loaded[(0, 1)] == pytest.approx(math.pi / 2, abs=1e-15)

    def test_unsorted_edge_rejected(self, tmp_path):
        path = tmp_path / "angles.json"
        path.write_text(json.dumps(
            {"edges": [{"u": 3, "v": 1, "theta": 0.5}]}))
        with pytest.raises(ParseError, match="u < v"):
            load_angles(path)

    def test_duplicate_edge_rejected(self, tmp_path):
        path = tmp_path / "angles.json"
        path.write_text(json.dumps({"edges": [
            {"u": 0, "v": 1, "theta": 0.5},
            {"u": 0, "v": 1, "theta": 0.7}]}))
        with pytest.raises(ParseError, match="duplicate"):
            load_angles(path)

    def test_boolean_theta_rejected(self, tmp_path):
        path = tmp_path / "angles.json"
        path.write_text(json.dumps(
            {"edges": [{"u": 0, "v": 1, "theta": True}]}))
        with pytest.raises(ParseError, match="number"):
            load_angles(path)


def _false_for_zero(faces):
    """The faces with vertex 0 written as JSON false."""
    return [[False if v == 0 else v for v in f] for f in faces]


class TestBooleanVertexIds:
    """JSON true and false are not vertex ids, though Python reads them
    as the ints 1 and 0."""

    def test_complex_rejects_boolean_id(self, oct_tri, tmp_path):
        path = tmp_path / "oct.json"
        path.write_text(json.dumps({"faces": _false_for_zero(oct_tri.faces)}))
        with pytest.raises(ParseError, match="three integer vertex ids"):
            load_complex(path)

    def test_dual_rejects_boolean_id(self, bp3, tmp_path):
        path = tmp_path / "dual.json"
        path.write_text(json.dumps(
            {"dual_faces": _false_for_zero(dualize(bp3).faces)}))
        with pytest.raises(ParseError, match="integer vertex ids"):
            load_dual(path)

    def test_angles_reject_boolean_id(self, tmp_path):
        path = tmp_path / "angles.json"
        path.write_text(json.dumps(
            {"edges": [{"u": False, "v": 2, "theta": 0.5}]}))
        with pytest.raises(ParseError, match="integer u < v"):
            load_angles(path)

    def test_pattern_rejects_boolean_gauge_id(self, oct_tri, solved_oct,
                                              tmp_path):
        cfg, theta = solved_oct
        from katsphere.solver import solve
        _, rep = solve(oct_tri, theta)
        data = json.loads(dump_pattern(cfg, rep, theta))
        assert 0 in data["gauge_face"]
        data["gauge_face"] = _false_for_zero([data["gauge_face"]])[0]
        path = tmp_path / "pattern.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError, match="gauge_face"):
            load_pattern(path, oct_tri)


class TestPattern:
    def test_round_trip_preserves_data(self, oct_tri, solved_oct, tmp_path):
        cfg, theta = solved_oct
        from katsphere.solver import solve
        _, rep = solve(oct_tri, theta)
        path = tmp_path / "pattern.json"
        path.write_text(dump_pattern(cfg, rep, theta))
        loaded_cfg, loaded_theta, report = load_pattern(path, oct_tri)
        assert np.array_equal(loaded_cfg.centers, cfg.centers)
        assert np.array_equal(loaded_cfg.radii, cfg.radii)
        assert loaded_cfg.gauge_face == cfg.gauge_face
        assert dict(loaded_theta.items()) == dict(theta.items())
        assert report["converged"] is True

    def test_wrong_vertex_count(self, oct_tri, bp3, solved_bp3, tmp_path):
        cfg, theta = solved_bp3
        from katsphere.solver import solve
        _, rep = solve(bp3, theta)
        path = tmp_path / "pattern.json"
        path.write_text(dump_pattern(cfg, rep, theta))
        with pytest.raises(ParseError, match="6 points"):
            load_pattern(path, oct_tri)

    def test_bad_gauge_face(self, oct_tri, solved_oct, tmp_path):
        cfg, theta = solved_oct
        from katsphere.solver import solve
        _, rep = solve(oct_tri, theta)
        data = json.loads(dump_pattern(cfg, rep, theta))
        data["gauge_face"] = [0, 1, 2]   # 0 and 1 are antipodal, not a face
        path = tmp_path / "pattern.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError, match="not a face"):
            load_pattern(path, oct_tri)

    @pytest.mark.parametrize("mutate, error", [
        (lambda rep: rep["target_angles"][0].update(theta="1.2"), ParseError),
        (lambda rep: rep["target_angles"][0].update(u="0"), ParseError),
        (lambda rep: rep["target_angles"][0].update(theta=[1.2]), ParseError),
        (lambda rep: rep["target_angles"].pop(), DomainMismatch),
        (lambda rep: rep.update(target_angles={"u": 0}), ParseError),
    ], ids=["string-theta", "string-u", "list-theta", "missing-edge",
            "not-a-list"])
    def test_malformed_target_angles(self, oct_tri, solved_oct, tmp_path,
                                     mutate, error):
        cfg, theta = solved_oct
        from katsphere.solver import solve
        _, rep = solve(oct_tri, theta)
        data = json.loads(dump_pattern(cfg, rep, theta))
        mutate(data["report"])
        path = tmp_path / "pattern.json"
        path.write_text(json.dumps(data))
        with pytest.raises(error):
            load_pattern(path, oct_tri)


    @pytest.mark.parametrize("key, value", [
        ("radii", float("nan")), ("radii", float("inf")),
        ("radii", -float("inf")), ("radii", True), ("radii", 10 ** 400),
        ("centers", float("nan")), ("centers", float("inf")),
        ("centers", False),
    ], ids=["nan-radius", "inf-radius", "neg-inf-radius", "bool-radius",
            "huge-radius", "nan-center", "inf-center", "bool-center"])
    def test_non_finite_entries_rejected(self, oct_tri, solved_oct, tmp_path,
                                         key, value):
        # Python's reader accepts NaN and Infinity, and bool is an int
        cfg, theta = solved_oct
        from katsphere.solver import solve
        _, rep = solve(oct_tri, theta)
        data = json.loads(dump_pattern(cfg, rep, theta))
        if key == "radii":
            data["radii"][4] = value
        else:
            data["centers"][4][1] = value
        path = tmp_path / "pattern.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError, match=f"'?{key}"):
            load_pattern(path, oct_tri)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_target_angle_rejected(self, oct_tri, solved_oct,
                                              tmp_path, value):
        cfg, theta = solved_oct
        from katsphere.solver import solve
        _, rep = solve(oct_tri, theta)
        data = json.loads(dump_pattern(cfg, rep, theta))
        data["report"]["target_angles"][0]["theta"] = value
        path = tmp_path / "pattern.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError, match="theta must be a number"):
            load_pattern(path, oct_tri)


class TestPatternWriter:
    @pytest.mark.parametrize("residual", [math.inf, -math.inf, math.nan])
    def test_non_finite_residual_is_written_as_null(
            self, oct_tri, solved_oct, tmp_path, residual):
        cfg, theta = solved_oct
        rep = SolveReport(converged=False, residual_inf=residual,
                          iterations=7, targets=(), repairs=0,
                          failure_reason="no_start_converged")
        text = dump_pattern(cfg, rep, theta)

        def reject(name):
            raise ValueError(f"{name} is not JSON")
        assert json.loads(text, parse_constant=reject)["residual_inf"] is None
        path = tmp_path / "pattern.json"
        path.write_text(text)
        loaded, _, report = load_pattern(path, oct_tri)
        assert np.array_equal(loaded.radii, cfg.radii)
        assert report["failure_reason"] == "no_start_converged"

    @pytest.mark.parametrize("name, complex_name", [
        ("solved_oct", "oct_tri"), ("solved_bp3", "bp3"),
        ("realized_geodesic42", None)])
    def test_load_then_dump_gives_the_same_bytes(self, request, tmp_path,
                                                 name, complex_name):
        if complex_name is None:
            tri, cfg, theta = request.getfixturevalue(name)
        else:
            tri = request.getfixturevalue(complex_name)
            cfg, theta = request.getfixturevalue(name)
        rep = SolveReport(converged=True, residual_inf=3.5e-12, iterations=9,
                          targets=(), repairs=1)
        path = tmp_path / "pattern.json"
        path.write_text(dump_pattern(cfg, rep, theta))
        loaded_cfg, loaded_theta, report = load_pattern(path, tri)
        # the file keeps only the number of targets, which is all
        # dump_pattern reads of them
        loaded_rep = SimpleNamespace(
            **{k: report[k] for k in ("converged", "failure_reason",
                                      "iterations", "repairs")},
            targets=[None] * report["homotopy_steps"],
            residual_inf=json.loads(path.read_text())["residual_inf"])
        assert dump_pattern(loaded_cfg, loaded_rep, loaded_theta) == \
            path.read_text()


# ---------------------------------------------------------------------------
# canonical_json against json.dumps
# ---------------------------------------------------------------------------

def oracle_json(obj) -> str:
    """json.dumps with every numpy array replaced by its tolist()."""
    def plain(x):
        if isinstance(x, np.ndarray):
            return x.tolist()
        if isinstance(x, (list, tuple)):
            return [plain(y) for y in x]
        if isinstance(x, dict):
            return {k: plain(v) for k, v in x.items()}
        return x
    return json.dumps(plain(obj), sort_keys=True, indent=2) + "\n"


FLOATS = (st.floats()
          | st.sampled_from([-0.0, 5e-324, -5e-324, 1e300, 1e-300, 0.1,
                             math.nan, math.inf, -math.inf])
          | st.floats().map(np.float64))
TEXT = st.text() | st.sampled_from(
    ['"', "\\", "a\"b\\c", "\x00\x1f\n\t\r", "\u00e9\u4e2d", "\u2028",
     "\U0001f600", ""])
ARRAYS = hnp.arrays(
    dtype=st.sampled_from([np.float64, np.float32, np.int64, np.int32,
                           np.uint8, np.bool_]),
    shape=hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4))
LEAVES = (st.none() | st.booleans() | FLOATS | TEXT | ARRAYS
          | st.integers() | st.integers(min_value=-10 ** 40,
                                        max_value=10 ** 40))
TREES = st.recursive(
    LEAVES,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(TEXT, kids, max_size=4)),
    max_leaves=20)


class TestCanonicalJson:
    @settings(max_examples=200, deadline=None)
    @given(obj=TREES)
    def test_matches_json_dumps(self, obj):
        assert canonical_json(obj) == oracle_json(obj)

    @pytest.mark.parametrize("arr", [
        np.arange(12.0).reshape(4, 3) / 7.0,
        np.arange(-5, 5),
        np.array([[1, 2], [3, 4]], dtype=np.uint64) << np.uint64(62),
        np.array([0.5, math.nan, 2.0]),
        np.array([[1.0, -math.inf], [0.0, -0.0]]),
        np.zeros(0), np.zeros((3, 0)), np.zeros((0, 3)),
        np.ones((2, 2, 2)), np.full((), 2.5),
        np.array([True, False]),
    ], ids=["2d-float", "1d-int", "2d-uint64", "1d-nan", "2d-inf", "empty",
            "n-by-0", "0-by-n", "3d", "0d", "bool"])
    def test_array_leaves(self, arr):
        obj = {"a": arr, "b": [arr, {"c": arr}]}
        assert canonical_json(obj) == oracle_json(obj)

    @pytest.mark.parametrize("obj", [
        {1: 2}, {"a": 1, 2: 3}, {None: 0}, {(1, 2): 0}, {1.5: 0},
        [{"x": {b"k": 1}}]], ids=["int", "mixed", "none", "tuple", "float",
                                  "nested-bytes"])
    def test_non_str_keys_raise(self, obj):
        with pytest.raises(TypeError):
            canonical_json(obj)

    @pytest.mark.parametrize("obj", [
        np.int64(3), [np.int64(3)], {"a": np.int32(1)}, np.float32(1.5),
        {"a": {1, 2}}, [1 + 2j], np.array([1 + 2j])],
        ids=["int64", "int64-in-list", "int32-in-dict", "float32", "set",
             "complex", "complex-array"])
    def test_unserializable_values_raise(self, obj):
        with pytest.raises(TypeError):
            canonical_json(obj)


class TestReportSerialization:
    def test_verification_report_is_valid_json(self, oct_tri, solved_oct):
        cfg, theta = solved_oct
        rep = verify_pattern(oct_tri, cfg, theta)
        data = json.loads(dump_verification(rep, 20000, 1e-8))
        assert data["flags"]["irreducible"] is True
        assert data["contact"]["overlapping_edges"] == 12
        assert len(data["irreducibility"]["witnesses"]) == 6
        assert data["tolerances"]["samples"] == 20000

    def test_polyhedron_report_is_valid_json(self, oct_tri, solved_oct):
        cfg, theta = solved_oct
        poly = build_polyhedron(oct_tri, cfg, theta)
        data = json.loads(dump_polyhedron(poly))
        assert len(data["vertices"]) == 8
        assert len(data["face_cycles"]) == 6
        assert len(data["dihedral_angles"]) == 12
        assert all(len(v) == 4 for v in data["face_normals"])

    def test_canonical_json_is_deterministic(self):
        a = canonical_json({"b": 1.5, "a": [0.1, 2]})
        b = canonical_json({"a": [0.1, 2], "b": 1.5})
        assert a == b
        assert a.endswith("\n")
