"""Tests for the JSON interchange readers and writers."""

import json
import math

import numpy as np
import pytest

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
