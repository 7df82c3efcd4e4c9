"""End-to-end tests of the command-line pipeline.

Each test drives ``katsphere.cli.main`` with an argv list and checks the
exit code plus the artifacts left on disk, mirroring how the console
script is used.
"""

import dataclasses
import json
import math

import pytest

from katsphere import cli
from katsphere.angles import AngleAssignment
from katsphere.complexes import dualize
from katsphere.jsonio import dump_angles, dump_complex, dump_dual
from katsphere.verify import IrreducibilityReport

GOLDEN = 2.0 * math.pi / 5.0


@pytest.fixture(scope="session")
def cli_ws(tmp_path_factory, oct_tri):
    """Workspace with an octahedron, golden-ratio angles, and a solved
    pattern produced through the CLI itself."""
    ws = tmp_path_factory.mktemp("cli")
    complex_path = ws / "oct.json"
    complex_path.write_text(dump_complex("octahedron", oct_tri))
    angles_path = ws / "angles.json"
    angles_path.write_text(dump_angles(AngleAssignment.constant(oct_tri, GOLDEN)))
    pattern_path = ws / "pattern.json"
    code = cli.main(["solve", str(complex_path), str(angles_path),
                     "--out", str(pattern_path)])
    assert code == cli.EXIT_OK
    return {"dir": ws, "complex": complex_path, "angles": angles_path,
            "pattern": pattern_path}


def _write_constant_angles(path, tri, value):
    path.write_text(dump_angles(AngleAssignment.constant(tri, value)))


class TestValidate:
    def test_admissible_assignment_passes(self, cli_ws, capsys):
        code = cli.main(["validate", str(cli_ws["complex"]),
                         str(cli_ws["angles"])])
        assert code == cli.EXIT_OK
        assert "result: PASS" in capsys.readouterr().out

    def test_right_angles_fail_on_equatorial_cycles(self, cli_ws, tmp_path,
                                                    oct_tri, capsys):
        bad = tmp_path / "right.json"
        _write_constant_angles(bad, oct_tri, math.pi / 2)
        code = cli.main(["validate", str(cli_ws["complex"]), str(bad)])
        assert code == cli.EXIT_GATE
        out = capsys.readouterr().out
        assert "result: FAIL" in out
        # all three equatorial 4-cycles must be named
        assert out.count("separating4 on") == 3

    def test_degrees_flag(self, cli_ws, tmp_path, capsys):
        deg = tmp_path / "deg.json"
        deg.write_text(json.dumps({"edges": [
            {"u": u, "v": v, "theta": 72.0}
            for u, v in json_edges(cli_ws)]}))
        code = cli.main(["validate", str(cli_ws["complex"]), str(deg),
                         "--degrees"])
        assert code == cli.EXIT_OK

    def test_dual_complex_input(self, oct_tri, tmp_path, capsys):
        dual = dualize(oct_tri)
        dual_path = tmp_path / "cube.json"
        dual_path.write_text(dump_dual("cube", dual))
        angles_path = tmp_path / "dual_angles.json"
        angles_path.write_text(
            dump_angles(AngleAssignment.constant(dual, GOLDEN)))
        code = cli.main(["validate", str(dual_path), str(angles_path),
                         "--dual"])
        assert code == cli.EXIT_OK
        assert "result: PASS" in capsys.readouterr().out

    def test_missing_file_is_a_parse_error(self, cli_ws, tmp_path, capsys):
        code = cli.main(["validate", str(tmp_path / "absent.json"),
                         str(cli_ws["angles"])])
        assert code == cli.EXIT_PARSE

    def test_malformed_angles_file(self, cli_ws, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"edges": [{"u": 5, "v": 0, "theta": 1.0}]}')
        code = cli.main(["validate", str(cli_ws["complex"]), str(bad)])
        assert code == cli.EXIT_PARSE

    def test_sphere_plus_torus_is_a_parse_error(self, octahedron_plus_torus,
                                                tmp_path, capsys):
        complex_path = tmp_path / "union.json"
        complex_path.write_text(json.dumps(
            {"faces": [list(f) for f in octahedron_plus_torus]}))
        edges = sorted({(min(a, b), max(a, b))
                        for f in octahedron_plus_torus
                        for a, b in zip(f, f[1:] + f[:1])})
        angles_path = tmp_path / "angles.json"
        angles_path.write_text(json.dumps({"edges": [
            {"u": u, "v": v, "theta": GOLDEN} for u, v in edges]}))
        code = cli.main(["validate", str(complex_path), str(angles_path)])
        assert code == cli.EXIT_PARSE
        assert "not connected" in capsys.readouterr().err

    def test_disconnected_dual_is_a_parse_error(self, cube_plus_torus_dual,
                                                tmp_path, capsys):
        # the dual builder names the 72 torus vertices it cannot reach
        dual_path = tmp_path / "union-dual.json"
        dual_path.write_text(json.dumps({"dual_faces": cube_plus_torus_dual}))
        edges = sorted({(min(a, b), max(a, b))
                        for f in cube_plus_torus_dual
                        for a, b in zip(f, f[1:] + f[:1])})
        angles_path = tmp_path / "dual-angles.json"
        angles_path.write_text(json.dumps({"edges": [
            {"u": u, "v": v, "theta": GOLDEN} for u, v in edges]}))
        code = cli.main(["validate", str(dual_path), str(angles_path),
                         "--dual"])
        assert code == cli.EXIT_PARSE
        assert "72 vertices are not connected" in capsys.readouterr().err


def json_edges(cli_ws):
    data = json.loads(cli_ws["angles"].read_text())
    return [(rec["u"], rec["v"]) for rec in data["edges"]]


class TestSolve:
    def test_golden_octahedron(self, cli_ws, capsys):
        # cli_ws already ran the solve; re-run to inspect stdout
        out_path = cli_ws["dir"] / "again.json"
        code = cli.main(["solve", str(cli_ws["complex"]),
                         str(cli_ws["angles"]), "--out", str(out_path)])
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "residual_inf:" in out
        assert "separation_margin: 0.618034" in out
        assert "verified: yes" in out

    def test_reruns_are_byte_identical(self, cli_ws, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for path in (a, b):
            assert cli.main(["solve", str(cli_ws["complex"]),
                             str(cli_ws["angles"]), "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() == cli_ws["pattern"].read_bytes()

    def test_inadmissible_input_gates_before_solving(self, cli_ws, tmp_path,
                                                     oct_tri, capsys):
        bad = tmp_path / "right.json"
        _write_constant_angles(bad, oct_tri, math.pi / 2)
        out_path = tmp_path / "never.json"
        code = cli.main(["solve", str(cli_ws["complex"]), str(bad),
                         "--out", str(out_path)])
        assert code == cli.EXIT_GATE
        assert not out_path.exists()
        assert "result: FAIL" in capsys.readouterr().err

    def test_manifest_lists_artifacts(self, cli_ws, tmp_path, capsys):
        out_path = tmp_path / "p.json"
        manifest_path = tmp_path / "manifest.json"
        code = cli.main(["solve", str(cli_ws["complex"]),
                         str(cli_ws["angles"]), "--out", str(out_path),
                         "--manifest", str(manifest_path)])
        assert code == cli.EXIT_OK
        manifest = json.loads(manifest_path.read_text())
        assert set(manifest) == {"inputs", "options", "artifacts",
                                 "timings_sec"}
        assert manifest["artifacts"] == [str(out_path)]
        assert manifest["inputs"]["complex"] == str(cli_ws["complex"])
        assert set(manifest["options"]) == {"tol", "degrees"}
        assert set(manifest["timings_sec"]) == {"solve", "verify"}


    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_unusable_tolerance_is_a_parse_error(self, cli_ws, tmp_path,
                                                 tol, capsys):
        out_path = tmp_path / "never.json"
        code = cli.main(["solve", str(cli_ws["complex"]),
                         str(cli_ws["angles"]), "--out", str(out_path),
                         f"--tol={tol}"])
        assert code == cli.EXIT_PARSE
        assert not out_path.exists()
        assert "--tol: tolerance must be positive and finite" in (
            capsys.readouterr().err)


class TestVerify:
    def test_solved_pattern_verifies(self, cli_ws, capsys):
        code = cli.main(["verify", str(cli_ws["complex"]),
                         str(cli_ws["pattern"])])
        assert code == cli.EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        assert data["flags"] == {"contact": True, "target_angles": True,
                                 "gauge": True, "irreducible": True}
        assert data["separation_margin"] == pytest.approx(
            2.0 * math.cos(GOLDEN), abs=1e-9)

    def test_tampered_pattern_fails_contact(self, cli_ws, tmp_path, capsys):
        data = json.loads(cli_ws["pattern"].read_text())
        data["radii"][4] = 0.02       # shrink a non-gauge cap
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(data))
        code = cli.main(["verify", str(cli_ws["complex"]), str(tampered)])
        assert code == cli.EXIT_GATE
        report = json.loads(capsys.readouterr().out)
        assert report["flags"]["contact"] is False

    def test_non_numeric_target_angle_is_a_parse_error(self, cli_ws,
                                                       tmp_path, capsys):
        data = json.loads(cli_ws["pattern"].read_text())
        data["report"]["target_angles"][0]["theta"] = "1.2"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        code = cli.main(["verify", str(cli_ws["complex"]), str(bad)])
        assert code == cli.EXIT_PARSE
        assert "must be a number" in capsys.readouterr().err

    def test_small_sample_count_still_finds_center_witnesses(self, cli_ws,
                                                             capsys):
        code = cli.main(["verify", str(cli_ws["complex"]),
                         str(cli_ws["pattern"]), "--samples", "3"])
        assert code == cli.EXIT_OK

    @pytest.mark.parametrize("samples", ["-1", "-5"])
    def test_negative_sample_count_is_a_parse_error(self, cli_ws, samples,
                                                    capsys):
        code = cli.main(["verify", str(cli_ws["complex"]),
                         str(cli_ws["pattern"]), f"--samples={samples}"])
        assert code == cli.EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--samples: samples must be non-negative" in captured.err

    def test_zero_samples_means_no_lattice(self, cli_ws, capsys):
        code = cli.main(["verify", str(cli_ws["complex"]),
                         str(cli_ws["pattern"]), "--samples", "0"])
        assert code == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out)["ok"] is True

    def test_witness_gap_is_inconclusive(self, cli_ws, monkeypatch, capsys):
        """Gates all pass but a witness is missing: exit 5, not 2."""
        real = cli.verify_pattern

        def doctored(tri, cfg, theta, samples=20000):
            rep = real(tri, cfg, theta, samples=samples)
            gap = IrreducibilityReport(ok=False, witnesses={},
                                       inconclusive=(0,), covering_caps=())
            return dataclasses.replace(rep, in_irreducible=False,
                                       irreducibility=gap)

        monkeypatch.setattr(cli, "verify_pattern", doctored)
        code = cli.main(["verify", str(cli_ws["complex"]),
                         str(cli_ws["pattern"])])
        assert code == cli.EXIT_INCONCLUSIVE

    def test_covering_cap_is_a_hard_failure(self, cli_ws, monkeypatch,
                                            capsys):
        real = cli.verify_pattern

        def doctored(tri, cfg, theta, samples=20000):
            rep = real(tri, cfg, theta, samples=samples)
            bad = IrreducibilityReport(ok=False, witnesses={},
                                       inconclusive=(), covering_caps=(0,))
            return dataclasses.replace(rep, in_irreducible=False,
                                       irreducibility=bad)

        monkeypatch.setattr(cli, "verify_pattern", doctored)
        code = cli.main(["verify", str(cli_ws["complex"]),
                         str(cli_ws["pattern"])])
        assert code == cli.EXIT_GATE


class TestPolyhedron:
    def test_cube_from_octahedron_pattern(self, cli_ws, tmp_path, capsys):
        out_path = tmp_path / "poly.json"
        off_path = tmp_path / "poly.off"
        code = cli.main(["polyhedron", str(cli_ws["complex"]),
                         str(cli_ws["pattern"]), str(cli_ws["angles"]),
                         "--out", str(out_path), "--off", str(off_path)])
        assert code == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "dihedral angle max error:" in out
        assert "vertices: 8  faces: 6  edges: 12" in out
        data = json.loads(out_path.read_text())
        assert len(data["klein_vertices"]) == 8
        lines = off_path.read_text().splitlines()
        assert lines[0] == "OFF"
        assert lines[1] == "8 6 12"

    def test_unrealizable_targets_gate(self, cli_ws, tmp_path, oct_tri,
                                       capsys):
        thin = tmp_path / "thin.json"
        _write_constant_angles(thin, oct_tri, 0.2 * math.pi)
        code = cli.main(["polyhedron", str(cli_ws["complex"]),
                         str(cli_ws["pattern"]), str(thin),
                         "--out", str(tmp_path / "poly.json")])
        assert code == cli.EXIT_GATE
        assert "error:" in capsys.readouterr().err


class TestRender:
    def test_svg_counts_and_determinism(self, cli_ws, tmp_path, capsys):
        a = tmp_path / "a.svg"
        b = tmp_path / "b.svg"
        for path in (a, b):
            code = cli.main(["render", str(cli_ws["complex"]),
                             str(cli_ws["pattern"]), "--out", str(path)])
            assert code == cli.EXIT_OK
        text = a.read_text()
        assert text.startswith("<svg")
        assert text.count("<circle") == 6
        assert text.count("<line") == 12
        assert a.read_bytes() == b.read_bytes()
        assert "6 circles, 12 contact edges" in capsys.readouterr().out


class TestNonFiniteRadius:
    """Python's JSON reader accepts NaN and Infinity; the pattern reader
    turns them down before any geometry runs."""

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    @pytest.mark.parametrize("command", ["polyhedron", "render", "verify"])
    def test_is_a_parse_error(self, cli_ws, tmp_path, command, value,
                              capsys):
        text = cli_ws["pattern"].read_text()
        data = json.loads(text)
        data["radii"][4] = "RADIUS"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data).replace('"RADIUS"', value))
        argv = [command, str(cli_ws["complex"]), str(bad)]
        if command == "polyhedron":
            argv.append(str(cli_ws["angles"]))
        if command != "verify":
            argv += ["--out", str(tmp_path / "never")]
        assert cli.main(argv) == cli.EXIT_PARSE
        assert not (tmp_path / "never").exists()
        assert "'radii' must list 6 finite numbers" in capsys.readouterr().err


class TestDegenerate:
    def _angle_files(self, tmp_path, oct_tri, start, end):
        s = tmp_path / "start.json"
        e = tmp_path / "end.json"
        _write_constant_angles(s, oct_tri, start)
        _write_constant_angles(e, oct_tri, end)
        return s, e

    def test_margin_tracks_the_degeneration_law(self, cli_ws, tmp_path,
                                                oct_tri, capsys):
        s, e = self._angle_files(tmp_path, oct_tri, 0.40 * math.pi,
                                 0.50 * math.pi)
        out_path = tmp_path / "sweep.csv"
        code = cli.main(["degenerate", str(cli_ws["complex"]), str(s),
                         "--end", str(e), "--ts", "0,0.5,0.9",
                         "--out", str(out_path)])
        assert code == cli.EXIT_OK
        lines = out_path.read_text().splitlines()
        assert lines[0].startswith("step,t,status,residual_inf")
        margins = []
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[2] == "ok"
            t = float(cells[1])
            margin = float(cells[6])
            theta_t = (1.0 - t) * 0.40 * math.pi + t * 0.50 * math.pi
            assert margin == pytest.approx(2.0 * math.cos(theta_t), abs=1e-6)
            margins.append(margin)
        assert margins == sorted(margins, reverse=True)

    def test_stdout_when_no_out_given(self, cli_ws, tmp_path, oct_tri,
                                      capsys):
        s, e = self._angle_files(tmp_path, oct_tri, 0.40 * math.pi,
                                 0.45 * math.pi)
        code = cli.main(["degenerate", str(cli_ws["complex"]), str(s),
                         "--end", str(e), "--steps", "2"])
        assert code == cli.EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3      # header + two steps
        assert [ln.split(",")[1] for ln in lines[1:]] == ["0.0", "1.0"]

    def test_inadmissible_start_gates(self, cli_ws, tmp_path, oct_tri,
                                      capsys):
        s, e = self._angle_files(tmp_path, oct_tri, 0.50 * math.pi,
                                 0.40 * math.pi)
        code = cli.main(["degenerate", str(cli_ws["complex"]), str(s),
                         "--end", str(e), "--steps", "2"])
        assert code == cli.EXIT_GATE
        assert "outside the admissible set" in capsys.readouterr().err

    def test_later_steps_may_leave_the_admissible_set(self, cli_ws, tmp_path,
                                                      oct_tri, capsys):
        s, e = self._angle_files(tmp_path, oct_tri, 0.40 * math.pi,
                                 0.55 * math.pi)
        code = cli.main(["degenerate", str(cli_ws["complex"]), str(s),
                         "--end", str(e), "--ts", "0,1"])
        assert code == cli.EXIT_NUMERIC
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split(",")[2] == "ok"
        assert lines[2].split(",")[2] == "outside"

    def test_bad_ts_list(self, cli_ws, tmp_path, oct_tri, capsys):
        s, e = self._angle_files(tmp_path, oct_tri, 0.40 * math.pi,
                                 0.45 * math.pi)
        code = cli.main(["degenerate", str(cli_ws["complex"]), str(s),
                         "--end", str(e), "--ts", "a,b"])
        assert code == cli.EXIT_PARSE

    def test_too_few_steps(self, cli_ws, tmp_path, oct_tri, capsys):
        s, e = self._angle_files(tmp_path, oct_tri, 0.40 * math.pi,
                                 0.45 * math.pi)
        code = cli.main(["degenerate", str(cli_ws["complex"]), str(s),
                         "--end", str(e), "--steps", "1"])
        assert code == cli.EXIT_PARSE
