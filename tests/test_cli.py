import json

import pytest

from phasecat import (build_orbit_category, category_isomorphic,
                      import_olog)
from phasecat.cli import main, parse_cycles
from phasecat.errors import ValidationError
from phasecat.permgroup import closure


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """All bundled example files, written once."""
    d = tmp_path_factory.mktemp("inputs")
    assert main([f"--seed-fixtures={d}"]) == 0
    return d


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParseCycles:
    def test_basic(self):
        assert parse_cycles("(0 1)", 3) == [1, 0, 2]
        assert parse_cycles("(0 1 2)", 3) == [1, 2, 0]
        assert parse_cycles("(0 1)(2 3)", 4) == [1, 0, 3, 2]

    def test_commas_allowed(self):
        assert parse_cycles("(0,1,2)", 3) == [1, 2, 0]

    def test_empty_is_identity(self):
        assert parse_cycles("", 4) == [0, 1, 2, 3]

    def test_out_of_range_point(self):
        with pytest.raises(ValidationError):
            parse_cycles("(0 5)", 3)

    def test_overlapping_cycles_rejected(self):
        with pytest.raises(ValidationError):
            parse_cycles("(0 1)(1 2)", 3)

    def test_garbage_rejected(self):
        with pytest.raises(ValidationError):
            parse_cycles("0 1", 3)


class TestGroupCommand:
    def test_info_output(self, capsys, inputs):
        code, out, _ = run(capsys, ["group", "info", "-i",
                                    str(inputs / "group_s3.json")])
        assert code == 0
        assert "order: 6" in out
        assert "subgroups: 6" in out
        assert "subgroup conjugacy classes: 4" in out

    def test_cycle_notation_input(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(
            {"degree": 4, "generators": ["(0 1 2 3)", "(0 1)(2 3)"]}))
        code, out, _ = run(capsys, ["group", "info", "-i", str(path)])
        assert code == 0
        assert "order: 8" in out

    def test_bad_generator_names_index(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(
            {"degree": 3, "generators": [[1, 0, 2], [0, 0, 1]]}))
        code, _, err = run(capsys, ["group", "info", "-i", str(path)])
        assert code == 1
        assert "generator 1" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["group", "info", "-i", "/nonexistent"])
        assert code == 1
        assert "error:" in err

    def test_non_integer_degree(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"degree": "x", "generators": []}))
        code, _, err = run(capsys, ["group", "info", "-i", str(path)])
        assert code == 1
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error:")

    def test_missing_degree(self, capsys, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"generators": []}))
        code, _, err = run(capsys, ["group", "info", "-i", str(path)])
        assert code == 1
        assert err == "error: input is missing key 'degree'\n"


class TestCategoryCommands:
    def test_orbitcat_json(self, capsys, inputs):
        code, out, _ = run(capsys, ["orbitcat", "-i",
                                    str(inputs / "group_s3.json")])
        assert code == 0
        data = json.loads(out)
        assert len(data["objects"]) == 4

    def test_orbitcat_dot_by_flag(self, capsys, inputs):
        code, out, _ = run(capsys, ["orbitcat", "-i",
                                    str(inputs / "group_c2.json"),
                                    "--format", "dot"])
        assert code == 0
        assert out.startswith("digraph phi0 {")

    def test_dot_inferred_from_extension(self, inputs, tmp_path):
        out_path = tmp_path / "cat.dot"
        assert main(["orbitcat", "-i", str(inputs / "group_c2.json"),
                     "-o", str(out_path)]) == 0
        assert out_path.read_text().startswith("digraph phi0 {")

    def test_phase_square_reflection(self, capsys, inputs, tmp_path):
        cx = json.loads((inputs / "complex_square_reflection.json")
                        .read_text())
        cx_path = tmp_path / "cx.json"
        cx_path.write_text(json.dumps(cx))
        code, out, _ = run(capsys, ["phase", "-g",
                                    str(inputs / "group_c2.json"),
                                    "-x", str(cx_path)])
        assert code == 0
        data = json.loads(out)
        assert len(data["objects"]) == 3
        assert sorted(o["autOrder"] for o in data["objects"]) == [1, 1, 2]
        assert all("subgroupClass" in o for o in data["objects"])

    def test_phase_of_point_matches_orbitcat(self, capsys, inputs,
                                             tmp_path, s3):
        point = tmp_path / "point.json"
        point.write_text(json.dumps(
            {"vertices": 1, "simplices": [[0]], "action": [[0], [0]]}))
        code, out, _ = run(capsys, ["phase", "-g",
                                    str(inputs / "group_s3.json"),
                                    "-x", str(point)])
        assert code == 0
        rebuilt = import_olog(json.loads(out))
        orbit = build_orbit_category(s3).category
        assert category_isomorphic(rebuilt, orbit) is not None

    def test_strata_command(self, capsys, inputs):
        code, out, _ = run(capsys, ["strata", "-i",
                                    str(inputs /
                                        "strata_segment_midpoint.json")])
        assert code == 0
        data = json.loads(out)
        assert len(data["objects"]) == 2
        assert len(data["arrows"]) == 1


class TestQuiverCommand:
    def test_c2_plane(self, capsys, inputs, tmp_path):
        rep = json.loads((inputs / "rep_c2_plane.json").read_text())
        rep_path = tmp_path / "rep.json"
        rep_path.write_text(json.dumps(rep))
        code, out, _ = run(capsys, ["quiver", "-g",
                                    str(inputs / "group_c2.json"),
                                    "-r", str(rep_path)])
        assert code == 0
        data = json.loads(out)
        assert [n["fixDimension"] for n in data["nodes"]] == [2, 1]
        assert data["arrows"][0]["normalDimension"] == 1


class TestSingCommand:
    def test_mu(self, capsys):
        code, out, _ = run(capsys, ["sing", "mu", "--germ", "x^3 + y^4"])
        assert code == 0
        assert out.strip() == "6"

    def test_mu_non_isolated(self, capsys):
        code, out, _ = run(capsys, ["sing", "mu", "--germ", "x^2*y"])
        assert code == 0
        assert out.strip() == "NonIsolated"

    def test_spectrum(self, capsys):
        code, out, _ = run(capsys, ["sing", "spectrum",
                                    "--germ", "x^3 + y^4",
                                    "--weights", "1/3,1/4"])
        assert code == 0
        assert out.strip() == "0, 1/4, 1/3, 1/2, 7/12, 5/6"

    def test_spectrum_needs_weights(self, capsys):
        code, _, err = run(capsys, ["sing", "spectrum", "--germ", "x^3"])
        assert code == 1
        assert "weights" in err

    def test_stabilize(self, capsys):
        code, out, _ = run(capsys, ["sing", "stabilize", "--germ", "x^3"])
        assert code == 0
        assert out.strip() == "y^2 + x^3"

    def test_parse_error_is_exit_1(self, capsys):
        code, _, err = run(capsys, ["sing", "mu", "--germ", "x + 1"])
        assert code == 1
        assert "error:" in err


class TestLdpCommand:
    def test_bernoulli_table(self, capsys):
        code, out, _ = run(capsys, ["ldp", "--bernoulli", "0.3",
                                    "--grid", "0.1:0.9:0.2"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x\tGamma*\tC"
        assert len(lines) == 6
        # rate vanishes at the mean
        row = next(l for l in lines[1:] if l.startswith("0.3"))
        assert abs(float(row.split("\t")[1])) <= 1e-9

    def test_explicit_distribution(self, capsys):
        code, out, _ = run(capsys, ["ldp", "--dist", "0:0.5,2:0.5",
                                    "--grid", "0.5:1.5:0.5"])
        assert code == 0
        assert len(out.strip().splitlines()) == 4

    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run(capsys, ["ldp"])
        assert code == 1
        assert "exactly one" in err

    def test_boundary_x_is_validation_error(self, capsys):
        code, _, err = run(capsys, ["ldp", "--bernoulli", "0.5",
                                    "--grid", "0:1:0.5"])
        assert code == 1
        assert "hull" in err


class TestExitCodes:
    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == 2

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_option(self):
        with pytest.raises(SystemExit) as exc:
            main(["orbitcat"])
        assert exc.value.code == 2

    def test_seed_fixtures_standalone(self, capsys, tmp_path):
        code, out, _ = run(capsys, [f"--seed-fixtures={tmp_path}"])
        assert code == 0
        listed = out.strip().splitlines()
        assert listed
        for path in listed:
            assert path.startswith(str(tmp_path))
        names = {p.rsplit("/", 1)[1] for p in listed}
        assert "group_s3.json" in names
        assert "complex_square_reflection.json" in names
