import json
import time

import pytest

from braidalg import RATIONALS, prime_field
from braidalg.cli import main
from braidalg.gallery import corrupted_flip, exterior_line, flip_braiding, scalar_braiding
from braidalg.serialize import bialgebra_to_json, braiding_to_json

F5 = prime_field(5)


@pytest.fixture
def files(tmp_path):
    paths = {}
    inputs = {
        "flip": braiding_to_json(flip_braiding(RATIONALS, 2)),
        "bad": braiding_to_json(corrupted_flip(RATIONALS)),
        "q2f5": braiding_to_json(scalar_braiding(F5, 2)),
        "ext": bialgebra_to_json(exterior_line(RATIONALS)),
        "g": {"field": {"kind": "rationals"}, "g": [["1", "0"], ["1", "1"]]},
    }
    for name, obj in inputs.items():
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(obj))
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


class TestVerify:
    def test_passing_braiding(self, files, capsys):
        code, out = run(capsys, "verify", "--input", files["flip"])
        report = json.loads(out)
        assert code == 0
        assert report["passed"] is True
        assert report["qybe"] == "pass"
        assert report["invertible"] == "pass"
        assert report["version"]
        assert report["config"]["seed"] == 0

    def test_failing_braiding_locates_violation(self, files, capsys):
        code, out = run(capsys, "verify", "--input", files["bad"])
        report = json.loads(out)
        assert code == 1
        assert report["qybe"] == "fail"
        details = [c.get("detail", "") for c in report["checks"] if not c["passed"]]
        assert any("first difference at (" in d for d in details)

    def test_bialgebra_input(self, files, capsys):
        code, out = run(capsys, "verify", "--input", files["ext"])
        assert code == 0
        assert json.loads(out)["subject"] == "bialgebra"

    def test_schema_error_names_key(self, files, capsys, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text(json.dumps({"field": {"kind": "rationals"}, "dim": 2}))
        code = main(["verify", "--input", str(p)])
        err = capsys.readouterr().err
        assert code == 2
        assert "'c'" in err

    @pytest.mark.parametrize("obj, key", [
        ({"field": {"kind": "rationals"}, "dim": True, "c": [["1"]]}, "'dim'"),
        ({"field": {"kind": "rationals"}, "dim": 1, "c": [[True]]}, "'c'"),
        ({"field": {"kind": "prime", "p": 5}, "dim": 1, "c": [[True]]}, "'c'"),
        ({"field": {"kind": "rationals"}, "dim": 1, "c": [["1"]], "degree": True,
          "blocks": {}}, "'degree'"),
    ], ids=["dim", "cell", "cell-mod5", "degree"])
    def test_json_booleans_rejected(self, capsys, tmp_path, obj, key):
        # bool is an int subclass in Python; JSON true/false is not a number
        p = tmp_path / "bool.json"
        p.write_text(json.dumps(obj))
        code = main(["verify", "--input", str(p)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert key in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("p", ["7", 7.0, True], ids=["string", "float", "bool"])
    def test_non_integer_modulus_rejected(self, capsys, tmp_path, p):
        path = tmp_path / "modulus.json"
        path.write_text(json.dumps({"field": {"kind": "prime", "p": p}, "dim": 1, "c": [["1"]]}))
        code = main(["verify", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "'field'" in captured.err and "Traceback" not in captured.err

    def test_determinism(self, files, capsys):
        _, out1 = run(capsys, "verify", "--input", files["flip"])
        _, out2 = run(capsys, "verify", "--input", files["flip"])
        assert out1 == out2


class TestPrimitives:
    def test_graded_dims(self, files, capsys):
        code, out = run(capsys, "primitives", "--input", files["q2f5"], "--degree", "4")
        assert code == 0
        assert json.loads(out)["dims"] == [1, 0, 0, 1]

    def test_bialgebra(self, files, capsys):
        code, out = run(capsys, "primitives", "--input", files["ext"])
        report = json.loads(out)
        assert code == 0
        assert report["dim"] == 1
        assert report["braiding"] == [["-1"]]

    def test_missing_degree(self, files, capsys):
        code = main(["primitives", "--input", files["flip"]])
        assert code == 2


class TestBraidRep:
    def test_block_is_braiding(self, files, capsys):
        code, out = run(capsys, "braidrep", "--input", files["flip"], "--m", "1", "--n", "1")
        assert code == 0
        assert json.loads(out) == [["1", "0", "0", "0"], ["0", "0", "1", "0"],
                                   ["0", "1", "0", "0"], ["0", "0", "0", "1"]]

    def test_rejects_invalid_braiding(self, files, capsys):
        assert main(["braidrep", "--input", files["bad"], "--m", "1", "--n", "1"]) == 1

    def test_rejects_negative_indices(self, files, capsys):
        assert main(["braidrep", "--input", files["flip"], "--m", "-1", "--n", "1"]) == 2


class TestBuildRoundTrip:
    def test_build_then_verify(self, files, capsys):
        built = str(files["dir"] / "built.json")
        code, _ = run(capsys, "build", "--input", files["flip"], "--degree", "3",
                      "--out", built)
        assert code == 0
        code, out = run(capsys, "verify", "--input", built)
        assert code == 0
        report = json.loads(out)
        assert report["subject"] == "build"
        assert report["passed"] is True

    def test_build_deterministic(self, files, capsys):
        _, out1 = run(capsys, "build", "--input", files["q2f5"], "--degree", "4")
        _, out2 = run(capsys, "build", "--input", files["q2f5"], "--degree", "4")
        assert out1 == out2

    def test_build_gates_on_yang_baxter(self, files, capsys):
        code, out = run(capsys, "build", "--input", files["bad"], "--degree", "2")
        assert code == 1
        assert json.loads(out)["passed"] is False

    def test_build_degree_gate(self, files, capsys):
        assert main(["build", "--input", files["flip"], "--degree", "0"]) == 2

    def test_tampered_dump_fails(self, files, capsys):
        built = files["dir"] / "tamper.json"
        run(capsys, "build", "--input", files["flip"], "--degree", "2", "--out", str(built))
        dump = json.loads(built.read_text())
        dump["blocks"]["delta/1_2"][0][0] = "9"
        built.write_text(json.dumps(dump))
        code, out = run(capsys, "verify", "--input", str(built))
        assert code == 1


class TestTransport:
    def test_basis_change(self, files, capsys):
        code, out = run(capsys, "transport", "--input", files["ext"], "--g", files["g"])
        report = json.loads(out)
        assert code == 0
        assert report["passed"] is True
        assert report["bialgebra"]["m"] != bialgebra_to_json(exterior_line(RATIONALS))["m"]

    def test_twist(self, files, capsys):
        code, out = run(capsys, "transport", "--input", files["ext"], "--twist", "2")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_exactly_one_functor(self, files, capsys):
        assert main(["transport", "--input", files["ext"]]) == 2
        assert main(["transport", "--input", files["ext"], "--g", files["g"],
                     "--twist", "2"]) == 2


class TestJCheckAndAdjunction:
    def test_jcheck_super(self, files, capsys):
        code, out = run(capsys, "jcheck", "--base", "super", "--grading", "0,1",
                        "--dim", "2", "--degree", "3")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_jcheck_grading_length(self, files, capsys):
        assert main(["jcheck", "--base", "super", "--grading", "0",
                     "--dim", "2", "--degree", "3"]) == 2

    def test_adjunction_check(self, files, capsys):
        code, out = run(capsys, "adjunction-check", "--braiding", files["flip"],
                        "--bialgebra", files["ext"], "--degree", "3")
        report = json.loads(out)
        assert code == 0
        names = {c["name"] for c in report["checks"]}
        assert "free_forgetful_triangles" in names
        assert "tensor_primitive_triangles" in names
        assert "counit_kills_primitives_exact" in names

    def test_out_file_matches_stdout(self, files, capsys):
        target = files["dir"] / "report.json"
        _, out = run(capsys, "verify", "--input", files["flip"], "--out", str(target))
        assert target.read_text() == out


class Reached(Exception):
    """Raised by a stub standing in for the first real work of a command."""


def _stop(*args, **kwargs):
    raise Reached


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


class TestSizeBound:
    """``dim ** degree`` above ``MAX_TENSOR_DIM`` is refused with exit 2
    before any work starts; at the bound the command goes ahead.  The work
    itself is stubbed out, so each case runs in milliseconds."""

    # (dim, degree) at the bound and one degree step above it
    AT, ABOVE = (2, 10), (2, 11)

    def commands(self, files, tmp_path, dim, degree):
        braid = write(tmp_path / f"braid{dim}.json",
                      braiding_to_json(flip_braiding(RATIONALS, dim)))
        dump = write(tmp_path / f"dump{degree}.json", {
            **braiding_to_json(flip_braiding(RATIONALS, dim)), "degree": degree, "blocks": {}})
        n = str(degree)
        return {
            "build": (["build", "--input", braid, "--degree", n], "check_yang_baxter"),
            "verify": (["verify", "--input", dump], "build_truncated"),
            "primitives": (["primitives", "--input", braid, "--degree", n], "build_truncated"),
            "jcheck": (["jcheck", "--base", "flip", "--dim", str(dim), "--degree", n],
                       "check_J_compatibility"),
            "adjunction-check": (["adjunction-check", "--braiding", braid, "--bialgebra",
                                  files["ext"], "--degree", n], "check_braided_bialgebra"),
            "braidrep": (["braidrep", "--input", braid, "--m", "1", "--n", str(degree - 1)],
                         "check_yang_baxter"),
        }

    @pytest.mark.parametrize("command", ["build", "verify", "primitives", "jcheck",
                                         "adjunction-check", "braidrep"])
    def test_at_and_above_the_bound(self, files, tmp_path, capsys, monkeypatch, command):
        from braidalg import cli

        assert cli.MAX_TENSOR_DIM == self.AT[0] ** self.AT[1]
        argv, work = self.commands(files, tmp_path, *self.AT)[command]
        monkeypatch.setattr(cli, work, _stop)
        with pytest.raises(Reached):
            main(argv)
        argv, _ = self.commands(files, tmp_path, *self.ABOVE)[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "size bound" in captured.err

    def test_one_dimensional_inputs_bound_the_degree(self, tmp_path, capsys, monkeypatch):
        from braidalg import cli

        line = write(tmp_path / "line.json", braiding_to_json(scalar_braiding(F5, 2)))
        monkeypatch.setattr(cli, "build_truncated", _stop)
        with pytest.raises(Reached):
            main(["primitives", "--input", line, "--degree", "10"])
        assert main(["primitives", "--input", line, "--degree", "11"]) == 2

    @pytest.mark.parametrize("argv", [
        ["primitives", "--input", "{flip}", "--degree", "40"],
        ["jcheck", "--base", "flip", "--dim", "9", "--degree", "12"],
        ["jcheck", "--base", "flip", "--dim", "100000", "--degree", "2"],
        ["build", "--input", "{flip}", "--degree", str(10 ** 12)],
        ["braidrep", "--input", "{flip}", "--m", "0", "--n", str(10 ** 12)],
    ], ids=["primitives-40", "jcheck-9^12", "jcheck-wide", "build-huge", "braidrep-huge"])
    def test_huge_requests_exit_at_once(self, files, capsys, argv):
        argv = [a.format(**files) for a in argv]
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err

    def test_jcheck_dimension_must_be_positive(self, capsys):
        for dim in ("0", "-3"):
            assert main(["jcheck", "--base", "flip", "--dim", dim, "--degree", "2"]) == 2
        assert "'--dim'" in capsys.readouterr().err
