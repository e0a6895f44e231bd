import json
import time
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidalg import RATIONALS, ExactMatrix, prime_field
from braidalg.braided import CheckItem
from braidalg.cli import _encode, _quote, main
from braidalg.gallery import corrupted_flip, exterior_line, flip_braiding, scalar_braiding
from braidalg.serialize import bialgebra_to_json, braiding_to_json, matrix_to_json
from braidalg.tensoralg import build_truncated

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

    @pytest.mark.parametrize("out", ["missing/r.json", "."], ids=["no-parent", "directory"])
    def test_unwritable_out_is_a_schema_error(self, files, capsys, out):
        code = main(["verify", "--input", files["flip"], "--out", str(files["dir"] / out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("schema error: '--out': cannot write ")
        assert "Traceback" not in captured.err

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


    def test_verify_gates_dump_on_yang_baxter(self, files, capsys):
        # at degree 2 the axiom suite has no hexagon, so only the gate sees this c
        V = corrupted_flip(RATIONALS)
        blocks = {key: matrix_to_json(block) for key, block in build_truncated(V, 2).named_blocks()}
        path = files["dir"] / "bad_dump.json"
        path.write_text(json.dumps({**braiding_to_json(V), "degree": 2, "blocks": blocks}))
        code, out = run(capsys, "verify", "--input", str(path))
        report = json.loads(out)
        assert code == 1
        assert report["passed"] is False
        assert report["subject"] == "build"
        assert [c["name"] for c in report["checks"] if not c["passed"]] == ["yang_baxter"]


def _dump_and_report(capsys, files, V, degree=2):
    """A build dump of ``V`` written to ``dump.json``, its parsed form, and
    the report that ``verify`` gives it."""
    source, path = files["dir"] / "braiding.json", files["dir"] / "dump.json"
    source.write_text(json.dumps(braiding_to_json(V)))
    assert main(["build", "--input", str(source), "--degree", str(degree), "--out", str(path)]) == 0
    capsys.readouterr()
    code, report = run(capsys, "verify", "--input", str(path))
    assert code == 0
    return path, json.loads(path.read_text()), report


class TestRoundTripText:
    """``verify`` passes a stored block whose text is canonical without parsing
    it; any other text is parsed and compared as a matrix."""

    @pytest.mark.parametrize("field, q, key, canonical, spelled", [
        (RATIONALS, Fraction(1, 2), "cT/1_1", "1/2", "2/4"),
        (RATIONALS, 2, "cT/1_1", "2", "02"),
        (RATIONALS, -2, "cT/1_1", "-2", "-4/2"),
        (F5, 2, "cT/1_1", "2", "7"),
        (F5, 2, "delta/0_1", "1", "6"),
    ], ids=["reduced-fraction", "leading-zero", "integral-fraction", "p+2", "p+1"])
    def test_equal_block_spelled_otherwise_passes(self, files, capsys, field, q, key,
                                                  canonical, spelled):
        path, dump, canonical_report = _dump_and_report(capsys, files, scalar_braiding(field, q))
        assert dump["blocks"][key][0][0] == canonical
        dump["blocks"][key][0][0] = spelled
        path.write_text(json.dumps(dump))
        code, out = run(capsys, "verify", "--input", str(path))
        assert code == 0
        assert out == canonical_report
        assert {"name": f"roundtrip[{key}]", "passed": True} in json.loads(out)["checks"]

    def test_changed_cell_fails_only_its_block(self, files, capsys):
        path, dump, _ = _dump_and_report(capsys, files, flip_braiding(RATIONALS, 2), degree=3)
        dump["blocks"]["delta/1_3"][2][1] = "1"
        path.write_text(json.dumps(dump))
        code, out = run(capsys, "verify", "--input", str(path))
        assert code == 1
        failed = [c for c in json.loads(out)["checks"] if not c["passed"]]
        assert failed == [{"name": "roundtrip[delta/1_3]", "passed": False,
                           "detail": "first difference at (2,1): 1 != 0"}]

    @pytest.mark.parametrize("key, cell, message", [
        ("delta/1_2", "x", "'delta/1_2': Invalid literal for Fraction: 'x'"),
        ("cT/1_1", "1.5", "'cT/1_1': Invalid literal for Fraction: '1.5'"),
        ("eps/1", None, "'eps/1': cannot coerce None into the rationals"),
        ("delta/1_2", "1/0", "'delta/1_2': Fraction(1, 0)"),
    ], ids=["letter", "decimal", "null", "zero-denominator"])
    def test_unparsable_cell_is_a_schema_error(self, files, capsys, key, cell, message):
        path, dump, _ = _dump_and_report(capsys, files, flip_braiding(RATIONALS, 2))
        dump["blocks"][key][0][0] = cell
        path.write_text(json.dumps(dump))
        assert main(["verify", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"schema error: {message}\n")

    def test_encode_failure_writes_nothing(self, files, capsys):
        # c^{2,1} holds q^2, beyond Python's 4300-digit limit for str; the
        # dump is encoded whole before the first byte is written
        path, out = files["dir"] / "long.json", files["dir"] / "long_dump.json"
        path.write_text(json.dumps({"field": {"kind": "rationals"}, "dim": 1, "c": [[str(10 ** 3000 + 1)]]}))
        assert main(["build", "--input", str(path), "--degree", "3", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cannot print a scalar of 6001 digits: the limit is 4300\n"
        assert not out.exists()


class TestRepeatedCalls:
    def test_one_process_many_calls(self, files, capsys):
        """The parser is built once per process, so each call must parse afresh:
        a later call sees no option or default left over from an earlier one."""
        calls = [
            ["verify", "--input", files["flip"], "--seed", "5"],
            ["verify", "--input", files["flip"]],
            ["primitives", "--input", files["flip"], "--degree", "3"],
            ["build", "--input", files["bad"], "--degree", "2"],
            ["verify"],
            ["jcheck", "--base", "super", "--dim", "2", "--degree", "3"],
            ["jcheck", "--base", "flip", "--dim", "2", "--degree", "3", "--field", "fp:5"],
            ["braidrep", "--input", files["flip"], "--m", "1", "--n", "2"],
        ]

        def outcome(argv):
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            return code, capsys.readouterr().out

        first = [outcome(argv) for argv in calls]
        assert [code for code, _ in first] == [0, 0, 0, 1, 2, 2, 0, 0]
        assert json.loads(first[0][1])["config"]["seed"] == 5
        assert json.loads(first[1][1])["config"]["seed"] == 0
        for _ in range(2):
            assert [outcome(argv) for argv in calls] == first


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

    # the exterior line with x⊗x sent to x⊗x + 1⊗1, which leaves P⊗P, and
    # with x⊗x sent to 0, which restricts to a singular braiding of P
    @pytest.mark.parametrize("c", [
        [[1, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 0]],
    ])
    def test_non_bialgebra_gets_a_report(self, tmp_path, capsys, c):
        B = replace(exterior_line(RATIONALS), c=ExactMatrix(RATIONALS, c))
        path = tmp_path / "b.json"
        path.write_text(json.dumps(bialgebra_to_json(B)))
        code = main(["transport", "--input", str(path), "--twist", "2"])
        out, err = capsys.readouterr()
        assert (code, err) == (1, "")
        report = json.loads(out)
        assert report["passed"] is False
        assert {"name": "primitive_square", "passed": False} in report["checks"]

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

    @pytest.mark.parametrize("base, grading, message", [
        ("flip", "1,1", "'--grading' applies only to the super base"),
        ("super", "0,2", "'--grading': parities must be 0 or 1, got (0, 2)"),
    ], ids=["flip-with-grading", "parity-2"])
    def test_jcheck_grading_is_validated(self, capsys, base, grading, message):
        code = main(["jcheck", "--base", base, "--grading", grading, "--dim", "2", "--degree", "3"])
        assert (code, *capsys.readouterr()) == (2, "", f"schema error: {message}\n")

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


class TestLoadErrors:
    """A file that cannot be read, or is not JSON, is a schema error that
    names the flag which gave it."""

    ARGV = {
        "--g": ["transport", "--input", "ext.json", "--g", "{}"],
        "--braiding": ["adjunction-check", "--braiding", "{}", "--bialgebra", "ext.json",
                       "--degree", "2"],
        "--bialgebra": ["adjunction-check", "--braiding", "flip.json", "--bialgebra", "{}",
                        "--degree", "2"],
    }

    @pytest.mark.parametrize("flag", sorted(ARGV))
    def test_bad_json(self, files, capsys, monkeypatch, flag):
        monkeypatch.chdir(files["dir"])
        (files["dir"] / "junk.json").write_text("not json")
        code = main([a.format("junk.json") for a in self.ARGV[flag]])
        assert (code, *capsys.readouterr()) == (2, "", (
            f"schema error: '{flag}': junk.json is not valid JSON: "
            "Expecting value: line 1 column 1 (char 0)\n"))

    @pytest.mark.parametrize("flag", sorted(ARGV))
    def test_missing_file(self, files, capsys, monkeypatch, flag):
        monkeypatch.chdir(files["dir"])
        code = main([a.format("missing.json") for a in self.ARGV[flag]])
        assert (code, *capsys.readouterr()) == (2, "", (
            f"schema error: '{flag}': cannot read missing.json: "
            "[Errno 2] No such file or directory: 'missing.json'\n"))


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


# Scalars a report could hold, and some it never does but that the encoder
# must still write as json.dumps would: escapes, non-ASCII, lone surrogates,
# booleans beside 0 and 1, and ints far beyond 64 bits.
REPORT_SCALARS = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['"', "\\", "\\\"", "\x00\x1f\x7f", "\n\t\r", "\u00e9\u20ac\U0001f600",
                     "\u2028", "\ud800", "/"]),
    st.booleans(),
    st.integers(-1, 1),
    st.integers(-(2 ** 200), 2 ** 200),
    st.just(2 ** 64),
    st.none(),
)
REPORT_VALUES = st.recursive(
    REPORT_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=24,
)


class TestEncode:
    @given(REPORT_VALUES)
    @example(["a", 1])
    @example(["a", ["b"]])
    @example([[], {}, [[]], {"": {}}])
    @example({"b": True, "a": 1, "c": [False, 0, None]})
    @example([["1/2", "0", "-3"], ["0", "0", "1"]])
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_matches_json_dumps(self, value):
        assert "".join(_encode(value)) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize("value", [
        1.5, {"a": [0.0]}, (1, 2), ["a", ("b",)], {1: "a"}, {"a": {None: 1}},
        type("Name", (str,), {})("x"), ["a", type("Name", (str,), {})("x")],
        [type("Count", (int,), {})(3)], {"k": set()},
    ], ids=["float", "nested-float", "tuple", "nested-tuple", "int-key", "none-key",
            "str-subclass", "str-subclass-in-row", "int-subclass", "set"])
    def test_refuses_other_types(self, value):
        with pytest.raises(TypeError):
            _encode(value)


FIELDS = [RATIONALS, prime_field(2), F5, prime_field(2 ** 61 - 1)]


def cells_of(field):
    if field == RATIONALS:
        return st.integers(-(2 ** 70), 2 ** 70) | st.fractions(max_denominator=10 ** 6)
    return st.integers(0, field.p - 1)


@st.composite
def matrices(draw):
    """An ``ExactMatrix`` of at most 4 x 4, empty shapes included."""
    field = draw(st.sampled_from(FIELDS))
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    grid = draw(st.lists(st.lists(cells_of(field) | st.just(0), min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    return ExactMatrix(field, grid, rows=rows, cols=cols)


CHECK_ITEMS = st.builds(CheckItem, st.text(max_size=6), st.booleans(), st.text(max_size=6))

# Reports as commands build them: library values beside plain JSON values.
LIBRARY_VALUES = st.recursive(
    REPORT_SCALARS | matrices() | CHECK_ITEMS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


def plain(value):
    """``value`` with each library value replaced by the JSON it stands for."""
    if isinstance(value, ExactMatrix):
        return matrix_to_json(value)
    if isinstance(value, CheckItem):
        return {"name": value.name, "passed": value.passed,
                **({"detail": value.detail} if value.detail else {})}
    if isinstance(value, list):
        return [plain(v) for v in value]
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    return value


class TestEncodeLibraryValues:
    @given(LIBRARY_VALUES)
    @example(ExactMatrix.zeros(RATIONALS, 0, 0))
    @example({"m": ExactMatrix.zeros(RATIONALS, 0, 3), "n": [ExactMatrix.zeros(F5, 3, 0)]})
    @example([ExactMatrix(RATIONALS, [[Fraction(-3, 2), 0, -7], [0, 10 ** 30, Fraction(5, 4)]])])
    @example({"1": ExactMatrix(F5, [[4, 0], [0, 1]]), "2": ExactMatrix.zeros(F5, 4, 0)})
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_matches_json_dumps_of_the_plain_payload(self, value):
        assert "".join(_encode(value)) == json.dumps(plain(value), indent=2, sort_keys=True)

    @pytest.mark.parametrize("item", [
        CheckItem("yang_baxter", True),
        CheckItem("roundtrip[delta/1_2]", False, "first difference at (0,1): 1 != 0"),
        CheckItem("", False, '"quoted"\n'),
    ], ids=["no-detail", "detail", "escaped"])
    def test_check_item_is_its_dict(self, item):
        assert "".join(_encode([item])) == json.dumps([plain(item)], indent=2, sort_keys=True)

    @given(st.sampled_from(FIELDS).flatmap(lambda f: st.tuples(st.just(f), cells_of(f))))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_scalar_strings_need_no_escape(self, field_and_cell):
        # the matrix writer quotes cells without escaping them
        field, cell = field_and_cell
        text = field.format(field.element(cell))
        assert _quote(text) == f'"{text}"'
