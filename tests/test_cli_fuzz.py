"""Fuzzing the CLI's exit-code contract: malformed input files and bad
arguments end with exit 1 (a check failed) or 2 (a schema or usage error),
never with a traceback.

Every generated case is wrong in a key or argument that the command reads,
so exit 0 is a failure too.
"""

import contextlib
import copy
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from braidalg import RATIONALS
from braidalg.cli import main
from braidalg.gallery import exterior_line, flip_braiding
from braidalg.serialize import bialgebra_to_json, braiding_to_json

BRAIDING = braiding_to_json(flip_braiding(RATIONALS, 2))
BIALGEBRA = bialgebra_to_json(exterior_line(RATIONALS))

BAD_FIELDS = [None, "q", [], {}, {"kind": "reals"}, {"kind": "prime"},
              {"kind": "prime", "p": 4}, {"kind": "prime", "p": -7},
              {"kind": "prime", "p": "7"}, {"kind": "prime", "p": 7.0},
              {"kind": "prime", "p": 10 ** 30}, {"kind": "rationals", "p": 3}]
BAD_DIMS = [None, True, "2", 2.0, -1, 0, 1, 3, [], 10 ** 6, 10 ** 40]
# a scalar string is "a" or "a/b": decimals and exponents are refused, and
# an exponent would cost time without bound
SPELLINGS = ["1.5", "1e3", "1e5000"]
BAD_CELLS = [None, True, False, 1.5, "x", "", "1/0", "1//2", *SPELLINGS, [], {}]
BAD_DEGREES = [None, True, "2", 2.5, 0, -1, 3, 40, 10 ** 6, []]


def _mutate_matrix(draw, m):
    """A matrix value that cannot be read in place of ``m``."""
    how = draw(st.sampled_from(["type", "flat", "ragged", "short", "long", "cell"]))
    m = copy.deepcopy(m)
    if how == "type":
        return draw(st.sampled_from([None, "1", 1, {}, True]))
    if how == "flat":
        return [cell for row in m for cell in row]
    if how == "ragged":
        m[draw(st.integers(0, len(m) - 1))].pop()
        return m
    if how == "short":
        return m[:-1]
    if how == "long":
        return m + [list(m[0])]
    i = draw(st.integers(0, len(m) - 1))
    j = draw(st.integers(0, len(m[i]) - 1))
    m[i][j] = draw(st.sampled_from(BAD_CELLS))
    return m


def _mutate(draw, obj, matrix_keys):
    obj = copy.deepcopy(obj)
    key = draw(st.sampled_from(["field", "dim", "drop", *matrix_keys]))
    if key == "field":
        obj["field"] = draw(st.sampled_from(BAD_FIELDS))
    elif key == "dim":
        obj["dim"] = draw(st.sampled_from(BAD_DIMS))
    elif key == "drop":
        del obj[draw(st.sampled_from(["field", "dim", *matrix_keys]))]
    else:
        obj[key] = _mutate_matrix(draw, obj[key])
    return obj


@st.composite
def bad_inputs(draw, dump):
    """``(argv template, file contents)``: one command and a malformed file
    for it.  ``{f}`` in the template is the file, ``{ok}`` a valid braiding
    and ``{okb}`` a valid bialgebra."""
    kind = draw(st.sampled_from(["braiding", "bialgebra", "dump", "toplevel"]))
    if kind == "braiding":
        text = json.dumps(_mutate(draw, BRAIDING, ["c"]))
        argv = draw(st.sampled_from([
            ["verify", "--input", "{f}"],
            ["build", "--input", "{f}", "--degree", "2"],
            ["primitives", "--input", "{f}", "--degree", "3"],
            ["braidrep", "--input", "{f}", "--m", "1", "--n", "2"],
            ["adjunction-check", "--braiding", "{f}", "--bialgebra", "{okb}", "--degree", "3"],
        ]))
    elif kind == "bialgebra":
        text = json.dumps(_mutate(draw, BIALGEBRA, ["m", "u", "delta", "eps", "c"]))
        argv = draw(st.sampled_from([
            ["verify", "--input", "{f}"],
            ["primitives", "--input", "{f}"],
            ["transport", "--input", "{f}", "--twist", "2"],
            ["adjunction-check", "--braiding", "{ok}", "--bialgebra", "{f}", "--degree", "3"],
        ]))
    elif kind == "dump":
        obj = copy.deepcopy(dump)
        where = draw(st.sampled_from(["degree", "blocks", "block", "cell", "braiding"]))
        if where == "degree":
            obj["degree"] = draw(st.sampled_from(BAD_DEGREES))
        elif where == "blocks":
            obj["blocks"] = draw(st.sampled_from([None, [], "x", {}]))
        elif where == "block":
            name = draw(st.sampled_from(sorted(obj["blocks"])))
            obj["blocks"][name] = _mutate_matrix(draw, obj["blocks"][name])
        elif where == "cell":
            # a readable but different value: the roundtrip check must fail
            name = draw(st.sampled_from(sorted(obj["blocks"])))
            block = obj["blocks"][name]
            i = draw(st.integers(0, len(block) - 1))
            j = draw(st.integers(0, len(block[i]) - 1))
            block[i][j] = str(int(block[i][j]) + draw(st.sampled_from([1, 2, -1])))
        else:
            obj = _mutate(draw, obj, ["c"])
        text = json.dumps(obj)
        argv = ["verify", "--input", "{f}"]
    else:
        text = draw(st.sampled_from([
            "[]", "null", "3", '"c"', "{", '{"c": [["1"]]', "", "\x00", '{"dim": 1' + "0" * 5000 + "}",
            json.dumps({"field": {"kind": "rationals"}}),
        ]))
        argv = draw(st.sampled_from([
            ["verify", "--input", "{f}"],
            ["build", "--input", "{f}", "--degree", "2"],
            ["primitives", "--input", "{f}", "--degree", "2"],
            ["transport", "--input", "{ok}", "--g", "{f}"],
        ]))
    return argv, text


# The basis change is read from 'g' alone: an empty 'g', or a file with
# only some other key holding a valid matrix, is a schema error.
G_ALIAS_ARGV = [
    ["transport", "--input", "{okb}", "--g", "{g_empty}"],
    ["transport", "--input", "{okb}", "--g", "{g_alias}"],
]

BAD_ARGV = [
    [],
    ["frobnicate"],
    ["verify"],
    ["verify", "--input", "{missing}"],
    ["verify", "--input", "{dir}"],
    ["build", "--input", "{ok}"],
    ["build", "--input", "{ok}", "--degree", "x"],
    ["build", "--input", "{ok}", "--degree", "0"],
    ["build", "--input", "{ok}", "--degree", "-2"],
    ["build", "--input", "{ok}", "--degree", "11"],
    ["build", "--input", "{ok}", "--degree", "2", "--seed", "s"],
    ["primitives", "--input", "{ok}"],
    ["primitives", "--input", "{ok}", "--degree", "40"],
    ["primitives", "--input", "{ok}", "--degree", "1.5"],
    ["braidrep", "--input", "{ok}", "--m", "-1", "--n", "1"],
    ["braidrep", "--input", "{ok}", "--m", "6", "--n", "6"],
    ["braidrep", "--input", "{ok}", "--m", "1"],
    ["transport", "--input", "{okb}"],
    ["transport", "--input", "{okb}", "--twist", "x"],
    ["transport", "--input", "{okb}", "--twist", "1/0"],
    ["transport", "--input", "{okb}", "--twist", "0"],
    ["transport", "--input", "{okb}", "--twist", "2", "--g", "{ok}"],
    ["transport", "--input", "{okb}", "--g", "{ok}"],
    ["jcheck", "--base", "flip", "--dim", "2"],
    ["jcheck", "--base", "spin", "--dim", "2", "--degree", "3"],
    ["jcheck", "--base", "flip", "--dim", "2", "--degree", "1"],
    ["jcheck", "--base", "flip", "--dim", "0", "--degree", "3"],
    ["jcheck", "--base", "flip", "--dim", "-2", "--degree", "3"],
    ["jcheck", "--base", "flip", "--dim", "9", "--degree", "12"],
    ["jcheck", "--base", "flip", "--dim", "2", "--degree", "3", "--field", "r"],
    ["jcheck", "--base", "flip", "--dim", "2", "--degree", "3", "--field", "fp:4"],
    ["jcheck", "--base", "flip", "--dim", "2", "--degree", "3", "--field", "fp:x"],
    ["jcheck", "--base", "flip", "--dim", "2", "--degree", "3", "--field", "fp:"],
    ["jcheck", "--base", "flip", "--dim", "2", "--degree", "3", "--field", "fp:" + "9" * 30],
    ["jcheck", "--base", "super", "--dim", "2", "--degree", "3"],
    ["jcheck", "--base", "super", "--grading", "0", "--dim", "2", "--degree", "3"],
    ["jcheck", "--base", "super", "--grading", "a,b", "--dim", "2", "--degree", "3"],
    ["jcheck", "--base", "flip", "--grading", "1,1", "--dim", "2", "--degree", "3"],
    ["jcheck", "--base", "super", "--grading", "0,2", "--dim", "2", "--degree", "3"],
    ["adjunction-check", "--braiding", "{ok}", "--bialgebra", "{ok}", "--degree", "3"],
    ["adjunction-check", "--braiding", "{ok}", "--bialgebra", "{okb}", "--degree", "1"],
    ["adjunction-check", "--braiding", "{ok}", "--bialgebra", "{okb}", "--degree", "11"],
    ["adjunction-check", "--braiding", "{ok}", "--bialgebra", "{f5}", "--degree", "3"],
    ["verify", "--input", "{ok}", "--out", "{missing}/r.json"],
    ["verify", "--input", "{ok}", "--out", "{dir}"],
    *G_ALIAS_ARGV,
]


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    out = {"dir": str(root), "missing": str(root / "missing.json"), "f": str(root / "input.json")}
    g = [["1", "0"], ["1", "1"]]
    for name, obj in (("ok", BRAIDING), ("okb", BIALGEBRA),
                      ("f5", braiding_to_json(flip_braiding(RATIONALS, 1)) | {
                          "field": {"kind": "prime", "p": 5}}),
                      ("g_empty", {"g": [], "matrix": g}), ("g_alias", {"matrix": g})):
        out[name] = str(root / f"{name}.json")
        with open(out[name], "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
    code, text, _ = call(["build", "--input", out["ok"], "--degree", "2"])
    assert code == 0
    out["dump"] = json.loads(text)
    return out


def call(argv):
    """Exit code, stdout and stderr of one in-process CLI call.  argparse
    usage errors end in ``SystemExit(2)``; any other exception escapes and
    fails the test, as a traceback would."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_refused(argv):
    code, _, err = call(argv)
    assert code in (1, 2), (argv, code, err)
    assert "Traceback" not in err


@given(data=st.data())
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_malformed_inputs(paths, data):
    argv, text = data.draw(bad_inputs(paths["dump"]))
    with open(paths["f"], "w", encoding="utf-8") as fh:
        fh.write(text)
    assert_refused([a.format(**paths) for a in argv])


@pytest.mark.parametrize("argv", BAD_ARGV, ids=range(len(BAD_ARGV)))
def test_bad_arguments(paths, argv):
    assert_refused([a.format(**paths) for a in argv])


@pytest.mark.parametrize("argv", G_ALIAS_ARGV, ids=["empty-g", "matrix-key"])
def test_basis_change_is_read_from_g_alone(paths, argv):
    code, out, err = call([a.format(**paths) for a in argv])
    assert (code, out) == (2, "")
    assert err.startswith("schema error: 'g'"), err


GOOD_ARGV = [
    ["verify", "--input", "{ok}"],
    ["build", "--input", "{ok}", "--degree", "2"],
    ["primitives", "--input", "{ok}", "--degree", "2"],
    ["braidrep", "--input", "{ok}", "--m", "1", "--n", "1"],
    ["transport", "--input", "{okb}", "--twist", "2"],
    ["jcheck", "--base", "flip", "--dim", "2", "--degree", "2"],
    ["adjunction-check", "--braiding", "{ok}", "--bialgebra", "{okb}", "--degree", "2"],
]


@given(argv=st.sampled_from(GOOD_ARGV + BAD_ARGV), at=st.integers(0, 12),
       junk=st.text(min_size=1, max_size=8).filter(lambda t: not t.startswith("-")))
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_stray_argument(paths, argv, at, junk):
    # an extra positional token is never part of a valid command line
    argv = [a.format(**paths) for a in argv]
    assert_refused(argv[:at] + [junk] + argv[at:])


@pytest.mark.parametrize("cell", SPELLINGS)
def test_scalar_spelling_is_a_or_a_over_b(paths, cell):
    obj = copy.deepcopy(BRAIDING)
    obj["c"][0][0] = cell
    with open(paths["f"], "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    code, out, err = call(["verify", "--input", paths["f"]])
    assert (code, out) == (2, "")
    assert err.startswith("schema error: 'c': "), err


# q = 10^3000 + 1 reads in, but c^{2,1} holds q^2, beyond Python's 4300-digit
# limit for str: the CLI reports it as a failed computation
@pytest.mark.parametrize("argv", [["braidrep", "--m", "2", "--n", "1"], ["build", "--degree", "3"]],
                         ids=["braidrep", "build"])
def test_result_too_long_to_print(paths, argv):
    q = str(10 ** 3000 + 1)
    with open(paths["f"], "w", encoding="utf-8") as fh:
        json.dump({"field": {"kind": "rationals"}, "dim": 1, "c": [[q]]}, fh)
    code, out, err = call([argv[0], "--input", paths["f"], *argv[1:]])
    assert (code, out) == (1, "")
    assert err == "error: cannot print a scalar of 6001 digits: the limit is 4300\n", err


def test_deeply_nested_json(paths):
    with open(paths["f"], "w", encoding="utf-8") as fh:
        fh.write("[" * 200_000 + "]" * 200_000)
    code, out, err = call(["verify", "--input", paths["f"]])
    assert (code, out) == (2, "")
    assert err.startswith(f"schema error: '--input': {paths['f']} is not valid JSON: "), err
