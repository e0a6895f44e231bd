"""Every CLI command prints the same bytes.

`adjunction-check` and `jcheck` are pinned by the sha256 of stdout and the
exit code.  `verify`, `build`, `primitives`, `braidrep` and `transport` are
pinned by exit code, the sha256 of stdout, the exact stderr text and, where
the command is given `--out`, the sha256 of the file it writes; together
they cover every branch of each command: passing and failing checks, the
Yang-Baxter gates, a build dump with a corrupted block, and the errors that
a command reports itself.

Each command runs in a temporary directory on input files named by relative
paths, so the paths echoed in the report's `config` are the same on every
machine.  If a change means to alter a report, re-pin its digest and say so.
"""

import hashlib
import json

import pytest

from braidalg import RATIONALS, BialgebraData, ExactMatrix, prime_field
from braidalg.cli import main
from braidalg.gallery import (
    corrupted_flip,
    exterior_line,
    flip_braiding,
    group_algebra_z2,
    super_braiding,
)
from braidalg.serialize import bialgebra_to_json, braiding_to_json, matrix_to_json
from braidalg.tensoralg import build_truncated

F5 = prime_field(5)


def exterior_with_square_one(field):
    """The exterior line with the product changed so that x·x = 1: no longer
    a braided bialgebra, and x is still primitive for its coproduct."""
    B = exterior_line(field)
    m = ExactMatrix(field, [[1, 0, 0, 1], [0, 1, 1, 0]])
    return BialgebraData(field, B.dim, m, B.u, B.delta, B.eps, B.c)


def build_dump(V, degree):
    """What ``build`` writes, less the envelope that ``verify`` does not read."""
    blocks = {key: matrix_to_json(b) for key, b in build_truncated(V, degree).named_blocks()}
    return {**braiding_to_json(V), "degree": degree, "blocks": blocks}


def tampered(dump):
    blocks = {**dump["blocks"], "delta/1_2": [list(r) for r in dump["blocks"]["delta/1_2"]]}
    blocks["delta/1_2"][0][0] = "9"
    return {**dump, "blocks": blocks}


INPUTS = {
    "flip_q.json": braiding_to_json(flip_braiding(RATIONALS, 2)),
    "flip_f5.json": braiding_to_json(flip_braiding(F5, 2)),
    "super_q.json": braiding_to_json(super_braiding(RATIONALS, (0, 1))),
    "super_f5.json": braiding_to_json(super_braiding(F5, (0, 1))),
    "ext_q.json": bialgebra_to_json(exterior_line(RATIONALS)),
    "ext_f5.json": bialgebra_to_json(exterior_line(F5)),
    "z2_q.json": bialgebra_to_json(group_algebra_z2(RATIONALS)),
    "z2_f5.json": bialgebra_to_json(group_algebra_z2(F5)),
    "xx1_q.json": bialgebra_to_json(exterior_with_square_one(RATIONALS)),
    "bad_q.json": braiding_to_json(corrupted_flip(RATIONALS)),
    "dump_q.json": build_dump(flip_braiding(RATIONALS, 2), 3),
    "dump_tampered_q.json": tampered(build_dump(flip_braiding(RATIONALS, 2), 3)),
    "dump_bad_q.json": build_dump(corrupted_flip(RATIONALS), 2),
    "g_q.json": {"field": {"kind": "rationals"}, "g": [["1", "0"], ["1", "1"]]},
    "g_singular_q.json": {"field": {"kind": "rationals"}, "g": [["1", "1"], ["1", "1"]]},
}


def _adjunction(braid, bialg, degree):
    return ["adjunction-check", "--braiding", f"{braid}.json", "--bialgebra", f"{bialg}.json",
            "--degree", str(degree)]


def _jcheck(base, dim, degree, grading=None, field="q"):
    argv = ["jcheck", "--base", base, "--dim", str(dim), "--degree", str(degree),
            "--field", field]
    return argv + (["--grading", grading] if grading else [])


COMMANDS = {
    **{f"adj_{b}_{f}_{braid}_n{n}": _adjunction(f"{braid}_{f}", f"{b}_{f}", n)
       for b in ("ext", "z2") for f in ("q", "f5") for braid in ("flip", "super")
       for n in range(2, 7)},
    "adj_xx1_q_flip_n3": _adjunction("flip_q", "xx1_q", 3),
    **{f"jcheck_flip_d2_n{n}": _jcheck("flip", 2, n) for n in range(2, 6)},
    **{f"jcheck_super01_d2_n{n}": _jcheck("super", 2, n, "0,1") for n in range(2, 6)},
    "jcheck_super11_d2_n4_f5": _jcheck("super", 2, 4, "1,1", "fp:5"),
    "jcheck_flip_d3_n4": _jcheck("flip", 3, 4),
    "jcheck_super011_d3_n4": _jcheck("super", 3, 4, "0,1,1"),
}

DIGESTS = {
    "adj_ext_f5_flip_n2": (0, "be725e22ee5b06c288c8a397d1252866db7f437d2700feae50670aa58159e5d6"),
    "adj_ext_f5_flip_n3": (0, "fe3cd4aaf8264be711c092bcdbee8d5377afb29887679cd383c1a1f5598f73d3"),
    "adj_ext_f5_flip_n4": (0, "03b1ab176019c0d2f630acefff3cd9e363a5b81cd02a41362830cbd7761730d1"),
    "adj_ext_f5_flip_n5": (0, "9bed424b04f98d493cfc68f087b645ed076c1e0d9639ea58bd7865cb48623df6"),
    "adj_ext_f5_flip_n6": (0, "00d35d077c9110f20ca03d7f13fa8eaf754e8b04450dde9af113759a0f92a62c"),
    "adj_ext_f5_super_n2": (0, "c38eb961887614ae6e16797add62dabb4f0154fe94619843cac9e12bee217702"),
    "adj_ext_f5_super_n3": (0, "c3c476eb748e54cf621749a4dce941b7dc1e1dcb3d7bedb16cbe26768df8c615"),
    "adj_ext_f5_super_n4": (0, "98aefb3151bdace4ca4b5af10bf616cc38ddd51a583b0edcbe17559ce353a5c6"),
    "adj_ext_f5_super_n5": (0, "6d1ad0af3a0285a2d7e47ea816ea6f435d905c76644a90ee24b139187bc3f418"),
    "adj_ext_f5_super_n6": (0, "df13bca386fbbe682f63f470c7d3e9ccf4d7324423ef05baae5be582c308f7d3"),
    "adj_ext_q_flip_n2": (0, "ad9c9c3dfdfbf70044248f9d41ce783d6adad7d91a1cf6b6733a9d457dbe303b"),
    "adj_ext_q_flip_n3": (0, "798bb9dc632aab63d590ff53b896bdedd801c3761069f8cdb11504e0817d15e7"),
    "adj_ext_q_flip_n4": (0, "626619e71d6ffb8e279aa2910eeb448a60c960b725bb9f951d096d63ba6e9407"),
    "adj_ext_q_flip_n5": (0, "a7ab15aae0bc3a38b2eb9dfc5bd6ba0692c3e6b09084a6db25c1f709736f8c3e"),
    "adj_ext_q_flip_n6": (0, "d96ca10d45fd6c4ba61d02e30c507bf42600f6284a24d4d6d515bf2b7d2bc31f"),
    "adj_ext_q_super_n2": (0, "762cf9e40f8465612627f83b5f61e9cf90358959639e595315d94a68f79fa9c0"),
    "adj_ext_q_super_n3": (0, "5624c6f521a8ac9e0eebd30bbf58724b29b6508fcbf5bea1db600f49ff230c92"),
    "adj_ext_q_super_n4": (0, "6b507876bafc72356eb7209d2ac8b1e31e676c3ab8fd072a8d295e6f4132cac6"),
    "adj_ext_q_super_n5": (0, "ad2e0f2fac65d87ae1395fb0db0d18a83cec1084921336cdab3a901941189710"),
    "adj_ext_q_super_n6": (0, "4db5494cd01b6d7fff7a063f1dd5b689b8447e0e6def4cc0a86c201d42873ec7"),
    "adj_xx1_q_flip_n3": (1, "727c2191dbf8683776f9c1871eb06c173b7e6d9b1f42b70f9aaa0800cab84008"),
    "adj_z2_f5_flip_n2": (0, "33f04d47906b86fa5740b0b7351eed300ad78709adcc4a2c7de201de138015e0"),
    "adj_z2_f5_flip_n3": (0, "0d6339e057e585990fc89ff18ecef90a6b9314b16082bfdc3aa94dc6d7550c73"),
    "adj_z2_f5_flip_n4": (0, "36bc2d0d4cb7f96abbd1048fa51d6078f672f4bf88bc0b8ae08c66073c0624b9"),
    "adj_z2_f5_flip_n5": (0, "083a282f436083d26152013215b594db162925c01ee01167c3bff4fac6228591"),
    "adj_z2_f5_flip_n6": (0, "0d7aaafb228b9f1a26df8dcaac25998f64aa59bc231537f4234e6f21f885e37f"),
    "adj_z2_f5_super_n2": (0, "2e19e1c8aa15087dffa5dff18575ed3f3bff3efee7ce981430a09796ef8a8233"),
    "adj_z2_f5_super_n3": (0, "85351fd7659059dbd1107fb6dea7845a6d795c33b0c12dbd1f80451ea3d29273"),
    "adj_z2_f5_super_n4": (0, "ff79c70c23b4f0359d69b2be7f6731fdff0b86d0b1e3fe80afb513d7b0448717"),
    "adj_z2_f5_super_n5": (0, "958203c80ed737eeeab6073f488fc7438732969176e9b34759317bf25ce73b44"),
    "adj_z2_f5_super_n6": (0, "3f621a32b7b7e018fba6290d7c50a360fdbb67706ed93a8588e39b381f0c43e2"),
    "adj_z2_q_flip_n2": (0, "f4d26a0edebe0e2adab61a84ab1a8e39793bd37380ff987aad4a67485a1a93b9"),
    "adj_z2_q_flip_n3": (0, "377eeafc6adb52de13f1a3bf5e0828854930d58cb2a08e49b6f22c37c51beb52"),
    "adj_z2_q_flip_n4": (0, "ceffdc844c19e534d097b0c9bf1ebf91c5658f35e24a62e7ea570ed60ac97cac"),
    "adj_z2_q_flip_n5": (0, "ef99dd7ee0e52f73515133a4da45033a38f8773b97425eb8bc8e9e5c53fea66b"),
    "adj_z2_q_flip_n6": (0, "2ead21a6c0356e68df0243df1edeacda80ddb9ac595e61304e6c3af0f143bf75"),
    "adj_z2_q_super_n2": (0, "0a7b4bda69269bf94c2e17c575922710fae090183649990a5c009dd3392859a0"),
    "adj_z2_q_super_n3": (0, "85fb1481ca6cf485ca88c2965a88f5234a3d3c4af91205947b1df41e6d4fd093"),
    "adj_z2_q_super_n4": (0, "f8f5d27205dbb959d062f2d2fb5f89605a6d2dea3d248e5cb903357d354a8567"),
    "adj_z2_q_super_n5": (0, "eb46689503810986930fc97a4f18ab9da3e61ae4802e913b812f364d03b83824"),
    "adj_z2_q_super_n6": (0, "04c89aec8dd66754c665ed3e67bc5bdace564d4ef8232973f9652f46263c8087"),
    "jcheck_flip_d2_n2": (0, "dca3e31bd8c4fa2c401ca7fa55325ec8b9290cc64bf147449581deadc82bc17a"),
    "jcheck_flip_d2_n3": (0, "97038f63ac152bcb8c2a87f354b57009146cf854535029b7dcf9a7ca91de5dc8"),
    "jcheck_flip_d2_n4": (0, "496b494da63ba07e3e64e28a21448055f81dcb0f5a32078e1b5aee6cd3c149a0"),
    "jcheck_flip_d2_n5": (0, "06bda5bd3618505ad3c6bf4e5af8430c1905f09cb9db50edfcac72f887d5e9c1"),
    "jcheck_flip_d3_n4": (0, "064f3a4649362c19eb94f5625f0d84308e23dc41b7564a6f5caf16ef5ae1514b"),
    "jcheck_super011_d3_n4": (0, "ff7baed703e220e59c8b34cd19da839a00c3c3989f69bf10633b8d61b6a1e802"),
    "jcheck_super01_d2_n2": (0, "a3a8f2282bca5ff24fddf226308ca1689cd46d901c4ac6060ce45401ecdc983b"),
    "jcheck_super01_d2_n3": (0, "a9920176e09ab0a71e8951b53cc8c0cb5ae6c9e98367f264e957f065fd721e6f"),
    "jcheck_super01_d2_n4": (0, "f539b94420bad3f47d9452641fa2445fcfddfa2de9db3881e2a169f653db6764"),
    "jcheck_super01_d2_n5": (0, "4cfb8b9e9b79ab927fe88ad733b2c7c2c564256510d0650e14976959be90eeff"),
    "jcheck_super11_d2_n4_f5": (0, "46e21b845d14374e5e9fba3ecca6bc0291671b2adac140a79088da7dc70f00db"),
}


# name -> (argv, the file it writes with --out, or None)
REPORT_COMMANDS = {
    "verify_flip_q": (["verify", "--input", "flip_q.json"], None),
    "verify_bad_q": (["verify", "--input", "bad_q.json"], None),
    "verify_ext_q": (["verify", "--input", "ext_q.json"], None),
    "verify_xx1_q": (["verify", "--input", "xx1_q.json"], None),
    "verify_dump_q": (["verify", "--input", "dump_q.json"], None),
    "verify_dump_tampered_q": (["verify", "--input", "dump_tampered_q.json"], None),
    "verify_dump_bad_q": (["verify", "--input", "dump_bad_q.json"], None),
    "verify_flip_q_out": (["verify", "--input", "flip_q.json", "--out", "r.json"], "r.json"),
    "build_flip_q_n2": (["build", "--input", "flip_q.json", "--degree", "2"], None),
    "build_flip_f5_n3_out": (["build", "--input", "flip_f5.json", "--degree", "3",
                              "--out", "dump.json"], "dump.json"),
    "build_bad_q_n2": (["build", "--input", "bad_q.json", "--degree", "2"], None),
    "primitives_flip_q_n4": (["primitives", "--input", "flip_q.json", "--degree", "4"], None),
    "primitives_super_f5_n3": (["primitives", "--input", "super_f5.json", "--degree", "3"], None),
    "primitives_bad_q_n3": (["primitives", "--input", "bad_q.json", "--degree", "3"], None),
    "primitives_ext_q": (["primitives", "--input", "ext_q.json"], None),
    "primitives_z2_f5": (["primitives", "--input", "z2_f5.json"], None),
    "primitives_xx1_q": (["primitives", "--input", "xx1_q.json"], None),
    "braidrep_flip_q_1_2": (["braidrep", "--input", "flip_q.json", "--m", "1", "--n", "2"], None),
    "braidrep_super_f5_2_1_out": (["braidrep", "--input", "super_f5.json", "--m", "2", "--n", "1",
                                   "--seed", "7", "--out", "rep.json"], "rep.json"),
    "braidrep_bad_q": (["braidrep", "--input", "bad_q.json", "--m", "1", "--n", "1"], None),
    "transport_ext_q_g": (["transport", "--input", "ext_q.json", "--g", "g_q.json"], None),
    "transport_ext_q_twist": (["transport", "--input", "ext_q.json", "--twist", "3/2"], None),
    "transport_z2_f5_twist": (["transport", "--input", "z2_f5.json", "--twist", "3"], None),
    "transport_ext_q_singular_g": (["transport", "--input", "ext_q.json",
                                    "--g", "g_singular_q.json"], None),
    "transport_xx1_q_twist": (["transport", "--input", "xx1_q.json", "--twist", "2"], None),
}

# name -> (exit code, sha256 of stdout, stderr, sha256 of the --out file or None)
REPORT_PINS = {
    "braidrep_bad_q": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: input braiding fails yang_baxter\n", None),
    "braidrep_flip_q_1_2": (0, "2531e8f0c44570ee1bf67161dc1506f47e44639cabfaa0a02653a21080c82d08",
        "", None),
    "braidrep_super_f5_2_1_out": (0, "a92f39d4587c7cf1b5e2d632928e7972ce5eab66e4df950f2ccf1f9ce6753c5f",
        "", "a92f39d4587c7cf1b5e2d632928e7972ce5eab66e4df950f2ccf1f9ce6753c5f"),
    "build_bad_q_n2": (1, "ccbe12d7386a339f424be89ca70cfc0f2f38a994da3fb2b5a132036d8d0c8a21",
        "", None),
    "build_flip_f5_n3_out": (0, "0d1063580904af018b52c35e899d69fd75a583ac62e12d4adbd0787e2daf525f",
        "", "0d1063580904af018b52c35e899d69fd75a583ac62e12d4adbd0787e2daf525f"),
    "build_flip_q_n2": (0, "4c8129b64bb15063880772aa82d80816d16bc416da575b84dc3333ca07831700",
        "", None),
    "primitives_bad_q_n3": (1, "b1098ca4e16d2262539ffde9d9e1d436b84c0cd061b68f3aab7a44b491ab7000",
        "", None),
    "primitives_ext_q": (0, "902e7973e21ba1d4f63020048e78dae89c3a7477067de16929fe082bf3c77735",
        "", None),
    "primitives_flip_q_n4": (0, "c089713f4daa4542908978caef5ef9981d519abcdcce640a6231f8a487f95c35",
        "", None),
    "primitives_super_f5_n3": (0, "c27c58e1e4e09f15b9925ee31a946a21a11dc0c7ba42d6395fe69a6d36c77cb0",
        "", None),
    "primitives_xx1_q": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: not a braided bialgebra: coproduct_of_product\n", None),
    "primitives_z2_f5": (0, "f8d4c95821b0179c4a7a1bea7420bddd1edb427d8443344c74d87d9230dcda17",
        "", None),
    "transport_ext_q_g": (0, "965e3d55fef01e98ea94655ff112daafc9ee030c504f54e73a05eba0415e56a7",
        "", None),
    "transport_ext_q_singular_g": (1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "error: basis change must be invertible: matrix is singular\n", None),
    "transport_ext_q_twist": (0, "e43dfb87208e73d8f7016cff9a72c5efb91cb35262cbba19e9418258b5a41d8d",
        "", None),
    "transport_xx1_q_twist": (1, "970a937eed8ad212e1d3aa2b38951dd1e50f35f502c84a93ab26221edaa1b433",
        "", None),
    "transport_z2_f5_twist": (0, "48235a0282be83966a431ae5a34604e495747fc12a45233afe3458924829dbee",
        "", None),
    "verify_bad_q": (1, "7ee39e721dcd82330abafbb4bb8588bbfb3fe4e5913211d6ca896af3e490bb43",
        "", None),
    "verify_dump_bad_q": (1, "7aeafaf56a5a441eda8917ed6a19124038cd4ec55b31704eb4ede63ca938b798",
        "", None),
    "verify_dump_q": (0, "f4fba48b7ce774c53b32dd0a2920558f0e55d250eb0ea7af65c706bbf5b8ab1b",
        "", None),
    "verify_dump_tampered_q": (1, "556229a86145e1d517598f1a2b3f1ebdedb9caecbf470b3f721c3586f9bd0a43",
        "", None),
    "verify_ext_q": (0, "194454d39e0b0229ba1f71ac3fd334d1e1b93fbcc25dc86b666125a609c7470b",
        "", None),
    "verify_flip_q": (0, "7a5be0d45bf049a0aeca593cdeda67de25467e85945602e1e64e89be06e4eab5",
        "", None),
    "verify_flip_q_out": (0, "7a5be0d45bf049a0aeca593cdeda67de25467e85945602e1e64e89be06e4eab5",
        "", "7a5be0d45bf049a0aeca593cdeda67de25467e85945602e1e64e89be06e4eab5"),
    "verify_xx1_q": (1, "7e62fba6ea4d104b1c495397fb4c6ac267cb93ba01975c3d5e0be4bc57d58728",
        "", None),
}


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    for name, obj in INPUTS.items():
        (tmp_path / name).write_text(json.dumps(obj))
    monkeypatch.chdir(tmp_path)


def test_every_command_is_pinned():
    assert sorted(COMMANDS) == sorted(DIGESTS)
    assert sorted(REPORT_COMMANDS) == sorted(REPORT_PINS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_and_exit_code(inputs, capsys, name):
    code = main(COMMANDS[name])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == DIGESTS[name], out


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(REPORT_COMMANDS))
def test_report_stdout_stderr_and_exit_code(inputs, capsys, name):
    argv, out_file = REPORT_COMMANDS[name]
    code = main(argv)
    captured = capsys.readouterr()
    written = sha256(open(out_file, encoding="utf-8").read()) if out_file else None
    got = (code, sha256(captured.out), captured.err, written)
    assert got == REPORT_PINS[name], (got, captured.out)
