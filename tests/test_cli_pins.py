"""`adjunction-check` and `jcheck` print the same bytes: stdout and exit code
are pinned by sha256.

Each command runs in a temporary directory on input files named by relative
paths, so the paths echoed in the report's `config` are the same on every
machine.  If a change means to alter a report, re-pin its digest and say so.
"""

import hashlib
import json

import pytest

from braidalg import RATIONALS, BialgebraData, ExactMatrix, prime_field
from braidalg.cli import main
from braidalg.gallery import exterior_line, flip_braiding, group_algebra_z2, super_braiding
from braidalg.serialize import bialgebra_to_json, braiding_to_json

F5 = prime_field(5)


def exterior_with_square_one(field):
    """The exterior line with the product changed so that x·x = 1: no longer
    a braided bialgebra, and x is still primitive for its coproduct."""
    B = exterior_line(field)
    m = ExactMatrix(field, [[1, 0, 0, 1], [0, 1, 1, 0]])
    return BialgebraData(field, B.dim, m, B.u, B.delta, B.eps, B.c)


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


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    for name, obj in INPUTS.items():
        (tmp_path / name).write_text(json.dumps(obj))
    monkeypatch.chdir(tmp_path)


def test_every_command_is_pinned():
    assert sorted(COMMANDS) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_and_exit_code(inputs, capsys, name):
    code = main(COMMANDS[name])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == DIGESTS[name], out
