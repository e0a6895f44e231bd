"""Every demo prints the same bytes: stdout is pinned by its sha256.

The digests were taken before matrix storage went sparse, so they also
check that the storage of a matrix never shows in what a demo prints.
If a change means to alter a demo's output, re-pin its digest and say so.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

DIGESTS = {
    "01_yang_baxter_check.py": "41209ab0d86aadd41ced08eb70658ebc0ebe8ee2d7ec7c760c608db3d3e18b4f",
    "02_braid_blocks.py": "abfda00c8f70dda5f650d49041f06589c04ccdb6e38874a00b743c3b5193cb5b",
    "03_tensor_bialgebra.py": "46ad61427d8d83a787992000e0de59bf0399f54ccbf3e1209f1c5fae0df94870",
    "04_primitives.py": "e0ebdd5482d3247bb9c0837ba152c76200b2162be8937ea994c667d70e1e4142",
    "05_adjunctions.py": "656337e29ec3f1bc7f179586d6370f28fa09b5ed51629c325a817f5c899a3e70",
    "06_transport.py": "f81bf40b3d0bdcb80e8376891ee7615b2fc7b4a52c3d7ca55bc7b988eb6ed387",
    "07_cli_roundtrip.py": "4069abe18f9249ac5bc53578342895667b90acc7197f56e4056301300d4647cf",
    "08_product_algebras.py": "7b61e5b22f31afbaa0d6b992148e1c3d6159fbba2b593375233344dd2f23d51e",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DIGESTS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_demo_stdout(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    run = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=ROOT, env=env,
                         capture_output=True, timeout=120)
    assert run.returncode == 0, run.stderr.decode()
    assert hashlib.sha256(run.stdout).hexdigest() == DIGESTS[name], run.stdout.decode()
