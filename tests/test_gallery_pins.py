"""The stock gallery braidings, cell for cell.

Each case is pinned by the sha256 of its braiding and inverse braiding as
strings, together with the position and Python type of every stored cell,
so a change in how a braiding is built that moves a value or stores a cell
in another form (an ``int`` against a ``Fraction``) shows here.  If a change
means to alter a braiding, re-pin its digest and say so.
"""

import hashlib
import json

import pytest

from braidalg import RATIONALS, prime_field
from braidalg.gallery import (
    all_gradings,
    diagonal_twist_braiding,
    flip_braiding,
    scalar_braiding,
    super_braiding,
)

F5 = prime_field(5)
FIELDS = {"Q": RATIONALS, "F5": F5}


def cells(m):
    return [[i, j, type(x).__name__] for i, row in enumerate(m.nonzeros) for j, x in sorted(row.items())]


def digest(V):
    text = json.dumps({"dim": V.dim, "c": V.c.to_strings(), "c_inv": V.c_inv.to_strings(),
                       "c_cells": cells(V.c), "c_inv_cells": cells(V.c_inv)}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


CASES = {
    **{f"flip_d{d}_{t}": (lambda f=f, d=d: flip_braiding(f, d))
       for d in (1, 2, 3) for t, f in FIELDS.items()},
    **{f"super_{''.join(map(str, g))}_{t}": (lambda f=f, g=g: super_braiding(f, g))
       for d in (1, 2, 3) for g in all_gradings(d) for t, f in FIELDS.items()},
    **{f"scalar_q{q}_{t}": (lambda f=f, q=q: scalar_braiding(f, q))
       for q in (1, 2, -1) for t, f in FIELDS.items()},
    "twist_F5": lambda: diagonal_twist_braiding(F5, [[4, 2], [3, 2]]),
    "twist_Q": lambda: diagonal_twist_braiding(RATIONALS, [[-1, 2], ["1/2", 3]]),
}

PINS = {
    "flip_d1_F5": "83b90b7b7fd9c2166a29b2ecbd41f8e496631dc7e0499b9548333be5269e5c37",
    "flip_d1_Q": "83b90b7b7fd9c2166a29b2ecbd41f8e496631dc7e0499b9548333be5269e5c37",
    "flip_d2_F5": "25e3bb59010f2c76f396f0f3c835171f19ee0ebcf1541f3e86f89c2d15f665e3",
    "flip_d2_Q": "25e3bb59010f2c76f396f0f3c835171f19ee0ebcf1541f3e86f89c2d15f665e3",
    "flip_d3_F5": "374c1621db572d5ed8e11f3cca54efbde369e0ebef67f43408de2ec5fc09a039",
    "flip_d3_Q": "374c1621db572d5ed8e11f3cca54efbde369e0ebef67f43408de2ec5fc09a039",
    "scalar_q-1_F5": "94bbe821e5b5e2eca9b8c658d63d128c7679cba237f0c32635afea1a05c1f321",
    "scalar_q-1_Q": "e8b285783dc32dee66c38e31bcf20bdf50794b929a48ed14b45966470025a0e8",
    "scalar_q1_F5": "83b90b7b7fd9c2166a29b2ecbd41f8e496631dc7e0499b9548333be5269e5c37",
    "scalar_q1_Q": "83b90b7b7fd9c2166a29b2ecbd41f8e496631dc7e0499b9548333be5269e5c37",
    "scalar_q2_F5": "b67eb88b8c82c35c38235d8f5829efa5f22f116ab7b60b57bc55af9abca1ae99",
    "scalar_q2_Q": "d5e51f1d47cad65fe70f2c4b71b1a14883d878465a28c1f9e1ca8b0ac82099c9",
    "super_000_F5": "374c1621db572d5ed8e11f3cca54efbde369e0ebef67f43408de2ec5fc09a039",
    "super_000_Q": "374c1621db572d5ed8e11f3cca54efbde369e0ebef67f43408de2ec5fc09a039",
    "super_001_F5": "90f84582e8e749c285ee2c0343c342015eb15ea62e4b4b773fd15f9dca62df0f",
    "super_001_Q": "9761791cdf94ffe57b1b45cc685481e53454f80cb8d55ab5595d24a663af585b",
    "super_00_F5": "25e3bb59010f2c76f396f0f3c835171f19ee0ebcf1541f3e86f89c2d15f665e3",
    "super_00_Q": "25e3bb59010f2c76f396f0f3c835171f19ee0ebcf1541f3e86f89c2d15f665e3",
    "super_010_F5": "e8a6b28d0501cd753c35ce630ff3a8f074c0f455491ef60e89d8d707015bccc2",
    "super_010_Q": "850a5b8c384b9aae52cc92680e137bc24bf959aa2f1c017b3c4dc7e0aee13ef8",
    "super_011_F5": "abaa787ee6613d75b7a2b2a453c7437971ec230ad9aac8209ac2a2e2bf69fb3d",
    "super_011_Q": "e3d1ededb2c1269f77e57a60eb51b649bb79d41395940b3aa08d196f77e4e1b6",
    "super_01_F5": "9b2772fa420c93ea33b07742680100c3ec6832bb175e6942627db74a23316c8a",
    "super_01_Q": "4fbc6956ceae575bd4956d119855043ee1e74baaf399ded05d3e4369fa54bf99",
    "super_0_F5": "83b90b7b7fd9c2166a29b2ecbd41f8e496631dc7e0499b9548333be5269e5c37",
    "super_0_Q": "83b90b7b7fd9c2166a29b2ecbd41f8e496631dc7e0499b9548333be5269e5c37",
    "super_100_F5": "4394eb96eb676357c244032c9d0b2b1406b8fbad090e13a1d6affdebf5d87067",
    "super_100_Q": "774d4199e7566439737a49ce391c7c7e9e6a2fdd4afb9de360b629f997c0257b",
    "super_101_F5": "2531347c6b60657b95f705eea1e98a25e64d9ef43d0d8e8c2f96dc18357741c7",
    "super_101_Q": "6747a96429209de94317ddd0cd7a9044c1086dac3bcf445e6ac58ed384f34257",
    "super_10_F5": "058b266ed2a1c71cdf148938f6d044c209299e605bceda92ded29171916dd732",
    "super_10_Q": "474fdd355f10082bc5f7d414f31ab04d9d85dbaf0c10e54370c6cdeecf21a0ff",
    "super_110_F5": "95121621ea9de4bb192fd38b0867c89ac5c91151db30e5b3ad26bcb4f31a6467",
    "super_110_Q": "88ef28ba23b4757d33634c0b1874b3b858381b8d14e8ff84f23d050532b4ed86",
    "super_111_F5": "61bbfcc1b3b83b0cc9846aebbe44ad308473cdec839bb5017521959de3b0c33e",
    "super_111_Q": "91eaa5bed412a31250f1944af82ef039435f8c788ceb723e984cd617ff8666ba",
    "super_11_F5": "f942ec30bbc8d14a47e705fd7eb8b4c0f0491c38f36f2bd1defc856cbc229db8",
    "super_11_Q": "f0feb6c858197f05fb3dc47d3c605e78fa04c335a2d35c3607615dd77ccf00c8",
    "super_1_F5": "94bbe821e5b5e2eca9b8c658d63d128c7679cba237f0c32635afea1a05c1f321",
    "super_1_Q": "e8b285783dc32dee66c38e31bcf20bdf50794b929a48ed14b45966470025a0e8",
    "twist_F5": "6a94c11b44f65acb28e6c9847807cd0063e64aec2c474f4c0e7ebf3db3bbc785",
    "twist_Q": "481210a8046f7cb44df7f535b3e490192da6c5c3e735c9ca66909773357dbbb0",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_gallery_braiding_is_pinned(name):
    assert digest(CASES[name]()) == PINS[name]
