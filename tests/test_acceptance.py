"""Acceptance criteria, one test per criterion.

Every numeric comparison is exact (zero tolerance); each criterion also
carries a wall-clock budget and prints one pass/fail line.
"""

import json
import random
import time
from contextlib import contextmanager

from braidalg import (
    RATIONALS,
    BraidRepCache,
    ExactMatrix,
    NotInvertible,
    OracleBraidRepCache,
    basis_change,
    build_truncated,
    check_braided_bialgebra,
    check_hexagon,
    check_primfunct_square,
    check_triangles_T_Omega,
    check_triangles_Tbar_P,
    check_truncated_axioms,
    check_yang_baxter,
    check_zeta_coalgebra,
    prime_field,
    primitives,
    tensor_primitive_dims,
    transport_bialgebra,
)
from braidalg.cli import main as cli_main
from braidalg.gallery import (
    all_gradings,
    braiding_gallery,
    corrupted_flip,
    exterior_line,
    flip_braiding,
    group_algebra_z2,
    scalar_braiding,
    super_braiding,
)
from braidalg.serialize import bialgebra_to_json, braiding_to_json
from braidalg.transport import FLIP, SUPER, BaseBraiding, direct_power_braiding

from oracles import gaussian_binomial, witt_dimension

F5 = prime_field(5)


@contextmanager
def budget(criterion, seconds=None):
    """Time a criterion; ``seconds`` only for the criteria whose acceptance
    statement pins a wall-clock bound."""
    start = time.perf_counter()
    failed = False
    try:
        yield
    except BaseException:
        failed = True
        raise
    finally:
        elapsed = time.perf_counter() - start
        over = seconds is not None and elapsed >= seconds
        status = "FAIL" if failed or over else "PASS"
        tail = f", budget {seconds}s" if seconds is not None else ""
        print(f"ACCEPTANCE {criterion}: {status} ({elapsed:.2f}s{tail})")
    if seconds is not None:
        assert elapsed < seconds, f"criterion {criterion} exceeded {seconds}s ({elapsed:.2f}s)"


def test_criterion_1_qybe_gallery():
    with budget("1 qybe gallery", 1.0):
        for d in (1, 2, 3):
            assert check_yang_baxter(flip_braiding(RATIONALS, d)).passed
            for grading in all_gradings(d):
                assert check_yang_baxter(super_braiding(RATIONALS, grading)).passed
        for field in (RATIONALS, F5):
            for q in (1, 2, -1):
                assert check_yang_baxter(scalar_braiding(field, q)).passed
        rep = check_yang_baxter(corrupted_flip(RATIONALS))
        assert not rep.passed
        located = [i for i in rep.failures() if "first difference at (" in i.detail]
        assert located


def test_criterion_2_dual_schedule_oracle():
    with budget("2 dual-schedule oracle", 10.0):
        for name, V in braiding_gallery(max_dim=2):
            left = BraidRepCache(V)
            right = OracleBraidRepCache(V)
            for m in range(7):
                for n in range(7 - m):
                    assert left.block(m, n) == right.block(m, n), (name, m, n)


def test_criterion_3_hexagon():
    with budget("3 hexagon", 30.0):
        for name, V in braiding_gallery(max_dim=2):
            cache = BraidRepCache(V)
            for l in range(7):
                for m in range(7 - l):
                    for n in range(7 - l - m):
                        assert check_hexagon(l, m, n, V, cache), (name, l, m, n)


def test_criterion_4_truncated_bialgebra_axioms():
    with budget("4 truncated axioms", 60.0):
        T = build_truncated(flip_braiding(RATIONALS, 2), 4)
        assert check_truncated_axioms(T).passed
        T5 = build_truncated(scalar_braiding(F5, 2), 4)
        assert check_truncated_axioms(T5).passed
        blocks = dict(T.coproduct_blocks)
        grid = [list(r) for r in blocks[(1, 3)].data]
        grid[2][5] = RATIONALS.element(grid[2][5] + 1)
        blocks[(1, 3)] = ExactMatrix(RATIONALS, grid)
        corrupt = type(T)(T.V, T.N, T.braid, blocks)
        assert not check_truncated_axioms(corrupt).passed


def test_criterion_5_primitive_dimensions():
    with budget("5 primitive dims"):
        T = build_truncated(flip_braiding(RATIONALS, 2), 4)
        dims = tensor_primitive_dims(T)
        assert dims == [2, 1, 2, 3]
        assert dims == [witt_dimension(2, n) for n in range(1, 5)]

        T5 = build_truncated(scalar_braiding(F5, 2), 4)
        dims5 = tensor_primitive_dims(T5)
        assert dims5 == [1, 0, 0, 1]
        for n in range(1, 5):
            vanish = all(gaussian_binomial(n, k, 2) % 5 == 0 for k in range(1, n))
            assert dims5[n - 1] == (1 if vanish else 0)

        space = primitives(exterior_line(RATIONALS))
        assert space.dim == 1
        assert space.braiding == ExactMatrix(RATIONALS, [[-1]])


def test_criterion_6_induced_braiding():
    with budget("6 induced braiding"):
        gallery = [exterior_line(RATIONALS), exterior_line(F5),
                   group_algebra_z2(RATIONALS), group_algebra_z2(F5)]
        rng = random.Random(0)
        for _ in range(5):
            while True:
                g = ExactMatrix(F5, [[rng.randrange(5) for _ in range(2)] for _ in range(2)])
                try:
                    g.inverse()
                    break
                except NotInvertible:
                    continue
            gallery.append(transport_bialgebra(basis_change(g), exterior_line(F5), check=False))
        for B in gallery:
            space = primitives(B)
            xx = space.inclusion.kron(space.inclusion)
            assert xx * space.braiding == B.c * xx
            if space.dim:
                space.braiding.inverse()
                assert check_yang_baxter(space.braided_object()).passed


def test_criterion_7_adjunction_triangles():
    with budget("7 adjunction triangles"):
        braided = [flip_braiding(RATIONALS, 2), super_braiding(RATIONALS, (0, 1)),
                   scalar_braiding(F5, 2)]
        bialgebras = [exterior_line(RATIONALS), group_algebra_z2(RATIONALS),
                      exterior_line(F5), group_algebra_z2(F5)]
        for V in braided:
            assert check_triangles_T_Omega(V, 4)
        for B in bialgebras:
            assert check_zeta_coalgebra(B, 4).passed
            space = primitives(B, check=False)
            assert (B.eps * space.inclusion).is_zero()
        for V in braided:
            for B in bialgebras:
                if V.field != B.field:
                    continue
                assert check_triangles_Tbar_P(V, B, 4)


def test_criterion_8_transport_coherence():
    with budget("8 transport coherence", 60.0):
        rng = random.Random(0)
        subjects = [exterior_line(F5), group_algebra_z2(F5)]
        base_dims = {i: primitives(B, check=False).dim for i, B in enumerate(subjects)}
        count = 0
        while count < 20:
            g = ExactMatrix(F5, [[rng.randrange(5) for _ in range(2)] for _ in range(2)])
            try:
                F = basis_change(g)
            except NotInvertible:
                continue
            count += 1
            for i, B in enumerate(subjects):
                moved = transport_bialgebra(F, B, check=False)
                assert check_braided_bialgebra(moved).passed
                assert primitives(moved, check=False).dim == base_dims[i]
                assert check_primfunct_square(F, B)


def test_criterion_9_j_compatibility():
    with budget("9 J compatibility"):
        cases = []
        for d in (1, 2):
            cases.append((BaseBraiding(FLIP), d))
            for grading in all_gradings(d):
                cases.append((BaseBraiding(SUPER, grading), d))
        for base, d in cases:
            from braidalg.transport import J_braiding

            V = J_braiding(base, d, RATIONALS)
            cache = BraidRepCache(V)
            for m in range(6):
                for n in range(6 - m):
                    assert cache.block(m, n) == direct_power_braiding(base, d, RATIONALS, m, n), \
                        (base.kind, base.grading, d, m, n)


def test_criterion_10_cli_determinism_roundtrip(tmp_path, capsys):
    with budget("10 cli determinism"):
        flip_path = tmp_path / "flip.json"
        flip_path.write_text(json.dumps(braiding_to_json(flip_braiding(RATIONALS, 2))))
        ext_path = tmp_path / "ext.json"
        ext_path.write_text(json.dumps(bialgebra_to_json(exterior_line(RATIONALS))))
        built = tmp_path / "built.json"

        assert cli_main(["build", "--input", str(flip_path), "--degree", "3",
                         "--out", str(built)]) == 0
        capsys.readouterr()
        assert cli_main(["verify", "--input", str(built)]) == 0
        first = capsys.readouterr().out
        assert cli_main(["verify", "--input", str(built)]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert json.loads(first)["passed"] is True

        assert cli_main(["verify", "--input", str(ext_path)]) == 0
        rep1 = capsys.readouterr().out
        assert cli_main(["verify", "--input", str(ext_path)]) == 0
        assert rep1 == capsys.readouterr().out

        built2 = tmp_path / "built2.json"
        assert cli_main(["build", "--input", str(flip_path), "--degree", "3",
                         "--out", str(built2)]) == 0
        assert built.read_text() == built2.read_text()


def test_criterion_11_primitive_frontier():
    # the graded primitives of T(V) for the flip are the free Lie algebra,
    # so every degree must match the Witt number
    with budget("11 primitive frontier", 30.0):
        for d, N in ((2, 9), (3, 6)):
            T = build_truncated(flip_braiding(RATIONALS, d), N)
            assert tensor_primitive_dims(T) == [witt_dimension(d, n) for n in range(1, N + 1)]


def test_criterion_12_primitive_frontier_one_degree_up():
    # criterion 11 one degree further in each dimension: degree 10 at d=2
    # alone eliminates a 9216 x 1024 stack over Q
    with budget("12 primitive frontier", 30.0):
        for d, N in ((2, 10), (3, 7)):
            T = build_truncated(flip_braiding(RATIONALS, d), N)
            assert tensor_primitive_dims(T) == [witt_dimension(d, n) for n in range(1, N + 1)]
