"""Acceptance criteria, one test per criterion.

Every numeric comparison is exact (zero tolerance); each criterion also
carries a wall-clock budget and prints one pass/fail line.
"""

import hashlib
import io
import json
import random
import time
import tracemalloc
from contextlib import contextmanager, redirect_stdout

from braidalg import (
    RATIONALS,
    BraidRepCache,
    ExactMatrix,
    NotInvertible,
    basis_change,
    build_adjunction_witness,
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
    diagonal_twist_braiding,
    exterior_line,
    flip_braiding,
    group_algebra_z2,
    parity_grid,
    scalar_braiding,
    super_braiding,
)
from braidalg.serialize import bialgebra_to_json, braiding_to_json
from braidalg.transport import direct_power_braiding

from oracles import (
    OracleBraidRepCache,
    gaussian_binomial,
    restricted_witt_dimension,
    unshuffle_block,
    witt_dimension,
)

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
            gallery.append(transport_bialgebra(basis_change(g), exterior_line(F5)))
        for B in gallery:
            space = primitives(B)
            xx = space.inclusion.kron(space.inclusion)
            assert xx * space.braiding == B.c * xx
            if space.dim:
                space.braiding.inverse()
                assert check_yang_baxter(space.braided_object()).passed


def test_criterion_7_adjunction_triangles():
    with budget("7 adjunction triangles"):
        bialgebras = [exterior_line(RATIONALS), group_algebra_z2(RATIONALS),
                      exterior_line(F5), group_algebra_z2(F5)]
        for B in bialgebras:
            assert check_triangles_T_Omega(B, 4)
            w = build_adjunction_witness(B, 4)
            assert check_zeta_coalgebra(w).passed
            assert (B.eps * w.space.inclusion).is_zero()
            assert check_triangles_Tbar_P(w)


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
                moved = transport_bialgebra(F, B)
                assert check_braided_bialgebra(moved).passed
                assert primitives(moved, check=False).dim == base_dims[i]
                assert check_primfunct_square(F, B)


def test_criterion_9_j_compatibility():
    with budget("9 J compatibility"):
        grids = []
        for d in (1, 2):
            grids.append([[1] * d] * d)
            for grading in all_gradings(d):
                grids.append(parity_grid(grading))
        for grid in grids:
            cache = BraidRepCache(diagonal_twist_braiding(RATIONALS, grid))
            for m in range(6):
                for n in range(6 - m):
                    assert cache.block(m, n) == direct_power_braiding(RATIONALS, grid, m, n), \
                        (grid, m, n)


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
    # criterion 11 one degree further in each dimension; the flip is a
    # symmetry, so degree 10 at d=2 eliminates the 112 x 1024 spanning set of
    # [P_9, V] over Q, not the 2440 x 1024 thinned coproduct stack
    with budget("12 primitive frontier", 30.0):
        for d, N in ((2, 10), (3, 7)):
            T = build_truncated(flip_braiding(RATIONALS, d), N)
            assert tensor_primitive_dims(T) == [witt_dimension(d, n) for n in range(1, N + 1)]


def test_criterion_13_primitive_frontier_image():
    # one degree beyond criterion 12, reached by the image route alone
    with budget("13 primitive frontier", 30.0):
        for d, N in ((2, 11), (3, 8)):
            T = build_truncated(flip_braiding(RATIONALS, d), N)
            assert tensor_primitive_dims(T) == [witt_dimension(d, n) for n in range(1, N + 1)]


def test_criterion_14_restricted_primitive_frontier():
    # the graded primitives of T(V) for the flip over F_p are the free
    # restricted Lie algebra: degrees divisible by p add the p-th powers
    with budget("14 restricted primitive frontier", 30.0):
        for p in (2, 5):
            T = build_truncated(flip_braiding(prime_field(p), 2), 10)
            assert tensor_primitive_dims(T) == [restricted_witt_dimension(2, n, p)
                                                for n in range(1, 11)]


def test_criterion_15_zero_primitives_over_q(tmp_path, capsys):
    # a non-symmetric grid over Q has P_n = 0 for n >= 2; elimination over Q
    # alone takes minutes at degree 10, and the zero-kernel certificate mod a
    # prime decides every degree from 2 on
    with budget("15 zero primitives over Q", 30.0):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(braiding_to_json(diagonal_twist_braiding(RATIONALS, [[2, 3], [5, 7]]))))
        assert cli_main(["primitives", "--input", str(path), "--degree", "10"]) == 0
        assert json.loads(capsys.readouterr().out)["dims"] == [2] + [0] * 9


def test_criterion_16_build_dump_frontier(tmp_path):
    # the dump of T(V) for the d=2 flip at degree 8 is about 20 MB; it is
    # encoded once, as pieces of at most one block, and written from them
    # to --out and to stdout
    with budget("16 build dump frontier", 30.0):
        source, out, stdout = tmp_path / "flip.json", tmp_path / "dump.json", tmp_path / "stdout.json"
        source.write_text(json.dumps(braiding_to_json(flip_braiding(RATIONALS, 2))))
        with open(stdout, "w", encoding="utf-8") as fh, redirect_stdout(fh):
            tracemalloc.start()
            try:
                assert cli_main(["build", "--input", str(source), "--degree", "8", "--out", str(out)]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        text = out.read_text()
        assert stdout.read_text() == text
        assert peak <= 1.5 * len(text), (peak, len(text))
        blocks = json.loads(text)["blocks"]
        for k in range(9):
            assert blocks[f"delta/{k}_8"] == [[str(x) for x in row] for row in unshuffle_block(2, k, 8)], k


def test_criterion_17_verify_frontier(tmp_path, monkeypatch):
    # verify rebuilds every block of the degree-8 dump of the d=2 flip and
    # runs the whole axiom suite on it, 1547 checks with the round trips;
    # the report's bytes are pinned by the sha256 it had before the
    # column-map paths
    monkeypatch.chdir(tmp_path)
    (tmp_path / "flip.json").write_text(json.dumps(braiding_to_json(flip_braiding(RATIONALS, 2))))
    with budget("17 verify frontier", 30.0):
        with redirect_stdout(io.StringIO()):
            assert cli_main(["build", "--input", "flip.json", "--degree", "8", "--out", "dump.json"]) == 0
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli_main(["verify", "--input", "dump.json"]) == 0
    report = out.getvalue()
    assert json.loads(report)["passed"] is True
    assert hashlib.sha256(report.encode()).hexdigest() == (
        "5495c345d45f27ee04fda533e68e7779d736fb4f0e29e302d9b8dab0d4a68c02")


def test_criterion_18_primitive_frontier_row_space():
    # one degree beyond criterion 13 at d=2: the commutators of each degree
    # are made in one pass over the basis rows of the one below, and every
    # elimination takes its rows highest leading column first
    with budget("18 primitive frontier", 10.0):
        T = build_truncated(flip_braiding(RATIONALS, 2), 12)
        assert tensor_primitive_dims(T) == [witt_dimension(2, n) for n in range(1, 13)]
