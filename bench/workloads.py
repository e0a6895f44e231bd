"""Seeded inputs, job lists and oracles for the benchmark workloads.

A workload is built from its seed alone: ``build_workload(name, seed)``
returns the input files to write (relative name -> JSON object) and the
fixed job list.  Every job is one ``braidalg`` CLI invocation with an
expected exit code and an oracle that checks its parsed stdout.  File names
do not depend on the seed, so the ``config.input`` field of every report is
byte-stable and a pass can be compared byte for byte with the next one.

Seeded choices are made so that the amount of work barely depends on the
seed: the run-to-run spread of the timings must stay well inside the
benchmark's bounds, and the benchmark is run with a different seed each time.

Importing this module needs ``src`` and ``tests`` on ``sys.path`` (see
``paths.py``): inputs are generated with ``braidalg.gallery`` and the
independent oracles come from ``tests/oracles.py``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable

from braidalg.fields import RATIONALS, prime_field
from braidalg.gallery import (
    corrupted_flip,
    diagonal_twist_braiding,
    exterior_line,
    flip_braiding,
    group_algebra_z2,
    super_braiding,
)
from braidalg.serialize import bialgebra_to_json, braiding_to_json
from oracles import unshuffle_block, witt_dimension

# Over F_p the cost doubles from p=2 to p=7, so every pass runs all four
# primes: a seeded draw would make the pass time depend on the seed.  Each
# prime divides some degree <= 7, so the restricted case is always hit; p=2
# goes to N=8 for the deepest one, 8 = 2^3.
RESTRICTED_DEGREES = {2: 8, 3: 7, 5: 7, 7: 7}
SMALL_PRIMES = (5, 7, 11, 13)
TWIST_MAGNITUDES = (Fraction(2), Fraction(3), Fraction(3, 2), Fraction(4, 3))


@dataclass
class Job:
    """One CLI call, its expected exit code and the check of its output.

    ``check`` gets the parsed stdout and returns a message on mismatch.
    ``prepare`` is harness work run before the job and outside its timing.
    """

    name: str
    argv: list[str]
    expect_rc: int = 0
    check: Callable[[object], str | None] | None = None
    prepare: Callable[[], None] | None = None


def write_json(rel: str, obj) -> None:
    with open(rel, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True)


# -- oracles ----------------------------------------------------------------


def restricted_witt(d: int, n: int, p: int) -> int:
    """Degree-``n`` dimension of the free restricted Lie algebra on ``d``
    letters in characteristic ``p``: the sum of ``W(d, n / p^k)`` over every
    ``k >= 0`` with ``p^k | n``."""
    total = witt_dimension(d, n)
    while n % p == 0:
        n //= p
        total += witt_dimension(d, n)
    return total


def flip_primitive_dims(d: int, N: int, p: int | None) -> list[int]:
    """Graded primitive dimensions of the tensor bialgebra with the flip."""
    if p is None:
        return [witt_dimension(d, n) for n in range(1, N + 1)]
    return [restricted_witt(d, n, p) for n in range(1, N + 1)]


def _scalar(x: Fraction, p: int | None) -> str:
    """The CLI's string for a rational scalar, reduced mod ``p`` if given."""
    return str(x.numerator * pow(x.denominator, -1, p) % p) if p else str(x)


def exchange_block(coeffs, m: int, n: int, p: int | None) -> list[list[str]]:
    """``c^{m,n}`` of the diagonal braiding ``e_i ⊗ e_j -> q_ij e_j ⊗ e_i``.

    Every letter ``a`` of the left word crosses every letter ``b`` of the
    right word once, so ``e_I ⊗ e_J -> (prod q_ab) e_J ⊗ e_I``.  Flip and
    super braidings are the cases ``q = 1`` and ``q = ±1``.
    """
    d = len(coeffs)
    size = d ** (m + n)
    out = [["0"] * size for _ in range(size)]
    for I in range(d ** m):
        left = _digits(I, m, d)
        for J in range(d ** n):
            coeff = Fraction(1)
            for a in left:
                for b in _digits(J, n, d):
                    coeff *= coeffs[a][b]
            out[J * d ** m + I][I * d ** n + J] = _scalar(coeff, p)
    return out


def _digits(flat: int, length: int, d: int) -> list[int]:
    out = [0] * length
    for pos in range(length - 1, -1, -1):
        flat, out[pos] = divmod(flat, d)
    return out


@cache
def _unshuffle(d: int, k: int, n: int, parities: tuple[int, ...] | None) -> list[list[str]]:
    return [[str(x) for x in row] for row in unshuffle_block(d, k, n, parities)]


def _super_coeffs(grading) -> list[list[int]]:
    return [[-1 if a and b else 1 for b in grading] for a in grading]


# -- checks -----------------------------------------------------------------


def _mismatch(what: str, got, want) -> str | None:
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


def expect_passed(report) -> str | None:
    if report.get("passed") is not True:
        return "report does not pass"
    failed = [c["name"] for c in report.get("checks", []) if not c["passed"]]
    return f"failed checks {failed}" if failed else None


def graded_dims(d: int, N: int, want: list[int] | None = None):
    """Graded primitives report: dims (against ``want`` when an oracle
    exists, otherwise degree 1 must be all of ``V``) and basis shapes."""
    def check(report):
        dims = report.get("dims")
        if want is not None:
            bad = _mismatch("dims", dims, want)
        else:
            bad = _mismatch("len(dims)", len(dims or []), N) or _mismatch("dims[0]", dims[0], d)
        if bad:
            return bad
        for n, dim in enumerate(dims, start=1):
            basis = report["bases"][str(n)]
            if len(basis) != d ** n or any(len(row) != dim for row in basis):
                return f"degree-{n} basis is not {d ** n}x{dim}"
        return expect_passed(report)
    return check


def build_dump(d: int, N: int, c, parities, oracle: bool):
    """Build dump: every block key present, ``cT/1_1`` is the input ``c``,
    and for flip/super the top-degree coproduct blocks are the classical
    (signed) unshuffle sums."""
    want_keys = (N + 1) * (N + 2) + (N + 1)

    def check(dump):
        blocks = dump["blocks"]
        bad = _mismatch("block count", len(blocks), want_keys) or _mismatch(
            "cT/1_1", blocks["cT/1_1"], c)
        if bad or not oracle:
            return bad
        for k in range(N + 1):
            if blocks[f"delta/{k}_{N}"] != _unshuffle(d, k, N, parities):
                return f"delta/{k}_{N} differs from the unshuffle oracle"
        return None
    return check


def fault_detected(block: str):
    def check(report):
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        return _mismatch("failed checks", failed, [f"roundtrip[{block}]"])
    return check


def braiding_verdict(qybe: str):
    def check(report):
        return _mismatch("qybe", report.get("qybe"), qybe) or _mismatch(
            "invertible", report.get("invertible"), "pass")
    return check


def primitive_dim(dim: int):
    def check(report):
        return _mismatch("dim", report.get("dim"), dim) or expect_passed(report)
    return check


def matrix_equals(want_fn: Callable[[], list[list[str]]]):
    def check(matrix):
        return None if matrix == want_fn() else "block differs from the exchange oracle"
    return check


ADJUNCTION_CHECKS = {"free_forgetful_triangles", "tensor_primitive_triangles",
                     "counit_kills_primitives_exact", "zeta_degree1_is_inclusion",
                     "zeta_degree0_is_unit"}


def adjunction_report(report):
    missing = ADJUNCTION_CHECKS - {c["name"] for c in report.get("checks", [])}
    return f"missing checks {sorted(missing)}" if missing else expect_passed(report)


# -- seeded inputs ------------------------------------------------------------


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the bases cover every n < 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for b in bases:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_near_1e9(rng: random.Random) -> int:
    p = 10 ** 9 + rng.randrange(10 ** 6)
    while not is_prime(p):
        p += 1
    return p


def twist_coeffs(rng: random.Random) -> list[list[Fraction]]:
    """A 2x2 grid of small nonzero rationals: fixed magnitudes in seeded
    positions with seeded signs.  Every magnitude exceeds 1, so no product
    of coefficients is ±1 and the primitive dimensions, hence the cost of
    exact elimination, do not depend on the seed.  Numerators and
    denominators are at most 4, so the grid stays nonzero mod any p >= 5."""
    magnitudes = list(TWIST_MAGNITUDES)
    rng.shuffle(magnitudes)
    signed = [x * rng.choice((1, -1)) for x in magnitudes]
    return [signed[:2], signed[2:]]


def mixed_grading(rng: random.Random, d: int) -> tuple[int, ...]:
    """A parity vector with both parities present."""
    while True:
        grading = tuple(rng.randrange(2) for _ in range(d))
        if 0 < sum(grading) < d:
            return grading


def invertible_2x2(rng: random.Random, p: int | None) -> list[list[str]]:
    while True:
        g = [[Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in range(2)]
             for _ in range(2)]
        det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
        if p is None and det != 0:
            return [[str(x) for x in row] for row in g]
        if p is not None and det.numerator % p != 0 and all(
                x.denominator == 1 for row in g for x in row):
            return [[str(x % p) for x in row] for row in g]


def _field(p: int | None):
    return prime_field(p) if p else RATIONALS


def _tag(p: int | None) -> str:
    return "fp" if p else "q"


def _cmd(*argv, seed: int) -> list[str]:
    return [str(a) for a in argv] + ["--seed", str(seed)]


# -- workloads ------------------------------------------------------------------


def graded_primitives(rng: random.Random, seed: int) -> tuple[dict, list[Job]]:
    """``primitives --degree N`` on the paper's central computation: the
    graded primitives of the truncated tensor bialgebra."""
    big = prime_near_1e9(rng)
    grading = mixed_grading(rng, 2)
    coeffs = twist_coeffs(rng)
    files = {
        "in/flip_d2_q.json": braiding_to_json(flip_braiding(RATIONALS, 2)),
        "in/flip_d3_q.json": braiding_to_json(flip_braiding(RATIONALS, 3)),
        "in/flip_d2_fbig.json": braiding_to_json(flip_braiding(prime_field(big), 2)),
        "in/super_d2_q.json": braiding_to_json(super_braiding(RATIONALS, grading)),
        "in/twist_d2_q.json": braiding_to_json(diagonal_twist_braiding(RATIONALS, coeffs)),
    }
    for p in RESTRICTED_DEGREES:
        files[f"in/flip_d2_f{p}.json"] = braiding_to_json(flip_braiding(prime_field(p), 2))

    def job(name, d, N, want=None):
        return Job(name, _cmd("primitives", "--input", f"in/{name}.json", "--degree", N, seed=seed),
                   check=graded_dims(d, N, want))

    jobs = [
        job("flip_d2_q", 2, 7, flip_primitive_dims(2, 7, None)),
        job("flip_d3_q", 3, 5, flip_primitive_dims(3, 5, None)),
        *(job(f"flip_d2_f{p}", 2, N, flip_primitive_dims(2, N, p))
          for p, N in RESTRICTED_DEGREES.items()),
        job("flip_d2_fbig", 2, 7, flip_primitive_dims(2, 7, big)),
        job("super_d2_q", 2, 7),
        job("twist_d2_q", 2, 6),
    ]
    return files, jobs


FAULT_SOURCE, FAULT_DEGREE = "out/flip_d2.json", 6


def build_verify(rng: random.Random, seed: int) -> tuple[dict, list[Job]]:
    """``build`` then ``verify`` of the dump, plus one fault-injected dump."""
    grading = mixed_grading(rng, 2)
    twist_q, twist_p = twist_coeffs(rng), twist_coeffs(rng)
    p = prime_near_1e9(rng)
    n = rng.randint(2, FAULT_DEGREE)
    k = rng.randint(1, n - 1)
    fault_block = f"delta/{k}_{n}"
    fault_cell = (rng.randrange(2 ** n), rng.randrange(2 ** n))
    cases = [  # name, braiding, degree, unshuffle oracle, its parities
        ("flip_d2", flip_braiding(RATIONALS, 2), FAULT_DEGREE, True, None),
        ("flip_d3", flip_braiding(RATIONALS, 3), 4, True, None),
        ("super_d2", super_braiding(RATIONALS, grading), 6, True, grading),
        ("twist_d2_q", diagonal_twist_braiding(RATIONALS, twist_q), 5, False, None),
        ("twist_d2_fp", diagonal_twist_braiding(prime_field(p), twist_p), 6, False, None),
    ]
    files, jobs = {}, []
    for name, V, N, oracle, parities in cases:
        braiding = braiding_to_json(V)
        files[f"in/{name}.json"] = braiding
        jobs.append(Job(f"build_{name}", _cmd(
            "build", "--input", f"in/{name}.json", "--degree", N, "--out", f"out/{name}.json",
            seed=seed), check=build_dump(V.dim, N, braiding["c"], parities, oracle)))
        jobs.append(Job(f"verify_{name}", _cmd("verify", "--input", f"out/{name}.json", seed=seed),
                        check=expect_passed))

    def inject_fault():
        with open(FAULT_SOURCE, encoding="utf-8") as fh:
            dump = json.load(fh)
        i, j = fault_cell
        row = dump["blocks"][fault_block][i]
        row[j] = str(Fraction(row[j]) + 1)
        write_json("in/fault_flip_d2.json", dump)

    jobs.append(Job("verify_fault", _cmd("verify", "--input", "in/fault_flip_d2.json", seed=seed),
                    expect_rc=1, check=fault_detected(fault_block), prepare=inject_fault))
    return files, jobs


def small_structures(rng: random.Random, seed: int) -> tuple[dict, list[Job]]:
    """Many CLI calls on structures of dimension at most 3, matrices of
    64x64 or smaller except one 81x81 jcheck, so per-call overhead counts."""
    p = rng.choice(SMALL_PRIMES)
    files: dict[str, object] = {}
    jobs: list[Job] = []

    def add(name, *argv, expect_rc=0, check=None):
        jobs.append(Job(name, _cmd(*argv, seed=seed), expect_rc, check))

    for fp in (None, p):
        t = _tag(fp)
        field = _field(fp)
        for bname, make, pdim in (("ext", exterior_line, 1), ("z2", group_algebra_z2, 0)):
            src = f"in/{bname}_{t}.json"
            files[src] = bialgebra_to_json(make(field))
            files[f"in/g_{bname}_{t}.json"] = {"field": field.to_json(), "g": invertible_2x2(rng, fp)}
            twist = str(rng.choice((2, -2, 4)) if fp else Fraction(rng.choice((2, 3, -2)), rng.choice((1, 3, 5))))
            add(f"verify_{bname}_{t}", "verify", "--input", src, check=expect_passed)
            add(f"primitives_{bname}_{t}", "primitives", "--input", src, check=primitive_dim(pdim))
            add(f"transport_g_{bname}_{t}", "transport", "--input", src, "--g",
                f"in/g_{bname}_{t}.json", check=expect_passed)
            add(f"transport_twist_{bname}_{t}", "transport", "--input", src, f"--twist={twist}",
                check=expect_passed)
            braid = f"in/adj_{bname}_{t}.json"
            files[braid] = braiding_to_json(
                flip_braiding(field, 2) if rng.randrange(2) else super_braiding(field, mixed_grading(rng, 2)))
            for degree in (4, 5, 6):
                add(f"adjunction_{bname}_{t}_n{degree}", "adjunction-check", "--braiding", braid,
                    "--bialgebra", src, "--degree", degree, check=adjunction_report)

        coeffs = twist_coeffs(rng)
        g2, g3 = mixed_grading(rng, 2), mixed_grading(rng, 3)
        braidings = {
            f"flip_d1_{t}": (flip_braiding(field, 1), [[1]]),
            f"flip_d2_{t}": (flip_braiding(field, 2), [[1] * 2] * 2),
            f"flip_d3_{t}": (flip_braiding(field, 3), [[1] * 3] * 3),
            f"super_d2_{t}": (super_braiding(field, g2), _super_coeffs(g2)),
            f"super_d3_{t}": (super_braiding(field, g3), _super_coeffs(g3)),
            f"twist_d2_{t}": (diagonal_twist_braiding(field, coeffs), coeffs),
        }
        for name, (V, q) in braidings.items():
            src = f"in/{name}.json"
            files[src] = braiding_to_json(V)
            add(f"verify_{name}", "verify", "--input", src, check=braiding_verdict("pass"))
            if V.dim == 2:
                for m, n in ((1, 2), (2, 1), (2, 3), (3, 3)):
                    add(f"braidrep_{name}_{m}{n}", "braidrep", "--input", src, "--m", m, "--n", n,
                        check=matrix_equals(lambda q=q, m=m, n=n, fp=fp: exchange_block(q, m, n, fp)))
        add(f"primitives_flip_d2_{t}_n5", "primitives", "--input", f"in/flip_d2_{t}.json",
            "--degree", 5, check=graded_dims(2, 5, flip_primitive_dims(2, 5, fp)))
        files[f"in/corrupted_flip_{t}.json"] = braiding_to_json(corrupted_flip(field))
        add(f"verify_corrupted_flip_{t}", "verify", "--input", f"in/corrupted_flip_{t}.json",
            expect_rc=1, check=braiding_verdict("fail"))

        fopt = f"fp:{fp}" if fp else "q"
        for degree in (3, 4, 5):
            add(f"jcheck_flip_d2_{t}_n{degree}", "jcheck", "--base", "flip", "--dim", 2,
                "--degree", degree, "--field", fopt, check=expect_passed)
            add(f"jcheck_super_d2_{t}_n{degree}", "jcheck", "--base", "super", "--grading",
                ",".join(map(str, mixed_grading(rng, 2))), "--dim", 2, "--degree", degree,
                "--field", fopt, check=expect_passed)
        add(f"jcheck_super_d3_{t}_n3", "jcheck", "--base", "super", "--grading",
            ",".join(map(str, mixed_grading(rng, 3))), "--dim", 3, "--degree", 3,
            "--field", fopt, check=expect_passed)
    add("jcheck_flip_d3_q_n4", "jcheck", "--base", "flip", "--dim", 3, "--degree", 4,
        check=expect_passed)
    return files, jobs


BUILDERS = {
    "graded-primitives": graded_primitives,
    "build-verify": build_verify,
    "small-structures": small_structures,
}


def build_workload(name: str, seed: int) -> tuple[dict[str, object], list[Job]]:
    """The workload's input files (relative name -> JSON) and its job list."""
    return BUILDERS[name](random.Random(f"{name}/{seed}"), seed)
