"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria 2, 8 and 9 state counts (486, 156, 486) that the
program's documented definitions cannot reach.  Those three tests derive
the reachable sets independently, from the table of the 729 ternary
quadratics in two variables below, and assert that the program produces
exactly them (270, 162 and 324 functions).  Each stated count stays
recorded as refuted, and each test's docstring carries the proof.
"""

import cmath
import io
import random
import time
from itertools import permutations, product

import pytest

from vcbent.bentlab import (
    NotAFunction,
    NotBentSpectrum,
    NotStrict,
    circular_spectrum,
    is_bent,
    negate_classify,
    spectrum_is_bent,
    strict_exponents,
)
from vcbent.cli import main as cli_main
from vcbent.cyclotomic import CycInt, degree, xi
from vcbent.genperm import (
    GAMMA_NAMES,
    apply,
    block_diag,
    conjugate_by_c,
    conjugate_table,
    gamma,
    kron,
)
from vcbent.generator import (
    expand_rotations,
    generate_class,
    kron_perm_catalog,
    maiorana_enumerate,
    reference_seed,
    tensor_sum_spectrum_law,
)
from vcbent.mvfunction import MvFunction, add_constant, sign_of, tensor_sum, try_from_sign
from vcbent.oracle import all_bent, all_bent_1place, certify
from vcbent.vctransform import forward, forward_fast, inverse, is_flat


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} — {detail}")


def run_cli(*argv) -> str:
    out = io.StringIO()
    code = cli_main(list(argv), out=out)
    assert code == 0, f"cli {argv} exited {code}"
    return out.getvalue()


@pytest.fixture(scope="module")
def quadratics() -> dict[MvFunction, tuple[int, int, int]]:
    """f = a·x1² + B·x1x2 + c·x2² + d·x1 + e·x2 + k over Z_3, mapped to (a, B, c).

    Built from the polynomial alone, in the index order x = 3·x1 + x2 of
    MvFunction; no vcbent spectral code is involved.
    """
    table = {}
    for a, b, c, d, e, k in product(range(3), repeat=6):
        values = [
            (a * x1 * x1 + b * x1 * x2 + c * x2 * x2 + d * x1 + e * x2 + k) % 3
            for x1 in range(3)
            for x2 in range(3)
        ]
        table[MvFunction(3, 2, values)] = (a, b, c)
    assert len(table) == 729
    return table


def _det(a: int, b: int, c: int) -> int:
    """Determinant of the Gram matrix [[a, b/2], [b/2, c]] mod 3 (1/4 ≡ 1)."""
    return (a * c - b * b) % 3


def _tensor_sums() -> set[MvFunction]:
    one_place = all_bent_1place()
    return {tensor_sum(f1, f2) for f1 in one_place for f2 in one_place}


def _catalog_orbit(f: MvFunction) -> set[MvFunction]:
    """f under the 35 catalog permutations, the identity and constant shifts."""
    s = circular_spectrum(f)
    primitives = {f} | {spectrum_is_bent(apply(e.perm, s)) for e in kron_perm_catalog()}
    return {add_constant(g, c) for g in primitives for c in range(3)}


_OMEGA = cmath.exp(2j * cmath.pi / 3)


def _float_spectrum(f: MvFunction) -> list[complex]:
    """S(w) = Σ_x ω^(f(x) − ⟨w·x⟩) in floating point, ω = e^(2πi/3)."""
    return [
        sum(
            _OMEGA ** ((f.values[x] - (w // 3) * (x // 3) - (w % 3) * (x % 3)) % 3)
            for x in range(9)
        )
        for w in range(9)
    ]


def _root_exponent(z: complex) -> int:
    """k with z = ω^k to 1e-9; AssertionError when z is no cube root of unity."""
    k = round(cmath.phase(z) / (2 * cmath.pi / 3)) % 3
    assert abs(z - _OMEGA**k) < 1e-9, f"{z} is not a cube root of unity"
    return k


def test_criterion_01_oracle_count_and_runtime():
    start = time.perf_counter()
    found = all_bent(3, 2)
    elapsed = time.perf_counter() - start
    ok = len(found) == 486 and elapsed <= 10.0
    verdict(1, ok, f"exhaustive scan found {len(found)} bent functions in {elapsed:.2f}s")
    assert len(found) == 486
    assert elapsed <= 10.0


def test_criterion_02_generator_completeness(oracle_set, generated_set, quadratics):
    """Stated: the nine seed classes generate all 486 bent functions.  Refuted.

    The 486 are the quadratics with det ≠ 0 (18 forms × 27).  A catalog
    permutation α⊗β with a constant shift transforms each variable on its
    own, so it fixes a and c and can at most change the sign of B: the
    orbits are keyed by (a, c, B = 0), four of 27 (B = 0, the tensor sums)
    and seven of 54.  A class is 54 distinct functions inside its seed's
    orbit, so it is a whole 54-orbit, and nine seeds cover at most
    7·54 = 378 < 486.  The reference seeds reach the five 54-orbits with
    a = 0 or c = 0: 270 functions.  The 216 missing are the four 27-orbits
    and the two 54-orbits with a, B, c all ≠ 0.
    """
    bent = {f for f, q in quadratics.items() if _det(*q)}
    assert oracle_set == bent and len(bent) == 486

    def orbit_key(f):
        a, b, c = quadratics[f]
        return a, c, b == 0

    derived_orbits: dict[tuple, set[MvFunction]] = {}
    for f in bent:
        derived_orbits.setdefault(orbit_key(f), set()).add(f)
    program_orbits = []
    left = set(oracle_set)
    while left:
        orbit = _catalog_orbit(min(left))
        program_orbits.append(frozenset(orbit))
        left -= orbit
    assert set(program_orbits) == {frozenset(o) for o in derived_orbits.values()}
    assert sorted(map(len, program_orbits)) == [27] * 4 + [54] * 7
    assert set().union(*(o for o in derived_orbits.values() if len(o) == 27)) == _tensor_sums()

    for cid in range(1, 10):
        seed = reference_seed(cid)
        assert set(expand_rotations(generate_class(seed, cid))) == derived_orbits[orbit_key(seed)]
    bound = 54 * sum(1 for o in derived_orbits.values() if len(o) == 54)
    assert bound == 378 < 486

    reachable = {f for f in bent if quadratics[f][1] and 0 in (quadratics[f][0], quadratics[f][2])}
    unreachable = {f for f in bent if quadratics[f][1] == 0 or 0 not in quadratics[f]}
    assert len(reachable) == 270 and unreachable == bent - reachable

    report = certify(generated_set, oracle_set)
    ok = report.extra == () and generated_set == reachable and set(report.missing) == unreachable
    verdict(
        2,
        ok,
        f"generator covers {len(generated_set)}/486, derived 270 from 5 of 11 orbits ("
        f"{len(report.missing)} missing); stated 486 refuted, at most {bound} reachable",
    )
    assert report.extra == (), "the generator produced functions the oracle does not find bent"
    assert generated_set == reachable, (
        f"the nine seed classes expand to {len(generated_set)} functions, not the derived 270: "
        "the five 54-orbits of quadratics with B ≠ 0 and a = 0 or c = 0"
    )
    assert set(report.missing) == unreachable, (
        "the missing functions are not the derived 216: the four 27-orbits (B = 0) "
        "and the two 54-orbits with a, B, c all ≠ 0"
    )
    assert not report.passed  # the stated completeness stays refuted


def test_criterion_03_class_structure():
    counts = {}
    for cid in range(1, 10):
        record = generate_class(reference_seed(cid), cid)
        counts[cid] = len({row.g for row in record.rows})
    s6 = circular_spectrum(reference_seed(6))
    dup_a = strict_exponents(apply(kron(gamma("X"), gamma("I")), s6))
    dup_b = strict_exponents(apply(kron(gamma("P01"), gamma("P01")), s6))
    target = tuple(int(c) for c in "121001211")
    ok = all(c == 18 for c in counts.values()) and dup_a == dup_b == target
    verdict(3, ok, f"18 primitives per seed {sorted(set(counts.values()))}, duplicate pair agrees")
    assert all(c == 18 for c in counts.values())
    assert dup_a == dup_b == target


def test_criterion_04_appendix_replay():
    from vcbent.appendix import verify_appendix

    checks = verify_appendix()
    passed = sum(1 for c in checks if c.passed)
    ok = passed == len(checks) == 162
    verdict(4, ok, f"{passed}/{len(checks)} fixture rows replay exactly")
    assert ok, [(c.row.class_id, c.row.row, c.failures()) for c in checks if not c.passed]


def test_criterion_05_conjugation_table():
    table_ok = all(conjugate_table(n) == conjugate_by_c(gamma(n)) for n in GAMMA_NAMES)
    kron_ok = all(
        conjugate_by_c(kron(gamma(a), gamma(b))) == kron(conjugate_table(a), conjugate_table(b))
        for a in GAMMA_NAMES
        for b in GAMMA_NAMES
    )
    verdict(5, table_ok and kron_ok, "six table images and all 36 Kronecker pairs agree")
    assert table_ok and kron_ok


def test_criterion_06_case_walkthroughs():
    table2 = run_cli("demo", "--case", "2")
    case3 = run_cli("demo", "--case", "3")
    case4 = run_cli("demo", "--case", "4")
    ok = (
        "g = 021222120" in table2
        and "g = 102012222" in case3
        and "both routes give G" in case3
        and "[0 0 0 0 0 0 0 0 3x]" in case4
    )
    verdict(6, ok, "worked cases 2, 3 (both routes) and 4's failure vector reproduce")
    assert "g = 021222120" in table2
    assert "g = 102012222" in case3 and "both routes give G" in case3
    assert "[0 0 0 0 0 0 0 0 3x]" in case4


def test_criterion_07_negation_classifier():
    rng = random.Random(1234)
    ok = True
    for p in (3, 5):
        for _ in range(10):
            f = MvFunction(p, 1, [rng.randrange(p) for _ in range(p)])
            with pytest.raises(NotAFunction):
                negate_classify(f)
    for p in (4, 6):
        for _ in range(10):
            f = MvFunction(p, 1, [rng.randrange(p) for _ in range(p)])
            g = negate_classify(f)
            ok = ok and g.values == tuple((v + p // 2) % p for v in f.values)
            ok = ok and list(sign_of(g).entries) == [-e for e in sign_of(f).entries]
    verdict(7, ok, "odd radices reject, even radices shift by p/2 with sign(g) = -F")
    assert ok


def test_criterion_08_maiorana(oracle_set, quadratics):
    """Stated: 156 Maiorana functions at m=1.  Refuted: the count is 162.

    maiorana(Q, v) is f(x1, x2) = x2·σ(x1) + v(x1), σ the permutation of Q
    (vec_columns puts the column index in x1).  x2 enters linearly, so
    v(x1) = f(x1, 0) and σ(x1) = f(x1, 1) − f(x1, 0) read back from f, and
    the 6 × 27 pairs give 162 distinct functions.  Every permutation of
    Z_3 is ±x1 + b, so they are exactly the quadratics with c = 0, B ≠ 0.
    """
    mai = maiorana_enumerate(1)
    read_back = {
        (
            tuple((f.values[3 * x1 + 1] - f.values[3 * x1]) % 3 for x1 in range(3)),
            tuple(f.values[3 * x1] for x1 in range(3)),
        )
        for f in mai
    }
    pairs = set(product(permutations(range(3)), product(range(3), repeat=3)))
    derived = {f for f, (a, b, c) in quadratics.items() if c == 0 and b}
    assert len(pairs) == len(derived) == 162 != 156
    all_bent_strict = all(
        (v := is_bent(f)).is_bent and v.is_strict_bent for f in mai
    )
    member = mai <= oracle_set
    disjoint = not (mai & _tensor_sums())
    ok = read_back == pairs and len(mai) == 162 and mai == derived
    ok = ok and all_bent_strict and member and disjoint
    verdict(
        8,
        ok,
        f"{len(mai)} distinct constructions, derived 162 (stated 156 refuted); "
        f"bent+strict {all_bent_strict}, members {member}, tensor-sum disjoint {disjoint}",
    )
    assert all_bent_strict and member and disjoint
    assert read_back == pairs and len(mai) == len(pairs), (
        f"{len(mai)} functions do not read back one to one to the 6×27 (σ, v) pairs"
    )
    assert mai == derived, (
        "the Maiorana set is not the 162 quadratics with c = 0 and B ≠ 0"
    )


def test_criterion_09_strict_coverage(oracle_set, quadratics):
    """Stated: all 486 are strict bent.  Refuted: 324 are.

    For f = Q + linear + constant, completing the square gives, for every
    w, S(w) = ξ^k·Σ_x ξ^Q(x) = −3·η(det)·ξ^k with η the quadratic
    character mod 3 (η(1) = 1, η(2) = −1).  strict_exponents asks for
    S(w) = +3·ξ^t(w), so f is strict exactly when det ≡ 2: 12 of the 18
    forms, 324 functions.  When det ≡ 1 (162 functions) every coefficient
    is −3·ξ^k.
    """
    strict_forms = {q for q in quadratics.values() if _det(*q) == 2}
    assert len(strict_forms) == 12 and len({q for q in quadratics.values() if _det(*q)}) == 18
    strict = 0
    mismatches = []
    for f in sorted(oracle_set):
        det = _det(*quadratics[f])
        sign = 1 if det == 2 else -1
        floats = _float_spectrum(f)
        ks = tuple(_root_exponent(z / (3 * sign)) for z in floats)
        is_strict = is_bent(f).is_strict_bent
        strict += is_strict
        if is_strict != (det == 2):
            mismatches.append((f.digit_string(), det, is_strict))
        elif is_strict:
            assert strict_exponents(circular_spectrum(f)) == ks
        else:
            with pytest.raises(NotStrict):
                strict_exponents(circular_spectrum(f))
    ok = not mismatches and strict == 27 * len(strict_forms) == 324
    verdict(9, ok, f"{strict}/486 strict bent, derived 324 with det ≡ 2 (stated 486 refuted)")
    assert not mismatches, (
        "strict must hold exactly when det ≡ 2, since S(w) = −3·η(det)·ξ^k; "
        f"(function, det, strict) disagreeing: {mismatches[:5]}"
    )
    assert strict == 324


def test_criterion_10_tensor_sum_law():
    f = reference_seed(1)
    s = circular_spectrum(f)
    f3, s3 = tensor_sum_spectrum_law(f, f)
    from vcbent.vctransform import spectrum_kron

    entrywise = s3 == spectrum_kron(s, s)
    flat81 = all(e.abs_squared() == CycInt.from_int(3, 81) for e in s3.entries)
    rng = random.Random(55)
    for _ in range(5):
        p1 = kron(gamma(rng.choice(GAMMA_NAMES)), gamma(rng.choice(GAMMA_NAMES)))
        p2 = kron(gamma(rng.choice(GAMMA_NAMES)), gamma(rng.choice(GAMMA_NAMES)))
        tensor_sum_spectrum_law(f, f, perms=(p1, p2))
    ok = entrywise and flat81 and f3.n == 4
    verdict(10, ok, "81 Kronecker coefficients match entrywise, |S|² = 81, commuting law holds")
    assert ok


def test_criterion_11_transform_equivalence_and_performance():
    rng = random.Random(77)
    for n in range(1, 7):
        for _ in range(2 if n >= 5 else 4):
            vec = [
                CycInt(3, [rng.randint(-3, 3) for _ in range(degree(3))])
                for _ in range(3**n)
            ]
            assert forward_fast(vec) == forward(vec)
    sign = sign_of(MvFunction(3, 10, [rng.randrange(3) for _ in range(3**10)]))
    start = time.perf_counter()
    forward_fast(sign)
    elapsed = time.perf_counter() - start
    round_trips = 0
    for _ in range(1000):
        n = rng.choice((1, 2, 3))
        f = MvFunction(3, n, [rng.randrange(3) for _ in range(3**n)])
        fs = sign_of(f)
        if try_from_sign(inverse(forward_fast(fs))) == f:
            round_trips += 1
    ok = elapsed <= 1.0 and round_trips == 1000
    verdict(
        11,
        ok,
        f"fast==dense for n≤6; 59049-point transform in {elapsed:.3f}s; "
        f"{round_trips}/1000 round trips exact",
    )
    assert elapsed <= 1.0
    assert round_trips == 1000


def test_criterion_12_flat_but_not_bent_gap():
    s = circular_spectrum(reference_seed(1))
    permuted = apply(block_diag([gamma("I"), gamma("I"), gamma("P12")]), s)
    flat = is_flat(permuted)
    failed_stage = None
    try:
        spectrum_is_bent(permuted)
    except NotBentSpectrum as exc:
        failed_stage = exc.stage
    ok = flat and failed_stage in ("not-divisible", "not-a-sign")
    verdict(12, ok, f"spectrum stays flat yet recovery fails at stage {failed_stage!r}")
    assert flat
    assert failed_stage is not None and failed_stage != "not-flat"
