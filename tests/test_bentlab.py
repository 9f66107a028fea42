import json
import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcbent.bentlab import (
    NotAFunction,
    NotBentSpectrum,
    NotStrict,
    circular_spectrum,
    dual,
    is_bent,
    negate_classify,
    spectra_verdicts,
    spectrum_is_bent,
    strict_exponent_rows,
    strict_exponents,
    verdict_arrays,
)
from vcbent.cyclotomic import CycInt, NotAUnitRoot, NotDivisible, RootScalar, degree, xi
from vcbent.genperm import apply, block_diag, gamma, kron
from vcbent.mvfunction import MvFunction, NotASign, scalar_product, sign_of, tensor_sum, try_from_sign
from vcbent.oracle import all_bent
from vcbent.vctransform import SizeLimitExceeded, Spectrum, flat_mask, forward, inverse, is_flat
from vcbent.bentlab import BentVerdict, _strict_decode

X1X2 = MvFunction.from_digits(3, 2, "000012021")
W = xi(3)


def exps(s):
    return "".join(str(e) for e in strict_exponents(s))


def test_circular_spectrum_examples():
    assert exps(circular_spectrum(X1X2)) == "000021012"
    seed5 = MvFunction.from_digits(3, 2, "200110020")
    assert exps(circular_spectrum(seed5)) == "012021222"
    dc = circular_spectrum(MvFunction.constant(3, 0, 2))
    assert list(dc.entries) == [CycInt.from_int(3, 9)] + [CycInt.zero(3)] * 8


def test_circular_spectrum_equals_transform_of_sign():
    rng = random.Random(23)
    for p, n in ((3, 1), (3, 2), (4, 1), (5, 1), (3, 3)):
        for _ in range(8):
            f = MvFunction(p, n, [rng.randrange(p) for _ in range(p**n)])
            assert circular_spectrum(f) == forward(sign_of(f))


def test_is_bent_examples():
    assert is_bent(X1X2).is_bent
    assert is_bent(MvFunction.from_digits(3, 2, "022202112")).is_bent
    verdict = is_bent(MvFunction.constant(3, 0, 2))
    assert not verdict.is_flat and not verdict.is_bent
    assert verdict.failure_witness == (0, CycInt.from_int(3, 9))


def test_verdict_implications_hold_across_samples():
    rng = random.Random(41)
    for _ in range(200):
        f = MvFunction(3, 2, [rng.randrange(3) for _ in range(9)])
        v = is_bent(f)
        if v.is_bent:
            assert v.is_flat
        if v.is_strict_bent:
            assert v.is_bent


def test_verdict_json_shape():
    v = is_bent(MvFunction.constant(3, 0, 2))
    payload = json.loads(v.to_json())
    assert payload == {
        "flat": False,
        "bent": False,
        "strict": False,
        "witness": {"index": 0, "value": "9"},
    }
    assert json.loads(is_bent(X1X2).to_json())["witness"] is None


def test_spectrum_is_bent_table2_route():
    s_g = apply(kron(gamma("N"), gamma("N")), circular_spectrum(X1X2))
    assert spectrum_is_bent(s_g) == MvFunction.from_digits(3, 2, "021222120")


def test_spectrum_is_bent_flat_booby_trap():
    three = CycInt.from_int(3, 3)
    s_g = Spectrum(3, 2, [3 * W, 3 * W * W, three, 3 * W * W, three, 3 * W, three, 3 * W, 3 * W * W])
    assert is_flat(s_g)
    with pytest.raises(NotBentSpectrum) as err:
        spectrum_is_bent(s_g)
    assert err.value.stage == "not-a-sign"


def test_spectrum_is_bent_rejects_non_flat_with_witness():
    s = Spectrum(3, 2, [CycInt.from_int(3, 9)] + [CycInt.zero(3)] * 8)
    with pytest.raises(NotBentSpectrum) as err:
        spectrum_is_bent(s)
    assert err.value.stage == "not-flat"
    assert err.value.witness[0] == 0


def test_repeated_cofactor_spectrum_is_not_bent():
    s = Spectrum.from_strict_exponents(3, 2, [int(c) for c in "000021021"])
    assert is_flat(s)
    with pytest.raises(NotBentSpectrum) as err:
        spectrum_is_bent(s)
    assert err.value.stage in ("not-divisible", "not-a-sign")


def test_spectrum_is_bent_round_trip_on_functions(oracle_set):
    rng = random.Random(3)
    sample = rng.sample(sorted(oracle_set), 25)
    for f in sample:
        assert spectrum_is_bent(circular_spectrum(f)) == f


def test_strict_exponents_examples():
    assert exps(circular_spectrum(X1X2)) == "000021012"
    seed9 = MvFunction.from_digits(3, 2, "020011002")
    assert exps(circular_spectrum(seed9)) == "000012210"
    with pytest.raises(NotStrict):
        strict_exponents(Spectrum(3, 2, [CycInt.from_int(3, 9)] + [CycInt.zero(3)] * 8))
    with pytest.raises(NotStrict):
        strict_exponents(circular_spectrum(MvFunction.from_digits(3, 1, "011")))


def test_not_strict_carries_first_witness():
    seed = MvFunction.from_digits(3, 2, "022211211")  # bent, S(0) = -3
    with pytest.raises(NotStrict) as err:
        strict_exponents(circular_spectrum(seed))
    assert err.value.witness == (0, CycInt(3, (-3, 0)))
    assert str(err.value) == "entry 0 = -3 is 3·(-ξ^0)"
    with pytest.raises(NotStrict) as err:
        strict_exponents(circular_spectrum(MvFunction.from_digits(3, 1, "011")))
    assert err.value.witness is None


def test_dual_examples():
    assert dual(X1X2) == MvFunction.from_digits(3, 2, "000021012")
    assert is_bent(dual(dual(X1X2))).is_bent
    seed5 = MvFunction.from_digits(3, 2, "200110020")
    assert dual(seed5) == MvFunction.from_digits(3, 2, "012021222")
    with pytest.raises(NotStrict):
        dual(MvFunction.constant(3, 0, 2))


def test_negate_classify_odd_radix():
    with pytest.raises(NotAFunction) as err:
        negate_classify(X1X2)
    assert err.value.witness == -CycInt.one(3)
    f5 = MvFunction(5, 1, (0, 1, 2, 3, 4))
    with pytest.raises(NotAFunction):
        negate_classify(f5)


def test_negate_classify_even_radix():
    f4 = MvFunction(4, 1, (0, 1, 2, 3))
    g = negate_classify(f4)
    assert g == MvFunction(4, 1, (2, 3, 0, 1))
    assert list(sign_of(g).entries) == [-e for e in sign_of(f4).entries]
    rng = random.Random(6)
    f6 = MvFunction(6, 1, [rng.randrange(6) for _ in range(6)])
    g6 = negate_classify(f6)
    assert g6.values == tuple((v + 3) % 6 for v in f6.values)
    assert list(sign_of(g6).entries) == [-e for e in sign_of(f6).entries]


def test_flatness_survives_permutation_but_bentness_may_not():
    s = circular_spectrum(X1X2)
    p = block_diag([gamma("I"), gamma("I"), gamma("P12")])
    permuted = apply(p, s)
    assert is_flat(permuted)
    with pytest.raises(NotBentSpectrum):
        spectrum_is_bent(permuted)


def test_verdict_entry_points_are_size_guarded(monkeypatch):
    monkeypatch.setenv("BENT_SIZE_LIMIT", "9")
    f = MvFunction.constant(3, 0, 3)
    with pytest.raises(SizeLimitExceeded):
        is_bent(f)
    with pytest.raises(SizeLimitExceeded):
        circular_spectrum(f)
    assert is_bent(X1X2).is_bent  # 3^2 is within the limit


# -- batched verdicts ------------------------------------------------------------

VERDICT_SIZES = [(p, n) for p in (3, 4, 5, 6) for n in (1, 2, 3, 4) if p**n <= 81]


@lru_cache(maxsize=None)
def one_place_bent(p: int) -> tuple[MvFunction, ...]:
    return tuple(sorted(all_bent(p, 1)))


def random_bent(rng: random.Random, p: int, n: int) -> MvFunction | None:
    """⟨x, π(y)⟩ + g(y) on Z_p^m × Z_p^m (bent for every p), tensor-summed with a
    one-place bent function when n is odd; None where no such function exists."""
    m = n // 2
    half = p**m
    perm = rng.sample(range(half), half)
    g = [rng.randrange(p) for _ in range(half)]
    values = [(scalar_product(x, perm[y], p, m) + g[y]) % p for x in range(half) for y in range(half)]
    f = MvFunction(p, 2 * m, values)
    if n % 2:
        ones = one_place_bent(p)
        if not ones:
            return None
        f = tensor_sum(f, rng.choice(ones))
    return f


def random_values(rng: random.Random, p: int, n: int) -> MvFunction:
    return MvFunction(p, n, [rng.randrange(p) for _ in range(p**n)])


def candidate_row(kind: str, rng: random.Random, p: int, n: int) -> np.ndarray:
    """One (p^n, d) candidate spectrum of the given kind, as Python ints."""
    d, size = degree(p), p**n
    f = random_bent(rng, p, n)
    bent = circular_spectrum(f).array.astype(object) if f is not None else None
    if kind == "bent" and bent is not None:
        return bent
    if kind == "rotated" and bent is not None:  # still flat; the inverse rarely divides
        out = bent.copy()
        w = rng.randrange(size)
        out[w] = CycInt(p, out[w]).mul_root(rng.randrange(1, p)).coeffs if rng.random() < 0.7 else -out[w]
        return out
    if kind == "not-a-sign":
        if p % 2 and bent is not None:  # -ξ^f: flat and divisible, and -ξ^k is no sign for odd p
            return -bent
        if n % 2 == 0 or p == 4:  # C*·(√(p^n)·e_0): every entry √(p^n)
            out = np.zeros((size, d), dtype=object)
            out[:, 0] = 2**n if p == 4 else p ** (n // 2)
            return out
    if kind == "coefficients":
        return np.array([[rng.randint(-9, 9) for _ in range(d)] for _ in range(size)], dtype=object)
    return circular_spectrum(random_values(rng, p, n)).array.astype(object)


@st.composite
def candidate_stacks(draw):
    p, n = draw(st.sampled_from(VERDICT_SIZES))
    rng = draw(st.randoms(use_true_random=False))
    kinds = ("bent", "rotated", "not-a-sign", "coefficients", "function")
    rows = [candidate_row(kind, rng, p, n) for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=6))]
    stack = np.stack(rows)
    if draw(st.booleans()):  # a coefficient above 2^62 keeps the stack on Python ints
        stack[rng.randrange(len(rows)), rng.randrange(p**n), 0] = 2**62 + rng.randrange(1, 2**40)
        return p, n, stack
    return p, n, stack.astype(np.int64)


def verdict_key(verdict) -> tuple:
    if isinstance(verdict, MvFunction):
        return ("bent", verdict)
    return (verdict.stage, verdict.witness[0], verdict.witness[1])


def staged_reference(s: Spectrum) -> tuple:
    """The verdict entry by entry: CycInt flatness, the exact inverse, the sign decode."""
    target = CycInt.from_int(s.p, s.p**s.n)
    for w, e in enumerate(s.entries):
        if e.abs_squared() != target:
            return ("not-flat", w, e)
    try:
        signs = inverse(s)
    except NotDivisible as exc:
        return ("not-divisible", exc.index, exc.value)
    try:
        return ("bent", try_from_sign(signs))
    except NotASign as exc:
        return ("not-a-sign", exc.index, exc.value)


def one_row_verdict(s: Spectrum):
    try:
        return spectrum_is_bent(s)
    except NotBentSpectrum as exc:
        return exc


@settings(max_examples=80, deadline=None)
@given(candidate_stacks())
def test_spectra_verdicts_equal_one_row_verdicts_and_the_staged_reference(case):
    p, n, stack = case
    verdicts = spectra_verdicts(stack, p, n)
    assert len(verdicts) == len(stack)
    for row, verdict in zip(stack, verdicts):
        s = Spectrum.from_array(p, n, row)
        want = staged_reference(s)
        assert verdict_key(verdict) == want
        assert verdict_key(one_row_verdict(s)) == want


def test_spectra_verdicts_report_every_stage_in_one_call():
    rng = random.Random(8)
    kinds = ("bent", "function", "rotated", "not-a-sign", "bent", "rotated", "coefficients")
    stack = np.stack([candidate_row(kind, rng, 3, 2) for kind in kinds]).astype(np.int64)
    verdicts = spectra_verdicts(stack, 3, 2)
    stages = [verdict_key(v)[0] for v in verdicts]
    assert set(stages) == {"bent", "not-flat", "not-divisible", "not-a-sign"}
    for row, verdict in zip(stack, verdicts):
        assert verdict_key(verdict) == staged_reference(Spectrum.from_array(3, 2, row))
    assert spectra_verdicts(stack[:0], 3, 2) == []


def test_spectra_verdicts_guard_runs_after_the_flatness_test(monkeypatch):
    rng = random.Random(9)
    flat = circular_spectrum(random_bent(rng, 3, 2)).array
    rough = circular_spectrum(MvFunction.constant(3, 0, 2)).array
    monkeypatch.setenv("BENT_SIZE_LIMIT", "8")
    verdicts = spectra_verdicts(np.stack([rough, rough]), 3, 2)
    assert [v.stage for v in verdicts] == ["not-flat", "not-flat"]
    with pytest.raises(SizeLimitExceeded):
        spectra_verdicts(np.stack([rough, flat]), 3, 2)
    with pytest.raises(SizeLimitExceeded):
        spectrum_is_bent(Spectrum.from_array(3, 2, flat))


def test_strict_exponent_rows_match_strict_exponents_per_row():
    seeds = [MvFunction.from_digits(3, 2, d) for d in ("000012021", "200110020", "020011002")]
    stack = np.stack([circular_spectrum(f).array for f in seeds])
    rows = strict_exponent_rows(stack, 3, 2)
    assert [tuple(r) for r in rows.tolist()] == [strict_exponents(circular_spectrum(f)) for f in seeds]
    non_strict = circular_spectrum(MvFunction.from_digits(3, 2, "022211211")).array  # S(0) = -3
    with pytest.raises(NotStrict) as err:
        strict_exponent_rows(np.stack([stack[0], non_strict]), 3, 2)
    assert err.value.witness == (0, CycInt(3, (-3, 0)))


@st.composite
def signed_root_spectra(draw):
    """p^(n/2)·(±ξ^k) entries, a few spoiled: not divisible, or not a unit root."""
    p, n = draw(st.sampled_from([(3, 2), (4, 2), (5, 2), (6, 2), (3, 4)]))
    scale = p ** (n // 2)
    rng = draw(st.randoms(use_true_random=False))
    minus = draw(st.sampled_from([0.0, 0.05, 0.5]))
    entries = [RootScalar(p, -1 if rng.random() < minus else 1, rng.randrange(p)).to_cyc() * scale for _ in range(p**n)]
    for _ in range(draw(st.integers(0, 2))):
        w = rng.randrange(p**n)
        entries[w] = entries[w] + rng.choice([1, scale, 2 * scale])
    return Spectrum(p, n, entries)


def entrywise_strict(s):
    """strict_exponents by div_exact_int and as_root_scalar per entry, or the NotStrict message."""
    scale = s.p ** (s.n // 2)
    exponents = []
    for w, e in enumerate(s.entries):
        try:
            rs = e.div_exact_int(scale).as_root_scalar()
        except (NotDivisible, NotAUnitRoot):
            return f"entry {w} = {e} is not {scale}·ξ^k"
        if rs.sign != 1:
            return f"entry {w} = {e} is {scale}·(-ξ^{rs.exponent})"
        exponents.append(rs.exponent)
    return tuple(exponents)


@settings(max_examples=80, deadline=None)
@given(signed_root_spectra())
def test_strict_exponents_and_messages_equal_the_entrywise_decode(s):
    want = entrywise_strict(s)
    if isinstance(want, str):
        with pytest.raises(NotStrict) as err:
            strict_exponents(s)
        assert str(err.value) == want
        w = int(want.split()[1])
        assert err.value.witness == (w, s[w])
    else:
        assert strict_exponents(s) == want


@settings(max_examples=80, deadline=None)
@given(candidate_stacks())
def test_verdict_arrays_equal_spectra_verdicts_row_by_row(case):
    from vcbent.bentlab import verdict_arrays

    p, n, stack = case
    stage, index, value, values = verdict_arrays(stack, p, n)
    assert stage.shape == index.shape == (len(stack),)
    assert value.shape == (len(stack), degree(p)) and values.shape == (len(stack), p**n)
    for verdict, s, w, v, row in zip(spectra_verdicts(stack, p, n), stage, index, value, values):
        if isinstance(verdict, MvFunction):
            assert (s, w, v.tolist()) == (0, 0, [0] * degree(p))
            assert tuple(row.tolist()) == verdict.values
        else:
            assert NotBentSpectrum.STAGES[s - 1] == verdict.stage
            assert (w, CycInt(p, v)) == verdict.witness
            assert not row.any()


def test_p5_entry_with_constant_term_p_but_a_non_rational_norm_is_not_flat():
    # at p = 5, |S|² lies in Z[(1+√5)/2]: (-2, -2, -1, -2) has |S|² = 5 + 2ξ² + 2ξ³, constant term 5^1
    entry = CycInt(5, (-2, -2, -1, -2))
    assert entry.abs_squared() == CycInt(5, (5, 0, 2, 2))
    bent = circular_spectrum(MvFunction(5, 1, [x * x % 5 for x in range(5)]))
    assert is_flat(bent)
    for w in range(5):
        array = bent.array.copy()
        array[w] = entry.coeffs
        assert flat_mask(array, 5, 1).tolist() == [x != w for x in range(5)]
        assert not is_flat(Spectrum.from_array(5, 1, array))
        stage, index, value, _ = verdict_arrays(array[None], 5, 1)
        assert (stage.tolist(), index.tolist(), value.tolist()) == ([1], [w], [list(entry.coeffs)])
        with pytest.raises(NotBentSpectrum, match=rf"^not-flat at index {w}: -2-2x-1x\^2-2x\^3$"):
            spectrum_is_bent(Spectrum.from_array(5, 1, array))


def reference_verdict(f: MvFunction) -> BentVerdict:
    """is_bent from the dense spectrum: the first entry that flat_mask refuses, else strict
    where every entry decodes as p^(n/2)·(+ξ^k)."""
    s = forward(sign_of(f)).array
    bad = np.flatnonzero(~flat_mask(s, f.p, f.n))
    if bad.size:
        return BentVerdict(False, False, False, (int(bad[0]), CycInt(f.p, s[bad[0]])))
    return BentVerdict(True, True, bool((_strict_decode(s, f.p, f.n)[1] == 1).all()))


def every_function(p: int, n: int) -> list[MvFunction]:
    return [MvFunction(p, n, np.unravel_index(code, (p,) * p**n)) for code in range(p ** p**n)]


@pytest.mark.parametrize("p", [3, 4, 5])
def test_is_bent_equals_the_dense_reference_on_every_one_place_function(p):
    verdicts = [(is_bent(f), reference_verdict(f)) for f in every_function(p, 1)]
    assert all(got == want for got, want in verdicts)
    assert sum(got.is_bent for got, _ in verdicts) == len(all_bent(p, 1))
    assert not any(got.is_strict_bent for got, _ in verdicts)  # n = 1 is odd


@pytest.mark.parametrize("p,n", [(3, 2), (3, 3), (4, 2), (6, 2)])
def test_is_bent_equals_the_dense_reference_on_seeded_samples(p, n):
    rng = random.Random(2800 + 10 * p + n)
    functions = [random_values(rng, p, n) for _ in range(30)]
    functions += [f for f in (random_bent(rng, p, n) for _ in range(10)) if f is not None]
    for f in functions:
        assert is_bent(f) == reference_verdict(f)
    assert any(is_bent(f).is_bent for f in functions) or p == 6


def test_is_bent_equals_the_dense_reference_on_every_two_place_bent_function(oracle_set):
    # every entry decodes as 3·(±ξ^k); the 162 with some -3·ξ^k are bent and not strict
    functions = sorted(oracle_set)
    verdicts = [is_bent(f) for f in functions]
    assert verdicts == [reference_verdict(f) for f in functions]
    signs = [_strict_decode(forward(sign_of(f)).array, 3, 2)[1] for f in functions]
    assert all(v.is_bent and v.is_strict_bent == (s == 1).all() and s.all() for v, s in zip(verdicts, signs))
    assert sum(not v.is_strict_bent for v in verdicts) == 162


def test_a_flat_s0_does_not_stop_the_verdict_at_w_0():
    # search for non-bent f with |S(0)|² = p^n: the witness is the first non-flat w, which is > 0
    rng = random.Random(2807)
    found = 0
    for p, n in ((3, 2), (3, 3), (5, 2)):
        for _ in range(400):
            f = random_values(rng, p, n)
            s0 = sum((xi(p, v) for v in f.values), CycInt.zero(p))
            if s0.abs_squared() == p**n and not reference_verdict(f).is_bent:
                verdict = is_bent(f)
                assert verdict == reference_verdict(f) and verdict.failure_witness[0] > 0
                found += 1
                break
    assert found == 3


def test_an_odd_n_bent_function_is_never_strict():
    rng = random.Random(2808)
    for p, n in ((3, 1), (3, 3), (5, 1), (5, 3)):
        f = random_bent(rng, p, n)
        verdict = is_bent(f)
        assert verdict == reference_verdict(f) == BentVerdict(True, True, False)


def test_is_bent_refutes_at_w_0_with_the_witness_of_the_full_path():
    for p, n in ((3, 2), (4, 3), (5, 2), (6, 2)):
        f = MvFunction(p, n, [x % 2 for x in range(p**n)])  # counts p^n/2 apart: |S(0)|² is far from p^n
        verdict = is_bent(f)
        want = sum((xi(p, v) for v in f.values), CycInt.zero(p))
        assert verdict == reference_verdict(f) == BentVerdict(False, False, False, (0, want))
