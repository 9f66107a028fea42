import gc
import itertools
import math
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcbent.bentlab import spectra_verdicts
from vcbent.cyclotomic import SUPPORTED_RADICES, CycInt, CycVector, NotDivisible, _unit_codes, degree, root_table, xi
from vcbent.mvfunction import MvFunction, add_constant, sign_of, try_from_sign
from vcbent.vctransform import (
    INT64_BOUND,
    SizeLimitExceeded,
    _abs_table,
    _product_table,
    _stage_matrix,
    Spectrum,
    abs_squared,
    divide_exact,
    format_spectrum_lines,
    forward,
    forward_fast,
    inverse,
    is_flat,
    kernel_dtype,
    mul_array,
    parse_spectrum_lines,
    spectrum_kron,
    transform,
)

from vcbent.mvfunction import SignVector
from vcbent.vctransform import _sign_table, sign_transform

from reference import build_c

X1X2 = MvFunction.from_digits(3, 2, "000012021")


def rand_sign(rng, p, n):
    return sign_of(MvFunction(p, n, [rng.randrange(p) for _ in range(p**n)]))


def rand_vector(rng, p, n, bound=5):
    d = degree(p)
    return [CycInt(p, [rng.randint(-bound, bound) for _ in range(d)]) for _ in range(p**n)]


def test_build_c_p3_matches_fourier_kernel():
    w = xi(3)
    one = CycInt.one(3)
    assert [list(r) for r in build_c(3, 1)] == [
        [one, one, one],
        [one, w, w * w],
        [one, w * w, w],
    ]


def test_build_c_p4():
    i = xi(4)
    one = CycInt.one(4)
    assert [list(r) for r in build_c(4, 1)] == [
        [one, one, one, one],
        [one, i, i * i, i * i * i],
        [one, i * i, one, i * i],
        [one, i * i * i, i * i, i],
    ]


def test_build_c_kron_structure_agrees_with_scalar_products():
    # C(n) = C(1) ⊗ C(n-1) with C(1) on the high digit: the order of the engine's stages
    for p, n in ((3, 2), (3, 3), (4, 2)):
        c, c1, rest = build_c(p, n), build_c(p, 1), build_c(p, n - 1)
        low = p ** (n - 1)
        for j in range(p**n):
            for k in range(p**n):
                assert c[j][k] == c1[j // low][k // low] * rest[j % low][k % low]


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (3, 3), (4, 1), (5, 1)])
def test_orthogonality(p, n):
    c = build_c(p, n)
    size = p**n
    target = CycInt.from_int(p, size)
    zero = CycInt.zero(p)
    for i in range(size):
        for j in range(size):
            acc = zero
            for k in range(size):
                acc = acc + c[i][k] * c[j][k].conj()
            assert acc == (target if i == j else zero)


def test_forward_examples():
    s = forward(sign_of(X1X2))
    w = xi(3)
    expected = [3 * e for e in (CycInt.one(3),) * 4 + (w * w, w, CycInt.one(3), w, w * w)]
    assert list(s.entries) == expected

    flat_zero = forward(sign_of(MvFunction.constant(3, 0, 2)))
    assert list(flat_zero.entries) == [CycInt.from_int(3, 9)] + [CycInt.zero(3)] * 8

    seed7 = MvFunction.from_digits(3, 2, "000201021")
    s7 = forward(sign_of(seed7))
    assert [e.div_exact_int(3).as_root_scalar().exponent for e in s7.entries] == [
        0, 2, 0, 0, 1, 1, 0, 0, 2,
    ]


def test_forward_matches_dense_matrix_product():
    rng = random.Random(31)
    vec = rand_vector(rng, 3, 2)
    c = build_c(3, 2)
    expected = []
    for i in range(9):
        acc = CycInt.zero(3)
        for k in range(9):
            acc = acc + c[i][k].conj() * vec[k]
        expected.append(acc)
    assert list(forward(vec).entries) == expected


@pytest.mark.parametrize(
    "p,ns",
    [(3, (1, 2, 3, 4, 5, 6)), (4, (1, 2, 3)), (5, (1, 2))],
)
def test_forward_fast_equals_forward(p, ns):
    # ~100 random vectors per radix, weighted away from the quadratic sizes
    rng = random.Random(1300 + p)
    for n in ns:
        size = p**n
        samples = 25 if size <= 27 else (10 if size <= 243 else 2)
        for _ in range(samples):
            vec = rand_vector(rng, p, n, bound=3)
            assert forward_fast(vec) == forward(vec)


def test_forward_fast_python_fallback_and_bigints():
    rng = random.Random(77)
    # huge coefficients force the exact big-int path; outputs must agree
    vec = [CycInt(3, (rng.randint(-(2**70), 2**70), rng.randint(-(2**70), 2**70))) for _ in range(9)]
    assert forward_fast(vec) == forward(vec)
    small = rand_vector(rng, 3, 2)
    rows = transform(np.array([e.coeffs for e in small], dtype=object), 3, 2, conjugate=True)
    assert rows.dtype == object
    assert [CycInt(3, r) for r in rows] == list(forward(small).entries)


# every (p, n) with n <= 4 whose dense reference stays under ~0.1 s
SMALL_SIZES = [(p, n) for p in (3, 4, 5, 6) for n in range(1, 5) if p**n <= 125]


@st.composite
def coefficient_vectors(draw):
    p, n = draw(st.sampled_from(SMALL_SIZES))
    row = st.lists(st.integers(-50, 50), min_size=degree(p), max_size=degree(p))
    rows = draw(st.lists(row, min_size=p**n, max_size=p**n))
    return p, n, [CycInt(p, r) for r in rows]


@settings(max_examples=40, deadline=None)
@given(coefficient_vectors())
def test_engine_equals_dense_forward_and_spectrum_forms_agree(case):
    p, n, vec = case
    fast, dense = forward_fast(vec), forward(vec)  # array-backed, entry-backed
    assert fast == dense and dense == fast
    assert hash(fast) == hash(dense)
    as_object = Spectrum.from_array(p, n, fast.array.astype(object))
    assert as_object == dense and hash(as_object) == hash(dense)
    assert fast.entries == dense.entries
    assert inverse(fast) == vec


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_int64_bound_edge_selects_kernel_and_stays_exact(data):
    p, n = data.draw(st.sampled_from(SMALL_SIZES))
    growth = (2 * p) ** n
    edge = (INT64_BOUND - 1) // growth  # the largest maxabs kept on int64
    maxabs, kernel = data.draw(st.sampled_from([(edge, np.int64), (edge + 1, object)]))
    assert kernel_dtype(maxabs * growth) is kernel
    signs = st.lists(st.sampled_from([-1, 0, 1]), min_size=degree(p), max_size=degree(p))
    pattern = [[1] + [0] * (degree(p) - 1)]  # one coefficient pinned at +maxabs
    pattern += data.draw(st.lists(signs, min_size=p**n - 1, max_size=p**n - 1))
    rows = [[s * maxabs for s in r] for r in pattern]
    out = transform(np.array(rows, dtype=np.int64), p, n, conjugate=True)
    assert out.dtype == kernel
    assert [CycInt(p, r) for r in out] == list(forward([CycInt(p, r) for r in rows]).entries)


@pytest.mark.parametrize("p", [3, 5])
def test_abs_squared_int64_edge_selects_kernel_and_stays_exact(p):
    # d² products of two coefficients, each at most maxabs: d²·maxabs² decides int64 against Python ints
    d = degree(p)
    edge = math.isqrt((INT64_BOUND - 1) // d**2)  # the largest maxabs kept on int64
    for maxabs, kernel in ((edge, np.int64), (edge + 1, object), (2**40, object)):
        assert kernel_dtype(d * d * maxabs**2) is kernel
        rows = [[s * maxabs for s in signs] for signs in itertools.product((-1, 0, 1), repeat=d)]
        out = abs_squared(np.array(rows, dtype=np.int64), p)
        assert out.dtype == kernel
        assert [CycInt(p, r) for r in out] == [CycInt(p, r).abs_squared() for r in rows]


def test_spectrum_from_array_validates_shape_and_dtype():
    with pytest.raises(ValueError):
        Spectrum.from_array(3, 2, np.zeros((8, 2), dtype=np.int64))
    with pytest.raises(ValueError):
        Spectrum.from_array(3, 2, np.zeros((9, 2)))
    s = Spectrum.from_array(3, 2, np.zeros((9, 2), dtype=np.int64))
    assert s == Spectrum(3, 2, [CycInt.zero(3)] * 9) and not s.array.flags.writeable


def test_inverse_round_trip_and_examples():
    f_sign = sign_of(X1X2)
    assert inverse(forward(f_sign)) == list(f_sign.entries)

    dc = Spectrum(3, 2, [CycInt.from_int(3, 9)] + [CycInt.zero(3)] * 8)
    assert inverse(dc) == [CycInt.one(3)] * 9

    # flat but not any function's spectrum: inverse lands outside the signs
    w = xi(3)
    table3 = Spectrum(3, 2, [3 * w, 3 * w * w, CycInt.from_int(3, 3), 3 * w * w,
                             CycInt.from_int(3, 3), 3 * w, CycInt.from_int(3, 3), 3 * w, 3 * w * w])
    recovered = inverse(table3)
    assert recovered == [CycInt.zero(3)] * 8 + [3 * w]


def test_inverse_round_trips_arbitrary_vectors():
    rng = random.Random(4242)
    for _ in range(20):
        vec = rand_vector(rng, 3, 2)
        assert inverse(forward(vec)) == vec


def test_inverse_divisibility_error_carries_witness():
    s = Spectrum(3, 2, [CycInt.one(3)] + [CycInt.zero(3)] * 8)
    with pytest.raises(NotDivisible) as err:
        inverse(s)
    assert err.value.index is not None


def test_is_flat():
    assert is_flat(forward(sign_of(X1X2)))
    assert not is_flat(Spectrum(3, 2, [CycInt.from_int(3, 9)] + [CycInt.zero(3)] * 8))
    w = xi(3)
    table3 = [3 * w, 3 * w * w, CycInt.from_int(3, 3), 3 * w * w, CycInt.from_int(3, 3),
              3 * w, CycInt.from_int(3, 3), 3 * w, 3 * w * w]
    assert is_flat(table3)


def test_round_trip_entries_at_3_to_the_10_keep_one_object_per_distinct_value():
    rng = random.Random(10)
    f = MvFunction(3, 10, [rng.randrange(3) for _ in range(3**10)])
    back = inverse(forward_fast(sign_of(f)))
    tracemalloc.start()
    try:
        entries = back.entries
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert entries == sign_of(f).entries and len({id(e) for e in entries}) == 3
    # the tuple of 3^10 references takes 0.47 MB; a CycInt and a tuple per entry would add 6 MB
    assert kept < 2**20


def test_constant_shift_rotates_spectrum():
    rng = random.Random(9)
    for _ in range(10):
        f = MvFunction(3, 2, [rng.randrange(3) for _ in range(9)])
        base = forward(sign_of(f))
        for c in (1, 2):
            shifted = forward(sign_of(add_constant(f, c)))
            assert list(shifted.entries) == [e.mul_root(c) for e in base.entries]


def test_spectrum_kron():
    s = forward(sign_of(X1X2))
    big = spectrum_kron(s, s)
    assert big.n == 4
    for i in range(9):
        for j in range(9):
            assert big.entries[i * 9 + j] == s.entries[i] * s.entries[j]


@pytest.mark.parametrize("p", [3, 4, 5, 6])
def test_mul_array_bound_counts_contracted_terms(p):
    # 64 products of 2^29 sum to ±2^64 in one outer-product cell although each product fits:
    # the bound 64·d²·2^58 sends that contraction to Python ints; 8 terms of 2^27 stay on int64
    d = degree(p)
    for terms, coeff, kernel in ((64, 2**29, object), (8, 2**27, np.int64)):
        a = np.full((terms, d), coeff, dtype=np.int64)
        b = np.tile([coeff * (-1) ** c for c in range(d)], (terms, 1))
        out = mul_array(a, b, p, "kb,kc->bc", terms=terms)
        assert out.dtype == kernel
        expected = CycInt.zero(p)
        for ra, rb in zip(a.tolist(), b.tolist()):
            expected = expected + CycInt(p, ra) * CycInt(p, rb)
        assert CycInt(p, out) == expected


def test_size_guard():
    with pytest.raises(SizeLimitExceeded, match=r"3\^11 exceeds the size limit"):
        forward_fast(Spectrum.from_array(3, 11, np.zeros((3**11, 2), dtype=np.int64)))


def test_size_guard_env_override(monkeypatch):
    monkeypatch.setenv("BENT_SIZE_LIMIT", "9")
    with pytest.raises(SizeLimitExceeded):
        forward_fast([CycInt.one(3)] * 27)
    monkeypatch.delenv("BENT_SIZE_LIMIT")


def test_spectrum_file_round_trip():
    s = forward(sign_of(X1X2))
    lines = format_spectrum_lines(s)
    assert lines[0] == "3 2"
    assert parse_spectrum_lines(lines) == s
    compact = ["3 2", "exp:000021012"]
    assert parse_spectrum_lines(compact) == s
    with pytest.raises(ValueError):
        parse_spectrum_lines(["3 2", "exp:0001"])
    with pytest.raises(ValueError):
        parse_spectrum_lines(["3 2", "1", "2"])
    for lines, message in (
        (["3 -1", "1"], "variable count must be >= 0"),
        (["3 10000000", "exp:0"], r"expected 3\^10000000 exponent digits, got 1"),
        (["3 10000000", "1", "1"], r"expected 3\^10000000 entries, got 2"),
    ):
        with pytest.raises(ValueError, match=message):
            parse_spectrum_lines(lines)


def test_cyc_vector_refuses_a_huge_or_negative_variable_count():
    for n, message in ((10**7, r"3\^10000000"), (-1, "variable count must be >= 0")):
        with pytest.raises(ValueError, match=message):
            CycVector(3, n, [CycInt.one(3)])
        with pytest.raises(ValueError, match=message):
            CycVector.from_array(3, n, np.array([[1, 0]]))


def test_parse_spectrum_rejects_exponent_digits_not_below_p():
    for p, n, digits, position in ((3, 2, "900000000", 0), (3, 2, "000030000", 4), (4, 2, "0" * 15 + "4", 15)):
        with pytest.raises(ValueError, match=f"exponent digit [0-9] at position {position} is not below {p}"):
            parse_spectrum_lines([f"{p} {n}", "exp:" + digits])
    assert parse_spectrum_lines(["4 2", "exp:" + "3" * 16]) == Spectrum.from_strict_exponents(4, 2, [3] * 16)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_spectrum_file_round_trips_through_both_forms(data):
    p = data.draw(st.sampled_from((3, 4, 5, 6)), label="p")
    n = data.draw(st.integers(0, 3), label="n")
    size, d = p**n, degree(p)
    coefficient = st.integers(-(2**70), 2**70)
    rows = data.draw(st.lists(st.lists(coefficient, min_size=d, max_size=d), min_size=size, max_size=size))
    # one coefficient above 2^63 puts the whole array on Python ints
    rows[data.draw(st.integers(0, size - 1))][0] = 2**63 + data.draw(st.integers(0, 2**64))
    s = Spectrum(p, n, [CycInt(p, row) for row in rows])
    assert s.array.dtype == object
    assert parse_spectrum_lines(format_spectrum_lines(s)) == s
    wrapped = Spectrum.from_array(p, n, np.array(rows, dtype=object))
    assert parse_spectrum_lines(format_spectrum_lines(wrapped)) == wrapped == s

    even = data.draw(st.sampled_from((0, 2)), label="even n")
    exponents = data.draw(st.lists(st.integers(0, p - 1), min_size=p**even, max_size=p**even))
    strict = Spectrum.from_strict_exponents(p, even, exponents)
    compact = [f"{p} {even}", "exp:" + "".join(map(str, exponents))]
    assert parse_spectrum_lines(compact) == strict
    assert parse_spectrum_lines(format_spectrum_lines(strict)) == strict


def test_factorial_identity():
    # the straight-permutation count on 9 spectral positions
    assert math.factorial(9) == 362880


@settings(max_examples=40, deadline=None)
@given(coefficient_vectors(), st.booleans())
def test_inverse_returns_an_array_backed_vector_that_round_trips(case, huge):
    p, n, vec = case
    if huge:  # one coefficient of 2^64 puts the spectrum, and the inverse, on Python ints
        vec[0] = vec[0] + 2**64
    s = forward_fast(vec)
    if huge:
        assert s.array.dtype == object and max(abs(int(c)) for c in s.array.ravel()) > 2**62
    back = inverse(s)
    assert type(back) is CycVector and (back.p, back.n) == (p, n)
    assert back._entries is None and not back.array.flags.writeable
    assert back.array.tolist() == [list(e.coeffs) for e in vec]
    assert back == vec and vec == back
    assert inverse(Spectrum.from_array(p, n, s.array.astype(object))) == vec


def test_inverse_equals_a_list_of_the_same_entries_only():
    entries = list(sign_of(X1X2).entries)
    back = inverse(forward_fast(sign_of(X1X2)))
    assert back == entries and entries == back
    assert not back != entries and not entries != back
    changed = entries[:4] + [2 * entries[4]] + entries[5:]
    for other in (changed, entries[:-1], entries + entries[:1]):
        assert back != other and other != back
        assert not back == other and not other == back


def test_inverse_not_divisible_names_the_first_inexact_coordinate():
    coeffs = [(-1, 2), (-2, -1), (-2, -1), (0, -1), (-2, 1), (-2, 1), (-2, -1), (1, 0), (1, 0)]
    s = [CycInt(3, c) for c in coeffs]
    image = [sum((c * e for c, e in zip(row, s)), CycInt.zero(3)) for row in build_c(3, 2)]
    first = next(i for i, v in enumerate(image) if any(c % 9 for c in v.coeffs))
    assert first == 3 and image[first] == CycInt(3, (-7, -5))
    for vec in (s, Spectrum(3, 2, s), Spectrum.from_array(3, 2, np.array(coeffs, dtype=object))):
        with pytest.raises(NotDivisible, match="coordinate 3 = -7-5x is not a multiple of 9") as err:
            inverse(vec)
        assert err.value.index == first and err.value.value == image[first]


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_divide_exact_quotient_and_first_inexact_entry_for_both_dtypes(dtype):
    # int64 takes one divmod pass, Python ints two; both floor and name the same first bad entry
    rng = np.random.default_rng(12)
    for p in SUPPORTED_RADICES:
        d = degree(p)
        exact = (rng.integers(-50, 50, size=(4, 9, d)) * 9).astype(dtype)
        if dtype is object:
            exact[0, 0, 0] += 9 * 2**70
        quotient = divide_exact(exact, 9, p)
        assert quotient.dtype == dtype and quotient.tolist() == [
            [[c // 9 for c in entry] for entry in row] for row in exact.tolist()
        ]
        spoiled = exact.copy()
        spoiled[2, 5, d - 1] -= 4
        spoiled[3, 1, 0] += 1
        value = CycInt(p, spoiled[2, 5])
        with pytest.raises(NotDivisible) as err:
            divide_exact(spoiled, 9, p)
        assert str(err.value) == f"coordinate 23 = {value} is not a multiple of 9"
        assert err.value.index == 23 and err.value.value == value


def test_inverse_builds_no_object_per_point():
    # the same measure as perfbench's cyclotomic.objects_per_point; a list[CycInt] adds two blocks a point
    s = forward_fast(rand_sign(random.Random(8), 3, 8))
    inverse(s)  # the kernel's tables are cached on first use
    gc.collect()
    before = sys.getallocatedblocks()
    back = inverse(s)
    gc.collect()
    assert sys.getallocatedblocks() - before < 50
    del back


@pytest.mark.parametrize("p", SUPPORTED_RADICES)
def test_ring_tables_hold_the_complex_roots_they_name(p):
    # every table is pinned to e^(2πik/p) or to its own exponent formula, written out here
    d, roots = degree(p), root_table(p)
    xi_c = np.exp(2j * np.pi / p)
    for k in range(p):
        assert abs(sum(int(c) * xi_c**i for i, c in enumerate(roots[k])) - xi_c**k) < 1e-9
    for b in range(d):
        for k in range(d):
            assert _product_table(p)[b * d + k].tolist() == roots[(b + k) % p].tolist()
            assert _abs_table(p)[b * d + k].tolist() == roots[(b - k) % p].tolist()
    for conjugate, sign in ((True, -1), (False, 1)):
        stage = _stage_matrix(p, conjugate)
        assert stage.shape == (p * d, p * d)
        for j in range(p):
            for b in range(d):
                blocks = stage[j * d + b].reshape(p, d)
                for i in range(p):
                    assert blocks[i].tolist() == roots[(b + sign * i * j) % p].tolist()
    codes = _unit_codes(p)
    want = {}
    for sign in (-1, 1):  # +ξ^k written last, so it wins where -ξ^j = +ξ^k
        for k in range(p):
            want[sum(sign * int(c) * 3**i for i, c in enumerate(roots[k])) % 3**d] = [sign, k]
    assert all(codes[code].tolist() == want.get(code, [0, 0]) for code in range(3**d))
    if p % 2 == 0:
        assert all(codes[code][0] == 1 for code in want)
    tables = [roots, codes, _product_table(p), _abs_table(p), _stage_matrix(p, True), _stage_matrix(p, False)]
    assert all(t.dtype == np.int64 and not t.flags.writeable for t in tables)


def test_strict_exponent_spectrum_is_scaled_roots():
    for p in SUPPORTED_RADICES:
        exponents = [(3 * x + 1) % p for x in range(p**2)]
        s = Spectrum.from_strict_exponents(p, 2, exponents)
        assert list(s) == [xi(p, e) * p for e in exponents] and s.array.dtype == np.int64
    with pytest.raises(ValueError, match=r"^expected 9 entries for p=3, n=2$"):
        Spectrum.from_strict_exponents(3, 2, [0] * 4)


def dense_transform(p, n, row, conjugate):
    """Σ_x ξ^(∓⟨w·x⟩)·row[x] by dense forward; the + sign is conj(forward(conj(row)))."""
    entries = [CycInt(p, r) for r in row]
    if conjugate:
        return list(forward(entries).entries)
    return [e.conj() for e in forward([e.conj() for e in entries]).entries]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_transform_of_a_stack_equals_each_row_alone_and_dense_forward(data):
    # leading axes, strides, read-only flags and dtype all change the layout the stages see
    p, n = data.draw(st.sampled_from([(p, 0) for p in SUPPORTED_RADICES] + SMALL_SIZES))
    lead = data.draw(st.sampled_from([(), (3,), (2, 3)]))
    dtype = data.draw(st.sampled_from([np.int64, object]))
    layout = data.draw(st.sampled_from(["contiguous", "swapaxes", "every-other", "read-only"]))
    conjugate = data.draw(st.booleans())
    d, size = degree(p), p**n
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    if layout == "swapaxes":
        stack = rng.integers(-50, 51, size=(*lead, d, size)).astype(dtype).swapaxes(-1, -2)
    elif layout == "every-other":
        stack = rng.integers(-50, 51, size=(*lead, 2 * size, d)).astype(dtype)[..., ::2, :]
    else:
        stack = rng.integers(-50, 51, size=(*lead, size, d)).astype(dtype)
    if dtype is object:
        stack[(0,) * len(lead)][0, 0] = 2**70  # a Python int no int64 holds
    stack.flags.writeable = layout != "read-only"
    before, writeable = stack.copy(), stack.flags.writeable
    out = transform(stack, p, n, conjugate)
    assert out.shape == stack.shape and out.dtype == dtype
    assert np.array_equal(stack, before) and stack.flags.writeable == writeable
    for index in np.ndindex(*lead):
        row = stack[index]
        assert np.array_equal(out[index], transform(np.ascontiguousarray(row), p, n, conjugate))
        assert [CycInt(p, r) for r in out[index].tolist()] == dense_transform(p, n, row.tolist(), conjugate)


@pytest.mark.parametrize("dtype", [np.int64, object])
def test_exact_division_floors_negative_values_on_every_path(dtype):
    # floor division: every negative multiple of p^n divides, while -1 and 1 - p^n are refused
    # by divide_exact, inverse and spectra_verdicts with the same first index and value
    for p in SUPPORTED_RADICES:
        d, scale = degree(p), p**2
        negative = -1 - np.arange(scale * d).reshape(scale, d)
        assert divide_exact((negative * scale).astype(dtype), scale, p).tolist() == negative.tolist()
        for refused in (-1, 1 - scale):
            image = (negative * scale).astype(dtype)
            image[5, d - 1] = refused
            image[7, 0] = refused
            with pytest.raises(NotDivisible) as err:
                divide_exact(image, scale, p)
            assert (err.value.index, err.value.value) == (5, CycInt(p, image[5]))
        s = forward_fast(CycVector.from_array(p, 2, negative)).array.astype(dtype)
        assert inverse(Spectrum.from_array(p, 2, s)).array.tolist() == negative.tolist()
        for shift in (scale - 1, 1):  # C·(c·e_0) adds c to every image entry: -1 and 1 - p^n at index 0
            spoiled = s.copy()
            spoiled[0, 0] += shift
            value = CycInt(p, [shift - scale] + (scale * negative[0, 1:]).tolist())
            assert value.coeffs[0] in (-1, 1 - scale)
            with pytest.raises(NotDivisible) as err:
                inverse(Spectrum.from_array(p, 2, spoiled))
            assert (err.value.index, err.value.value) == (0, value)
    # flat, and its inverse image starts with 1 - 3 and -1 at w = 0; a bent spectrum divides into
    # negative coefficients (ξ^2 = -1 - ξ), and so does its negation, which then is no sign
    flat = np.array([[-2, -1], [-2, -1], [2, 1]], dtype=dtype)
    bent = forward_fast(sign_of(MvFunction.from_digits(3, 1, "022"))).array.astype(dtype)
    verdicts = spectra_verdicts(np.stack([flat, bent, -bent]), 3, 1)
    assert (verdicts[0].stage, verdicts[0].witness) == ("not-divisible", (0, CycInt(3, (-2, -1))))
    with pytest.raises(NotDivisible) as err:
        inverse(Spectrum.from_array(3, 1, flat))
    assert (err.value.index, err.value.value) == verdicts[0].witness
    assert verdicts[1] == MvFunction.from_digits(3, 1, "022") and verdicts[2].stage == "not-a-sign"


SIGN_SIZES = [(p, n) for p in SUPPORTED_RADICES for n in (0, 1, 2, 3) if p**n <= 216]


@pytest.mark.parametrize("p,n", SIGN_SIZES)
def test_sign_transform_equals_transform_of_roots_and_dense_forward(p, n):
    rng = np.random.default_rng(2800 + 10 * p + n)
    for dtype in (np.uint8, np.int64):
        stack = rng.integers(0, p, size=(7, p**n)).astype(dtype)
        for exponents in (stack[0], stack):
            out = sign_transform(exponents, p, n)
            want = transform(root_table(p)[exponents], p, n, conjugate=True)
            assert out.shape == want.shape == (*exponents.shape, degree(p))
            assert out.dtype == want.dtype == np.int64 and np.array_equal(out, want)
            assert n == 0 or int(np.abs(out).max()) <= p * (2 * p) ** (n - 1)  # the bound that picks int64
        for row, spectrum in zip(stack, sign_transform(stack, p, n)):
            assert np.array_equal(spectrum, forward(sign_of(MvFunction(p, n, row.tolist()))).array)


@pytest.mark.parametrize("p,n", SIGN_SIZES)
def test_forward_fast_of_a_sign_vector_is_one_spectrum_however_the_vector_was_built(p, n):
    f = MvFunction(p, n, [(3 * x * x + x + 1) % p for x in range(p**n)])
    built = [sign_of(f), SignVector(p, n, sign_of(f).entries), SignVector.from_array(p, n, sign_of(f).array)]
    want = forward_fast(CycVector.from_array(p, n, sign_of(f).array))  # the coefficient-array path
    assert want == forward(sign_of(f))
    for sign in built:
        s = forward_fast(sign)
        assert type(s) is Spectrum and s == want and s.array.dtype == want.array.dtype
        assert (s.p, s.n) == (p, n) and not s.array.flags.writeable


def test_forward_fast_of_a_sign_vector_builds_no_coefficient_array():
    sign = sign_of(MvFunction(3, 4, [x % 3 for x in range(81)]))
    forward_fast(sign)
    assert sign._array is None and sign._entries is None


@pytest.mark.parametrize("p,nbytes", [(3, 162), (4, 2048), (5, 62500), (6, 559872)])
def test_sign_table_is_int8_p_by_d_by_p_to_the_p(p, nbytes):
    table, d, roots = _sign_table(p), degree(p), root_table(p)
    assert table.shape == (p, d, p**p) and table.dtype == np.int8 and table.nbytes == nbytes
    assert not table.flags.writeable and int(np.abs(table).max()) <= p
    rng = random.Random(p)
    for code in rng.sample(range(p**p), min(p**p, 300)):
        e = [code // p**i % p for i in range(p)]
        for w in range(p):
            want = sum(roots[(e[i] - i * w) % p] for i in range(p))
            assert table[w, :, code].tolist() == want.tolist()


def test_sign_table_build_peaks_below_twice_its_size():
    _sign_table.cache_clear()
    tracemalloc.start()
    try:
        table = _sign_table(6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.nbytes == 559872 and peak < 2 * table.nbytes


def test_format_spectrum_lines_renders_each_distinct_value_once(monkeypatch):
    rng = random.Random(2806)
    s = forward_fast(rand_sign(rng, 3, 6))
    per_entry = [f"{s.p} {s.n}"] + [str(CycInt(3, row)) for row in s.array.tolist()]
    distinct = len({tuple(row) for row in s.array.tolist()})
    calls = []
    render = CycInt.__str__
    monkeypatch.setattr(CycInt, "__str__", lambda self: calls.append(self) or render(self))
    lines = format_spectrum_lines(s)
    monkeypatch.undo()
    assert lines == per_entry
    assert len(calls) <= distinct < len(s)
    for p, n in ((5, 2), (4, 3)):  # and on a dtype=object spectrum
        s = Spectrum.from_array(p, n, forward_fast(rand_sign(rng, p, n)).array.astype(object) * 2**62)
        assert format_spectrum_lines(s) == [f"{p} {n}"] + [str(e) for e in s.entries]
