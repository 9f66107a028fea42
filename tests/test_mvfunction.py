import gc
import random
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcbent.bentlab import circular_spectrum
from vcbent.cyclotomic import CycInt, CycVector, NotAUnitRoot, RadixMismatch, xi
from vcbent.mvfunction import (
    GF3Polynomial,
    MvFunction,
    NotASign,
    SignVector,
    add_constant,
    digits_of,
    eval_polynomial,
    functions_of,
    index_of,
    scalar_product,
    sign_of,
    tensor_sum,
    try_from_sign,
    un_vec,
    vec_columns,
)
from vcbent.vctransform import Spectrum, forward, forward_fast, inverse

X1X2 = MvFunction.from_digits(3, 2, "000012021")


def test_index_convention_x1_most_significant():
    # f = x1·x2 pinned to [000 012 021] fixes the digit order
    assert [digits_of(x, 3, 2) for x in range(4)] == [(0, 0), (0, 1), (0, 2), (1, 0)]
    assert index_of((1, 2), 3) == 5
    values = [(digits_of(x, 3, 2)[0] * digits_of(x, 3, 2)[1]) % 3 for x in range(9)]
    assert MvFunction(3, 2, values) == X1X2


def test_scalar_product():
    assert scalar_product(4, 4, 3, 2) == 2  # (1,1)·(1,1)
    assert scalar_product(5, 7, 3, 2) == (1 * 2 + 2 * 1) % 3


def test_sign_of_examples():
    w = xi(3)
    one = CycInt.one(3)
    assert list(sign_of(X1X2).entries) == [one, one, one, one, w, w * w, one, w * w, w]
    assert all(e == one for e in sign_of(MvFunction.constant(3, 0, 2)).entries)
    f = MvFunction.from_digits(3, 2, "001010022")
    assert list(sign_of(f).entries) == [one, one, w, one, w, one, one, w * w, w * w]


def test_try_from_sign_inverse_and_failures():
    rng = random.Random(11)
    for _ in range(25):
        f = MvFunction(3, 2, [rng.randrange(3) for _ in range(9)])
        assert try_from_sign(sign_of(f)) == f
    bad = [CycInt.zero(3)] * 8 + [3 * xi(3)]
    with pytest.raises(NotASign) as err:
        try_from_sign(bad)
    assert err.value.index == 0
    with pytest.raises(NotASign) as err:
        try_from_sign([-CycInt.one(3), CycInt.one(3), CycInt.one(3)])
    assert err.value.index == 0 and err.value.value == -CycInt.one(3)


def test_sign_of_builds_no_object_per_point():
    # the same measure as perfbench's cyclotomic.objects_per_point
    rng = random.Random(3)
    f = MvFunction(3, 10, [rng.randrange(3) for _ in range(3**10)])
    for build in (sign_of, lambda f: forward_fast(sign_of(f))):
        gc.collect()
        before = sys.getallocatedblocks()
        kept = build(f)
        gc.collect()
        assert (sys.getallocatedblocks() - before) / 3**10 < 0.01
        del kept


def _reference_decode(p, entries):
    """The entrywise scan by CycInt.as_root_scalar: exponents, or the first failure."""
    exponents = []
    for i, e in enumerate(entries):
        if not isinstance(e, CycInt) or e.p != p:
            return RadixMismatch, i
        try:
            rs = e.as_root_scalar()
        except NotAUnitRoot:
            return NotASign, i, e
        if rs.sign != 1:
            return NotASign, i, e
        exponents.append(rs.exponent)
    return tuple(exponents)


def _outcome(build):
    try:
        return build()
    except RadixMismatch as exc:
        assert str(exc).startswith("entry ")
        return RadixMismatch, int(str(exc).split()[1])
    except NotASign as exc:
        return NotASign, exc.index, exc.value


_CORRUPTIONS = {
    "zero": lambda p, k: CycInt.zero(p),
    "negated": lambda p, k: -xi(p, k),  # still +ξ^(k+p/2) for even p
    "doubled": lambda p, k: 2 * xi(p, k),
    "huge": lambda p, k: xi(p, k) * 2**70,
    "foreign radix": lambda p, k: xi(4 if p == 3 else 3, k),
    "not a CycInt": lambda p, k: k,
}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_sign_vector_decode_agrees_with_the_entrywise_reference(data):
    p = data.draw(st.sampled_from((3, 4, 5, 6)), label="p")
    n = data.draw(st.integers(0, 2), label="n")
    values = data.draw(st.lists(st.integers(0, p - 1), min_size=p**n, max_size=p**n), label="f")
    f = MvFunction(p, n, values)
    entries = [xi(p, v) for v in values]
    for _ in range(data.draw(st.integers(0, 3), label="corruptions")):
        i = data.draw(st.integers(0, p**n - 1))
        kind = data.draw(st.sampled_from(sorted(_CORRUPTIONS)))
        entries[i] = _CORRUPTIONS[kind](p, values[i])

    expected = _reference_decode(p, entries)
    assert _outcome(lambda: SignVector(p, n, entries).exponents()) == expected
    if isinstance(entries[0], CycInt) and entries[0].p == p:  # try_from_sign takes p from entry 0
        assert _outcome(lambda: try_from_sign(entries).values) == expected
    if all(isinstance(e, CycInt) and e.p == p for e in entries):
        rows = np.array([e.coeffs for e in entries], dtype=object)
        assert _outcome(lambda: SignVector.from_array(p, n, rows).exponents()) == expected
    if expected[0] in (RadixMismatch, NotASign):
        return

    decoded = SignVector(p, n, entries)
    g = MvFunction(p, n, expected)
    assert decoded == sign_of(g) and hash(decoded) == hash(sign_of(g))
    assert list(decoded) == list(sign_of(g)) == entries
    assert try_from_sign(sign_of(g)) == g
    assert (decoded == sign_of(f)) == (g == f)
    assert decoded != Spectrum(p, n, entries)
    assert circular_spectrum(f) == forward(sign_of(f)) == forward(SignVector(p, n, [xi(p, v) for v in values]))


def test_add_constant_examples():
    assert add_constant(X1X2, 1) == MvFunction.from_digits(3, 2, "111120102")
    assert add_constant(X1X2, 0) == X1X2
    assert add_constant(X1X2, 2) == MvFunction.from_digits(3, 2, "222201210")


def test_add_constant_rotates_sign_vector():
    rng = random.Random(21)
    for _ in range(10):
        f = MvFunction(3, 2, [rng.randrange(3) for _ in range(9)])
        for c in (1, 2):
            rotated = [e.mul_root(c) for e in sign_of(f).entries]
            assert list(sign_of(add_constant(f, c)).entries) == rotated


def test_tensor_sum_against_double_loop():
    got = tensor_sum(X1X2, X1X2)
    assert got.n == 4 and len(got.values) == 81
    for x in range(9):
        for y in range(9):
            assert got.values[x * 9 + y] == (X1X2.values[x] + X1X2.values[y]) % 3


def test_tensor_sum_neutral_and_1place():
    neutral = MvFunction.constant(3, 0)
    f2 = MvFunction.from_digits(3, 2, "021201111")
    assert tensor_sum(neutral, f2) == f2
    line = MvFunction.from_digits(3, 1, "012")
    assert tensor_sum(line, line) == MvFunction.from_digits(3, 2, "012120201")


def test_tensor_sum_associative():
    rng = random.Random(5)
    fs = [MvFunction(3, 1, [rng.randrange(3) for _ in range(3)]) for _ in range(3)]
    assert tensor_sum(tensor_sum(fs[0], fs[1]), fs[2]) == tensor_sum(fs[0], tensor_sum(fs[1], fs[2]))


def test_eval_polynomial_table_class_examples():
    assert eval_polynomial(GF3Polynomial.parse("x1*x2"), 2) == X1X2
    assert eval_polynomial(GF3Polynomial.parse("x1*x2 + x2 + 2*x2^2"), 2) == MvFunction.from_digits(
        3, 2, "001010022"
    )
    assert eval_polynomial(
        GF3Polynomial.parse("2*x1*x2 + 2*x1 + 2*x2^2 + 1"), 2
    ) == MvFunction.from_digits(3, 2, "100010220")


def test_polynomial_rejects_malformed_terms():
    with pytest.raises(ValueError):
        GF3Polynomial.parse("x1^3")
    with pytest.raises(ValueError):
        GF3Polynomial.parse("5*x1")
    with pytest.raises(ValueError):
        GF3Polynomial.parse("x1 * + x2")
    with pytest.raises(ValueError):
        eval_polynomial(GF3Polynomial.parse("x3"), 2)


def test_polynomial_str_round_trip():
    poly = GF3Polynomial.parse("2*x1*x2^2 + x2 + 1")
    again = GF3Polynomial.parse(str(poly))
    assert eval_polynomial(poly, 2) == eval_polynomial(again, 2)


def test_vec_columns_and_unvec():
    m = [["a", "b"], ["c", "d"]]
    assert vec_columns(m) == ["a", "c", "b", "d"]
    assert un_vec(vec_columns(m), 2) == m
    exponents = [[(i * j) % 3 for j in range(3)] for i in range(3)]
    assert vec_columns(exponents) == list(X1X2.values)
    with pytest.raises(ValueError):
        vec_columns([[1, 2], [3]])
    with pytest.raises(ValueError):
        un_vec([1, 2, 3], 2)


def test_function_line_round_trip():
    line = X1X2.to_line()
    assert line == "3 2 000012021"
    assert MvFunction.from_line(line) == X1X2
    with pytest.raises(ValueError):
        MvFunction.from_line("3 2")


def test_value_validation():
    with pytest.raises(ValueError):
        MvFunction(3, 1, (0, 1, 3))
    with pytest.raises(ValueError):
        MvFunction(3, 2, (0,) * 8)
    # a huge n is refused by its value count, without forming or printing 3^(10^7)
    with pytest.raises(ValueError, match=r"expected 3\^10000000 values for p=3, n=10000000, got 1"):
        MvFunction(3, 10**7, (0,))
    with pytest.raises(ValueError, match="variable count must be >= 0"):
        MvFunction(3, -1, (0,))


def test_values_must_be_integers():
    # int() used to truncate 0.5 and 2.9 and parse '1'
    for values, bad in (([0.5, 1, 2.9], "0.5"), ([0, "1", 2], "'1'"), ([0, 1, np.float64(2.0)], "np.float64(2.0)")):
        with pytest.raises(ValueError, match=rf"^value {re.escape(bad)} is not an integer$"):
            MvFunction(3, 1, values)
    f = MvFunction(3, 1, [np.int64(0), True, np.uint8(2)])
    assert f.values == (0, 1, 2) and all(type(v) is int for v in f.values)
    for dtype in (np.float64, bool, object):
        with pytest.raises(ValueError, match=rf"^expected integer values, got dtype {np.dtype(dtype)}$"):
            functions_of(3, 1, np.zeros((2, 3), dtype=dtype))
    with pytest.raises(ValueError, match=r"^expected a \(B, p\^n\) array of values, got shape \(3,\)$"):
        functions_of(3, 1, np.zeros(3, dtype=np.int64))
    assert functions_of(3, 1, np.zeros((0, 3), dtype=np.int64)) == []


def _made(build):
    """A built list of functions, or the (type, message) of what refused it."""
    try:
        return build()
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_functions_of_equals_the_per_row_constructor(data):
    p = data.draw(st.sampled_from((3, 4, 5, 6)), label="p")
    n = data.draw(st.integers(0, {3: 4, 4: 3, 5: 2, 6: 2}[p]), label="n")
    length = p**n
    if data.draw(st.booleans(), label="wrong length"):
        length = data.draw(st.integers(0, 90).filter(lambda k: k != p**n), label="length")
    value = st.integers(0, p - 1)
    if data.draw(st.booleans(), label="out of range"):
        value = st.one_of(value, st.integers(-300, -1), st.integers(p, 300))
    rows = data.draw(st.lists(st.lists(value, min_size=length, max_size=length), min_size=1, max_size=6), label="rows")
    flat = [v for row in rows for v in row]
    low, high = min(flat, default=0), max(flat, default=0)
    fits = [t for t in (np.int64, np.int16, np.uint16, np.uint8) if np.iinfo(t).min <= low and high <= np.iinfo(t).max]
    array = np.array(rows, dtype=data.draw(st.sampled_from(fits), label="dtype"))
    q = data.draw(st.sampled_from((p, p, p, 2, 7)), label="radix given")

    reference = _made(lambda: [MvFunction(q, n, row) for row in array.tolist()])
    decoded = _made(lambda: functions_of(q, n, array))
    assert decoded == reference  # the same functions, or the same error and message
    if isinstance(reference, tuple):
        return
    assert [f.values for f in decoded] == [f.values for f in reference]
    assert all(type(v) is int for f in decoded for v in f.values)
    assert [hash(f) for f in decoded] == [hash(f) for f in reference]
    assert [f.digit_string() for f in decoded] == [f.digit_string() for f in reference]
    assert [a < b for a in decoded for b in decoded] == [a < b for a in reference for b in reference]
    assert [(f.p, f.n) for f in decoded] == [(q, n)] * len(rows)


def test_constant_checks_n_before_forming_its_values():
    with pytest.raises(ValueError, match="variable count must be >= 0"):
        MvFunction.constant(3, 0, -1)
    assert MvFunction.constant(3, 2, 2).digit_string() == "222222222"
    # refused before (0,) * 3^n is formed, and before 3^(10^7) is computed
    tracemalloc.start()
    try:
        for n in (40, 10**7):
            with pytest.raises(ValueError, match=rf"3\^{n} values exceed the largest sequence length"):
                MvFunction.constant(3, 0, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_try_from_sign_decodes_a_cyc_vector_from_its_array(data):
    p = data.draw(st.sampled_from((3, 4, 5, 6)), label="p")
    n = data.draw(st.integers(0, 2), label="n")
    values = data.draw(st.lists(st.integers(0, p - 1), min_size=p**n, max_size=p**n), label="f")
    entries = [xi(p, v) for v in values]
    for _ in range(data.draw(st.integers(0, 3), label="corruptions")):
        i = data.draw(st.integers(0, p**n - 1))
        kind = data.draw(st.sampled_from(["zero", "negated", "doubled", "huge"]))
        entries[i] = _CORRUPTIONS[kind](p, values[i])
    rows = np.array([e.coeffs for e in entries], dtype=object)
    vector = CycVector.from_array(p, n, rows)
    assert _outcome(lambda: try_from_sign(vector).values) == _outcome(lambda: try_from_sign(entries).values)
    assert vector._entries is None  # decoded from the array alone


def test_try_from_sign_of_an_inverse_builds_no_entries():
    rng = random.Random(12)
    for p in (3, 4, 5, 6):
        f = MvFunction(p, 3, [rng.randrange(p) for _ in range(p**3)])
        back = inverse(circular_spectrum(f))
        assert try_from_sign(back) == f and back._entries is None
    w, three = xi(3), CycInt.from_int(3, 3)  # flat, but its inverse is 3ξ at index 8 and zero elsewhere
    flat = Spectrum(3, 2, [3 * w, 3 * w * w, three, 3 * w * w, three, 3 * w, three, 3 * w, 3 * w * w])
    with pytest.raises(NotASign) as err:
        try_from_sign(inverse(flat))
    assert (err.value.index, err.value.value) == (0, CycInt.zero(3))
