import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcbent.cyclotomic import (
    _cyc_list,
    _unit_roots,
    CycInt,
    CycVector,
    NotAUnitRoot,
    NotDivisible,
    RadixMismatch,
    RootScalar,
    SUPPORTED_RADICES,
    degree,
    parse_cyc,
    xi,
)


def rand_cyc(rng, p, bound=9):
    return CycInt(p, [rng.randint(-bound, bound) for _ in range(degree(p))])


def as_complex(a: CycInt) -> complex:
    root = cmath.exp(2j * cmath.pi / a.p)
    return sum(c * root**k for k, c in enumerate(a.coeffs))


@pytest.mark.parametrize("p", SUPPORTED_RADICES)
def test_reduction_agrees_with_complex_arithmetic(p):
    # independent numeric oracle for the Φ_p reduction tables
    rng = random.Random(300 + p)
    for _ in range(40):
        a, b = rand_cyc(rng, p), rand_cyc(rng, p)
        assert abs(as_complex(a * b) - as_complex(a) * as_complex(b)) < 1e-7
        assert abs(as_complex(a + b) - (as_complex(a) + as_complex(b))) < 1e-9
        assert abs(as_complex(a.conj()) - as_complex(a).conjugate()) < 1e-9
        assert abs(as_complex(a.abs_squared()) - abs(as_complex(a)) ** 2) < 1e-6
        for k in range(p):
            root = cmath.exp(2j * cmath.pi * k / p)
            assert abs(as_complex(a.mul_root(k)) - as_complex(a) * root) < 1e-7


def test_addition_examples():
    assert xi(3) + xi(3, 2) == CycInt(3, (-1, 0))  # 1 + ξ + ξ² = 0
    assert CycInt.one(3) + CycInt.zero(3) == CycInt.one(3)
    assert xi(4) + xi(4, 3) == CycInt.zero(4)  # i + (-i)


def test_multiplication_examples():
    assert xi(3) * xi(3, 2) == CycInt.one(3)  # ξ·ξ* on the unit circle
    assert xi(3) * xi(3) == CycInt(3, (-1, -1))  # ξ² reduced
    assert xi(5, 2) * xi(5, 4) == xi(5, 1)


def test_root_powers_cycle_and_sum():
    for p in SUPPORTED_RADICES:
        roots = [xi(p, k) for k in range(p)]
        assert len(set(roots)) == p
        prod = CycInt.one(p)
        for _ in range(p):
            prod = prod * xi(p)
        assert prod == CycInt.one(p)  # ξ^p = 1
    for p in (3, 5):  # Φ_p = 1 + x + ... for prime p
        total = CycInt.zero(p)
        for k in range(p):
            total = total + xi(p, k)
        assert total == CycInt.zero(p)


@pytest.mark.parametrize("p", SUPPORTED_RADICES)
def test_ring_axioms_random(p):
    rng = random.Random(1000 + p)
    for _ in range(60):
        a, b, c = (rand_cyc(rng, p) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


def test_conjugation_examples():
    assert xi(3).conj() == xi(3, 2)
    assert CycInt.from_int(3, 5).conj() == CycInt.from_int(3, 5)
    assert xi(4).conj() == xi(4, 3)


@pytest.mark.parametrize("p", SUPPORTED_RADICES)
def test_conj_is_ring_automorphism(p):
    rng = random.Random(2000 + p)
    for _ in range(40):
        a, b = rand_cyc(rng, p), rand_cyc(rng, p)
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a + b).conj() == a.conj() + b.conj()
        assert a.conj().conj() == a


def test_abs_squared_examples():
    assert (3 * xi(3, 2)).abs_squared() == CycInt.from_int(3, 9)
    assert CycInt.zero(3).abs_squared() == CycInt.zero(3)
    # (1+ξ)(1+ξ²) = 1 + ξ + ξ² + 1 = 1, worked out by hand
    assert (CycInt.one(3) + xi(3)).abs_squared() == CycInt.one(3)


@pytest.mark.parametrize("p", SUPPORTED_RADICES)
def test_unit_roots_have_unit_norm(p):
    for k in range(p):
        assert xi(p, k).abs_squared() == CycInt.one(p)


def test_as_root_scalar_examples():
    assert xi(3, 2).as_root_scalar() == RootScalar(3, 1, 2)
    with pytest.raises(NotAUnitRoot):
        (3 * xi(3)).as_root_scalar()
    assert (-xi(3)).as_root_scalar() == RootScalar(3, -1, 1)
    with pytest.raises(NotAUnitRoot):
        CycInt.zero(3).as_root_scalar()


def test_as_root_scalar_prefers_positive_sign_for_even_radix():
    # for p = 4, -ξ is exactly ξ³; the canonical decomposition keeps sign +1
    assert (-xi(4)).as_root_scalar() == RootScalar(4, 1, 3)
    assert (-xi(6, 2)).as_root_scalar() == RootScalar(6, 1, 5)


@pytest.mark.parametrize("p", SUPPORTED_RADICES)
def test_root_product_exponent_law(p):
    for j in range(p):
        for k in range(p):
            rs = (xi(p, j) * xi(p, k)).as_root_scalar()
            assert rs == RootScalar(p, 1, (j + k) % p)


def test_mul_root_matches_full_multiplication():
    rng = random.Random(7)
    for p in SUPPORTED_RADICES:
        for _ in range(20):
            a = rand_cyc(rng, p)
            for k in range(p):
                assert a.mul_root(k) == a * xi(p, k)


def test_div_exact_int_examples():
    assert (9 * xi(3)).div_exact_int(9) == xi(3)
    with pytest.raises(NotDivisible):
        CycInt.from_int(3, 3).div_exact_int(9)
    assert (CycInt.from_int(3, 9) + 18 * xi(3)).div_exact_int(9) == CycInt.from_int(3, 1) + 2 * xi(3)
    with pytest.raises(ValueError):
        CycInt.one(3).div_exact_int(0)


def test_radix_mismatch_and_rejection():
    with pytest.raises(RadixMismatch):
        xi(3) + xi(4)
    with pytest.raises(RadixMismatch):
        xi(3) * xi(5)
    with pytest.raises(ValueError):
        CycInt.one(7)
    with pytest.raises(ValueError):
        CycInt(3, (1, 2, 3))


def test_string_round_trip():
    cases = {
        CycInt.from_int(3, 3): "3",
        3 * xi(3): "3x",
        CycInt(3, (-1, -1)): "-1-1x",
        CycInt(3, (1, 2)): "1+2x",
        CycInt.zero(3): "0",
        2 * xi(5, 3): "2x^3",
    }
    for value, text in cases.items():
        assert str(value) == text
        assert parse_cyc(value.p, text) == value
    rng = random.Random(99)
    for p in SUPPORTED_RADICES:
        for _ in range(40):
            a = rand_cyc(rng, p)
            assert parse_cyc(p, str(a)) == a


def test_parse_rejects_garbage():
    for bad in ("", "x^5", "3y", "1++2", "2x^2"):
        with pytest.raises(ValueError):
            parse_cyc(3, bad)


def test_root_scalar_round_trip_and_product():
    for p in SUPPORTED_RADICES:
        for sign in (1, -1):
            for k in range(p):
                rs = RootScalar(p, sign, k)
                back = rs.to_cyc().as_root_scalar()
                assert back.to_cyc() == rs.to_cyc()
    a = RootScalar(3, -1, 2) * RootScalar(3, -1, 2)
    assert a == RootScalar(3, 1, 1)
    assert RootScalar(3, 1, 2).apply(5 * xi(3, 2)) == 5 * xi(3, 1)


@pytest.mark.parametrize("p", SUPPORTED_RADICES)
@pytest.mark.parametrize("scale", [1, 3, 9, 2**70])
def test_unit_roots_decode_matches_the_entrywise_decomposition(p, scale):
    # reference: div_exact_int then as_root_scalar, entry by entry
    rng = random.Random(p * 31 + scale % 97)
    values = [RootScalar(p, sign, k).to_cyc() * scale for sign in (1, -1) for k in range(p)]
    values += [CycInt.from_int(p, scale + 1), CycInt.zero(p), xi(p) * (2 * scale), rand_cyc(rng, p) * scale]
    values += [xi(p, k) * scale + CycInt.one(p) for k in range(p)]  # off by one: not divisible for scale > 1
    array = np.array([v.coeffs for v in values], dtype=object if scale > 2**62 else np.int64)
    signs, exponents, ok = _unit_roots(array, p, scale)
    for v, sign, k, good in zip(values, signs.tolist(), exponents.tolist(), ok.tolist()):
        try:
            want = v.div_exact_int(scale).as_root_scalar()
        except (NotDivisible, NotAUnitRoot):
            assert not good, v
            continue
        assert good and RootScalar(p, sign, k) == want, v


def test_unit_roots_prefer_positive_sign_for_even_radix():
    # -ξ = ξ³ for p = 4 and -ξ² = ξ⁵ for p = 6: +ξ^k wins, as in as_root_scalar
    cells = np.array([(-xi(4) * 2).coeffs, (-xi(4, 0) * 2).coeffs])
    assert [a.tolist() for a in _unit_roots(cells, 4, 2)] == [[1, 1], [3, 2], [True, True]]
    cells = np.array([(-xi(6, 2) * 3).coeffs])
    assert [a.tolist() for a in _unit_roots(cells, 6, 3)] == [[1], [5], [True]]
    # for odd p a negative root has only the sign -1
    cells = np.array([(-xi(3, 2) * 3).coeffs])
    assert [a.tolist() for a in _unit_roots(cells, 3, 3)] == [[-1], [2], [True]]


def test_unit_roots_refuse_non_divisible_entries():
    # 3·ξ + 1 floors to ξ under // 3, so only the remainder check catches it
    cells = np.array([(xi(3) * 3 + 1).coeffs, (xi(3) * 3).coeffs, (xi(3) * 6).coeffs])
    _, exponents, ok = _unit_roots(cells, 3, 3)
    assert ok.tolist() == [False, True, False]
    assert exponents[1] == 1


def test_cyc_vector_refuses_entries_outside_its_ring():
    with pytest.raises(RadixMismatch, match=r"is not in Z\[ξ_3\]"):
        CycVector(3, 1, [CycInt.one(4)] * 3)
    with pytest.raises(ValueError, match=r"^entry 'a' is not in Z\[ξ_3\]$") as err:
        CycVector(3, 1, ["a"] * 3)
    assert type(err.value) is ValueError
    assert CycVector(3, 1, [xi(3, k) for k in range(3)]).array.tolist() == [[1, 0], [0, 1], [-1, -1]]


def test_root_scalar_keeps_one_form_per_unit():
    from vcbent.genperm import GenPerm

    for p in (4, 6):
        for k in range(p):
            minus, plus = RootScalar(p, -1, k), RootScalar(p, 1, k + p // 2)
            assert minus == plus and hash(minus) == hash(plus) and minus.to_cyc() == -xi(p, k)
            assert (minus.sign, minus.exponent) == (1, (k + p // 2) % p)
            assert GenPerm(p, [0], [minus]).scalars == (minus,)
    for p in (3, 5):
        for k in range(p):
            minus = RootScalar(p, -1, k)
            assert (minus.sign, minus.exponent) == (-1, k) and minus.to_cyc() == -xi(p, k)
            assert all(minus != RootScalar(p, 1, j) for j in range(p))
            assert GenPerm(p, [0], [minus]).scalars == (minus,)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_cyc_list_builds_one_shared_entry_per_distinct_row_on_both_dtypes(data):
    p = data.draw(st.sampled_from(SUPPORTED_RADICES), label="p")
    shape = tuple(data.draw(st.lists(st.integers(0, 5), min_size=1, max_size=2), label="shape"))
    coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=math.prod(shape) * degree(p),
                                max_size=math.prod(shape) * degree(p)), label="coeffs")
    array = np.array(coeffs, dtype=np.int64).reshape(*shape, degree(p))
    if data.draw(st.booleans(), label="above 2^62"):
        array = array.astype(object) * 2**63 + 1
    out = _cyc_list(p, array)
    assert out == [CycInt(p, row) for row in array.reshape(-1, degree(p))]
    assert all(type(e.coeffs) is tuple and all(type(c) is int for c in e.coeffs) for e in out)
    assert len({id(e) for e in out}) == len(set(out))  # equal rows are one object


def test_cyc_vector_entries_share_one_object_per_distinct_value():
    array = np.array([[1, 0], [0, 1], [1, 0], [0, 0], [0, 1], [1, 0], [0, 0], [0, 0], [1, 0]])
    v = CycVector.from_array(3, 2, array)
    assert v.entries[0] is v.entries[2] is v.entries[8] and v.entries[3] is v.entries[7]
    assert all(a is b for a, b in zip(v, v.entries))
    assert len({id(e) for e in v}) == 3
    assert repr(v) == repr(CycVector(3, 2, [CycInt(3, row) for row in array]))
