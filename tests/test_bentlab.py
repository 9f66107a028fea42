import json
import random

import pytest

from vcbent.bentlab import (
    NotAFunction,
    NotBentSpectrum,
    NotStrict,
    circular_spectrum,
    dual,
    is_bent,
    negate_classify,
    spectrum_is_bent,
    strict_exponents,
)
from vcbent.cyclotomic import CycInt, xi
from vcbent.genperm import apply, block_diag, gamma, kron
from vcbent.mvfunction import MvFunction, sign_of
from vcbent.vctransform import SizeLimitExceeded, Spectrum, forward, is_flat

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
