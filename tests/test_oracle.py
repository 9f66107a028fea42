import cmath
import tracemalloc
from itertools import product

import numpy as np
import pytest

from vcbent import oracle
from vcbent.bentlab import circular_spectrum
from vcbent.mvfunction import MvFunction
from vcbent.oracle import ScanTooLarge, all_bent, all_bent_1place, certify

SCANS = [(3, 1), (3, 2), (4, 1), (5, 1), (6, 1)]


def float_spectrum(f):
    """Independent floating-point transform used as a cross-check oracle."""
    xi = cmath.exp(2j * cmath.pi / f.p)
    size = f.p**f.n

    def dot(w, x):
        total, ww, xx = 0, w, x
        for _ in range(f.n):
            total += (ww % f.p) * (xx % f.p)
            ww //= f.p
            xx //= f.p
        return total

    return [
        sum(xi ** ((f.values[x] - dot(w, x)) % f.p) for x in range(size))
        for w in range(size)
    ]


def test_all_bent_count_and_members(oracle_set):
    assert len(oracle_set) == 486
    assert MvFunction.from_digits(3, 2, "000012021") in oracle_set
    assert MvFunction.constant(3, 0, 2) not in oracle_set


def test_oracle_agrees_with_float_flatness(oracle_set):
    import random

    rng = random.Random(15)
    inside = rng.sample(sorted(oracle_set), 10)
    for f in inside:
        mags = [abs(v) for v in float_spectrum(f)]
        assert all(abs(m - 3.0) < 1e-9 for m in mags)
    outside = 0
    while outside < 10:
        f = MvFunction(3, 2, [rng.randrange(3) for _ in range(9)])
        if f in oracle_set:
            continue
        mags = [abs(v) for v in float_spectrum(f)]
        assert any(abs(m - 3.0) > 1e-9 for m in mags)
        outside += 1


def test_all_bent_is_deterministic(oracle_set):
    assert all_bent(3, 1) == all_bent(3, 1)
    assert all_bent(3, 2) == oracle_set


def test_all_bent_guard():
    with pytest.raises(ScanTooLarge):
        all_bent(3, 3)


def test_all_bent_1place():
    flats = all_bent_1place()
    assert flats == all_bent(3, 1)
    # quadratics ax² + bx + c with a ≠ 0 are exactly the flat ones: 18 of them
    assert len(flats) == 18
    for a in (1, 2):
        for b in range(3):
            for c in range(3):
                f = MvFunction(3, 1, [(a * x * x + b * x + c) % 3 for x in range(3)])
                assert f in flats
    for f in flats:
        assert f.values[0] != f.values[1] or f.values[1] != f.values[2]


def test_1place_exclusions():
    flats = all_bent_1place()
    for c in range(3):
        assert MvFunction.constant(3, c, 1) not in flats
    line = MvFunction.from_digits(3, 1, "012")
    assert line not in flats
    s = circular_spectrum(line)
    from vcbent.cyclotomic import CycInt

    assert list(s.entries) == [CycInt.zero(3), CycInt.from_int(3, 3), CycInt.zero(3)]


def test_certify():
    a = all_bent(3, 1)
    assert certify(a, a).passed
    one = next(iter(a))
    report = certify(a - {one}, a)
    assert not report.passed
    assert report.missing == (one,)
    assert report.extra == ()
    assert "1 missing" in report.summary()


@pytest.mark.parametrize("p,count", [(4, 32), (5, 100), (6, 0)])
def test_all_bent_one_place_counts_match_float_dft(p, count):
    found = all_bent(p, 1)
    assert len(found) == count
    # every candidate through an independent float DFT: S(w) = Σ_x ξ^(f(x) - w·x)
    values = np.array(list(product(range(p), repeat=p)))
    spectra = np.fft.fft(np.exp(2j * np.pi * values / p), axis=1)
    flat = np.all(np.abs(np.abs(spectra) ** 2 - p) < 1e-9, axis=1)
    assert {MvFunction(p, 1, v) for v in values[flat].tolist()} == found


def test_all_bent_two_place_matches_float_dft_on_every_candidate(oracle_set):
    # all 19,683 candidates through an independent float DFT on the 3×3 grid
    values = np.array(list(product(range(3), repeat=9)))
    spectra = np.fft.fft2(np.exp(2j * np.pi * values / 3).reshape(-1, 3, 3))
    flat = np.all(np.abs(np.abs(spectra) ** 2 - 9) < 1e-9, axis=(1, 2))
    assert {MvFunction(3, 2, v) for v in values[flat].tolist()} == oracle_set


@pytest.mark.parametrize("block", [1, 7, 2**20])
def test_join_blocks_that_split_the_pairs_find_the_same_sets(monkeypatch, block):
    want = {pn: all_bent(*pn) for pn in SCANS}
    monkeypatch.setattr(oracle, "JOIN_BLOCK", block)
    for pn in SCANS:
        assert all_bent(*pn) == want[pn]


def test_scan_with_no_w0_survivor_returns_an_empty_set():
    # no Z_6 function of one variable has |S(0)|² = 6 (float check), so every join block is skipped
    values = np.array(list(product(range(6), repeat=6)))
    assert np.all(np.abs(np.abs(np.exp(2j * np.pi * values / 6).sum(axis=1)) ** 2 - 6) > 1e-9)
    found = all_bent(6, 1)
    assert type(found) is set and found == set()


@pytest.mark.parametrize("p,n", [(3, -1), (6, -2)])
def test_negative_variable_count_is_refused(p, n):
    with pytest.raises(ValueError, match="^variable count must be >= 0$"):
        all_bent(p, n)


def test_guard_refuses_before_any_table():
    tracemalloc.start()
    try:
        with pytest.raises(ScanTooLarge) as err:
            all_bent(4, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == "4^16 = 4294967296 candidate functions exceed 1048576"
    assert peak < 64 * 1024  # 4^8 half assignments alone would take 4 MB


@pytest.mark.parametrize("p,n", SCANS)
def test_scan_arrays_stay_under_one_megabyte(p, n):
    all_bent(p, n)  # the kernel's tables are cached on first use
    tracemalloc.start()
    try:
        all_bent(p, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("n,message", [(9, "3^19683"), (40, "3^12157665459056928801")])
def test_guard_refuses_before_the_candidate_count_is_formed(n, message):
    # 3^(3^9) has 9,392 digits, past the int-to-string limit; 3^(3^40) could not be formed at all
    tracemalloc.start()
    try:
        with pytest.raises(ScanTooLarge) as err:
            all_bent(3, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == f"{message} candidate functions exceed 1048576"
    assert peak < 64 * 1024
