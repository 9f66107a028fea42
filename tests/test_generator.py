import random
import tracemalloc
from dataclasses import fields
from itertools import product

import pytest

from vcbent.bentlab import NotBentSpectrum, circular_spectrum, is_bent, spectrum_is_bent, strict_exponents
from vcbent.generator import (
    BlockdiagSurvey,
    ClassRecord,
    ClassRow,
    DegenerateSeed,
    MaioranaSpec,
    REFERENCE_SEEDS,
    blockdiag_survey,
    expand_rotations,
    generate_all,
    generate_class,
    kron_perm_catalog,
    maiorana,
    maiorana_enumerate,
    reference_polynomial,
    reference_seed,
    tensor_sum_spectrum_law,
)
from vcbent.genperm import GAMMA_NAMES, apply, block_diag, gamma, kron
from vcbent.mvfunction import MvFunction, add_constant, eval_polynomial, tensor_sum
from vcbent import generator
from vcbent.vctransform import SizeLimitExceeded, is_flat, spectrum_kron


def exps(s):
    return "".join(str(e) for e in strict_exponents(s))


def test_catalog_has_35_entries_in_lex_order():
    catalog = kron_perm_catalog()
    assert len(catalog) == 35
    assert (catalog[0].alpha, catalog[0].beta) == ("I", "P01")
    assert catalog[0].perm == kron(gamma("I"), gamma("P01"))
    pairs = {(e.alpha, e.beta) for e in catalog}
    assert ("X", "I") in pairs and ("P01", "P01") in pairs
    assert ("I", "I") not in pairs


def test_reference_polynomials_match_value_vectors():
    for seed in REFERENCE_SEEDS:
        f = reference_seed(seed.class_id)
        assert eval_polynomial(reference_polynomial(seed.class_id), 2) == f
        assert exps(circular_spectrum(f)) == seed.spectrum_exponents
        assert is_bent(f).is_bent


@pytest.mark.parametrize("class_id", [0, -1, 10])
def test_reference_seed_refuses_class_ids_outside_1_to_9(class_id):
    # class 0 used to read REFERENCE_SEEDS[-1], class 9's seed
    with pytest.raises(ValueError, match=f"no reference class {class_id}; expected 1..9"):
        reference_seed(class_id)
    with pytest.raises(ValueError, match=f"no reference class {class_id}"):
        reference_polynomial(class_id)


def test_generate_class_structure():
    record = generate_class(reference_seed(1), 1)
    assert len(record.rows) == 18
    assert record.rows[0].g == record.seed
    assert record.rows[0].index == 1
    gs = [row.g for row in record.rows]
    assert len(set(gs)) == 18
    by_g = {row.g.digit_string(): row for row in record.rows}
    assert by_g["000021012"].exponent_string() == "000012021"
    for row in record.rows:
        assert is_bent(row.g).is_bent
        assert exps(circular_spectrum(row.g)) == row.exponent_string()


def test_generate_class_labels_reproduce_spectra():
    for cid in (1, 4, 7):
        record = generate_class(reference_seed(cid), cid)
        s_seed = circular_spectrum(record.seed)
        for row in record.rows:
            perm = kron(gamma(row.alpha), gamma(row.beta))
            assert strict_exponents(apply(perm, s_seed)) == row.spectrum_exponents


def test_generate_class_rejects_non_bent_seed():
    with pytest.raises(DegenerateSeed):
        generate_class(MvFunction.constant(3, 0, 2))


def test_generate_class_rejects_bent_but_not_strict_seed():
    seed = MvFunction.from_digits(3, 2, "022211211")  # 2·x1² + 2·x2²
    verdict = is_bent(seed)
    assert verdict.is_bent and not verdict.is_strict_bent
    with pytest.raises(DegenerateSeed, match="not strict"):
        generate_class(seed)


def test_class4_contains_published_row():
    record = generate_class(reference_seed(4), 4)
    by_g = {row.g.digit_string(): row for row in record.rows}
    assert by_g["100202001"].exponent_string() == "021111012"


def test_class6_duplicate_pair_from_remark():
    s6 = circular_spectrum(reference_seed(6))
    target = tuple(int(c) for c in "121001211")
    a = strict_exponents(apply(kron(gamma("X"), gamma("I")), s6))
    b = strict_exponents(apply(kron(gamma("P01"), gamma("P01")), s6))
    assert a == b == target


def test_expand_rotations():
    record = generate_class(reference_seed(1), 1)
    full = expand_rotations(record)
    assert len(full) == 54
    assert len(set(full)) == 54
    assert add_constant(record.seed, 1) in full
    s_seed = circular_spectrum(record.seed)
    shifted = circular_spectrum(add_constant(record.seed, 2))
    assert list(shifted.entries) == [e.mul_root(2) for e in s_seed.entries]
    for f in full:
        assert is_bent(f).is_bent


def test_generate_all_measured_coverage(oracle_set, generated_set):
    # every generated function is genuinely bent ...
    assert generated_set <= oracle_set
    # ... but the nine seed expansions collapse pairwise: (2,4), (3,7),
    # (5,9) and (6,8) give identical 54-sets, so the union measures 270.
    assert len(generated_set) == 270
    sets = {}
    for cid in range(1, 10):
        sets[cid] = set(expand_rotations(generate_class(reference_seed(cid), cid)))
    for a, b in ((2, 4), (3, 7), (5, 9), (6, 8)):
        assert sets[a] == sets[b]
    assert MvFunction.from_digits(3, 2, "102012222") in generated_set


def test_class_record_serialization():
    record = generate_class(reference_seed(1), 1)
    payload = record.to_json_dict()
    assert payload["class"] == 1 and len(payload["rows"]) == 18
    lines = record.to_tsv_lines()
    assert lines[0].split("\t") == ["1", "1", "000012021", "I,I", "000021012"]


def test_maiorana_base_cases():
    base = maiorana(MaioranaSpec(1, gamma("I"), MvFunction(3, 1, (0, 0, 0))))
    assert base == MvFunction.from_digits(3, 2, "000012021")
    shifted = maiorana(MaioranaSpec(1, gamma("I"), MvFunction(3, 1, (1, 1, 1))))
    assert shifted == MvFunction.from_digits(3, 2, "111120102")


def test_maiorana_validation():
    with pytest.raises(ValueError):
        maiorana(MaioranaSpec(1, gamma("I"), MvFunction(3, 2, (0,) * 9)))
    from vcbent.cyclotomic import RootScalar
    from vcbent.genperm import scale

    with pytest.raises(ValueError):
        maiorana(MaioranaSpec(1, scale(gamma("I"), RootScalar(3, 1, 1)), MvFunction(3, 1, (0, 0, 0))))


def test_maiorana_guards_refuse_before_forming_3_to_the_m():
    v = MvFunction(3, 1, (0, 0, 0))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^permutation must be 3\^1000000×3\^1000000 over radix 3$"):
            maiorana(MaioranaSpec(10**6, gamma("I"), v))
        with pytest.raises(ValueError, match=r"^variable count must be >= 0$"):
            maiorana(MaioranaSpec(-1, gamma("I"), v))
        for m in (9000, 10**4):
            with pytest.raises(SizeLimitExceeded, match=rf"needs \(3\^{m}\)! straight permutations"):
                maiorana_enumerate(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16
    with pytest.raises(ValueError, match=r"^variable count must be >= 0$"):
        maiorana_enumerate(-1)
    with pytest.raises(ValueError, match=r"^permutation must be 9×9 over radix 3$"):
        maiorana(MaioranaSpec(2, gamma("I"), v))
    with pytest.raises(SizeLimitExceeded, match=rf"needs \({3**64}\)! straight"):
        maiorana_enumerate(64)


def test_maiorana_enumerate_properties(oracle_set):
    mai = maiorana_enumerate(1)
    # 6 permutations × 27 shifts are pairwise distinct constructions
    assert len(mai) == 162
    for f in mai:
        verdict = is_bent(f)
        assert verdict.is_bent and verdict.is_strict_bent
    assert mai <= oracle_set
    with pytest.raises(SizeLimitExceeded):
        maiorana_enumerate(2)


def test_maiorana_disjoint_from_tensor_sums():
    from vcbent.oracle import all_bent_1place

    mai = maiorana_enumerate(1)
    one_place = all_bent_1place()
    sums = {tensor_sum(f1, f2) for f1 in one_place for f2 in one_place}
    assert not (mai & sums)


def test_tensor_sum_spectrum_law():
    f = reference_seed(1)
    f3, s3 = tensor_sum_spectrum_law(f, f)
    assert f3.n == 4 and len(s3.entries) == 81
    assert is_flat(s3)
    target = 81
    from vcbent.cyclotomic import CycInt

    assert all(e.abs_squared() == CycInt.from_int(3, target) for e in s3.entries)
    s = circular_spectrum(f)
    assert s3 == spectrum_kron(s, s)


def test_tensor_sum_commuting_identity_random_pairs():
    rng = random.Random(88)
    f = reference_seed(1)
    names = ("I", "P01", "P12", "N", "X", "XT")
    for _ in range(5):
        p1 = kron(gamma(rng.choice(names)), gamma(rng.choice(names)))
        p2 = kron(gamma(rng.choice(names)), gamma(rng.choice(names)))
        tensor_sum_spectrum_law(f, f, perms=(p1, p2))  # raises on violation


def test_tensor_sum_law_rejects_non_bent():
    with pytest.raises(ValueError):
        tensor_sum_spectrum_law(MvFunction.constant(3, 0, 2), reference_seed(1))


def test_permuted_tensor_sum_recovers_4place_bent():
    from vcbent.bentlab import spectrum_is_bent

    f = reference_seed(1)
    _, s3 = tensor_sum_spectrum_law(f, f)
    p = kron(kron(gamma("P12"), gamma("I")), kron(gamma("N"), gamma("I")))
    g = spectrum_is_bent(apply(p, s3))
    assert g.n == 4 and is_bent(g).is_bent


def test_blockdiag_survey():
    report = blockdiag_survey(reference_seed(1))
    assert report.total == 216
    assert report.bent + report.flat_not_bent == 216
    assert report.bent > 0 and report.flat_not_bent > 0
    assert report.prose_count == 815
    # the worked examples: (I, I, X) produces a bent image, (I, I, P12) does not
    from vcbent.bentlab import NotBentSpectrum, spectrum_is_bent
    from vcbent.genperm import block_diag

    s = circular_spectrum(reference_seed(1))
    good = apply(block_diag([gamma("I"), gamma("I"), gamma("X")]), s)
    assert strict_exponents(good) == tuple(int(c) for c in "000021201")
    assert is_bent(spectrum_is_bent(good)).is_bent
    with pytest.raises(NotBentSpectrum):
        spectrum_is_bent(apply(block_diag([gamma("I"), gamma("I"), gamma("P12")]), s))


def test_blockdiag_any_first_block_duplicates():
    from vcbent.bentlab import spectrum_is_bent
    from vcbent.genperm import block_diag

    s = circular_spectrum(reference_seed(1))
    names = ("I", "P01", "P12", "N", "X", "XT")
    images = {
        name: spectrum_is_bent(apply(block_diag([gamma(name), gamma("I"), gamma("X")]), s))
        for name in names
    }
    assert len(set(images.values())) == 1


def survey_one_spectrum_at_a_time(seed):
    """blockdiag_survey as a loop of GenPerm.apply and spectrum_is_bent per triple."""
    s_seed = circular_spectrum(seed)
    report = BlockdiagSurvey(seed=seed)
    seen = set()
    for names in product(GAMMA_NAMES, repeat=3):
        report.total += 1
        try:
            g = spectrum_is_bent(apply(block_diag([gamma(name) for name in names]), s_seed))
        except NotBentSpectrum as exc:
            report.flat_not_bent += 1
            if report.first_not_bent is None:
                report.first_not_bent = (names, exc.stage)
            continue
        report.bent += 1
        seen.add(g)
        if report.first_bent is None:
            report.first_bent = (names, g)
    report.distinct_bent = len(seen)
    return report


def class_one_spectrum_at_a_time(seed, class_id):
    """generate_class as a loop of GenPerm.apply, spectrum_is_bent and strict_exponents."""
    s_seed = circular_spectrum(seed)
    found = {}
    for entry in kron_perm_catalog():
        permuted = apply(entry.perm, s_seed)
        found.setdefault(spectrum_is_bent(permuted), (entry.alpha, entry.beta, strict_exponents(permuted)))
    rows = [ClassRow(1, seed, "I", "I", strict_exponents(s_seed))]
    others = sorted((g for g in found if g != seed), key=lambda g: g.values)
    rows += [ClassRow(i, g, *found[g]) for i, g in enumerate(others, start=2)]
    return ClassRecord(class_id, seed, tuple(rows))


@pytest.mark.parametrize("class_id", range(1, 10))
def test_batched_generation_equals_the_per_spectrum_loop(class_id):
    seed = reference_seed(class_id)
    survey, want = blockdiag_survey(seed), survey_one_spectrum_at_a_time(seed)
    for field in fields(BlockdiagSurvey):
        assert getattr(survey, field.name) == getattr(want, field.name), field.name
    assert survey.first_bent is not None and survey.first_not_bent is not None
    record, want = generate_class(seed, class_id), class_one_spectrum_at_a_time(seed, class_id)
    assert (record.class_id, record.seed) == (want.class_id, want.seed)
    assert len(record.rows) == len(want.rows) == 18
    for row, want_row in zip(record.rows, want.rows):
        for field in fields(ClassRow):
            assert getattr(row, field.name) == getattr(want_row, field.name), field.name


def test_maiorana_enumerate_equals_the_per_function_loop():
    shifts = [MvFunction(3, 1, v) for v in product(range(3), repeat=3)]
    loop = {maiorana(MaioranaSpec(1, gamma(name), v)) for name in GAMMA_NAMES for v in shifts}
    assert len(loop) == 162 and maiorana_enumerate(1) == loop


def test_maiorana_checks_keep_refusing_a_non_bent_construction(monkeypatch):
    # a construction that collapses to the constant 0, which is not bent
    monkeypatch.setattr(generator, "vec_columns", lambda matrix: [0] * len(matrix) ** 2)
    with pytest.raises(AssertionError, match="non-bent"):
        maiorana_enumerate(1)
    with pytest.raises(AssertionError, match="non-bent"):
        maiorana(MaioranaSpec(1, gamma("I"), MvFunction(3, 1, (0, 0, 0))))
