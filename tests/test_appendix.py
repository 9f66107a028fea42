import random
from dataclasses import replace

import pytest

from vcbent import appendix
from vcbent.appendix import (
    AppendixRow,
    RowCheck,
    load_appendix_rows,
    parse_fixture_lines,
    verify_appendix,
)
from vcbent.bentlab import NotStrict, circular_spectrum, strict_exponents
from vcbent.generator import generate_class, reference_seed
from vcbent.genperm import GAMMA_NAMES, apply, conjugate_by_c, gamma, kron
from vcbent.mvfunction import MvFunction, sign_of


@pytest.fixture(scope="module")
def rows():
    return load_appendix_rows()


def test_fixture_shape(rows):
    assert len(rows) == 162
    by_class = {}
    for row in rows:
        by_class.setdefault(row.class_id, []).append(row)
    assert sorted(by_class) == list(range(1, 10))
    for class_id, class_rows in by_class.items():
        assert [r.row for r in class_rows] == list(range(1, 19))
        assert len({r.g for r in class_rows}) == 18


def test_every_row_verifies(rows):
    checks = verify_appendix(rows)
    failed = [c for c in checks if not c.passed]
    assert not failed, [
        (c.row.class_id, c.row.row, c.failures()) for c in failed
    ]


def test_mutated_row_fails_alone(rows):
    mutated = list(rows)
    victim = mutated[4]
    digits = list(victim.g.digit_string())
    digits[0] = str((int(digits[0]) + 1) % 3)
    mutated[4] = AppendixRow(
        victim.class_id,
        victim.row,
        MvFunction.from_digits(3, 2, "".join(digits)),
        victim.alpha,
        victim.beta,
        victim.exponents,
    )
    checks = verify_appendix(mutated)
    failed = [c for c in checks if not c.passed]
    assert len(failed) == 1
    assert failed[0].row.row == victim.row and failed[0].row.class_id == victim.class_id


def test_fixture_parser_rejects_malformed_lines():
    with pytest.raises(ValueError):
        parse_fixture_lines(["1\t2\t000012021\tP12,I"])
    with pytest.raises(ValueError):
        parse_fixture_lines(["1\t2\t000012021\tP12\t000012021"])
    with pytest.raises(ValueError):
        parse_fixture_lines(["1\t2\t000012021\tP12,I\t00001"])


def test_class6_duplicate_labels_verify_under_either_name(rows):
    # two different labels can legally produce the same permuted spectrum;
    # the verifier only demands that the recorded label reproduces the row
    row = next(r for r in rows if r.class_id == 6 and r.row == 3)
    assert (row.alpha, row.beta) == ("P01", "P01")
    swapped = AppendixRow(row.class_id, row.row, row.g, "X", "I", row.exponents)
    checks = verify_appendix([row, swapped])
    assert all(c.passed for c in checks)


def per_row_reference(rows):
    """Each row on its own: strict_exponents of two spectra, GenPerm.apply and sign_of."""
    checks = []
    for row in rows:
        seed = reference_seed(row.class_id)
        members = {r.g for r in generate_class(seed, row.class_id).rows}
        perm = kron(gamma(row.alpha), gamma(row.beta))
        try:
            spectrum_ok = strict_exponents(circular_spectrum(row.g)) == row.exponents
        except NotStrict:
            spectrum_ok = False
        try:
            permutation_ok = strict_exponents(apply(perm, circular_spectrum(seed))) == row.exponents
        except NotStrict:
            permutation_ok = False
        sign_ok = list(apply(conjugate_by_c(perm), sign_of(seed))) == list(sign_of(row.g).entries)
        checks.append(RowCheck(row, spectrum_ok, row.g in members, permutation_ok, sign_ok))
    return checks


def mutate(rng, row):
    """The row with one of g, the label, the exponents or the class changed."""
    kind = rng.choice(["g", "label", "exponents", "class"])
    if kind == "g":
        values = list(row.g.values)
        values[rng.randrange(9)] = rng.randrange(3)
        return replace(row, g=MvFunction(3, 2, values))
    if kind == "label":
        return replace(row, alpha=rng.choice(GAMMA_NAMES), beta=rng.choice(GAMMA_NAMES))
    if kind == "exponents":
        exponents = list(row.exponents)
        exponents[rng.randrange(9)] = rng.randrange(3)
        return replace(row, exponents=tuple(exponents))
    return replace(row, class_id=rng.randrange(1, 10))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_verify_appendix_equals_the_per_row_reference(rows, seed):
    rng = random.Random(seed)
    shuffled = [mutate(rng, row) if rng.random() < 0.4 else row for row in rows]
    rng.shuffle(shuffled)
    checks = verify_appendix(shuffled)
    assert [c.row for c in checks] == shuffled
    assert checks == per_row_reference(shuffled)
    assert any(not c.passed for c in checks) and any(c.passed for c in checks)


def test_verify_appendix_raises_on_the_first_unknown_label(rows):
    bad = list(rows[:12])
    bad[4] = replace(bad[4], beta="Q1")
    bad[9] = replace(bad[9], alpha="Q2")
    with pytest.raises(ValueError, match="'Q1'"):
        per_row_reference(bad)
    with pytest.raises(ValueError, match="'Q1'"):
        verify_appendix(bad)


@pytest.mark.parametrize("class_id", [0, -1, 10])
def test_verify_appendix_refuses_class_ids_outside_1_to_9(rows, class_id):
    relabelled = [replace(row, class_id=class_id) for row in rows if row.class_id == 9]
    with pytest.raises(ValueError, match=f"no reference class {class_id}"):
        verify_appendix(relabelled)


def test_verify_appendix_is_repeatable_and_caches_only_classes_1_to_9(rows):
    first, second = verify_appendix(rows), verify_appendix(rows)
    assert first == second and all(c.passed for c in first)
    assert appendix._class_members.cache_info().currsize == 9
    for class_id in (0, 10):
        with pytest.raises(ValueError, match=f"no reference class {class_id}"):
            verify_appendix([replace(row, class_id=class_id) for row in rows[:3]])
    assert appendix._class_members.cache_info().currsize == 9


def test_packaged_rows_are_parsed_once_and_returned_as_a_fresh_list(tmp_path):
    path = tmp_path / "fixture.tsv"
    path.write_text(appendix.fixture_text())
    first = load_appendix_rows()
    first.clear()
    assert load_appendix_rows() == load_appendix_rows(path) == parse_fixture_lines(appendix.fixture_text().splitlines())
    assert load_appendix_rows() is not load_appendix_rows()
    assert all(a is b for a, b in zip(load_appendix_rows(), load_appendix_rows()))
    assert appendix._packaged_rows.cache_info().currsize == 1
