import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vcbent.bentlab import circular_spectrum
from vcbent.cyclotomic import CycInt, NotAUnitRoot, NotDivisible, RadixMismatch, RootScalar, degree, xi
from vcbent.genperm import (
    DenseCycMatrix,
    GAMMA_NAMES,
    GenPerm,
    NotFlat,
    apply,
    apply_stack,
    as_dense,
    block_diag,
    compose,
    conjugate_by_c,
    conjugate_table,
    diag_from_flat_spectrum,
    gamma,
    identity,
    is_generalized_permutation,
    kron,
    pauli_z,
    scale,
)
from vcbent.mvfunction import MvFunction, add_constant, sign_of
from vcbent.vctransform import INT64_BOUND, Spectrum, forward, forward_fast, is_flat

from reference import build_c

ONE = CycInt.one(3)
ZERO = CycInt.zero(3)
W = xi(3)
W2 = xi(3, 2)

X1X2 = MvFunction.from_digits(3, 2, "000012021")


def dense_rows(m):
    return [list(r) for r in as_dense(m).rows]


def test_gamma_matrices_match_published_displays():
    assert dense_rows(gamma("P12")) == [[ONE, ZERO, ZERO], [ZERO, ZERO, ONE], [ZERO, ONE, ZERO]]
    assert dense_rows(gamma("X")) == [[ZERO, ZERO, ONE], [ONE, ZERO, ZERO], [ZERO, ONE, ZERO]]
    assert dense_rows(gamma("N")) == [[ZERO, ZERO, ONE], [ZERO, ONE, ZERO], [ONE, ZERO, ZERO]]
    with pytest.raises(ValueError):
        gamma("Q")


def test_pauli_z():
    assert dense_rows(pauli_z(3)) == [[ONE, ZERO, ZERO], [ZERO, W, ZERO], [ZERO, ZERO, W2]]
    assert dense_rows(pauli_z(3, conjugated=True)) == [
        [ONE, ZERO, ZERO],
        [ZERO, W2, ZERO],
        [ZERO, ZERO, W],
    ]
    assert pauli_z(3).apply([ONE, ONE, ONE]) == [ONE, W, W2]


def test_kron_cases():
    assert kron(gamma("I"), gamma("I")) == identity(3, 9)
    p12_2 = kron(gamma("P12"), gamma("P12"))
    v = list(range(9))
    # digit swap 1<->2 in both base-3 digits of the index
    perm = [p12_2.cols[r] for r in range(9)]
    assert [v[c] for c in perm] == [0, 2, 1, 6, 8, 7, 3, 5, 4]


def test_kron_eq48_matrix():
    # ξ·P12 ⊗ Z*·XT written out entry by entry
    left = scale(gamma("P12"), RootScalar(3, 1, 1))
    right = compose(pauli_z(3, conjugated=True), gamma("XT"))
    w2x9 = kron(left, right)
    expected = [
        [ZERO, W, ZERO] + [ZERO] * 6,
        [ZERO, ZERO, ONE] + [ZERO] * 6,
        [W2, ZERO, ZERO] + [ZERO] * 6,
        [ZERO] * 6 + [ZERO, W, ZERO],
        [ZERO] * 6 + [ZERO, ZERO, ONE],
        [ZERO] * 6 + [W2, ZERO, ZERO],
        [ZERO] * 3 + [ZERO, W, ZERO] + [ZERO] * 3,
        [ZERO] * 3 + [ZERO, ZERO, ONE] + [ZERO] * 3,
        [ZERO] * 3 + [W2, ZERO, ZERO] + [ZERO] * 3,
    ]
    assert dense_rows(w2x9) == expected


def test_compose_and_scale():
    zc_p12 = compose(pauli_z(3, conjugated=True), gamma("P12"))
    assert dense_rows(zc_p12) == [[ONE, ZERO, ZERO], [ZERO, ZERO, W2], [ZERO, W, ZERO]]
    p = gamma("N")
    assert scale(p, RootScalar(3)) == p
    s = circular_spectrum(X1X2)
    rotated = apply(scale(identity(3, 9), RootScalar(3, 1, 1)), s)
    assert rotated == circular_spectrum(add_constant(X1X2, 1))


def test_block_diag_examples():
    zb = scale(pauli_z(3), RootScalar(3, 1, 2))
    zcb = scale(pauli_z(3, conjugated=True), RootScalar(3, 1, 1))
    built = block_diag([zb, gamma("I"), zcb])
    diag = GenPerm.from_diag(3, [RootScalar(3, 1, k) for k in (2, 0, 1, 0, 0, 0, 1, 0, 2)])
    assert built == diag
    assert block_diag([gamma("I")] * 3) == identity(3, 9)
    # block-diagonal action on the exponent string 000 021 012
    s = circular_spectrum(X1X2)
    permuted = apply(block_diag([gamma("I"), gamma("I"), gamma("X")]), s)
    from vcbent.bentlab import strict_exponents

    assert strict_exponents(permuted) == tuple(int(c) for c in "000021201")


def test_diag_from_flat_spectrum():
    s = circular_spectrum(X1X2)
    p = diag_from_flat_spectrum(s)
    expected = GenPerm.from_diag(3, [RootScalar(3, 1, k) for k in (0, 0, 0, 0, 2, 1, 0, 1, 2)])
    assert p == expected
    with pytest.raises(NotFlat):
        diag_from_flat_spectrum(Spectrum(3, 2, [CycInt.from_int(3, 9)] + [ZERO] * 8))
    with pytest.raises(NotFlat):
        diag_from_flat_spectrum(Spectrum(3, 1, [CycInt.from_int(3, 3), ZERO, ZERO]))


def test_diag_of_own_spectrum_gives_conjugate_for_all_seeds():
    from vcbent.generator import REFERENCE_SEEDS, reference_seed

    for seed in REFERENCE_SEEDS:
        f = reference_seed(seed.class_id)
        s = circular_spectrum(f)
        conj = apply(diag_from_flat_spectrum(s), s)
        assert list(conj.entries) == [e.conj() for e in s.entries]


def test_apply_examples():
    s = circular_spectrum(X1X2)
    n2 = kron(gamma("N"), gamma("N"))
    got = apply(n2, s)
    expected = [3 * W2, 3 * W, 3 * ONE, 3 * W, 3 * W2, 3 * ONE, 3 * ONE, 3 * ONE, 3 * ONE]
    assert list(got.entries) == expected
    assert apply(identity(3, 9), s) == s
    # the Kronecker-factored operator applied to the sign vector
    w2x9 = kron(scale(gamma("P12"), RootScalar(3, 1, 1)),
                compose(pauli_z(3, conjugated=True), gamma("XT")))
    g_sign = apply(w2x9, list(sign_of(X1X2).entries))
    assert g_sign == [W, ONE, W2, ONE, W, W2, W2, W2, W2]


def test_conjugate_by_c_small_cases():
    w_n = conjugate_by_c(gamma("N"))
    assert dense_rows(w_n) == [[ONE, ZERO, ZERO], [ZERO, ZERO, W2], [ZERO, W, ZERO]]
    assert conjugate_by_c(gamma("X")) == pauli_z(3)
    assert conjugate_by_c(pauli_z(3)) == gamma("XT")
    assert conjugate_by_c(pauli_z(3, conjugated=True)) == gamma("X")


def test_conjugate_by_c_dense_diagonal_case():
    p = GenPerm.from_diag(3, [RootScalar(3, 1, k) for k in (2, 0, 1, 0, 0, 0, 1, 0, 2)])
    w = conjugate_by_c(p)
    assert isinstance(w, DenseCycMatrix)
    assert w.denom == 3
    e = {0: ONE, 1: W, 2: W2}
    expected_exponents = [
        "021222120", "102222012", "210222201",
        "120021222", "012102222", "201210222",
        "222120021", "222012102", "222201210",
    ]
    # numerator rows, transcribed from the worked 9×9 display
    rows = [[e[int(ch)] for ch in line] for line in expected_exponents]
    assert [list(r) for r in w.rows] == rows


def test_conjugate_table_matches_dense_route():
    images = {
        "I": identity(3, 3),
        "N": compose(pauli_z(3, conjugated=True), gamma("P12")),
        "P12": gamma("P12"),
        "P01": compose(pauli_z(3), gamma("P12")),
        "X": pauli_z(3),
        "XT": pauli_z(3, conjugated=True),
    }
    for name in GAMMA_NAMES:
        assert conjugate_table(name) == images[name]
        assert conjugate_table(name) == conjugate_by_c(gamma(name))


def test_conjugation_kronecker_law_all_36_pairs():
    for a in GAMMA_NAMES:
        for b in GAMMA_NAMES:
            lhs = conjugate_by_c(kron(gamma(a), gamma(b)))
            rhs = kron(conjugate_table(a), conjugate_table(b))
            assert lhs == rhs


def test_conjugation_is_multiplicative():
    for a in GAMMA_NAMES:
        for b in GAMMA_NAMES:
            lhs = conjugate_by_c(compose(gamma(a), gamma(b)))
            rhs = compose(conjugate_table(a), conjugate_table(b))
            assert lhs == rhs


def c_diag_c_component(index: int) -> DenseCycMatrix:
    """3^(-1)·C(1)·diag(e_index)·C*(1): entry (j, k) is ξ^(index·(j-k))/3."""
    c = build_c(3, 1)
    return DenseCycMatrix(3, [[c[j][index] * c[k][index].conj() for k in range(3)] for j in range(3)], denom=3)


def conjugate_blockdiag(blocks) -> DenseCycMatrix:
    """W(2) of blockdiag(B0, B1, B2) by the paper's additive decomposition.

    With the block index on the high base-3 digit,
    blockdiag(B0, B1, B2) = Σ_i diag(e_i) ⊗ B_i, so
    W(2) = Σ_i (3^(-1)·C·diag(e_i)·C*) ⊗ W(B_i).
    """
    terms = [c_diag_c_component(i).kron(as_dense(conjugate_by_c(b))) for i, b in enumerate(blocks)]
    denom = math.lcm(*(t.denom for t in terms))
    return DenseCycMatrix.from_array(3, sum(t.num * (denom // t.denom) for t in terms), denom)


def test_conjugate_blockdiag():
    zb = scale(pauli_z(3), RootScalar(3, 1, 2))
    zcb = scale(pauli_z(3, conjugated=True), RootScalar(3, 1, 1))
    blocks = [zb, gamma("I"), zcb]
    assert conjugate_blockdiag(blocks) == as_dense(conjugate_by_c(block_diag(blocks)))
    assert conjugate_blockdiag([gamma("I")] * 3) == identity(3, 9).to_dense()
    comp = c_diag_c_component(1)
    selector = np.zeros((3, 3, degree(3)), dtype=np.int64)
    selector[1, 1, 0] = 1
    assert as_dense(conjugate_by_c(DenseCycMatrix.from_array(3, selector))) == comp
    assert comp.denom == 3
    assert [list(r) for r in comp.rows] == [[ONE, W2, W], [W, ONE, W2], [W2, W, ONE]]


def test_conjugate_blockdiag_equals_the_engine_for_every_gamma_triple():
    gammas = [gamma(name) for name in GAMMA_NAMES]
    for blocks in itertools.product(gammas, repeat=3):
        assert conjugate_blockdiag(blocks) == as_dense(conjugate_by_c(block_diag(blocks)))
    rng = random.Random(9)
    for _ in range(20):
        blocks = [
            scale(rng.choice(gammas), RootScalar(3, rng.choice((1, -1)), rng.randrange(3)))
            for _ in range(3)
        ]
        assert conjugate_blockdiag(blocks) == as_dense(conjugate_by_c(block_diag(blocks)))


# (p, n) with p^n ≤ 27: the reference below is an O(p^3n) CycInt loop
CONJ_SIZES = [(p, n) for p in (3, 4, 5, 6) for n in (1, 2, 3) if p**n <= 27]


def reference_conjugate(m) -> DenseCycMatrix:
    """p^(-n)·C·m·C*, multiplied out entry by entry over build_c's rows."""
    m = as_dense(m)
    p, size = m.p, m.size
    n = next(n for n in range(size) if p**n == size)
    c = build_c(p, n)
    cm = [[CycInt.zero(p)] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            for k in range(size):
                cm[i][j] = cm[i][j] + c[i][k] * m.rows[k][j]
    out = [[CycInt.zero(p)] * size for _ in range(size)]
    for i in range(size):
        for j in range(size):
            for k in range(size):
                out[i][j] = out[i][j] + cm[i][k] * c[k][j].conj()
    return DenseCycMatrix(p, out, denom=p**n * m.denom)


@st.composite
def generalized_permutations(draw):
    p, n = draw(st.sampled_from(CONJ_SIZES))
    size = p**n
    cols = draw(st.permutations(range(size)))
    scalar = st.builds(RootScalar, st.just(p), st.sampled_from([1, -1]), st.integers(0, p - 1))
    return GenPerm(p, cols, draw(st.lists(scalar, min_size=size, max_size=size)))


@st.composite
def dense_fractions(draw):
    p, n = draw(st.sampled_from(CONJ_SIZES))
    rng = draw(st.randoms(use_true_random=False))
    rows = [
        [CycInt(p, [rng.randint(-20, 20) for _ in range(degree(p))]) for _ in range(p**n)]
        for _ in range(p**n)
    ]
    return DenseCycMatrix(p, rows, denom=draw(st.integers(2, 12)))


@settings(max_examples=30, deadline=None)
@given(generalized_permutations())
def test_conjugate_by_c_matches_reference_on_generalized_permutations(m):
    assert as_dense(conjugate_by_c(m)) == reference_conjugate(m)


@settings(max_examples=15, deadline=None)
@given(dense_fractions())
def test_conjugate_by_c_matches_reference_on_dense_fractions(m):
    assume(m.denom > 1)
    assert as_dense(conjugate_by_c(m)) == reference_conjugate(m)


def test_dense_from_array_validates_and_compares_across_dtypes():
    with pytest.raises(ValueError):
        DenseCycMatrix.from_array(3, np.zeros((3, 2, 2), dtype=np.int64))
    with pytest.raises(ValueError):
        DenseCycMatrix.from_array(3, np.zeros((3, 3, 4), dtype=np.int64))
    with pytest.raises(ValueError):
        DenseCycMatrix.from_array(3, np.zeros((3, 3, 2)))
    num = np.array([[[2, 4], [0, 6]], [[-2, 0], [4, 2]]], dtype=np.int64)
    m = DenseCycMatrix.from_array(3, num.copy(), denom=6)
    assert m.denom == 3 and not m.num.flags.writeable
    assert m.rows == ((CycInt(3, (1, 2)), CycInt(3, (0, 3))), (CycInt(3, (-1, 0)), CycInt(3, (2, 1))))
    as_object = DenseCycMatrix.from_array(3, num.astype(object), denom=6)
    from_rows = DenseCycMatrix(3, [[CycInt(3, c) for c in row] for row in num.tolist()], denom=-6)
    assert from_rows.denom == 3 and from_rows.num.tolist() == (-num // 2).tolist()
    assert m == as_object and hash(m) == hash(as_object)
    assert m != from_rows


def test_dense_operations_refuse_mixed_radices():
    # p = 3 and p = 4 both have d = 2, so unchecked arrays would mix the two rings silently
    a = identity(3, 3).to_dense()
    b = DenseCycMatrix.from_array(4, np.zeros((3, 3, 2), dtype=np.int64))
    for op in (a.kron, a.matmul):
        with pytest.raises(RadixMismatch):
            op(b)
    with pytest.raises(RadixMismatch):
        identity(3, 1).to_dense().apply([CycInt.one(4)])  # 1 = 3^0 = 4^0 entries


def test_genperm_apply_refuses_a_foreign_radix():
    # the same check as DenseCycMatrix.apply: p = 3 and p = 4 share d = 2 and 1 = 3^0 = 4^0 entries
    rotation = GenPerm.from_diag(3, [RootScalar(3, 1, 1)])
    with pytest.raises(RadixMismatch):
        rotation.apply([CycInt.one(4)])
    with pytest.raises(RadixMismatch):
        rotation.apply(Spectrum(4, 0, [CycInt.one(4)]))
    with pytest.raises(RadixMismatch):
        identity(3, 3).apply([ONE, ONE, CycInt.one(4)])
    assert rotation.apply([ONE]) == [W]


def test_dense_apply_reports_the_first_inexact_coordinate():
    half = DenseCycMatrix(3, [[ONE, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]], denom=2)
    assert half.apply([2 * W, 4 * ONE, ZERO]) == [W, 2 * ONE, ZERO]
    with pytest.raises(NotDivisible, match=r"coordinate 1 = 1\+2x is not a multiple of 2") as exc:
        half.apply([2 * W, ONE + 2 * W, 3 * ONE])
    assert exc.value.index == 1 and exc.value.value == ONE + 2 * W


def test_is_generalized_permutation():
    assert is_generalized_permutation(conjugate_by_c(gamma("N")))
    diagp = GenPerm.from_diag(3, [RootScalar(3, 1, k) for k in (2, 0, 1, 0, 0, 0, 1, 0, 2)])
    assert not is_generalized_permutation(conjugate_by_c(diagp))
    assert is_generalized_permutation(identity(3, 9))
    dense_id = identity(3, 3).to_dense()
    assert is_generalized_permutation(dense_id)


def test_apply_preserves_flatness():
    rng = random.Random(17)
    s = circular_spectrum(X1X2)
    names = list(GAMMA_NAMES)
    for _ in range(20):
        p = kron(gamma(rng.choice(names)), gamma(rng.choice(names)))
        p = scale(p, RootScalar(3, 1, rng.randrange(3)))
        assert is_flat(apply(p, s))


def test_p12_conjugates_c_into_its_conjugate():
    for n in (1, 2):
        c = build_c(3, n)
        p12n = kron(gamma("P12"), gamma("P12")) if n == 2 else gamma("P12")
        for j in range(3**n):
            col = [c[k][j] for k in range(3**n)]
            assert apply(p12n, col) == [c[k][j].conj() for k in range(3**n)]


def test_genperm_validation():
    with pytest.raises(ValueError):
        GenPerm(3, (0, 0, 1), [RootScalar(3)] * 3)
    with pytest.raises(ValueError):
        GenPerm(3, (0, 1, 2), [RootScalar(3)] * 2)
    with pytest.raises(ValueError):
        compose(gamma("I"), identity(3, 9))


# (p, n) with p^n ≤ 36
STACK_SIZES = [(p, n) for p in (3, 4, 5, 6) for n in (1, 2, 3) if p**n <= 36]


@st.composite
def permutation_stacks(draw):
    """Signed and rotated generalized permutations of one size, and a spectrum
    whose coefficients are small or above 2^63 (Python ints)."""
    p, n = draw(st.sampled_from(STACK_SIZES))
    size = p**n
    scalar = st.builds(RootScalar, st.just(p), st.sampled_from([1, -1]), st.integers(0, p - 1))
    perm = st.builds(
        lambda cols, scalars: GenPerm(p, cols, scalars),
        st.permutations(range(size)),
        st.lists(scalar, min_size=size, max_size=size),
    )
    perms = draw(st.lists(perm, min_size=1, max_size=5))
    rng = draw(st.randoms(use_true_random=False))
    bound = draw(st.sampled_from([20, 2**70]))
    s = Spectrum(p, n, [CycInt(p, [rng.randint(-bound, bound) for _ in range(degree(p))]) for _ in range(size)])
    return perms, s


@settings(max_examples=60, deadline=None)
@given(permutation_stacks())
def test_apply_stack_equals_apply_per_permutation(case):
    perms, s = case
    stack = apply_stack(perms, s)
    assert stack.shape == (len(perms), len(s), degree(s.p))
    for perm, row in zip(perms, stack):
        assert Spectrum.from_array(s.p, s.n, row) == perm.apply(s)


@settings(max_examples=60, deadline=None)
@given(permutation_stacks())
def test_apply_equals_the_per_entry_loop(case):
    # the independent reference: one RootScalar.apply per row, on CycInt entries
    perms, s = case
    for perm in perms:
        want = [t.apply(s[c]) for c, t in zip(perm.cols, perm.scalars)]
        got = perm.apply(s)
        assert isinstance(got, Spectrum) and got == Spectrum(s.p, s.n, want)
        assert perm.apply(list(s)) == want


def test_vectors_that_mix_radices_raise_radix_mismatch():
    # p = 3 and p = 4 share d = 2, so only the radix check tells the entries apart
    mixed = [ONE, ONE, CycInt.one(4)]
    with pytest.raises(RadixMismatch, match=r"entry CycInt\(4, \(1, 0\)\) is not in Z\[ξ_3\]"):
        identity(3, 3).to_dense().apply(mixed)
    with pytest.raises(RadixMismatch):
        forward_fast(mixed)
    with pytest.raises(RadixMismatch):
        Spectrum(3, 1, mixed)


@pytest.mark.parametrize("p", [3, 5])
def test_apply_stack_picks_its_kernel_from_the_gathered_bound(p):
    # rotations are -1, 0 or 1, so d·maxabs of the vector alone decides int64 against Python ints
    d = degree(p)
    edge = INT64_BOUND // d
    perms = [GenPerm(p, [(x + 1) % p for x in range(p)], [RootScalar(p, -1, x) for x in range(p)])]
    for top, dtype in ((edge - 1, np.int64), (edge, object)):
        array = np.full((p, d), -1, dtype=np.int64)
        array[1, d - 1] = top
        s = Spectrum.from_array(p, 1, array)
        stack = apply_stack(perms, s)
        assert stack.dtype == dtype
        want = [t.apply(s[c]) for c, t in zip(perms[0].cols, perms[0].scalars)]
        assert Spectrum.from_array(p, 1, stack[0]) == Spectrum(p, 1, want)


def test_apply_stack_refuses_foreign_sizes_and_radices():
    s = circular_spectrum(X1X2)
    with pytest.raises(ValueError, match="size mismatch: 3 vs 9"):
        apply_stack([kron(gamma("N"), gamma("X")), gamma("N")], s)
    with pytest.raises(RadixMismatch):
        apply_stack([pauli_z(4)], Spectrum(3, 1, [ONE] * 3))


@st.composite
def scaled_root_spectra(draw):
    """p^(n/2)·(±ξ^k) entries, a few of them spoiled: not divisible, or not a unit root."""
    p, n = draw(st.sampled_from([(3, 2), (4, 2), (5, 2), (6, 2), (3, 4)]))
    scale_int = p ** (n // 2)
    size = p**n
    rng = draw(st.randoms(use_true_random=False))
    entries = [CycInt.root(p, rng.randrange(p)) * (scale_int * rng.choice([1, -1])) for _ in range(size)]
    for _ in range(draw(st.integers(0, 3))):
        w = rng.randrange(size)
        entries[w] = entries[w] + CycInt.from_int(p, rng.choice([1, scale_int, 2 * scale_int]))
    return Spectrum(p, n, entries)


def entrywise_diag(s: Spectrum):
    """The diagonal by one div_exact_int and as_root_scalar per entry, or the NotFlat message."""
    scale_int = s.p ** (s.n // 2)
    scalars = []
    for w, e in enumerate(s.entries):
        try:
            scalars.append(e.div_exact_int(scale_int).as_root_scalar())
        except (NotDivisible, NotAUnitRoot):
            return f"entry {w} = {e} is not {scale_int}·(±ξ^k)"
    return GenPerm.from_diag(s.p, scalars)


@settings(max_examples=60, deadline=None)
@given(scaled_root_spectra())
def test_diag_from_flat_spectrum_equals_the_entrywise_decode(s):
    want = entrywise_diag(s)
    if isinstance(want, str):
        with pytest.raises(NotFlat) as err:
            diag_from_flat_spectrum(s)
        assert str(err.value) == want
    else:
        assert diag_from_flat_spectrum(s) == want


@pytest.mark.parametrize("p", [3, 4, 5, 6])
def test_equality_and_hash_agree_with_the_dense_matrix(p):
    # even p: -ξ^k and ξ^(k + p/2) are one matrix entry; odd p: every ±ξ^k is distinct
    perms = [GenPerm(p, [1, 0], [RootScalar(p, sign, k), RootScalar(p)]) for sign in (1, -1) for k in range(p)]
    dense = [perm.to_dense() for perm in perms]
    for a, da in zip(perms, dense):
        for b, db in zip(perms, dense):
            assert (a == b) == (da == db)
            if a == b:
                assert hash(a) == hash(b)
    assert len(set(perms)) == len(set(dense)) == (p if p % 2 == 0 else 2 * p)


def test_even_radix_stores_the_plus_one_form():
    minus_one = GenPerm(4, [0, 1], [RootScalar(4, -1, 0), RootScalar(4)])
    assert minus_one == GenPerm(4, [0, 1], [RootScalar(4, 1, 2), RootScalar(4)])
    assert minus_one.signs == (1, 1) and minus_one.exponents == (2, 0)
    assert repr(minus_one) == "GenPerm(4, [0->0:RootScalar(4, +1, 2), 1->1:RootScalar(4, +1, 0)])"
    assert scale(identity(6, 2), RootScalar(6, -1, 1)) == GenPerm.from_diag(6, [RootScalar(6, 1, 4)] * 2)
    for p in (3, 5):
        minus_one = GenPerm(p, [0], [RootScalar(p, -1, 0)])
        assert minus_one.signs == (-1,)
        assert all(minus_one != GenPerm(p, [0], [RootScalar(p, 1, k)]) for k in range(p))


def ea13(a, t, m, c):
    """Row r holds ξ^(m·r + c) at column a·r + t, through the public constructor."""
    return GenPerm(3, [(a * r + t) % 3 for r in range(3)], [RootScalar(3, 1, m * r + c) for r in range(3)])


def test_conjugation_law_on_all_54_elements_of_ea13():
    # W of r ↦ a·r + t with phase ξ^(m·r + c) moves column a·r + a·m, phase ξ^(c - a·t·r - a·t·m)
    for a, t, m, c in itertools.product((1, 2), range(3), range(3), range(3)):
        assert conjugate_by_c(ea13(a, t, m, c)) == ea13(a, a * m, -a * t, c - a * t * m)
    assert conjugate_table("Z") == gamma("XT")
    assert conjugate_table("Zc") == gamma("X")
    with pytest.raises(ValueError, match="unknown elementary permutation 'Q'"):
        conjugate_table("Q")


def test_hot_paths_read_no_root_scalar(monkeypatch):
    from vcbent import appendix, generator, genperm, permexpr

    def refuse(self):
        raise AssertionError("GenPerm.scalars read on a hot path")

    node = permexpr.parse("compose(kron(w*Z,Zc),blockdiag(Z,-Zc,N))")

    def run_hot_paths():
        for cached in (genperm.atom, conjugate_table, generator._kron_catalog, generator._blockdiag_catalog,
                       appendix._label_perms, appendix._class_members):
            cached.cache_clear()
        diag = diag_from_flat_spectrum(circular_spectrum(X1X2))
        return (
            generator.generate_all(),
            generator.blockdiag_survey(X1X2),
            appendix.verify_appendix(),
            generator.maiorana_enumerate(),
            diag,
            conjugate_by_c(diag),
            permexpr.evaluate(node),
            permexpr.conjugate_expr(node),
        )

    want = run_hot_paths()
    monkeypatch.setattr(GenPerm, "scalars", property(refuse))
    assert run_hot_paths() == want


@settings(max_examples=60, deadline=None)
@given(permutation_stacks())
def test_apply_stack_on_a_perm_stack_equals_apply_per_permutation(case):
    # the coefficient bound 2^70 of the strategy puts entries above 2^62 on Python ints
    from vcbent.genperm import PermStack

    perms, s = case
    stack = PermStack.of(perms)
    assert stack.cols.shape == (len(perms), len(s)) and not stack.cols.flags.writeable
    assert stack.rotations.shape == (len(perms), len(s), degree(s.p), degree(s.p))
    got = apply_stack(stack, s)
    big = s.array.dtype == object or int(np.abs(s.array).max()) * degree(s.p) >= INT64_BOUND
    assert got.dtype == (object if big else np.int64)
    for perm, row in zip(perms, got):
        assert Spectrum.from_array(s.p, s.n, row) == perm.apply(s)


def test_list_outputs_and_dense_rows_share_one_object_per_distinct_entry():
    perm = kron(gamma("N"), scale(gamma("X"), RootScalar(3, -1, 1)))
    for m, n in ((perm, 2), (kron(perm, perm), 4)):
        vec = [xi(3, k % 2) if k % 5 else ZERO for k in range(3**n)]
        want = [t.apply(vec[c]) for c, t in zip(m.cols, m.scalars)]
        for out in (m.apply(vec), m.to_dense().apply(vec)):
            assert type(out) is list and out == want
            assert len({id(e) for e in out}) == len(set(out)) < len(out)  # equal entries are one object
    rows = identity(3, 3).to_dense().rows
    assert rows == ((ONE, ZERO, ZERO), (ZERO, ONE, ZERO), (ZERO, ZERO, ONE))
    assert rows[0][1] is rows[1][0] is rows[2][0] and rows[0][0] is rows[1][1] is rows[2][2]
