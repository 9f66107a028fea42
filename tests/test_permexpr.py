from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcbent import permexpr
from vcbent.cyclotomic import RootScalar
from vcbent.vctransform import SizeLimitExceeded
from vcbent.genperm import (
    GenPerm,
    as_dense,
    compose,
    conjugate_by_c,
    gamma,
    kron,
    pauli_z,
    scale,
)
from vcbent.permexpr import (
    ATOM_NAMES,
    Atom,
    BlockDiag,
    Compose,
    Diag,
    ExprParseError,
    Kron,
    Rot,
    conjugate_expr,
    evaluate,
    parse,
    render,
)

CANONICAL = [
    "I",
    "kron(N,N)",
    "compose(Zc,XT)",
    "w^1*P12",
    "-X",
    "-w^2*kron(P01,X)",
    "blockdiag(I,I,X)",
    "diag(w^2,1,w,1,1,1,w,1,w^2)",
    "kron(w^1*P12,compose(P01,compose(N,Z)))",
    "blockdiag(w^2*Z,I,w^1*Zc)",
]


@pytest.mark.parametrize("text", CANONICAL)
def test_parse_render_round_trip(text):
    node = parse(text)
    assert parse(render(node)) == node


def test_whitespace_and_w_forms_tolerated():
    assert parse("kron( N , N )") == parse("kron(N,N)")
    assert parse("diag(w,1,w^1)") == parse("diag(w^1,1,w)")
    assert parse("w*X") == parse("w^1*X")


def test_parse_errors():
    for bad in ("", "kron(N)", "diag()", "Q", "kron(N,N) X", "w^2", "diag(2,1,1)"):
        with pytest.raises(ExprParseError):
            parse(bad)


def test_evaluate_atoms():
    assert evaluate(parse("I")) == gamma("I")
    assert evaluate(parse("Z")) == pauli_z(3)
    assert evaluate(parse("Zc")) == pauli_z(3, conjugated=True)
    assert evaluate(parse("XT")) == gamma("XT")


def test_evaluate_structures():
    assert evaluate(parse("kron(N,N)")) == kron(gamma("N"), gamma("N"))
    assert evaluate(parse("compose(Zc,XT)")) == compose(pauli_z(3, conjugated=True), gamma("XT"))
    assert evaluate(parse("w^1*P12")) == scale(gamma("P12"), RootScalar(3, 1, 1))
    assert evaluate(parse("-X")) == scale(gamma("X"), RootScalar(3, -1, 0))
    diag = evaluate(parse("diag(w^2,1,w,1,1,1,w,1,w^2)"))
    assert diag == GenPerm.from_diag(3, [RootScalar(3, 1, k) for k in (2, 0, 1, 0, 0, 0, 1, 0, 2)])


def test_case3_equivalent_permutations():
    from vcbent.bentlab import circular_spectrum, spectrum_is_bent
    from vcbent.genperm import apply
    from vcbent.mvfunction import MvFunction

    f = MvFunction.from_digits(3, 2, "000012021")
    s = circular_spectrum(f)
    p_diag = evaluate(parse("diag(w^2,1,w,1,1,1,w,1,w^2)"))
    p_kron = evaluate(parse("kron(w^1*P12,compose(P01,compose(N,Z)))"))
    g1 = spectrum_is_bent(apply(p_diag, s))
    g2 = spectrum_is_bent(apply(p_kron, s))
    assert g1 == g2 == MvFunction.from_digits(3, 2, "102012222")


@pytest.mark.parametrize(
    "text",
    [
        "I",
        "Z",
        "Zc",
        "kron(N,N)",
        "kron(w^1*P12,compose(P01,compose(N,Z)))",
        "compose(P01,X)",
        "-w^1*N",
        "blockdiag(w^2*Z,I,w^1*Zc)",
        "blockdiag(I,I,P12)",
        "diag(w^2,1,w,1,1,1,w,1,w^2)",
        "blockdiag(kron(I,I),kron(I,N),kron(N,I))",
        "blockdiag(I,I,I,I,I,I,I,I,X)",
    ],
)
def test_conjugate_expr_agrees_with_dense_route(text):
    node = parse(text)
    structural = conjugate_expr(node)
    dense = conjugate_by_c(evaluate(node))
    assert type(structural) is type(dense)
    assert as_dense(structural) == as_dense(dense)


ROOTS = st.builds(RootScalar, st.just(3), st.sampled_from([1, -1]), st.integers(0, 2))
# the rotations render writes; (1, 0) is the identity and parses back as its child
ROTATIONS = st.sampled_from([(1, 1), (1, 2), (-1, 0), (-1, 1), (-1, 2)])


@lru_cache(maxsize=None)
def expressions(n: int, depth: int = 3):
    """Canonical expression trees of size 3^n: atoms and diag at sizes 3 and 9,
    blockdiag and compose at n ≤ 2, kron at n ≥ 2 and rotations at every n."""
    sub = lambda m: expressions(m, max(depth - 1, 0))  # noqa: E731
    options = []
    if n == 1:
        options.append(st.sampled_from(ATOM_NAMES).map(Atom))
    if n <= 2:
        options.append(st.lists(ROOTS, min_size=3**n, max_size=3**n).map(lambda e: Diag(tuple(e))))
    # kron lowers n, so it always terminates; the other forms spend depth
    options += [st.builds(Kron, sub(k), sub(n - k)) for k in range(1, n)]
    if depth:
        if n == 2:
            options.append(st.lists(sub(1), min_size=3, max_size=3).map(lambda i: BlockDiag(tuple(i))))
        if n <= 2:
            options.append(st.builds(Compose, sub(n), sub(n)))
        unrotated = sub(n).filter(lambda e: not isinstance(e, Rot))
        options.append(st.builds(lambda r, e: Rot(r[0], r[1], e), ROTATIONS, unrotated))
    return st.one_of(options)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(expressions))
def test_random_trees_round_trip_and_conjugate_by_both_routes(node):
    assert parse(render(node)) == node
    structural = conjugate_expr(node)
    dense = conjugate_by_c(evaluate(node))
    assert type(structural) is type(dense)
    assert as_dense(structural) == as_dense(dense)


def test_no_node_above_the_size_guard_is_built(monkeypatch):
    # kron and block_diag are where evaluate and conjugate_expr build a larger permutation
    monkeypatch.setenv("BENT_SIZE_LIMIT", "26")
    built = []

    def recording(build):
        def wrapper(*args):
            built.append(build(*args))
            return built[-1]

        return wrapper

    for name in ("kron", "block_diag"):
        monkeypatch.setattr(permexpr, name, recording(getattr(permexpr, name)))
    for text in ("kron(I,kron(X,N))", "blockdiag(I,X,N,I,X,N,I,X,N)", "diag(" + ",".join(["1"] * 27) + ")"):
        for route in (evaluate, conjugate_expr):
            with pytest.raises(SizeLimitExceeded, match="permutation size 27 exceeds the size limit 26"):
                route(parse(text))
    assert built and max(perm.size for perm in built) == 9


def test_cached_diagonal_conjugates_stay_guarded(monkeypatch):
    node = parse("diag(w,-1,w^2)")
    assert as_dense(conjugate_expr(node)) == as_dense(conjugate_by_c(evaluate(node)))
    monkeypatch.setenv("BENT_SIZE_LIMIT", "8")  # below the 3^2 entries of W
    with pytest.raises(SizeLimitExceeded):
        conjugate_expr(node)
    with pytest.raises(SizeLimitExceeded):
        conjugate_expr(parse("blockdiag(I,diag(w,-1,w^2),X)"))
