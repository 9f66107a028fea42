"""The Vilenkin-Chrestenson transform pair over Z[ξ_p], exact end to end.

C(1)[j, k] = ξ^(j·k mod p) and C(n) is the n-fold Kronecker power of C(1),
so C(n)·C*(n) = p^n·I.  The forward direction applies the conjugate matrix
C*(n); the inverse is F = p^(-n)·C(n)·S with an explicit divisibility
check, so a candidate spectrum that is not p^n times anything is rejected
instead of rounded.  forward_fast() returns a Spectrum, inverse() a CycVector.

Every spectrum goes through transform(), on (..., p^n, d) integer arrays of
power-basis coefficients: Good's factorization of C(n) into n (p·d)×(p·d)
matmul stages, O(n·p^n) multiply-adds; sign_transform() runs them on a sign row
ξ^f given by f, the first stage one gather from an int8 (p, d, p^p) table.  A
stage row has L1 norm at most 2p (p rotations of at most two ±1 coefficients),
so a proven bound caps every partial sum, in any order: the stages run on float64
(BLAS) below 2^53, where such sums are exact, on int64 below 2^62 and on Python
ints above, and return int64 or object.  mul_array() is the ring product on the
same arrays, forward() the dense O(p^2n) reference.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import Sequence

import numpy as np

from .cyclotomic import (
    CycInt, CycVector, NotDivisible, _any_coefficient, _check_length, _frozen, degree, root_table,
)
from .mvfunction import SignVector, _length_to_n, digits_of

DEFAULT_SIZE_LIMIT = 3**10

# int64 is used only while every intermediate value stays below this
INT64_BOUND = 2**62
FLOAT64_BOUND = 2**53  # the transform stages run on float64 only below this, where every integer is a double


class SizeLimitExceeded(ValueError):
    """p^n is above the configured size guard."""


def size_limit() -> int:
    """Active p^n guard; BENT_SIZE_LIMIT in the environment overrides it."""
    raw = os.environ.get("BENT_SIZE_LIMIT")
    return int(raw) if raw else DEFAULT_SIZE_LIMIT


def _guard(p: int, n: int) -> None:
    if p**n > size_limit():
        raise SizeLimitExceeded(f"{p}^{n} exceeds the size limit {size_limit()}")


class Spectrum(CycVector):
    """Length-p^n vector of spectral coefficients S(w): CycInt entries or a
    (p^n, d) coefficient array (from_array), each built from the other on first use."""

    __slots__ = ()

    @classmethod
    def from_strict_exponents(cls, p: int, n: int, exponents: Sequence[int]) -> "Spectrum":
        """S(w) = p^(n/2)·ξ^t(w); n must be even."""
        if n % 2:
            raise ValueError("strict exponent form needs an even variable count")
        _check_length(p, n, len(exponents), "entries for p={p}, n={n}")
        t = np.array(exponents, dtype=np.intp) % p
        return cls.from_array(p, n, root_table(p)[t] * p ** (n // 2))


def _as_array(vec, guard: bool = False) -> tuple[int, int, np.ndarray]:
    """p, n and the (p^n, d) coefficients of a vector; with guard, the size guard runs first."""
    if not isinstance(vec, CycVector):
        entries = tuple(vec)
        if not entries:
            raise ValueError("empty vector")
        p = entries[0].p
        vec = Spectrum(p, _length_to_n(p, len(entries)), entries)
    if guard:
        _guard(vec.p, vec.n)
    return vec.p, vec.n, vec.array


def forward(vec) -> Spectrum:
    """S(w) = Σ_x ξ^(-⟨w·x⟩)·F(x), computed densely and exactly.

    The O(p^2n) reference: one ring product of F with the row ξ^(-⟨w·x⟩)
    per output w, so its extra memory stays O(p^n).
    """
    p, n, array = _as_array(vec, True)
    size = p**n
    digits = np.array([digits_of(x, p, n) for x in range(size)], dtype=np.int64).reshape(size, n)
    roots = root_table(p)
    rows = [mul_array(roots[-(digits @ wd) % p], array, p, terms=size).sum(axis=0) for wd in digits]
    return Spectrum.from_array(p, n, np.stack(rows))


def forward_fast(vec) -> Spectrum:
    """The forward transform through the staged engine; identical output to forward()."""
    if isinstance(vec, SignVector):  # from its exponents (each below p), with no coefficient array
        _guard(vec.p, vec.n)
        exponents = np.frombuffer(bytes(vec.exponents()), np.uint8)
        return Spectrum.from_array(vec.p, vec.n, sign_transform(exponents, vec.p, vec.n))
    p, n, array = _as_array(vec, True)
    return Spectrum.from_array(p, n, transform(array, p, n, conjugate=True))


def inverse(vec) -> CycVector:
    """F = p^(-n)·C(n)·S, array-backed, with exact division; NotDivisible when S is not an image."""
    p, n, array = _as_array(vec, True)
    return CycVector.from_array(p, n, divide_exact(transform(array, p, n, conjugate=False), p**n, p))


def divide_exact(array: np.ndarray, scale: int, p: int) -> np.ndarray:
    """array / scale for a (..., d) array; NotDivisible names the first inexact entry."""
    quotient = array // scale  # floor division: quotient·scale equals array only where it divides
    bad = np.flatnonzero(_any_coefficient(quotient * scale != array))
    if bad.size:
        i = int(bad[0])
        value = CycInt(p, array.reshape(-1, array.shape[-1])[i])
        raise NotDivisible(f"coordinate {i} = {value} is not a multiple of {scale}", index=i, value=value)
    return quotient


def is_flat(vec) -> bool:
    """True iff every |S(w)|² equals p^n."""
    p, n, array = _as_array(vec)
    return bool(flat_mask(array, p, n).all())


def spectrum_kron(a: Spectrum, b: Spectrum) -> Spectrum:
    """Kronecker product of spectra; first factor owns the high digits."""
    if a.p != b.p:
        raise ValueError(f"radix mismatch: {a.p} vs {b.p}")
    product = mul_array(a.array, b.array, a.p, "ib,jc->ijbc")
    return Spectrum.from_array(a.p, a.n + b.n, product.reshape(-1, degree(a.p)))


# -- the exact array engine ----------------------------------------------------


def kernel_dtype(bound: int):
    """int64 when `bound` caps every value the kernel forms, else object (Python ints)."""
    return np.int64 if bound < INT64_BOUND else object


def _maxabs(array: np.ndarray) -> int:
    return max(int(array.max()), -int(array.min())) if array.size else 0


def _stage_matrix(p: int, conjugate: bool) -> np.ndarray:
    """Row j·d + b, column block i: the coefficients of ξ^(b ∓ i·j)."""
    j, b, i = np.ogrid[:p, : degree(p), :p]
    return _frozen(root_table(p)[(b - i * j if conjugate else b + i * j) % p].reshape(p * degree(p), -1))


@lru_cache(maxsize=None)
def _left_stage(p: int, conjugate: bool, dtype=np.int64) -> np.ndarray:
    """_stage_matrix acting from the left: row w·d + c, column b·p + i is coefficient c of ξ^(b ∓ i·w)."""
    stage = _stage_matrix(p, conjugate).reshape(p, degree(p), p, -1).transpose(2, 3, 1, 0)
    return _frozen(stage.reshape(p * degree(p), -1).astype(dtype))


def _stages(out: np.ndarray, p: int, k: int, conjugate: bool, bound: int) -> np.ndarray:
    """The last k stages on rows of d·p^k values (coefficients, then the k digits left), on the tier of bound."""
    tier = object if out.dtype == object else np.float64 if k and bound < FLOAT64_BOUND else kernel_dtype(bound)
    out, left = out.astype(tier, order="C", copy=False), _left_stage(p, conjugate, tier)
    for j in reversed(range(k)):  # j digits still to transform after this stage; the last is one 2-D product
        out = left @ out.reshape(-1, degree(p) * p, p**j) if j else out.reshape(-1, p * degree(p)) @ left.T
    return out.astype(np.int64) if tier is np.float64 else out


def transform(array: np.ndarray, p: int, n: int, conjugate: bool) -> np.ndarray:
    """Σ_x ξ^(∓⟨w·x⟩)·array[..., x, :] for a (..., p^n, d) coefficient array, int64 or object.

    The coefficient axis moves in front of the digits once, in the copy that casts; then stage k turns the
    coefficients and digit x_k into w_k in place.  A stage row has L1 norm ≤ 2p, so maxabs·(2p)^n caps every
    partial sum in any order and picks the tier: float64 (exact) below 2^53, int64 below 2^62, object above.
    """
    bound = 0 if array.dtype == object else _maxabs(array) * (2 * p) ** n
    return _stages(array.reshape(-1, p**n, degree(p)).swapaxes(1, 2), p, n, conjugate, bound).reshape(array.shape)


@lru_cache(maxsize=None)
def _sign_table(p: int) -> np.ndarray:
    """Entry [w, c, Σ_i e_i·p^i] (each e_i < p): coefficient c of Σ_i ξ^(e_i - i·w), at most p in size."""
    w, i, e = np.ogrid[:p, :p, :p]
    roots = root_table(p).astype(np.int8)[(e - i * w) % p].transpose(1, 0, 3, 2)  # [i, w, c, e_i]
    table = np.zeros((p, degree(p)) + (p,) * p, dtype=np.int8)
    for k in range(p):  # adds e_k's term (e_k of place value p^k) in place: no temporary of the table's size
        table += roots[k].reshape((p, degree(p)) + (1,) * (p - 1 - k) + (p,) + (1,) * k)
    return _frozen(table.reshape(p, degree(p), -1))


def sign_transform(exponents: np.ndarray, p: int, n: int) -> np.ndarray:
    """transform(root_table(p)[exponents], p, n, conjugate=True) for a (..., p^n) array in 0..p-1: the stage
    over x1 gathers _sign_table at each block's code Σ_i e_i·p^i (e_i at x1 = i), then transform's other n - 1
    run on the tier of their bound p·(2p)^(n-1), as in transform, reading no input; n = 1 runs none, on int64."""
    if not n:
        return root_table(p)[exponents]
    codes = p ** np.arange(p) @ exponents.reshape(-1, p, p ** (n - 1))
    out = _sign_table(p).reshape(p * degree(p), -1).take(codes, axis=1).swapaxes(0, 1)
    return _stages(out, p, n - 1, True, p * (2 * p) ** (n - 1)).reshape(*exponents.shape, degree(p))


@lru_cache(maxsize=None)
def _product_table(p: int) -> np.ndarray:
    """Row b·d + k: the coefficients of ξ^(b+k), each -1, 0 or 1."""
    b, k = np.ogrid[: degree(p), : degree(p)]
    return _frozen(root_table(p)[(b + k) % p].reshape(-1, degree(p)))


def mul_array(
    a: np.ndarray, b: np.ndarray, p: int, pairing: str = "...b,...c->...bc", terms: int = 1
) -> np.ndarray:
    """The exact ring product of (..., d) coefficient arrays a and b.

    pairing is an einsum ending in the coefficient axes b and c, kept in its
    output: "...b,...c->...bc" is entrywise, "ib,jc->ijbc" Kronecker and
    "ikb,kjc->ijbc" a matrix product.  The d×d outer product is folded by
    the ξ^(b+k) table, so an output coefficient sums d²·terms products, where
    terms counts what the pairing (or a later sum by the caller) adds up.
    """
    d = degree(p)
    if a.dtype != object and b.dtype != object:
        dtype = kernel_dtype(terms * d * d * _maxabs(a) * _maxabs(b))
        a, b = a.astype(dtype, copy=False), b.astype(dtype, copy=False)
    outer = np.einsum(pairing, a, b)
    return outer.reshape(*outer.shape[:-2], d * d) @ _product_table(p)


@lru_cache(maxsize=None)
def _abs_table(p: int) -> np.ndarray:
    """Row b·d + k: the coefficients of ξ^(b-k) = ξ^b·conj(ξ^k), each -1, 0 or 1."""
    b, k = np.ogrid[: degree(p), : degree(p)]
    return _frozen(root_table(p)[(b - k) % p].reshape(-1, degree(p)))


def abs_squared(array: np.ndarray, p: int) -> np.ndarray:
    """S·conj(S) per entry of a (..., d) array; exact, like CycInt.abs_squared.
    The d×d coefficient products fold by the ξ^(b-k) table, d² terms per output."""
    d = degree(p)
    if array.dtype != object:
        array = array.astype(kernel_dtype(d * d * _maxabs(array) ** 2), copy=False)
    outer = array[..., :, None] * array[..., None, :]
    return outer.reshape(*outer.shape[:-2], d * d) @ _abs_table(p)


@lru_cache(maxsize=None)
def _abs_terms(p: int) -> tuple:
    """(c, r, b, k) per nonzero coefficient r = c of ξ^(b-k), row b·d + k of _abs_table."""
    rows = enumerate(_abs_table(p).tolist())
    return tuple((c, r, *divmod(bk, degree(p))) for bk, row in rows for c, r in enumerate(row) if r)


def _flat_row(row: np.ndarray, p: int, n: int) -> bool:
    """flat_mask of one (d,) row in Python ints: its d² products S_b·S_k folded once into the ξ^(b-k)."""
    coeffs, out = row.tolist(), [-(p**n)] + [0] * (degree(p) - 1)
    for c, r, b, k in _abs_terms(p):
        out[c] += r * coeffs[b] * coeffs[k]
    return not any(out)


def flat_mask(array: np.ndarray, p: int, n: int) -> np.ndarray:
    """|S(w)|² = p^n, per entry of a (..., p^n, d) spectrum array."""
    squared = abs_squared(array, p)
    return (squared[..., 0] == p**n) & ~_any_coefficient(squared[..., 1:] != 0)


# -- spectrum file format ------------------------------------------------------


def format_spectrum_lines(s: Spectrum) -> list[str]:
    """Header 'p n' then one CycInt per line, read from the array: each distinct value rendered once."""
    text, rows = {}, zip(*s.array.T.tolist())
    return [f"{s.p} {s.n}"] + [text.get(r) or text.setdefault(r, str(CycInt._trusted(s.p, r))) for r in rows]


def parse_spectrum_lines(lines: Sequence[str]) -> Spectrum:
    """Accepts the entry-per-line form or the compact 'exp:d0d1…' strict form."""
    from .cyclotomic import parse_cyc

    meaningful = [ln.strip() for ln in lines if ln.strip()]
    if not meaningful:
        raise ValueError("empty spectrum file")
    header = meaningful[0].split()
    if len(header) != 2:
        raise ValueError(f"expected 'p n' header, got {meaningful[0]!r}")
    p, n = int(header[0]), int(header[1])
    body = meaningful[1:]
    if len(body) == 1 and body[0].startswith("exp:"):
        digits = body[0][4:]
        _check_length(p, n, len(digits), "exponent digits, got {length}")
        exponents = [int(ch) for ch in digits]
        for i, e in enumerate(exponents):
            if e >= p:
                raise ValueError(f"exponent digit {e} at position {i} is not below {p}")
        return Spectrum.from_strict_exponents(p, n, exponents)
    _check_length(p, n, len(body), "entries, got {length}")
    return Spectrum(p, n, (parse_cyc(p, ln) for ln in body))
