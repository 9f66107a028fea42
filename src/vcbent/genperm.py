"""Generalized permutation matrices and their conjugation by the transform.

A generalized permutation has exactly one nonzero entry per row and column,
each of the form ±ξ^k; it is stored as int tuples of columns, signs and
exponents.  A PermStack holds B of them as arrays, and apply_stack applies
it by one gather and one batched matmul (GenPerm.apply is its one-row
case).  The module provides

  * one table of eight EA(1,3) atoms (a, t, m), row r holding ξ^(m·r) at column
    a·r + t: Γ = {I, P01, P12, N, X, XT}, and Z = diag(1, ξ, ξ²) and Z*,
  * Kronecker / block-diagonal / product composition and scalar rotation,
  * conjugation W = p^(-n)·C(n)·P·C*(n): by two passes of the transform
    engine (conjugate_by_c), and for atoms by the image ξ^(-a·t·(r + m)) at
    column a·(r + m) in row r, combined factor-wise over Kronecker products.

Conjugating a matrix without Kronecker structure can leave the ring: the
exact result is then roots/3-valued.  DenseCycMatrix therefore carries a
(size, size, d) integer numerator array plus a positive denominator,
normalized by content; its products are vctransform.mul_array calls.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .cyclotomic import (
    CycInt, RadixMismatch, RootScalar, _any_coefficient, _check_coefficients, _check_radix, _cyc_list,
    _frozen, _rows_array, _unit_roots, degree, root_table,
)
from .mvfunction import _length_to_n
from .vctransform import (
    Spectrum, _as_array, _guard, _maxabs, divide_exact, kernel_dtype, mul_array, transform,
)


class NotFlat(ValueError):
    """Spectrum is not p^(n/2) times unit roots, so it defines no diagonal."""


# EA(1,3) atoms (a, t, m): row r holds ξ^(m·r) at column a·r + t
_ATOMS = {
    "I": (1, 0, 0),
    "P01": (2, 1, 0),
    "P12": (2, 0, 0),
    "N": (2, 2, 0),
    "X": (1, 2, 0),
    "XT": (1, 1, 0),
    "Z": (1, 0, 1),
    "Zc": (1, 0, 2),
}
ATOM_NAMES = tuple(_ATOMS)
GAMMA_NAMES = ATOM_NAMES[:6]


def _unit(p: int, s: RootScalar) -> tuple[int, int]:
    """(sign, exponent) of s, which must be over radix p."""
    if s.p != p:
        raise RadixMismatch(f"scalar {s!r} not over radix {p}")
    return s.sign, s.exponent


class GenPerm:
    """Row r holds signs[r]·ξ^exponents[r] at column cols[r], all Python ints; exponents
    are reduced mod p and even p stores -ξ^k as ξ^(k + p/2), so == compares matrices."""

    __slots__ = ("p", "cols", "signs", "exponents")

    def __init__(self, p: int, cols: Sequence[int], scalars: Sequence[RootScalar]):
        cols = tuple(cols)
        scalars = tuple(scalars)
        if len(scalars) != len(cols):
            raise ValueError("columns and scalars differ in length")
        if sorted(cols) != list(range(len(cols))):
            raise ValueError(f"column indices {cols} are not a permutation")
        self._set(p, [(c, *_unit(p, s)) for c, s in zip(cols, scalars)])

    @classmethod
    def _trusted(cls, p: int, rows: Iterable[tuple[int, int, int]]) -> "GenPerm":
        """From (column, sign, exponent) rows already valid and in _unit's form; no checks."""
        return object.__new__(cls)._set(p, rows)

    def _set(self, p: int, rows) -> "GenPerm":
        self.p = p
        self.cols, self.signs, self.exponents = tuple(zip(*rows)) or ((), (), ())
        return self

    @classmethod
    def from_diag(cls, p: int, scalars: Iterable[RootScalar]) -> "GenPerm":
        scalars = tuple(scalars)
        return cls(p, range(len(scalars)), scalars)

    @property
    def size(self) -> int:
        return len(self.cols)

    @property
    def scalars(self) -> tuple[RootScalar, ...]:
        return tuple(RootScalar(self.p, s, k) for s, k in zip(self.signs, self.exponents))

    def _rows(self):
        return zip(self.cols, self.signs, self.exponents)

    def apply(self, vec):
        """Matrix-vector product, the one-row case of apply_stack; Spectrum in
        gives Spectrum back, anything else a list."""
        out = apply_stack([self], vec)[0]
        return Spectrum.from_array(vec.p, vec.n, out) if isinstance(vec, Spectrum) else _cyc_list(self.p, out)

    def to_dense(self) -> "DenseCycMatrix":
        num = np.zeros((self.size, self.size, degree(self.p)), dtype=np.int64)
        signs = np.array(self.signs, dtype=np.int64)
        num[np.arange(self.size), list(self.cols)] = signs[:, None] * root_table(self.p)[list(self.exponents)]
        return DenseCycMatrix.from_array(self.p, num)

    def is_straight(self) -> bool:
        return -1 not in self.signs and not any(self.exponents)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GenPerm):
            return NotImplemented
        return (self.p, self.cols, self.signs, self.exponents) == (
            other.p, other.cols, other.signs, other.exponents)

    def __hash__(self) -> int:
        return hash((self.p, self.cols, self.signs, self.exponents))

    def __repr__(self) -> str:
        entries = ", ".join(
            f"{r}->{c}:{s!r}" for r, (c, s) in enumerate(zip(self.cols, self.scalars))
        )
        return f"GenPerm({self.p}, [{entries}])"


class DenseCycMatrix:
    """numerator/denominator matrix over Z[ξ_p]; denominator content-reduced.

    num is a read-only (size, size, d) coefficient array and rows its CycInt
    view, built on first use; == and hash do not depend on num's dtype.
    """

    __slots__ = ("p", "num", "denom", "_rows")

    def __init__(self, p: int, rows, denom: int = 1):
        rows = tuple(tuple(cell for cell in row) for row in rows)
        size = len(rows)
        for row in rows:
            if len(row) != size:
                raise ValueError("matrix is not square")
            for cell in row:
                if not isinstance(cell, CycInt) or cell.p != p:
                    raise RadixMismatch(f"entry {cell!r} not in Z[ξ_{p}]")
        num = _rows_array([[cell.coeffs for cell in row] for row in rows])
        self._set(p, num.reshape(size, size, degree(p)), denom)

    @classmethod
    def from_array(cls, p: int, num: np.ndarray, denom: int = 1) -> "DenseCycMatrix":
        """Wrap a (size, size, d) integer numerator array, made read-only."""
        size = num.shape[0] if num.ndim else 0
        _check_coefficients(num, (size, size, degree(p)))
        self = object.__new__(cls)
        self._set(p, num, denom)
        return self

    def _set(self, p: int, num: np.ndarray, denom: int) -> None:
        if denom == 0:
            raise ValueError("zero denominator")
        if denom < 0:
            num, denom = -num, -denom
        g = math.gcd(int(np.gcd.reduce(num, axis=None)), denom)
        if g > 1:
            num, denom = num // g, denom // g
        self.p = p
        self.num = _frozen(num)
        self.denom = denom
        self._rows = None

    @property
    def size(self) -> int:
        return self.num.shape[0]

    @property
    def rows(self) -> tuple[tuple[CycInt, ...], ...]:
        if self._rows is None:
            self._rows = tuple(zip(*[iter(_cyc_list(self.p, self.num))] * self.size))  # each size cells, a row
        return self._rows

    def apply(self, vec):
        """Exact matrix-vector product; NotDivisible names where the 1/denom scale is inexact."""
        p, n, array = _as_array(vec)
        if p != self.p:
            raise RadixMismatch(f"radix mismatch: {self.p} vs {p}")
        if len(array) != self.size:
            raise ValueError(f"size mismatch: {self.size} vs {len(array)}")
        out = mul_array(self.num, array, p, "ijb,jc->ibc", terms=self.size)
        if self.denom != 1:
            out = divide_exact(out, self.denom, p)
        return Spectrum.from_array(p, n, out) if isinstance(vec, Spectrum) else _cyc_list(p, out)

    def matmul(self, other: "DenseCycMatrix") -> "DenseCycMatrix":
        if other.p != self.p:
            raise RadixMismatch(f"radix mismatch: {self.p} vs {other.p}")
        if other.size != self.size:
            raise ValueError("size mismatch")
        num = mul_array(self.num, other.num, self.p, "ikb,kjc->ijbc", terms=self.size)
        return DenseCycMatrix.from_array(self.p, num, self.denom * other.denom)

    def kron(self, other: "DenseCycMatrix") -> "DenseCycMatrix":
        if other.p != self.p:
            raise RadixMismatch(f"radix mismatch: {self.p} vs {other.p}")
        size = self.size * other.size
        num = mul_array(self.num, other.num, self.p, "ijb,klc->ikjlbc")
        return DenseCycMatrix.from_array(self.p, num.reshape(size, size, -1), self.denom * other.denom)

    def scale_root(self, s: RootScalar) -> "DenseCycMatrix":
        root = s.sign * root_table(self.p)[s.exponent]
        return DenseCycMatrix.from_array(self.p, mul_array(self.num, root, self.p), self.denom)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DenseCycMatrix):
            return NotImplemented
        return (self.p, self.denom) == (other.p, other.denom) and np.array_equal(self.num, other.num)

    def __hash__(self) -> int:
        return hash((self.p, self.denom, self.num.shape, tuple(self.num.ravel().tolist())))

    def __repr__(self) -> str:
        scale = "" if self.denom == 1 else f" / {self.denom}"
        body = "; ".join(" ".join(str(c) for c in row) for row in self.rows)
        return f"DenseCycMatrix({self.p}, [{body}]{scale})"


def as_dense(m) -> DenseCycMatrix:
    return m.to_dense() if isinstance(m, GenPerm) else m


# -- constructors --------------------------------------------------------------


def identity(p: int, size: int) -> GenPerm:
    _check_radix(p)
    return GenPerm._trusted(p, [(r, 1, 0) for r in range(size)])


def _ea13(a: int, t: int, m: int, c: int = 0) -> GenPerm:
    """Row r holds ξ^(m·r + c) at column a·r + t (p = 3)."""
    return GenPerm._trusted(3, [((a * r + t) % 3, 1, (m * r + c) % 3) for r in range(3)])


@lru_cache(maxsize=None)
def atom(name: str, names: tuple = ATOM_NAMES) -> GenPerm:
    """The EA(1,3) atom of the table called name, which must be one of names."""
    if name not in names:
        raise ValueError(f"unknown elementary permutation {name!r}; expected {names}")
    return _ea13(*_ATOMS[name])


def gamma(name: str) -> GenPerm:
    """One of the elementary 3×3 straight permutations Γ (p = 3)."""
    return atom(name, GAMMA_NAMES)


def pauli_z(p: int, conjugated: bool = False) -> GenPerm:
    """diag(1, ξ, ξ², ...) or its conjugate diag(1, ξ^-1, ...)."""
    _check_radix(p)
    return GenPerm._trusted(p, [(k, 1, -k % p if conjugated else k) for k in range(p)])


def kron(a: GenPerm, b: GenPerm) -> GenPerm:
    """Kronecker product; the first factor owns the high digits."""
    if a.p != b.p:
        raise RadixMismatch(f"radix mismatch: {a.p} vs {b.p}")
    size = b.size
    return GenPerm._trusted(a.p, [(c * size + d, s * t, (k + j) % a.p)
                                  for c, s, k in a._rows() for d, t, j in b._rows()])


def compose(a: GenPerm, b: GenPerm) -> GenPerm:
    """Matrix product a·b."""
    if a.p != b.p:
        raise RadixMismatch(f"radix mismatch: {a.p} vs {b.p}")
    if a.size != b.size:
        raise ValueError(f"size mismatch: {a.size} vs {b.size}")
    return GenPerm._trusted(a.p, [(b.cols[c], s * b.signs[c], (k + b.exponents[c]) % a.p)
                                  for c, s, k in a._rows()])


def scale(a: GenPerm, s: RootScalar) -> GenPerm:
    """Rotate every nonzero entry by the scalar s."""
    sign, k = _unit(a.p, s)
    return GenPerm._trusted(a.p, [(c, sign * t, (k + j) % a.p) for c, t, j in a._rows()])


def block_diag(blocks: Sequence[GenPerm]) -> GenPerm:
    if not blocks:
        raise ValueError("no blocks")
    p = blocks[0].p
    rows = []
    for blk in blocks:
        if blk.p != p:
            raise RadixMismatch("blocks with mixed radices")
        rows += [(c + len(rows), s, k) for c, s, k in blk._rows()]  # len before the +=
    return GenPerm._trusted(p, rows)


def diag_from_flat_spectrum(s: Spectrum) -> GenPerm:
    """P = p^(-n/2)·diag(S); NotFlat unless every scaled entry is ±ξ^k."""
    if s.n % 2:
        raise NotFlat(f"odd variable count {s.n}: p^(n/2) is not an integer")
    scale_int = s.p ** (s.n // 2)
    signs, exponents, ok = _unit_roots(s.array, s.p, scale_int)
    if not ok.all():
        w = int(ok.argmin())
        raise NotFlat(f"entry {w} = {CycInt(s.p, s.array[w])} is not {scale_int}·(±ξ^k)")
    return GenPerm._trusted(s.p, zip(range(len(signs)), signs.tolist(), exponents.tolist()))


def apply(m, vec):
    """Apply a GenPerm or DenseCycMatrix to a vector or Spectrum."""
    return m.apply(vec)


def apply_stack(perms: Sequence[GenPerm] | PermStack, vec) -> np.ndarray:
    """The (B, size, d) coefficients of perm.apply(vec) for each of B perms, given as
    GenPerms or as a PermStack built once by PermStack.of."""
    p, _, array = _as_array(vec)
    return (perms if isinstance(perms, PermStack) else PermStack.of(perms, p, len(array))).apply(array, p)


class PermStack:
    """B generalized permutations of one size as arrays: read-only (B, size) cols and
    (B, size, d, d) rotations, rotations[b, x] = sign·(multiplication by ξ^k) for the
    entry sign·ξ^k of row x; its column j holds the coefficients of ξ^(k+j)."""

    __slots__ = ("p", "cols", "rotations")

    @classmethod
    def of(cls, perms: Sequence[GenPerm], p: int | None = None, size: int | None = None) -> "PermStack":
        """The stack of perms, each checked to have radix p and size size, by default the first one's."""
        if not perms and p is None:
            raise ValueError("no permutations")
        p, size = (perms[0].p, perms[0].size) if p is None else (p, size)
        for perm in perms:
            if perm.p != p:
                raise RadixMismatch(f"radix mismatch: {perm.p} vs {p}")
            if perm.size != size:
                raise ValueError(f"size mismatch: {perm.size} vs {size}")
        rows = np.array([(perm.cols, perm.signs, perm.exponents) for perm in perms], dtype=np.intp)
        rows = rows.reshape(len(perms), 3, size)
        return cls(p, rows[:, 0], rows[:, 1, :, None, None] * _rotation_table(p)[rows[:, 2]])

    def __init__(self, p: int, cols: np.ndarray, rotations: np.ndarray):  # arrays in this form, made read-only
        self.p, self.cols, self.rotations = p, _frozen(cols), _frozen(rotations)

    def apply(self, array: np.ndarray, p: int) -> np.ndarray:
        """The (..., B, size, d) images of a (..., size, d) coefficient array over radix p: one
        gather by cols and one batched matmul by rotations.  Rotation entries are -1, 0 or 1,
        so no image coefficient, a sum of d terms, exceeds d·maxabs of the input, and that
        bound picks int64 or Python ints."""
        if p != self.p:
            raise RadixMismatch(f"radix mismatch: {self.p} vs {p}")
        if array.shape[-2] != self.cols.shape[1]:
            raise ValueError(f"size mismatch: {self.cols.shape[1]} vs {array.shape[-2]}")
        if array.dtype != object:
            array = array.astype(kernel_dtype(degree(p) * _maxabs(array)), copy=False)
        return (self.rotations @ array[..., self.cols, :, None])[..., 0]


@lru_cache(maxsize=None)
def _rotation_table(p: int) -> np.ndarray:
    """Entry k is the (d, d) matrix of multiplication by ξ^k: column j holds the coefficients of ξ^(k+j)."""
    return _frozen(root_table(p)[(np.arange(p)[:, None] + np.arange(degree(p))) % p].swapaxes(1, 2))


# -- conjugation ---------------------------------------------------------------


def conjugate_by_c(m) -> "GenPerm | DenseCycMatrix":
    """W = p^(-n)·C(n)·m·C*(n), exact; returned as GenPerm when it is one.

    Two batched passes of the transform engine: C·m transforms every
    column of m, and (C·m)·C* transforms every row, because C* is symmetric.
    W holds p^2n entries, so the size guard is applied to p^2n.
    """
    p = m.p
    n = _length_to_n(p, m.size)
    _guard(p, 2 * n)
    dense = as_dense(m)
    cm = transform(dense.num.swapaxes(0, 1), p, n, conjugate=False).swapaxes(0, 1)
    w = transform(cm, p, n, conjugate=True)
    return _downcast(DenseCycMatrix.from_array(p, w, p**n * dense.denom))


def _downcast(dense: DenseCycMatrix) -> "GenPerm | DenseCycMatrix":
    """dense as a GenPerm when it has one ±ξ^k per row and column and nothing else."""
    nonzero = _any_coefficient(dense.num != 0)
    if dense.denom != 1 or (nonzero.sum(axis=0) != 1).any() or (nonzero.sum(axis=1) != 1).any():
        return dense
    cols = nonzero.argmax(axis=1)
    signs, exponents, ok = _unit_roots(dense.num[np.arange(dense.size), cols], dense.p, 1)
    if not ok.all():
        return dense
    return GenPerm._trusted(dense.p, zip(cols.tolist(), signs.tolist(), exponents.tolist()))


def is_generalized_permutation(m) -> bool:
    """One ±ξ^k nonzero per row and column, nothing else."""
    return isinstance(m, GenPerm) or isinstance(_downcast(m), GenPerm)


@lru_cache(maxsize=None)
def conjugate_table(name: str) -> GenPerm:
    """W = 3^(-1)·C·P·C* of atom (a, t, m): row r holds ξ^(-a·t·(r+m)) at column a·(r+m) (a⁻¹ = a)."""
    atom(name)  # ValueError outside the table
    a, t, m = _ATOMS[name]
    return _ea13(a, a * m, -a * t, -a * t * m)
