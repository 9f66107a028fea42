"""Generalized permutation matrices and their conjugation by the transform.

A generalized permutation has exactly one nonzero entry per row and column,
each of the form ±ξ^k; it is stored row-sparse as (column, scalar) pairs and
applied by one gather and rotation of a coefficient array (apply_stack, whose
one-row case is GenPerm.apply).  The module provides

  * the six elementary 3×3 straight permutations Γ = {I, P01, P12, N, X, XT},
  * the diagonal modulation matrices Z = diag(1, ξ, ξ², ...) and Z*,
  * Kronecker / block-diagonal / product composition and scalar rotation,
  * conjugation W = p^(-n)·C(n)·P·C*(n): by two passes of the transform
    engine (conjugate_by_c), and by the precomputed images of Γ (I↦I,
    N↦Z*·P12, P12↦P12, P01↦Z·P12, X↦Z, XT↦Z*), which combine factor-wise
    over Kronecker products.

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
    CycInt, RadixMismatch, RootScalar, _check_coefficients, _cyc_list, _frozen,
    _rows_array, _unit_roots, degree, root_table,
)
from .mvfunction import _length_to_n
from .vctransform import (
    Spectrum, _as_array, _guard, _maxabs, _product_table, divide_exact, kernel_dtype, mul_array,
    transform,
)


class NotFlat(ValueError):
    """Spectrum is not p^(n/2) times unit roots, so it defines no diagonal."""


GAMMA_NAMES = ("I", "P01", "P12", "N", "X", "XT")

# row -> column maps of the elementary straight permutations
_GAMMA_COLS = {
    "I": (0, 1, 2),
    "P01": (1, 0, 2),
    "P12": (0, 2, 1),
    "N": (2, 1, 0),
    "X": (2, 0, 1),
    "XT": (1, 2, 0),
}


class GenPerm:
    """Sparse generalized permutation: rows[r] = (column, ±ξ^k)."""

    __slots__ = ("p", "size", "cols", "scalars")

    def __init__(self, p: int, cols: Sequence[int], scalars: Sequence[RootScalar]):
        cols = tuple(cols)
        scalars = tuple(scalars)
        size = len(cols)
        if len(scalars) != size:
            raise ValueError("columns and scalars differ in length")
        if sorted(cols) != list(range(size)):
            raise ValueError(f"column indices {cols} are not a permutation")
        for s in scalars:
            if s.p != p:
                raise RadixMismatch(f"scalar {s!r} not over radix {p}")
        self.p = p
        self.size = size
        self.cols = cols
        self.scalars = scalars

    @classmethod
    def from_diag(cls, p: int, scalars: Iterable[RootScalar]) -> "GenPerm":
        scalars = tuple(scalars)
        return cls(p, range(len(scalars)), scalars)

    def apply(self, vec):
        """Matrix-vector product, the one-row case of apply_stack; Spectrum in
        gives Spectrum back, anything else a list."""
        out = apply_stack([self], vec)[0]
        return Spectrum.from_array(vec.p, vec.n, out) if isinstance(vec, Spectrum) else _cyc_list(self.p, out)

    def to_dense(self) -> "DenseCycMatrix":
        num = np.zeros((self.size, self.size, degree(self.p)), dtype=np.int64)
        signs = np.array([s.sign for s in self.scalars])
        exponents = [s.exponent for s in self.scalars]
        num[np.arange(self.size), list(self.cols)] = signs[:, None] * root_table(self.p)[exponents]
        return DenseCycMatrix.from_array(self.p, num)

    def is_straight(self) -> bool:
        return all(s.is_one for s in self.scalars)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GenPerm):
            return NotImplemented
        return (self.p, self.cols, self.scalars) == (other.p, other.cols, other.scalars)

    def __hash__(self) -> int:
        return hash((self.p, self.cols, self.scalars))

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
            self._rows = tuple(tuple(_cyc_list(self.p, row)) for row in self.num)
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
    one = RootScalar(p)
    return GenPerm(p, range(size), [one] * size)


def gamma(name: str) -> GenPerm:
    """One of the elementary 3×3 straight permutations Γ (p = 3)."""
    cols = _GAMMA_COLS.get(name)
    if cols is None:
        raise ValueError(f"unknown elementary permutation {name!r}; expected {GAMMA_NAMES}")
    one = RootScalar(3)
    return GenPerm(3, cols, [one] * 3)


def pauli_z(p: int, conjugated: bool = False) -> GenPerm:
    """diag(1, ξ, ξ², ...) or its conjugate diag(1, ξ^-1, ...)."""
    step = -1 if conjugated else 1
    return GenPerm.from_diag(p, (RootScalar(p, 1, step * k) for k in range(p)))


def kron(a: GenPerm, b: GenPerm) -> GenPerm:
    """Kronecker product; the first factor owns the high digits."""
    if a.p != b.p:
        raise RadixMismatch(f"radix mismatch: {a.p} vs {b.p}")
    cols = []
    scalars = []
    for c1, s1 in zip(a.cols, a.scalars):
        for c2, s2 in zip(b.cols, b.scalars):
            cols.append(c1 * b.size + c2)
            scalars.append(s1 * s2)
    return GenPerm(a.p, cols, scalars)


def compose(a: GenPerm, b: GenPerm) -> GenPerm:
    """Matrix product a·b."""
    if a.p != b.p:
        raise RadixMismatch(f"radix mismatch: {a.p} vs {b.p}")
    if a.size != b.size:
        raise ValueError(f"size mismatch: {a.size} vs {b.size}")
    cols = []
    scalars = []
    for ca, sa in zip(a.cols, a.scalars):
        cols.append(b.cols[ca])
        scalars.append(sa * b.scalars[ca])
    return GenPerm(a.p, cols, scalars)


def scale(a: GenPerm, s: RootScalar) -> GenPerm:
    """Rotate every nonzero entry by the scalar s."""
    return GenPerm(a.p, a.cols, [s * t for t in a.scalars])


def block_diag(blocks: Sequence[GenPerm]) -> GenPerm:
    if not blocks:
        raise ValueError("no blocks")
    p = blocks[0].p
    cols = []
    scalars = []
    offset = 0
    for blk in blocks:
        if blk.p != p:
            raise RadixMismatch("blocks with mixed radices")
        cols.extend(c + offset for c in blk.cols)
        scalars.extend(blk.scalars)
        offset += blk.size
    return GenPerm(p, cols, scalars)


def diag_from_flat_spectrum(s: Spectrum) -> GenPerm:
    """P = p^(-n/2)·diag(S); NotFlat unless every scaled entry is ±ξ^k."""
    if s.n % 2:
        raise NotFlat(f"odd variable count {s.n}: p^(n/2) is not an integer")
    scale_int = s.p ** (s.n // 2)
    signs, exponents, ok = _unit_roots(s.array, s.p, scale_int)
    if not ok.all():
        w = int(ok.argmin())
        raise NotFlat(f"entry {w} = {CycInt(s.p, s.array[w])} is not {scale_int}·(±ξ^k)")
    return GenPerm.from_diag(s.p, (RootScalar(s.p, sg, k) for sg, k in zip(signs.tolist(), exponents.tolist())))


def apply(m, vec):
    """Apply a GenPerm or DenseCycMatrix to a vector or Spectrum."""
    return m.apply(vec)


def apply_stack(perms: Sequence[GenPerm], vec) -> np.ndarray:
    """The (B, size, d) coefficients of perm.apply(vec) for each of B perms.

    One gather of vec's coefficients over the (B, size) column array, then
    one entrywise ring product by the rotations sign·ξ^k, folded as in
    mul_array, so any scalars are exact.  Rotation coefficients are -1, 0 or
    1, so d²·maxabs of the gathered array alone picks int64 or Python ints."""
    p, _, array = _as_array(vec)
    for perm in perms:
        if perm.p != p:
            raise RadixMismatch(f"radix mismatch: {perm.p} vs {p}")
        if perm.size != len(array):
            raise ValueError(f"size mismatch: {perm.size} vs {len(array)}")
    shape = (len(perms), len(array))
    cols = np.array([perm.cols for perm in perms], dtype=np.intp).reshape(shape)
    scalars = np.array([[(t.sign, t.exponent) for t in perm.scalars] for perm in perms], dtype=np.int64)
    scalars = scalars.reshape(*shape, 2)
    rotations = scalars[..., :1] * root_table(p)[scalars[..., 1]]
    gathered, d = array[cols], degree(p)
    if gathered.dtype != object:
        gathered = gathered.astype(kernel_dtype(d * d * _maxabs(gathered)), copy=False)
    outer = rotations[..., :, None] * gathered[..., None, :]
    return outer.reshape(*shape, d * d) @ _product_table(p)


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
    nonzero = (dense.num != 0).any(axis=-1)
    if dense.denom != 1 or (nonzero.sum(axis=0) != 1).any() or (nonzero.sum(axis=1) != 1).any():
        return dense
    cols = nonzero.argmax(axis=1)
    signs, exponents, ok = _unit_roots(dense.num[np.arange(dense.size), cols], dense.p, 1)
    if not ok.all():
        return dense
    scalars = [RootScalar(dense.p, s, k) for s, k in zip(signs.tolist(), exponents.tolist())]
    return GenPerm(dense.p, cols.tolist(), scalars)


def is_generalized_permutation(m) -> bool:
    """One ±ξ^k nonzero per row and column, nothing else."""
    return isinstance(m, GenPerm) or isinstance(_downcast(m), GenPerm)


@lru_cache(maxsize=None)
def conjugate_table(name: str) -> GenPerm:
    """The tabulated image of an elementary permutation under conjugation."""
    if name not in GAMMA_NAMES:
        raise ValueError(f"unknown elementary permutation {name!r}; expected {GAMMA_NAMES}")
    z, zc, p12 = pauli_z(3), pauli_z(3, conjugated=True), gamma("P12")
    images = {"I": gamma("I"), "N": compose(zc, p12), "P12": p12, "P01": compose(z, p12), "X": z, "XT": zc}
    return images[name]
