"""Exact arithmetic in the cyclotomic integer rings Z[ξ_p] for p in {3, 4, 5, 6}.

ξ denotes a primitive p-th root of unity.  Every value is an integer vector
in the power basis {1, ξ, ..., ξ^(d-1)} kept fully reduced modulo the p-th
cyclotomic polynomial, so equality (and hashing) is plain coefficient
equality:

    Φ_3 = x² + x + 1            Φ_4 = x² + 1
    Φ_5 = x⁴ + x³ + x² + x + 1  Φ_6 = x² - x + 1

Coefficients are Python ints, so nothing here ever overflows or rounds.
The canonical text form writes ξ as ``x``: ``"3"``, ``"3x"``, ``"-1-1x"``,
``"2x^3"`` (the last only for p=5, where the basis has degree 4).

One table reduces everything: the rows ξ^0 … ξ^(p-1), root_table().  The
product, rotation by ξ^k, conjugate and ±ξ^k decode of scalars all read it.
Many values at once are an (..., d) array of the same coefficients, int64
when they fit and Python ints (dtype=object) otherwise; CycVector is the
vector shared by signs and spectra.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterable

import numpy as np

SUPPORTED_RADICES = (3, 4, 5, 6)

_DEGREE = {3: 2, 4: 2, 5: 4, 6: 2}
_TERNARY = 3 ** np.arange(4)  # place values of _unit_codes' coefficient code

# ξ^d written in the power basis, d = deg Φ_p.
_FOLD = {
    3: (-1, -1),
    4: (-1, 0),
    5: (-1, -1, -1, -1),
    6: (-1, 1),
}


class RadixMismatch(ValueError):
    """Operands live in different rings Z[ξ_p]."""


class NotAUnitRoot(ValueError):
    """Value is not of the form ±ξ^k."""


class NotDivisible(ValueError):
    """No exact integer quotient exists."""

    def __init__(self, message: str, index: int | None = None, value=None):
        super().__init__(message)
        self.index = index
        self.value = value


def degree(p: int) -> int:
    """deg Φ_p, the length of the reduced coefficient vector."""
    _check_radix(p)
    return _DEGREE[p]


def _check_radix(p: int) -> None:
    if p not in _DEGREE:
        raise ValueError(f"unsupported radix {p}; expected one of {SUPPORTED_RADICES}")


class CycInt:
    """An element of Z[ξ_p] in reduced power-basis form.  Immutable."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        _check_radix(p)
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != _DEGREE[p]:
            raise ValueError(
                f"radix {p} needs exactly {_DEGREE[p]} coefficients, got {len(coeffs)}"
            )
        self.p = p
        self.coeffs = coeffs

    # -- constructors -------------------------------------------------------

    @classmethod
    def _trusted(cls, p: int, coeffs: tuple) -> "CycInt":
        """From a tuple of d Python ints already known to be valid; no checks."""
        self = object.__new__(cls)
        self.p = p
        self.coeffs = coeffs
        return self

    @classmethod
    def zero(cls, p: int) -> "CycInt":
        _check_radix(p)
        return cls(p, (0,) * _DEGREE[p])

    @classmethod
    def one(cls, p: int) -> "CycInt":
        return cls.from_int(p, 1)

    @classmethod
    def from_int(cls, p: int, value: int) -> "CycInt":
        _check_radix(p)
        return cls(p, (int(value),) + (0,) * (_DEGREE[p] - 1))

    @classmethod
    def root(cls, p: int, k: int = 1) -> "CycInt":
        """ξ^k, reduced."""
        _check_radix(p)
        return cls(p, _root_coeffs(p)[k % p])

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycInt):
            if other.p != self.p:
                raise RadixMismatch(f"radix mismatch: {self.p} vs {other.p}")
            return other
        if isinstance(other, int):
            return CycInt.from_int(self.p, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycInt(self.p, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return CycInt(self.p, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        return CycInt(self.p, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = ((a * b, i + j) for i, a in enumerate(self.coeffs) for j, b in enumerate(other.coeffs))
        return _fold(self.p, terms)

    __rmul__ = __mul__

    def mul_root(self, k: int) -> "CycInt":
        """self · ξ^k: coefficient c of ξ^i becomes c·ξ^(i+k), d terms."""
        return _fold(self.p, ((c, i + k) for i, c in enumerate(self.coeffs)))

    def conj(self) -> "CycInt":
        """Complex conjugate: the automorphism ξ ↦ ξ^(p-1)."""
        return _fold(self.p, ((c, -i) for i, c in enumerate(self.coeffs)))

    def abs_squared(self) -> "CycInt":
        """self · conj(self); equals the rational integer |self|² when it is one."""
        return self * self.conj()

    def as_root_scalar(self) -> "RootScalar":
        """Decompose as ±ξ^k, preferring sign +1; NotAUnitRoot otherwise."""
        sign = k = 0
        if all(-1 <= c <= 1 for c in self.coeffs):
            sign, k = _unit_codes(self.p)[sum(c * 3**j for j, c in enumerate(self.coeffs))].tolist()
        if not sign:
            raise NotAUnitRoot(f"{self} is not of the form ±ξ^k (p={self.p})")
        return RootScalar(self.p, sign, k)

    def div_exact_int(self, d: int) -> "CycInt":
        """self / d when every coefficient is divisible by d."""
        if d == 0:
            raise ValueError("division by zero")
        out = []
        for c in self.coeffs:
            q, r = divmod(c, d)
            if r:
                raise NotDivisible(f"{self} is not divisible by {d}", value=self)
            out.append(q)
        return CycInt(self.p, tuple(out))

    # -- protocol -----------------------------------------------------------

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = CycInt.from_int(self.p, other)
        if not isinstance(other, CycInt):
            return NotImplemented
        return self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.p, self.coeffs))

    def __repr__(self) -> str:
        return f"CycInt({self.p}, {self.coeffs})"

    def __str__(self) -> str:
        parts: list[str] = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                term = str(c)
            elif i == 1:
                term = f"{c}x"
            else:
                term = f"{c}x^{i}"
            if parts and c > 0:
                parts.append("+" + term)
            else:
                parts.append(term)
        return "".join(parts) or "0"


class RootScalar:
    """±ξ^k as a compact (sign, exponent) pair; the scalar of one matrix entry.  Even p
    stores -ξ^k as ξ^(k + p/2), so == and hash agree with to_cyc()."""

    __slots__ = ("p", "sign", "exponent")

    def __init__(self, p: int, sign: int = 1, exponent: int = 0):
        _check_radix(p)
        if sign not in (1, -1):
            raise ValueError(f"sign must be ±1, got {sign}")
        if sign < 0 and p % 2 == 0:
            sign, exponent = 1, exponent + p // 2
        self.p = p
        self.sign = sign
        self.exponent = exponent % p

    def to_cyc(self) -> CycInt:
        r = CycInt.root(self.p, self.exponent)
        return r if self.sign == 1 else -r

    def apply(self, value: CycInt) -> CycInt:
        """self · value without building the intermediate CycInt."""
        out = value.mul_root(self.exponent)
        return out if self.sign == 1 else -out

    def __mul__(self, other: "RootScalar") -> "RootScalar":
        if not isinstance(other, RootScalar):
            return NotImplemented
        if other.p != self.p:
            raise RadixMismatch(f"radix mismatch: {self.p} vs {other.p}")
        return RootScalar(self.p, self.sign * other.sign, self.exponent + other.exponent)

    def conj(self) -> "RootScalar":
        return RootScalar(self.p, self.sign, -self.exponent)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RootScalar):
            return NotImplemented
        return (self.p, self.sign, self.exponent) == (other.p, other.sign, other.exponent)

    def __hash__(self) -> int:
        return hash((self.p, self.sign, self.exponent))

    def __repr__(self) -> str:
        return f"RootScalar({self.p}, {self.sign:+d}, {self.exponent})"


# -- cached per-radix tables -------------------------------------------------


@lru_cache(maxsize=None)
def _root_coeffs(p: int) -> tuple:
    """Rows ξ^0 … ξ^(p-1) in the power basis: ξ times the last row, its ξ^d term folded
    by _FOLD.  The one place that knows how Z[ξ_p] reduces."""
    rows = [(1,) + (0,) * (_DEGREE[p] - 1)]
    for _ in range(p - 1):
        *low, top = rows[-1]
        rows.append(tuple(c + top * f for c, f in zip((0, *low), _FOLD[p])))
    return tuple(rows)


def _fold(p: int, terms) -> CycInt:
    """Σ c·ξ^e over the (c, e) pairs of terms, each ξ^e read from the root rows."""
    roots, out = _root_coeffs(p), [0] * _DEGREE[p]
    for c, e in terms:
        if c:
            for i, r in enumerate(roots[e % p]):
                out[i] += c * r
    return CycInt._trusted(p, tuple(out))


# -- array form ----------------------------------------------------------------


@lru_cache(maxsize=None)
def root_table(p: int) -> np.ndarray:
    """Row k holds the power-basis coefficients of ξ^k."""
    return _frozen(np.array(_root_coeffs(p), dtype=np.int64))


def _unit_roots(array: np.ndarray, p: int, scale: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sign, k, ok): array[x] = scale·sign·ξ^k exactly where ok[x]; as in
    CycInt.as_root_scalar, +ξ^k wins where both signs fit (even p)."""
    unit = np.minimum(np.maximum(array // scale, -1), 1)
    found = _unit_codes(p)[(unit @ _TERNARY[: _DEGREE[p]]).astype(np.intp, copy=False)]
    ok = (found[..., 0] != 0) & ~_any_coefficient(unit * scale != array)
    return found[..., 0], found[..., 1], ok


def _any_coefficient(mask: np.ndarray) -> np.ndarray:
    """mask.any(axis=-1) over a short coefficient axis by d - 1 plane-wise |, not a per-entry reduce."""
    out = mask[..., 0]
    for j in range(1, mask.shape[-1]):
        out = out | mask[..., j]
    return out


@lru_cache(maxsize=None)
def _unit_codes(p: int) -> np.ndarray:
    """Row Σ_j b_j·3^j (balanced ternary; a negative code wraps to the top rows) holds the
    (sign, k) of the ±ξ^k with coefficients b_j, or (0, 0); every ±ξ^k has all b_j in {-1, 0, 1}."""
    codes = root_table(p) @ _TERNARY[: _DEGREE[p]]
    table = np.zeros((3 ** _DEGREE[p], 2), dtype=np.int64)
    for sign in (-1, 1):  # +ξ^k last, so it wins where -ξ^j = +ξ^k (even p)
        table[sign * codes] = np.column_stack((np.full(p, sign), np.arange(p)))
    return _frozen(table)


def _check_length(p: int, n: int, length: int, what: str) -> None:
    """ValueError 'expected <p^n> <what>' unless length = p^n; what may name {p}, {n} and
    {length}.  A negative n is refused, and a huge one without forming p^n."""
    if n < 0:
        raise ValueError("variable count must be >= 0")
    if n > length.bit_length() or p**n != length:  # p^n ≥ 2^n > length in the first case
        size = p**n if n <= 64 else f"{p}^{n}"
        raise ValueError(f"expected {size} " + what.format(p=p, n=n, length=length))


def _check_coefficients(array: np.ndarray, shape: tuple) -> None:
    if array.shape != shape:
        raise ValueError(f"expected a {shape} array, got {array.shape}")
    if array.dtype.kind not in "iuO":  # signed, unsigned or Python ints
        raise ValueError(f"expected integer coefficients, got dtype {array.dtype}")


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _rows_array(rows) -> np.ndarray:
    try:
        return _frozen(np.array(rows, dtype=np.int64))
    except OverflowError:
        return _frozen(np.array(rows, dtype=object))


def _cyc_list(p: int, array: np.ndarray) -> list[CycInt]:
    return [CycInt._trusted(p, tuple(row)) for row in array.tolist()]


class CycVector:
    """Length-p^n vector over Z[ξ_p]: CycInt entries, a (p^n, d) array, or both,
    each built from the other on first use.  == holds within one class, comparing arrays
    whatever their dtype, and with a list of the same CycInts; hash agrees with it."""

    __slots__ = ("p", "n", "_entries", "_array")

    def __init__(self, p: int, n: int, entries: Iterable[CycInt]):
        entries = tuple(entries)
        _check_length(p, n, len(entries), "entries for p={p}, n={n}")
        for e in entries:
            if not isinstance(e, CycInt) or e.p != p:
                error = RadixMismatch if isinstance(e, CycInt) else ValueError
                raise error(f"entry {e!r} is not in Z[ξ_{p}]")
        self.p = p
        self.n = n
        self._entries = entries
        self._array = None

    @classmethod
    def from_array(cls, p: int, n: int, array: np.ndarray):
        """Wrap a (p^n, d) integer coefficient array, made read-only; entries are built on demand."""
        _check_length(p, n, len(array) if array.ndim else 0, "rows for p={p}, n={n}, got {length}")
        _check_coefficients(array, (p**n, degree(p)))
        self = object.__new__(cls)
        self.p = p
        self.n = n
        self._entries = None
        self._array = _frozen(array)
        return self

    @property
    def entries(self) -> tuple[CycInt, ...]:
        if self._entries is None:
            self._entries = self._make_entries()
        return self._entries

    @property
    def array(self) -> np.ndarray:
        """Read-only (p^n, d) coefficients: int64 when they fit, else Python ints."""
        if self._array is None:
            self._array = self._make_array()
        return self._array

    def _make_entries(self) -> tuple[CycInt, ...]:
        return tuple(_cyc_list(self.p, self._array))

    def _make_array(self) -> np.ndarray:
        return _rows_array([e.coeffs for e in self._entries])

    def __len__(self) -> int:
        return self.p**self.n

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i: int) -> CycInt:
        return self.entries[i]

    def __eq__(self, other) -> bool:
        if isinstance(other, list):
            return list(self.entries) == other
        if not isinstance(other, type(self)):
            return NotImplemented
        return (self.p, self.n) == (other.p, other.n) and np.array_equal(self.array, other.array)

    def __hash__(self) -> int:
        return hash((self.p, self.n, self.entries))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.p}, {self.n}, [{', '.join(map(str, self.entries))}])"


# -- text form ----------------------------------------------------------------

_TOKEN = re.compile(r"[+-]?[0-9]*x(?:\^[0-9]+)?|[+-]?[0-9]+")
_TERM = re.compile(r"([+-]?)([0-9]*)(x)?(?:\^([0-9]+))?$")


def parse_cyc(p: int, text: str) -> CycInt:
    """Inverse of str(CycInt): accepts forms like '3', '-1-1x', '1+2x', '2x^3'."""
    _check_radix(p)
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty cyclotomic literal")
    tokens = _TOKEN.findall(s)
    if "".join(tokens) != s:
        raise ValueError(f"cannot parse cyclotomic literal {text!r}")
    d = _DEGREE[p]
    coeffs = [0] * d
    for tok in tokens:
        m = _TERM.match(tok)
        if m is None or (not m.group(2) and not m.group(3)):
            raise ValueError(f"bad term {tok!r} in {text!r}")
        sign = -1 if m.group(1) == "-" else 1
        mag = int(m.group(2)) if m.group(2) else 1
        if m.group(3):
            e = int(m.group(4)) if m.group(4) else 1
        else:
            e = 0
        if e >= d:
            raise ValueError(f"exponent {e} outside the reduced basis (degree {d})")
        coeffs[e] += sign * mag
    return CycInt(p, tuple(coeffs))


def xi(p: int, k: int = 1) -> CycInt:
    """Shorthand for CycInt.root(p, k)."""
    return CycInt.root(p, k)
