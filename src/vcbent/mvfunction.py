"""p-valued functions as value vectors, their unit-circle sign vectors, and
the small structural operators on them (constant addition, tensor sum,
column vectorization, GF(3) polynomial evaluation).

A sign vector ξ^f holds its exponent vector f, so sign_of() is O(1); its
coefficient array and CycInt entries are built on first use.  Every other
way in goes through one array decode, NotASign at the first entry not +ξ^k.

Index convention, fixed throughout the package: a point
(x_1, ..., x_n) ∈ Z_p^n is flattened as x = x_1·p^(n-1) + ... + x_n,
i.e. x_1 is the MOST significant base-p digit.  The two-place ternary
product function x_1·x_2 therefore has value vector [000 012 021].
"""

from __future__ import annotations

import operator
import re
import sys
from typing import Iterable, Sequence

import numpy as np

from .cyclotomic import (
    CycInt, CycVector, RadixMismatch, _check_length, _check_radix, _frozen, _rows_array, _unit_roots, root_table,
)


def digits_of(x: int, p: int, n: int) -> tuple[int, ...]:
    """Base-p digits of x, most significant first."""
    out = [0] * n
    for i in range(n - 1, -1, -1):
        x, out[i] = divmod(x, p)
    return tuple(out)


def index_of(digits: Sequence[int], p: int) -> int:
    x = 0
    for dgt in digits:
        x = x * p + dgt
    return x


def scalar_product(w: int, x: int, p: int, n: int) -> int:
    """Digitwise scalar product ⟨w·x⟩ mod p."""
    acc = 0
    for a, b in zip(digits_of(w, p, n), digits_of(x, p, n)):
        acc += a * b
    return acc % p


class NotASign(ValueError):
    """Vector is not the sign of any p-valued function."""

    def __init__(self, index: int, value):
        super().__init__(f"entry {index} = {value} is not ξ^k with sign +1")
        self.index = index
        self.value = value


class MvFunction:
    """A p-valued function of n variables as a length-p^n value vector."""

    __slots__ = ("p", "n", "values")

    def __init__(self, p: int, n: int, values: Iterable[int]):
        _check_radix(p)
        values = _integers(values)
        _check_length(p, n, len(values), _VALUE_COUNT)
        for v in values:
            if not 0 <= v < p:
                raise ValueError(f"value {v} outside Z_{p}")
        self.p = p
        self.n = n
        self.values = values

    @classmethod
    def _trusted(cls, p: int, n: int, values: tuple) -> "MvFunction":
        """From a tuple of p^n Python ints in 0..p-1 already checked; no checks."""
        self = object.__new__(cls)
        self.p = p
        self.n = n
        self.values = values
        return self

    @classmethod
    def from_digits(cls, p: int, n: int, text: str) -> "MvFunction":
        return cls(p, n, (int(ch) for ch in text.strip()))

    @classmethod
    def constant(cls, p: int, value: int, n: int = 0) -> "MvFunction":
        """f ≡ value; a negative n, or a p^n no sequence can hold, is refused without forming p^n."""
        _check_radix(p)
        if n < 0:
            raise ValueError("variable count must be >= 0")
        if n >= sys.maxsize.bit_length() or p**n > sys.maxsize:  # p^n ≥ 2^n > maxsize in the first case
            raise ValueError(f"{p}^{n} values exceed the largest sequence length")
        return cls(p, n, (value,) * p**n)

    def digit_string(self) -> str:
        return "".join(str(v) for v in self.values)

    def to_line(self) -> str:
        """Function file line format: 'p n d0d1…'."""
        return f"{self.p} {self.n} {self.digit_string()}"

    @classmethod
    def from_line(cls, line: str) -> "MvFunction":
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"expected 'p n digits', got {line!r}")
        return cls.from_digits(int(parts[0]), int(parts[1]), parts[2])

    def __call__(self, x: int) -> int:
        return self.values[x]

    def __len__(self) -> int:
        return len(self.values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MvFunction):
            return NotImplemented
        return (self.p, self.n, self.values) == (other.p, other.n, other.values)

    def __lt__(self, other: "MvFunction") -> bool:
        return (self.p, self.n, self.values) < (other.p, other.n, other.values)

    def __hash__(self) -> int:
        return hash((self.p, self.n, self.values))

    def __repr__(self) -> str:
        return f"MvFunction({self.p}, {self.n}, {self.digit_string()!r})"


_VALUE_COUNT = "values for p={p}, n={n}, got {length}"


def _integers(values: Iterable) -> tuple[int, ...]:
    """The values as Python ints by operator.index; ValueError names the first that is not an integer."""
    values = tuple(values)
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        for v in values:
            try:
                operator.index(v)
            except TypeError:
                raise ValueError(f"value {v!r} is not an integer") from None
        raise


def functions_of(p: int, n: int, rows: np.ndarray) -> list[MvFunction]:
    """MvFunction(p, n, row) for each row of a (B, p^n) integer array, checked once.

    Refuses what the per-row constructor refuses, with its message (the first
    bad value in row-major order), and any array whose dtype is not an integer type.
    """
    _check_radix(p)
    if rows.dtype.kind not in "iu":
        raise ValueError(f"expected integer values, got dtype {rows.dtype}")
    if rows.ndim != 2:
        raise ValueError(f"expected a (B, p^n) array of values, got shape {rows.shape}")
    _check_length(p, n, rows.shape[1], _VALUE_COUNT)
    bad = (rows < 0) | (rows >= p)
    if bad.any():
        raise ValueError(f"value {int(rows.flat[bad.argmax()])} outside Z_{p}")
    trusted = MvFunction._trusted
    return [trusted(p, n, values) for values in map(tuple, rows.tolist())]


class SignVector(CycVector):
    """Length-p^n vector of +ξ^k values: the sign representation ξ^f."""

    __slots__ = ("_exponents",)

    def __init__(self, p: int, n: int, entries: Iterable[CycInt]):
        entries = tuple(entries)
        _check_length(p, n, len(entries), "entries for p={p}, n={n}")
        foreign = next((i for i, e in enumerate(entries) if not isinstance(e, CycInt) or e.p != p), None)
        # the entries before a foreign one are decoded first, so the lower index is reported
        if foreign != 0:
            array = _rows_array([e.coeffs for e in entries[:foreign]])
            exponents = tuple(_sign_exponents(p, array).tolist())
        if foreign is not None:
            raise RadixMismatch(f"entry {foreign} is not in Z[ξ_{p}]")
        super().__init__(p, n, entries)
        self._array, self._exponents = array, exponents

    @classmethod
    def from_array(cls, p: int, n: int, array: np.ndarray) -> "SignVector":
        """Decode a (p^n, d) integer coefficient array, made read-only; NotASign at the first non-sign."""
        self = super().from_array(p, n, array)
        self._exponents = tuple(_sign_exponents(p, array).tolist())
        return self

    def exponents(self) -> tuple[int, ...]:
        return self._exponents

    def _make_entries(self) -> tuple[CycInt, ...]:
        roots = [CycInt.root(self.p, k) for k in range(self.p)]
        return tuple(roots[k] for k in self._exponents)

    def _make_array(self) -> np.ndarray:
        return _frozen(root_table(self.p).take(np.frombuffer(bytes(self._exponents), np.uint8), axis=0))  # k < p


def _sign_exponents(p: int, array: np.ndarray) -> np.ndarray:
    """k with array[x] = +ξ^k[x], the one sign decode; NotASign names the first other entry."""
    sign, exponents, ok = _unit_roots(array, p, 1)
    ok &= sign == 1
    if not ok.all():
        i = int(ok.argmin())
        raise NotASign(i, CycInt(p, array[i]))
    return exponents


def sign_of(f: MvFunction) -> SignVector:
    """F = [ξ^f(0), ξ^f(1), ...], held as the exponent vector f.values; builds no CycInt."""
    sign = object.__new__(SignVector)
    sign.p, sign.n, sign._exponents = f.p, f.n, f.values
    sign._entries = sign._array = None
    return sign


def _length_to_n(p: int, length: int) -> int:
    n, total = 0, 1
    while total < length:
        total *= p
        n += 1
    if total != length:
        raise ValueError(f"length {length} is not a power of {p}")
    return n


def try_from_sign(entries) -> MvFunction:
    """Recover f with ξ^f = entries; NotASign if any entry is not +ξ^k.  Decodes a CycVector's array."""
    if not isinstance(entries, CycVector):
        seq = tuple(entries)
        if not seq:
            raise ValueError("empty vector")
        p = seq[0].p
        entries = SignVector(p, _length_to_n(p, len(seq)), seq)
    if isinstance(entries, SignVector):
        return MvFunction(entries.p, entries.n, entries.exponents())
    return functions_of(entries.p, entries.n, _sign_exponents(entries.p, entries.array)[None])[0]


def add_constant(f: MvFunction, c: int) -> MvFunction:
    """Pointwise f(x) + c mod p."""
    c %= f.p
    return MvFunction(f.p, f.n, ((v + c) % f.p for v in f.values))


def tensor_sum(f1: MvFunction, f2: MvFunction) -> MvFunction:
    """(f1 ⊞ f2)(x, y) = f1(x) + f2(y) mod p, with x the high digits."""
    if f1.p != f2.p:
        raise RadixMismatch(f"radix mismatch: {f1.p} vs {f2.p}")
    p = f1.p
    values = [(a + b) % p for a in f1.values for b in f2.values]
    return MvFunction(p, f1.n + f2.n, values)


# -- GF(3) polynomial expressions ----------------------------------------------

_FACTOR = re.compile(r"^(?:([0-9]+)|x([0-9]+)(?:\^([0-9]+))?)$")


class GF3Polynomial:
    """Sum of monomials c·x_i^e over Z_3, e.g. 'x1*x2 + 2*x2^2 + 1'."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        cleaned = []
        for coeff, powers in terms:
            if not 0 <= coeff <= 2:
                raise ValueError(f"coefficient {coeff} outside Z_3")
            powers = tuple(sorted(powers))
            for var, e in powers:
                if var < 1:
                    raise ValueError(f"bad variable index {var}")
                if not 0 <= e <= 2:
                    raise ValueError(f"exponent {e} must be < 3")
            cleaned.append((coeff, powers))
        self.terms = tuple(cleaned)

    @classmethod
    def parse(cls, text: str) -> "GF3Polynomial":
        terms = []
        for chunk in text.replace(" ", "").split("+"):
            if not chunk:
                raise ValueError(f"empty term in {text!r}")
            coeff = 1
            powers: dict[int, int] = {}
            for factor in chunk.split("*"):
                m = _FACTOR.match(factor)
                if m is None:
                    raise ValueError(f"bad factor {factor!r} in {text!r}")
                if m.group(1) is not None:
                    literal = int(m.group(1))
                    if literal >= 3:
                        raise ValueError(f"coefficient {literal} outside Z_3 in {factor!r}")
                    coeff = (coeff * literal) % 3
                else:
                    var = int(m.group(2))
                    e = int(m.group(3)) if m.group(3) else 1
                    if e >= 3:
                        raise ValueError(f"exponent {e} must be < 3 in {factor!r}")
                    powers[var] = powers.get(var, 0) + e
            terms.append((coeff, tuple(powers.items())))
        return cls(terms)

    @property
    def max_var(self) -> int:
        return max((var for _, powers in self.terms for var, _ in powers), default=0)

    def evaluate(self, point: Sequence[int]) -> int:
        total = 0
        for coeff, powers in self.terms:
            term = coeff
            for var, e in powers:
                term = (term * pow(point[var - 1], e, 3)) % 3
            total = (total + term) % 3
        return total

    def __str__(self) -> str:
        chunks = []
        for coeff, powers in self.terms:
            factors = [str(coeff)] if (coeff != 1 or not powers) else []
            for var, e in powers:
                factors.append(f"x{var}" if e == 1 else f"x{var}^{e}")
            chunks.append("*".join(factors))
        return " + ".join(chunks) if chunks else "0"


def eval_polynomial(poly: GF3Polynomial, n: int) -> MvFunction:
    """Value vector of the polynomial over all 3^n points."""
    if poly.max_var > n:
        raise ValueError(f"polynomial references x{poly.max_var} but n={n}")
    values = [poly.evaluate(digits_of(x, 3, n)) for x in range(3**n)]
    return MvFunction(3, n, values)


# -- vec / un-vec --------------------------------------------------------------


def vec_columns(matrix: Sequence[Sequence]) -> list:
    """Stack the columns of a square matrix, first column first."""
    side = len(matrix)
    for row in matrix:
        if len(row) != side:
            raise ValueError("matrix is not square")
    return [matrix[i][j] for j in range(side) for i in range(side)]


def un_vec(vector: Sequence, side: int) -> list[list]:
    """Inverse of vec_columns."""
    if len(vector) != side * side:
        raise ValueError(f"length {len(vector)} is not {side}×{side}")
    return [[vector[j * side + i] for j in range(side)] for i in range(side)]
