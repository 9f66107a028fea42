"""Bentness predicates over exact circular spectra.

A p-valued f is bent iff every coefficient of the circular spectrum of its
sign ξ^f has |S(w)|² = p^n ("flat").  Flatness is necessary but NOT
sufficient for a candidate spectrum vector: recovering a function also
needs the inverse transform to divide exactly and the result to be a sign
vector, and spectrum_is_bent() reports the first stage that fails.
verdict_arrays() decides a whole (B, p^n, d) stack of candidate spectra
with one pass of each stage on the engine's batch axis and returns the verdicts
as arrays; spectra_verdicts() builds their row objects, and spectrum_is_bent()
is its one-row case.

Strict bentness additionally asks S(w) = p^(n/2)·ξ^t(w) for every w; the
exponent function t is the dual.  is_bent, strict_exponent_rows and the
appendix replay read t from one array decode of p^(n/2)·(±ξ^t), _strict_decode.
is_bent decides in the order: size guard, S(0) = Σ_k N_k·ξ^k from the counts N
of f's values (most non-bent f stop here, with the witness (0, S(0)) the full
path gives), the transform, the strict decode, then flat_mask if it must.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .cyclotomic import CycInt, _any_coefficient, _check_coefficients, _unit_roots, degree, root_table
from .mvfunction import MvFunction, add_constant, functions_of, sign_of
from .vctransform import Spectrum, _guard, flat_mask, forward_fast, sign_transform, transform


class NotStrict(ValueError):
    """Spectrum is flat-magnitude but not p^(n/2) times pure powers of ξ.

    witness is (index, value) of the first offending entry, or None when n is odd.
    """

    def __init__(self, message: str, witness: tuple[int, CycInt] | None = None):
        super().__init__(message)
        self.witness = witness


class NotAFunction(ValueError):
    """Negated sign vector is not the sign of any p-valued function."""

    def __init__(self, message: str, witness: CycInt):
        super().__init__(message)
        self.witness = witness


class NotBentSpectrum(ValueError):
    """Candidate spectrum recovers no function; stage pinpoints the failure."""

    STAGES = ("not-flat", "not-divisible", "not-a-sign")

    def __init__(self, stage: str, index: int, value: CycInt):
        super().__init__(f"{stage} at index {index}: {value}")
        self.stage = stage
        self.witness = (index, value)


@dataclass(frozen=True)
class BentVerdict:
    is_flat: bool
    is_bent: bool
    is_strict_bent: bool
    failure_witness: tuple[int, CycInt] | None = None

    def to_json_dict(self) -> dict:
        witness = None
        if self.failure_witness is not None:
            witness = {"index": self.failure_witness[0], "value": str(self.failure_witness[1])}
        return {
            "flat": self.is_flat,
            "bent": self.is_bent,
            "strict": self.is_strict_bent,
            "witness": witness,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


def circular_spectrum(f: MvFunction) -> Spectrum:
    """The spectrum of ξ^f; value-identical to forward(sign_of(f))."""
    return forward_fast(sign_of(f))


def is_bent(f: MvFunction) -> BentVerdict:
    """Flat/bent/strict classification with the first flatness witness, in the order above; an
    entry p^(n/2)·(±ξ^k) is flat, so flat_mask runs only when some entry is not one."""
    _guard(f.p, f.n)
    p, n, values = f.p, f.n, np.frombuffer(bytes(f.values), np.uint8)  # each below p
    s0 = CycInt(p, np.bincount(values, minlength=p) @ root_table(p))
    if s0.abs_squared() != p**n:
        return BentVerdict(False, False, False, failure_witness=(0, s0))
    s = sign_transform(values, p, n)
    signs = _strict_decode(s, p, n)[1]
    bad = () if signs.all() else np.flatnonzero(~flat_mask(s, p, n))
    if len(bad):
        return BentVerdict(False, False, False, failure_witness=(int(bad[0]), CycInt(p, s[bad[0]])))
    return BentVerdict(True, True, bool((signs == 1).all()))


def spectrum_is_bent(s: Spectrum) -> MvFunction:
    """Recover g with spectrum s, or raise NotBentSpectrum at the first bad stage."""
    stage, index, value, exponents = verdict_arrays(s.array[None], s.p, s.n)
    if stage[0]:
        raise NotBentSpectrum(NotBentSpectrum.STAGES[stage[0] - 1], int(index[0]), CycInt(s.p, value[0]))
    return functions_of(s.p, s.n, exponents)[0]


def spectra_verdicts(stack: np.ndarray, p: int, n: int) -> list[MvFunction | NotBentSpectrum]:
    """Per row of a (B, p^n, d) coefficient stack: the function it recovers, or the NotBentSpectrum
    that spectrum_is_bent would raise for it, returned; verdict_arrays with the row objects built."""
    stage, index, value, exponents = verdict_arrays(stack, p, n)
    functions = iter(functions_of(p, n, exponents[stage == 0]))
    return [NotBentSpectrum(NotBentSpectrum.STAGES[s - 1], w, CycInt(p, v)) if s else next(functions)
            for s, w, v in zip(stage.tolist(), index.tolist(), value.tolist())]


def verdict_arrays(stack: np.ndarray, p: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """spectra_verdicts as arrays: stage (B,), 0 for a bent row and i for one failing
    NotBentSpectrum.STAGES[i - 1]; that row's first bad index (B,) and entry value (B, d),
    and a bent row's function values exponents (B, p^n); zero where they do not apply.

    Each stage runs once on the rows still standing: the flatness mask, the
    size guard (when any row is flat), one inverse transform, the exact
    division by p^n and the +ξ^k decode.  A failing row keeps its first bad
    index and that entry's value at the stage, as spectrum_is_bent reports them.
    """
    _check_coefficients(stack, (len(stack), p**n, degree(p)))
    stage, index = np.zeros((2, len(stack)), dtype=np.int64)
    value = np.zeros((len(stack), degree(p)), dtype=object if stack.dtype == object else np.int64)
    exponents = np.zeros((len(stack), p**n), dtype=np.int64)

    def drop(rows: np.ndarray, bad: np.ndarray, values: np.ndarray, code: int):
        """Record rows with a True entry in bad as failing stage code; the rows that pass and their mask."""
        if not bad.any():
            return rows, slice(None)
        failed = bad.any(axis=-1)
        first = bad.argmax(axis=-1)[failed]
        stage[rows[failed]], index[rows[failed]] = code, first
        value[rows[failed]] = values[failed, first]
        return rows[~failed], ~failed

    rows, keep = drop(np.arange(len(stack)), ~flat_mask(stack, p, n), stack, 1)
    if not rows.size:
        return stage, index, value, exponents
    _guard(p, n)
    images = transform(stack[keep], p, n, conjugate=False)
    if images.dtype == object:
        value = value.astype(object)
    quotient = images // p**n
    rows, keep = drop(rows, _any_coefficient(quotient * p**n != images), images, 2)
    sign, found, ok = _unit_roots(quotient[keep], p, 1)
    rows, keep = drop(rows, ~ok | (sign != 1), quotient[keep], 3)
    exponents[rows] = found[keep]
    return stage, index, value, exponents


def strict_exponents(s: Spectrum) -> tuple[int, ...]:
    """t with S(w) = p^(n/2)·ξ^t(w) for all w; NotStrict otherwise."""
    return tuple(strict_exponent_rows(s.array[None], s.p, s.n)[0].tolist())


def strict_exponent_rows(stack: np.ndarray, p: int, n: int) -> np.ndarray:
    """strict_exponents of every row of a (B, p^n, d) stack, as a (B, p^n) array;
    NotStrict names the first bad entry of the first row that has one."""
    if n % 2:
        raise NotStrict(f"odd variable count {n}")
    exponents, signs = _strict_decode(stack, p, n)
    bad = signs != 1
    if bad.any():
        b, w = divmod(int(bad.argmax()), p**n)
        e = CycInt(p, stack[b, w])
        scale = p ** (n // 2)
        if signs[b, w] == -1:
            raise NotStrict(f"entry {w} = {e} is {scale}·(-ξ^{exponents[b, w]})", (w, e))
        raise NotStrict(f"entry {w} = {e} is not {scale}·ξ^k", (w, e))
    return exponents


def _strict_decode(stack: np.ndarray, p: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(t, sign) per entry of a (..., p^n, d) array, raising nothing: entry = p^(n/2)·sign·ξ^t
    where sign is ±1 (strict where +1); sign is 0 for any other entry, and for all when n is odd."""
    signs, exponents, ok = _unit_roots(stack, p, p ** (n // 2))
    return exponents, np.where(ok & (n % 2 == 0), signs, 0)


def dual(f: MvFunction) -> MvFunction:
    """The exponent function of a strict bent spectrum; itself bent."""
    return functions_of(f.p, f.n, strict_exponent_rows(circular_spectrum(f).array[None], f.p, f.n))[0]


def negate_classify(f: MvFunction) -> MvFunction:
    """Classify -ξ^f: a p/2 shift of f when p is even, NotAFunction when odd."""
    neg_first = -CycInt.root(f.p, f.values[0])
    if f.p % 2:
        raise NotAFunction(
            f"-ξ^{f.values[0]} = ξ^({f.values[0]}+{f.p}/2) has no exponent in Z_{f.p}",
            witness=neg_first,
        )
    g = add_constant(f, f.p // 2)
    expected = [-e for e in sign_of(f).entries]
    if list(sign_of(g).entries) != expected:
        raise AssertionError("negation invariant violated")  # unreachable
    return g
