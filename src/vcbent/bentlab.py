"""Bentness predicates over exact circular spectra.

A p-valued f is bent iff every coefficient of the circular spectrum of its
sign ξ^f has |S(w)|² = p^n ("flat").  Flatness is necessary but NOT
sufficient for a candidate spectrum vector: recovering a function also
needs the inverse transform to divide exactly and the result to be a sign
vector, and spectrum_is_bent() reports the first stage that fails.

Strict bentness additionally asks S(w) = p^(n/2)·ξ^t(w) for every w; the
exponent function t is the dual.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .cyclotomic import CycInt, NotAUnitRoot, NotDivisible, _root_exponents
from .mvfunction import MvFunction, NotASign, SignVector, add_constant, sign_of, try_from_sign
from .vctransform import Spectrum, _guard, flat_mask, forward_fast, inverse_array


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


def _first(mask: np.ndarray) -> int | None:
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


def circular_spectrum(f: MvFunction) -> Spectrum:
    """The spectrum of ξ^f; value-identical to forward(sign_of(f))."""
    return forward_fast(sign_of(f))


def is_bent(f: MvFunction) -> BentVerdict:
    """Flat/bent/strict classification with the first flatness witness."""
    s = circular_spectrum(f)
    w = _first(~flat_mask(s.array, f.p, f.n))
    if w is not None:
        return BentVerdict(False, False, False, failure_witness=(w, CycInt(f.p, s.array[w])))
    try:
        strict_exponents(s)
        strict = True
    except NotStrict:
        strict = False
    return BentVerdict(True, True, strict)


def spectrum_is_bent(s: Spectrum) -> MvFunction:
    """Recover g with spectrum s, or raise NotBentSpectrum at the first bad stage."""
    p, n, array = s.p, s.n, s.array
    w = _first(~flat_mask(array, p, n))
    if w is not None:
        raise NotBentSpectrum("not-flat", w, CycInt(p, array[w]))
    _guard(p, n, None)
    try:
        signs = inverse_array(array, p, n)
    except NotDivisible as exc:
        raise NotBentSpectrum("not-divisible", exc.index, exc.value) from exc
    try:
        return try_from_sign(SignVector.from_array(p, n, signs))
    except NotASign as exc:
        raise NotBentSpectrum("not-a-sign", exc.index, exc.value) from exc


def strict_exponents(s: Spectrum) -> tuple[int, ...]:
    """t with S(w) = p^(n/2)·ξ^t(w) for all w; NotStrict otherwise."""
    if s.n % 2:
        raise NotStrict(f"odd variable count {s.n}")
    scale = s.p ** (s.n // 2)
    array = s.array
    exponents, ok = _root_exponents(array // scale, s.p)
    w = _first(~ok | (array % scale != 0).any(axis=-1))
    if w is not None:
        e = CycInt(s.p, array[w])
        try:
            rs = e.div_exact_int(scale).as_root_scalar()
        except (NotDivisible, NotAUnitRoot) as exc:
            raise NotStrict(f"entry {w} = {e} is not {scale}·ξ^k", (w, e)) from exc
        raise NotStrict(f"entry {w} = {e} is {scale}·(-ξ^{rs.exponent})", (w, e))
    return tuple(exponents.tolist())


def dual(f: MvFunction) -> MvFunction:
    """The exponent function of a strict bent spectrum; itself bent."""
    t = strict_exponents(circular_spectrum(f))
    return MvFunction(f.p, f.n, t)


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
