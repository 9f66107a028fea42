"""Loader and verifier for the shipped nine-class fixture.

The fixture (data/appendix_classes.tsv) tabulates, per class, the 18
primitive functions with a producing permutation α⊗β and the exponents of
the permuted spectrum:

    class<TAB>row<TAB>g_trits<TAB>alpha,beta<TAB>spectrum_exponent_trits

Verification recomputes everything, on one stack of rows per class: the
spectrum exponents of g, class membership against the generated 18, the
action of the labelled α⊗β on the seed spectrum, and the function-domain
route W·F_seed = sign(g) with W = 3^(-2)·C·(α⊗β)·C*.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Iterable

import numpy as np

from .bentlab import _strict_decode, circular_spectrum
from .generator import generate_class, reference_seed
from .genperm import GenPerm, apply_stack, conjugate_by_c, gamma, kron
from .mvfunction import MvFunction, sign_of
from .vctransform import transform

FIXTURE_RESOURCE = "appendix_classes.tsv"


@dataclass(frozen=True)
class AppendixRow:
    class_id: int
    row: int
    g: MvFunction
    alpha: str
    beta: str
    exponents: tuple[int, ...]


@dataclass
class RowCheck:
    row: AppendixRow
    spectrum_ok: bool
    membership_ok: bool
    permutation_ok: bool
    sign_ok: bool

    @property
    def passed(self) -> bool:
        return self.spectrum_ok and self.membership_ok and self.permutation_ok and self.sign_ok

    def failures(self) -> list[str]:
        out = []
        if not self.spectrum_ok:
            out.append("spectrum")
        if not self.membership_ok:
            out.append("membership")
        if not self.permutation_ok:
            out.append("permutation")
        if not self.sign_ok:
            out.append("sign")
        return out


def fixture_text() -> str:
    return resources.files("vcbent").joinpath("data", FIXTURE_RESOURCE).read_text()


def parse_fixture_lines(lines: Iterable[str]) -> list[AppendixRow]:
    rows = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise ValueError(f"line {lineno}: expected 5 tab-separated fields, got {len(parts)}")
        class_id, row = int(parts[0]), int(parts[1])
        g = MvFunction.from_digits(3, 2, parts[2])
        labels = parts[3].split(",")
        if len(labels) != 2:
            raise ValueError(f"line {lineno}: expected 'alpha,beta', got {parts[3]!r}")
        if len(parts[4]) != 9:
            raise ValueError(f"line {lineno}: expected 9 exponent trits, got {parts[4]!r}")
        exponents = tuple(int(ch) for ch in parts[4])
        rows.append(AppendixRow(class_id, row, g, labels[0], labels[1], exponents))
    return rows


def load_appendix_rows(path: str | Path | None = None) -> list[AppendixRow]:
    text = Path(path).read_text() if path is not None else fixture_text()
    return parse_fixture_lines(text.splitlines())


def verify_appendix(rows: list[AppendixRow] | None = None) -> list[RowCheck]:
    """Recompute every fixture row through both the spectral and W·F routes.

    Per class: one transform of the rows' signs, one apply_stack of their
    α⊗β on the seed spectrum and one of their W on the seed's sign, and one
    strict decode of both spectrum stacks.  Checks come back in row order;
    the first unknown label, else the first class id outside 1..9, raises ValueError."""
    if rows is None:
        rows = load_appendix_rows()
    labels = [_label_perms(row.alpha, row.beta) for row in rows]
    checks: list = [None] * len(rows)
    for class_id in dict.fromkeys(row.class_id for row in rows):
        indices = [i for i, row in enumerate(rows) if row.class_id == class_id]
        seed = reference_seed(class_id)
        members = _class_members(class_id)
        signs = np.stack([sign_of(rows[i].g).array for i in indices])
        permuted = apply_stack([labels[i][0] for i in indices], circular_spectrum(seed))
        t, strict = _strict_decode(np.stack([transform(signs, 3, 2, conjugate=True), permuted]), 3, 2)
        exponents = np.array([rows[i].exponents for i in indices])
        spectrum_ok, permutation_ok = ((strict == 1) & (t == exponents)).all(axis=-1).tolist()
        sign_ok = (apply_stack([labels[i][1] for i in indices], sign_of(seed)) == signs).all(axis=(1, 2))
        for i, spectrum, permutation, sign in zip(indices, spectrum_ok, permutation_ok, sign_ok.tolist()):
            checks[i] = RowCheck(rows[i], spectrum, rows[i].g in members, permutation, sign)
    return checks


@lru_cache(maxsize=9)
def _class_members(class_id: int) -> frozenset[MvFunction]:
    """The 18 functions of class 1..9, generated once; look up only ids reference_seed accepts."""
    return frozenset(r.g for r in generate_class(reference_seed(class_id), class_id).rows)


@lru_cache(maxsize=None)
def _label_perms(alpha: str, beta: str) -> tuple[GenPerm, GenPerm]:
    """α⊗β and W = 3^(-2)·C·(α⊗β)·C*, a GenPerm for labels in Γ."""
    perm = kron(gamma(alpha), gamma(beta))
    return perm, conjugate_by_c(perm)
