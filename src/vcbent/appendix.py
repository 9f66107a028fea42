"""Loader and verifier for the shipped nine-class fixture.

The fixture (data/appendix_classes.tsv) tabulates, per class, the 18
primitive functions with a producing permutation α⊗β and the exponents of
the permuted spectrum:

    class<TAB>row<TAB>g_trits<TAB>alpha,beta<TAB>spectrum_exponent_trits

Verification recomputes everything: the spectrum exponents of g, class
membership against the generated 18, the action of the labelled α⊗β on the
seed spectrum, and the function-domain route W·F_seed = sign(g) with
W = 3^(-2)·C·(α⊗β)·C*.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable

from .bentlab import NotStrict, circular_spectrum, strict_exponents
from .generator import generate_class, reference_seed
from .genperm import apply, conjugate_by_c, gamma, kron
from .mvfunction import MvFunction, sign_of

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
    """Recompute every fixture row through both the spectral and W·F routes."""
    if rows is None:
        rows = load_appendix_rows()
    class_cache: dict[int, tuple] = {}
    w_cache: dict[tuple[str, str], object] = {}  # W of each distinct label α⊗β
    checks = []
    for row in rows:
        cached = class_cache.get(row.class_id)
        if cached is None:
            seed = reference_seed(row.class_id)
            record = generate_class(seed, row.class_id)
            cached = (
                seed,
                circular_spectrum(seed),
                tuple(sign_of(seed).entries),
                {r.g for r in record.rows},
            )
            class_cache[row.class_id] = cached
        seed, s_seed, f_seed, members = cached

        try:
            spectrum_ok = strict_exponents(circular_spectrum(row.g)) == row.exponents
        except NotStrict:
            spectrum_ok = False
        membership_ok = row.g in members
        perm = kron(gamma(row.alpha), gamma(row.beta))
        try:
            permutation_ok = strict_exponents(apply(perm, s_seed)) == row.exponents
        except NotStrict:
            permutation_ok = False
        w = w_cache.get((row.alpha, row.beta))
        if w is None:
            w = w_cache[row.alpha, row.beta] = conjugate_by_c(perm)
        sign_ok = list(apply(w, f_seed)) == list(sign_of(row.g).entries)
        checks.append(RowCheck(row, spectrum_ok, membership_ok, permutation_ok, sign_ok))
    return checks
