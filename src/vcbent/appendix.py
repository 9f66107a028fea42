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
from itertools import product
from pathlib import Path
from typing import Iterable

import numpy as np

from .bentlab import _strict_decode, circular_spectrum
from .cyclotomic import root_table
from .generator import generate_class, reference_seed
from .genperm import GAMMA_NAMES, PermStack, apply_stack, conjugate_by_c, gamma, kron
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
    """The rows of the fixture at path, or a fresh list of the packaged rows, parsed once per process."""
    if path is None:
        return list(_packaged_rows())
    return parse_fixture_lines(Path(path).read_text().splitlines())


@lru_cache(maxsize=None)
def _packaged_rows() -> tuple[AppendixRow, ...]:
    return tuple(parse_fixture_lines(fixture_text().splitlines()))


def verify_appendix(rows: list[AppendixRow] | None = None) -> list[RowCheck]:
    """Recompute every fixture row through both the spectral and W·F routes.

    Per class: one transform of the rows' signs, one apply_stack of the 36
    cached α⊗β on the seed spectrum and one of their W on the seed's sign,
    read at the rows' labels, and one strict decode of both spectrum stacks.
    Checks come back in row order; the first unknown label, else the first
    class id outside 1..9, raises ValueError."""
    if rows is None:
        rows = load_appendix_rows()
    position, perms, ws = _label_perms()
    try:
        labels = np.array([position[row.alpha, row.beta] for row in rows], dtype=np.intp)
    except KeyError as unknown:  # the first row with a label outside Γ; gamma's ValueError names it
        gamma(unknown.args[0][0]), gamma(unknown.args[0][1])
    signs = root_table(3)[np.array([row.g.values for row in rows], dtype=np.intp)]
    exponents = np.array([row.exponents for row in rows], dtype=np.intp)
    checks: list = [None] * len(rows)
    for class_id in dict.fromkeys(row.class_id for row in rows):
        indices = [i for i, row in enumerate(rows) if row.class_id == class_id]
        seed, members = reference_seed(class_id), _class_members(class_id)
        permuted = apply_stack(perms, circular_spectrum(seed))[labels[indices]]
        t, strict = _strict_decode(np.stack([transform(signs[indices], 3, 2, conjugate=True), permuted]), 3, 2)
        spectrum_ok, permutation_ok = ((strict == 1) & (t == exponents[indices])).all(axis=-1).tolist()
        sign_ok = (apply_stack(ws, sign_of(seed))[labels[indices]] == signs[indices]).all(axis=(1, 2))
        for i, spectrum, permutation, sign in zip(indices, spectrum_ok, permutation_ok, sign_ok.tolist()):
            checks[i] = RowCheck(rows[i], spectrum, rows[i].g in members, permutation, sign)
    return checks


@lru_cache(maxsize=9)
def _class_members(class_id: int) -> frozenset[MvFunction]:
    """The 18 functions of class 1..9, generated once; look up only ids reference_seed accepts."""
    return frozenset(r.g for r in generate_class(reference_seed(class_id), class_id).rows)


@lru_cache(maxsize=None)
def _label_perms() -> tuple[dict[tuple[str, str], int], PermStack, PermStack]:
    """Each label (α, β) in Γ×Γ with its row in two stacks: α⊗β and W = 3^(-2)·C·(α⊗β)·C*."""
    labels = list(product(GAMMA_NAMES, repeat=2))
    perms = [kron(gamma(alpha), gamma(beta)) for alpha, beta in labels]
    return ({label: i for i, label in enumerate(labels)}, PermStack.of(perms),
            PermStack.of([conjugate_by_c(perm) for perm in perms]))
