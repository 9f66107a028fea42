"""Independent brute-force ground truth: exhaustive bent-function scans.

all_bent() walks every value vector in base-p counter order and keeps the
functions whose circular spectrum is flat.  It shares nothing with the
constructive generator, so set equality between the two certifies both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cyclotomic import root_table
from .mvfunction import MvFunction
from .vctransform import flat_mask, transform

# p^(p^n) candidate functions must stay enumerable at desk scale
SCAN_GUARD = 2**20

# candidates per engine call; keeps the scan's arrays under 1 MB
SCAN_BLOCK = 1024


class ScanTooLarge(ValueError):
    pass


def all_bent(p: int = 3, n: int = 2, jobs: int = 1) -> set[MvFunction]:
    """Every p-valued n-place function with a flat circular spectrum.

    Candidates pass through the transform engine SCAN_BLOCK at a time on its
    batch axis.  `jobs` is accepted for compatibility and ignored.
    """
    size = p**n
    total = p**size
    if total > SCAN_GUARD:
        raise ScanTooLarge(f"{p}^{size} = {total} candidate functions exceed {SCAN_GUARD}")
    places = p ** np.arange(size - 1, -1, -1)
    found = set()
    for start in range(0, total, SCAN_BLOCK):
        values = np.arange(start, min(start + SCAN_BLOCK, total))[:, None] // places % p
        spectra = transform(root_table(p)[values], p, n, conjugate=True)
        for row in values[flat_mask(spectra, p, n).all(axis=-1)].tolist():
            found.add(MvFunction(p, n, row))
    return found


def all_bent_1place() -> set[MvFunction]:
    """All ternary one-place functions with |S(w)|² = 3 for every w."""
    return all_bent(3, 1)


@dataclass(frozen=True)
class CertifyReport:
    missing: tuple[MvFunction, ...]  # in reference, absent from generated
    extra: tuple[MvFunction, ...]  # generated, absent from reference

    @property
    def passed(self) -> bool:
        return not self.missing and not self.extra

    def summary(self) -> str:
        if self.passed:
            return "certified: sets identical"
        return f"difference: {len(self.missing)} missing, {len(self.extra)} extra"


def certify(generated: set[MvFunction], reference: set[MvFunction]) -> CertifyReport:
    """Symmetric-difference listing; empty difference = pass."""
    missing = tuple(sorted(reference - generated))
    extra = tuple(sorted(generated - reference))
    return CertifyReport(missing, extra)
