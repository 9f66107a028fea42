"""Independent brute-force ground truth: exhaustive bent-function scans.

all_bent() decides every value vector exactly by joining two tables of
half-spectra, not by a transform per candidate: w = 0 for every candidate
at once, then the survivors of each block one w at a time, skipping blocks
with none.  It shares nothing with the constructive generator, so set
equality between the two certifies both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cyclotomic import degree, root_table
from .mvfunction import MvFunction, functions_of
from .vctransform import flat_mask, transform

# p^(p^n) candidate functions must stay enumerable at desk scale
SCAN_GUARD = 2**20

# candidate pairs per join step; keeps the scan's arrays under 1 MB
JOIN_BLOCK = 4096


class ScanTooLarge(ValueError):
    pass


def _assignments(p: int, places: int) -> np.ndarray:
    """Every value vector on `places` points, in base-p counter order."""
    return np.arange(p**places)[:, None] // p ** np.arange(places - 1, -1, -1) % p


def all_bent(p: int = 3, n: int = 2) -> set[MvFunction]:
    """Every p-valued n-place function with a flat circular spectrum.

    A is the first ⌊p^n/2⌋ points and B the rest.  Each assignment of A (zeros
    on B) and of B (zeros on A) is transformed once, so candidate a·p^|B| + b,
    codes_a[a] ‖ codes_b[b], has spectrum T_A[a] + T_B[b].  flat_mask's exact
    |u + v|² = p^n runs once per pair of distinct half values, keyed by their
    coefficients (each within ±p^n) in base 2p^n + 1.  Candidates are looked
    up on w = 0 all at once, then JOIN_BLOCK at a time the survivors are
    filtered one w after another; a block with no w = 0 survivor is skipped.
    """
    if n < 0:
        raise ValueError("variable count must be >= 0")
    if n > SCAN_GUARD.bit_length() or p**n > SCAN_GUARD.bit_length():  # so p^(p^n) > SCAN_GUARD
        size = p**n if n <= 64 else f"({p}^{n})"
        raise ScanTooLarge(f"{p}^{size} candidate functions exceed {SCAN_GUARD}")
    size = p**n
    total = p**size
    if total > SCAN_GUARD:
        raise ScanTooLarge(f"{p}^{size} = {total} candidate functions exceed {SCAN_GUARD}")
    half = size // 2
    codes_a, codes_b = _assignments(p, half), _assignments(p, size - half)
    d = degree(p)
    coeffs = np.zeros((len(codes_a) + len(codes_b), size, d), dtype=np.int64)
    coeffs[: len(codes_a), :half] = root_table(p)[codes_a]
    coeffs[len(codes_a) :, half:] = root_table(p)[codes_b]
    tables = transform(coeffs, p, n, conjugate=True).reshape(-1, d)
    keys = (tables + size) @ (2 * size + 1) ** np.arange(d)
    _, index, ids = np.unique(keys, return_index=True, return_inverse=True)
    values = tables[index]
    flat = flat_mask(values[:, None] + values, p, n)
    ids_a, ids_b = np.split(ids.reshape(-1, size), [len(codes_a)])
    at_zero = flat[ids_a[:, 0]][:, ids_b[:, 0]].reshape(-1)  # one bool per candidate
    # pair (u, v) of distinct half values sits at u·len(values) + v of the flat table
    pair_a, pair_b, pairs = (ids_a * len(values)).T, ids_b.T, flat.reshape(-1)
    rows = [np.empty((0, size), dtype=codes_a.dtype)]
    for start in range(0, total, JOIN_BLOCK):
        hits = np.flatnonzero(at_zero[start : start + JOIN_BLOCK])
        if not hits.size:
            continue
        a, b = np.divmod(start + hits, len(codes_b))
        # Σ_w S(w)·conj(S(w)) = p^(2n) exactly for every sign vector: flat elsewhere, the last w is too
        for w in range(1, size - 1):
            keep = pairs[pair_a[w][a] + pair_b[w][b]]
            a, b = a[keep], b[keep]
        rows.append(np.concatenate([codes_a[a], codes_b[b]], axis=1))
    return set(functions_of(p, n, np.concatenate(rows)))


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
