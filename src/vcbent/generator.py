"""Constructive generation of two-place ternary bent functions.

Nine seed functions are expanded by the 35 Kronecker products α⊗β of
elementary 3×3 permutations (α, β ∈ Γ, the pair (I, I) excluded): each
seed spectrum yields exactly 18 distinct primitive functions, and adding
the constants 1 and 2 completes each class to 54.  Also here: the
Maiorana construction f = vec⟨M·Q ⊕ (1⊗vᵀ)⟩ with the exponent matrix
M[i, j] = ⟨i·j⟩, the tensor-sum spectrum law S_{f1⊞f2} = S_{f1} ⊗ S_{f2},
and a survey of block-diagonal permutations (flatness-preserving but not
bentness-preserving).

Class expansion and the survey apply a cached genperm.PermStack to the seed
spectra, decide the images in one bentlab.verdict_arrays call and count and
deduplicate on integer row codes; only returned rows become MvFunctions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import NamedTuple

import numpy as np

from .bentlab import NotBentSpectrum, _strict_decode, circular_spectrum, is_bent, spectra_verdicts
from .bentlab import strict_exponent_rows, verdict_arrays
from .cyclotomic import root_table
from .genperm import GAMMA_NAMES, GenPerm, PermStack, apply, apply_stack, block_diag, gamma, kron
from .mvfunction import GF3Polynomial, MvFunction, functions_of, tensor_sum, vec_columns
from .vctransform import SizeLimitExceeded, Spectrum, _guard, flat_mask, spectrum_kron, transform


class DegenerateSeed(ValueError):
    """Seed is not bent, not strict, or did not produce the expected 18 distinct primitives."""


class _Seed(NamedTuple):
    class_id: int
    digits: str
    polynomial: str
    spectrum_exponents: str


# the nine reference functions, value vectors authoritative
REFERENCE_SEEDS: tuple[_Seed, ...] = (
    _Seed(1, "000012021", "x1*x2", "000021012"),
    _Seed(2, "001010022", "x1*x2 + x2 + 2*x2^2", "000021120"),
    _Seed(3, "210000012", "x1*x2 + x1^2 + 2*x2 + 2", "002212122"),
    _Seed(4, "100010220", "2*x1*x2 + 2*x1 + 2*x2^2 + 1", "012021111"),
    _Seed(5, "200110020", "2*x1*x2 + 2*x1 + x2^2 + 2", "012021222"),
    _Seed(6, "102000012", "x1*x2 + 2*x2 + 2*x1^2 + 1", "001211121"),
    _Seed(7, "000201021", "x1*x2 + x1 + x1^2", "020011002"),
    _Seed(8, "000021120", "2*x1*x2 + x1 + 2*x1^2", "010022001"),
    _Seed(9, "020011002", "2*x1*x2 + x2 + x2^2", "000012210"),
)


def _reference(class_id: int) -> _Seed:
    if not 1 <= class_id <= len(REFERENCE_SEEDS):
        raise ValueError(f"no reference class {class_id}; expected 1..{len(REFERENCE_SEEDS)}")
    return REFERENCE_SEEDS[class_id - 1]


def reference_seed(class_id: int) -> MvFunction:
    """The seed of class 1..9; ValueError for any other class id."""
    return MvFunction.from_digits(3, 2, _reference(class_id).digits)


def reference_polynomial(class_id: int) -> GF3Polynomial:
    return GF3Polynomial.parse(_reference(class_id).polynomial)


class CatalogEntry(NamedTuple):
    alpha: str
    beta: str
    perm: GenPerm


def kron_perm_catalog() -> list[CatalogEntry]:
    """The 35 straight α⊗β, α, β ∈ Γ, in (α, β) lexicographic catalog order."""
    return list(_kron_catalog()[0])


@lru_cache(maxsize=None)
def _kron_catalog() -> tuple[tuple[CatalogEntry, ...], PermStack]:
    pairs = [(alpha, beta) for alpha in GAMMA_NAMES for beta in GAMMA_NAMES if (alpha, beta) != ("I", "I")]
    entries = tuple(CatalogEntry(alpha, beta, kron(gamma(alpha), gamma(beta))) for alpha, beta in pairs)
    return entries, PermStack.of([entry.perm for entry in entries])


# a (..., 9) ternary value row @ _PLACES is its row code, which sorts as the value rows do
_PLACES = 3 ** np.arange(8, -1, -1)


@dataclass(frozen=True)
class ClassRow:
    index: int
    g: MvFunction
    alpha: str
    beta: str
    spectrum_exponents: tuple[int, ...]

    def exponent_string(self) -> str:
        return "".join(str(e) for e in self.spectrum_exponents)


@dataclass(frozen=True)
class ClassRecord:
    class_id: int | None
    seed: MvFunction
    rows: tuple[ClassRow, ...]

    def functions(self) -> list[MvFunction]:
        return [row.g for row in self.rows]

    def to_json_dict(self) -> dict:
        return {
            "class": self.class_id,
            "seed": self.seed.digit_string(),
            "rows": [
                {
                    "index": row.index,
                    "g": row.g.digit_string(),
                    "alpha": row.alpha,
                    "beta": row.beta,
                    "spectrum_exponents": row.exponent_string(),
                }
                for row in self.rows
            ],
        }

    def to_tsv_lines(self) -> list[str]:
        cid = self.class_id if self.class_id is not None else 0
        return [
            f"{cid}\t{row.index}\t{row.g.digit_string()}\t{row.alpha},{row.beta}\t{row.exponent_string()}"
            for row in self.rows
        ]


def generate_class(seed: MvFunction, class_id: int | None = None) -> ClassRecord:
    """Expand one seed through the 35-permutation catalog into its 18 primitives.

    Duplicate spectra keep the first catalog permutation as their label; the
    seed itself is always reproduced by some catalog member and is listed
    first (labelled I⊗I), the remaining rows sorted by value vector.
    """
    images, values, first = _expand([seed])
    entries, picked = _kron_catalog()[0], first[0].tolist()
    exponents = strict_exponent_rows(images[0, picked], seed.p, seed.n).tolist()
    functions = [seed] + functions_of(seed.p, seed.n, values[0, picked[1:]])
    labels = [("I", "I")] + [(entries[r].alpha, entries[r].beta) for r in picked[1:]]
    rows = [ClassRow(i + 1, g, *labels[i], tuple(exponents[i])) for i, g in enumerate(functions)]
    return ClassRecord(class_id, seed, tuple(rows))


def _expand(seeds: list[MvFunction]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The seeds' (S, 35, 9, d) catalog images, decided on arrays, the (S, 35, 9) values they recover, and
    per seed the 18 catalog rows first recovering each primitive, its own first, the rest by value vector.
    DegenerateSeed names the first seed that is not bent, not strict, or not one of 18 primitives."""
    p, n = seeds[0].p, seeds[0].n
    _guard(p, n)
    spectra = transform(root_table(p)[np.array([seed.values for seed in seeds])], p, n, conjugate=True)
    bad = np.flatnonzero((_strict_decode(spectra, p, n)[1] != 1).any(axis=-1))
    if bad.size:
        kind = "bent but not strict" if flat_mask(spectra[bad[0]], p, n).all() else "not bent"
        raise DegenerateSeed(f"seed {seeds[bad[0]].digit_string()} is {kind}")
    entries, catalog = _kron_catalog()
    images = catalog.apply(spectra, p)
    stacked = images.reshape(-1, *images.shape[2:])
    stage, _, _, values = verdict_arrays(stacked, p, n)
    if stage.any():  # impossible for a bent seed
        r = int(stage.argmax())
        g, entry = spectra_verdicts(stacked[r:r + 1], p, n)[0], entries[r % len(entries)]
        raise DegenerateSeed(f"catalog permutation {entry.alpha}⊗{entry.beta} broke bentness: {g}") from g
    values = values.reshape(len(seeds), len(entries), -1)
    first = []
    for seed, codes in zip(seeds, values @ _PLACES):
        found, at = np.unique(codes, return_index=True)
        own = found == np.array(seed.values) @ _PLACES
        if len(found) != 18 or not own.any():
            raise DegenerateSeed(
                f"seed {seed.digit_string()} produced {len(found)} distinct functions, expected 18"
            )
        first.append(np.concatenate([at[own], at[~own]]))
    return images, values, np.array(first)


def _rotations(primitives: np.ndarray, seeds: list[MvFunction]) -> np.ndarray:
    """The (S, 3k, 9) value rows of each seed's (S, k, 9) primitives plus 0, 1 and 2 mod 3;
    DegenerateSeed names the first seed whose rows are not 54 distinct functions."""
    classes = ((primitives[:, None] + np.arange(3)[:, None, None]) % 3).reshape(len(primitives), -1, 9)
    short = (np.diff(np.sort(classes @ _PLACES, axis=1), axis=1) != 0).sum(axis=1) + 1 != 54
    if short.any():
        raise DegenerateSeed(f"class of {seeds[short.argmax()].digit_string()} is not 54 functions")
    return classes


def expand_rotations(record: ClassRecord) -> list[MvFunction]:
    """The 18 primitives plus each shifted by 1 and by 2: the full class of 54."""
    return functions_of(3, 2, _rotations(np.array([[row.g.values for row in record.rows]]), [record.seed])[0])


def generate_all() -> set[MvFunction]:
    """Union of the nine expanded seed classes, from one stack of 9×35 images.

    Four seed pairs — (2,4), (3,7), (5,9), (6,8) — turn out to expand to
    identical 54-sets (class 4's primitives are class 2's shifted by 1,
    and so on), so the union measures 270 distinct bent functions, not
    the full 486 found by exhaustive scan.  tests/test_acceptance.py
    carries the completeness criterion and documents the gap.
    """
    seeds = [reference_seed(seed.class_id) for seed in REFERENCE_SEEDS]
    _, values, first = _expand(seeds)
    classes = _rotations(np.take_along_axis(values, first[..., None], axis=1), seeds).reshape(-1, 9)
    _, at = np.unique(classes @ _PLACES, return_index=True)
    return set(functions_of(3, 2, classes[at]))


# -- Maiorana construction -----------------------------------------------------


@dataclass(frozen=True)
class MaioranaSpec:
    m: int
    q: GenPerm
    v: MvFunction


def maiorana(spec: MaioranaSpec) -> MvFunction:
    """f = vec⟨M·Q ⊕ (1 ⊗ vᵀ)⟩ with M[i, j] = ⟨i·j⟩ mod 3; always bent."""
    return _maiorana_checked([spec])[0]


def _maiorana_checked(specs: list[MaioranaSpec]) -> list[MvFunction]:
    """maiorana() of each spec (one m for all), checked bent by one transform and one flatness mask;
    every value row is read from one ⟨i·j⟩ mod 3 table."""
    for m, q, v in ((spec.m, spec.q, spec.v) for spec in specs):
        side = q.size
        if m < 0:
            raise ValueError("variable count must be >= 0")
        if m > side.bit_length() or 3**m != side or q.p != 3:  # 3^m ≥ 2^m > side in the first case
            want = 3**m if m <= 64 else f"3^{m}"
            raise ValueError(f"permutation must be {want}×{want} over radix 3")
        if not q.is_straight():
            raise ValueError("Maiorana permutation must be straight (all scalars 1)")
        if v.p != 3 or v.n != m:
            raise ValueError(f"shift function must be ternary on {m} variables")
    side, n = specs[0].q.size, 2 * specs[0].m
    digits = np.arange(side)[:, None] // 3 ** np.arange(specs[0].m) % 3
    inverse = np.argsort(np.array([spec.q.cols for spec in specs]), axis=1)  # the row holding each column
    shifts = np.array([spec.v.values for spec in specs])[..., None]
    matrices = ((digits @ digits.T)[inverse] + shifts).swapaxes(1, 2) % 3  # [s, i, j]: ⟨i·inverse[j]⟩ + v[j]
    values = matrices.reshape(len(specs), -1)[:, vec_columns(np.arange(side**2).reshape(side, side))]
    functions = functions_of(3, n, values)
    _guard(3, n)
    signs = root_table(3)[values]
    if not flat_mask(transform(signs, 3, n, conjugate=True), 3, n).all():
        raise AssertionError("Maiorana construction produced a non-bent function")
    return functions


def maiorana_enumerate(m: int = 1) -> set[MvFunction]:
    """Distinct Maiorana functions over all straight Q and all shifts v."""
    if m < 0:
        raise ValueError("variable count must be >= 0")
    if m != 1:
        count = 3**m if m <= 64 else f"3^{m}"
        raise SizeLimitExceeded(
            f"enumeration at m={m} needs ({count})! straight permutations; only m=1 is tabulated"
        )
    shifts = functions_of(3, m, np.array(list(product(range(3), repeat=3**m))))
    return set(_maiorana_checked([MaioranaSpec(m, gamma(name), v) for name in GAMMA_NAMES for v in shifts]))


# -- tensor sums ----------------------------------------------------------------


def tensor_sum_spectrum_law(
    f1: MvFunction,
    f2: MvFunction,
    perms: tuple[GenPerm, GenPerm] | None = None,
) -> tuple[MvFunction, Spectrum]:
    """f3 = f1 ⊞ f2 with the exact identity S_{f3} = S_{f1} ⊗ S_{f2}.

    With a pair of permutations (P1, P2) also checks the commuting identity
    (P1 ⊗ P2)(S_{f1} ⊗ S_{f2}) = (P1·S_{f1}) ⊗ (P2·S_{f2}).
    """
    for f in (f1, f2):
        if not is_bent(f).is_bent:
            raise ValueError(f"{f.digit_string()} is not bent; the law assumes bent inputs")
    s1 = circular_spectrum(f1)
    s2 = circular_spectrum(f2)
    f3 = tensor_sum(f1, f2)
    s3 = circular_spectrum(f3)
    if s3 != spectrum_kron(s1, s2):
        raise AssertionError("tensor-sum spectrum law violated")  # unreachable
    if perms is not None:
        p1, p2 = perms
        left = apply(kron(p1, p2), s3)
        right = spectrum_kron(apply(p1, s1), apply(p2, s2))
        if left != right:
            raise AssertionError("Kronecker commuting identity violated")  # unreachable
    return f3, s3


# -- block-diagonal survey -------------------------------------------------------


@dataclass
class BlockdiagSurvey:
    seed: MvFunction
    total: int = 0
    bent: int = 0
    flat_not_bent: int = 0
    distinct_bent: int = 0
    first_bent: tuple | None = None
    first_not_bent: tuple | None = None
    # the source text counts 815 = 120·3! + 30·3 + 5 compositions; measured
    # ordered triples over the six elementary permutations number 6³ = 216
    prose_count: int = 815
    prose_formula: str = "120*6 + 30*3 + 5"


def blockdiag_survey(seed: MvFunction) -> BlockdiagSurvey:
    """Apply every blockdiag(a, b, c), a, b, c ∈ Γ, to the seed spectrum."""
    if seed.p != 3 or seed.n != 2:
        raise ValueError("survey is defined for two-place ternary functions")
    names, perms = _blockdiag_catalog()
    stage, _, _, values = verdict_arrays(apply_stack(perms, circular_spectrum(seed)), 3, 2)
    bent, failed = np.flatnonzero(stage == 0), np.flatnonzero(stage)
    distinct = len(set((values[bent] @ _PLACES).tolist()))  # no np.unique: its plain form imports numpy.ma
    report = BlockdiagSurvey(seed, len(stage), len(bent), len(failed), distinct)
    if bent.size:
        report.first_bent = (names[bent[0]], functions_of(3, 2, values[bent[:1]])[0])
    if failed.size:
        report.first_not_bent = (names[failed[0]], NotBentSpectrum.STAGES[stage[failed[0]] - 1])
    return report


@lru_cache(maxsize=None)
def _blockdiag_catalog() -> tuple[tuple[tuple[str, str, str], ...], PermStack]:
    """The 216 blockdiag(a, b, c), a, b, c ∈ Γ, in lexicographic order, with their names."""
    names = tuple(product(GAMMA_NAMES, repeat=3))
    return names, PermStack.of([block_diag([gamma(name) for name in triple]) for triple in names])
