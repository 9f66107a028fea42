"""Exact circular-spectrum toolkit for p-valued bent functions."""

from .cyclotomic import CycInt, NotAUnitRoot, NotDivisible, RadixMismatch, RootScalar, parse_cyc, xi
from .mvfunction import (
    GF3Polynomial,
    MvFunction,
    NotASign,
    SignVector,
    add_constant,
    eval_polynomial,
    sign_of,
    tensor_sum,
    try_from_sign,
    un_vec,
    vec_columns,
)
from .vctransform import (
    Spectrum,
    SizeLimitExceeded,
    forward,
    forward_fast,
    inverse,
    is_flat,
    spectrum_kron,
)
from .genperm import (
    DenseCycMatrix,
    GenPerm,
    NotFlat,
    apply,
    block_diag,
    compose,
    conjugate_by_c,
    conjugate_table,
    diag_from_flat_spectrum,
    gamma,
    identity,
    is_generalized_permutation,
    kron,
    pauli_z,
    scale,
)
from .bentlab import (
    BentVerdict,
    NotAFunction,
    NotBentSpectrum,
    NotStrict,
    circular_spectrum,
    dual,
    is_bent,
    negate_classify,
    spectrum_is_bent,
    strict_exponents,
)
from .generator import (
    ClassRecord,
    ClassRow,
    DegenerateSeed,
    MaioranaSpec,
    REFERENCE_SEEDS,
    blockdiag_survey,
    expand_rotations,
    generate_all,
    generate_class,
    kron_perm_catalog,
    maiorana,
    maiorana_enumerate,
    reference_seed,
    tensor_sum_spectrum_law,
)
from .oracle import all_bent, all_bent_1place, certify

__version__ = "0.1.0"
