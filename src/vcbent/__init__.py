"""Exact circular-spectrum toolkit for p-valued bent functions.

The names in ``__all__`` are re-exported from the submodules below and
loaded on first access (PEP 562), so ``import vcbent`` loads no submodule
and ``python -m vcbent <command>`` loads only the modules that command runs.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "cyclotomic": "CycInt NotAUnitRoot NotDivisible RadixMismatch RootScalar parse_cyc xi",
    "mvfunction": "GF3Polynomial MvFunction NotASign SignVector add_constant eval_polynomial sign_of "
    "tensor_sum try_from_sign un_vec vec_columns",
    "vctransform": "Spectrum SizeLimitExceeded forward forward_fast inverse is_flat spectrum_kron",
    "genperm": "DenseCycMatrix GenPerm NotFlat apply block_diag compose conjugate_by_c conjugate_table "
    "diag_from_flat_spectrum gamma identity is_generalized_permutation kron pauli_z scale",
    "bentlab": "BentVerdict NotAFunction NotBentSpectrum NotStrict circular_spectrum dual is_bent "
    "negate_classify spectrum_is_bent strict_exponents",
    "generator": "ClassRecord ClassRow DegenerateSeed MaioranaSpec REFERENCE_SEEDS blockdiag_survey "
    "expand_rotations generate_all generate_class kron_perm_catalog maiorana maiorana_enumerate "
    "reference_seed tensor_sum_spectrum_law",
    "oracle": "all_bent all_bent_1place certify",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
