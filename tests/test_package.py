"""The package's top-level names, which load their submodule on first access."""

import importlib

import pytest

import vcbent

# every name the package exported when it still imported all of its submodules
PUBLIC = """
BentVerdict ClassRecord ClassRow CycInt DegenerateSeed DenseCycMatrix GF3Polynomial GenPerm MaioranaSpec
MvFunction NotAFunction NotASign NotAUnitRoot NotBentSpectrum NotDivisible NotFlat NotStrict REFERENCE_SEEDS
RadixMismatch RootScalar SignVector SizeLimitExceeded Spectrum add_constant all_bent all_bent_1place apply
block_diag blockdiag_survey certify circular_spectrum compose conjugate_by_c conjugate_table
diag_from_flat_spectrum dual eval_polynomial expand_rotations forward forward_fast gamma generate_all
generate_class identity inverse is_bent is_flat is_generalized_permutation kron kron_perm_catalog maiorana
maiorana_enumerate negate_classify parse_cyc pauli_z reference_seed scale sign_of spectrum_is_bent
spectrum_kron strict_exponents tensor_sum tensor_sum_spectrum_law try_from_sign un_vec vec_columns xi
""".split()


def test_every_export_is_its_submodules_object():
    assert sorted(vcbent.__all__) == sorted(PUBLIC)
    for name in vcbent.__all__:
        module = importlib.import_module(f"vcbent.{vcbent._MODULE_OF[name]}")
        assert getattr(vcbent, name) is getattr(module, name), name
    assert set(PUBLIC) <= set(dir(vcbent))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'vcbent' has no attribute 'no_such_name'"):
        vcbent.no_such_name
    assert not hasattr(vcbent, "build_c")  # an export removed earlier stays removed


def test_import_loads_no_submodule_and_each_name_loads_its_own(fresh_python):
    probe = (
        "import sys\n"
        "def loaded(): print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'vcbent'))\n"
        "import vcbent\n"
        "loaded()\n"
        "vcbent.MvFunction\n"
        "loaded()\n"
        "from vcbent import oracle\n"
        "loaded()\n"
        "namespace = {}\n"
        "exec('from vcbent import *', namespace)\n"
        "print(sorted(namespace.keys() - {'__builtins__'}) == sorted(vcbent.__all__))\n"
        "print(oracle is vcbent.oracle)\n"
    )
    proc = fresh_python("-c", probe)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().splitlines() == [
        "vcbent",
        "vcbent vcbent.cyclotomic vcbent.mvfunction",
        "vcbent vcbent.cyclotomic vcbent.mvfunction vcbent.oracle vcbent.vctransform",
        "True",
        "True",
    ]
