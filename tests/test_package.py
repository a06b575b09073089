"""The package surface: every public name, resolved lazily or not, is the
object of its home module."""

import pytest

import quadfield
from quadfield import (
    algebra_core,
    calculus,
    canonical,
    elementary,
    matrix_rep,
    polynomial,
    series,
)

HOME_MODULES = (algebra_core, calculus, canonical, elementary, matrix_rep,
                polynomial, series)


def home_object(name):
    """The object named `name` in the layer modules, which must agree."""
    found = [vars(m)[name] for m in HOME_MODULES if name in vars(m)]
    assert found, name
    assert all(obj is found[0] for obj in found), name
    return found[0]


PUBLIC_NAMES = """
AlgebraKind Amplitude BACKEND CANONICAL_BASES CHANGE_OF_BASIS
ComplexQuad ConvergenceBounds CosexpFamily CosexpKind DEFAULT_TOL
DegenerateSeries DomainError EnumerationBudgetExceeded ExpForm
Factorization Loop Matrix4 NearBoundaryWarning NoConvergence OnBoundary
Poly Quad QuadfieldError ResultOverflow SeriesSpec SingularOnPath
SingularValue SingularityReport TrigForm WindingQuery add amplitude
block_diagonalize canonical_mul check_analytic check_second_order
convergence_bounds cos cosexp cosexp_series cosh determinant
enumerate_factorizations eval_poly eval_series exp
exp_form expform_from_dict expform_to_dict f4 factor from_canonical
from_exp_form from_trig_form g4 integrate_loop inverse log modulus mul
neg one pair_conjugates plane_join plane_split pow_int pow_real
quad_from_dict quad_from_json quad_to_dict quad_to_json quadratic_factor
reconstruct represent residue_prediction scale sin singularity sinh sub
to_canonical trig_form units winding zero
""".split()


def test_all_lists_the_public_names_sorted():
    assert quadfield.__all__ == PUBLIC_NAMES


@pytest.mark.parametrize("name", quadfield.__all__)
def test_attribute_is_the_home_object(name):
    assert getattr(quadfield, name) is home_object(name)


def test_star_import_gives_the_home_objects():
    namespace = {}
    exec("from quadfield import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == quadfield.__all__
    for name, obj in namespace.items():
        assert obj is home_object(name), name


def test_dir_lists_every_public_name():
    listed = dir(quadfield)
    assert set(quadfield.__all__) <= set(listed)
    assert "__version__" in listed


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        quadfield.no_such_name
    assert not hasattr(quadfield, "_private_name")
    with pytest.raises(ImportError):
        exec("from quadfield import no_such_name", {})


def test_submodule_imports_keep_working():
    import quadfield.polynomial as poly
    assert poly is polynomial
    assert quadfield.factor is poly.factor
    assert vars(quadfield)["factor"] is poly.factor   # cached once resolved
