"""Commutative four-dimensional hypercomplex numbers.

Four algebras over quads u = x + alpha*y + beta*z + gamma*t — circular,
hyperbolic, planar and polar — with exact decoupling into complex planes
and real lines, closed-form inverses, exponential/trigonometric forms,
elementary functions, power series, loop integrals with residues,
polynomial factorization, and 4x4 matrix representations.

``import quadfield`` loads only ``algebra_core``.  The public names of the
other modules are resolved on first use (PEP 562 ``__getattr__``) and
cached here, so they are the same objects as in their home modules.
"""

import importlib

from . import algebra_core
from .algebra_core import *  # noqa: F401,F403

__version__ = "0.1.0"

# Home module of every public name that is not in algebra_core.
_LAZY = {
    "calculus": (
        "Loop", "NearBoundaryWarning", "OnBoundary", "SingularOnPath",
        "WindingQuery", "integrate_loop", "residue_prediction", "winding",
    ),
    "canonical": (
        "CANONICAL_BASES", "ExpForm", "TrigForm", "canonical_mul", "exp_form",
        "expform_from_dict", "expform_to_dict", "from_canonical",
        "from_exp_form", "from_trig_form", "to_canonical", "trig_form",
    ),
    "elementary": (
        "CosexpFamily", "CosexpKind", "cos", "cosexp", "cosexp_series", "cosh",
        "exp", "f4", "g4", "log", "pow_real", "sin", "sinh",
    ),
    "matrix_rep": (
        "CHANGE_OF_BASIS", "Matrix4", "block_diagonalize", "determinant",
        "represent",
    ),
    "polynomial": (
        "ComplexQuad", "EnumerationBudgetExceeded", "Factorization",
        "NoConvergence", "Poly", "enumerate_factorizations", "eval_poly",
        "factor", "pair_conjugates", "quadratic_factor", "reconstruct",
    ),
    "series": (
        "ConvergenceBounds", "DegenerateSeries", "SeriesSpec",
        "check_analytic", "check_second_order", "convergence_bounds",
        "eval_series",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__all__ = sorted([*algebra_core.__all__, *_HOME])


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
