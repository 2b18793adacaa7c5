"""Disentangling and composition calculus for su(1,1), su(2) and so(2,1).

The package rewrites single exponentials of generator combinations in
normal-ordered (Gauss) form, composes ordered elements in closed form,
applies the machinery to squeeze optics, and builds product-formula
time-evolution operators, with an independent 2x2 matrix oracle for
cross-checking every identity.

The calculus, the command line and the matrix oracle (``element_matrix``
and its companions) run on the standard library alone; the tests add only
pytest and mpmath.  The oracle's names, and those of the squeeze module,
are imported on first access, so ``import bchkit`` compiles neither
``bchkit.oracle`` nor ``bchkit.squeeze``.  The value types are frozen
``__slots__`` classes, not dataclasses.

Each submodule's ``__all__`` is its public list.  The package re-exports
those of ``algebra``, ``compose``, ``errors`` and ``evolve`` as they are,
and lists only the lazy names, which it cannot read without importing
their modules.
"""

import importlib

from . import algebra, compose, errors, evolve as _evolve
from .algebra import *
from .compose import *
from .errors import *
from .evolve import *

__version__ = "0.1.0"

# Names imported from their submodule on first access (PEP 562 __getattr__ below).
_LAZY = {
    "GeneratorSet": "oracle",
    "Mat2": "oracle",
    "element_matrix": "oracle",
    "exponent_matrix": "oracle",
    "generators_for": "oracle",
    "mat_exp": "oracle",
    "RotationParams": "squeeze",
    "SqueezeParams": "squeeze",
    "SqueezeRotationFactorization": "squeeze",
    "compose_squeezes": "squeeze",
    "factor_squeeze_rotation": "squeeze",
    "rotation_element": "squeeze",
    "squeeze_element": "squeeze",
}

__all__ = [
    *algebra.__all__,
    *compose.__all__,
    *errors.__all__,
    *_evolve.__all__,  # the star import rebinds the name evolve to the function
    *_LAZY,
    "__version__",
]


def __getattr__(name: str):
    # PEP 562: reached only for names not yet in the module globals.
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
