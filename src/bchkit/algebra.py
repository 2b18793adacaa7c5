"""Core value types: the three algebras and their coordinate systems.

Each algebra is identified by the structure-constant pair (epsilon, delta)
entering the commutators

    [T_minus, T_plus] = 2*epsilon*T_c,    [T_c, T_plusminus] = +/- delta*T_plusminus.

A group element is kept in normal-ordered (Gauss) coordinates: the factors of
exp(big_plus*T_plus) * exp(log_c*T_c) * exp(big_minus*T_minus), together with an
accumulated scalar phase exponent.  The Cartan coordinate is stored as its
logarithm so that the branch of every fractional power taken during composition
stays explicit.
"""

from __future__ import annotations

import cmath
import enum
from cmath import isfinite

from .errors import NonFiniteInput

__all__ = [
    "AlgebraKind",
    "ExponentParams",
    "GroupElement",
    "make_algebra",
    "identity_element",
]


class AlgebraKind(enum.Enum):
    """One of su(1,1), su(2), so(2,1), carrying its (epsilon, delta) pair."""

    SU11 = "su11"
    SU2 = "su2"
    SO21 = "so21"

    @property
    def epsilon(self) -> complex:
        return self._epsilon

    @property
    def delta(self) -> complex:
        return self._delta


# The only admissible structure-constant pairs; nothing else is constructible.
_STRUCTURE = {
    AlgebraKind.SU11: (1 + 0j, 1 + 0j),
    AlgebraKind.SU2: (-1 + 0j, 1 + 0j),
    AlgebraKind.SO21: (0.5j, 1j),
}

# Each member keeps its pair as plain attributes, so a read hashes nothing (Enum.__hash__
# is Python code), and ``_kernel``, the constants of the kernels in compose.py, each formed
# once here as those kernels formed it per call: (delta, 0.5*delta, delta*eps, 2/delta, -(2/delta)).
for _kind, (_eps, _delta) in _STRUCTURE.items():
    _kind._epsilon, _kind._delta = _eps, _delta
    _kind._kernel = (_delta, 0.5 * _delta, _delta * _eps, 2.0 / _delta, -(2.0 / _delta))
del _kind, _eps, _delta


def make_algebra(kind: str | AlgebraKind) -> AlgebraKind:
    """Resolve a name like ``"su11"`` (case-insensitive) to its AlgebraKind."""
    if isinstance(kind, AlgebraKind):
        return kind
    try:
        return AlgebraKind(str(kind).lower())
    except ValueError:
        pass
    try:
        shown = repr(kind)
    except ValueError:  # an integer with more digits than str() converts
        shown = f"(an integer of {kind.bit_length()} bits)"
    names = ", ".join(a.value for a in AlgebraKind)
    raise ValueError(f"unknown algebra {shown}; expected one of {names}")


def _as_complex(name: str, x, at=None) -> complex:
    """``x`` as a complex number, as it enters the package; a complex ``x`` as it is.

    NaN and inf pass: a value type whose fields must be finite refuses them where it is built.
    """
    return x if x.__class__ is complex else _to_number(complex, "a number", name, x, at)


def _as_float(name: str, x, at=None) -> float:
    """``x`` as a float, as _as_complex makes a complex number."""
    return x if x.__class__ is float else _to_number(float, "a real number", name, x, at)


def _to_number(kind, noun: str, name: str, x, at):
    """``kind(x)``, or an error that names the field, as ``name(at)`` where ``at`` is given.

    A ``str``, which ``kind()`` would parse, or any other value that is not
    ``noun`` raises TypeError; an integer beyond double range, NonFiniteInput.
    """
    shown = name if at is None else f"{name}({at:.6g})"
    if not isinstance(x, str):
        try:
            return kind(x)
        except OverflowError:
            size = f"an integer of {int(x).bit_length()} bits"
            raise NonFiniteInput(f"{shown} must be within double range, got {size}") from None
        except TypeError:
            pass
    raise TypeError(f"{shown} must be {noun}, got {x.__class__.__name__}")


def _setters(cls) -> tuple:
    """The ``__set__`` of each of ``cls``'s slot descriptors, bound once, in slot order."""
    return tuple(cls.__dict__[name].__set__ for name in cls.__slots__)


class _Frozen:
    """Base of the package's immutable value types.

    A subclass names its fields in ``__slots__``.  Right after its class body,
    ``_setters`` binds the ``__set__`` of each slot's member descriptor once,
    to module-level names, and ``__init__`` stores each field with one call to
    its setter, past the refusing ``__setattr__``.  Instances compare equal
    when they are of the same class with equal field values, hash as the
    tuple of those values, refuse assignment and deletion, and pickle and
    copy by calling the constructor with the field values in slot order.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class ExponentParams(_Frozen):
    """Coordinates of a single-exponential group element (all complex; see _disentangle_raw).

    NaN and inf pass: the kernel checks them, as evolve's slices reach it without ExponentParams.
    """

    __slots__ = ("lambda_plus", "lambda_c", "lambda_minus")

    def __init__(self, lambda_plus: complex, lambda_c: complex, lambda_minus: complex):
        # one class test where every field is complex already, as on every path of the package
        if not lambda_plus.__class__ is lambda_c.__class__ is lambda_minus.__class__ is complex:
            lambda_plus, lambda_c, lambda_minus = map(
                _as_complex, self.__slots__, (lambda_plus, lambda_c, lambda_minus)
            )
        _set_lambda_plus(self, lambda_plus)
        _set_lambda_c(self, lambda_c)
        _set_lambda_minus(self, lambda_minus)

    def is_finite(self) -> bool:
        """Whether every coordinate is finite."""
        return isfinite(self.lambda_plus) and isfinite(self.lambda_c) and isfinite(self.lambda_minus)


_set_lambda_plus, _set_lambda_c, _set_lambda_minus = _setters(ExponentParams)


class GroupElement(_Frozen):
    """Normal-ordered coordinates of a group element.

    ``log_c`` holds ln of the Cartan coordinate; the coordinate itself is
    recovered via :meth:`big_c` and is never stored directly.  ``phase`` is a
    scalar prefactor exponent (the element represents exp(phase) times the
    ordered product); it stays 0 except for rotation operators.  A NaN or
    infinite field raises NonFiniteInput here, so no reader checks one again.
    """

    __slots__ = ("algebra", "big_plus", "log_c", "big_minus", "phase")

    def __init__(
        self,
        algebra: AlgebraKind,
        big_plus: complex,
        log_c: complex,
        big_minus: complex,
        phase: complex = 0j,
    ):
        # one class test where every field is complex already, as on every path of the package
        if not big_plus.__class__ is log_c.__class__ is big_minus.__class__ is phase.__class__ is complex:
            big_plus, log_c, big_minus, phase = map(
                _as_complex, self.__slots__[1:], (big_plus, log_c, big_minus, phase)
            )
        if not (isfinite(big_plus) and isfinite(log_c) and isfinite(big_minus) and isfinite(phase)):
            raise NonFiniteInput("group element coordinates must be finite")
        _set_algebra(self, algebra)
        _set_big_plus(self, big_plus)
        _set_log_c(self, log_c)
        _set_big_minus(self, big_minus)
        _set_phase(self, phase)

    def big_c(self) -> complex:
        """exp(log_c), the Cartan coordinate; NonFiniteInput where it leaves double range."""
        try:
            return cmath.exp(self.log_c)
        except OverflowError:
            raise NonFiniteInput("Cartan coordinate exp(log_c) overflows double precision") from None


_set_algebra, _set_big_plus, _set_log_c, _set_big_minus, _set_phase = _setters(GroupElement)


def identity_element(algebra: AlgebraKind) -> GroupElement:
    """The group identity: all coordinates and the phase exponent zero."""
    return GroupElement(algebra, 0j, 0j, 0j, 0j)
