"""Faithful 2x2 matrix representations, used as a brute-force cross-check.

Every closed-form identity in the package can be checked by exponentiating
literal 2x2 matrices and multiplying them out.  The code here is deliberately
independent of the composition formulas it verifies: it shares no numeric
kernels with them, only the value types.

The matrices are ``Mat2`` objects, four plain complex numbers, so the oracle
runs on the standard library; numpy is not needed.  A ``Mat2`` still converts
to a numpy array wherever numpy asks for one (``np.asarray``, an ndarray on
either side of ``@``, ``+`` or ``-``), for the benchmark's evolve-drive
checks, which hold ndarray constants.
"""

from __future__ import annotations

import cmath
import math

from .algebra import AlgebraKind, ExponentParams, GroupElement
from .errors import NonFiniteInput

__all__ = [
    "Mat2",
    "GeneratorSet",
    "generators_for",
    "mat_exp",
    "element_matrix",
    "exponent_matrix",
]

_SERIES_S_THRESHOLD = 1e-4

_SCALARS = (int, float, complex)


class Mat2:
    """The 2x2 complex matrix [[a, b], [c, d]].

    Supports ``@``, ``+`` and ``-`` between matrices, ``*`` by a scalar from
    either side and ``/`` by a scalar, unary ``-``, entrywise ``abs()``,
    ``.max()``, ``.conj()``, ``.T`` and ``m[i, j]``.  Any other operand is left
    to its own type: an ndarray on either side of ``@``, ``+`` or ``-`` gives
    the ndarray result, through ``__array__``, which stays while the
    benchmark's evolve-drive checks hold ndarray constants.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a = a
        self.b = b
        self.c = c
        self.d = d

    @classmethod
    def of(cls, m) -> Mat2:
        """``m`` itself if it is a Mat2, else a Mat2 of any 2x2 nesting (ndarray, lists)."""
        if isinstance(m, Mat2):
            return m
        (a, b), (c, d) = m
        return cls(complex(a), complex(b), complex(c), complex(d))

    def __matmul__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        a, b, c, d = self.a, self.b, self.c, self.d
        e, f, g, h = other.a, other.b, other.c, other.d
        return Mat2(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    def __add__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d)

    def __sub__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d)

    def __mul__(self, k):
        if not isinstance(k, _SCALARS):
            return NotImplemented
        return Mat2(k * self.a, k * self.b, k * self.c, k * self.d)

    __rmul__ = __mul__

    def __truediv__(self, k):
        if not isinstance(k, _SCALARS):
            return NotImplemented
        return Mat2(self.a / k, self.b / k, self.c / k, self.d / k)

    def __neg__(self):
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def __abs__(self):
        return Mat2(abs(self.a), abs(self.b), abs(self.c), abs(self.d))

    def __getitem__(self, key):
        i, j = key
        return ((self.a, self.b), (self.c, self.d))[i][j]

    def max(self):
        """Largest entry."""
        return max(self.a, self.b, self.c, self.d)

    def conj(self) -> Mat2:
        return Mat2(self.a.conjugate(), self.b.conjugate(), self.c.conjugate(), self.d.conjugate())

    @property
    def T(self) -> Mat2:
        return Mat2(self.a, self.c, self.b, self.d)

    def __array__(self, dtype=None, copy=None):
        import numpy as np  # only a caller that already uses numpy gets here

        return np.array([[self.a, self.b], [self.c, self.d]], dtype=complex if dtype is None else dtype)

    def __repr__(self) -> str:
        return f"Mat2([[{self.a!r}, {self.b!r}], [{self.c!r}, {self.d!r}]])"


class GeneratorSet:
    """Matrix carriers of the raising, Cartan and lowering generators."""

    __slots__ = ("m_plus", "m_c", "m_minus")

    def __init__(self, m_plus: Mat2, m_c: Mat2, m_minus: Mat2):
        self.m_plus = m_plus
        self.m_c = m_c
        self.m_minus = m_minus


def generators_for(algebra: AlgebraKind) -> GeneratorSet:
    """Traceless 2x2 generator triple for the given algebra.

    The commutation relations are re-checked on every build; a failure here
    is a defect in the tables below, not a runtime condition.
    """
    raising = Mat2(0j, 1 + 0j, 0j, 0j)
    lowering = Mat2(0j, 0j, 1 + 0j, 0j)
    cartan = Mat2(0.5 + 0j, 0j, 0j, -0.5 + 0j)
    if algebra is AlgebraKind.SU2:
        gens = GeneratorSet(raising, cartan, lowering)
    elif algebra is AlgebraKind.SU11:
        gens = GeneratorSet(raising, cartan, -lowering)
    else:
        # so(2,1) is the su(1,1) triple rescaled by (a, b) with a*a = i*b/2
        # and b = i, hence a = i/sqrt(2).
        a = 1j / math.sqrt(2.0)
        gens = GeneratorSet(a * raising, 1j * cartan, a * (-lowering))
    _assert_commutators(algebra, gens)
    return gens


def _assert_commutators(algebra: AlgebraKind, gens: GeneratorSet) -> None:
    def comm(x: Mat2, y: Mat2) -> Mat2:
        return x @ y - y @ x

    def close(x: Mat2, y: Mat2) -> bool:
        return abs(x - y).max() <= 1e-15

    eps, delta = algebra.epsilon, algebra.delta
    assert close(comm(gens.m_minus, gens.m_plus), 2 * eps * gens.m_c)
    assert close(comm(gens.m_c, gens.m_plus), delta * gens.m_plus)
    assert close(comm(gens.m_c, gens.m_minus), -delta * gens.m_minus)
    for m in (gens.m_plus, gens.m_c, gens.m_minus):
        assert abs(m.a + m.d) <= 1e-15


def mat_exp(m) -> Mat2:
    """Exponential of a 2x2 complex matrix (a Mat2, an ndarray or nested lists) in closed form.

    Splits off the trace and uses the Cayley-Hamilton identity for the
    traceless part m0: m0 @ m0 = s^2 I with s^2 = -det(m0), so
    exp(m0) = cosh(s) I + (sinh(s)/s) m0.  Both coefficients are even in s,
    which makes the branch of the square root irrelevant; a short even series
    covers the region where sinh(s)/s would lose digits.
    """
    try:
        m = Mat2.of(m)
        a, b, c, d = m.a, m.b, m.c, m.d
        finite = cmath.isfinite(a) and cmath.isfinite(b) and cmath.isfinite(c) and cmath.isfinite(d)
    except OverflowError:  # an integer entry beyond double range
        finite = False
    if not finite:
        raise NonFiniteInput("matrix entries must be finite")
    half_trace = 0.5 * (a + d)
    a0, d0 = a - half_trace, d - half_trace
    s_sq = b * c - a0 * d0
    s = cmath.sqrt(s_sq)
    try:
        if abs(s) < _SERIES_S_THRESHOLD:
            cosh_s = sum(s_sq**k / math.factorial(2 * k) for k in range(6))
            sinhc_s = sum(s_sq**k / math.factorial(2 * k + 1) for k in range(6))
        else:
            cosh_s = cmath.cosh(s)
            sinhc_s = cmath.sinh(s) / s
        e = cmath.exp(half_trace)
    except OverflowError:  # finite entries whose exponential leaves double range
        raise NonFiniteInput("matrix exponential leaves double range") from None
    es = e * sinhc_s
    return Mat2(e * (cosh_s + sinhc_s * a0), es * b, es * c, e * (cosh_s + sinhc_s * d0))


def element_matrix(g: GroupElement) -> Mat2:
    """Matrix of a normal-ordered element, scalar prefactor included."""
    gens = generators_for(g.algebra)
    ordered = (
        mat_exp(g.big_plus * gens.m_plus)
        @ mat_exp(g.log_c * gens.m_c)
        @ mat_exp(g.big_minus * gens.m_minus)
    )
    try:
        return cmath.exp(g.phase) * ordered
    except OverflowError:  # a finite phase whose exp() leaves double range
        raise NonFiniteInput("group element matrix leaves double range") from None


def exponent_matrix(algebra: AlgebraKind, lam: ExponentParams) -> Mat2:
    """Matrix of the single exponential with the given coordinates."""
    gens = generators_for(algebra)
    return mat_exp(
        lam.lambda_plus * gens.m_plus
        + lam.lambda_c * gens.m_c
        + lam.lambda_minus * gens.m_minus
    )
