"""Squeezing and rotation operators over su(1,1), and their factorization.

A squeezing operator with magnitude r and phase phi is the normal-ordered
element (-e^{i phi} tanh r, sech^2 r, e^{-i phi} tanh r); a rotation by phi
is Cartan-only with coordinate e^{2 i phi} and a scalar prefactor
exp(-i phi / 2).  The product of two squeezes is generally not a squeeze but
factors as squeeze times rotation; :func:`factor_squeeze_rotation` recovers
that factorization at any magnitude, keeping the leftover scalar explicit so
recomposition is exact including the prefactor.
"""

from __future__ import annotations

import cmath
import math

from .algebra import (
    AlgebraKind, GroupElement, _as_complex, _as_float, _Frozen, _setters, identity_element,
)
from .compose import _principal, compose_pair
from .errors import NonFiniteInput, NotFactorizable

__all__ = [
    "SqueezeParams",
    "RotationParams",
    "SqueezeRotationFactorization",
    "squeeze_element",
    "rotation_element",
    "compose_squeezes",
    "factor_squeeze_rotation",
]

# Factorizability thresholds: the magnitude condition |L+| = |L-| is a sharp
# structural test, the recomposition residual catches everything else.
_TOL_MAGNITUDE = 1e-10
_TOL_RESIDUAL = 1e-8

_LN2 = math.log(2.0)


class SqueezeParams(_Frozen):
    """Squeeze magnitude and phase, normalized so r >= 0 and phi in (-pi, pi].

    phi is reduced exactly at any magnitude, as cmath.exp(1j*phi) sees the
    double given, and a negative r folds its sign into phi by a half turn.
    """

    __slots__ = ("r", "phi")

    def __init__(self, r: float, phi: float = 0.0):
        r, phi = _as_float("r", r), _as_float("phi", phi)
        if not (math.isfinite(r) and math.isfinite(phi)):
            raise NonFiniteInput("squeeze parameters must be finite")
        phi = _principal(phi)
        if r < 0:
            # z = r e^{i phi} is what matters; fold the sign into the phase by a half turn in range
            r, phi = -r, phi - math.pi if phi > 0 else phi + math.pi
        _set_r(self, r)
        _set_phi(self, math.pi if phi == -math.pi else phi)

    @property
    def z(self) -> complex:
        return self.r * cmath.exp(1j * self.phi)


_set_r, _set_phi = _setters(SqueezeParams)


class RotationParams(_Frozen):
    """Rotation angle, reduced to (-pi, pi] exactly at any magnitude.

    An angle is a rotation modulo 2 pi: the double given and its reduction
    name the same rotation, as cmath.exp(1j*angle) sees them.
    """

    __slots__ = ("angle",)

    def __init__(self, angle: float):
        angle = _as_float("angle", angle)
        if not math.isfinite(angle):
            raise NonFiniteInput("rotation angle must be finite")
        angle = _principal(angle)
        _set_angle(self, math.pi if angle == -math.pi else angle)


(_set_angle,) = _setters(RotationParams)


class SqueezeRotationFactorization(_Frozen):
    """A squeeze-after-rotation factorization of a group element.

    ``phase_shift`` is the exponent of the scalar left over by the
    factorization: the original element equals exp(phase_shift) times the
    product squeeze_element(squeeze) rotation_element(rotation).  For a
    product of two squeezes it comes out as i*angle/2, the prefactor the
    component-level factorization silently drops.  ``residual`` is the
    recomposition gap :func:`factor_squeeze_rotation` measured (None if built by hand).
    """

    __slots__ = ("squeeze", "rotation", "phase_shift", "residual")

    def __init__(
        self,
        squeeze: SqueezeParams,
        rotation: RotationParams,
        phase_shift: complex = 0j,
        residual: float | None = None,
    ):
        phase_shift = _as_complex("phase_shift", phase_shift)
        if not cmath.isfinite(phase_shift):
            raise NonFiniteInput("phase shift must be finite")
        _set_squeeze(self, squeeze)
        _set_rotation(self, rotation)
        _set_phase_shift(self, phase_shift)
        _set_residual(self, residual)

    def recompose(self) -> GroupElement:
        product = compose_pair(
            squeeze_element(self.squeeze), rotation_element(self.rotation)
        )
        return GroupElement(
            product.algebra,
            product.big_plus,
            product.log_c,
            product.big_minus,
            phase=product.phase + self.phase_shift,
        )


_set_squeeze, _set_rotation, _set_phase_shift, _set_residual = _setters(SqueezeRotationFactorization)


def squeeze_element(p: SqueezeParams) -> GroupElement:
    """Normal-ordered su(1,1) element of the squeezing operator."""
    if p.r == 0:
        return identity_element(AlgebraKind.SU11)
    tanh_r = math.tanh(p.r)
    phase_factor = cmath.exp(1j * p.phi)
    try:
        log_cosh_r = math.log(math.cosh(p.r))
    except OverflowError:  # r > 710: log cosh r = r - ln 2 + log1p(exp(-2r)), and exp(-2r) underflows
        log_cosh_r = p.r - _LN2
    return GroupElement(
        AlgebraKind.SU11,
        big_plus=-phase_factor * tanh_r,
        log_c=complex(-2.0 * log_cosh_r),
        big_minus=tanh_r * phase_factor.conjugate(),
    )


def rotation_element(p: RotationParams) -> GroupElement:
    """Cartan-only su(1,1) element of the rotation operator.

    The operator carries a scalar prefactor exp(-i angle / 2) on top of its
    normal-ordered part; it lives in the phase field.  It is taken of the
    reduced angle, so after an odd number of turns its sign differs from
    exp(-i angle / 2) of the angle given: the metaplectic sign.
    """
    return GroupElement(
        AlgebraKind.SU11,
        big_plus=0j,
        log_c=2j * p.angle,
        big_minus=0j,
        phase=-0.5j * p.angle,
    )


def compose_squeezes(z2: SqueezeParams, z1: SqueezeParams) -> GroupElement:
    """Product of two squeezing operators, z1 applied first."""
    return compose_pair(squeeze_element(z2), squeeze_element(z1))


def factor_squeeze_rotation(g: GroupElement) -> SqueezeRotationFactorization:
    """Split an su(1,1) element into squeeze times rotation, if possible.

    The squeeze phase is read off the raising coordinate (e^{i phi} tanh r =
    -L+), and r from sinh r = |L+| cosh r with log cosh r = -Re(log_c)/2, which
    keeps every digit of r as tanh r nears 1.  The rotation angle, half the
    principal Im log_c, is fixed only up to half a turn, because adding pi to
    it changes nothing but the scalar prefactor; the candidate whose leftover
    scalar exp(phase_shift) is closer to unity wins.  Both shifts share their
    real part, so that is the larger cos(Im phase_shift), at any finite phase;
    a tie keeps the first.  This reproduces the closed-form angle for squeeze
    products and the exact angle for pure rotations.  Raises NotFactorizable
    for elements outside the squeeze-rotation orbit.
    """
    if g.algebra is not AlgebraKind.SU11:
        raise NotFactorizable("only su(1,1) elements factor as squeeze times rotation")
    mag_plus, mag_minus = abs(g.big_plus), abs(g.big_minus)
    if abs(mag_plus - mag_minus) > _TOL_MAGNITUDE * max(1.0, mag_plus, mag_minus):
        raise NotFactorizable(
            "raising and lowering magnitudes differ: "
            f"|{mag_plus:.6g}| vs |{mag_minus:.6g}|"
        )
    try:
        big_c = g.big_c()
    except NonFiniteInput:  # |Lambda_c| = exp(Re log_c) leaves double range, far above sech^2 r <= 1
        raise NotFactorizable(
            f"no squeeze-rotation form: Lambda_c = exp({g.log_c:.6g}) leaves double range"
        ) from None
    # past sinh r of 1e304, asinh(x) is ln(2x) and |L+| = tanh r is 1 to the last bit
    y = -0.5 * g.log_c.real
    sinh_r = mag_plus * math.exp(y) if y < 700.0 else math.inf
    r = math.asinh(sinh_r) if sinh_r < math.inf else _LN2 + y
    phi = cmath.phase(-g.big_plus) if r > 0 else 0.0
    squeeze = SqueezeParams(r, phi)
    half = 0.5 * _principal(g.log_c.imag)
    rotation = max(
        (RotationParams(half), RotationParams(half + math.pi)),
        key=lambda rot: math.cos(g.phase.imag + 0.5 * rot.angle),
    )
    shift = g.phase + 0.5j * rotation.angle

    redone = SqueezeRotationFactorization(squeeze, rotation, phase_shift=shift).recompose()
    residual = max(
        abs(redone.big_plus - g.big_plus),
        abs(redone.big_c() - big_c),
        abs(redone.big_minus - g.big_minus),
        abs(cmath.exp(redone.phase - g.phase) - 1.0),
    )
    if residual > _TOL_RESIDUAL:
        raise NotFactorizable(
            f"recomposition residual {residual:.3e} exceeds {_TOL_RESIDUAL:.1e}"
        )
    return SqueezeRotationFactorization(squeeze, rotation, shift, residual)
