"""Squeezing and rotation operators over su(1,1), and their factorization.

A squeezing operator with magnitude r and phase phi is the normal-ordered
element (-e^{i phi} tanh r, sech^2 r, e^{-i phi} tanh r); a rotation by phi
is Cartan-only with coordinate e^{2 i phi} and a scalar prefactor
exp(-i phi / 2).  The product of two squeezes is generally not a squeeze but
factors as squeeze times rotation; :func:`factor_squeeze_rotation` recovers
that factorization, keeping the leftover scalar explicit so recomposition is
exact including the prefactor.
"""

from __future__ import annotations

import cmath
import math

from .algebra import AlgebraKind, GroupElement, _Frozen, _set, identity_element
from .compose import compose_pair
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


def _wrap_angle(theta: float) -> float:
    """Wrap to (-pi, pi]; the tie at -pi maps to +pi."""
    wrapped = math.remainder(theta, math.tau)
    if wrapped <= -math.pi:
        wrapped += math.tau
    return wrapped


class SqueezeParams(_Frozen):
    """Squeeze magnitude and phase, normalized so r >= 0 and phi in (-pi, pi]."""

    __slots__ = ("r", "phi")

    def __init__(self, r: float, phi: float = 0.0):
        try:
            r, phi = float(r), float(phi)
            ok = math.isfinite(r) and math.isfinite(phi)
        except OverflowError:  # an integer beyond double range
            ok = False
        if not ok:
            raise NonFiniteInput("squeeze parameters must be finite")
        if r < 0:
            # z = r e^{i phi} is what matters; fold the sign into the phase
            r, phi = -r, phi + math.pi
        _set(self, "r", r)
        _set(self, "phi", _wrap_angle(phi))

    @property
    def z(self) -> complex:
        return self.r * cmath.exp(1j * self.phi)


class RotationParams(_Frozen):
    """Rotation angle, normalized to (-pi, pi]."""

    __slots__ = ("angle",)

    def __init__(self, angle: float):
        try:
            angle = float(angle)
            ok = math.isfinite(angle)
        except OverflowError:  # an integer beyond double range
            ok = False
        if not ok:
            raise NonFiniteInput("rotation angle must be finite")
        _set(self, "angle", _wrap_angle(angle))


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
        _set(self, "squeeze", squeeze)
        _set(self, "rotation", rotation)
        _set(self, "phase_shift", phase_shift)
        _set(self, "residual", residual)

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
        log_c=-2.0 * log_cosh_r,
        big_minus=tanh_r * phase_factor.conjugate(),
    )


def rotation_element(p: RotationParams) -> GroupElement:
    """Cartan-only su(1,1) element of the rotation operator.

    The operator carries a scalar prefactor exp(-i angle / 2) on top of its
    normal-ordered part; it lives in the phase field.
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

    The squeeze part is read off the raising coordinate (e^{i phi} tanh r =
    -L+).  The rotation angle is fixed by the Cartan coordinate only up to
    half a turn, because adding pi to it changes nothing but the scalar
    prefactor; the candidate whose leftover scalar is closer to unity wins,
    which reproduces the closed-form angle for squeeze products and the exact
    angle for pure rotations.  Raises NotFactorizable for elements outside
    the squeeze-rotation orbit.
    """
    if g.algebra is not AlgebraKind.SU11:
        raise NotFactorizable("only su(1,1) elements factor as squeeze times rotation")
    if not g.is_finite():
        raise NonFiniteInput("group element coordinates must be finite")
    mag_plus, mag_minus = abs(g.big_plus), abs(g.big_minus)
    if abs(mag_plus - mag_minus) > _TOL_MAGNITUDE * max(1.0, mag_plus, mag_minus):
        raise NotFactorizable(
            "raising and lowering magnitudes differ: "
            f"|{mag_plus:.6g}| vs |{mag_minus:.6g}|"
        )
    if mag_plus >= 1.0:
        raise NotFactorizable(f"no real squeeze magnitude for |L+| = {mag_plus:.6g}")

    r = math.atanh(mag_plus)
    phi = cmath.phase(-g.big_plus) if r > 0 else 0.0
    squeeze = SqueezeParams(r, phi)

    # exp(2i angle) = Lambda_c cosh^2 r when g factors; the half-angle leaves
    # two candidates a half turn apart.
    try:
        doubled = g.big_c() * math.cosh(r) ** 2
    except OverflowError:  # |Lambda_c| = exp(Re log_c) leaves double range, far above sech^2 r <= 1
        raise NotFactorizable(
            f"no squeeze-rotation form: Lambda_c = exp({g.log_c:.6g}) leaves double range"
        ) from None
    half = 0.5 * cmath.phase(doubled)
    candidates = []
    for angle in (half, half + math.pi):
        rotation = RotationParams(angle)
        shift = g.phase + 0.5j * rotation.angle
        candidates.append((abs(cmath.exp(shift) - 1.0), rotation, shift))
    _, rotation, shift = min(candidates, key=lambda c: c[0])

    redone = SqueezeRotationFactorization(squeeze, rotation, phase_shift=shift).recompose()
    residual = max(
        abs(redone.big_plus - g.big_plus),
        abs(redone.big_c() - g.big_c()),
        abs(redone.big_minus - g.big_minus),
        abs(cmath.exp(redone.phase) - cmath.exp(g.phase)),
    )
    if residual > _TOL_RESIDUAL:
        raise NotFactorizable(
            f"recomposition residual {residual:.3e} exceeds {_TOL_RESIDUAL:.1e}"
        )
    return SqueezeRotationFactorization(squeeze, rotation, shift, residual)
