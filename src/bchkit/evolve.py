"""Product-formula time evolution for Hamiltonians linear in the generators.

A Hamiltonian H(t) = eta_plus(t) T+ + eta_c(t) Tc + eta_minus(t) T- generates
a time-evolution operator that is approximated by slicing [0, t_final] into N
equal steps, disentangling each short exponential exp(-i tau H(t_j)) into
normal-ordered coordinates, and folding the steps in time order.  The result
is exact for constant coefficients and first-order accurate otherwise, with
the step coefficients sampled at the right endpoint by default.
"""

from __future__ import annotations

import math
from itertools import islice
from operator import index
from typing import Callable, Optional

from .algebra import AlgebraKind, GroupElement, _as_complex, _as_float, _Frozen, _setters, identity_element
from .compose import _disentangle_raw, _fold
from .errors import InvalidFrequency, SingularDecomposition

__all__ = [
    "HamiltonianSchedule",
    "EvolutionResult",
    "step_element",
    "evolve",
    "default_checkpoint_stride",
    "oscillator_schedule",
]

EtaTriple = tuple[complex, complex, complex]


class HamiltonianSchedule(_Frozen):
    """Generator coefficients of H(t) on [0, t_final], as a pure function of t.

    ``eta`` maps a time to the (eta_plus, eta_c, eta_minus) triple; it must be
    evaluable everywhere on the interval and free of hidden state, since the
    evolution loop samples it at times the caller never sees.  ``t_final``
    becomes a float here, or raises ValueError unless positive and finite.
    """

    __slots__ = ("algebra", "eta", "t_final")

    def __init__(self, algebra: AlgebraKind, eta: Callable[[float], EtaTriple], t_final: float):
        value = _as_float("t_final", t_final)
        if not 0 < value < math.inf:  # a NaN fails too
            raise ValueError(f"t_final must be positive and finite, got {t_final}")
        _set_algebra(self, algebra)
        _set_eta(self, eta)
        _set_t_final(self, value)


_set_algebra, _set_eta, _set_t_final = _setters(HamiltonianSchedule)


class EvolutionResult(_Frozen):
    """Final composed element plus the discretization that produced it."""

    __slots__ = ("element", "steps", "tau", "trajectory")

    def __init__(
        self, element: GroupElement, steps: int, tau: float, trajectory: Optional[tuple] = None
    ):
        _set_element(self, element)
        _set_steps(self, steps)
        _set_tau(self, tau)
        _set_trajectory(self, trajectory)


_set_element, _set_steps, _set_tau, _set_trajectory = _setters(EvolutionResult)


def step_element(algebra: AlgebraKind, eta_j, tau: float) -> GroupElement:
    """Normal-ordered exp(-i tau H_j) for any real tau: evolve's slice, from the same generator."""
    return GroupElement(algebra, *next(_slices(algebra, lambda t: eta_j, 1, _as_float("tau", tau), False)))


def _check_count(name: str, value) -> int:
    """``value`` as a plain int; raise unless it is an integer from 1 to double range."""
    try:
        count = index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if not _as_float(name, count) >= 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return count


def default_checkpoint_stride(steps: int) -> int:
    """Trajectory thinning that bounds stored checkpoints to about 100."""
    return max(1, steps // 100)


def evolve(
    schedule: HamiltonianSchedule,
    steps: int,
    checkpoint_every: Optional[int] = None,
    midpoint: bool = False,
) -> EvolutionResult:
    """Fold N per-step elements into the evolution operator over [0, t_final].

    Steps are applied in time order, each new one acting after the running
    product.  Slices are disentangled as they are reached and folded by the
    same raw-coordinate fold as :func:`bchkit.compose.compose_many`;
    step_element is the same slice, so the result and every checkpoint are
    bit for bit what compose_many gives over the step_element of each slice; a
    singular slice or product is reported with its step and right-endpoint
    time; a slice or product that overflows raises NonFiniteInput, without
    them.  ``checkpoint_every`` = k, an integer, records the running
    element every k steps (plus the start and the end) in the trajectory:
    the fold runs k slices at a time, seeded with the product so far, and
    gives the bits of one fold.
    ``midpoint`` samples eta at interval midpoints instead of right
    endpoints; that is a second-order variant beyond the plain product
    formula and is off by default.
    """
    steps = _check_count("steps", steps)
    algebra = schedule.algebra
    stride, trajectory = steps, None
    if checkpoint_every is not None:
        stride = _check_count("checkpoint stride", checkpoint_every)
        trajectory = [(0.0, identity_element(algebra))]

    tau = schedule.t_final / steps
    slices = _slices(algebra, schedule.eta, steps, tau, midpoint)
    acc, done = None, 0  # the product of the first ``done`` slices
    try:
        while steps - done > stride:
            acc = _fold(algebra, islice(slices, stride), acc, done)
            done += stride
            trajectory.append((done * tau, GroupElement(algebra, *acc)))
        acc = _fold(algebra, slices, acc, done)
    except SingularDecomposition as exc:
        t_right = exc.step * tau
        raise SingularDecomposition(
            f"evolution singular at step {exc.step} of {steps} (t = {t_right:.6g})",
            denominator_abs=exc.denominator_abs,
            step=exc.step,
            time=t_right,
        ) from exc

    element = GroupElement(algebra, *acc)
    if trajectory is not None:
        trajectory = (*trajectory, (steps * tau, element))
    return EvolutionResult(element=element, steps=steps, tau=tau, trajectory=trajectory)


def _slices(algebra: AlgebraKind, eta, steps: int, tau: float, midpoint: bool):
    """Coordinate tuples of the N slices of float width tau, earliest first, disentangled as reached.

    The tuples are finite, as _disentangle_raw returns them; a singular
    slice raises its SingularDecomposition with ``step`` set to its 1-based j.
    Each eta value becomes a complex number through _as_complex, after one
    inline class test that passes three complex values without a call.
    """
    kernel = algebra._kernel
    minus_i_tau = -1j * tau
    shift = 0.5 * tau if midpoint else 0.0  # j*tau - 0.0 is j*tau, bit for bit
    for j in range(1, steps + 1):
        t = j * tau - shift
        eta_plus, eta_c, eta_minus = values = eta(t)
        if not eta_plus.__class__ is eta_c.__class__ is eta_minus.__class__ is complex:
            eta_plus, eta_c, eta_minus = map(
                _as_complex, ("eta_plus", "eta_c", "eta_minus"), values, (t, t, t)
            )
        try:
            big_plus, log_c, big_minus, _ = _disentangle_raw(
                kernel, minus_i_tau * eta_plus, minus_i_tau * eta_c, minus_i_tau * eta_minus
            )
        except SingularDecomposition as exc:
            exc.step = j
            raise
        yield big_plus, log_c, big_minus


def oscillator_schedule(
    omega0: float,
    omega_of_t: Callable[[float], float],
    t_final: float,
) -> HamiltonianSchedule:
    """su(1,1) schedule of a harmonic oscillator with drifting frequency.

    The Hamiltonian p^2/2 + omega(t)^2 q^2/2 is expanded in the generators
    built at a fixed reference frequency omega0, giving

        eta_plus = eta_minus = (omega(t)^2 - omega0^2) / (2 omega0),
        eta_c = (omega(t)^2 + omega0^2) / omega0.

    At omega = omega0 the coupling terms vanish and H reduces to
    2 omega0 Tc, the static oscillator.
    """
    omega0 = _as_float("omega0", omega0)
    if not (math.isfinite(omega0) and omega0 > 0):
        raise InvalidFrequency(f"reference frequency must be positive, got {omega0}")
    omega0_sq, two_omega0, inf = omega0 * omega0, 2.0 * omega0, math.inf

    def eta(t: float):
        omega = omega_of_t(t)
        if omega.__class__ is not float:
            omega = _as_float("omega", omega, t)
        if not 0.0 < omega < inf:  # a NaN fails too
            raise InvalidFrequency(f"omega({t:.6g}) = {omega} is not positive")
        omega_sq = omega * omega
        coupling = complex((omega_sq - omega0_sq) / two_omega0)
        return (coupling, complex((omega_sq + omega0_sq) / omega0), coupling)

    return HamiltonianSchedule(AlgebraKind.SU11, eta, t_final)
