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

from .algebra import AlgebraKind, GroupElement, _Frozen, _set, identity_element
from .compose import _disentangle_raw, _fold
from .errors import InvalidFrequency, SingularDecomposition

__all__ = [
    "EtaTriple",
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
    evolution loop samples it at times the caller never sees.
    """

    __slots__ = ("algebra", "eta", "t_final")

    def __init__(self, algebra: AlgebraKind, eta: Callable[[float], EtaTriple], t_final: float):
        _set(self, "algebra", algebra)
        _set(self, "eta", eta)
        _set(self, "t_final", t_final)


class EvolutionResult(_Frozen):
    """Final composed element plus the discretization that produced it."""

    __slots__ = ("element", "steps", "tau", "trajectory")

    def __init__(
        self, element: GroupElement, steps: int, tau: float, trajectory: Optional[tuple] = None
    ):
        _set(self, "element", element)
        _set(self, "steps", steps)
        _set(self, "tau", tau)
        _set(self, "trajectory", trajectory)


def step_element(algebra: AlgebraKind, eta_j, tau: float) -> GroupElement:
    """Normal-ordered element of exp(-i tau H_j): evolve's slice, on a one-step constant schedule."""
    schedule = HamiltonianSchedule(algebra, lambda t: eta_j, tau)
    return GroupElement(algebra, *next(_slices(schedule, 1, tau, False)))


def _check_t_final(t_final) -> None:
    """Raise unless t_final is positive and finite as a double (a huge integer is not)."""
    try:
        ok = 0 < float(t_final) < math.inf
    except OverflowError:
        ok = False
    if not ok:
        raise ValueError(f"t_final must be positive and finite, got {t_final}")


def _check_count(name: str, value) -> int:
    """``value`` as a plain int; raise unless it is an integer from 1 to double range."""
    try:
        count = index(value)
        ok = float(count) >= 1
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    except OverflowError:
        bits = count.bit_length()
        raise ValueError(f"{name} must be within double range, got {bits} bits") from None
    if not ok:
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
    _check_t_final(schedule.t_final)
    algebra = schedule.algebra
    stride, trajectory = steps, None
    if checkpoint_every is not None:
        stride = _check_count("checkpoint stride", checkpoint_every)
        trajectory = [(0.0, identity_element(algebra))]

    tau = schedule.t_final / steps
    slices = _slices(schedule, steps, tau, midpoint)
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


def _slices(schedule: HamiltonianSchedule, steps: int, tau: float, midpoint: bool):
    """Coordinate tuples of the N slices, earliest first, each disentangled as it is reached."""
    eta, kernel = schedule.eta, schedule.algebra._kernel
    minus_i_tau = -1j * tau
    shift = 0.5 * tau if midpoint else 0.0  # j*tau - 0.0 is j*tau, bit for bit
    for j in range(1, steps + 1):
        eta_plus, eta_c, eta_minus = eta(j * tau - shift)
        big_plus, log_c, big_minus, _ = _disentangle_raw(
            kernel,
            minus_i_tau * (eta_plus if eta_plus.__class__ is complex else complex(eta_plus)),
            minus_i_tau * (eta_c if eta_c.__class__ is complex else complex(eta_c)),
            minus_i_tau * (eta_minus if eta_minus.__class__ is complex else complex(eta_minus)),
        )
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
    try:
        omega0 = float(omega0)
    except OverflowError:  # an integer beyond double range
        raise InvalidFrequency("reference frequency is beyond double range") from None
    if not (math.isfinite(omega0) and omega0 > 0):
        raise InvalidFrequency(f"reference frequency must be positive, got {omega0}")
    _check_t_final(t_final)

    def eta(t: float):
        omega = omega_of_t(t)
        try:
            omega = float(omega)
        except OverflowError:  # an integer beyond double range
            raise InvalidFrequency(f"omega({t:.6g}) is beyond double range") from None
        if not (math.isfinite(omega) and omega > 0):
            raise InvalidFrequency(f"omega({t:.6g}) = {omega} is not positive")
        coupling = (omega * omega - omega0 * omega0) / (2.0 * omega0)
        cartan = (omega * omega + omega0 * omega0) / omega0
        return (complex(coupling), complex(cartan), complex(coupling))

    return HamiltonianSchedule(AlgebraKind.SU11, eta, float(t_final))
