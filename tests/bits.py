"""Print one SHA-256 over a seeded battery of bchkit's public outputs.

Run from anywhere, with no argument:

    python tests/bits.py

Every call of the battery is hashed: a result by the bits of every number
in it, a raise by its type, its message and the attributes a
SingularDecomposition carries.  A change that must keep every result bit
for bit (a refactor, a speedup) prints the same digest before and after;
run it on both trees and compare.  The battery uses the standard library
only, and the name has no ``test_`` prefix, so pytest does not collect it.

Inputs that were meant to change behaviour are left out, so the digest stays
comparable across such a change: non-finite group element coordinates are
built inside the call that uses them (whichever step refuses them, the
caller sees one error), and only where no earlier fault of the same call
could raise first.
"""

from __future__ import annotations

import hashlib
import math
import random
import struct
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from bchkit import (
    AlgebraKind,
    ExponentParams,
    GroupElement,
    HamiltonianSchedule,
    RotationParams,
    SqueezeParams,
    SqueezeRotationFactorization,
    alpha_continued_fraction,
    compose_many,
    compose_pair,
    compose_squeezes,
    disentangle,
    element_matrix,
    evolve,
    exponent_matrix,
    factor_squeeze_rotation,
    identity_element,
    oscillator_schedule,
    rotation_element,
    squeeze_element,
    step_element,
)

SEED = 20261020
ALGEBRAS = list(AlgebraKind)
SU11 = AlgebraKind.SU11


def _feed(h, value) -> None:
    """Hash ``value`` by type and bits, recursing into the package's value types."""
    if value is None or isinstance(value, (bool, str)):
        h.update(repr(value).encode())
    elif isinstance(value, int):
        h.update(b"i" + str(value).encode())
    elif isinstance(value, float):
        h.update(b"f" + struct.pack("<d", value))
    elif isinstance(value, complex):
        h.update(b"c" + struct.pack("<dd", value.real, value.imag))
    elif isinstance(value, AlgebraKind):
        h.update(value.value.encode())
    elif isinstance(value, (tuple, list)):
        h.update(b"(%d" % len(value))
        for item in value:
            _feed(h, item)
    elif hasattr(value, "__slots__"):  # the value types and Mat2
        h.update(type(value).__name__.encode())
        for name in value.__slots__:
            _feed(h, getattr(value, name))
    else:
        raise TypeError(f"cannot hash {type(value).__name__}")


def _call(h, label: str, thunk) -> None:
    """Hash ``thunk()``'s result, or the type, message and attributes of what it raises."""
    h.update(label.encode())
    try:
        result = thunk()
    except Exception as exc:  # every raise is part of the record
        h.update(b"!" + type(exc).__name__.encode() + str(exc).encode())
        for name in ("denominator_abs", "step", "time"):
            _feed(h, getattr(exc, name, None))
    else:
        _feed(h, result)


def _complex(rng, scale) -> complex:
    return complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))


def _element(rng, algebra, scale, phase_scale=0.0) -> GroupElement:
    return GroupElement(
        algebra, _complex(rng, scale), _complex(rng, scale), _complex(rng, scale), _complex(rng, phase_scale)
    )


def disentangle_battery(h, rng) -> None:
    for algebra in ALGEBRAS:
        for scale in (1e-6, 1e-3, 0.5, 3.0, 30.0, 400.0):
            for _ in range(60):
                lam = ExponentParams(_complex(rng, scale), _complex(rng, scale), _complex(rng, scale))
                _call(h, "disentangle", lambda: disentangle(algebra, lam))
                _call(h, "exponent_matrix", lambda: exponent_matrix(algebra, lam))
        # triangular, integer and non-finite exponents
        for lam in ((0.3, 0, 0), (0, 2, 0.1), (1, 0, 1), (0.5j, 800, 0), (1e300, 1e10, 0),
                    (math.nan, 0, 0), (0, math.inf, 0), (1e200, 0, 1e200)):
            _call(h, "disentangle-edge", lambda: disentangle(algebra, ExponentParams(*lam)))


def compose_battery(h, rng) -> None:
    for algebra in ALGEBRAS:
        for scale in (0.1, 0.6, 2.0, 30.0):
            for _ in range(40):
                g1, g2 = _element(rng, algebra, scale, 0.5), _element(rng, algebra, scale, 0.5)
                _call(h, "compose_pair", lambda: compose_pair(g2, g1))
                _call(h, "element_matrix", lambda: element_matrix(g1))
        for length in (1, 2, 3, 5, 8, 13, 34, 89, 233):
            for scale in (0.05, 0.3, 0.9):
                elements = [_element(rng, algebra, scale, 0.3) for _ in range(length)]
                _call(h, "compose_many", lambda: compose_many(elements))
                _call(h, "alpha_continued_fraction", lambda: alpha_continued_fraction(elements))
        # disentangled steps, as evolve folds them
        lams = [ExponentParams(*(_complex(rng, 0.05) for _ in range(3))) for _ in range(200)]
        steps = [disentangle(algebra, lam).element for lam in lams]
        _call(h, "compose_many-steps", lambda: compose_many(steps))
        _call(h, "alpha_continued_fraction-steps", lambda: alpha_continued_fraction(steps))

    ident = identity_element(SU11)
    h_el = GroupElement(SU11, 0.1 + 0j, 0j, 0.1 + 0j)
    raiser, lowerer = GroupElement(SU11, 1.0 + 0j, 0j, 0j), GroupElement(SU11, 0j, 0j, 1.0 + 0j)
    big_phase = GroupElement(SU11, 0j, 0j, 0j, 1e308 + 0j)
    faults = {
        "singular": lambda: [ident, raiser, lowerer, h_el],
        "overflowing-phase-sum": lambda: [h_el, big_phase, big_phase, raiser, lowerer],
        "huge-power": lambda: [h_el, GroupElement(SU11, 0.1 + 0j, 800 + 0j, 0.1 + 0j), h_el],
        "overflowing-product": lambda: [GroupElement(SU11, 1e300 + 0j, 700 + 0j, 0j)] * 2,
        "value-beyond-double-range": lambda: [GroupElement(SU11, 1.5e308 + 1.5e308j, 0j, 0j), h_el],
        "mixed-algebras": lambda: [ident, h_el, identity_element(AlgebraKind.SO21)],
        "empty": lambda: [],
        "integer-beyond-double-range": lambda: [h_el, GroupElement(SU11, 0, -(10**400), 0)],
        # the fold step's edge routes: a power exp(800) beside a plain nonzero term, |d| past
        # 2**1022 with finite parts, |d| beyond the largest double, d itself not finite, and
        # the continued fraction's partial denominator past 2**1022
        "power-beside-a-term": lambda: [GroupElement(SU11, 0.5, 800, 0), GroupElement(SU11, 0.1, 0, 1e-300)],
        "d-beyond-smith-bound": lambda: [GroupElement(SU11, 1e300, 0.5j, 0.2), GroupElement(SU11, 0.1, 2, 1e8)],
        "d-modulus-beyond": lambda: [GroupElement(SU11, 1.5e300, 0, 0), GroupElement(SU11, 0, 0, 1e8 + 1e8j)],
        "d-not-finite": lambda: [GroupElement(SU11, 1e200 + 1e200j, 0.1j, 0.2), GroupElement(SU11, 0.3, -0.2, 1e200j)],
        "fraction-beyond-smith-bound": lambda: [
            GroupElement(SU11, 1, 0, 0), GroupElement(SU11, 0, 100, 1.7e308 + 1.7e308j)
        ],
    }
    # a non-finite field, reached after finite, non-singular elements only
    for value in (math.nan, math.inf, -math.inf):
        for index in range(4):
            fields = [0.1 + 0j, 0j, 0.1 + 0j, 0j]
            fields[index] = complex(value, 0) if index % 2 else complex(0, value)
            for name, before in (("first", []), ("after-identity", [ident]), ("mid", [h_el, h_el])):
                faults[f"{index}={value}-{name}"] = (
                    lambda fields=fields, before=before: [*before, GroupElement(SU11, *fields), h_el]
                )
    for name, build in faults.items():
        _call(h, f"compose_many-{name}", lambda: compose_many(build()))
        _call(h, f"alpha_continued_fraction-{name}", lambda: alpha_continued_fraction(build()))
        _call(h, f"compose_pair-{name}", lambda: compose_pair(*build()[-2:]))
    for value in (math.nan, math.inf):
        _call(h, "element_matrix-phase", lambda: element_matrix(GroupElement(SU11, 0j, 0j, 0j, complex(value, 0))))
        _call(h, "factor-non-finite", lambda: factor_squeeze_rotation(GroupElement(SU11, complex(value, 0), 0j, 0j)))
    _call(h, "element_matrix-phase-800", lambda: element_matrix(GroupElement(SU11, 0, 0, 0, 800)))


def _polynomial_eta(rng, scale):
    coefficients = [[_complex(rng, scale) for _ in range(3)] for _ in range(3)]
    return lambda t: tuple(c0 + c1 * t + c2 * t * t for c0, c1, c2 in coefficients)


def evolve_battery(h, rng) -> None:
    for algebra in ALGEBRAS:
        for _ in range(12):
            eta = _polynomial_eta(rng, rng.choice((0.2, 1.0, 3.0)))
            schedule = HamiltonianSchedule(algebra, eta, rng.uniform(0.1, 5.0))
            steps = rng.randint(1, 300)
            stride = rng.choice((None, 1, 7, steps, steps + 3))
            midpoint = rng.random() < 0.3
            _call(h, "evolve", lambda: evolve(schedule, steps, checkpoint_every=stride, midpoint=midpoint))
            _call(h, "step_element", lambda: step_element(algebra, eta(0.5), schedule.t_final / steps))
        constant = HamiltonianSchedule(algebra, lambda t: (0.3 + 0j, 1.1 + 0j, -0.2j), 2.0)
        for steps, stride, midpoint in ((1, None, False), (64, 8, False), (64, 8, True), (100, 100, True)):
            _call(h, "evolve-constant", lambda: evolve(constant, steps, checkpoint_every=stride, midpoint=midpoint))
    resonant = HamiltonianSchedule(AlgebraKind.SU2, lambda t: (1.0, 0.0, 1.0), math.pi)
    _call(h, "evolve-resonant", lambda: evolve(resonant, 256, checkpoint_every=32))
    oscillator = oscillator_schedule(1.0, lambda t: 1.0 + 0.3 * math.sin(t), 3.0)
    for steps, stride, midpoint in ((50, None, False), (200, 16, True)):
        _call(h, "evolve-oscillator", lambda: evolve(oscillator, steps, checkpoint_every=stride, midpoint=midpoint))
    for bad in (0, 2.0, -3):
        _call(h, "evolve-bad-steps", lambda: evolve(oscillator, bad))
    _call(h, "evolve-bad-stride", lambda: evolve(oscillator, 10, checkpoint_every=0))
    overflowing = HamiltonianSchedule(SU11, lambda t: (0.1, 10**400 if t > 0.5 else 0.2, 0.1), 1.0)
    _call(h, "evolve-integer-eta", lambda: evolve(overflowing, 4))


def squeeze_battery(h, rng) -> None:
    for _ in range(150):
        z1 = SqueezeParams(rng.uniform(-3.0, 3.0), rng.uniform(-10.0, 10.0))
        z2 = SqueezeParams(rng.uniform(0.0, 3.0), rng.uniform(-4.0, 4.0))
        rotation = RotationParams(rng.uniform(-20.0, 20.0))
        _call(h, "squeeze_element", lambda: squeeze_element(z1))
        _call(h, "rotation_element", lambda: rotation_element(rotation))
        _call(h, "compose_squeezes", lambda: compose_squeezes(z2, z1))
        _call(h, "factor", lambda: factor_squeeze_rotation(compose_squeezes(z2, z1)))
        _call(h, "factor-random", lambda: factor_squeeze_rotation(_element(rng, SU11, 0.5, 0.5)))
        shift = _complex(rng, 1.0)
        _call(h, "recompose", lambda: SqueezeRotationFactorization(z1, rotation, shift).recompose())
    for r in (0.0, 8.0, 15.0, 19.1, 30.0, 800.0, 1e5):
        _call(h, "squeeze-large", lambda: squeeze_element(SqueezeParams(r, 0.25)))
        _call(h, "factor-large", lambda: factor_squeeze_rotation(squeeze_element(SqueezeParams(r, 0.25))))
    for field in ("r", "phi", "angle"):
        for bad in (math.nan, math.inf, 10**400, "1"):
            make = (lambda: RotationParams(bad)) if field == "angle" else (
                lambda: SqueezeParams(**{"r": 0.5, "phi": 0.5, field: bad})
            )
            _call(h, f"squeeze-params-{field}", make)
    _call(h, "rotation-wrapped", lambda: rotation_element(RotationParams(1e308)))
    _call(h, "factor-other-algebra", lambda: factor_squeeze_rotation(identity_element(AlgebraKind.SU2)))


def main() -> None:
    h = hashlib.sha256()
    rng = random.Random(SEED)
    for battery in (disentangle_battery, compose_battery, evolve_battery, squeeze_battery):
        battery(h, rng)
    print(h.hexdigest())


if __name__ == "__main__":
    main()
