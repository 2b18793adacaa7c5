"""Fixed references and helpers shared by the tests, each defined only here.

``tests/reference.py`` computes what the results should be, in extended
precision and independently of bchkit's kernels.  This module instead holds
what the tests compare with and draw from: the bit patterns of complex
numbers and group elements, the pair product as first written (the fold
must keep its bits), the uniform-square draws of exponents and elements, and
the copies of a value by pickle and copy, the entrywise bound on a 2x2
matrix, and a float subclass for the numeric boundary.  It runs on the
standard library: a draw takes the caller's ``random.Random``.
"""

import cmath
import copy
import pickle
import random
import struct

from bchkit import ExponentParams, GroupElement, disentangle


def complex_bits(z: complex) -> bytes:
    """The exact bit pattern of z's two parts, signed zeros included."""
    return struct.pack("<dd", z.real, z.imag)


def element_bits(g: GroupElement) -> tuple:
    """g's algebra and the exact bit patterns of its four coordinates."""
    return (g.algebra,) + tuple(complex_bits(z) for z in (g.big_plus, g.log_c, g.big_minus, g.phase))


def frozen_pair_product(g2: GroupElement, g1: GroupElement) -> GroupElement:
    """compose_pair's arithmetic as first written, unguarded, on one pair (g1 acts first)."""
    eps, delta = g1.algebra.epsilon, g1.algebra.delta
    d = 1.0 - eps * delta * g1.big_plus * g2.big_minus
    pow_c1 = cmath.exp(delta * g1.log_c)
    pow_c2 = cmath.exp(delta * g2.log_c)
    return GroupElement(
        g1.algebra,
        g2.big_plus + g1.big_plus * pow_c2 / d,
        g1.log_c + g2.log_c - (2.0 / delta) * cmath.log(d),
        g1.big_minus + g2.big_minus * pow_c1 / d,
        g1.phase + g2.phase,
    )


def random_complex(rng: random.Random, bound=1.0) -> complex:
    """A complex number whose real and imaginary parts are two ``rng.uniform(-bound, bound)`` draws."""
    return complex(rng.uniform(-bound, bound), rng.uniform(-bound, bound))


def random_params(rng: random.Random, scale=0.5) -> ExponentParams:
    """An exponent whose three coordinates are random_complex draws within ``scale``."""
    return ExponentParams(*(random_complex(rng, scale) for _ in range(3)))


def random_element(rng: random.Random, kind, scale=0.5) -> GroupElement:
    """The disentangled element of a random_params exponent on algebra ``kind``."""
    return disentangle(kind, random_params(rng, scale)).element


def clones(value) -> list:
    """Copies of ``value`` made by every pickle protocol, copy.copy and copy.deepcopy."""
    pickled = [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    return pickled + [copy.copy(value), copy.deepcopy(value)]


def assert_close(actual, desired, atol=0.0) -> None:
    """Fail unless each entry of the Mat2 ``actual`` is within ``atol + 1e-7 |desired|`` of ``desired``'s.

    The bound of an allclose check with rtol 1e-7, entry by entry; a NaN fails it.
    """
    for field in ("a", "b", "c", "d"):
        x, y = getattr(actual, field), getattr(desired, field)
        assert abs(x - y) <= atol + 1e-7 * abs(y), (field, x, y)


class Float(float):
    """A float subclass: a float that fails ``x.__class__ is float``, so it takes the conversion."""
