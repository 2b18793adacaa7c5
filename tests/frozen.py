"""Fixed references and helpers shared by the tests, each defined only here.

``tests/reference.py`` computes what the results should be, in extended
precision and independently of bchkit's kernels.  This module instead holds
what the tests compare with and draw from: the bit patterns of complex
numbers and group elements, the pair product as first written (the fold
must keep its bits), the uniform-square draws of exponents and elements, and
the copies of a value by pickle and copy.  It imports no numpy: a draw takes
the caller's generator, so the numpy-free CLI tests can import it too.
"""

import cmath
import copy
import pickle
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


def random_params(rng, scale=0.5) -> ExponentParams:
    """An exponent whose six real parts are six ``rng.uniform(-scale, scale)`` draws.

    ``rng`` is a numpy Generator or a ``random.Random``: numpy's six scalar
    draws are bit for bit its one vector of six.
    """
    parts = [rng.uniform(-scale, scale) for _ in range(6)]
    return ExponentParams(complex(*parts[0:2]), complex(*parts[2:4]), complex(*parts[4:6]))


def random_element(rng, kind, scale=0.5) -> GroupElement:
    """The disentangled element of a random_params exponent on algebra ``kind``."""
    return disentangle(kind, random_params(rng, scale)).element


def clones(value) -> list:
    """Copies of ``value`` made by every pickle protocol, copy.copy and copy.deepcopy."""
    pickled = [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    return pickled + [copy.copy(value), copy.deepcopy(value)]
