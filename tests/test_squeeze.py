import cmath
import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bchkit import (
    AlgebraKind,
    DisentangleResult,
    GroupElement,
    NonFiniteInput,
    NotFactorizable,
    RotationParams,
    SqueezeParams,
    SqueezeRotationFactorization,
    compose_pair,
    compose_squeezes,
    element_matrix,
    factor_squeeze_rotation,
    identity_element,
    rotation_element,
    squeeze_element,
)
from bchkit.squeeze import _wrap_angle


def random_squeeze(rng, r_max=3.0):
    return SqueezeParams(rng.uniform(0, r_max), rng.uniform(-math.pi, math.pi))


# ---------------------------------------------------------------------------
# parameter types

@given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
def test_wrap_angle_lands_on_half_open_interval(theta):
    wrapped = _wrap_angle(theta)
    assert -math.pi < wrapped <= math.pi
    assert abs(cmath.exp(1j * wrapped) - cmath.exp(1j * theta)) <= 1e-9


def test_wrap_angle_tie_goes_positive():
    assert _wrap_angle(math.pi) == math.pi
    assert _wrap_angle(-math.pi) == math.pi
    assert _wrap_angle(3 * math.pi) == math.pi


def test_squeeze_params_normalize_negative_magnitude():
    p = SqueezeParams(-0.7, 0.3)
    assert p.r == 0.7
    assert abs(p.phi - (0.3 - math.pi)) <= 1e-15
    # the represented complex number is unchanged by the normalization
    assert abs(p.z - (-0.7) * cmath.exp(0.3j)) <= 1e-15


def test_rotation_params_wrap():
    assert RotationParams(2 * math.pi + 0.25).angle == pytest.approx(0.25)


def clones(value):
    """Copies of ``value`` made by every pickle protocol, copy.copy and copy.deepcopy."""
    pickled = [pickle.loads(pickle.dumps(value, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    return pickled + [copy.copy(value), copy.deepcopy(value)]


def test_squeeze_value_types_keep_their_normalization_through_pickle_and_copy():
    factored = factor_squeeze_rotation(compose_squeezes(SqueezeParams(0.4, 1.0), SqueezeParams(0.3, -2.0)))
    values = [
        SqueezeParams(-0.7, 0.3),
        SqueezeParams(-0.5, 0.0),  # phi lands on the pi tie
        RotationParams(2 * math.pi + 0.25),
        factored,
        SqueezeRotationFactorization(SqueezeParams(0.2), RotationParams(-1.0)),
    ]
    for value in values:
        for clone in clones(value):
            assert type(clone) is type(value)
            assert clone == value and hash(clone) == hash(value)
            assert repr(clone) == repr(value)
    restored = clones(SqueezeParams(-0.7, 0.3))[-1]
    assert restored.r == 0.7 and restored.phi == _wrap_angle(0.3 + math.pi)


def test_squeeze_value_types_compare_frozen_and_default():
    p = SqueezeParams(0.5)
    assert p.phi == 0.0 and p == SqueezeParams(r=0.5, phi=0.0)
    assert p == SqueezeParams(-0.5, math.pi) and hash(p) == hash(SqueezeParams(-0.5, math.pi))
    assert p != SqueezeParams(0.5, 1.0)
    # the same field values in another value class are not equal
    assert p != DisentangleResult(0.5, 0.0)
    factorization = SqueezeRotationFactorization(p, RotationParams(angle=0.25))
    assert factorization.phase_shift == 0j and factorization.residual is None
    for value, field in ((p, "r"), (RotationParams(0.1), "angle"), (factorization, "residual")):
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(value, field, 0.0)
        with pytest.raises(AttributeError, match="cannot delete field"):
            delattr(value, field)
    with pytest.raises(NonFiniteInput):
        SqueezeParams(0.5, math.inf)
    assert repr(factorization) == (
        "SqueezeRotationFactorization(squeeze=SqueezeParams(r=0.5, phi=0.0), "
        "rotation=RotationParams(angle=0.25), phase_shift=0j, residual=None)"
    )


# ---------------------------------------------------------------------------
# elements

def test_squeeze_element_zero_is_identity():
    g = squeeze_element(SqueezeParams(0.0, 1.2))
    assert g == identity_element(AlgebraKind.SU11)


def test_squeeze_element_unit_magnitude():
    g = squeeze_element(SqueezeParams(1.0, 0.0))
    assert g.big_plus == pytest.approx(-0.7615941559557649)
    assert g.big_c() == pytest.approx(0.41997434161402614)
    assert g.big_minus == pytest.approx(0.7615941559557649)


def test_squeeze_element_beyond_cosh_range():
    # log cosh r = r - ln 2 where cosh r overflows; below that the bits are log(cosh(r))'s
    for r in (709.0, 710.0, 710.47):
        assert squeeze_element(SqueezeParams(r)).log_c == -2.0 * math.log(math.cosh(r))
    for r in (710.5, 800.0, 1e6, 1e300):
        g = squeeze_element(SqueezeParams(r, 0.3))
        assert g.log_c == -2.0 * (r - math.log(2.0))
        assert g.big_plus == -cmath.exp(0.3j) and g.big_minus == cmath.exp(-0.3j)
    below, above = (squeeze_element(SqueezeParams(r)).log_c for r in (710.47, 710.5))
    assert above - below == pytest.approx(-0.06, rel=1e-9)


def test_squeeze_fingerprint():
    # |L+| = |L-| and |L+|^2 + |Lambda_c| = 1 for every squeeze
    rng = np.random.default_rng(53)
    for _ in range(300):
        g = squeeze_element(random_squeeze(rng))
        assert abs(abs(g.big_plus) - abs(g.big_minus)) <= 1e-12
        assert abs(abs(g.big_plus) ** 2 + abs(g.big_c()) - 1.0) <= 1e-12


def test_squeeze_matrix_is_unimodular():
    rng = np.random.default_rng(59)
    for _ in range(50):
        m = element_matrix(squeeze_element(random_squeeze(rng)))
        assert abs(np.linalg.det(m) - 1.0) <= 1e-12


def test_rotation_element_coordinates():
    assert rotation_element(RotationParams(0.0)) == identity_element(AlgebraKind.SU11)
    quarter = rotation_element(RotationParams(math.pi / 2))
    assert quarter.big_plus == 0 and quarter.big_minus == 0
    assert quarter.big_c() == pytest.approx(-1.0)
    assert quarter.phase == -0.25j * math.pi


def test_rotations_compose_additively():
    a, b = 0.7, -1.9
    combined = compose_pair(rotation_element(RotationParams(b)), rotation_element(RotationParams(a)))
    direct = rotation_element(RotationParams(a + b))
    assert abs(combined.big_c() - direct.big_c()) <= 1e-15
    # phases add without wrapping, so compare the scalars they generate
    assert abs(cmath.exp(combined.phase) - cmath.exp(-0.5j * (a + b))) <= 1e-15


# ---------------------------------------------------------------------------
# composition of two squeezes

def _two_squeeze_coordinates(z2, z1):
    # closed forms for the product of two squeezes, written out independently
    t1, t2 = math.tanh(z1.r), math.tanh(z2.r)
    e1, e2 = cmath.exp(1j * z1.phi), cmath.exp(1j * z2.phi)
    denom = 1 + e1 / e2 * t1 * t2
    alpha = -(e2 * t2 + e1 * t1) / denom
    beta = (1 - t1 * t1) * (1 - t2 * t2) / denom**2
    gamma = (t2 / e2 + t1 / e1) / denom
    return alpha, beta, gamma


def test_two_squeezes_match_closed_forms():
    # capped below the worst-conditioned denominators so 1e-12 is attainable
    rng = np.random.default_rng(61)
    for _ in range(200):
        z1, z2 = random_squeeze(rng, 2.0), random_squeeze(rng, 2.0)
        g = compose_squeezes(z2, z1)
        alpha, beta, gamma = _two_squeeze_coordinates(z2, z1)
        assert abs(g.big_plus - alpha) <= 1e-12
        assert abs(g.big_c() - beta) <= 1e-12
        assert abs(g.big_minus - gamma) <= 1e-12


def test_two_squeezes_match_matrix_product():
    rng = np.random.default_rng(67)
    for _ in range(100):
        z1, z2 = random_squeeze(rng, 2.5), random_squeeze(rng, 2.5)
        left = element_matrix(compose_squeezes(z2, z1))
        right = element_matrix(squeeze_element(z2)) @ element_matrix(squeeze_element(z1))
        assert np.max(np.abs(left - right)) <= 1e-12


def test_equal_phase_squeezes_add_magnitudes():
    rng = np.random.default_rng(71)
    for _ in range(100):
        r1, r2 = rng.uniform(0, 3, 2)
        phi = rng.uniform(-math.pi, math.pi)
        combined = compose_squeezes(SqueezeParams(r2, phi), SqueezeParams(r1, phi))
        direct = squeeze_element(SqueezeParams(r1 + r2, phi))
        assert abs(combined.big_plus - direct.big_plus) <= 1e-12
        assert abs(combined.big_c() - direct.big_c()) <= 1e-12
        assert abs(combined.big_minus - direct.big_minus) <= 1e-12


def test_trivial_first_squeeze_echoes_second():
    z2 = SqueezeParams(0.9, -0.4)
    combined = compose_squeezes(z2, SqueezeParams(0.0, 0.0))
    direct = squeeze_element(z2)
    assert combined.big_plus == direct.big_plus
    assert combined.big_minus == direct.big_minus
    assert abs(combined.big_c() - direct.big_c()) <= 1e-15


# ---------------------------------------------------------------------------
# factorization

def test_factorization_round_trip():
    rng = np.random.default_rng(73)
    for _ in range(300):
        g = compose_squeezes(random_squeeze(rng), random_squeeze(rng))
        factored = factor_squeeze_rotation(g)
        assert factored.residual <= 1e-8
        redone = factored.recompose()
        assert abs(redone.big_plus - g.big_plus) <= 1e-10
        assert abs(redone.big_c() - g.big_c()) <= 1e-10
        assert abs(redone.big_minus - g.big_minus) <= 1e-10
        assert abs(cmath.exp(redone.phase) - cmath.exp(g.phase)) <= 1e-10


def test_factorization_closed_form_angles():
    rng = np.random.default_rng(79)
    for _ in range(200):
        z1, z2 = random_squeeze(rng), random_squeeze(rng)
        t1, t2 = math.tanh(z1.r), math.tanh(z2.r)
        denom = 1 + cmath.exp(1j * (z1.phi - z2.phi)) * t1 * t2
        factored = factor_squeeze_rotation(compose_squeezes(z2, z1))
        # squeeze part: e^{i phi} tanh r equals the quoted ratio
        lhs = cmath.exp(1j * factored.squeeze.phi) * math.tanh(factored.squeeze.r)
        rhs = (cmath.exp(1j * z2.phi) * t2 + cmath.exp(1j * z1.phi) * t1) / denom
        assert abs(lhs - rhs) <= 1e-12
        # rotation part: e^{i angle} is the unit-modulus conjugate of the denominator
        assert abs(cmath.exp(1j * factored.rotation.angle) - denom.conjugate() / abs(denom)) <= 1e-12
        # the leftover scalar is exactly half the rotation angle
        assert abs(factored.phase_shift - 0.5j * factored.rotation.angle) <= 1e-15


def test_factorization_of_equal_phase_product_has_no_rotation():
    factored = factor_squeeze_rotation(
        compose_squeezes(SqueezeParams(0.4, 0.2), SqueezeParams(1.1, 0.2))
    )
    assert abs(factored.rotation.angle) <= 1e-12
    assert factored.squeeze.r == pytest.approx(1.5)
    assert factored.squeeze.phi == pytest.approx(0.2)


def test_factorization_of_pure_rotation():
    for angle in (-2.9, -1.0, 0.3, math.pi / 2, 2.5, math.pi):
        factored = factor_squeeze_rotation(rotation_element(RotationParams(angle)))
        assert factored.squeeze.r == 0.0
        assert factored.rotation.angle == pytest.approx(angle)
        assert abs(factored.phase_shift) <= 1e-12


def test_product_satisfies_closing_identity():
    # beta = alpha*gamma*(1 - 1/|alpha*gamma|) on the squeeze-rotation orbit
    rng = np.random.default_rng(83)
    for _ in range(200):
        g = compose_squeezes(random_squeeze(rng), SqueezeParams(rng.uniform(0.1, 3), rng.uniform(-3, 3)))
        product = g.big_plus * g.big_minus
        if abs(product) < 1e-12:
            continue
        assert abs(g.big_c() - product * (1 - 1 / abs(product))) <= 1e-12


def test_factorization_rejects_unbalanced_magnitudes():
    lopsided = GroupElement(AlgebraKind.SU11, 0.5 + 0j, 0j, 0.2 + 0j)
    with pytest.raises(NotFactorizable):
        factor_squeeze_rotation(lopsided)


def test_factorization_rejects_overlong_coordinates():
    too_big = GroupElement(AlgebraKind.SU11, 1.2 + 0j, 0j, 1.2 + 0j)
    with pytest.raises(NotFactorizable):
        factor_squeeze_rotation(too_big)


def test_factorization_rejects_other_algebras():
    with pytest.raises(NotFactorizable):
        factor_squeeze_rotation(identity_element(AlgebraKind.SU2))


def test_factorization_rejects_off_orbit_elements():
    # balanced magnitudes but a Cartan coordinate no squeeze-rotation pair has
    warped = GroupElement(AlgebraKind.SU11, 0.5 + 0j, 0.4 + 0j, 0.5 + 0j)
    with pytest.raises(NotFactorizable):
        factor_squeeze_rotation(warped)


@pytest.mark.parametrize("log_c", [700, 710, 1e5], ids=lambda x: f"log_c={x:g}")
def test_factorization_rejects_a_cartan_coordinate_beyond_double_range(log_c):
    # |Lambda_c| = exp(log_c) is far above sech^2 r <= 1; from about 709.8 it is no double
    # at all, and that is reported like the residual that rejects it below
    g = GroupElement(AlgebraKind.SU11, 0.5 + 0j, complex(log_c, 0.5), 0.5 + 0j)
    with pytest.raises(NotFactorizable):
        factor_squeeze_rotation(g)


@pytest.mark.parametrize(
    "make",
    [
        lambda bad: SqueezeParams(bad),
        lambda bad: SqueezeParams(0.5, bad),
        lambda bad: RotationParams(bad),
    ],
    ids=["r", "phi", "angle"],
)
@pytest.mark.parametrize(
    "bad", [math.inf, -math.inf, math.nan, pytest.param(10**400, id="int-beyond-double")]
)
def test_squeeze_value_types_refuse_non_finite_input(make, bad):
    with pytest.raises(NonFiniteInput):
        make(bad)
