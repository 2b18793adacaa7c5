import cmath
import math

import numpy as np
import pytest

from bchkit import (
    AlgebraKind,
    DisentangleResult,
    EvolutionResult,
    ExponentParams,
    GroupElement,
    HamiltonianSchedule,
    RotationParams,
    SqueezeParams,
    compose_pair,
    compose_squeezes,
    factor_squeeze_rotation,
    identity_element,
    make_algebra,
)
from bchkit.algebra import _Frozen
from frozen import clones, random_element


def test_structure_constants():
    assert AlgebraKind.SU11.epsilon == 1 and AlgebraKind.SU11.delta == 1
    assert AlgebraKind.SU2.epsilon == -1 and AlgebraKind.SU2.delta == 1
    assert AlgebraKind.SO21.epsilon == 0.5j and AlgebraKind.SO21.delta == 1j


def test_structure_constants_are_read_only():
    for name in ("epsilon", "delta"):
        with pytest.raises(AttributeError):
            setattr(AlgebraKind.SU2, name, 2)
    assert AlgebraKind.SU2.epsilon == -1 and AlgebraKind.SU2.delta == 1


def test_make_algebra_resolves_names():
    assert make_algebra("su11") is AlgebraKind.SU11
    assert make_algebra("SU2") is AlgebraKind.SU2
    assert make_algebra("So21") is AlgebraKind.SO21
    assert make_algebra(AlgebraKind.SU11) is AlgebraKind.SU11
    with pytest.raises(ValueError, match="unknown algebra"):
        make_algebra("su3")
    # an integer with more digits than str() converts is named by its size
    with pytest.raises(ValueError, match=r"^unknown algebra \(an integer of 16610 bits\); expected one of"):
        make_algebra(10**5000)


def test_identity_element_coordinates():
    for kind in AlgebraKind:
        ident = identity_element(kind)
        assert ident.big_plus == 0 and ident.log_c == 0 and ident.big_minus == 0
        assert ident.phase == 0
        assert ident.big_c() == 1


def test_identity_is_neutral_on_both_sides():
    rng = np.random.default_rng(11)
    for kind in AlgebraKind:
        ident = identity_element(kind)
        for _ in range(20):
            g = random_element(rng, kind)
            for product in (compose_pair(ident, g), compose_pair(g, ident)):
                assert abs(product.big_plus - g.big_plus) <= 1e-14
                assert abs(product.big_c() - g.big_c()) <= 1e-14
                assert abs(product.big_minus - g.big_minus) <= 1e-14
                assert product.phase == g.phase


def test_big_c_is_exp_of_log_c():
    g = GroupElement(AlgebraKind.SO21, 0.1j, 0.3 - 0.2j, -0.4)
    assert g.big_c() == cmath.exp(0.3 - 0.2j)


def test_finiteness_helpers():
    assert ExponentParams(0.1, 0.2j, -0.3).is_finite()
    assert not ExponentParams(math.nan, 0, 0).is_finite()
    assert not ExponentParams(0, complex(0, math.inf), 0).is_finite()
    g = GroupElement(AlgebraKind.SU11, 0j, 0j, 0j, phase=complex(math.nan, 0))
    assert not g.is_finite()
    # an integer beyond double range is not finite as a double; cmath.isfinite would raise
    assert ExponentParams(1, 0, 1).is_finite()
    for k in range(3):
        lam = [1, 0, 1]
        lam[k] = 10**400
        assert not ExponentParams(*lam).is_finite()
    for k in range(4):
        coords = [0, 0, 0, 0]
        coords[k] = -(10**400)
        assert not GroupElement(AlgebraKind.SU11, *coords).is_finite()


# ---------------------------------------------------------------------------
# value types: frozen, compared and hashed by field values, picklable


def test_value_types_compare_and_hash_by_fields():
    g = GroupElement(AlgebraKind.SU2, 0.1j, 0.2 - 0.1j, -0.3)
    same = GroupElement(algebra=AlgebraKind.SU2, big_plus=0.1j, log_c=0.2 - 0.1j, big_minus=-0.3, phase=0j)
    assert g == same and not g != same
    assert hash(g) == hash(same) and len({g, same}) == 1
    assert g != GroupElement(AlgebraKind.SU2, 0.1j, 0.2 - 0.1j, -0.3, phase=1j)
    assert g != GroupElement(AlgebraKind.SU11, 0.1j, 0.2 - 0.1j, -0.3)
    lam = ExponentParams(0.1, 0.2j, -0.3)
    assert lam == ExponentParams(lambda_plus=0.1, lambda_c=0.2j, lambda_minus=-0.3)
    assert hash(lam) == hash(ExponentParams(0.1, 0.2j, -0.3))
    assert lam != ExponentParams(0.1, 0.2j, 0.3)
    # equal field values in another class, or in a plain tuple, are not equal
    assert lam != HamiltonianSchedule(0.1, 0.2j, -0.3)
    assert lam != (0.1, 0.2j, -0.3)
    assert DisentangleResult(g, 0.5) == DisentangleResult(same, 0.5)
    assert DisentangleResult(g, 0.5) != DisentangleResult(g, -0.5)


def _sample(cls):
    """One value of the value type ``cls``, with every field set."""
    g = GroupElement(AlgebraKind.SO21, 0.1j, 0.3 - 0.2j, -0.4, phase=-0.25j)
    squeezes = compose_squeezes(SqueezeParams(0.4, 1.0), SqueezeParams(0.3, -2.0))
    samples = [
        ExponentParams(0.1, 0.2j, -0.3),
        g,
        DisentangleResult(g, 1e-5 + 2j),
        # any picklable callable serves as eta here: pickle stores a function by name
        HamiltonianSchedule(AlgebraKind.SU2, abs, 1.5),
        EvolutionResult(g, 4, 0.25, ((0.0, identity_element(AlgebraKind.SO21)), (1.0, g))),
        SqueezeParams(-0.5, 0.0),  # phi lands on the pi tie
        RotationParams(2 * math.pi + 0.25),
        factor_squeeze_rotation(squeezes),
    ]
    return {type(value): value for value in samples}[cls]


# every value type of the package: a new one fails here until _sample builds it
VALUE_TYPES = pytest.mark.parametrize("cls", _Frozen.__subclasses__(), ids=lambda cls: cls.__name__)


@VALUE_TYPES
def test_value_types_refuse_assignment_and_deletion(cls):
    value = _sample(cls)
    before = value._values()
    for field in cls.__slots__:
        with pytest.raises(AttributeError, match="cannot assign to field"):
            setattr(value, field, 1.0)
        with pytest.raises(AttributeError, match="cannot delete field"):
            delattr(value, field)
    with pytest.raises(AttributeError, match="cannot assign to field"):
        value.extra = 1.0
    assert not hasattr(value, "__dict__")
    assert value._values() == before


@VALUE_TYPES
def test_value_types_survive_pickle_and_copy(cls):
    value = _sample(cls)
    for clone in clones(value):
        assert type(clone) is cls
        assert clone == value and hash(clone) == hash(value)
        assert repr(clone) == repr(value)


def test_value_types_keyword_construction_and_defaults():
    g = GroupElement(AlgebraKind.SU11, big_plus=0.5, log_c=0j, big_minus=-0.5)
    assert g.phase == 0j and isinstance(g.phase, complex)
    result = EvolutionResult(element=g, steps=2, tau=0.5)
    assert result.trajectory is None
    schedule = HamiltonianSchedule(algebra=AlgebraKind.SU2, eta=abs, t_final=1.5)
    assert (schedule.algebra, schedule.eta, schedule.t_final) == (AlgebraKind.SU2, abs, 1.5)


def test_value_type_repr():
    g = GroupElement(AlgebraKind.SU2, 0.1j, 0.2, -0.3)
    assert repr(g) == (
        "GroupElement(algebra=<AlgebraKind.SU2: 'su2'>, big_plus=0.1j, log_c=0.2, "
        "big_minus=-0.3, phase=0j)"
    )
    assert repr(ExponentParams(1, 2j, 3.5)) == "ExponentParams(lambda_plus=1, lambda_c=2j, lambda_minus=3.5)"
    assert repr(DisentangleResult(g, 0.5)) == f"DisentangleResult(element={g!r}, nu=0.5)"
