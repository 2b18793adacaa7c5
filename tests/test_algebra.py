import cmath
import math
import random
import re
import sys

import pytest

from bchkit import (
    AlgebraKind,
    DisentangleResult,
    EvolutionResult,
    ExponentParams,
    GroupElement,
    HamiltonianSchedule,
    NonFiniteInput,
    RotationParams,
    SqueezeParams,
    SqueezeRotationFactorization,
    compose_pair,
    compose_squeezes,
    evolve,
    factor_squeeze_rotation,
    identity_element,
    make_algebra,
    oscillator_schedule,
    step_element,
)
from bchkit.algebra import _Frozen
from frozen import Float, clones, element_bits, random_element


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
    rng = random.Random(11)
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
    # just below the largest double, 1.8e308 = exp(709.78)
    assert GroupElement(AlgebraKind.SU11, 0, 709.7, 0).big_c() == cmath.exp(709.7)


@pytest.mark.parametrize("log_c", [800, 709.8 + 3j], ids=lambda z: f"log_c={z}")
def test_big_c_names_a_cartan_coordinate_beyond_double_range(log_c):
    g = GroupElement(AlgebraKind.SU11, 0, log_c, 0)
    with pytest.raises(NonFiniteInput, match=r"^Cartan coordinate exp\(log_c\) overflows double precision$"):
        g.big_c()


def _in_field(cls, name, *head):
    """entry(x) for field ``name`` of ``cls``: the value stored from x, every later field 0.5j."""
    fields = cls.__slots__[len(head):]
    return lambda x: getattr(cls(*head, **{f: x if f == name else 0.5j for f in fields}), name)


def _in_eta(k):
    """entry(x) for eta value ``k`` of step_element at tau = 0.5: the bits of the slice."""
    return lambda x: element_bits(
        step_element(AlgebraKind.SO21, tuple(x if i == k else 0.5j for i in range(3)), 0.5)
    )


def _evolved(schedule):
    return element_bits(evolve(schedule, 2).element)


# (the field as errors name it, the kind it becomes, entry(x): what the package makes of x there)
BOUNDARY = [
    *[(name, complex, _in_field(ExponentParams, name)) for name in ExponentParams.__slots__],
    *[(name, complex, _in_field(GroupElement, name, AlgebraKind.SU11)) for name in GroupElement.__slots__[1:]],
    ("r", float, lambda x: SqueezeParams(x, 0.5).r),
    ("phi", float, lambda x: SqueezeParams(0.5, x).phi),
    ("angle", float, lambda x: RotationParams(x).angle),
    (
        "phase_shift",
        complex,
        lambda x: SqueezeRotationFactorization(SqueezeParams(0.5), RotationParams(0.5), x).phase_shift,
    ),
    ("tau", float, lambda x: element_bits(step_element(AlgebraKind.SU11, (0.5j, 1j, 0.5j), x))),
    ("t_final", float, lambda x: HamiltonianSchedule(AlgebraKind.SU2, abs, x).t_final),
    ("omega0", float, lambda x: _evolved(oscillator_schedule(x, lambda t: 1.5, 1.0))),
    ("omega(0.25)", float, lambda x: oscillator_schedule(1.0, lambda t: x, 1.0).eta(0.25)),
    *[(f"{name}(0.5)", complex, _in_eta(k)) for k, name in enumerate(("eta_plus", "eta_c", "eta_minus"))],
]


@pytest.mark.parametrize("name, kind, entry", BOUNDARY, ids=[row[0] for row in BOUNDARY])
def test_numbers_enter_at_one_boundary(name, kind, entry):
    # every number becomes a complex or a float where it enters, so no kernel sees an integer
    field = re.escape(name)
    for huge, bits in ((10**400, 1329), (-(10**400), 1329), (-(10**5000), 16610)):
        with pytest.raises(NonFiniteInput, match=rf"^{field} must be within double range, got an integer of {bits} bits$"):
            entry(huge)
    noun = "a number" if kind is complex else "a real number"
    # a str, which complex() and float() would parse, and values that are no number at all
    for value, shown in (("1", "str"), (None, "NoneType"), ([1.0], "list"), (object(), "object")):
        with pytest.raises(TypeError, match=rf"^{field} must be {noun}, got {shown}$"):
            entry(value)
    for value in (1, True, Float(0.5)):
        got, want = entry(value), entry(kind(value))
        assert got == want and type(got) is type(want)


GROUP_FIELDS = GroupElement.__slots__[1:]


@pytest.mark.parametrize("by", ["position", "keyword"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=str)
@pytest.mark.parametrize("name", GROUP_FIELDS)
def test_group_element_refuses_a_non_finite_field(name, bad, by):
    # refused where it is built, so nothing that reads an element checks it again;
    # as a float it takes the conversion, as a complex (the package's own) it does not
    for value in (bad, complex(0.5, bad), complex(bad, 0.5)):
        values = [value if field == name else 0.5j for field in GROUP_FIELDS]
        with pytest.raises(NonFiniteInput, match="^group element coordinates must be finite$"):
            if by == "position":
                GroupElement(AlgebraKind.SU11, *values)
            else:
                GroupElement(AlgebraKind.SU11, **dict(zip(GROUP_FIELDS, values)))
    # the largest finite values still build
    for value in (sys.float_info.max, complex(-sys.float_info.max, sys.float_info.max)):
        values = [value if field == name else 0.5j for field in GROUP_FIELDS]
        assert getattr(GroupElement(AlgebraKind.SU11, *values), name) == value


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=str)
def test_factorization_refuses_a_non_finite_phase_shift(bad):
    # refused where it is built, as GroupElement refuses its phase, so recompose never meets it
    squeeze, rotation = SqueezeParams(0.5), RotationParams(0.5)
    for value in (bad, complex(0.5, bad), complex(bad, 0.5)):
        with pytest.raises(NonFiniteInput, match="^phase shift must be finite$"):
            SqueezeRotationFactorization(squeeze, rotation, value)
        with pytest.raises(NonFiniteInput, match="^phase shift must be finite$"):
            SqueezeRotationFactorization(squeeze, rotation, phase_shift=value)
    largest = complex(-sys.float_info.max, sys.float_info.max)
    assert SqueezeRotationFactorization(squeeze, rotation, largest).phase_shift == largest


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
    twin, schedule = ExponentParams(0.1, 0.2j, 0.3), HamiltonianSchedule(0.1, 0.2j, 0.3)
    assert twin._values() == schedule._values() and twin != schedule
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
        "GroupElement(algebra=<AlgebraKind.SU2: 'su2'>, big_plus=0.1j, log_c=(0.2+0j), "
        "big_minus=(-0.3+0j), phase=0j)"
    )
    assert repr(ExponentParams(1, 2j, 3.5)) == "ExponentParams(lambda_plus=(1+0j), lambda_c=2j, lambda_minus=(3.5+0j))"
    assert repr(DisentangleResult(g, 0.5)) == f"DisentangleResult(element={g!r}, nu=0.5)"
