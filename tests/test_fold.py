"""The fold's bits against the per-pair API and the first arithmetic.

evolve() and compose_many() run one fold over raw coordinate tuples instead
of calling the public per-pair API.  Each contract below is pinned here and
in no other file:

- evolve() gives bit for bit the repeated step_element and compose_pair,
  trajectory included, unchunked and with checkpoints at a stride that
  leaves a shorter last chunk and at one exact chunk: on a drive per
  algebra on both disentangling branches and on the oscillator preset, at
  endpoint and midpoint samples;
- compose_many gives the same bits whether an element's fields were given
  as complex numbers or as the floats and ints they equal;
- where |nu| <= 1, disentangle keeps the bits of its first guarded
  arithmetic (seed_guarded_disentangle), whose series is the plain sum and
  whose early pass of the w test changes no outcome.

The first pair product, like every bit helper and draw, is defined once, in
frozen.py: test_compose.py pins compose_pair to it on every pair of a
table and compose_many on the chain of that table, and this file a running
compose_pair chain with phases.
"""

import cmath
import math
import random
from cmath import isfinite

import pytest

from bchkit import (
    AlgebraKind,
    AlgebraMismatch,
    ExponentParams,
    GroupElement,
    HamiltonianSchedule,
    NonFiniteInput,
    SingularDecomposition,
    compose_many,
    compose_pair,
    disentangle,
    evolve,
    identity_element,
    oscillator_schedule,
    step_element,
)
from bchkit.compose import (
    TOL_SINGULAR,
    _SERIES_NU_THRESHOLD,
    _disentangle_raw,
    _series,
    _triangular,
)
from frozen import complex_bits, element_bits, frozen_pair_product, random_complex, random_params
from reference import CENSUS_BOUND, gauss_coordinates, worst_relative_error


# Smooth drives that stay clear of every chart singularity on [0, t_final].
DRIVES = {
    AlgebraKind.SU11: lambda t: (0.3 * math.sin(2 * t) + 0.1j, 1.0 + 0.2 * math.cos(t), 0.3 * math.sin(2 * t) - 0.1j),
    AlgebraKind.SU2: lambda t: (0.4 + 0.3j * t, 0.7 - 0.2 * t, 0.4 - 0.3j * t),
    AlgebraKind.SO21: lambda t: (0.2 * math.cos(t), 0.5 + 0.1j * t, -0.3 * math.sin(t)),
}

# Real coordinates (big_plus, log_c, big_minus, phase), given as floats and ints.
REAL_HEAD = [(0.25, 1, -0.5, 0), (1, -0.125, 0.5, 0.75)]

# (t_final, steps) per branch: every slice has |nu| above the series
# threshold on the coarse grid and below it on the fine one.
BRANCHES = {"coarse": (1.5, 48), "fine": (0.03, 300)}


def drive_rows():
    """(schedule, steps, series): each drive on each branch, then the oscillator preset.

    ``series`` is True where every slice's |nu| is below the series threshold.
    """
    rows = [
        pytest.param(HamiltonianSchedule(algebra, drive, t_final), steps, branch == "fine", id=f"{algebra.value}-{branch}")
        for algebra, drive in DRIVES.items()
        for branch, (t_final, steps) in sorted(BRANCHES.items())
    ]
    # omega(t) = 1 + 0.2 sin t over t = 4 in 50 steps, every slice above the threshold
    oscillator = oscillator_schedule(1.0, lambda t: 1.0 + 0.2 * math.sin(t), 4.0)
    return rows + [pytest.param(oscillator, 50, False, id="oscillator")]


def sample_times(schedule, steps, midpoint):
    tau = schedule.t_final / steps
    return [j * tau - 0.5 * tau if midpoint else j * tau for j in range(1, steps + 1)], tau


@pytest.mark.parametrize("midpoint", [False, True], ids=["endpoint", "midpoint"])
@pytest.mark.parametrize("schedule, steps, series", drive_rows())
def test_evolve_is_the_per_pair_fold(schedule, steps, series, midpoint):
    algebra = schedule.algebra
    times, tau = sample_times(schedule, steps, midpoint)

    elements = []
    for t in times:
        eta_plus, eta_c, eta_minus = (complex(v) for v in schedule.eta(t))
        lam = ExponentParams(-1j * tau * eta_plus, -1j * tau * eta_c, -1j * tau * eta_minus)
        result = disentangle(algebra, lam)
        assert (abs(result.nu) < _SERIES_NU_THRESHOLD) == series
        assert element_bits(result.element) == element_bits(step_element(algebra, schedule.eta(t), tau))
        elements.append(result.element)

    acc = elements[0]
    for g in elements[1:]:
        acc = compose_pair(g, acc)
    plain = evolve(schedule, steps, midpoint=midpoint)  # one fold, no checkpoints
    assert plain.trajectory is None and plain.tau == tau
    assert element_bits(plain.element) == element_bits(compose_many(elements)) == element_bits(acc)

    # ahead of the slices, elements with float- and int-typed fields fold as the complex-typed ones
    typed = [GroupElement(algebra, *c) for c in REAL_HEAD] + elements
    exact = [GroupElement(algebra, *map(complex, c)) for c in REAL_HEAD] + elements
    assert element_bits(compose_many(typed)) == element_bits(compose_many(exact))

    # no step count is a multiple of 7, so that stride leaves a shorter last chunk;
    # a stride of ``steps`` folds one exact chunk
    for stride in (7, steps):
        evolved = evolve(schedule, steps, checkpoint_every=stride, midpoint=midpoint)
        assert element_bits(evolved.element) == element_bits(plain.element)
        rows = [(0, identity_element(algebra))] + [
            (j, compose_many(elements[:j])) for j in range(1, steps + 1) if j % stride == 0 or j == steps
        ]
        assert len(evolved.trajectory) == len(rows)
        for (t, g), (j, expected) in zip(evolved.trajectory, rows):
            assert complex_bits(t) == complex_bits(j * tau if j else 0.0)
            assert element_bits(g) == element_bits(expected)
        assert evolved.trajectory[-1][1] == evolved.element


def test_resonant_su2_drive_breaks_at_the_pi_pulse():
    # H = T+ + T- on [0, pi]: the normal-ordered chart fails at t = pi/2
    schedule = HamiltonianSchedule(AlgebraKind.SU2, lambda t: (1, 0, 1), math.pi)
    tau = math.pi / 100
    for midpoint in (False, True):
        with pytest.raises(SingularDecomposition) as excinfo:
            evolve(schedule, 100, checkpoint_every=10, midpoint=midpoint)
        exc = excinfo.value
        assert str(exc) == "evolution singular at step 50 of 100 (t = 1.5708)"
        assert exc.step == 50
        assert exc.time == 50 * tau
        assert exc.denominator_abs == 7.949196856316121e-14
        assert str(exc.__cause__) == (
            "no normal-ordered form: composition denominator |d| = 7.949e-14 is singular"
        )

    # the per-pair API breaks at the same step with the same denominator
    g = acc = step_element(AlgebraKind.SU2, (1, 0, 1), tau)
    for _ in range(2, 50):
        acc = compose_pair(g, acc)
    with pytest.raises(SingularDecomposition) as excinfo:
        compose_pair(g, acc)
    assert excinfo.value.denominator_abs == 7.949196856316121e-14


def test_evolve_reports_a_singular_slice_with_its_step():
    # the first slice itself has no normal-ordered form: w = cos(pi/2)
    schedule = HamiltonianSchedule(AlgebraKind.SU11, lambda t: (0.5j * math.pi, 0, 0.5j * math.pi), 1.0)
    with pytest.raises(SingularDecomposition) as excinfo:
        evolve(schedule, 1)
    assert excinfo.value.step == 1
    assert excinfo.value.time == 1.0
    assert str(excinfo.value.__cause__).startswith("no normal-ordered form: disentangling denominator")
    # nor does the slice of step 7 of 10, the first of the third chunk of 3, where eta
    # reaches eta_plus = eta_minus = 2 pi i at t = 1.75, so that tau*eta = pi/2 i
    kick = (2j * math.pi, 0j, 2j * math.pi)
    schedule = HamiltonianSchedule(AlgebraKind.SU11, lambda t: kick if t >= 1.75 else (0j, 0j, 0j), 2.5)
    for stride in (None, 3):
        with pytest.raises(SingularDecomposition) as excinfo:
            evolve(schedule, 10, checkpoint_every=stride)
        assert (excinfo.value.step, excinfo.value.time) == (7, 1.75)
        assert excinfo.value.denominator_abs <= 1e-12


def test_evolve_rejects_non_finite_slices():
    schedule = HamiltonianSchedule(AlgebraKind.SU11, lambda t: (math.nan, 0, 0), 1.0)
    with pytest.raises(NonFiniteInput, match="exponent coordinates must be finite"):
        evolve(schedule, 3)


def test_compose_many_single_element_is_checked_then_returned():
    # an element with an infinite coordinate is refused where it is built, before compose_many
    with pytest.raises(NonFiniteInput, match="^group element coordinates must be finite$"):
        compose_many([GroupElement(AlgebraKind.SU2, complex(math.inf, 0), 0j, 0j)])
    su2 = GroupElement(AlgebraKind.SU2, 0.3 + 0.1j, 0.2j, -0.4 + 0j)
    su11 = GroupElement(AlgebraKind.SU11, 0.2 + 0.1j, cmath.log(1.1), -0.1 + 0.05j)  # Lambda_c = 1.1
    assert su11.big_c() == pytest.approx(1.1)
    for finite in (su2, su11):
        assert compose_many([finite]) is finite


def test_compose_many_checks_algebra_then_finiteness_in_order():
    # the later fault is a phase sum that overflows at the second of two 1e308 phases
    su11, su2 = identity_element(AlgebraKind.SU11), identity_element(AlgebraKind.SU2)
    big = GroupElement(AlgebraKind.SU11, 0j, 0j, 0j, 1e308 + 0j)
    with pytest.raises(AlgebraMismatch, match="cannot compose su2 with su11"):
        compose_many([su11, su11, su2, big, big])
    with pytest.raises(NonFiniteInput, match="group element coordinates must be finite"):
        compose_many([su11, big, big, su2])
    with pytest.raises(NonFiniteInput):
        compose_many([big, big, su11])


@pytest.mark.parametrize("scale", [1e-5, 0.5, 2.0])
@pytest.mark.parametrize("algebra", list(AlgebraKind), ids=lambda a: a.value)
def test_kernels_keep_the_first_arithmetic_bit_for_bit(algebra, scale):
    # frozen copies of the disentangling and pair arithmetic: the shared kernels may
    # not reorder a single operation, or CLI output and old results would change; an
    # exponent with |nu| > 1 is taken on the exp(-nu) scale instead, and checked
    # against the extended-precision reference
    rng = random.Random(47)
    acc = ref = identity_element(algebra)
    beyond_one = 0
    for _ in range(60):
        lam = random_params(rng, scale)
        result = disentangle(algebra, lam)
        g = result.element
        coords = (lam.lambda_plus, lam.lambda_c, lam.lambda_minus)
        got = (g.big_plus, g.log_c, g.big_minus)
        if abs(result.nu) <= 1.0:
            expected = seed_guarded_disentangle(algebra._kernel, *coords)[:3]
            assert [complex_bits(z) for z in got] == [complex_bits(z) for z in expected], coords
        else:
            beyond_one += 1
            assert worst_relative_error(algebra.value, *coords, got) <= CENSUS_BOUND, coords
        g = GroupElement(algebra, g.big_plus, g.log_c, g.big_minus, random_complex(rng))
        acc, ref = compose_pair(g, acc), frozen_pair_product(g, ref)
        assert element_bits(acc) == element_bits(ref)
    if scale == 2.0:
        assert 0 < beyond_one < 60


def seed_cosh_sinhc_series(nu):
    """The series as first written: powers, factorials and sum() per call."""
    nu_sq = nu * nu
    cosh_nu = sum(nu_sq**k / math.factorial(2 * k) for k in range(6))
    sinhc_nu = sum(nu_sq**k / math.factorial(2 * k + 1) for k in range(6))
    return cosh_nu, sinhc_nu


def test_cosh_sinhc_series_is_the_plain_sum_bit_for_bit():
    rng = random.Random(43)
    values = [0j, -0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 5e-324j]
    for _ in range(3000):
        magnitude = 10.0 ** rng.uniform(-320, -4)
        values.append(magnitude * cmath.exp(1j * rng.uniform(-math.pi, math.pi)))
        values.append(complex(rng.uniform(-1e-4, 1e-4), rng.choice([0.0, -0.0])))
        values.append(complex(rng.choice([0.0, -0.0]), rng.uniform(-1e-4, 1e-4)))
        # near the axes, where Im(nu^2) is tiny and the dropped terms come closest to a bit,
        # and within 1e-9 of the threshold, where they are largest
        angle = rng.randrange(-4, 5) * (math.pi / 2) + rng.choice([-1, 1]) * 10.0 ** -rng.uniform(0, 300)
        values.append(10.0 ** rng.uniform(-320, -4) * cmath.exp(1j * angle))
        values.append(_SERIES_NU_THRESHOLD * (1 - 10.0 ** -rng.uniform(9, 15)) * cmath.exp(1j * angle))
        values.append((_SERIES_NU_THRESHOLD - rng.uniform(0, 1e-9)) * cmath.exp(1j * rng.uniform(-4, 4)))
    for nu in values:
        assert abs(nu) < _SERIES_NU_THRESHOLD
        got, expected = _series(nu), seed_cosh_sinhc_series(nu)
        assert [complex_bits(z) for z in got] == [complex_bits(z) for z in expected], nu


# The second form of w as it was when the full w test ran on every call, kept verbatim
# as part of the frozen reference seed_guarded_disentangle.
def _w_by_exp(nu, half_c, x, cosh_nu, sinhc_nu, w, tol_nu2, shift=0j):
    """w as exp(-nu) - x*sinhc(nu)/(nu + half_c); raise, with |w|, if that is singular too.

    Equal to cosh(nu) - half_c*sinhc(nu) as nu^2 = half_c^2 - x, but it keeps
    w ~ exp(-nu) where that form cancels (x small, |nu| > 1); a triangular
    exponent (lp*lm == 0) is _triangular's and never comes here.  nu's sign makes
    |nu + half_c| >= |nu|; the roundoff scale is the terms of w plus nu's,
    tol_nu2/|nu| with TOL_SINGULAR applied, times a bound on |dw/dnu|.  With
    ``shift``, cosh_nu, sinhc_nu, w and the result are scaled by exp(-shift),
    and a singular w is reported as |w exp(-shift)|.
    """
    if not isfinite(w):
        raise NonFiniteInput("normal-ordered coordinates overflow double precision")
    a_nu = abs(nu)
    if a_nu > 1.0:
        if (nu.conjugate() * half_c).real < 0:
            nu = -nu
        e, nu_h = cmath.exp(-nu - shift), nu + half_c
        t = x * sinhc_nu / nu_h
        a_e, a_t, a_nu_h = abs(e), abs(t), abs(nu_h)
        if abs(e - t) > TOL_SINGULAR * (a_e + a_t) + tol_nu2 / a_nu * (
            a_e + a_t / a_nu + (abs(x) * abs(cosh_nu) / a_nu + a_t) / a_nu_h
        ):
            return e - t
    name = "|w exp(-nu)|" if shift else "|w|"
    raise SingularDecomposition(
        f"no normal-ordered form: disentangling denominator {name} = {abs(w):.3e} is singular",
        denominator_abs=abs(w),
    )


def seed_guarded_disentangle(kernel, lp, lc, lm):
    """_disentangle_raw as it was before the early pass: the full w test on every call."""
    if not (cmath.isfinite(lp) and cmath.isfinite(lc) and cmath.isfinite(lm)):
        raise NonFiniteInput("exponent coordinates must be finite")
    _, half_delta, delta_eps, _, minus_two_over_delta = kernel
    half_c = half_delta * lc
    x = delta_eps * lp * lm
    try:
        nu = cmath.sqrt(half_c * half_c - x)
        if abs(nu) < _SERIES_NU_THRESHOLD:
            cosh_nu, sinhc_nu = seed_cosh_sinhc_series(nu)
        else:
            cosh_nu, sinhc_nu = cmath.cosh(nu), cmath.sinh(nu) / nu
        w = cosh_nu - half_c * sinhc_nu
        ah = abs(half_c)
        ac = abs(cosh_nu)
        a_s = abs(sinhc_nu)
        n2 = abs(nu * nu)
        tol_nu2 = 0.5 * TOL_SINGULAR * (ah * ah + abs(x))
        if not abs(w) > TOL_SINGULAR * (ac + ah * a_s) + tol_nu2 * (
            a_s + ah / (n2 if n2 > 1.0 else 1.0) * (ac + a_s)
        ):
            w = _w_by_exp(nu, half_c, x, cosh_nu, sinhc_nu, w, tol_nu2)
        ratio = sinhc_nu / w
        big_plus, big_minus = lp * ratio, lm * ratio
        if not (cmath.isfinite(big_plus) and cmath.isfinite(big_minus)):
            raise NonFiniteInput("normal-ordered coordinates overflow double precision")
        return big_plus, minus_two_over_delta * cmath.log(w), big_minus, nu
    except (ArithmeticError, ValueError):
        if lp != 0 and lm != 0:
            raise
    return _triangular(half_c, lp, lm, minus_two_over_delta)


def outcome(function, *args):
    """Bit patterns of a kernel's result, or the type and message of what it raised."""
    try:
        return [complex_bits(z) for z in function(*args)]
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def kind_of(result):
    """"result", or the type of error that outcome() recorded."""
    return result[0] if isinstance(result, tuple) else "result"


def guard_draws(algebra, rng):
    """Exponents (lp, lc, lm): random, on and near the singular set w = 0, straddling
    |nu| = 1 and |half_c| = 1, where the early pass of the w test starts and stops, and
    just outside that box, where |w| > 1e-10 can still fail the full test."""
    _, half_delta, delta_eps, _, _ = algebra._kernel

    def unit():
        return cmath.exp(1j * rng.uniform(-math.pi, math.pi))

    def exponent(half_c, nu):
        # lp*lm = (half_c^2 - nu^2)/delta_eps, split between lp and lm at random
        lp = random_complex(rng, 1.5)
        x = half_c * half_c - nu * nu
        return lp, half_c / half_delta, x / delta_eps / lp if lp else 0j

    for scale in (1e-6, 1e-3, 0.3, 1.0, 3.0):
        for _ in range(40):
            yield tuple(scale * random_complex(rng) for _ in range(3))
    for _ in range(300):
        # w = 0 where half_c = nu coth(nu); kept there or moved off by 10^-u, and by
        # 10^-9.5 to 10^-12, where |w| meets the roundoff scale of the full test
        nu = 10.0 ** rng.uniform(-1, 0.6) * unit()
        half_c = nu * cmath.cosh(nu) / cmath.sinh(nu)
        for u in (rng.uniform(4, 16), rng.uniform(9.5, 12)):
            yield exponent(half_c * (1 + rng.choice([0.0, 1.0]) * 10.0**-u * unit()), nu)
        # |nu| and |half_c| each just below, at or just above 1
        a_nu, a_half = (1 + rng.choice([-1, 0, 1]) * 10.0 ** -rng.uniform(1, 16) for _ in range(2))
        yield exponent(a_half * unit(), a_nu * unit())
        # |half_c| up to 1e8 over |nu| <= 1: nu^2 = half_c^2 - x is lost to roundoff
        yield exponent(10.0 ** rng.uniform(0, 8) * unit(), rng.uniform(0, 1) * unit())
        # half_c = 0 and nu = i y with y near (k + 1/2) pi: w = cos(y) ~ 1e-6 to 1e-12,
        # against a roundoff scale that grows with y^2 = |x|
        y = (rng.randrange(300, 30000) + 0.5) * math.pi + rng.choice([-1, 1]) * 10.0 ** -rng.uniform(6, 12)
        yield exponent(0j, 1j * y)


@pytest.mark.parametrize("algebra", list(AlgebraKind), ids=lambda a: a.value)
def test_early_pass_of_the_w_test_changes_no_outcome(algebra):
    # bits where |nu| <= 1; where |nu| > 1, w is taken on the exp(-nu) scale, so
    # only the kind of outcome (a result, or the type raised) must match
    rng = random.Random(71)
    kernel = algebra._kernel
    _, half_delta, delta_eps, _, minus_two_over_delta = kernel
    kinds = set()
    for lp, lc, lm in guard_draws(algebra, rng):
        expected = outcome(seed_guarded_disentangle, kernel, lp, lc, lm)
        got = outcome(_disentangle_raw, kernel, lp, lc, lm)
        if kind_of(got) == "result":  # what a fold takes from a slice unchecked
            assert all(cmath.isfinite(z) for z in _disentangle_raw(kernel, lp, lc, lm)), (lp, lc, lm)
        half_c = half_delta * lc
        nu = cmath.sqrt(half_c * half_c - delta_eps * lp * lm)
        if abs(nu) <= 1.0:
            assert got == expected, (lp, lc, lm)
        elif kind_of(got) != kind_of(expected):
            # the two scales' guards part only near w = 0, and one way: the kernel
            # refuses a w whose reference value, exp(log_c / minus_two_over_delta),
            # has |w exp(-nu)| < 1e-9, where the seed returned a value that misses
            # the reference
            assert (kind_of(got), kind_of(expected)) == (SingularDecomposition, "result"), (lp, lc, lm)
            log_c = complex(gauss_coordinates(algebra.value, lp, lc, lm)[1])
            assert math.exp((log_c / minus_two_over_delta).real - abs(nu.real)) < 1e-9, (lp, lc, lm)
            seed = seed_guarded_disentangle(kernel, lp, lc, lm)[:3]
            assert worst_relative_error(algebra.value, lp, lc, lm, seed) > CENSUS_BOUND, (lp, lc, lm)
        kinds.add(kind_of(expected))
    assert kinds == {"result", SingularDecomposition}
