"""Command-line surface: disentangle, compose, squeeze-compose, evolve.

Every command is a thin wrapper over the library with deterministic JSON
output: fixed field order, complex numbers as [re, im] pairs, floats printed
with 17 significant digits so values round-trip exactly.  Exit codes are a
stable contract for pipelines: 0 on success, 2 for input or parse problems,
3 when a requested decomposition does not exist.
"""

from __future__ import annotations

import argparse
import cmath
import gc
import json
import re
import sys
from bisect import bisect_right
from cmath import isfinite

from .algebra import AlgebraKind, ExponentParams, GroupElement, make_algebra
from .compose import _compose_coords, _continued_fraction, disentangle
from .errors import NonFiniteInput, SingularDecomposition
from .evolve import (
    HamiltonianSchedule,
    _check_count,
    default_checkpoint_stride,
    evolve,
    oscillator_schedule,
)

__all__ = ["main", "load_schedule"]

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SINGULAR = 3

# argparse mistakes "-0.3,0" or "-inf,0" for an option flag; tokens that start
# like a negative number, finite or not, and contain a comma get a protective
# leading space, which the pair parsers strip again.
_NEGATIVE_PAIR = re.compile(r"-(\.?\d|inf|nan)[^ ]*,", re.IGNORECASE)


def _fmt(value: float) -> str:
    return format(value, ".17g")


def _render(value) -> str:
    """Fixed-order JSON with .17g floats and complex values as [re, im]."""
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _fmt(value)
    if isinstance(value, complex):
        return f"[{_fmt(value.real)}, {_fmt(value.imag)}]"
    if isinstance(value, dict):
        inner = ", ".join(f"{json.dumps(k)}: {_render(v)}" for k, v in value.items())
        return "{" + inner + "}"
    raise TypeError(f"cannot render {type(value).__name__}")


def _emit(payload: dict) -> None:
    print(_render(payload))


def _fail(code: int, message: str, **extra) -> int:
    body = {"error": message}
    for key, value in extra.items():
        if value is not None:
            body[key] = value
    _emit(body)
    return code


def _require(condition, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(*values) -> bool:
    """Whether every JSON number is a finite double; an integer beyond double range is not."""
    try:
        return all(map(isfinite, values))
    except OverflowError:
        return False


def _number_field(obj: dict, key: str, label: str = "schedule") -> float:
    value = obj.get(key)
    _require(
        _is_number(value) and _finite(value),
        f'{label}: "{key}" must be a finite number',
    )
    return float(value)


def _complex_field(obj: dict, key: str, noun: str, pos: int) -> complex:
    """The finite [re, im] pair under ``key``; errors name the entry "<noun> <pos>"."""
    value = obj.get(key)
    if isinstance(value, list) and len(value) == 2:
        re_part, im_part = value
        if _is_number(re_part) and _is_number(im_part):
            if _finite(re_part, im_part):
                return complex(re_part, im_part)
            raise ValueError(f'{noun} {pos}: "{key}" must be finite')
    raise ValueError(f'{noun} {pos}: "{key}" must be a [re, im] pair')


def _split_pair(text: str, shape: str) -> tuple:
    """The two floats of a command-line "a,b" token; ``shape`` names them in the error."""
    try:
        first, second = map(float, text.strip().split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected {shape} but got {text!r}") from None
    return first, second


def _parse_complex_pair(text: str) -> complex:
    return complex(*_split_pair(text, "re,im"))


def _parse_squeeze_pair(text: str):
    from .squeeze import SqueezeParams

    r, phi = _split_pair(text, "r,phi")
    if r < 0:
        raise argparse.ArgumentTypeError(f"squeeze magnitude must be >= 0, got {r}")
    try:
        return SqueezeParams(r, phi)
    except NonFiniteInput:
        raise argparse.ArgumentTypeError(f"r,phi must be finite but got {text.strip()!r}") from None


# ---------------------------------------------------------------------------
# commands

def _element_fields(g: GroupElement) -> dict:
    """The "alpha", "beta", "gamma" and "log_c" fields that compose and evolve print first."""
    return {"alpha": g.big_plus, "beta": g.big_c(), "gamma": g.big_minus, "log_c": g.log_c}


def cmd_disentangle(args) -> int:
    algebra = make_algebra(args.algebra)
    result = disentangle(algebra, ExponentParams(*args.lam))
    element = result.element
    _emit(
        {
            "Lambda_plus": element.big_plus,
            "Lambda_c": element.big_c(),
            "log_c": element.log_c,
            "nu": result.nu,
            "Lambda_minus": element.big_minus,
        }
    )
    return EXIT_OK


def _entry_coords(entry, pos: int) -> tuple:
    """Coordinate tuple of element file entry ``pos``, checked field by field."""
    if not isinstance(entry, dict):
        raise ValueError(f"element {pos} must be an object")
    big_plus = _complex_field(entry, "Lambda_plus", "element", pos)
    big_minus = _complex_field(entry, "Lambda_minus", "element", pos)
    if "log_c" in entry:
        log_c = _complex_field(entry, "log_c", "element", pos)
    elif "Lambda_c" in entry:
        big_c = _complex_field(entry, "Lambda_c", "element", pos)
        if big_c == 0:
            raise ValueError(f'element {pos}: "Lambda_c" must be nonzero')
        log_c = cmath.log(big_c)
    else:
        raise ValueError(f'element {pos} needs "log_c" or "Lambda_c"')
    return big_plus, log_c, big_minus


def _load_coords(path: str) -> list:
    """Coordinate triples (big_plus, log_c, big_minus) of every entry of an element file.

    An entry whose "Lambda_plus", "log_c" and "Lambda_minus" are each a pair
    of finite floats is taken as it is; every other entry goes through
    _entry_coords, which gives the same tuple or the error that names it.
    Cyclic garbage collection is paused meanwhile, then restored to its prior
    state: parsing builds no reference cycles, yet the parser's many lists and
    dicts would trigger collection again and again.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        with open(path) as fh:
            raw = json.load(fh)
        if not (isinstance(raw, list) and raw):
            raise ValueError("element file must hold a nonempty JSON list")
        coords = []
        append = coords.append
        for pos, entry in enumerate(raw, start=1):
            try:
                p_re, p_im = entry["Lambda_plus"]
                c_re, c_im = entry["log_c"]
                m_re, m_im = entry["Lambda_minus"]
            except (KeyError, TypeError, ValueError):
                append(_entry_coords(entry, pos))
                continue
            if type(p_re) is type(p_im) is type(c_re) is type(c_im) is type(m_re) is type(m_im) is float:
                big_plus = complex(p_re, p_im)
                log_c = complex(c_re, c_im)
                big_minus = complex(m_re, m_im)
                if isfinite(big_plus) and isfinite(log_c) and isfinite(big_minus):
                    append((big_plus, log_c, big_minus))
                    continue
            append(_entry_coords(entry, pos))
        return coords
    finally:
        if collecting:
            gc.enable()


def cmd_compose(args) -> int:
    algebra = make_algebra(args.algebra)
    coords = _load_coords(args.elements)
    payload = _element_fields(GroupElement(algebra, *_compose_coords(algebra, coords, len(coords))))
    if args.continued_fraction:
        alpha_cf = _continued_fraction(algebra, coords)
        payload["alpha_continued_fraction"] = alpha_cf
        payload["alpha_abs_difference"] = abs(alpha_cf - payload["alpha"])
    _emit(payload)
    return EXIT_OK


def cmd_squeeze_compose(args) -> int:
    from .squeeze import compose_squeezes, factor_squeeze_rotation

    product = compose_squeezes(args.z2, args.z1)
    factored = factor_squeeze_rotation(product)
    _emit(
        {
            "alpha": product.big_plus,
            "beta": product.big_c(),
            "gamma": product.big_minus,
            "factorization": {
                "r": factored.squeeze.r,
                "phi": factored.squeeze.phi,
                "rotation_angle": factored.rotation.angle,
            },
            "recomposition_residual": factored.residual,
        }
    )
    return EXIT_OK


def _interp(times: list, values: list, blend, what: str):
    """Piecewise-linear t -> value through the knots, clamped outside them.

    ``blend(a, b, frac)`` mixes two neighbouring values; ``what`` names the knots in errors.
    """
    for a, b in zip(times, times[1:]):
        _require(a < b, f"{what} times must be strictly increasing")
    first, last = times[0], times[-1]

    def at(t: float):
        if t <= first:
            return values[0]
        if t >= last:
            return values[-1]
        i = bisect_right(times, t) - 1
        return blend(values[i], values[i + 1], (t - times[i]) / (times[i + 1] - times[i]))

    return at


def _table_omega(profile: dict):
    points = profile.get("points")
    _require(
        isinstance(points, list) and len(points) > 0,
        'omega_profile: "points" must be a nonempty list',
    )
    times, omegas = [], []
    for pos, point in enumerate(points, start=1):
        ok = isinstance(point, list) and len(point) == 2 and all(_is_number(v) for v in point)
        _require(ok, f"omega_profile point {pos} must be a [t, omega] pair")
        _require(_finite(*point), f"omega_profile point {pos} must be finite")
        times.append(float(point[0]))
        omegas.append(float(point[1]))
    return _interp(times, omegas, lambda a, b, frac: a + (b - a) * frac, "omega_profile")


def _preset_schedule(preset, algebra: AlgebraKind, t_final: float) -> HamiltonianSchedule:
    _require(isinstance(preset, dict), '"preset" must be an object')
    _require(preset.get("name") == "oscillator", 'only the "oscillator" preset exists')
    _require(algebra is AlgebraKind.SU11, 'the oscillator preset requires algebra "su11"')
    omega0 = _number_field(preset, "omega0", "preset")
    profile = preset.get("omega_profile")
    _require(isinstance(profile, dict), 'preset: "omega_profile" must be an object')
    kind = profile.get("type")
    if kind == "constant":
        omega = _number_field(profile, "omega", "omega_profile")

        def omega_of_t(t: float) -> float:
            return omega

    elif kind == "jump":
        before = _number_field(profile, "omega_before", "omega_profile")
        after = _number_field(profile, "omega_after", "omega_profile")
        t_jump = 0.0
        if "t_jump" in profile:
            t_jump = _number_field(profile, "t_jump", "omega_profile")

        def omega_of_t(t: float) -> float:
            return before if t < t_jump else after

    elif kind == "table":
        omega_of_t = _table_omega(profile)
    else:
        raise ValueError(f'unknown omega_profile type {kind!r}')
    return oscillator_schedule(omega0, omega_of_t, t_final)


def _samples_schedule(samples, algebra: AlgebraKind, t_final: float) -> HamiltonianSchedule:
    _require(isinstance(samples, list) and len(samples) > 0, '"samples" must be a nonempty list')
    times, triples = [], []
    for pos, entry in enumerate(samples, start=1):
        label = f"sample {pos}"
        _require(isinstance(entry, dict), f"{label} must be an object")
        times.append(_number_field(entry, "t", label))
        triples.append(
            (
                _complex_field(entry, "eta_plus", "sample", pos),
                _complex_field(entry, "eta_c", "sample", pos),
                _complex_field(entry, "eta_minus", "sample", pos),
            )
        )

    def blend(a, b, frac):
        (p1, c1, m1), (p2, c2, m2) = a, b
        return (p1 + (p2 - p1) * frac, c1 + (c2 - c1) * frac, m1 + (m2 - m1) * frac)

    eta = _interp(times, triples, blend, '"samples"')
    _require(t_final >= times[-1], '"t_final" must not precede the last sample time')
    return HamiltonianSchedule(algebra, eta, t_final)


def load_schedule(path: str) -> HamiltonianSchedule:
    """Parse and validate a schedule file (top-level "format": 1)."""
    with open(path) as fh:
        raw = json.load(fh)
    _require(isinstance(raw, dict), "schedule must be a JSON object")
    version = raw.get("format")
    _require(_is_number(version) and version == 1, 'schedule "format" must be the number 1')
    algebra_name = raw.get("algebra")
    _require(isinstance(algebra_name, str), 'schedule: "algebra" must be a string')
    algebra = make_algebra(algebra_name)
    t_final = _number_field(raw, "t_final")
    _require(t_final > 0, '"t_final" must be positive')
    has_preset = "preset" in raw
    has_samples = "samples" in raw
    _require(
        has_preset != has_samples,
        'schedule needs exactly one of "preset" or "samples"',
    )
    if has_preset:
        return _preset_schedule(raw["preset"], algebra, t_final)
    return _samples_schedule(raw["samples"], algebra, t_final)


def _write_trajectory_csv(path: str, trajectory) -> None:
    lines = ["t,alpha_re,alpha_im,beta_re,beta_im,gamma_re,gamma_im"]
    for t, g in trajectory:
        beta = g.big_c()
        row = (
            t,
            g.big_plus.real,
            g.big_plus.imag,
            beta.real,
            beta.imag,
            g.big_minus.real,
            g.big_minus.imag,
        )
        lines.append(",".join(_fmt(v) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_evolve(args) -> int:
    schedule = load_schedule(args.schedule)
    _require(args.steps >= 1, f"--steps must be >= 1, got {args.steps}")
    _require(_finite(args.steps), "--steps is too large")
    stride = args.checkpoints
    if stride is not None:
        _check_count("checkpoint stride", stride)
    if args.csv is None:
        stride = None  # no trajectory is written, so none is recorded
    elif stride is None:
        stride = default_checkpoint_stride(args.steps)
    result = evolve(schedule, args.steps, checkpoint_every=stride, midpoint=args.midpoint)
    if args.csv is not None:
        _write_trajectory_csv(args.csv, result.trajectory)
    payload = _element_fields(result.element)
    payload["steps"] = result.steps
    payload["tau"] = result.tau
    _emit(payload)
    return EXIT_OK


# ---------------------------------------------------------------------------
# wiring

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bchkit",
        description="Disentangling and composition calculus for su(1,1), su(2), so(2,1).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    algebras = [kind.value for kind in AlgebraKind]

    p = sub.add_parser("disentangle", help="normal-order a single exponential")
    p.add_argument("--algebra", required=True, choices=algebras)
    p.add_argument(
        "--lambda",
        dest="lam",
        required=True,
        nargs=3,
        type=_parse_complex_pair,
        metavar=("PLUS", "C", "MINUS"),
        help="exponent coordinates, each as re,im",
    )
    p.set_defaults(func=cmd_disentangle)

    p = sub.add_parser("compose", help="fold a JSON list of ordered elements")
    p.add_argument("--algebra", required=True, choices=algebras)
    p.add_argument(
        "--continued-fraction",
        action="store_true",
        help="also report the continued-fraction alpha and its deviation",
    )
    p.add_argument("elements", help="path to a JSON list, earliest element first")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser(
        "squeeze-compose",
        help="compose two squeezing operators and factor the result",
    )
    p.add_argument("--z1", required=True, type=_parse_squeeze_pair, metavar="R,PHI")
    p.add_argument("--z2", required=True, type=_parse_squeeze_pair, metavar="R,PHI")
    p.set_defaults(func=cmd_squeeze_compose)

    p = sub.add_parser("evolve", help="build a time-evolution operator")
    p.add_argument("--schedule", required=True, help="path to a schedule JSON file")
    p.add_argument("--steps", required=True, type=int)
    p.add_argument(
        "--checkpoints",
        type=int,
        default=None,
        metavar="K",
        help="record the trajectory every K steps (default: about 100 rows)",
    )
    p.add_argument("--csv", default=None, metavar="PATH", help="write the trajectory as CSV")
    p.add_argument(
        "--midpoint",
        action="store_true",
        help="sample coefficients at interval midpoints (second-order variant)",
    )
    p.set_defaults(func=cmd_evolve)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = [" " + token if _NEGATIVE_PAIR.match(token) else token for token in argv]
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except SingularDecomposition as exc:
        return _fail(
            EXIT_SINGULAR,
            str(exc),
            denominator_abs=exc.denominator_abs,
            step=exc.step,
            time=exc.time,
        )
    except (OSError, OverflowError, RecursionError, ValueError) as exc:
        # every error type of this package but SingularDecomposition, caught
        # above, subclasses ValueError; OverflowError: a value left double range
        # in a kernel's cmath call; RecursionError: a file nested too deep for
        # the JSON parser, since no kernel recurses
        return _fail(EXIT_INPUT, str(exc))


if __name__ == "__main__":
    sys.exit(main())
