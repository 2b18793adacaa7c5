"""Seeded workload inputs, built only through bchkit's public API.

``build(workload, seed)`` is exactly the work that ``setup_s`` times in a
fresh interpreter, so this module imports nothing but bchkit and the standard
library: a later change that makes ``import bchkit`` cheaper (or dearer) shows
up in ``setup_s`` undiluted by the benchmark's own imports.

Every workload is a fixed cycle of job *slots*.  A slot fixes the kind of
work and its size (steps, sequence length, subcommand); the seed fixes the
numbers inside it.  Each round of the cycle draws fresh numbers for the same
slots, so the mix of work per round is identical for every seed.
"""

from __future__ import annotations

import bisect
import cmath
import math
import random
from dataclasses import dataclass

from bchkit import (
    AlgebraKind,
    ExponentParams,
    GroupElement,
    HamiltonianSchedule,
    SqueezeParams,
    default_checkpoint_stride,
    disentangle,
    oscillator_schedule,
)

WORKLOADS = ("evolve-drive", "fold-chain", "oracle-verify", "cli-batch")
ALGEBRAS = (AlgebraKind.SU11, AlgebraKind.SU2, AlgebraKind.SO21)

# bchkit evaluates sinh(nu)/nu by series below this |nu| and in closed form
# above it; coarse and fine evolve jobs sit on either side with a wide margin.
SERIES_NU_THRESHOLD = 1e-4
COARSE_TAU_H = 2e-3
FINE_TAU_H = 2e-5



def _ladder(low: int, high: int, count: int) -> tuple:
    """``count`` sizes spaced geometrically from ``low`` to ``high``.

    Job times then form a continuum, so no latency percentile sits on a jump
    between two size classes, where noise would flip it from one to the other.
    """
    return tuple(round(low * (high / low) ** (k / (count - 1))) for k in range(count))


EVOLVE_STEPS = _ladder(1024, 16384, 60)
EVOLVE_FAMILIES = ("su11-oscillator", "su2-hermitian", "so21-sampled")
RESONANT_STEPS = 256  # H = T+ + T- on [0, pi]: the chart breaks at t = pi/2
SO21_SAMPLES = 12
POOL_ROUNDS = {"evolve-drive": 6, "fold-chain": 1, "oracle-verify": 500, "cli-batch": 3}

FOLD_LENGTHS = _ladder(2, 2584, 96)
FOLD_SCALE = 0.5
ORACLE_SCALE = 0.6
ORACLE_SQUEEZE_R = 3.0

CLI_LONG_COMPOSE = 10_000
CLI_LONG_STEPS = 65_536
CLI_RESONANT_STEPS = 100


@dataclass(frozen=True)
class Job:
    """One unit of closed-loop work: ``slot`` indexes the round, ``spec`` the numbers."""

    slot: int
    kind: str
    items: int
    spec: dict


@dataclass(frozen=True)
class Inputs:
    slots: int
    rounds: tuple  # tuple of rounds, each a tuple of Job in execution order


def _polar(rng: random.Random, scale: float) -> complex:
    return rng.uniform(0.0, scale) * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))


def _random_params(rng: random.Random, scale: float) -> ExponentParams:
    return ExponentParams(_polar(rng, scale), _polar(rng, scale), _polar(rng, scale))


def _random_element(rng: random.Random, algebra: AlgebraKind, scale: float) -> GroupElement:
    return disentangle(algebra, _random_params(rng, scale)).element


# ---------------------------------------------------------------------------
# evolve-drive

def _interp(times, values, t):
    if t <= times[0]:
        return values[0]
    if t >= times[-1]:
        return values[-1]
    i = bisect.bisect_right(times, t) - 1
    frac = (t - times[i]) / (times[i + 1] - times[i])
    return values[i] + (values[i + 1] - values[i]) * frac


def _su11_oscillator(rng, constant, tau_h, steps):
    """Oscillator with drifting omega; |nu| per step is exactly tau*omega(t)."""
    omega0 = rng.uniform(0.8, 1.2)
    mean = omega0 * rng.uniform(0.9, 1.1)
    if constant:
        def omega_of_t(t):
            return mean
    else:
        depth, rate, phase = rng.uniform(0.05, 0.2), rng.uniform(0.1, 0.5), rng.uniform(0, 2 * math.pi)

        # modulation far below the parametric resonance at 2*omega
        def omega_of_t(t):
            return mean * (1.0 + depth * math.sin(rate * t + phase))

    return oscillator_schedule(omega0, omega_of_t, tau_h * steps / mean)


def _su2_hermitian(rng, constant, tau_h, steps):
    """Off-resonant two-level drive: detuning >= 0.6 keeps |U_22| near 1."""
    cartan, amp, phase = rng.uniform(0.9, 1.2), rng.uniform(0.05, 0.15), rng.uniform(0, 2 * math.pi)
    rate = 0.0 if constant else rng.uniform(0.0, 0.3)
    ripple = 0.0 if constant else rng.uniform(0.0, 0.1)
    ripple_rate = rng.uniform(0.1, 0.5)

    def eta(t):
        plus = amp * cmath.exp(1j * (rate * t + phase))
        return (plus, complex(cartan + ripple * math.cos(ripple_rate * t)), plus.conjugate())

    h = math.sqrt(cartan * cartan / 4 + amp * amp)
    return HamiltonianSchedule(AlgebraKind.SU2, eta, tau_h * steps / h)


def _so21_sampled(rng, constant, tau_h, steps):
    """Sampled so(2,1) drive whose 2x2 image lies in su(1,1), so it never leaves the chart.

    With eta = (sqrt2*b, 2i*a, -sqrt2*conj(b)) and a > |b| the generator is
    elliptic and U stays bounded with |U_22| >= 1.
    """
    count = 1 if constant else SO21_SAMPLES
    a = [rng.uniform(0.4, 0.6) for _ in range(count)]
    b = [_polar(rng, 0.2) for _ in range(count)]
    h = sum(math.sqrt(x * x - abs(y) ** 2) for x, y in zip(a, b)) / count
    t_final = tau_h * steps / h
    times = [t_final * k / max(1, count - 1) for k in range(count)]
    root2 = math.sqrt(2.0)

    def eta(t):
        aa, bb = _interp(times, a, t), _interp(times, b, t)
        return (root2 * bb, 2j * aa, -root2 * bb.conjugate())

    return HamiltonianSchedule(AlgebraKind.SO21, eta, t_final)


def _resonant_schedule():
    return HamiltonianSchedule(AlgebraKind.SU2, lambda t: (1 + 0j, 0j, 1 + 0j), math.pi)


_FAMILY_BUILDERS = {
    "su11-oscillator": _su11_oscillator,
    "su2-hermitian": _su2_hermitian,
    "so21-sampled": _so21_sampled,
}


def _evolve_slots():
    """(family, branch, steps, constant, checkpoint) per slot, resonant slot last.

    The six family x branch combinations take turns along the step ladder, so
    each spans the whole range; a fifth of each combination's slots have a
    constant H, and about a third of all slots record checkpoints.
    """
    combos = [(family, branch) for family in EVOLVE_FAMILIES for branch in ("coarse", "fine")]
    slots = []
    for k, steps in enumerate(EVOLVE_STEPS):
        row, c = divmod(k, len(combos))
        family, branch = combos[c]
        slots.append((family, branch, steps, row % 5 == c % 5, (row + c) % 3 == 0))
    slots.append(("su2-resonant", "coarse", RESONANT_STEPS, False, False))
    return slots


def _build_evolve(rng: random.Random):
    slots = _evolve_slots()
    order = list(range(len(slots)))
    rng.shuffle(order)
    rounds = []
    for _ in range(POOL_ROUNDS["evolve-drive"]):
        jobs = []
        for slot in order:
            family, branch, steps, constant, checkpoint = slots[slot]
            if family == "su2-resonant":
                schedule, singular = _resonant_schedule(), RESONANT_STEPS // 2
            else:
                tau_h = COARSE_TAU_H if branch == "coarse" else FINE_TAU_H
                schedule = _FAMILY_BUILDERS[family](rng, constant, tau_h, steps)
                singular = None
            spec = {
                "family": family,
                "branch": branch,
                "steps": steps,
                "schedule": schedule,
                "checkpoint_every": default_checkpoint_stride(steps) if checkpoint else None,
                "constant": constant,
                "singular_step": singular,
            }
            jobs.append(Job(slot, family, singular or steps, spec))
        rounds.append(tuple(jobs))
    return len(slots), tuple(rounds)


# ---------------------------------------------------------------------------
# fold-chain

def _build_fold(rng: random.Random):
    slots = [(ALGEBRAS[k % 3], length) for k, length in enumerate(FOLD_LENGTHS)]
    order = list(range(len(slots)))
    rng.shuffle(order)
    rounds = []
    for _ in range(POOL_ROUNDS["fold-chain"]):
        jobs = []
        for slot in order:
            algebra, length = slots[slot]
            elements = tuple(_random_element(rng, algebra, FOLD_SCALE) for _ in range(length))
            jobs.append(Job(slot, algebra.value, length, {"elements": elements}))
        rounds.append(tuple(jobs))
    return len(slots), tuple(rounds)


# ---------------------------------------------------------------------------
# oracle-verify

def _build_oracle(rng: random.Random):
    """The gates' three checks weighted 1:2:1 (disentangle, compose_pair, squeeze).

    Their costs are three separate levels; with these weights p50 falls in the
    middle of the compose_pair band and p90 inside the squeeze band, not on
    the edge between two bands.
    """
    slots = [("disentangle", a) for a in ALGEBRAS] + [("compose_pair", a) for a in ALGEBRAS * 2]
    slots += [("squeeze", AlgebraKind.SU11)] * 3
    rounds = []
    for _ in range(POOL_ROUNDS["oracle-verify"]):
        jobs = []
        for slot, (kind, algebra) in enumerate(slots):
            if kind == "disentangle":
                spec = {"algebra": algebra, "lam": _random_params(rng, ORACLE_SCALE)}
            elif kind == "compose_pair":
                spec = {
                    "g1": _random_element(rng, algebra, FOLD_SCALE),
                    "g2": _random_element(rng, algebra, FOLD_SCALE),
                }
            else:
                spec = {
                    "z1": SqueezeParams(rng.uniform(0, ORACLE_SQUEEZE_R), rng.uniform(-math.pi, math.pi)),
                    "z2": SqueezeParams(rng.uniform(0, ORACLE_SQUEEZE_R), rng.uniform(-math.pi, math.pi)),
                }
            jobs.append(Job(slot, kind, 1, spec))
        rounds.append(tuple(jobs))
    return len(slots), tuple(rounds)


# ---------------------------------------------------------------------------
# cli-batch
#
# A round is 80 calls: 60 short (process start dominates), 19 long compose
# over ~10k elements and 1 evolve over 65536 steps.  Long composes are about
# a quarter of the calls, so p90 falls in the middle of their latency band and
# p50 in the middle of the short band, never on the edge between two bands.

CLI_SHORT = (
    ("disentangle", 15),
    ("squeeze-compose", 13),
    ("compose", 15),
    ("evolve", 15),
    ("compose-singular", 1),
    ("evolve-singular", 1),
)
CLI_LONG = (("compose-long", 19), ("evolve-long", 1))
CLI_KIND_ORDER = (
    "disentangle", "compose-long", "squeeze-compose", "evolve", "compose",
    "evolve-long", "compose-singular", "evolve-singular",
)


def _cli_samples_schedule(algebra: str, t_final: float, samples) -> dict:
    return {
        "format": 1,
        "algebra": algebra,
        "t_final": t_final,
        "samples": [
            {"t": t, "eta_plus": [p.real, p.imag], "eta_c": [c.real, c.imag],
             "eta_minus": [m.real, m.imag]}
            for t, (p, c, m) in samples
        ],
    }


def _cli_schedule(rng: random.Random, index: int) -> dict:
    """Schedule-file dict for a short evolve call: su11 preset, su2 or so21 samples."""
    which = index % 3
    t_final = rng.uniform(1.0, 3.0)
    if which == 0:
        times = sorted(rng.uniform(0, t_final) for _ in range(4))
        return {
            "format": 1,
            "algebra": "su11",
            "t_final": t_final,
            "preset": {
                "name": "oscillator",
                "omega0": rng.uniform(0.8, 1.2),
                "omega_profile": {"type": "table", "points": [[t, rng.uniform(0.7, 1.3)] for t in times]},
            },
        }
    times = sorted(rng.uniform(0, t_final) for _ in range(5))
    if which == 1:
        samples = []
        for t in times:
            plus = _polar(rng, 0.15)
            samples.append((t, (plus, complex(rng.uniform(0.9, 1.2)), plus.conjugate())))
        return _cli_samples_schedule("su2", t_final, samples)
    samples = []
    for t in times:
        b = _polar(rng, 0.2)
        samples.append((t, (math.sqrt(2) * b, 2j * rng.uniform(0.4, 0.6), -math.sqrt(2) * b.conjugate())))
    return _cli_samples_schedule("so21", t_final, samples)


def _cli_order(rng: random.Random) -> list:
    """One call of each kind first, then the rest with the long calls spread evenly."""
    counts = dict(CLI_SHORT + CLI_LONG)
    head = list(CLI_KIND_ORDER)
    for kind in head:
        counts[kind] -= 1
    short = [kind for kind, _ in CLI_SHORT for _ in range(counts[kind])]
    rng.shuffle(short)
    longs = [kind for kind, _ in CLI_LONG for _ in range(counts[kind])]
    spacing = len(short) / (len(longs) + 1)
    placed = [(i, kind) for i, kind in enumerate(short)]
    placed += [((j + 1) * spacing - 0.5, kind) for j, kind in enumerate(longs)]
    return head + [kind for _, kind in sorted(placed, key=lambda p: p[0])]


def _build_cli(rng: random.Random):
    order = _cli_order(rng)
    long_elements = tuple(
        tuple(_random_element(rng, AlgebraKind.SU11, FOLD_SCALE) for _ in range(CLI_LONG_COMPOSE))
        for _ in range(2)
    )
    long_schedule = _cli_schedule(rng, 0)
    long_schedule["t_final"] = 20.0
    rounds = []
    long_count = 0
    for _ in range(POOL_ROUNDS["cli-batch"]):
        jobs = []
        for slot, kind in enumerate(order):
            if kind == "disentangle":
                algebra = ALGEBRAS[slot % 3]
                spec = {"algebra": algebra, "lam": _random_params(rng, ORACLE_SCALE)}
            elif kind == "squeeze-compose":
                spec = {
                    "z1": (rng.uniform(0, 1.5), rng.uniform(-math.pi, math.pi)),
                    "z2": (rng.uniform(0, 1.5), rng.uniform(-math.pi, math.pi)),
                }
            elif kind == "compose":
                algebra = ALGEBRAS[slot % 3]
                length = rng.choice((8, 16, 32, 64))
                spec = {
                    "algebra": algebra,
                    "elements": tuple(_random_element(rng, algebra, FOLD_SCALE) for _ in range(length)),
                    "continued_fraction": slot % 2 == 0,
                }
            elif kind == "compose-long":
                spec = {
                    "algebra": AlgebraKind.SU11,
                    "elements": long_elements[long_count % 2],
                    "continued_fraction": True,
                    "file_id": f"long{long_count % 2}",
                }
                long_count += 1
            elif kind == "evolve":
                spec = {
                    "schedule": _cli_schedule(rng, slot),
                    "steps": rng.choice((64, 128, 256, 512)),
                    "midpoint": slot % 2 == 1,
                    "csv": False,
                }
            elif kind == "evolve-long":
                spec = {"schedule": long_schedule, "steps": CLI_LONG_STEPS, "midpoint": False,
                        "csv": True, "file_id": "long-evolve"}
            elif kind == "compose-singular":
                spec = {}
            else:  # evolve-singular: resonant su(2), breaks at step N/2, t = pi/2
                spec = {
                    "schedule": _cli_samples_schedule("su2", math.pi, [(0.0, (1 + 0j, 0j, 1 + 0j))]),
                    "steps": CLI_RESONANT_STEPS,
                    "file_id": "resonant",
                }
            jobs.append(Job(slot, kind, 1, spec))
        rounds.append(tuple(jobs))
    return len(order), tuple(rounds)


_BUILDERS = {
    "evolve-drive": _build_evolve,
    "fold-chain": _build_fold,
    "oracle-verify": _build_oracle,
    "cli-batch": _build_cli,
}


def build(workload: str, seed: int) -> Inputs:
    """All inputs of one workload for one seed; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    return Inputs(*_BUILDERS[workload](rng))

