"""End-to-end acceptance checks.

Each test covers one release gate and prints a single PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -s`` to see them); the
assertion that follows enforces the same condition, so a FAIL line is
always accompanied by a test failure.
"""
import cmath
import json
import math
import random
import time

from bchkit import (
    AlgebraKind,
    ExponentParams,
    GroupElement,
    HamiltonianSchedule,
    Mat2,
    SingularDecomposition,
    SqueezeParams,
    alpha_continued_fraction,
    compose_many,
    compose_pair,
    compose_squeezes,
    disentangle,
    element_matrix,
    evolve,
    exponent_matrix,
    factor_squeeze_rotation,
    oscillator_schedule,
)
from bchkit.cli import main as cli_main
from frozen import random_complex

ALGEBRAS = (AlgebraKind.SU11, AlgebraKind.SU2, AlgebraKind.SO21)


def _verdict(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _random_params(rng, scale: float) -> ExponentParams:
    # each component drawn with magnitude <= scale
    mags = [rng.uniform(0.0, scale) for _ in range(3)]
    phases = [rng.uniform(0.0, 2 * math.pi) for _ in range(3)]
    return ExponentParams(*(m * cmath.exp(1j * p) for m, p in zip(mags, phases)))


def _random_element(rng, algebra: AlgebraKind, scale: float = 0.5) -> GroupElement:
    return disentangle(algebra, _random_params(rng, scale)).element


def test_disentangle_matches_matrix_oracle_at_scale():
    rng = random.Random(2024)
    start = time.perf_counter()
    worst = 0.0
    for algebra in ALGEBRAS:
        accepted = 0
        while accepted < 1000:
            lam = _random_params(rng, 0.6)
            try:
                result = disentangle(algebra, lam)
            except SingularDecomposition:
                continue
            gap = abs(element_matrix(result.element) - exponent_matrix(algebra, lam)).max()
            worst = max(worst, gap)
            accepted += 1
    elapsed = time.perf_counter() - start
    _verdict(
        "disentangle-oracle",
        worst <= 1e-10 and elapsed < 5.0,
        f"max entrywise gap {worst:.3e} over 3x1000 draws in {elapsed:.2f}s",
    )


def test_pairwise_composition_matches_matrix_products():
    rng = random.Random(2025)
    start = time.perf_counter()
    worst_product = 0.0
    for algebra in ALGEBRAS:
        for _ in range(1000):
            g1 = _random_element(rng, algebra)
            g2 = _random_element(rng, algebra)
            combined = compose_pair(g2, g1)
            gap = abs(element_matrix(combined) - element_matrix(g2) @ element_matrix(g1)).max()
            worst_product = max(worst_product, gap)
    worst_assoc = 0.0
    for index in range(300):
        algebra = ALGEBRAS[index % 3]
        g1, g2, g3 = (_random_element(rng, algebra) for _ in range(3))
        left = element_matrix(compose_pair(g3, compose_pair(g2, g1)))
        right = element_matrix(compose_pair(compose_pair(g3, g2), g1))
        worst_assoc = max(worst_assoc, abs(left - right).max())
    elapsed = time.perf_counter() - start
    _verdict(
        "pairwise-composition",
        worst_product <= 1e-10 and worst_assoc <= 1e-10 and elapsed < 5.0,
        f"product gap {worst_product:.3e}, associativity gap {worst_assoc:.3e} in {elapsed:.2f}s",
    )


def test_recurrence_equals_continued_fraction():
    rng = random.Random(2026)
    start = time.perf_counter()
    worst = 0.0
    for length in range(2, 11):
        for index in range(200):
            algebra = ALGEBRAS[(length + index) % 3]
            elements = [_random_element(rng, algebra) for _ in range(length)]
            folded = compose_many(elements).big_plus
            threaded = alpha_continued_fraction(elements)
            worst = max(worst, abs(folded - threaded))
    elapsed = time.perf_counter() - start
    _verdict(
        "recurrence-vs-continued-fraction",
        worst <= 1e-10 and elapsed < 5.0,
        f"max |alpha difference| {worst:.3e} for lengths 2..10 in {elapsed:.2f}s",
    )


def test_squeeze_composition_and_factorization():
    # equal phases add the squeeze magnitudes with no residual rotation
    equal = factor_squeeze_rotation(
        compose_squeezes(SqueezeParams(0.9, 0.4), SqueezeParams(0.6, 0.4))
    )
    equal_gap = max(abs(equal.squeeze.r - 1.5), abs(equal.rotation.angle))

    rng = random.Random(2027)
    worst_round = 0.0
    worst_print = 0.0
    for _ in range(1000):
        z1 = SqueezeParams(rng.uniform(0, 3.0), rng.uniform(-math.pi, math.pi))
        z2 = SqueezeParams(rng.uniform(0, 3.0), rng.uniform(-math.pi, math.pi))
        product = compose_squeezes(z2, z1)
        rebuilt = factor_squeeze_rotation(product).recompose()
        worst_round = max(
            worst_round,
            abs(rebuilt.big_plus - product.big_plus),
            abs(rebuilt.big_c() - product.big_c()),
            abs(rebuilt.big_minus - product.big_minus),
            abs(cmath.exp(rebuilt.phase) - cmath.exp(product.phase)),
        )
        alpha, beta, gamma = product.big_plus, product.big_c(), product.big_minus
        worst_print = max(
            worst_print,
            abs(abs(alpha) - abs(gamma)),
            abs(abs(alpha) ** 2 + abs(beta) - 1.0),
        )
    ok = equal_gap <= 1e-12 and worst_round <= 1e-10 and worst_print <= 1e-12
    _verdict(
        "squeeze-composition",
        ok,
        f"equal-phase gap {equal_gap:.3e}, recomposition {worst_round:.3e}, "
        f"fingerprint {worst_print:.3e} over 1000 draws",
    )


def test_constant_hamiltonian_evolution_is_step_count_independent():
    start = time.perf_counter()
    eta_values = (0.21 - 0.17j, 0.83 + 0.06j, -0.34 + 0.25j)
    worst = 0.0
    for algebra in ALGEBRAS:
        schedule = HamiltonianSchedule(algebra, lambda t: eta_values, 1.5)
        coarse = evolve(schedule, 1).element
        fine = evolve(schedule, 1024).element
        worst = max(
            worst,
            abs(coarse.big_plus - fine.big_plus),
            abs(coarse.big_c() - fine.big_c()),
            abs(coarse.big_minus - fine.big_minus),
        )
    elapsed = time.perf_counter() - start
    _verdict(
        "constant-hamiltonian",
        worst <= 1e-10 and elapsed < 2.0,
        f"max component gap {worst:.3e} between N=1 and N=1024 in {elapsed:.2f}s",
    )


def test_evolution_first_order_convergence():
    start = time.perf_counter()
    schedule = oscillator_schedule(1.0, lambda t: 1.0 + 0.3 * math.sin(t), 5.0)
    sizes = [64, 128, 256, 512, 1024, 2048, 4096]
    results = {n: evolve(schedule, n).element for n in sizes}

    def gap(a: GroupElement, b: GroupElement) -> float:
        return max(
            abs(a.big_plus - b.big_plus),
            abs(a.big_c() - b.big_c()),
            abs(a.big_minus - b.big_minus),
        )

    diffs = [gap(results[n], results[2 * n]) for n in sizes[:-1]]
    ratios = [a / b for a, b in zip(diffs, diffs[1:])]
    elapsed = time.perf_counter() - start
    ok = all(1.7 <= r <= 2.3 for r in ratios) and elapsed < 30.0
    _verdict(
        "first-order-convergence",
        ok,
        "Cauchy ratios " + ", ".join(f"{r:.2f}" for r in ratios) + f" in {elapsed:.2f}s",
    )


def test_su2_hermitian_evolution_is_unitary():
    start = time.perf_counter()
    rng = random.Random(2028)
    worst = 0.0
    for _ in range(3):
        amp = random_complex(rng, 0.5)
        rate = rng.uniform(0.3, 1.4)
        base = rng.uniform(0.2, 1.0)

        def eta(t, amp=amp, rate=rate, base=base):
            plus = amp * cmath.exp(1j * rate * t)
            return (plus, base + 0.3 * math.cos(t) + 0j, plus.conjugate())

        schedule = HamiltonianSchedule(AlgebraKind.SU2, eta, 4.0)
        matrix = element_matrix(evolve(schedule, 1000).element)
        defect = abs(matrix.conj().T @ matrix - Mat2(1, 0, 0, 1)).max()
        worst = max(worst, defect)
    elapsed = time.perf_counter() - start
    _verdict(
        "su2-unitarity",
        worst <= 1e-10 and elapsed < 2.0,
        f"max unitarity defect {worst:.3e} at N=1000 in {elapsed:.2f}s",
    )


def test_singular_inputs_raise_instead_of_returning_garbage(tmp_path, capsys):
    algebra = AlgebraKind.SU11
    first = GroupElement(algebra, 1.0 + 0j, 0j, 0j)
    second = GroupElement(algebra, 0j, 0j, 1.0 + 0j)
    raised = False
    try:
        compose_pair(second, first)
    except SingularDecomposition as exc:
        raised = exc.denominator_abs == 0.0

    path = tmp_path / "singular.json"
    path.write_text(json.dumps([
        {"Lambda_plus": [1.0, 0.0], "Lambda_c": [1.0, 0.0], "Lambda_minus": [0.0, 0.0]},
        {"Lambda_plus": [0.0, 0.0], "Lambda_c": [1.0, 0.0], "Lambda_minus": [1.0, 0.0]},
    ]))
    exit_code = cli_main(["compose", "--algebra", "su11", str(path)])
    body = json.loads(capsys.readouterr().out)
    ok = raised and exit_code == 3 and "error" in body
    _verdict(
        "singularity-handling",
        ok,
        f"library raised={raised}, cli exit code={exit_code}",
    )
