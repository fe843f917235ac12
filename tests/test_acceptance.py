"""Acceptance battery: one test per numbered criterion.

Each test prints a single PASS/FAIL line (visible with -rA or -s) carrying
its runtime and the worst observed margin, then asserts at the stated
tolerance. Tolerances are pinned here, not tuned elsewhere.
"""

import math
import time

import numpy as np

from belieflab import (
    BeliefStrategy,
    PVector,
    asymmetric_tilt_model,
    autocorr_model,
    bayes_params,
    bayes_welfare,
    censor_path,
    censor_sensitivity,
    censored_p,
    censored_transitions,
    coin_model,
    conditional_dynamics,
    delta_fixed,
    expected_welfare,
    find_D_witness,
    finite_n_distribution,
    illusory_model,
    in_B,
    kernel_from_p,
    lunar_model,
    lunar_strength_rows,
    regular_censoring_gain,
    simulate_chain,
    simulate_welfare,
    stationary,
    sweep,
    tilt_model,
)
from belieflab.welfare import ProblemSpec


def report(criterion: str, ok: bool, runtime: float, detail: str) -> None:
    print(
        f"{'PASS' if ok else 'FAIL'}  acceptance {criterion} "
        f"({runtime:.2f}s): {detail}"
    )


# printed reference rows for the ward-tension problem: strengths of the
# evidence-for-state-2 outcomes ("0,1", then tension 8..1 without a moon)
# and the evidence-for-state-1 outcomes ("0,0", then tension 1..8 under a
# full moon)
LUNAR_FOR_TWO = [1.31, 1.22, 1.20, 1.17, 1.15, 1.13, 1.10, 1.08, 1.06]
LUNAR_FOR_ONE = [1.02, 1.41, 1.67, 1.96, 2.31, 2.71, 3.19, 3.76, 4.42]


def test_criterion_01_lunar_strength_tables():
    start = time.perf_counter()
    for_two, for_one = lunar_strength_rows(lunar_model())
    violations = []
    for (label, got), want in zip(for_two + for_one, LUNAR_FOR_TWO + LUNAR_FOR_ONE):
        if abs(got - want) > 0.005:
            violations.append(f"{label}: computed {got:.5f} vs printed {want}")
    elapsed = time.perf_counter() - start
    report("1 (lunar tables)", not violations, elapsed, f"{violations or '18/18'}")
    assert elapsed < 1.0
    assert not violations, (
        "Poisson first principles disagree with the printed rows beyond "
        f"0.005: {violations} (the exact value rounds to two decimals "
        "differently than the reference table printed it)"
    )


def _displayed(value: float, printed: str) -> bool:
    decimals = len(printed.split(".")[1]) if "." in printed else 0
    return f"{value:.{decimals}f}" == printed


AUTOCORR_SIX = {
    "direction": [1, 1, 1, 2, 2, 2],
    "strength": ["4.2", "2.1", "1.05", "1.05", "2.1", "4.2"],
    "prob": [0.03, 0.16, 0.31, 0.31, 0.16, 0.03],
}
AUTOCORR_TEN = {
    "direction": [1, 1, 1, 1, 3, 3, 2, 2, 2, 2],
    "strength": ["13", "6.7", "3.3", "1.7", "1.2", "1.2", "1.7", "3.3", "6.7", "13"],
    "prob": [0.002, 0.02, 0.07, 0.16, 0.25, 0.25, 0.16, 0.07, 0.02, 0.002],
}


def test_criterion_02_autocorrelation_tables():
    start = time.perf_counter()
    violations = []
    for draws, ref in ((6, AUTOCORR_SIX), (10, AUTOCORR_TEN)):
        _, table = autocorr_model(draws=draws)
        for row, direction, strength, prob in zip(
            table, ref["direction"], ref["strength"], ref["prob"]
        ):
            tag = f"draws={draws} n={row.reversals}"
            if row.direction != direction:
                violations.append(f"{tag}: direction {row.direction} != {direction}")
            # displayed precision: within 0.05 or rounding to the printed text
            if abs(row.strength - float(strength)) > 0.05 and not _displayed(
                row.strength, strength
            ):
                violations.append(f"{tag}: strength {row.strength:.4f} != {strength}")
            if abs(row.prob_independent - prob) > 0.005:
                violations.append(
                    f"{tag}: prob {row.prob_independent:.5f} != {prob}"
                )
    elapsed = time.perf_counter() - start
    report("2 (autocorr tables)", not violations, elapsed, f"{violations or 'all'}")
    assert elapsed < 1.0
    assert not violations, violations


def test_criterion_03_long_run_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for i in range(10):
        K = (1, 2, 3)[i % 3]
        p11, p22 = rng.uniform(0.05, 0.95, size=2)
        theta = 1 + i % 2
        q = kernel_from_p(float(p11), float(p22))
        est = simulate_chain(q, theta, K, N=1000, trials=1_000_000, seed=5000 + i)
        r = (p11 / (1 - p11)) if theta == 1 else ((1 - p22) / p22)
        tv = 0.5 * float(np.abs(est.probs - stationary(float(r), K)).sum())
        worst = max(worst, tv)
    elapsed = time.perf_counter() - start
    report("3 (long-run oracle)", worst < 0.005, elapsed, f"worst TV {worst:.5f}")
    assert elapsed < 120.0
    assert worst < 0.005


def test_criterion_04_finite_n_uniform_bound():
    start = time.perf_counter()
    K, N = 2, 10
    grid = np.linspace(0.01, 0.99, 50)
    worst = 0.0
    arg = None
    for p11 in grid:
        for p22 in grid:
            q = kernel_from_p(float(p11), float(p22))
            for theta, r in ((1, p11 / (1 - p11)), (2, (1 - p22) / p22)):
                after = finite_n_distribution(q, theta, K, N)
                limit = stationary(float(r), K)
                tails_after = np.cumsum(after[::-1])[::-1]
                tails_limit = np.cumsum(limit[::-1])[::-1]
                gap = float(np.abs(tails_after - tails_limit).max())
                if gap > worst:
                    worst, arg = gap, (float(p11), float(p22), theta)
    elapsed = time.perf_counter() - start
    ok = worst <= 0.04 + 1e-9
    report("4 (finite-N bound)", ok, elapsed, f"sup gap {worst:.6f} at {arg}")
    assert elapsed < 10.0
    assert ok, (
        f"sup tail gap {worst:.6f} at p={arg} exceeds 0.04: ten signals reach "
        "the long-run tails only to about 0.0405 uniformly over the dynamics "
        "(the 4% reference figure is that number rounded down)"
    )


def test_criterion_05_bayes_rule_dominance():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    strategies = [
        BeliefStrategy(
            d=float(np.exp(rng.uniform(0.0, 3.0))),
            lam=float(np.exp(rng.uniform(-2.0, 2.0))),
        )
        for _ in range(1000)
    ]
    min_gap = math.inf
    max_eq_err = 0.0
    for _ in range(100):
        p = PVector(*rng.uniform(0.02, 0.98, size=2))
        spec = ProblemSpec.correct_priors(
            float(rng.uniform(0.15, 0.85)), float(rng.uniform(0.15, 0.85)), 2
        )
        best = bayes_welfare(p, spec)
        for strat in strategies:
            min_gap = min(min_gap, best - expected_welfare(p, spec, strat).value)
        eq = expected_welfare(p, spec, bayes_params(p, spec.K)).value
        max_eq_err = max(max_eq_err, abs(best - eq))
    elapsed = time.perf_counter() - start
    ok = min_gap >= -1e-12 and max_eq_err <= 1e-12
    report(
        "5 (optimal-rule dominance)",
        ok,
        elapsed,
        f"min gap {min_gap:.2e}, worst equality error {max_eq_err:.2e}",
    )
    assert elapsed < 30.0
    assert min_gap >= -1e-12
    assert max_eq_err <= 1e-12


def test_criterion_06_gain_on_the_balanced_set():
    start = time.perf_counter()
    grid = np.linspace(0.005, 0.995, 101)
    checked = 0
    worst = math.inf
    worst_arg = None
    max_split_err = 0.0
    for p22 in grid:
        p = PVector(0.8, float(p22))
        for gamma in grid:
            spec = ProblemSpec.noisy_priors(0.5, float(gamma), 2, 0.5)
            if not in_B(p, spec):
                continue
            checked += 1
            for d in (1.5, 3.0, 10.0):
                df = delta_fixed(p, spec, d)
                max_split_err = max(max_split_err, abs(df.direct - df.decomposed))
                if df.decomposed < worst:
                    worst, worst_arg = df.decomposed, (float(p22), float(gamma), d)
    elapsed = time.perf_counter() - start
    ok = worst > 0.0 and max_split_err <= 1e-10 and checked > 0
    report(
        "6 (gain on balanced set)",
        ok,
        elapsed,
        f"{checked} grid points, min gain {worst:.2e} at {worst_arg}, "
        f"split error {max_split_err:.2e}",
    )
    assert elapsed < 60.0
    assert checked > 0
    # the term-by-term value is cancellation-free, so strict positivity is
    # well-posed even where the gain falls below double-rounding of the
    # direct difference
    assert worst > 0.0
    assert max_split_err <= 1e-10


def test_criterion_07_censoring_derivatives():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    h = 1e-6
    worst_rel = 0.0
    for i in range(1000):
        K = 1 + i % 4
        p = PVector(*rng.uniform(0.02, 0.98, size=2))
        sens = censor_sensitivity(p, K)
        hi, lo = censored_p(p, h), censored_p(p, -h)
        fd = {
            "p11": (hi.p11 - lo.p11) / (2 * h),
            "p22": (hi.p22 - lo.p22) / (2 * h),
            "d": (bayes_params(hi, K).d - bayes_params(lo, K).d) / (2 * h),
        }
        for got, ref in (
            (sens.dp11, fd["p11"]),
            (sens.dp22, fd["p22"]),
            (sens.ddp, fd["d"]),
        ):
            scale = max(abs(got), abs(ref), 1e-9)
            worst_rel = max(worst_rel, abs(got - ref) / scale)
        # sign laws: each coordinate drifts away from 1/2; the power rises
        # whenever both coordinates already lean the right way; the balance
        # term drifts away from 1
        assert math.copysign(1, sens.dp11) == math.copysign(1, p.p11 - 0.5) or (
            abs(p.p11 - 0.5) < 1e-12
        )
        assert math.copysign(1, sens.dp22) == math.copysign(1, p.p22 - 0.5) or (
            abs(p.p22 - 0.5) < 1e-12
        )
        if p.p11 > 0.5 and p.p22 > 0.5:
            assert sens.ddp > 0
        if abs(sens.lam - 1.0) > 1e-6 and abs(sens.dlam) > 1e-9:
            assert (sens.dlam < 0) == (sens.lam < 1.0)
    elapsed = time.perf_counter() - start
    ok = worst_rel <= 1e-4
    report(
        "7 (censoring derivatives)", ok, elapsed, f"worst relative gap {worst_rel:.2e}"
    )
    assert elapsed < 10.0
    assert ok


def test_criterion_08_censoring_can_hurt():
    start = time.perf_counter()
    witness = find_D_witness(K=2)
    elapsed = time.perf_counter() - start
    ok = (
        witness is not None
        and witness.dlambar < 0
        and witness.welfare_before > witness.baseline
        and witness.welfare_after < witness.welfare_before
    )
    detail = (
        f"p=({witness.p.p11:.4f},{witness.p.p22:.4f}), gamma={witness.gamma:.5f}, "
        f"drop {witness.welfare_before - witness.welfare_after:.3e}"
        if witness
        else "no witness"
    )
    report("8 (censoring can hurt)", ok, elapsed, detail)
    assert elapsed < 30.0
    assert ok


def test_criterion_09_regular_censoring_gains():
    start = time.perf_counter()
    spec_cache = {}
    worst = math.inf
    count = 0
    grid = np.linspace(0.005, 0.995, 101)
    regular_vals = [v for v in grid if v > 0.5]
    for K in (1, 2, 3, 4):
        spec = spec_cache.setdefault(K, ProblemSpec.correct_priors(0.5, 0.6, K))
        for p11 in regular_vals:
            for p22 in regular_vals:
                p = PVector(float(p11), float(p22))
                for k in range(-K + 1, K + 1):
                    worst = min(worst, regular_censoring_gain(p, spec, k))
                    count += 1
    elapsed = time.perf_counter() - start
    ok = worst >= -1e-12
    report(
        "9 (regular censoring gains)",
        ok,
        elapsed,
        f"{count} evaluations, min gain {worst:.2e}",
    )
    assert elapsed < 60.0
    assert ok


ORACLE_BATTERY = [
    # (model builder, beta, d, lam, pi, gamma, sigma_log, N)
    (lambda: tilt_model(1.0), 0.0, 3.0, 1.0, 0.5, 0.6, 0.5, 400),
    (lambda: tilt_model(1.0), 0.2, 3.0, 1.0, 0.5, 0.6, 0.5, 400),
    (lambda: tilt_model(1.0), 0.5, 2.0, 1.0, 0.3, 0.7, 0.5, 400),
    (lambda: tilt_model(0.5), 0.1, 1.5, 1.0, 0.5, 0.5, 0.0, 400),
    (lambda: tilt_model(2.0), 0.3, 5.0, 1.0, 0.6, 0.4, 0.5, 400),
    (lambda: tilt_model(1.0), 0.0, 1.0, 1.0, 0.5, 0.6, 0.5, 200),
    (lambda: tilt_model(1.0), 0.2, 3.0, 0.5, 0.5, 0.6, 0.5, 400),
    (lambda: tilt_model(1.0), 0.2, 3.0, 2.0, 0.4, 0.55, 0.75, 400),
    (lambda: tilt_model(0.8), 0.05, 4.0, 1.0, 0.5, 0.3, 0.25, 400),
    (lambda: asymmetric_tilt_model(), 0.0, 3.0, 1.0, 0.5, 0.6, 0.5, 400),
    (lambda: asymmetric_tilt_model(), 0.5, 3.0, 1.0, 0.5, 0.6, 0.5, 400),
    (lambda: asymmetric_tilt_model(), 1.0, 3.0, 1.0, 0.5, 0.6, 0.5, 400),
    (lambda: asymmetric_tilt_model(), 0.8, 2.5, 1.0, 0.5, 0.65, 0.5, 800),
    (lambda: lunar_model(), 0.0, 3.0, 1.0, 0.5, 0.6, 0.5, 400),
    (lambda: lunar_model(), 0.35, 3.0, 1.0, 0.5, 0.6, 0.0, 1500),
    (lambda: illusory_model(2.0, 0.1, 0.05), 0.0, 3.0, 1.0, 0.5, 0.6, 0.5, 400),
    (lambda: illusory_model(2.0, 0.1, 0.05), 0.5, 3.0, 1.0, 0.5, 0.6, 0.0, 1500),
    (lambda: coin_model(0.7, 0.3, 1), 0.0, 3.0, 1.0, 0.5, 0.6, 0.5, 300),
    (lambda: coin_model(0.7, 0.8, 1), 0.0, 3.0, 1.0, 0.5, 0.7, 0.5, 300),
    (lambda: coin_model(0.7, 0.8, 10), 0.5, 3.0, 1.0, 0.5, 0.6, 0.5, 300),
]


def test_criterion_10_end_to_end_oracle():
    start = time.perf_counter()
    worst_sigmas = 0.0
    worst_idx = None
    for i, (build, beta, d, lam, pi, gamma, sigma, N) in enumerate(ORACLE_BATTERY):
        model = build()
        spec = ProblemSpec.noisy_priors(pi, gamma, 2, sigma)
        strat = BeliefStrategy(d, lam)
        p = conditional_dynamics(censored_transitions(model, beta))
        exact = expected_welfare(p, spec, strat).value
        est = simulate_welfare(
            model, spec, strat, beta, N=N, trials=100_000, seed=31000 + i
        )
        sigmas = abs(est.estimate - exact) / est.stderr
        if sigmas > worst_sigmas:
            worst_sigmas, worst_idx = sigmas, i
    elapsed = time.perf_counter() - start
    ok = worst_sigmas <= 3.0
    report(
        "10 (end-to-end oracle)",
        ok,
        elapsed,
        f"worst |gap| {worst_sigmas:.2f} standard errors (config {worst_idx})",
    )
    assert elapsed < 300.0
    assert ok


def test_criterion_11a_gain_region_structure():
    start = time.perf_counter()
    grid = [float(v) for v in np.linspace(0.005, 0.995, 101)]
    zero_counts = {}
    bands = {}
    for gamma in (0.6, 0.75, 0.9):
        rows = sweep(
            "delta_bayes", "p22", grid, "gamma", [gamma], p11=0.8, sigma_log=0.0
        )
        zeros = [r["p22"] for r in rows if abs(r["value"]) <= 1e-12]
        zero_counts[gamma] = len(zeros)
        bands[gamma] = zeros
    elapsed = time.perf_counter() - start
    ok = zero_counts[0.6] < zero_counts[0.75] < zero_counts[0.9]
    # the powerless region hugs p22 = 1 - p11, where the chain drifts the
    # same way under both states
    near = [v for v in bands[0.6] if 0.195 <= v <= 0.30]
    ok = ok and len(near) >= 8 and any(abs(v - 0.2) < 0.01 for v in bands[0.6])
    report(
        "11a (powerless region grows)",
        ok,
        elapsed,
        f"zero counts {zero_counts}, band near 0.2 has {len(near)} points",
    )
    assert ok
    assert elapsed < 120.0


def test_criterion_11b_regular_quadrant_gains_from_censoring():
    start = time.perf_counter()
    grid = [float(v) for v in np.linspace(0.005, 0.995, 101)]
    rows = sweep(
        "censor_gain", "p11", grid, "p22", grid, gamma=0.8, sigma_log=0.5, d=3.0
    )
    regular = [r for r in rows if r["regular"] == 1.0]
    worst = min(r["value"] for r in regular)
    elapsed = time.perf_counter() - start
    ok = worst >= -1e-12
    report(
        "11b (regular quadrant gains)",
        ok,
        elapsed,
        f"{len(regular)} regular cells, min gain {worst:.2e}",
    )
    assert elapsed < 120.0
    assert ok


def test_criterion_11c_censor_paths():
    start = time.perf_counter()
    betas = [float(b) for b in np.linspace(0.0, 1.0, 11)]
    symmetric = censor_path(tilt_model(1.0), betas)
    rising = all(
        b.p11 >= a.p11 - 1e-9 and b.p22 >= a.p22 - 1e-9
        for a, b in zip(symmetric, symmetric[1:])
    )
    asymmetric = censor_path(asymmetric_tilt_model(), betas)
    p22s = [pt.p22 for pt in asymmetric]
    peak = int(np.argmax(p22s))
    falling = all(b <= a + 1e-9 for a, b in zip(p22s[peak:], p22s[peak + 1 :]))
    collapsed = p22s[-1] == 0.0
    elapsed = time.perf_counter() - start
    ok = rising and falling and collapsed
    report(
        "11c (censor paths)",
        ok,
        elapsed,
        f"symmetric rising={rising}, asymmetric collapse at beta=1: "
        f"p22 path {p22s[0]:.3f}->{max(p22s):.3f}->{p22s[-1]:.3f}",
    )
    assert elapsed < 120.0
    assert rising
    assert falling
    assert collapsed
