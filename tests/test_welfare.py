import functools
import math
import sys

import mpmath
import numpy as np
import pytest
from scipy import stats

from belieflab import (
    BeliefStrategy,
    PriorModel,
    PVector,
    baseline_welfare,
    bayes_params,
    bayes_welfare,
    censor_sensitivity,
    censored_p,
    default_censor_step,
    delta_fixed,
    expected_welfare,
    find_D_witness,
    finite_n_welfare,
    in_B,
    kernel_from_p,
    regular_censoring_gain,
    regularity,
    stationary,
    sweep,
    threshold_mass,
    welfare_at_threshold,
)
from belieflab.welfare import ProblemSpec, _lambda_bars
from exact_reference import balances


def spec_correct(pi=0.5, gamma=0.5, K=2):
    return ProblemSpec.correct_priors(pi, gamma, K)


def spec_noisy(pi=0.5, gamma=0.6, K=2, sigma=0.5):
    return ProblemSpec.noisy_priors(pi, gamma, K, sigma)


def random_interior_p(rng, lo=0.02, hi=0.98):
    return PVector(*rng.uniform(lo, hi, size=2))


class TestBaseline:
    def test_correct_priors_equal_best_guess(self):
        for pi, gamma in [(0.5, 0.6), (0.3, 0.2), (0.8, 0.8)]:
            under, under0 = baseline_welfare(spec_correct(pi, gamma))
            assert under == pytest.approx(under0, abs=1e-15)
        under, under0 = baseline_welfare(spec_correct(0.5, 0.6))
        assert under0 == pytest.approx(0.3)

    def test_noisy_prior_value(self):
        # 0.2 * Pr(eta >= 1.5) + 0.3 * Pr(eta < 1.5) evaluated exactly
        spec = spec_noisy(0.5, 0.6, sigma=0.5)
        under, under0 = baseline_welfare(spec)
        tail = stats.norm.sf(math.log(1.5) / 0.5)
        assert under == pytest.approx(0.2 * tail + 0.3 * (1 - tail), abs=1e-12)
        assert under == pytest.approx(0.2791297, abs=5e-7)
        assert under < under0

    def test_extreme_stakes(self):
        under, under0 = baseline_welfare(ProblemSpec(0.5, 1.0, PriorModel(1.0), 2))
        assert under == pytest.approx(0.5)
        assert under0 == pytest.approx(0.5)


class TestWelfareAtThreshold:
    def test_never_act(self):
        spec = spec_correct(0.4, 0.7)
        p = PVector(0.8, 0.7)
        assert welfare_at_threshold(spec.K + 1, p, spec) == pytest.approx(0.6 * 0.7)

    def test_always_act(self):
        spec = spec_correct(0.4, 0.7)
        p = PVector(0.8, 0.7)
        assert welfare_at_threshold(-spec.K, p, spec) == pytest.approx(0.4 * 0.3)

    def test_symmetric_point_direct_summation(self):
        # independent oracle: explicit tail sums of the two geometric laws
        spec = spec_correct(0.5, 0.5, K=2)
        p = PVector(0.8, 0.8)
        w1 = [4.0**s for s in range(-2, 3)]
        w2 = [0.25**s for s in range(-2, 3)]
        tail1 = sum(w1[3:]) / sum(w1)
        tail2 = sum(w2[3:]) / sum(w2)
        ref = 0.25 * tail1 + 0.25 * (1.0 - tail2)
        got = welfare_at_threshold(1, p, spec)
        assert got == pytest.approx(ref, rel=1e-14)
        assert got == pytest.approx(0.480938, abs=5e-7)

    @pytest.mark.parametrize("k", [-3, 4])
    def test_out_of_range_threshold(self, k):
        with pytest.raises(ValueError):
            welfare_at_threshold(k, PVector(0.8, 0.8), spec_correct())

    # At gamma = 0 only acting 1 in state 1 pays, so the welfare is pi times
    # the upper tail of the long-run law under state 1, whose odds r set p11.
    @staticmethod
    def _tail(k, r, K):
        spec = spec_correct(0.5, 0.0, K)
        return welfare_at_threshold(k, PVector(r / (1.0 + r), 0.5), spec) / 0.5

    def test_upper_tail_full_support(self):
        assert self._tail(-3, 2.0, 3) == pytest.approx(1.0)

    def test_upper_tail_r_two_k_two(self):
        assert self._tail(1, 2.0, 2) == pytest.approx(6.0 / 7.75, rel=1e-14)

    def test_upper_tail_uniform(self):
        assert self._tail(1, 1.0, 2) == pytest.approx(0.4)

    def test_upper_tail_above_top_state(self):
        assert self._tail(3, 2.0, 2) == 0.0

    @pytest.mark.parametrize("K", [1, 2, 3, 5])
    def test_upper_tail_strictly_increasing_in_r(self, K):
        # holds on both sides of r = 1: a larger drift always fattens the
        # upper tail for interior thresholds
        grid = np.concatenate([np.linspace(0.05, 0.95, 10), np.linspace(1.1, 10, 10)])
        grid.sort()
        for k in range(-K + 1, K + 1):
            tails = [self._tail(k, float(r), K) for r in grid]
            assert all(b > a for a, b in zip(tails, tails[1:]))

    def test_matches_the_upper_tail_formula(self):
        # the reference: w1 * tail(r1) + w2 * (1 - tail(r2)), with tail(r)
        # the mass of the long-run law at k and above
        grid = np.linspace(0.02, 0.98, 11)
        for K in (1, 2, 4):
            for gamma in (0.3, 0.6, 0.9):
                spec = spec_correct(0.5, gamma, K)
                w1, w2 = spec.weights
                for p11 in grid:
                    for p22 in grid:
                        p = PVector(float(p11), float(p22))
                        for k in range(-K, K + 2):
                            tail1, tail2 = (
                                float(stationary(r, K)[k + K :].sum())
                                for r in (p.r1, p.r2)
                            )
                            ref = w1 * tail1 + w2 * (1.0 - tail2)
                            got = welfare_at_threshold(k, p, spec)
                            assert abs(got - ref) <= 2.2e-16


class TestExpectedWelfare:
    def test_powerless_rule_equals_baseline(self):
        spec = spec_noisy()
        p = PVector(0.7, 0.6)
        report = expected_welfare(p, spec, BeliefStrategy(1.0))
        assert report.value == pytest.approx(report.baseline, abs=1e-15)
        assert report.delta == pytest.approx(0.0, abs=1e-15)

    def test_matches_threshold_decomposition(self):
        # regroup the same expectation by decision threshold instead of state
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = random_interior_p(rng)
            spec = ProblemSpec(
                pi=float(rng.uniform(0.1, 0.9)),
                gamma=float(rng.uniform(0.1, 0.9)),
                prior=PriorModel(float(rng.uniform(0.2, 5.0)), float(rng.uniform(0, 1))),
                K=int(rng.integers(1, 4)),
            )
            strat = BeliefStrategy(float(np.exp(rng.uniform(0, 2.5))),
                                   float(np.exp(rng.uniform(-1.5, 1.5))))
            mass = threshold_mass(spec.prior, strat, spec.Gamma, spec.K)
            by_threshold = sum(
                mass[i] * welfare_at_threshold(k, p, spec)
                for i, k in enumerate(range(-spec.K, spec.K + 2))
            )
            assert expected_welfare(p, spec, strat).value == pytest.approx(
                by_threshold, abs=1e-12
            )

    def test_bayes_parameters_attain_the_optimum(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            p = random_interior_p(rng)
            spec = spec_correct(
                float(rng.uniform(0.15, 0.85)), float(rng.uniform(0.15, 0.85))
            )
            best = bayes_welfare(p, spec)
            got = expected_welfare(p, spec, bayes_params(p, spec.K)).value
            assert got == pytest.approx(best, abs=1e-12)

    def test_monte_carlo_agreement(self):
        from belieflab import simulate_welfare, tilt_model

        model = tilt_model(1.0)
        spec = spec_noisy(0.5, 0.6, sigma=0.5)
        strat = BeliefStrategy(3.0)
        from belieflab import censored_transitions, conditional_dynamics

        p = conditional_dynamics(censored_transitions(model, 0.2))
        exact = expected_welfare(p, spec, strat).value
        est = simulate_welfare(model, spec, strat, 0.2, N=400, trials=60_000, seed=11)
        assert abs(est.estimate - exact) <= 3.0 * est.stderr

    def test_monte_carlo_agreement_symmetric_dynamics(self):
        # a two-outcome model realizes p = (0.8, 0.8) exactly, so the
        # closed form can face a large-sample oracle at tight tolerance
        from belieflab import coin_model, simulate_welfare

        model = coin_model(0.2, 0.8, J=1)
        spec = spec_noisy(0.5, 0.6, sigma=0.5)
        strat = BeliefStrategy(3.0)
        exact = expected_welfare(PVector(0.8, 0.8), spec, strat).value
        est = simulate_welfare(
            model, spec, strat, 0.0, N=200, trials=1_000_000, seed=12
        )
        assert abs(est.estimate - exact) <= 2.0 * est.stderr


class TestBayesWelfare:
    def test_uninformative_dynamics_fall_back_to_prior(self):
        spec = spec_correct(0.5, 0.7)
        assert bayes_welfare(PVector(0.5, 0.5), spec) == pytest.approx(
            max(0.5 * 0.3, 0.5 * 0.7)
        )

    def test_symmetric_point_value(self):
        assert bayes_welfare(PVector(0.8, 0.8), spec_correct(0.5, 0.5)) == (
            pytest.approx(0.480938, abs=5e-7)
        )

    def test_gain_nonnegative_with_correct_priors(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            p = random_interior_p(rng)
            spec = spec_correct(
                float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.1, 0.9))
            )
            under, _ = baseline_welfare(spec)
            assert bayes_welfare(p, spec) - under >= -1e-12

    def test_noisy_priors_use_the_rule_not_the_envelope(self):
        # with prior noise the fitted rule can lose to the prior
        spec = spec_noisy(0.5, 0.82, sigma=0.5)
        p = PVector(0.62, 0.485)
        under, _ = baseline_welfare(spec)
        value = bayes_welfare(p, spec)
        assert value < under

    def test_rule_from_numpy_dynamics_overflows_quietly(self):
        # d = 99**2, so d**s is past the float range from s = 78 on; a
        # PVector keeps Python floats, whose power overflows to inf without
        # the RuntimeWarning a numpy float gives
        p = PVector(*np.array([0.99, 0.99]))
        assert type(p.p11) is float and type(p.p22) is float
        spec = spec_correct(K=122)
        value = expected_welfare(p, spec, bayes_params(p, 122)).value
        assert value == pytest.approx(bayes_welfare(p, spec), abs=1e-12)

    def test_boundary_dynamics_need_correct_priors(self):
        with pytest.raises(ValueError, match="^degenerate parameters have no posterior rule"):
            bayes_welfare(PVector(1.0, 0.0), spec_noisy())
        # the deterministic route handles the boundary through point masses
        val = bayes_welfare(PVector(1.0, 0.0), spec_correct(0.5, 0.6))
        assert val == pytest.approx(0.3)


class TestDeltaFixed:
    def test_neutral_state_never_moves(self):
        df = delta_fixed(PVector(0.7, 0.7), spec_noisy(), 3.0)
        assert df.j[df.j.size // 2] == 0.0

    def test_state_one_lift_value(self):
        # Pr(eta >= 1/3) - Pr(eta >= 1) at sigma 0.5
        spec = ProblemSpec(0.5, 0.5, PriorModel(1.0, 0.5), 2)
        df = delta_fixed(PVector(0.7, 0.7), spec, 3.0)
        assert df.j[3] == pytest.approx(0.98600 - 0.5, abs=5e-5)

    def test_direct_equals_decomposed(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            p = random_interior_p(rng)
            spec = ProblemSpec(
                pi=float(rng.uniform(0.1, 0.9)),
                gamma=float(rng.uniform(0.05, 0.95)),
                prior=PriorModel(
                    float(rng.uniform(0.2, 5.0)), float(rng.uniform(0.0, 1.5))
                ),
                K=int(rng.integers(1, 5)),
            )
            df = delta_fixed(p, spec, float(np.exp(rng.uniform(0.1, 2.5))))
            assert df.direct == pytest.approx(df.decomposed, abs=1e-10)

    def test_positive_inside_B(self):
        spec = spec_noisy(0.5, 0.5, sigma=0.5)
        p = PVector(0.9, 0.9)
        assert in_B(p, spec)
        for d in (1.5, 3.0, 10.0):
            assert delta_fixed(p, spec, d).decomposed > 0


class TestSetB:
    def test_strong_symmetric_dynamics_qualify(self):
        assert in_B(PVector(0.9, 0.9), spec_correct(0.5, 0.5))

    def test_uninformative_dynamics_do_not(self):
        assert not in_B(PVector(0.5, 0.5), spec_correct(0.5, 0.5))

    def test_extreme_stakes_disqualify(self):
        assert not in_B(PVector(0.55, 0.55), spec_correct(0.5, 0.95))


class TestRegularity:
    @pytest.mark.parametrize(
        "p, expected",
        [
            ((0.8, 0.6), "regular"),
            ((0.8, 0.4), "irregular"),
            ((0.5, 0.9), "irregular"),
        ],
    )
    def test_classification(self, p, expected):
        assert regularity(PVector(*p)) == expected


class TestCensorSensitivity:
    def test_balanced_coordinate_is_a_fixed_point(self):
        sens = censor_sensitivity(PVector(0.5, 0.7), 2)
        assert sens.dp11 == pytest.approx(0.0)

    def test_censoring_map_value(self):
        assert censored_p(PVector(0.8, 0.8), 0.1).p11 == pytest.approx(0.875)

    def test_analytic_derivatives_match_finite_differences(self):
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(200):
            p = random_interior_p(rng, 0.05, 0.95)
            K = int(rng.integers(1, 5))
            sens = censor_sensitivity(p, K)
            hi, lo = censored_p(p, h), censored_p(p, -h)
            assert sens.dp11 == pytest.approx((hi.p11 - lo.p11) / (2 * h), rel=1e-4)
            assert sens.dp22 == pytest.approx((hi.p22 - lo.p22) / (2 * h), rel=1e-4)
            fd_d = (bayes_params(hi, K).d - bayes_params(lo, K).d) / (2 * h)
            assert sens.ddp == pytest.approx(fd_d, rel=1e-4)

    def test_balance_responses_match_an_exact_derivative(self):
        # mpmath differentiates lam and lambda_bar along the composed
        # censoring map at 50 digits
        rng = np.random.default_rng(11)
        worst = 0.0
        with mpmath.workdps(50):
            for _ in range(1500):
                K = int(rng.choice([1, 2, 3, 5, 10]))
                p11, p22 = (float(v) for v in rng.uniform(0.01, 0.99, size=2))
                sens = censor_sensitivity(PVector(p11, p22), K)
                along = functools.cache(lambda x: balances(p11, p22, K, x))
                for j, got in enumerate((sens.dlam, sens.dlambar)):
                    exact = mpmath.diff(lambda x: along(x)[j], 0)
                    worst = max(worst, float(abs(got - exact) / abs(exact)))
        assert worst <= 1e-9

    @pytest.mark.parametrize("K", [2, 5, 20, 60, 150, 250])
    def test_lambda_bar_matches_the_exact_value(self, K):
        # a lam near underflow beside a d_p**K near overflow is where the
        # product of the two lost every digit; a value below the float
        # range is 0
        rng = np.random.default_rng(K)
        with mpmath.workdps(50):
            for _ in range(50):
                p11, p22 = (float(v) for v in rng.uniform(0.01, 0.99, size=2))
                exact = balances(mpmath.mpf(p11), mpmath.mpf(p22), K, 0)[1]
                got = float(_lambda_bars(p11, p22, K))
                if exact > sys.float_info.max:
                    assert math.isnan(got)  # NaN marks a value past the float range
                elif exact < sys.float_info.min:
                    assert got < sys.float_info.min
                else:
                    assert float(abs(got - exact) / exact) <= 1e-12

    def test_balance_drifts_away_from_one(self):
        sens = censor_sensitivity(PVector(0.8, 0.6), 2)
        assert sens.lam < 1.0
        assert sens.dlam < 0.0
        sens = censor_sensitivity(PVector(0.6, 0.8), 2)
        assert sens.lam > 1.0
        assert sens.dlam > 0.0

    def test_power_rises_on_regular_problems(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            p = PVector(*rng.uniform(0.55, 0.95, size=2))
            assert censor_sensitivity(p, 2).ddp > 0


class TestRegularCensoringGain:
    def test_strictly_positive_example(self):
        gain = regular_censoring_gain(
            PVector(0.8, 0.8), spec_correct(0.5, 0.5), k=1, x=0.01
        )
        assert gain > 0

    def test_bottom_threshold_outside_contract(self):
        spec = spec_correct()
        with pytest.raises(ValueError):
            regular_censoring_gain(PVector(0.8, 0.8), spec, k=-spec.K)
        # the excluded threshold is immune to censoring anyway
        p = PVector(0.8, 0.8)
        w0 = welfare_at_threshold(-spec.K, p, spec)
        w1 = welfare_at_threshold(-spec.K, censored_p(p, 0.01), spec)
        assert w0 == pytest.approx(w1, abs=1e-15)

    def test_boundary_regularity_rejected(self):
        with pytest.raises(ValueError, match="not regular"):
            regular_censoring_gain(PVector(0.8, 0.5), spec_correct(), k=1)

    def test_nonnegative_across_random_regular_problems(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            K = int(rng.integers(1, 5))
            spec = ProblemSpec.correct_priors(
                float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.2, 0.8)), K
            )
            p = PVector(*rng.uniform(0.505, 0.995, size=2))
            for k in range(-K + 1, K + 1):
                assert regular_censoring_gain(p, spec, k) >= -1e-12

    def test_adaptive_default_step_stays_interior(self):
        p = PVector(0.99, 0.992)
        step = default_censor_step(p)
        q = censored_p(p, step)
        assert 0 < q.p11 < 1 and 0 < q.p22 < 1


class TestFiniteNWelfare:
    def test_no_signals_means_prior_only(self):
        spec = spec_noisy()
        p = PVector(0.8, 0.7)
        under, _ = baseline_welfare(spec)
        got = finite_n_welfare(p, spec, BeliefStrategy(3.0), N=0)
        assert got == pytest.approx(under, abs=1e-15)

    def test_converges_to_the_long_run_value(self):
        spec = spec_noisy()
        p = PVector(0.75, 0.65)
        strat = BeliefStrategy(3.0)
        full = expected_welfare(p, spec, strat).value
        assert finite_n_welfare(p, spec, strat, N=500) == pytest.approx(
            full, abs=1e-6
        )

    def test_accepts_kernels_with_stay_mass(self):
        spec = spec_noisy()
        q = kernel_from_p(0.75, 0.65)
        got_p = finite_n_welfare(PVector(0.75, 0.65), spec, BeliefStrategy(3.0), 20)
        got_q = finite_n_welfare(q, spec, BeliefStrategy(3.0), 20)
        assert got_p == pytest.approx(got_q, abs=1e-15)

    def test_more_signals_help_regular_problems(self):
        spec = spec_noisy(0.5, 0.6)
        strat = BeliefStrategy(3.0)
        p = PVector(0.8, 0.8)
        under, _ = baseline_welfare(spec)
        full = expected_welfare(p, spec, strat).value
        ratio = (full - finite_n_welfare(p, spec, strat, 10)) / under
        assert ratio > 0

    def test_more_signals_can_hurt_irregular_problems(self):
        spec = spec_noisy(0.5, 0.75)
        strat = BeliefStrategy(3.0)
        p = PVector(0.8, 0.3)
        under, _ = baseline_welfare(spec)
        full = expected_welfare(p, spec, strat).value
        ratio = (full - finite_n_welfare(p, spec, strat, 10)) / under
        assert ratio < 0


class TestDWitness:
    # at K = 80 one cell of the grid overflows lambda_bar and is skipped; at
    # K = 152 the censored neighbour's d**K overflows while its lam is near
    # underflow, and lambda_bar itself is near 50
    @pytest.mark.parametrize("K", [2, 80, 152])
    def test_witness_found_and_verified(self, K):
        witness = find_D_witness(K=K)
        assert witness is not None
        assert witness.dlambar < 0
        assert witness.welfare_before > witness.baseline
        assert witness.welfare_after < witness.welfare_before
        params = bayes_params(witness.p, K)
        assert params.d > 1

    def test_witness_cells(self):
        # grid indices (p11, p22) on linspace(0.01, 0.99, 100) of the first
        # most negative response, as the cell-by-cell scan picked them
        grid = np.linspace(0.01, 0.99, 100)
        picked = {2: 31, 3: 37, 4: 40, 5: 42, 6: 43, 7: 44, 8: 45}
        for K, j in picked.items():
            assert find_D_witness(K).p == PVector(grid[99], grid[j])

    def test_window_brackets_the_stakes(self):
        witness = find_D_witness(K=2)
        lo, hi = witness.window
        target = witness.gamma / (1.0 - witness.gamma)
        assert lo < target < hi
        p = witness.p
        assert hi == pytest.approx(float(_lambda_bars(p.p11, p.p22, 2)), rel=1e-12)

    @pytest.mark.parametrize("K", [152, 204, 291])
    def test_window_matches_exact_lambda_bar_where_d_to_the_K_overflows(self, K):
        witness = find_D_witness(K=K)
        p11, p22 = (mpmath.mpf(v) for v in (witness.p.p11, witness.p.p22))
        steps = (mpmath.mpf(witness.censor_step), 0)
        with mpmath.workdps(50):
            for got, x in zip(witness.window, steps):
                exact = balances(p11, p22, K, x)[1]
                assert float(abs(got - exact) / exact) <= 1e-9

    def test_regular_symmetric_diagonal_is_safe(self):
        # on the informative diagonal the top posterior shift only grows
        for v in np.linspace(0.55, 0.95, 9):
            sens = censor_sensitivity(PVector(float(v), float(v)), 2)
            assert sens.dlambar > 0

    def test_small_k_rejected(self):
        with pytest.raises(ValueError):
            find_D_witness(K=1)


class TestSweep:
    def test_row_major_ordering_and_shape(self):
        rows = sweep(
            "regularity",
            "p11",
            [0.3, 0.7],
            "p22",
            [0.4, 0.6],
        )
        assert len(rows) == 4
        assert [(r["p11"], r["p22"]) for r in rows] == [
            (0.3, 0.4),
            (0.7, 0.4),
            (0.3, 0.6),
            (0.7, 0.6),
        ]
        assert rows[3]["value"] == 1.0

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown metric"):
            sweep("nope", "p11", [0.5], "p22", [0.5])

    def test_delta_bayes_nonnegative_with_correct_priors(self):
        grid = list(np.linspace(0.05, 0.95, 19))
        rows = sweep(
            "delta_bayes", "p22", grid, "gamma", grid, p11=0.8, sigma_log=0.0
        )
        assert all(r["value"] >= -1e-12 for r in rows)

    def test_censor_gain_nonnegative_on_regular_quadrant(self):
        grid = list(np.linspace(0.52, 0.95, 12))
        rows = sweep(
            "censor_gain", "p11", grid, "p22", grid, gamma=0.8, sigma_log=0.5
        )
        assert all(r["value"] >= -1e-12 for r in rows)

    def test_beta_axis_uses_the_signal_model(self):
        from belieflab import tilt_model

        rows = sweep(
            "delta_bayes",
            "beta",
            [0.0, 0.5],
            "gamma",
            [0.6],
            model=tilt_model(1.0),
            sigma_log=0.0,
        )
        assert len(rows) == 2
        assert all(math.isfinite(r["value"]) for r in rows)

    def test_delta_bayes_is_finite_where_the_powers_overflow(self):
        rows = sweep("delta_bayes", "p11", [0.9], "p22", [0.9], K=400, sigma_log=0.5)
        assert math.isfinite(rows[0]["value"])

    def test_missing_dynamics_turn_into_nan(self):
        rows = sweep("delta_bayes", "gamma", [0.5], "d", [2.0])
        assert math.isnan(rows[0]["value"])

    @pytest.mark.parametrize("empty", ["x_values", "y_values"])
    def test_an_empty_axis_gives_no_rows(self, empty):
        grid = dict(x="p11", x_values=[0.3, 0.7], y="p22", y_values=[0.6])
        assert sweep("delta_bayes", **{**grid, empty: []}) == []


class TestGridArgmax:
    def test_cells_match_the_welfare_pipeline(self):
        from belieflab import (
            censored_transitions,
            conditional_dynamics,
            grid_argmax,
            tilt_model,
        )

        model = tilt_model(1.0)
        spec = spec_noisy(0.5, 0.6, sigma=0.5)
        betas, ds = [0.0, 0.2], [1.5, 3.0]
        result = grid_argmax([(model, spec, 1.0)], betas, ds)
        assert len(result.table) == 4
        for row in result.table:
            p = conditional_dynamics(censored_transitions(model, row["beta"]))
            ref = expected_welfare(p, spec, BeliefStrategy(row["d"])).value
            assert row["value"] == pytest.approx(ref, abs=1e-12)
        assert result.value == max(row["value"] for row in result.table)

    def test_locked_superstition_prefers_the_powerless_rule(self):
        from belieflab import grid_argmax, lunar_model

        # past the lock threshold all processed evidence points one way, so
        # any trust in the mental state only burns welfare at high stakes
        spec = spec_noisy(0.5, 0.9, sigma=0.5)
        result = grid_argmax(
            [(lunar_model(), spec, 1.0)], [0.35], [1.0, 2.0, 3.0, 6.0]
        )
        assert result.d == 1.0

    def test_weights_steer_the_compromise(self):
        from belieflab import grid_argmax, lunar_model, tilt_model

        tilt = tilt_model(1.0)
        lunar = lunar_model()
        spec_easy = spec_noisy(0.5, 0.6, sigma=0.5)
        spec_hard = spec_noisy(0.5, 0.9, sigma=0.5)
        betas, ds = [0.0, 0.2, 0.5], [1.0, 2.0, 3.0, 6.0]
        alone = grid_argmax([(tilt, spec_easy, 1.0)], betas, ds)
        mixed = grid_argmax(
            [(tilt, spec_easy, 0.9), (lunar, spec_hard, 0.1)], betas, ds
        )
        assert alone.d == 6.0
        assert mixed.d < alone.d  # the superstition-prone tail tempers d

    def test_weight_validation(self):
        from belieflab import grid_argmax

        with pytest.raises(ValueError, match="weight"):
            grid_argmax([], [0.0], [1.0])


class TestReportInvariants:
    def test_value_bounded_by_achievable_maximum(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            p = random_interior_p(rng)
            spec = spec_correct(
                float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.2, 0.8))
            )
            strat = BeliefStrategy(float(np.exp(rng.uniform(0, 3))))
            report = expected_welfare(p, spec, strat)
            cap = bayes_welfare(p, spec)
            assert report.value <= cap + 1e-12
            assert 0.0 <= report.value <= 1.0


class TestLayers:
    """Dynamics, act step and combine each have one home, run once per input."""

    @staticmethod
    def _count_kernels(monkeypatch):
        """The grids of betas that reach the censoring home, one list per call."""
        import belieflab.welfare as welfare

        calls = []
        real = welfare._censored_masses

        def counted(model, betas):
            calls.append(list(betas))
            return real(model, betas)

        monkeypatch.setattr(welfare, "_censored_masses", counted)
        return calls

    def test_grid_argmax_builds_one_kernel_per_problem_and_beta(self, monkeypatch):
        from belieflab import grid_argmax, lunar_model, tilt_model

        calls = self._count_kernels(monkeypatch)
        problems = [
            (tilt_model(1.0), spec_noisy(), 1.0),
            (lunar_model(), spec_correct(0.5, 0.6), 2.0),
        ]
        betas, ds = [0.0, 0.2, 0.5], [1.5, 2.0, 3.0, 6.0]
        result = grid_argmax(problems, betas, ds)
        assert len(result.table) == len(betas) * len(ds)
        assert calls == [betas] * len(problems)  # one grid per problem

    def test_beta_sweep_builds_one_kernel_per_beta(self, monkeypatch):
        from belieflab import tilt_model

        calls = self._count_kernels(monkeypatch)
        betas = [0.0, 0.25, 0.5]
        rows = sweep(
            "delta_fixed", "beta", betas, "d", [1.5, 3.0, 6.0], model=tilt_model(1.0)
        )
        assert len(rows) == 9
        assert calls == [betas]  # one grid for the whole beta axis

    def test_threshold_mass_is_the_difference_of_the_act_step(self):
        from belieflab.beliefs import _act_probabilities

        rng = np.random.default_rng(3)
        for _ in range(50):
            prior = PriorModel(
                float(rng.uniform(0.2, 5.0)), float(rng.choice([0.0, 0.4, 1.5]))
            )
            d = float(rng.choice([1.0, rng.uniform(1.0, 10.0)]))
            strat = BeliefStrategy(d, float(rng.uniform(0.3, 3.0)))
            Gamma, K = float(rng.uniform(0.1, 9.0)), int(rng.integers(1, 5))
            act = _act_probabilities(prior, strat.d, strat.lam, Gamma, K)
            np.testing.assert_array_equal(
                threshold_mass(prior, strat, Gamma, K),
                np.diff(np.concatenate(([0.0], act, [1.0]))),
            )

    def test_a_silenced_state_parks_the_chain_at_zero(self):
        from belieflab import TransitionKernel, stationary
        from belieflab.chain import _laws

        q = TransitionKernel(up=(0.6, 0.0), down=(0.3, 0.0), stay=(0.1, 1.0))
        parked = [0.0, 0.0, 1.0, 0.0, 0.0]
        np.testing.assert_array_equal(_laws(q, 2)[0], stationary(2.0, 2))
        np.testing.assert_array_equal(_laws(q, 2)[1], parked)
        np.testing.assert_array_equal(_laws(q, 2, N=7)[1], parked)
