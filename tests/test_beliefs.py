import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from belieflab import (
    BeliefStrategy,
    PriorModel,
    PVector,
    bayes_params,
    decision_threshold,
    posterior,
    prior_exceed_prob,
    stationary,
    threshold_mass,
)
from belieflab.beliefs import Stakes


class TestPosterior:
    def test_neutral_state_keeps_prior(self):
        assert posterior(BeliefStrategy(3.0), 1.0, 0) == 1.0

    def test_direct_product(self):
        assert posterior(BeliefStrategy(3.0), 2.0, 2) == pytest.approx(18.0)

    def test_power_one_ignores_the_state(self):
        strat = BeliefStrategy(1.0, lam=0.7)
        for s in range(-3, 4):
            assert posterior(strat, 2.0, s) == pytest.approx(1.4)

    @given(
        d=st.floats(1.0 + 1e-9, 50.0),
        lam=st.floats(0.01, 100.0),
        rho=st.floats(0.01, 100.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_strictly_increasing_in_state(self, d, lam, rho):
        strat = BeliefStrategy(d, lam)
        values = [posterior(strat, rho, s) for s in range(-3, 4)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestDecisionThreshold:
    def test_first_state_clearing_the_bar(self):
        assert decision_threshold(BeliefStrategy(3.0), 1.0, 1.5, 2) == 1

    def test_ties_act(self):
        assert decision_threshold(BeliefStrategy(3.0), 1.0, 1.0, 2) == 0

    def test_prior_dominates_and_clamps(self):
        assert decision_threshold(BeliefStrategy(3.0), 100.0, 1.0, 2) == -2

    def test_unreachable_bar(self):
        assert decision_threshold(BeliefStrategy(3.0), 1.0, 1e6, 2) == 3

    def test_power_one_two_point(self):
        assert decision_threshold(BeliefStrategy(1.0), 2.0, 1.5, 2) == -2
        assert decision_threshold(BeliefStrategy(1.0), 1.0, 1.5, 2) == 3

    @given(
        d=st.floats(1.0, 10.0),
        rhos=st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
        Gamma=st.floats(0.1, 10.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_prior(self, d, rhos, Gamma):
        strat = BeliefStrategy(d)
        lo, hi = sorted(rhos)
        assert decision_threshold(strat, hi, Gamma, 3) <= decision_threshold(
            strat, lo, Gamma, 3
        )

    @given(
        d=st.floats(1.0, 10.0),
        rho=st.floats(0.1, 10.0),
        Gammas=st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_stakes(self, d, rho, Gammas):
        strat = BeliefStrategy(d)
        lo, hi = sorted(Gammas)
        assert decision_threshold(strat, rho, lo, 3) <= decision_threshold(
            strat, rho, hi, 3
        )


class TestPriorExceedProb:
    def test_median(self):
        assert prior_exceed_prob(PriorModel(2.0, 0.5), 2.0) == 0.5

    def test_normal_cdf_value(self):
        # Pr(rho_tilde >= 1/3) with rho = 1: one-sided normal tail at
        # log(3) / 0.5 = 2.1972
        got = prior_exceed_prob(PriorModel(1.0, 0.5), 1.0 / 3.0)
        assert got == pytest.approx(0.9860, abs=5e-5)
        ref = stats.norm.cdf(math.log(3.0) / 0.5)
        assert got == pytest.approx(ref, abs=1e-12)

    def test_deterministic_prior_indicator(self):
        prior = PriorModel(2.0, 0.0)
        assert prior_exceed_prob(prior, 1.0) == 1.0
        assert prior_exceed_prob(prior, 2.0) == 1.0
        assert prior_exceed_prob(prior, 2.1) == 0.0

    def test_scipy_lognormal_cross_check(self):
        prior = PriorModel(1.7, 0.8)
        for t in (0.2, 1.0, 1.7, 5.0, 40.0):
            ref = stats.lognorm.sf(t, s=0.8, scale=1.7)
            assert prior_exceed_prob(prior, t) == pytest.approx(ref, abs=1e-12)

    def test_edge_thresholds(self):
        prior = PriorModel(1.0, 0.5)
        assert prior_exceed_prob(prior, math.inf) == 0.0
        assert prior_exceed_prob(prior, 0.0) == 1.0
        with pytest.raises(ValueError):
            prior_exceed_prob(prior, -1.0)


class TestThresholdMass:
    def test_deterministic_prior_point_mass(self):
        mass = threshold_mass(PriorModel(1.0, 0.0), BeliefStrategy(3.0), 1.5, 2)
        expected = np.zeros(6)
        expected[1 + 2] = 1.0  # threshold k = 1
        np.testing.assert_array_equal(mass, expected)

    def test_huge_power_splits_on_the_prior_comparison(self):
        mass = threshold_mass(PriorModel(1.0, 0.5), BeliefStrategy(1e12), 1.5, 2)
        act_now = prior_exceed_prob(PriorModel(1.0, 0.5), 1.5)
        assert mass[0 + 2] == pytest.approx(act_now, abs=1e-9)
        assert mass[1 + 2] == pytest.approx(1.0 - act_now, abs=1e-9)

    @given(
        d=st.floats(1.0, 20.0),
        lam=st.floats(0.1, 10.0),
        rho=st.floats(0.1, 10.0),
        sigma=st.floats(0.0, 2.0),
        gamma=st.floats(0.05, 0.95),
    )
    @settings(max_examples=100, deadline=None)
    def test_total_mass_one(self, d, lam, rho, sigma, gamma):
        mass = threshold_mass(
            PriorModel(rho, sigma), BeliefStrategy(d, lam), gamma / (1 - gamma), 2
        )
        assert mass.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(mass >= 0)

    def test_matches_empirical_threshold_frequencies(self):
        prior = PriorModel(1.3, 0.6)
        strat = BeliefStrategy(2.5, lam=0.8)
        Gamma, K = 2.0, 2
        mass = threshold_mass(prior, strat, Gamma, K)
        rng = np.random.default_rng(42)
        draws = prior.rho * np.exp(prior.sigma_log * rng.standard_normal(200_000))
        ks = np.array([decision_threshold(strat, r, Gamma, K) for r in draws[:20_000]])
        emp = np.array([(ks == k).mean() for k in range(-K, K + 2)])
        stderr = np.sqrt(mass * (1 - mass) / 20_000 + 1e-12)
        assert np.all(np.abs(emp - mass) <= 4 * stderr + 1e-9)


class TestBayesParams:
    def test_symmetric_dynamics(self):
        params = bayes_params(PVector(0.8, 0.8), 2)
        assert params.d == pytest.approx(16.0)
        assert params.lam == pytest.approx(1.0)

    def test_asymmetric_dynamics(self):
        params = bayes_params(PVector(0.8, 0.6), 2)
        assert params.d == pytest.approx(6.0)
        # direct sums: r2 powers over r1 powers
        lam_ref = sum((2.0 / 3.0) ** s for s in range(-2, 3)) / sum(
            4.0**s for s in range(-2, 3)
        )
        assert params.lam == pytest.approx(lam_ref, rel=1e-12)
        assert params.lam == pytest.approx(0.2750, abs=5e-5)

    def test_uninformative_dynamics(self):
        assert bayes_params(PVector(0.5, 0.5), 2).d == pytest.approx(1.0)

    def test_boundary_flags_degenerate(self):
        assert bayes_params(PVector(1.0, 0.5), 2).degenerate
        assert bayes_params(PVector(0.5, 0.0), 3).degenerate

    @pytest.mark.parametrize(
        "p11, p22", [(0.9, 0.97), (0.89, 0.9), (0.99, 0.97), (0.99, 0.9), (0.6, 0.9)]
    )
    def test_lam_where_the_powers_overflow(self, p11, p22):
        # r**s overflows at K=400; the reference sums the powers in logs
        p, K = PVector(p11, p22), 400
        s = np.arange(-K, K + 1)
        log_lam = np.logaddexp.reduce(s * math.log(p.r2)) - np.logaddexp.reduce(
            s * math.log(p.r1)
        )
        lam = bayes_params(p, K).lam
        if log_lam > math.log(sys.float_info.max):
            assert lam == math.inf
        else:
            assert lam == pytest.approx(math.exp(log_lam), rel=1e-9, abs=1e-300)

    def test_symmetric_lam_is_one_where_the_powers_overflow(self):
        assert bayes_params(PVector(0.9, 0.9), 400).lam == 1.0

    def test_sums_in_range_keep_the_direct_ratio(self):
        p = PVector(0.9, 0.97)
        s = np.arange(-150, 151, dtype=float)
        assert bayes_params(p, 150).lam == float(np.sum(p.r2**s) / np.sum(p.r1**s))

    @given(
        p11=st.floats(0.02, 0.98),
        p22=st.floats(0.02, 0.98),
        K=st.integers(1, 4),
    )
    @settings(max_examples=100, deadline=None)
    def test_reproduces_posterior_odds_ratio(self, p11, p22, K):
        # lam * d**s must equal the likelihood ratio of the two long-run
        # state distributions at every state
        p = PVector(p11, p22)
        params = bayes_params(p, K)
        phi1 = stationary(p.r1, K)
        phi2 = stationary(p.r2, K)
        for i, s in enumerate(range(-K, K + 1)):
            assert params.lam * params.d**s == pytest.approx(
                phi1[i] / phi2[i], rel=1e-10
            )


class TestTypes:
    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            BeliefStrategy(0.8)
        with pytest.raises(ValueError):
            BeliefStrategy(2.0, lam=0.0)

    def test_prior_validation(self):
        with pytest.raises(ValueError):
            PriorModel(-1.0)
        with pytest.raises(ValueError):
            PriorModel(1.0, sigma_log=-0.5)

    def test_prior_from_probability(self):
        assert PriorModel.from_probability(0.75).rho == pytest.approx(3.0)

    def test_stakes_ratio(self):
        assert Stakes(0.6).ratio == pytest.approx(1.5)
        assert Stakes(1.0).ratio == math.inf
        with pytest.raises(ValueError):
            Stakes(1.2)
