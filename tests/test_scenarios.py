import math

import numpy as np
import pytest
from scipy import stats

from belieflab import (
    FullyCensored,
    autocorr_model,
    censored_transitions,
    classify,
    coin_model,
    conditional_dynamics,
    evidence_table,
    illusory_model,
    lunar_model,
    lunar_strength_rows,
)


@pytest.fixture(scope="module")
def model():
    return lunar_model()


class TestLunar:

    def test_rate_calibration(self):
        # moon rate is 20% above calm and the mix averages to the base rate
        rate_calm = 10.0 / 1.02
        assert rate_calm == pytest.approx(9.80392, abs=5e-6)
        assert 1.2 * rate_calm == pytest.approx(11.76471, abs=5e-6)
        assert 0.1 * 1.2 * rate_calm + 0.9 * rate_calm == pytest.approx(10.0)

    def test_probabilities_sum_to_one(self, model):
        np.testing.assert_allclose(model.probs.sum(axis=1), 1.0, atol=1e-9)

    def test_strengths_match_scipy_poisson(self, model):
        # independent recomputation of every listed strength from the
        # Poisson laws, including the cumulative no-tension outcomes
        rate_calm = 10.0 / 1.02
        rate_moon = 1.2 * rate_calm
        for_two, for_one = lunar_strength_rows(model)
        refs = {}
        refs["0,1"] = stats.poisson.cdf(12, 10.0) / stats.poisson.cdf(12, rate_moon)
        refs["0,0"] = stats.poisson.cdf(12, rate_calm) / stats.poisson.cdf(12, 10.0)
        for x in range(1, 9):
            refs[f"{x},0"] = stats.poisson.pmf(12 + x, 10.0) / stats.poisson.pmf(
                12 + x, rate_calm
            )
            refs[f"{x},1"] = stats.poisson.pmf(12 + x, rate_moon) / stats.poisson.pmf(
                12 + x, 10.0
            )
        for label, strength in for_two + for_one:
            assert strength == pytest.approx(refs[label], rel=1e-9), label

    def test_direction_split(self, model):
        for_two, for_one = lunar_strength_rows(model)
        assert [lbl for lbl, _ in for_two] == ["0,1"] + [
            f"{x},0" for x in range(8, 0, -1)
        ]
        assert [lbl for lbl, _ in for_one] == ["0,0"] + [
            f"{x},1" for x in range(1, 9)
        ]

    def test_strongest_state_two_evidence_is_the_calm_full_moon(self, model):
        for_two, _ = lunar_strength_rows(model)
        strengths = dict(for_two)
        assert max(strengths, key=strengths.get) == "0,1"
        # the pooled hot tail stays weaker than the listed outcomes allow
        tail = classify(model, "9+,0")
        assert tail.direction == 2
        assert tail.strength < strengths["0,1"]

    def test_heavy_censoring_locks_beliefs_toward_the_effect(self, model):
        p = conditional_dynamics(censored_transitions(model, 0.35))
        assert p.p11 == 1.0
        assert p.p22 == 0.0

    def test_moderate_censoring_still_leans_to_state_two(self, model):
        # below the lock threshold the surviving evidence mostly favors
        # state 2 under either state
        p = conditional_dynamics(censored_transitions(model, 0.1))
        assert p.p11 < 0.5
        assert p.p22 > 0.5

    def test_unpooled_variant_keeps_raw_tension_levels(self):
        raw = lunar_model(tension_ceiling=None)
        assert "28,1" in raw.outcomes
        assert all("+" not in label for label in raw.outcomes)


class TestIllusory:
    def test_strength_table(self):
        model = illusory_model(alpha=2.0, r=0.1, q=0.05)
        bend = 1.0 + 1.0 * 0.1
        q1 = 2.0 * 0.05 / bend
        qbar1 = 0.05 / bend
        expect = {
            "PC": (1, q1 / 0.05),
            "~PC": (2, 0.05 / qbar1),
            "P~C": (2, 0.95 / (1 - q1)),
            "~P~C": (1, (1 - qbar1) / 0.95),
        }
        for label, (direction, strength) in expect.items():
            ev = classify(model, label)
            assert ev.direction == direction, label
            assert ev.strength == pytest.approx(strength, rel=1e-12)
        assert classify(model, "PC").strength == pytest.approx(2.0 / 1.1, rel=1e-12)
        assert classify(model, "~PC").strength == pytest.approx(1.1, rel=1e-12)
        assert classify(model, "P~C").strength == pytest.approx(1.0450, abs=5e-5)
        assert classify(model, "~P~C").strength == pytest.approx(1.0048, abs=5e-5)

    def test_accounting_identity(self):
        for alpha, r, q in [(2.0, 0.1, 0.05), (3.0, 0.02, 0.2), (1.5, 0.4, 0.3)]:
            model = illusory_model(alpha, r, q)
            # Pr(C | state 1) must equal the unconditional rate q
            pc = model.prob("PC", 1) + model.prob("~PC", 1)
            assert pc == pytest.approx(q, abs=1e-15)

    def test_vanishing_influence_uninformative(self):
        model = illusory_model(alpha=1.0001, r=0.1, q=0.05)
        for label in model.outcomes:
            assert classify(model, label).strength == pytest.approx(1.0, abs=1e-3)

    def test_censoring_leaves_only_the_pattern_event(self):
        model = illusory_model(alpha=2.0, r=0.1, q=0.05)
        q = censored_transitions(model, 0.5)
        assert q.down == (0.0, 0.0)
        assert q.up[0] == pytest.approx(model.prob("PC", 1))
        assert q.up[1] == pytest.approx(model.prob("PC", 2))
        p = conditional_dynamics(q)
        assert p.p11 == 1.0 and p.p22 == 0.0

    def test_impossible_conditional_rejected(self):
        with pytest.raises(ValueError, match="exceeds 1"):
            illusory_model(alpha=3.0, r=0.1, q=0.5)


class TestCoin:
    def test_opposed_biases_are_regular(self):
        model = coin_model(0.7, 0.3, J=1)
        tails = classify(model, "1")
        heads = classify(model, "0")
        assert tails.direction == 1 and heads.direction == 2
        p = conditional_dynamics(censored_transitions(model, 0.0))
        assert p.p11 == pytest.approx(0.7) and p.p22 == pytest.approx(0.7)

    def test_nearby_biases_are_irregular(self):
        model = coin_model(0.7, 0.8, J=1)
        assert classify(model, "1").direction == 2
        p = conditional_dynamics(censored_transitions(model, 0.0))
        assert p.p22 > 0.5 > p.p11

    def test_long_batches_regularize(self):
        model = coin_model(0.7, 0.8, J=200)
        p = conditional_dynamics(censored_transitions(model, 0.0))
        assert p.p11 > 0.5 and p.p22 > 0.5

    def test_binomial_probabilities(self):
        model = coin_model(0.6, 0.3, J=4)
        for k in range(5):
            assert model.prob(str(k), 1) == pytest.approx(
                stats.binom.pmf(k, 4, 0.6), rel=1e-12
            )
            assert model.prob(str(k), 2) == pytest.approx(
                stats.binom.pmf(k, 4, 0.3), rel=1e-12
            )


class TestAutocorr:
    def test_six_draw_table(self):
        _, table = autocorr_model(draws=6)
        directions = [row.direction for row in table]
        assert directions == [1, 1, 1, 2, 2, 2]
        strengths = [row.strength for row in table]
        ref = [(4 / 3) ** 5, (4 / 3) ** 5 / 2, (4 / 3) ** 5 / 4]
        np.testing.assert_allclose(strengths[:3], ref, rtol=1e-12)
        np.testing.assert_allclose(strengths[3:], ref[::-1], rtol=1e-12)
        probs = [row.prob_independent for row in table]
        np.testing.assert_allclose(
            probs, [math.comb(5, n) / 32 for n in range(6)], rtol=1e-14
        )

    def test_six_draws_never_favor_independence(self):
        _, table = autocorr_model(draws=6)
        assert all(row.direction != 3 for row in table)

    def test_ten_draw_table(self):
        _, table = autocorr_model(draws=10)
        directions = [row.direction for row in table]
        assert directions == [1, 1, 1, 1, 3, 3, 2, 2, 2, 2]
        assert table[0].strength == pytest.approx((4 / 3) ** 9, rel=1e-12)
        ref = 0.5**9 / ((2 / 3) ** 5 * (1 / 3) ** 4)
        assert table[4].strength == pytest.approx(ref, rel=1e-12)
        assert table[4].strength == pytest.approx(1.2, abs=0.05)
        assert table[4].prob_independent == pytest.approx(126 / 512, rel=1e-14)

    def test_independence_evidence_is_the_weakest(self):
        _, table = autocorr_model(draws=10)
        indep = [row.strength for row in table if row.direction == 3]
        others = [row.strength for row in table if row.direction != 3]
        assert indep and max(indep) < min(others)
        assert max(indep) == pytest.approx(1.2, abs=0.05)

    def test_sequence_level_aggregation(self):
        # per-sequence probabilities: 0.5 * rho^(T-n) * (1-rho)^n summed over
        # the 2 * comb(T, n) sequences with n reversals
        model, _ = autocorr_model(draws=6)
        for theta, rho in ((1, 2 / 3), (2, 1 / 3), (3, 0.5)):
            for n in range(6):
                seqs = 2 * math.comb(5, n)
                per_seq = 0.5 * rho ** (5 - n) * (1 - rho) ** n
                assert model.prob(str(n), theta) == pytest.approx(
                    seqs * per_seq, rel=1e-12
                )

    def test_probability_rows_sum_to_one(self):
        for draws in (2, 6, 10, 13):
            model, _ = autocorr_model(draws=draws)
            np.testing.assert_allclose(model.probs.sum(axis=1), 1.0, atol=1e-9)


class TestEvidenceTable:
    def test_processing_flags_respect_the_threshold(self):
        model = illusory_model(2.0, 0.1, 0.05)
        rows = evidence_table(model, beta=0.5)
        flags = {row.outcome: row.processed for row in rows}
        assert flags == {"PC": True, "P~C": False, "~PC": False, "~P~C": False}

    def test_rows_read_the_same_evidence_as_classify(self):
        models = (
            lunar_model(),
            illusory_model(2.0, 0.1, 0.05),
            coin_model(0.7, 0.8, 4),
            autocorr_model(draws=6)[0],
        )
        for model in models:
            for row in evidence_table(model, beta=0.2):
                ev = classify(model, row.outcome)
                assert (row.direction, row.strength) == (ev.direction, ev.strength)
                assert row.processed == ev.processed(0.2)

    def test_full_censoring_detected_downstream(self):
        model, _ = autocorr_model(draws=6)
        with pytest.raises(FullyCensored):
            conditional_dynamics(censored_transitions(coin_model(0.5001, 0.5, 1), 0.2))
        assert model.theta_count == 3
