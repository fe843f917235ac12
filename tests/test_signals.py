import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from belieflab import (
    BeliefStrategy,
    ContinuousSignalModel,
    DiscreteSignalModel,
    Evidence,
    FullyCensored,
    PVector,
    TransitionKernel,
    asymmetric_tilt_model,
    batch,
    censor_path,
    censored_direction_matrix,
    censored_transitions,
    classify,
    conditional_dynamics,
    model_from_config,
    pool,
    simulate_welfare,
    tilt_model,
)
from belieflab.scenarios import MODELS, coin_model, lunar_model
from belieflab.welfare import ProblemSpec


@pytest.fixture(scope="module")
def tilt1():
    return tilt_model(1.0)


@pytest.fixture(scope="module")
def lunar():
    return lunar_model()


def random_discrete(rng, n_outcomes=5, theta_count=2):
    probs = rng.uniform(0.05, 1.0, size=(theta_count, n_outcomes))
    probs /= probs.sum(axis=1, keepdims=True)
    labels = tuple(f"o{i}" for i in range(n_outcomes))
    return DiscreteSignalModel(outcomes=labels, probs=probs, theta_count=theta_count)


# The largest tilt whose expm1 is finite: the next float up is refused.
_T_MAX = 709.782712893384


def test_the_largest_tilt_allowed_is_the_end_of_expm1s_range():
    ContinuousSignalModel((((_T_MAX, 1.0),), ((-_T_MAX, 1.0),)))
    with pytest.raises(ValueError, match="overflows"):
        ContinuousSignalModel((((np.nextafter(_T_MAX, math.inf), 1.0),), ((-1.0, 1.0),)))


class TestClassify:
    def test_uninformative_signal_ties_to_direction_one(self, tilt1):
        ev = classify(tilt1, 0.5)
        assert ev.direction == 1
        assert ev.strength == pytest.approx(1.0, abs=1e-12)

    def test_lunar_calm_full_moon(self, lunar):
        ev = classify(lunar, "0,1")
        assert ev.direction == 2
        assert ev.strength == pytest.approx(1.31, abs=0.005)

    def test_lunar_hot_full_moon(self, lunar):
        ev = classify(lunar, "8,1")
        assert ev.direction == 1
        assert ev.strength == pytest.approx(4.42, abs=0.005)

    def test_strength_is_max_of_ratio_and_inverse(self, tilt1):
        for x in (0.1, 0.35, 0.62, 0.97):
            ev = classify(tilt1, x)
            ratio = float(tilt1.likelihood_ratio(x))
            assert ev.strength == pytest.approx(max(ratio, 1.0 / ratio), rel=1e-12)
            assert ev.direction == (1 if ratio >= 1 else 2)

    @pytest.mark.parametrize(
        "tilts, weakest",
        [
            ((((_T_MAX, 1.0),), ((-_T_MAX, 1.0),)), 1e308),
            (
                (((1.0, 1e-300), (_T_MAX, 1.0)), ((-_T_MAX, 1.0), (-0.5, 1e-300))),
                1e300,
            ),
        ],
        ids=["one-component", "two-component"],
    )
    def test_the_most_extreme_tilts_allowed_give_finite_strengths(self, tilts, weakest):
        # the symmetric pair at the largest tilt has strength exp(709.78) at
        # both ends, within 3e-14 of the largest float
        model = ContinuousSignalModel(tilts)
        for x, direction in ((0.0, 2), (1.0, 1)):
            ev = classify(model, x)
            assert ev.direction == direction
            assert weakest < ev.strength < math.inf

    def test_unknown_outcome_rejected(self, lunar):
        with pytest.raises(ValueError, match="unknown outcome"):
            classify(lunar, "99,9")

    def test_zero_probability_everywhere_is_refused_by_classify_only(self):
        # an outcome with no mass under any state is never drawn: classify
        # refuses it, and censoring reads it as censored at every beta
        model = DiscreteSignalModel(
            outcomes=("a", "b", "c"),
            probs=np.array([[0.7, 0.0, 0.3], [0.4, 0.0, 0.6]]),
        )
        without = DiscreteSignalModel(
            outcomes=("a", "c"), probs=np.array([[0.7, 0.3], [0.4, 0.6]])
        )
        assert classify(model, "a") == classify(without, "a")
        with pytest.raises(ValueError, match="'b' has zero probability"):
            classify(model, "b")
        for beta in (0.0, 0.5, 1e300):
            assert model.directions(beta)[1] == 0
            np.testing.assert_array_equal(
                np.delete(model.directions(beta), 1), without.directions(beta)
            )
        assert censored_transitions(model, 0.0) == censored_transitions(without, 0.0)
        np.testing.assert_array_equal(
            censored_direction_matrix(model, 0.0),
            censored_direction_matrix(without, 0.0),
        )
        # the oracle's walk splits no walkers onto the null outcome
        spec = ProblemSpec.correct_priors(0.5, 0.5, 2)
        estimates = [
            simulate_welfare(
                m, spec, BeliefStrategy(d=2.0), 0.0, N=30, trials=500, seed=0
            )
            for m in (model, without)
        ]
        assert estimates[0] == estimates[1]

    @pytest.mark.parametrize("J", [620, 700, 1100])
    def test_a_long_coin_batch_censors(self, J):
        # 0.3**J and 0.2**J underflow, so the low tail counts have no mass
        model = coin_model(0.7, 0.8, J)
        assert (model.probs.max(axis=0) == 0.0).any()
        q = censored_transitions(model, 0.0)
        for theta in (1, 2):
            assert math.fsum(q.column(theta)) == pytest.approx(1.0, abs=1e-12)
        assert censored_direction_matrix(model, 0.0).sum(axis=0) == pytest.approx(1.0)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_strength_always_at_least_one(self, seed):
        rng = np.random.default_rng(seed)
        model = random_discrete(rng)
        for label in model.outcomes:
            assert classify(model, label).strength >= 1.0

    def test_exact_tie_goes_to_lowest_state(self):
        model = DiscreteSignalModel(
            outcomes=("a", "b", "c"),
            probs=np.array([[0.2, 0.3, 0.5], [0.4, 0.3, 0.3], [0.4, 0.1, 0.5]]),
            theta_count=3,
        )
        assert classify(model, "a") == Evidence(2, 1.0)
        assert classify(model, "b") == Evidence(1, 1.0)
        assert classify(model, "c") == Evidence(1, 1.0)
        # strength 1 survives only beta = 0
        np.testing.assert_array_equal(model.directions(0.0), [2, 1, 1])
        np.testing.assert_array_equal(model.directions(1e-9), [0, 0, 0])

    def test_zero_runner_up_gives_infinite_strength(self):
        model = DiscreteSignalModel(
            outcomes=("sure", "maybe"), probs=np.array([[0.4, 0.6], [0.0, 1.0]])
        )
        assert classify(model, "sure") == Evidence(1, math.inf)
        q = censored_transitions(model, 1e6)
        assert q.up == (0.4, 0.0)
        assert q.down == (0.0, 0.0)

    def test_tolerated_negative_is_a_zero(self):
        model = DiscreteSignalModel(
            outcomes=("a", "b"), probs=np.array([[1 + 1e-15, -1e-15], [0.4, 0.6]])
        )
        assert classify(model, "b") == Evidence(2, math.inf)
        assert censored_transitions(model, 0.0).down == (0.0, 0.6)
        spec = ProblemSpec.correct_priors(0.5, 0.6, 2)
        est = simulate_welfare(
            model, spec, BeliefStrategy(d=2.0), 0.0, N=3, trials=10, seed=0
        )
        assert math.isfinite(est.estimate)

    def test_three_state_direction_matrix(self):
        probs = np.array(
            [
                [0.5, 0.2, 0.2, 0.1],
                [0.1, 0.6, 0.2, 0.1],
                [0.1, 0.1, 0.3, 0.5],
            ]
        )
        model = DiscreteSignalModel(
            outcomes=("w", "x", "y", "z"), probs=probs, theta_count=3
        )
        # strengths 5, 3, 1.5, 5: beta = 1 censors only "y"
        kept = np.array([[0.5, 0.1, 0.1], [0.2, 0.6, 0.1], [0.1, 0.1, 0.5]])
        np.testing.assert_allclose(
            censored_direction_matrix(model, 1.0), kept / kept.sum(axis=0), rtol=1e-15
        )
        everything = np.array([[0.5, 0.1, 0.1], [0.2, 0.6, 0.1], [0.3, 0.3, 0.8]])
        np.testing.assert_allclose(
            censored_direction_matrix(model, 0.0), everything, rtol=1e-15
        )

    @given(seed=st.integers(0, 10**6), theta_count=st.integers(2, 3))
    @settings(max_examples=30, deadline=None)
    def test_cached_classification_matches_columns(self, seed, theta_count):
        rng = np.random.default_rng(seed)
        model = random_discrete(rng, n_outcomes=7, theta_count=theta_count)
        beta = float(rng.uniform(0.0, 1.0))
        mass = np.zeros((theta_count, theta_count))
        for i, label in enumerate(model.outcomes):
            column = model.probs[:, i]
            best = int(np.argmax(column))
            strength = column[best] / np.delete(column, best).max()
            ev = classify(model, label)
            assert ev.direction == best + 1
            assert ev.strength == pytest.approx(strength, rel=1e-15)
            if strength >= 1.0 + beta:
                mass[best] += column
        if theta_count == 2:
            # kernel entries add up one outcome at a time, in outcome order
            up, down = [0.0, 0.0], [0.0, 0.0]
            for i, label in enumerate(model.outcomes):
                ev = classify(model, label)
                if ev.processed(beta):
                    side = up if ev.direction == 1 else down
                    for t in range(2):
                        side[t] += float(model.probs[t, i])
            q = censored_transitions(model, beta)
            # a rounding excess over 1 is renormalized away, which moves an ulp
            if all(1.0 - u - d >= 0.0 for u, d in zip(up, down)):
                assert (q.up, q.down) == (tuple(up), tuple(down))
        np.testing.assert_array_equal(
            model.directions(beta),
            [classify(model, o).direction if classify(model, o).processed(beta) else 0
             for o in model.outcomes],
        )
        if np.all(mass.sum(axis=0) > 0):
            np.testing.assert_array_equal(
                censored_direction_matrix(model, beta), mass / mass.sum(axis=0)
            )
        else:
            with pytest.raises(FullyCensored):
                censored_direction_matrix(model, beta)


class TestCensoredTransitions:
    def test_no_censoring_leaves_no_stay_mass(self, tilt1):
        q = censored_transitions(tilt1, 0.0)
        assert q.stay[0] == pytest.approx(0.0, abs=1e-8)
        assert q.stay[1] == pytest.approx(0.0, abs=1e-8)

    def test_lunar_beta_035_silences_state_two_evidence(self, lunar):
        q = censored_transitions(lunar, 0.35)
        assert q.down == (0.0, 0.0)
        assert q.up[0] > 0 and q.up[1] > 0

    def test_tilt_closed_form(self, tilt1):
        # the censored band is symmetric around 1/2 with half-width
        # log(1 + beta) / (2 lam); direct exponential integrals give the rates
        lam, beta = 1.0, 0.2
        half = math.log(1.0 + beta) / (2.0 * lam)
        x_hi, x_lo = 0.5 + half, 0.5 - half
        q = censored_transitions(tilt1, beta)
        up1 = (math.exp(lam) - math.exp(lam * x_hi)) / math.expm1(lam)
        down1 = math.expm1(lam * x_lo) / math.expm1(lam)
        up2 = (math.exp(-lam * x_hi) - math.exp(-lam)) / (-math.expm1(-lam))
        down2 = (1.0 - math.exp(-lam * x_lo)) / (-math.expm1(-lam))
        assert q.up[0] == pytest.approx(up1, abs=1e-8)
        assert q.down[0] == pytest.approx(down1, abs=1e-8)
        assert q.up[1] == pytest.approx(up2, abs=1e-8)
        assert q.down[1] == pytest.approx(down2, abs=1e-8)
        assert q.up[0] < censored_transitions(tilt1, 0.0).up[0]

    def test_quadrature_cross_check_asymmetric(self):
        model = asymmetric_tilt_model()
        beta = 0.3
        q = censored_transitions(model, beta)
        ratio = model.likelihood_ratio
        lo = _bisect(lambda x: float(ratio(x)), 1.0 / (1.0 + beta))
        hi = _bisect(lambda x: float(ratio(x)), 1.0 + beta)
        for theta, (up_got, down_got) in enumerate(zip(q.up, q.down), start=1):
            f = model.density(theta)
            up_ref = integrate.quad(lambda x: float(f(x)), hi, 1.0, epsabs=1e-12)[0]
            down_ref = integrate.quad(lambda x: float(f(x)), 0.0, lo, epsabs=1e-12)[0]
            assert up_got == pytest.approx(up_ref, abs=1e-8)
            assert down_got == pytest.approx(down_ref, abs=1e-8)

    @pytest.mark.parametrize("model_name", ["tilt", "lunar"])
    def test_monotone_in_beta(self, model_name, tilt1, lunar):
        model = tilt1 if model_name == "tilt" else lunar
        betas = [0.0, 0.05, 0.1, 0.2, 0.5, 1.0]
        kernels = [censored_transitions(model, b) for b in betas]
        for prev, cur in zip(kernels, kernels[1:]):
            for t in range(2):
                assert cur.up[t] <= prev.up[t] + 1e-12
                assert cur.down[t] <= prev.down[t] + 1e-12

    def test_small_beta_loses_equal_mass_both_sides(self, tilt1):
        # weak evidence straddles the uninformative point, so a small
        # threshold removes nearly equal mass from each direction
        base = censored_transitions(tilt1, 0.0)
        cut = censored_transitions(tilt1, 0.01)
        for t in range(2):
            loss_up = base.up[t] - cut.up[t]
            loss_down = base.down[t] - cut.down[t]
            assert loss_up > 0 and loss_down > 0
            assert abs(loss_up - loss_down) / max(loss_up, loss_down) < 0.10

    def test_negative_beta_rejected(self, tilt1):
        with pytest.raises(ValueError):
            censored_transitions(tilt1, -0.1)

    def test_total_censoring_is_a_legal_kernel(self, tilt1):
        # the strongest tilt evidence has strength e, so beta = 5 censors all
        q = censored_transitions(tilt1, 5.0)
        assert q.up == (0.0, 0.0)
        assert q.down == (0.0, 0.0)
        assert q.stay == (1.0, 1.0)


def _bisect(fn, target):
    if fn(0.0) >= target:
        return 0.0
    if fn(1.0) <= target:
        return 1.0
    a, b = 0.0, 1.0
    for _ in range(80):
        m = 0.5 * (a + b)
        if fn(m) < target:
            a = m
        else:
            b = m
    return 0.5 * (a + b)


class TestConditionalDynamics:
    def test_definition(self):
        q = TransitionKernel(up=(0.4, 0.3), down=(0.1, 0.5), stay=(0.5, 0.2))
        p = conditional_dynamics(q)
        assert p.p11 == pytest.approx(0.8)
        assert p.p22 == pytest.approx(0.625)

    def test_lunar_locks_to_state_one(self, lunar):
        p = conditional_dynamics(censored_transitions(lunar, 0.35))
        assert p.p11 == 1.0
        assert p.p22 == 0.0

    def test_symmetric_family_symmetric_dynamics(self, tilt1):
        p = conditional_dynamics(censored_transitions(tilt1, 0.0))
        assert p.p11 == pytest.approx(p.p22, abs=1e-9)

    def test_fully_censored_names_the_state(self):
        q = TransitionKernel(up=(0.0, 0.3), down=(0.0, 0.5), stay=(1.0, 0.2))
        with pytest.raises(FullyCensored, match="theta=1"):
            conditional_dynamics(q)


class TestPool:
    def test_singleton_partition_is_identity(self, lunar):
        pooled = pool(lunar, [[label] for label in lunar.outcomes])
        np.testing.assert_allclose(pooled.probs, lunar.probs)

    def test_lunar_from_raw_counts(self):
        # rebuild the lunar table by pooling raw (count, moon) outcomes into
        # tension levels; must agree exactly with the direct construction
        rate_calm = 10.0 / 1.02
        rate_moon = 1.2 * rate_calm
        rates = {(1, 0): rate_calm, (1, 1): rate_moon, (2, 0): 10.0, (2, 1): 10.0}
        labels, cols = [], []
        for n in range(41):
            for moon in (0, 1):
                labels.append(f"n{n},{moon}")
                w = 0.9 if moon == 0 else 0.1
                cols.append(
                    [
                        w * math.exp(-rates[(t, moon)])
                        * rates[(t, moon)] ** n
                        / math.factorial(n)
                        for t in (1, 2)
                    ]
                )
        probs = np.array(cols).T
        probs /= probs.sum(axis=1, keepdims=True)
        raw = DiscreteSignalModel(outcomes=tuple(labels), probs=probs)
        partition = {}
        for moon in (0, 1):
            partition[f"0,{moon}"] = [f"n{n},{moon}" for n in range(13)]
            for x in range(1, 9):
                partition[f"{x},{moon}"] = [f"n{12 + x},{moon}"]
            partition[f"9+,{moon}"] = [f"n{n},{moon}" for n in range(21, 41)]
        pooled = pool(raw, partition)
        direct = lunar_model()
        for label in direct.outcomes:
            for theta in (1, 2):
                assert pooled.prob(label, theta) == pytest.approx(
                    direct.prob(label, theta), rel=1e-12
                )

    def test_pooling_calm_outcomes_weakens_state_two_evidence(self, lunar):
        # merging the calm full-moon outcome into a generic "no tension"
        # group averages away the strongest evidence for state 2
        partition = {"calm": ["0,0", "0,1"]}
        for label in lunar.outcomes:
            if label not in ("0,0", "0,1"):
                partition[label] = [label]
        pooled = pool(lunar, partition)
        calm = classify(pooled, "calm")
        assert calm.strength < 1.02 * 1.31
        best_for_two = max(
            classify(pooled, o).strength
            for o in pooled.outcomes
            if classify(pooled, o).direction == 2
        )
        assert best_for_two < 1.31

    def test_overlap_rejected(self, lunar):
        partition = [list(lunar.outcomes), ["0,0"]]
        with pytest.raises(ValueError, match="two groups"):
            pool(lunar, partition)

    def test_missing_cover_rejected(self, lunar):
        with pytest.raises(ValueError, match="does not cover"):
            pool(lunar, {"just_one": ["0,0"]})

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_pooled_strength_never_exceeds_members(self, seed):
        rng = np.random.default_rng(seed)
        model = random_discrete(rng, n_outcomes=6)
        i, j = rng.choice(6, size=2, replace=False)
        a, b = model.outcomes[i], model.outcomes[j]
        partition = {"ab": [a, b]}
        for label in model.outcomes:
            if label not in (a, b):
                partition[label] = [label]
        pooled = pool(model, partition)
        cap = max(classify(model, a).strength, classify(model, b).strength)
        assert classify(pooled, "ab").strength <= cap + 1e-12


class TestBatch:
    def test_j_one_is_identity(self, lunar):
        assert batch(lunar, 1) is lunar

    def test_single_draw_framing_is_irregular(self):
        # tails are likelier under either bias, so one draw leans to state 2
        model = coin_model(0.7, 0.8, J=1)
        p = conditional_dynamics(censored_transitions(model, 0.0))
        assert p.p11 == pytest.approx(0.3)
        assert p.p22 == pytest.approx(0.8)
        assert p.p11 < 0.5 < p.p22

    def test_fifty_draw_batches_regularize(self):
        model = batch(coin_model(0.7, 0.8, J=1), 50)
        p = conditional_dynamics(censored_transitions(model, 0.0))
        # direct binomial oracle: count k favors state 1 iff
        # 0.7^k 0.3^(50-k) > 0.8^k 0.2^(50-k)
        def for_one(k):
            return 0.7**k * 0.3 ** (50 - k) > 0.8**k * 0.2 ** (50 - k)

        p11_ref = sum(
            math.comb(50, k) * 0.7**k * 0.3 ** (50 - k)
            for k in range(51)
            if for_one(k)
        )
        p22_ref = sum(
            math.comb(50, k) * 0.8**k * 0.2 ** (50 - k)
            for k in range(51)
            if not for_one(k)
        )
        assert p.p11 == pytest.approx(p11_ref, abs=1e-12)
        assert p.p22 == pytest.approx(p22_ref, abs=1e-12)
        assert p.p11 > 0.5 and p.p22 > 0.5

    def test_tuple_batching_matches_sufficient_statistic(self):
        base = coin_model(0.7, 0.8, J=1)
        plain = DiscreteSignalModel(
            outcomes=base.outcomes, probs=base.probs, theta_count=2
        )
        tuples = batch(plain, 3)
        binom = coin_model(0.7, 0.8, J=3)
        got = np.zeros((2, 4))
        for i, label in enumerate(tuples.outcomes):
            tails = label.split("|").count("1")
            got[:, tails] += tuples.probs[:, i]
        np.testing.assert_allclose(got, binom.probs, atol=1e-14)

    def test_probabilities_sum_to_one(self):
        model = batch(coin_model(0.55, 0.45, J=1), 6)
        np.testing.assert_allclose(model.probs.sum(axis=1), 1.0, atol=1e-9)

    def test_cap_suggests_sufficient_statistic(self, lunar):
        with pytest.raises(ValueError, match="sufficient statistic"):
            batch(lunar, 12)


class TestCensorPath:
    def test_symmetric_path_raises_both_coordinates(self, tilt1):
        points = censor_path(tilt1, [0.0, 0.5, 1.0])
        for prev, cur in zip(points, points[1:]):
            assert cur.p11 >= prev.p11 - 1e-9
            assert cur.p22 >= prev.p22 - 1e-9

    def test_asymmetric_path_kills_state_two_by_beta_one(self):
        model = asymmetric_tilt_model()
        points = censor_path(model, list(np.linspace(0.0, 1.0, 11)))
        p22 = [pt.p22 for pt in points]
        assert points[0].p11 > 0.5 and points[0].p22 > 0.5
        assert p22[-1] == 0.0
        peak = int(np.argmax(p22))
        for a, b in zip(p22[peak:], p22[peak + 1 :]):
            assert b <= a + 1e-9
        assert points[-1].degenerate

    def test_lunar_degenerate_point_flagged(self, lunar):
        (pt,) = censor_path(lunar, [0.35])
        assert pt.p22 == 0.0
        assert pt.degenerate
        assert pt.fully_censored == (False, False)

    def test_fully_censored_entries_are_nan(self, lunar):
        (pt,) = censor_path(lunar, [10.0])
        assert pt.fully_censored == (True, True)
        assert math.isnan(pt.p11) and math.isnan(pt.p22)

    def test_unsorted_grid_rejected(self, tilt1):
        with pytest.raises(ValueError, match="sorted"):
            censor_path(tilt1, [0.5, 0.0])


class TestModelValidation:
    def test_kernel_column_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sums to"):
            TransitionKernel(up=(0.5, 0.5), down=(0.4, 0.5), stay=(0.2, 0.0))

    def test_pvector_bounds(self):
        with pytest.raises(ValueError):
            PVector(p11=1.2, p22=0.5)

    def test_pvector_sentinels(self):
        assert PVector(1.0, 0.5).r1 == math.inf
        assert PVector(0.5, 0.0).r2 == math.inf
        assert PVector(0.0, 1.0).r1 == 0.0
        assert PVector(0.0, 1.0).r2 == 0.0

    def test_discrete_rows_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            DiscreteSignalModel(
                outcomes=("a", "b"), probs=np.array([[0.6, 0.3], [0.5, 0.5]])
            )

    def test_discrete_probs_are_read_only(self):
        # the law checked at construction and the cached directions stay true
        model = DiscreteSignalModel(
            outcomes=("a", "b"), probs=np.array([[0.6, 0.4], [0.3, 0.7]])
        )
        with pytest.raises(ValueError, match="read-only"):
            model.probs[0, 0] = 5.0


    def test_a_rounding_dip_below_zero_in_a_weight_is_a_zero(self):
        # kept, the weight -5e-16 would take density1 below 0 near x = 0
        model = ContinuousSignalModel(
            (((_T_MAX, 1.0 + 5e-16), (1.0, -5e-16)), ((-1.0, 1.0),))
        )
        assert model.tilts[0][1] == (1.0, 0.0)
        assert model.density1(0.0) > 0.0


class TestJsonInterface:
    def test_discrete_round_trip(self):
        doc = {
            "theta_count": 2,
            "outcomes": ["a", "b", "c"],
            "probs": {"1": [0.2, 0.3, 0.5], "2": [0.5, 0.25, 0.25]},
        }
        model = model_from_config(doc)
        assert model.outcomes == ("a", "b", "c")
        assert model.prob("b", 2) == 0.25

    def test_family_by_name(self):
        model = model_from_config({"family": "tilt", "params": {"lam": 2.0}})
        assert model.name == "tilt"
        assert model.params["lam"] == 2.0

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown family"):
            model_from_config({"family": "nope"})

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_every_named_model_builds_from_a_document_with_its_defaults(self, name):
        build, defaults = MODELS[name]
        model, expected = model_from_config({"family": name}), build(**defaults)
        assert type(model) is type(expected)
        if isinstance(model, DiscreteSignalModel):
            assert model.outcomes == expected.outcomes
            assert np.array_equal(model.probs, expected.probs)
        else:
            assert (model.name, model.params) == (expected.name, expected.params)

    def test_document_params_override_the_defaults(self):
        model = model_from_config({"family": "coin", "params": {"J": 3}})
        assert np.array_equal(model.probs, coin_model(0.7, 0.8, 3).probs)

    def test_load_from_file(self, tmp_path):
        import json

        from belieflab import load_model

        path = tmp_path / "model.json"
        path.write_text(
            json.dumps(
                {
                    "theta_count": 2,
                    "outcomes": ["x", "y"],
                    "probs": {"1": [0.7, 0.3], "2": [0.4, 0.6]},
                }
            )
        )
        model = load_model(str(path))
        assert model.prob("x", 1) == 0.7


class TestDirectionMatrix:
    def test_columns_sum_to_one(self):
        from belieflab.scenarios import autocorr_model

        model, _ = autocorr_model(draws=10)
        mat = censored_direction_matrix(model, 0.0)
        np.testing.assert_allclose(mat.sum(axis=0), 1.0, atol=1e-12)

    def test_fully_censored_column_raises(self):
        from belieflab.scenarios import autocorr_model

        model, _ = autocorr_model(draws=6)
        with pytest.raises(FullyCensored):
            censored_direction_matrix(model, 100.0)


# The tilt families as written before they shared one exponential tilt: the
# hand-written densities and inverse CDFs, kept as the bit-for-bit reference.
def _reference_tilt(lam):
    c_up, c_down = lam / math.expm1(lam), -lam / math.expm1(-lam)

    def sampler(rng, theta, size):
        u = rng.random(size)
        if theta == 1:
            return np.log1p(u * math.expm1(lam)) / lam
        return -np.log1p(u * math.expm1(-lam)) / lam

    return (
        lambda x: c_up * np.exp(lam * np.asarray(x, dtype=float)),
        lambda x: c_down * np.exp(-lam * np.asarray(x, dtype=float)),
        sampler,
    )


def _reference_asymmetric(lam, spike, weight):
    c_up, c_spike = lam / math.expm1(lam), spike / math.expm1(spike)
    _, density2, _ = _reference_tilt(lam)

    def density1(x):
        x = np.asarray(x, dtype=float)
        return (1.0 - weight) * c_up * np.exp(lam * x) + weight * c_spike * np.exp(
            spike * x
        )

    def sampler(rng, theta, size):
        u = rng.random(size)
        if theta == 2:
            return -np.log1p(u * math.expm1(-lam)) / lam
        pick_spike = rng.random(size) < weight
        base = np.log1p(u * math.expm1(lam)) / lam
        spiked = np.log1p(u * math.expm1(spike)) / spike
        return np.where(pick_spike, spiked, base)

    return density1, density2, sampler


_GRID = np.linspace(0.0, 1.0, 10001)


def _assert_same_family(model, reference):
    density1, density2, sampler = reference
    for mine, theirs in ((model.density1, density1), (model.density2, density2)):
        assert np.array_equal(mine(_GRID), theirs(_GRID))
        assert mine(0.3) == theirs(0.3)
    for theta in (1, 2):
        for seed in (0, 7):
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            for size in (1000, 3):  # the second draw checks the stream position
                assert np.array_equal(
                    model.sampler(rng_a, theta, size), sampler(rng_b, theta, size)
                )


class TestOneExponentialTilt:
    @pytest.mark.parametrize("lam", [0.3, 0.5, 1.0, 2.5, 7.0, 20.0, 50.0])
    def test_tilt_model_is_the_hand_written_pair_bit_for_bit(self, lam):
        _assert_same_family(tilt_model(lam), _reference_tilt(lam))

    @pytest.mark.parametrize(
        "lam, spike, weight", [(0.1, 14.0, 0.44), (0.5, 9.0, 0.2), (1.5, 30.0, 0.7)]
    )
    def test_asymmetric_mixture_is_the_hand_written_pair_bit_for_bit(
        self, lam, spike, weight
    ):
        _assert_same_family(
            asymmetric_tilt_model(lam, spike, weight),
            _reference_asymmetric(lam, spike, weight),
        )


@pytest.mark.parametrize(
    "call",
    [
        lambda: TransitionKernel((0.5, 0.5), (0.5, 0.5), (0.0, 0.0)).column(3),
        lambda: PVector(0.7, 0.6).column(0),
        lambda: tilt_model(1.0).density(3),
        lambda: tilt_model(1.0).sampler(np.random.default_rng(0), 3, 2),
        lambda: asymmetric_tilt_model().sampler(np.random.default_rng(0), 0, 2),
    ],
    ids=["kernel", "pvector", "density", "tilt-sampler", "asymmetric-sampler"],
)
def test_every_two_state_pick_names_the_bad_theta(call):
    with pytest.raises(ValueError, match=r"^theta must be an integer in \[1, 2\], got \d$"):
        call()


# The scalar quadrature and bisection that censoring ran one beta and one
# density call at a time, before the grid-batched home: kept as the
# bit-for-bit reference, as ``_reference_tilt`` is kept for the families.
def _adaptive_simpson(f, a, b, tol):
    if b <= a:
        return 0.0
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_step(f, a, b, fa, fm, fb, whole, tol, 48)


def _simpson_step(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    err = left + right - whole
    if depth <= 0 or abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    half = 0.5 * tol
    return _simpson_step(
        f, a, m, fa, flm, fm, left, half, depth - 1
    ) + _simpson_step(f, m, b, fm, frm, fb, right, half, depth - 1)


def _ratio_boundary(model, target):
    """Solve L(x) = target by bisection, clipped to [0, 1]."""
    ratio = lambda x: float(model.density1(x)) / float(model.density2(x))
    if ratio(0.0) >= target:
        return 0.0
    if ratio(1.0) <= target:
        return 1.0
    a, b = 0.0, 1.0
    while b - a > 1e-12:
        m = 0.5 * (a + b)
        if ratio(m) < target:
            a = m
        else:
            b = m
    return 0.5 * (a + b)


def _reference_masses(model, beta):
    """Entry [i - 1, theta - 1] as ``_censored_masses`` gives it for one beta,
    and the two boundaries (x_lo, x_hi)."""
    x_lo = _ratio_boundary(model, 1.0 / (1.0 + beta))
    x_hi = _ratio_boundary(model, 1.0 + beta)
    mass = np.zeros((2, 2))
    for t in range(2):
        f = lambda x, t=t: float(model.density(t + 1)(x))
        mass[0, t] = _adaptive_simpson(f, x_hi, 1.0, 1e-9) if x_hi < 1.0 else 0.0
        mass[1, t] = _adaptive_simpson(f, 0.0, x_lo, 1e-9) if x_lo > 0.0 else 0.0
    return mass, (x_lo, x_hi)


def _jump_model():
    """A pair whose state-1 density jumps at 0.6, which no tilt mixture does:
    the quadrature refines the piece holding the jump to its depth limit.
    It carries only what the bisection, the quadrature and the scalar
    references read."""
    density1 = lambda x: (0.5 + x + 0.5 * (np.asarray(x) >= 0.6)) / 1.2
    density2 = lambda x: np.ones_like(np.asarray(x, dtype=float))
    return SimpleNamespace(
        density1=density1,
        density2=density2,
        density=lambda theta: (density1, density2)[theta - 1],
        likelihood_ratio=lambda x: density1(x) / density2(x),
    )


# unsorted; 0; 1.2 silences the asymmetric state-2 side only (x_lo = 0);
# 100 and 1e9 censor everything for the gentler models (x_lo = 0, x_hi = 1)
_BETAS = [0.7, 0.0, 0.35, 1.2, 0.05, 3.0, 100.0, 1e9, 0.35]
_MODELS = {
    **{f"tilt-{lam}": (lambda lam=lam: tilt_model(lam)) for lam in (0.3, 1.0, 2.7, 20.0)},
    **{
        f"asymmetric-{lam}-{spike}-{weight}": (
            lambda args=(lam, spike, weight): asymmetric_tilt_model(*args)
        )
        for lam, spike, weight in [(0.1, 14.0, 0.44), (0.5, 9.0, 0.2), (1.5, 30.0, 0.7)]
    },
}


class TestBatchedCensoring:
    """The grid-batched censoring home against the scalar reference."""

    @pytest.mark.parametrize("name", sorted(_MODELS))
    def test_masses_match_the_scalar_reference_bit_for_bit(self, name):
        from belieflab.signals import _censored_masses

        model = _MODELS[name]()
        got = _censored_masses(model, _BETAS)
        assert got.shape == (len(_BETAS), 2, 2)
        for beta, mass in zip(_BETAS, got):
            np.testing.assert_array_equal(mass, _reference_masses(model, beta)[0])
        # each beta alone is the same row of its own grid
        assert censored_transitions(model, 0.35).up == tuple(got[2, 0])

    def test_jump_masses_match_the_scalar_reference_bit_for_bit(self):
        # no model holds the jump: its boundaries and its pieces, the up
        # piece [x_hi, 1] and the down piece [0, x_lo] of every beta under
        # both states, go to the bisection and the quadrature directly
        from belieflab.signals import _ratio_boundaries, _simpson

        jump, betas = _jump_model(), np.array(_BETAS)
        bounds = _ratio_boundaries(jump, np.concatenate([1.0 / (1.0 + betas), 1.0 + betas]))
        x_lo, x_hi = np.split(bounds, 2)
        a = np.concatenate([x_hi, np.zeros_like(x_lo)])
        b = np.concatenate([np.ones_like(x_hi), x_lo])
        got = _simpson(jump.density1, jump.density2, np.tile(a, 2), np.tile(b, 2), len(a))
        got = got.reshape(2, 2, -1)  # [theta - 1, i - 1, beta]
        for k, beta in enumerate(_BETAS):
            mass, want_bounds = _reference_masses(jump, beta)
            assert (x_lo[k], x_hi[k]) == want_bounds
            np.testing.assert_array_equal(got[:, :, k].T, mass)

    def test_the_grid_reaches_every_kind_of_boundary(self):
        bounds = [
            _reference_masses(_MODELS[name](), beta)[1]
            for name in ("tilt-0.3", "asymmetric-0.1-14.0-0.44")
            for beta in _BETAS
        ]
        assert (0.0, 1.0) in bounds  # fully censored
        assert any(lo == 0.0 < hi < 1.0 for lo, hi in bounds)  # one side only
        assert any(0.0 < lo <= hi < 1.0 for lo, hi in bounds)  # both sides

    @pytest.mark.parametrize("name", [*sorted(_MODELS), "jump"])
    def test_normalization_integrals_match_the_scalar_reference(self, name):
        from belieflab.signals import _simpson

        model = _MODELS.get(name, _jump_model)()
        totals = _simpson(model.density1, model.density2, np.zeros(2), np.ones(2), 1)
        for t, total in enumerate(totals.tolist()):
            f = lambda x, t=t: float(model.density(t + 1)(x))
            assert total == _adaptive_simpson(f, 0.0, 1.0, 1e-9)

    def test_quadrature_on_any_interval_matches_the_scalar_reference(self):
        # ends on no coarse power-of-two grid: the midpoints round, and the
        # batched grid must round them as the recursion does
        from belieflab.signals import _simpson

        model = asymmetric_tilt_model()
        a, b = np.sort(np.random.default_rng(5).random((2, 20)), axis=0)
        got = _simpson(model.density1, model.density2, np.tile(a, 2), np.tile(b, 2), 20)
        want = [
            _adaptive_simpson(lambda x, t=t: float(model.density(t)(x)), lo, hi, 1e-9)
            for t in (1, 2)
            for lo, hi in zip(a.tolist(), b.tolist())
        ]
        np.testing.assert_array_equal(got, want)

    def test_boundaries_walk_a_ratio_that_is_not_monotone_as_the_scalar_loop(self):
        # a ratio that rises and falls: a block's probes are not all True,
        # then all False, so the walk itself decides where the bracket goes
        from belieflab.signals import _ratio_boundaries

        density1 = lambda x: 1.0 + x + 0.4 * np.sin(40.0 * np.asarray(x))
        density2 = lambda x: np.ones_like(np.asarray(x, dtype=float))
        wavy = SimpleNamespace(
            density1=density1,
            density2=density2,
            likelihood_ratio=lambda x: density1(x) / density2(x),
        )
        targets = np.array([0.9, 1.3, 1.05, 1.7, 2.2, 0.5, 3.0])
        got = _ratio_boundaries(wavy, targets)
        want = [_ratio_boundary(wavy, t) for t in targets.tolist()]
        np.testing.assert_array_equal(got, want)

    def test_an_empty_grid_has_no_masses(self, tilt1, lunar):
        from belieflab.signals import _censored_masses

        for model in (tilt1, lunar):
            assert _censored_masses(model, []).shape == (0, 2, 2)
        assert censor_path(tilt1, []) == []
