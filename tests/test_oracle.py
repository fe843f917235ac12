import numpy as np
import pytest

from belieflab import (
    BeliefStrategy,
    DiscreteSignalModel,
    PVector,
    TransitionKernel,
    asymmetric_tilt_model,
    autocorr_model,
    censored_direction_matrix,
    censored_transitions,
    conditional_dynamics,
    expected_welfare,
    finite_n_distribution,
    general_stationary,
    kernel_from_p,
    ladder_transition,
    lunar_model,
    simulate_chain,
    simulate_ladder,
    simulate_welfare,
    stationary,
    tilt_model,
)
from belieflab import ContinuousSignalModel
from belieflab.chain import _birth_death_table, _ladder_index, _ladder_move_table
from belieflab.oracle import _down_bound, _final_states, _walk
from belieflab.welfare import ProblemSpec


def _reference_codes(ratio, beta):
    """Direction codes (0 stay, 1 up, 2 down) of likelihood ratios, as the
    oracle took them before its two bounds: the strength of a ratio below 1
    is its reciprocal."""
    for1 = ratio >= 1.0
    with np.errstate(divide="ignore", over="ignore"):
        strength = np.where(for1, ratio, 1.0 / ratio)
    return np.where(strength >= 1.0 + beta, np.where(for1, 1, 2), 0)


def _reference_walk(table, dirs, pvals, start, trials, N, rng):
    """The occupancy walk as it scattered counts with ``np.add.at``."""
    pvals = pvals / pvals.sum()
    targets = table[:, dirs]
    counts = np.zeros(table.shape[0], dtype=np.int64)
    counts[start] = trials
    for _ in range(N):
        drawn = rng.multinomial(counts, pvals)
        counts = np.zeros_like(counts)
        np.add.at(counts, targets, drawn)
    return counts


def _bisected_down_bound(up_at):
    """``oracle._down_bound`` as it bisected over float bit patterns: the
    floats in [0, 1) whose reciprocal passes form a prefix, and non-negative
    floats order as their bit patterns do."""

    def value(bits):
        return float(np.uint64(bits).view(np.float64))

    lo, hi = 0, int(np.float64(1.0).view(np.uint64))  # lo passes; hi fails or is 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if 1.0 / value(mid) >= up_at:
            lo = mid
        else:
            hi = mid
    return value(lo)


class _GivenRatios(ContinuousSignalModel):
    """A tilt whose sampler hands out fixed signals that are their own
    likelihood ratios, so one oracle step from state 0 reads off each
    signal's direction."""

    def __init__(self, ratios):
        super().__init__((((1.0, 1.0),), ((-1.0, 1.0),)))
        object.__setattr__(self, "likelihood_ratio", lambda x: x)
        object.__setattr__(self, "sampler", lambda rng, theta, size: ratios.copy())


def _oracle_steps(ratios, beta):
    model = _GivenRatios(ratios)
    rng = np.random.default_rng(0)
    return _final_states(model, 1, beta, 1, 1, ratios.size, rng)


class TestSimulateChain:
    def test_deterministic_sweep(self):
        q = kernel_from_p(1.0, 1.0)
        est = simulate_chain(q, 1, 2, N=5, trials=1000, seed=0)
        np.testing.assert_array_equal(est.probs, [0, 0, 0, 0, 1.0])

    def test_processed_signal_chain_walks_like_its_kernel(self):
        q = TransitionKernel(up=(0.4, 0.2), down=(0.1, 0.3), stay=(0.5, 0.5))
        p = conditional_dynamics(q)
        q2 = kernel_from_p(p.p11, p.p22)
        a = simulate_chain(p, 2, 2, N=30, trials=20_000, seed=11)
        b = simulate_chain(q2, 2, 2, N=30, trials=20_000, seed=11)
        np.testing.assert_array_equal(a.probs, b.probs)

    def test_total_variation_to_stationary(self):
        q = kernel_from_p(0.8, 0.8)
        est = simulate_chain(q, 1, 2, N=500, trials=1_000_000, seed=1)
        tv = 0.5 * np.abs(est.probs - stationary(4.0, 2)).sum()
        assert tv < 0.005

    def test_matches_exact_finite_n_law(self):
        q = kernel_from_p(0.7, 0.6)
        est = simulate_chain(q, 2, 2, N=10, trials=200_000, seed=2)
        exact = finite_n_distribution(q, 2, 2, 10)
        assert np.all(np.abs(est.probs - exact) <= 3.0 * est.stderr + 1e-9)

    def test_stay_mass_slows_the_walk(self):
        from belieflab import TransitionKernel

        q = TransitionKernel(up=(0.2, 0.1), down=(0.1, 0.2), stay=(0.7, 0.7))
        est = simulate_chain(q, 1, 2, N=40, trials=100_000, seed=3)
        exact = finite_n_distribution(q, 1, 2, 40)
        assert np.all(np.abs(est.probs - exact) <= 3.0 * est.stderr + 1e-9)

    def test_same_seed_bit_identical(self):
        q = kernel_from_p(0.7, 0.6)
        a = simulate_chain(q, 1, 3, N=100, trials=50_000, seed=7)
        b = simulate_chain(q, 1, 3, N=100, trials=50_000, seed=7)
        np.testing.assert_array_equal(a.probs, b.probs)

    def test_different_seeds_differ(self):
        q = kernel_from_p(0.7, 0.6)
        a = simulate_chain(q, 1, 3, N=100, trials=50_000, seed=7)
        b = simulate_chain(q, 1, 3, N=100, trials=50_000, seed=8)
        assert not np.array_equal(a.probs, b.probs)


class TestSimulateWelfare:
    def test_powerless_rule_recovers_the_baseline(self):
        model = tilt_model(1.0)
        spec = ProblemSpec.noisy_priors(0.5, 0.6, 2, 0.5)
        est = simulate_welfare(
            model, spec, BeliefStrategy(1.0), beta=0.2, N=50, trials=50_000, seed=4
        )
        from belieflab import baseline_welfare

        under, _ = baseline_welfare(spec)
        assert est.ci_low <= under <= est.ci_high

    def test_locked_lunar_chain_matches_degenerate_closed_form(self):
        model = lunar_model()
        spec = ProblemSpec.correct_priors(0.5, 0.6, 2)
        strat = BeliefStrategy(3.0)
        # at moderate N the exact finite-N law is the right comparison (only
        # ~2% of raw signals survive the censoring, so the chain needs on
        # the order of a thousand signals to lock)
        from belieflab import finite_n_welfare

        q = censored_transitions(model, 0.35)
        exact_200 = finite_n_welfare(q, spec, strat, 200)
        est = simulate_welfare(
            model, spec, strat, beta=0.35, N=200, trials=100_000, seed=5
        )
        assert abs(est.estimate - exact_200) <= 3.0 * est.stderr
        # with enough signals the one-sided walk pins both states at the top
        exact_locked = expected_welfare(PVector(1.0, 0.0), spec, strat).value
        est = simulate_welfare(
            model, spec, strat, beta=0.35, N=1000, trials=100_000, seed=5
        )
        assert abs(est.estimate - exact_locked) <= 3.0 * est.stderr

    def test_continuous_pipeline_agreement(self):
        model = tilt_model(1.0)
        spec = ProblemSpec.noisy_priors(0.5, 0.6, 2, 0.5)
        strat = BeliefStrategy(3.0)
        p = conditional_dynamics(censored_transitions(model, 0.2))
        exact = expected_welfare(p, spec, strat).value
        est = simulate_welfare(
            model, spec, strat, beta=0.2, N=400, trials=100_000, seed=6
        )
        assert abs(est.estimate - exact) <= 3.0 * est.stderr

    def test_reproducible(self):
        model = tilt_model(1.0)
        spec = ProblemSpec.correct_priors(0.5, 0.6, 2)
        a = simulate_welfare(
            model, spec, BeliefStrategy(2.0), beta=0.1, N=50, trials=20_000, seed=9
        )
        b = simulate_welfare(
            model, spec, BeliefStrategy(2.0), beta=0.1, N=50, trials=20_000, seed=9
        )
        assert a.estimate == b.estimate and a.stderr == b.stderr

    @pytest.mark.parametrize("name", ["tilt1", "tilt2.5", "asymmetric"])
    @pytest.mark.parametrize("beta", [0.0, 0.3, 1.2])
    @pytest.mark.parametrize("K", [1, 3])
    def test_continuous_walk_on_the_move_table_is_the_clip_walk(self, name, beta, K):
        model = {
            "tilt1": tilt_model(1.0),
            "tilt2.5": tilt_model(2.5),
            "asymmetric": asymmetric_tilt_model(),
        }[name]

        def clip_walk(theta, N, n, rng):  # the walk before the move table
            s = np.zeros(n, dtype=np.int64)
            for _ in range(N):
                ratio = model.likelihood_ratio(model.sampler(rng, theta, n))
                step = np.array([0, 1, -1])[_reference_codes(ratio, beta)]
                s = np.clip(s + step, -K, K)
            return s

        for theta in (1, 2):
            rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
            walked = _final_states(model, theta, beta, K, 40, 500, rng_a)
            reference = clip_walk(theta, 40, 500, rng_b)
            assert walked.dtype == reference.dtype
            assert np.array_equal(walked, reference)

    @pytest.mark.parametrize(
        "sigma_log, rho, d",
        [(0.5, None, 1e200), (1e300, None, 2.0), (3.0, 1e308, 2.0)],
        ids=["d-1e200", "sigma_log-1e300", "rho-1e308"],
    )
    def test_a_posterior_past_the_float_range_acts_quietly(self, sigma_log, rho, d):
        # the suite raises RuntimeWarning; the act step lets these go to inf quietly
        spec = ProblemSpec.noisy_priors(0.5, 0.6, 2, sigma_log, rho=rho)
        est = simulate_welfare(
            lunar_model(), spec, BeliefStrategy(d), beta=0.0, N=5, trials=2000, seed=0
        )
        assert 0.0 < est.estimate < 1.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_a_power_past_the_float_range_matches_the_finite_n_law(self, seed):
        from belieflab import finite_n_welfare

        model, strat = lunar_model(), BeliefStrategy(1e200)
        spec = ProblemSpec.noisy_priors(0.5, 0.6, 2, 0.5)
        exact = finite_n_welfare(censored_transitions(model, 0.0), spec, strat, 5)
        est = simulate_welfare(
            model, spec, strat, beta=0.0, N=5, trials=20_000, seed=seed
        )
        assert abs(est.estimate - exact) <= 6.0 * est.stderr

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_an_infinite_shift_acts_where_the_prior_draw_is_zero(self, seed):
        # sigma_log = 1e300 sends about half the prior draws to 0 and the
        # power sends the shift to inf: the posterior 0 * inf acts 1, as an
        # infinite shift does in the closed form (0.23253), and runs quietly
        from belieflab import finite_n_welfare

        model, strat = lunar_model(), BeliefStrategy(1e200)
        spec = ProblemSpec.noisy_priors(0.5, 0.6, 2, 1e300)
        exact = finite_n_welfare(censored_transitions(model, 0.0), spec, strat, 5)
        est = simulate_welfare(
            model, spec, strat, beta=0.0, N=5, trials=20_000, seed=seed
        )
        assert abs(est.estimate - exact) <= 6.0 * est.stderr


class TestOracleKernels:
    """The two bounds and the bincount scatter against the code they replaced."""

    def test_down_bound_at_beta_zero_is_the_float_below_one(self):
        assert _down_bound(1.0) == 1.0 - 2.0**-53

    def test_down_bound_matches_bisection_over_bit_patterns(self):
        rng = np.random.default_rng(23)
        up_ats = [1.0, 1.0 + 2.0**-52, 2.0**1022, 2.0**1023, np.finfo(float).max]
        up_ats += list(1.0 + rng.random(2_000))
        up_ats += list(1.0 + np.exp(rng.uniform(-40.0, 709.0, 2_000)))
        for up_at in up_ats:
            assert _down_bound(float(up_at)) == _bisected_down_bound(float(up_at))

    @pytest.mark.parametrize("beta", [0.0, 1e-9, 0.2, 0.5, 3.0, 1e300])
    def test_bounds_classify_as_the_reciprocal(self, beta):
        up_at, down_at = 1.0 + beta, _down_bound(1.0 + beta)
        edges = [
            np.nextafter(v, toward) for v in (up_at, down_at, 1.0)
            for toward in (-np.inf, np.inf)
        ] + [up_at, down_at, 1.0, np.nextafter(np.nextafter(down_at, 2.0), 2.0)]
        rng = np.random.default_rng(17)
        ratios = np.concatenate([
            np.exp(rng.normal(0.0, 2.0, 20_000)),
            np.exp(rng.uniform(-745.0, 709.0, 20_000)),
            up_at * np.exp(rng.normal(0.0, 1e-15, 2_000)),
            down_at * np.exp(rng.normal(0.0, 1e-15, 2_000)),
            edges,
            [0.0, 5e-324, np.inf, np.nan, 2.0**1023, 1.0 / up_at],
        ])
        steps = _oracle_steps(ratios, beta)
        expected = np.array([0, 1, -1])[_reference_codes(ratios, beta)]
        np.testing.assert_array_equal(steps, expected)
        assert steps[np.flatnonzero(ratios == down_at)[0]] == -1
        assert steps[np.flatnonzero(ratios == np.nextafter(down_at, 2.0))[0]] != -1

    @pytest.mark.parametrize("beta", [0.0, 0.5])
    def test_a_ratio_with_its_sign_bit_set_stays(self, beta):
        # a density that breaks positivity between the construction grid's
        # points: -0.0, negative ratios and NaN stay, as they always did
        ratios = np.array([-0.0, -5e-324, -0.5, -1.0, -2.0, -np.inf, np.nan, -np.nan])
        np.testing.assert_array_equal(_reference_codes(ratios, beta), 0)
        np.testing.assert_array_equal(_oracle_steps(ratios, beta), 0)

    @pytest.mark.parametrize("K", [1, 2, 3])
    @pytest.mark.parametrize("dirs", [[1, 2, 0], [0, 1, 1], [2, 2, 1, 0]])
    def test_birth_death_walk_matches_the_add_at_scatter(self, K, dirs):
        table, dirs = _birth_death_table(K), np.array(dirs)
        pvals = np.random.default_rng(K).dirichlet(np.ones(dirs.size))
        for start, trials, seed in ((K, 10_000, 1), (0, 777, 2), (2 * K, 3, 3)):
            walked = _walk(table, dirs, pvals, start, trials, 60, np.random.default_rng(seed))
            reference = _reference_walk(
                table, dirs, pvals, start, trials, 60, np.random.default_rng(seed)
            )
            assert walked.dtype == reference.dtype
            np.testing.assert_array_equal(walked, reference)
            assert walked.sum() == trials

    @pytest.mark.parametrize("K", [1, 2, 3])
    @pytest.mark.parametrize("beta", [0.0, 0.3])
    def test_ladder_walk_matches_the_add_at_scatter(self, K, beta):
        model, _ = autocorr_model(draws=10)
        table, dirs = _ladder_move_table(K), model.directions(beta)
        for theta in (1, 2, 3):
            walked = _walk(
                table, dirs, model.probs[theta - 1], 0, 5_000, 80, np.random.default_rng(theta)
            )
            reference = _reference_walk(
                table, dirs, model.probs[theta - 1], 0, 5_000, 80, np.random.default_rng(theta)
            )
            np.testing.assert_array_equal(walked, reference)


class TestSimulateLadder:
    def test_perfect_evidence_pins_the_top_rung(self):
        model = DiscreteSignalModel(
            outcomes=("a", "b", "c"), probs=np.eye(3), theta_count=3
        )
        K = 2
        est = simulate_ladder(model, K, N=10, trials=2_000, seed=10)
        for theta in (1, 2, 3):
            top = _ladder_index(theta, K, K)
            assert est.probs[theta - 1, top] == 1.0

    def test_no_evidence_for_independence_means_empty_ladder(self):
        model, _ = autocorr_model(draws=6)
        K = 2
        est = simulate_ladder(model, K, N=400, trials=20_000, seed=11)
        ladder3 = slice(1 + 2 * K, 1 + 3 * K)
        np.testing.assert_array_equal(est.probs[:, ladder3], 0.0)

    def test_agreement_with_stationary_solve(self):
        model, _ = autocorr_model(draws=10)
        K = 2
        p3 = censored_direction_matrix(model, 0.0)
        est = simulate_ladder(model, K, N=1000, trials=100_000, seed=12)
        for theta in (1, 2, 3):
            exact = general_stationary(ladder_transition(p3, K, theta))
            assert np.all(
                np.abs(est.probs[theta - 1] - exact) <= 3.0 * est.stderr[theta - 1] + 1e-9
            )

    def test_censored_walk_matches_exact_finite_n_law(self):
        # at beta > 0 some outcomes are censored and leave the state alone
        model, _ = autocorr_model(draws=10)
        K, N, beta, trials = 2, 20, 0.3, 100_000
        dirs = model.directions(beta)
        assert 0 < np.count_nonzero(dirs == 0) < dirs.size
        moves = [np.eye(3 * K + 1)] + [
            ladder_transition(np.outer(np.eye(3)[d - 1], np.ones(3)), K, 1)
            for d in (1, 2, 3)
        ]
        est = simulate_ladder(model, K, N, trials=trials, seed=13, beta=beta)
        for theta in (1, 2, 3):
            step = sum(p * moves[d] for p, d in zip(model.probs[theta - 1], dirs))
            exact = np.linalg.matrix_power(step, N)[0]
            gap = np.abs(est.probs[theta - 1] - exact)
            assert np.all(gap <= 3.0 * est.stderr[theta - 1] + 3.0 / trials)

    def test_two_state_model_rejected(self):
        with pytest.raises(
            ValueError,
            match="^model must be a DiscreteSignalModel with 3 states, "
            "got DiscreteSignalModel with 2 states$",
        ):
            simulate_ladder(lunar_model(), 2, N=10, trials=10, seed=0)
