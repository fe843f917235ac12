import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from belieflab import (
    TransitionKernel,
    conditional_dynamics,
    finite_n_distribution,
    general_stationary,
    kernel_from_p,
    ladder_state_labels,
    ladder_transition,
    stationary,
)
from belieflab.chain import _birth_death_table, _ladder_move_table, _laws, _move_matrix


class TestStationary:
    def test_uniform_at_r_one(self):
        np.testing.assert_allclose(stationary(1.0, 2), np.full(5, 0.2))

    def test_r_two_k_two(self):
        # direct summation: weights 1/4, 1/2, 1, 2, 4 over total 7.75
        probs = stationary(2.0, 2)
        assert probs[2] == pytest.approx(1.0 / 7.75, rel=1e-14)
        assert probs[4] == pytest.approx(4.0 / 7.75, rel=1e-14)

    def test_inverse_r_mirrors(self):
        np.testing.assert_allclose(
            stationary(0.5, 2), stationary(2.0, 2)[::-1], rtol=1e-14
        )

    def test_sentinels(self):
        np.testing.assert_array_equal(stationary(math.inf, 3), [0, 0, 0, 0, 0, 0, 1])
        np.testing.assert_array_equal(stationary(0.0, 3), [1, 0, 0, 0, 0, 0, 0])

    @pytest.mark.parametrize("K", range(1, 9))
    def test_sentinels_are_exact_point_masses(self, K):
        # the anchored power alone gives them: inf**0 = 0**0 = 1, all else 0
        top, bottom = np.zeros(2 * K + 1), np.zeros(2 * K + 1)
        top[-1] = bottom[0] = 1.0
        np.testing.assert_array_equal(stationary(math.inf, K), top)
        np.testing.assert_array_equal(stationary(0.0, K), bottom)
        assert not np.signbit(stationary(-0.0, K)).any()  # no "-0" in output

    def test_extreme_odds_stay_normalized(self):
        probs = stationary(1e12, 5)
        assert probs.sum() == pytest.approx(1.0)
        assert probs[-1] == pytest.approx(1.0, abs=1e-11)

    @given(
        r=st.floats(0.01, 100.0),
        K=st.integers(1, 5),
    )
    @settings(max_examples=100, deadline=None)
    def test_detailed_ratio(self, r, K):
        probs = stationary(r, K)
        for s in range(1, 2 * K + 1):
            assert probs[s] / probs[s - 1] == pytest.approx(r, rel=1e-12)

    def test_negative_r_rejected(self):
        with pytest.raises(ValueError):
            stationary(-1.0, 2)


class TestFiniteN:
    def test_zero_steps_is_point_mass_at_zero(self):
        q = kernel_from_p(0.7, 0.6)
        probs = finite_n_distribution(q, 1, 2, 0)
        np.testing.assert_array_equal(probs, [0, 0, 1, 0, 0])

    def test_deterministic_sweep_to_top(self):
        q = TransitionKernel(up=(1.0, 1.0), down=(0.0, 0.0), stay=(0.0, 0.0))
        probs = finite_n_distribution(q, 1, 2, 3)
        np.testing.assert_allclose(probs, [0, 0, 0, 0, 1.0])

    def test_symmetric_chain_approaches_uniform(self):
        q = kernel_from_p(0.5, 0.5)
        probs = finite_n_distribution(q, 1, 2, 200)
        assert np.abs(probs - 0.2).max() < 1e-6

    def test_converges_to_stationary_with_stay_mass(self):
        q = TransitionKernel(up=(0.4, 0.2), down=(0.2, 0.5), stay=(0.4, 0.3))
        for theta, r in ((1, 2.0), (2, 0.4)):
            probs = finite_n_distribution(q, theta, 3, 2000)
            assert np.abs(probs - stationary(r, 3)).sum() < 1e-9

    def test_processed_signal_chain_is_conditional_dynamics(self):
        q = TransitionKernel(up=(0.4, 0.2), down=(0.1, 0.3), stay=(0.5, 0.5))
        got = finite_n_distribution(conditional_dynamics(q), 1, 2, 7)
        ref = finite_n_distribution(kernel_from_p(0.8, 0.6), 1, 2, 7)
        np.testing.assert_allclose(got, ref, atol=1e-15)


def _step_loop_law(up, down, stay, K, N):
    """Reference: evolve the probability vector one signal at a time."""
    v = np.zeros(2 * K + 1)
    v[K] = 1.0
    for _ in range(N):
        nxt = stay * v
        nxt[1:] += up * v[:-1]
        nxt[:-1] += down * v[1:]
        nxt[-1] += up * v[-1]  # blocked up move at +K
        nxt[0] += down * v[0]  # blocked down move at -K
        v = nxt
    return v


# (up, down, stay) columns: stay mass, one-sided, near-one-sided, silenced
_COLUMNS = [
    (0.45, 0.25, 0.3),
    (0.2, 0.5, 0.3),
    (1.0, 0.0, 0.0),
    (0.999, 0.001, 0.0),
    (0.0, 0.0, 1.0),
    (0.3, 0.7, 0.0),
]


@pytest.mark.parametrize("K", range(1, 9))
def test_matrix_power_laws_match_the_step_loop(K):
    for (u1, d1, s1), (u2, d2, s2) in zip(_COLUMNS, _COLUMNS[::-1]):
        q = TransitionKernel(up=(u1, u2), down=(d1, d2), stay=(s1, s2))
        for N in (0, 1, 2, 7, 20, 200, 1000, 2000):
            laws = _laws(q, K, N)
            for theta, column in ((1, (u1, d1, s1)), (2, (u2, d2, s2))):
                got = finite_n_distribution(q, theta, K, N)
                ref = _step_loop_law(*column, K, N)
                assert np.abs(got - ref).max() <= 1e-12, (column, N)
                np.testing.assert_array_equal(laws[theta - 1], got)


@pytest.mark.parametrize(
    "up, down, stay",
    [(0.45, 0.25, 0.3), (0.2, 0.5, 0.3), (0.1, 0.1, 0.8), (0.3, 0.7, 0.0), (0.999, 0.001, 0.0)],
)
@pytest.mark.parametrize("K", [1, 2, 3, 6])
def test_move_matrix_has_the_exact_spectrum(K, up, down, stay):
    # the birth-death chain on 2K+1 states whose ends keep a blocked move has
    # eigenvalues 1 and stay + 2 sqrt(up down) cos(pi j / (2K+1)), j = 1..2K
    # (Feller, An Introduction to Probability Theory and Its Applications, vol. 1)
    P = _move_matrix(_birth_death_table(K)[:, [1, 2, 0]], (up, down, stay))
    j = np.arange(1, 2 * K + 1)
    exact = stay + 2.0 * math.sqrt(up * down) * np.cos(math.pi * j / (2 * K + 1))
    eigenvalues = np.linalg.eigvals(P)
    assert np.abs(eigenvalues.imag).max() <= 1e-12
    np.testing.assert_allclose(
        np.sort(eigenvalues.real), np.sort(np.append(exact, 1.0)), rtol=0, atol=1e-12
    )


def _scatter(p3, K, theta):
    """Reference: add each direction's probability to its target, in order."""
    table = _ladder_move_table(K)
    states = np.arange(3 * K + 1)
    P = np.zeros((states.size, states.size))
    for i in (1, 2, 3):
        P[states, table[:, i]] += p3[i - 1, theta - 1]
    return P


@pytest.mark.parametrize("K", range(1, 5))
def test_ladder_transition_is_the_scatter_bit_for_bit(K):
    rng = np.random.default_rng(K)
    p3s = [np.eye(3), np.full((3, 3), 1.0 / 3.0)]
    p3s += [rng.dirichlet(np.ones(3), size=3).T for _ in range(5)]
    for p3 in p3s:
        for theta in (1, 2, 3):
            np.testing.assert_array_equal(
                ladder_transition(p3, K, theta), _scatter(p3, K, theta)
            )


class TestLadder:
    def test_state_count_and_labels(self):
        labels = ladder_state_labels(2)
        assert len(labels) == 7
        assert labels[0] == "0"
        assert labels[1:3] == ["(1,1)", "(1,2)"]

    def test_perfect_evidence_first_step(self):
        P = ladder_transition(np.eye(3), 2, theta=1)
        assert P[0, 1] == 1.0  # center -> (1,1)
        row = P[0]
        assert row.sum() == 1.0

    def test_contrary_evidence_steps_down_to_center(self):
        # from (2,1), evidence for state 1 reverts to the center
        P = ladder_transition(np.eye(3), 2, theta=1)
        idx_21 = 1 + 1 * 2  # ladder 2, rung 1
        assert P[idx_21, 0] == 1.0

    def test_top_rung_sticks(self):
        P = ladder_transition(np.eye(3), 1, theta=1)
        idx_top = 1  # K = 1, ladder 1 top rung
        assert P[idx_top, idx_top] == 1.0

    def test_rows_are_stochastic(self):
        p3 = np.array([[0.5, 0.2, 0.3], [0.3, 0.5, 0.3], [0.2, 0.3, 0.4]])
        for theta in (1, 2, 3):
            P = ladder_transition(p3, 3, theta)
            np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)

    def test_uniform_evidence_gives_ladder_symmetric_stationary(self):
        p3 = np.full((3, 3), 1.0 / 3.0)
        P = ladder_transition(p3, 2, theta=1)
        pi = general_stationary(P)
        ladder1 = pi[1:3]
        ladder2 = pi[3:5]
        ladder3 = pi[5:7]
        np.testing.assert_allclose(ladder1, ladder2, atol=1e-12)
        np.testing.assert_allclose(ladder1, ladder3, atol=1e-12)

    def test_truthful_evidence_concentrates_on_the_right_ladder(self):
        # with every diagonal above 1/2, the chain climbs the true state's
        # ladder more than any other; from two rungs up it holds an outright
        # majority
        p3 = np.array(
            [[0.55, 0.25, 0.10], [0.25, 0.60, 0.20], [0.20, 0.15, 0.70]]
        )
        for K in (1, 2, 3):
            for theta in (1, 2, 3):
                pi = general_stationary(ladder_transition(p3, K, theta))
                masses = [pi[1 + i * K : 1 + (i + 1) * K].sum() for i in range(3)]
                own = masses[theta - 1]
                assert all(own > m for i, m in enumerate(masses) if i != theta - 1)
                if K >= 2:
                    assert own > 0.5

    def test_bad_p3_rejected(self):
        with pytest.raises(ValueError):
            ladder_transition(np.full((3, 3), 0.5), 2, theta=1)


class TestGeneralStationary:
    def test_two_state_swap(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(general_stationary(P), [0.5, 0.5], atol=1e-12)

    def test_matches_birth_death_closed_form(self):
        # up 2/3, down 1/3 reflected on 5 states has odds ratio r = 2
        up, down = 2.0 / 3.0, 1.0 / 3.0
        n = 5
        P = np.zeros((n, n))
        for i in range(n):
            P[i, min(i + 1, n - 1)] += up
            P[i, max(i - 1, 0)] += down
        got = general_stationary(P)
        np.testing.assert_allclose(got, stationary(2.0, 2), atol=1e-10)

    def test_identity_rejected_as_reducible(self):
        with pytest.raises(ValueError, match="reducible"):
            general_stationary(np.eye(3))

    def test_bad_row_sums_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            general_stationary(np.array([[0.5, 0.4], [0.5, 0.5]]))

    def test_agrees_with_eigenvector_solver(self):
        rng = np.random.default_rng(7)
        P = rng.uniform(0.01, 1.0, size=(6, 6))
        P /= P.sum(axis=1, keepdims=True)
        got = general_stationary(P)
        # independent route: left eigenvector from the linear system
        A = np.vstack([P.T - np.eye(6), np.ones(6)])
        b = np.concatenate([np.zeros(6), [1.0]])
        ref, *_ = np.linalg.lstsq(A, b, rcond=None)
        np.testing.assert_allclose(got, ref, atol=1e-10)

    def test_residual_at_rounding_level(self):
        rng = np.random.default_rng(8)
        p3 = rng.dirichlet(np.ones(3), size=3).T
        mats = [ladder_transition(p3, K, t) for K in (1, 2, 5) for t in (1, 2, 3)]
        for n in (2, 6, 20):
            P = rng.uniform(0.01, 1.0, size=(n, n))
            mats.append(P / P.sum(axis=1, keepdims=True))
        for P in mats:
            pi = general_stationary(P)
            assert np.abs(pi @ P - pi).max() <= 1e-14
            assert abs(pi.sum() - 1.0) <= 1e-14
