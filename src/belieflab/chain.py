"""Exact distributions over mental states.

The mental system is a birth-death chain on the integer states -K..K with
reflecting ends: processed evidence for state 1 moves one step up, evidence
for state 2 one step down, censored signals leave the state alone. Distribution
vectors are plain numpy arrays ordered from -K to K (the multi-theory ladder
uses its own ordering, see ``ladder_state_labels``).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .signals import PVector, TransitionKernel, _check_int, _check_law, _check_theta

__all__ = [
    "stationary",
    "finite_n_distribution",
    "kernel_from_p",
    "ladder_state_labels",
    "ladder_transition",
    "general_stationary",
]


def stationary(r: float, K: int) -> np.ndarray:
    """Long-run state distribution of the chain with up/down odds r.

    probs(s) is proportional to r**s for s in -K..K. The power is anchored
    at its largest term r**0, so extreme r cannot overflow and the sentinels
    r = inf and r = 0 (either sign) give exact point masses at +K and -K
    (one-sided dynamics are legal and flow through the welfare analysis
    unchanged).
    """
    K = _check_int(K, "K", 1)
    if not r >= 0.0:
        raise ValueError(f"r must be positive (or the 0/inf sentinel), got {r!r}")
    s = np.arange(-K, K + 1, dtype=float)
    w = r ** (s - K) if r >= 1.0 else abs(r) ** (s + K)
    return w / w.sum()


def kernel_from_p(p11: float, p22: float) -> TransitionKernel:
    """Kernel with no stay probability, moving by (p11, p22) per signal."""
    p = PVector(p11, p22)
    return TransitionKernel(*zip(p.column(1), p.column(2)))


def finite_n_distribution(
    q: TransitionKernel | PVector, theta: int, K: int, N: int
) -> np.ndarray:
    """Exact state distribution after N signals, starting from state 0.

    The law is row K of the N-th power of the chain's transition matrix (no
    sampling). Under a kernel N counts raw signals, a censored one leaving
    the state alone; under its processed-signal chain
    ``conditional_dynamics(q)`` N counts processed signals only.
    """
    K = _check_int(K, "K", 1)
    N = _check_int(N, "N", 0)  # before the power: a negative N would invert the matrix
    up, down, stay = q.column(theta)
    P = _move_matrix(_birth_death_table(K), (stay, up, down))
    return np.linalg.matrix_power(P, N)[K]


def _birth_death_table(K: int) -> np.ndarray:
    """Next state on -K..K (stored from 0) for directions (stay, up, down)."""
    i = np.arange(2 * K + 1)
    return np.stack([i, np.minimum(i + 1, 2 * K), np.maximum(i - 1, 0)], axis=1)


def _move_matrix(table: np.ndarray, pvals) -> np.ndarray:
    """Transition matrix taking column j of a move table with probability pvals[j]."""
    states = np.arange(table.shape[0])
    P = np.zeros((states.size, states.size))
    for targets, prob in zip(table.T, pvals):  # one target per state, in order
        P[states, targets] += prob
    return P


def _laws(q, K, N=None) -> np.ndarray:
    """Laws of the mental state under theta = 1, 2 for a kernel or a PVector.

    Both are read through their (up, down, stay) columns. Rows are long-run
    laws (N=None; a silenced state parks the chain at 0) or laws after N
    signals.
    """
    if N is not None:
        return np.array([finite_n_distribution(q, t, K, N) for t in (1, 2)])
    K = _check_int(K, "K", 1)
    laws = []
    for up, down, _ in (q.column(1), q.column(2)):
        if up + down > 0.0:
            laws.append(stationary(up / down if down > 0.0 else math.inf, K))
        else:
            laws.append(np.eye(1, 2 * K + 1, K)[0])
    return np.array(laws)


# ---------------------------------------------------------------------------
# multi-theory ladder


def ladder_state_labels(K: int) -> list[str]:
    """State labels in storage order: 0, then ladders 1..3 bottom-up."""
    K = _check_int(K, "K", 1)
    labels = ["0"]
    for i in (1, 2, 3):
        labels.extend(f"({i},{k})" for k in range(1, K + 1))
    return labels


def _ladder_index(i: int, k: int, K: int) -> int:
    return 1 + (i - 1) * K + (k - 1)


def _ladder_move_table(K: int) -> np.ndarray:
    """Next-state lookup [state, direction], direction 0 meaning censored.

    Evidence for i climbs the i-ladder one rung (sticking at the top) and
    pushes any other ladder down one rung, through the shared bottom state 0.
    """
    n = 3 * K + 1
    table = np.empty((n, 4), dtype=np.int64)
    table[:, 0] = np.arange(n)
    for d in (1, 2, 3):
        table[0, d] = _ladder_index(d, 1, K)
        for j in (1, 2, 3):
            rungs = [_ladder_index(j, k, K) for k in range(1, K + 1)]
            if j == d:
                table[rungs, d] = rungs[1:] + rungs[-1:]
            else:
                table[rungs, d] = [0] + rungs[:-1]
    return table


def ladder_transition(p3: np.ndarray, K: int, theta: int) -> np.ndarray:
    """Ladder-chain transition matrix under underlying state theta.

    ``p3[i - 1, theta - 1]`` is the probability that a processed signal
    points to state i given theta (columns must sum to 1); the moves are
    those of ``_ladder_move_table``.
    """
    K = _check_int(K, "K", 1)
    p3 = np.asarray(p3, dtype=float)
    if p3.shape != (3, 3):
        raise ValueError(f"p3 must be 3x3, got shape {p3.shape}")
    _check_law(p3, 0, "p3 columns")
    theta = _check_theta(theta, 3)
    return _move_matrix(_ladder_move_table(K)[:, 1:], p3[:, theta - 1])


def general_stationary(
    matrix: np.ndarray | Sequence[Sequence[float]],
) -> np.ndarray:
    """Stationary distribution of a row-stochastic matrix by a direct solve.

    The support graph must be strongly connected (reducible chains are
    rejected since their stationary distribution is not unique). Then
    pi (P - I) = 0 has rank n - 1, so one of its equations is replaced by
    sum(pi) = 1 and the square system is solved directly.
    """
    P = np.asarray(matrix, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1] or P.size == 0:
        raise ValueError(f"matrix must be square and nonempty, got shape {P.shape}")
    _check_law(P, 1, "matrix rows")
    n = P.shape[0]
    reach = (P > 0.0) | np.eye(n, dtype=bool)
    for _ in range(n.bit_length()):  # paths of up to 2**k steps after k squarings
        reach = reach @ reach
    if not reach.all():
        raise ValueError("reducible chain: no unique stationary distribution")
    A = P.T - np.eye(n)
    A[-1] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    return np.linalg.solve(A, b)
