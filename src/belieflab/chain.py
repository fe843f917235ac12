"""Exact distributions over mental states.

The mental system is a birth-death chain on the integer states -K..K with
reflecting ends: processed evidence for state 1 moves one step up, evidence
for state 2 one step down, censored signals leave the state alone. Distribution
vectors are plain numpy arrays ordered from -K to K (the multi-theory ladder
uses its own ordering, see ``ladder_state_labels``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .signals import (
    PVector, TransitionKernel, _check_int, _check_kind, _check_law, _check_real,
)

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

    probs(s) is proportional to r**s for s in -K..K, the long-run law of
    ``_laws`` for the column (r, 1, 0). The power is anchored at its largest
    term, so extreme r cannot overflow and the sentinels r = inf and r = 0
    (either sign) give exact point masses at +K and -K (one-sided dynamics
    are legal and flow through the welfare analysis unchanged).
    """
    K = _check_int(K, "K", 1)
    r = _check_real(r, "r", 0, np.inf, "[]")
    return _laws(np.array([r, 1.0, 0.0]), K)


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
    return _laws(np.array(_check_kind(q, "q", (PVector, TransitionKernel)).column(theta)), K, N)


def _birth_death_table(K: int) -> np.ndarray:
    """Next state on -K..K (stored from 0) for directions (stay, up, down)."""
    i = np.arange(2 * K + 1)
    return np.stack([i, np.minimum(i + 1, 2 * K), np.maximum(i - 1, 0)], axis=1)


def _move_matrix(table: np.ndarray, pvals) -> np.ndarray:
    """Transition matrices (..., n, n) taking column j of a move table with
    probability pvals[..., j]."""
    pvals = np.asarray(pvals, dtype=float)
    states = np.arange(table.shape[0])
    P = np.zeros(pvals.shape[:-1] + (states.size, states.size))
    for targets, prob in zip(table.T, np.moveaxis(pvals, -1, 0)):
        P[..., states, targets] += prob[..., None]  # one target per state
    return P


# matrices per stacked matrix power (64 cells of two states): bounds the memory
_POWER_BLOCK = 128


def _laws(q, K, N=None) -> np.ndarray:
    """Laws of the mental state, (..., 2K+1), for (up, down, stay) columns (..., 3).

    A kernel or a PVector gives its columns under theta = 1, 2 as (2, 3).
    Long-run rows (N=None) are r**s normalized, r = up/down, anchored at the
    largest power: r**(s-K) for r >= 1, |r|**(s+K) otherwise, and a silenced
    column parks at 0. Rows after N signals are row K of the N-th power of
    the move matrix, stacked _POWER_BLOCK matrices at a time.
    """
    if not isinstance(q, np.ndarray):
        q = [_check_kind(q, "p", (PVector, TransitionKernel)).column(t) for t in (1, 2)]
    cols = np.asarray(q, dtype=float)
    K = _check_int(K, "K", 1)
    if N is None:
        up, down = cols[..., 0, None], cols[..., 1, None]
        r = np.divide(up, down, out=np.full(up.shape, np.inf), where=down > 0.0)
        s = np.arange(-K, K + 1, dtype=float)
        w = np.abs(r) ** np.where(r >= 1.0, s - K, s + K)
        return np.where(up + down > 0.0, w / w.sum(axis=-1, keepdims=True), s == 0)
    N = _check_int(N, "N", 0)  # before the power: a negative N would invert the matrix
    table, flat = _birth_death_table(K)[:, [1, 2, 0]], cols.reshape(-1, 3)
    rows = [
        np.linalg.matrix_power(_move_matrix(table, flat[i : i + _POWER_BLOCK]), N)[:, K]
        for i in range(0, len(flat), _POWER_BLOCK)
    ]
    return np.concatenate(rows).reshape(cols.shape[:-1] + (2 * K + 1,))


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
    theta = _check_int(theta, "theta", 1, 3)
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
