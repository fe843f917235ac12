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

from .signals import FullyCensored, PVector, TransitionKernel, _check_int

__all__ = [
    "stationary",
    "upper_tail",
    "finite_n_distribution",
    "kernel_from_p",
    "ladder_state_labels",
    "ladder_transition",
    "general_stationary",
]


def _check_k(K: int) -> None:
    if not isinstance(K, (int, np.integer)) or K < 1:
        raise ValueError(f"K must be a positive integer, got {K!r}")


def _check_n(N: int) -> None:
    _check_int(N=N)
    if N < 0:
        raise ValueError("N must be nonnegative")


def stationary(r: float, K: int) -> np.ndarray:
    """Long-run state distribution of the chain with up/down odds r.

    probs(s) is proportional to r**s for s in -K..K. The sentinels r = inf
    and r = 0 give point masses at +K and -K (one-sided dynamics are legal
    and flow through the welfare analysis unchanged).
    """
    _check_k(K)
    n = 2 * K + 1
    if r == math.inf:
        out = np.zeros(n)
        out[-1] = 1.0
        return out
    if r == 0.0:
        out = np.zeros(n)
        out[0] = 1.0
        return out
    if not r > 0.0:
        raise ValueError(f"r must be positive (or the 0/inf sentinel), got {r!r}")
    s = np.arange(-K, K + 1, dtype=float)
    # anchor the largest power at r**0 so extreme r cannot overflow
    w = r ** (s - K) if r >= 1.0 else r ** (s + K)
    return w / w.sum()


def upper_tail(k: int, r: float, K: int) -> float:
    """Probability that the chain settles at state k or above."""
    _check_k(K)
    _check_int(k=k)
    if not -K <= k <= K + 1:
        raise ValueError(f"k={k} outside -K..K+1 for K={K}")
    if k == K + 1:
        return 0.0
    return float(stationary(r, K)[k + K :].sum())


def kernel_from_p(p11: float, p22: float) -> TransitionKernel:
    """Kernel with no stay probability, moving by (p11, p22) per signal."""
    return TransitionKernel(
        up=(p11, 1.0 - p22), down=(1.0 - p11, p22), stay=(0.0, 0.0)
    )


def finite_n_distribution(
    q: TransitionKernel,
    theta: int,
    K: int,
    N: int,
    processed_only: bool = False,
) -> np.ndarray:
    """Exact state distribution after N signals, starting from state 0.

    Evolves the probability vector directly (no sampling). With
    ``processed_only`` the stay probability is dropped and the move
    probabilities rescaled, so N counts processed signals rather than raw
    ones.
    """
    _check_k(K)
    _check_n(N)
    return _evolve(*q.column(theta), theta, K, N, processed_only)


def _evolve(up, down, stay, theta, K, N, processed_only) -> np.ndarray:
    if processed_only:
        total = up + down
        if total <= 0.0:
            raise FullyCensored(theta)
        up, down, stay = up / total, down / total, 0.0
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


def _laws(q, K, N=None, processed_only=False) -> np.ndarray:
    """Laws of the mental state under theta = 1, 2 for a kernel or a PVector.

    Rows are long-run laws (N=None; a silenced state parks the chain at 0)
    or laws after N signals. A PVector has odds r1, r2 and no stay mass.
    """
    if isinstance(q, PVector):
        if N is None:
            return np.array([stationary(q.r1, K), stationary(q.r2, K)])
        columns = [(q.p11, 1.0 - q.p11, 0.0), (1.0 - q.p22, q.p22, 0.0)]
    else:
        columns = [q.column(1), q.column(2)]
    _check_k(K)
    if N is not None:
        _check_n(N)
        return np.array(
            [_evolve(*c, t, K, N, processed_only) for t, c in enumerate(columns, 1)]
        )
    laws = []
    for up, down, _ in columns:
        if up + down > 0.0:
            laws.append(stationary(up / down if down > 0.0 else math.inf, K))
        else:
            laws.append(np.eye(1, 2 * K + 1, K)[0])
    return np.array(laws)


# ---------------------------------------------------------------------------
# multi-theory ladder


def ladder_state_labels(K: int) -> list[str]:
    """State labels in storage order: 0, then ladders 1..3 bottom-up."""
    _check_k(K)
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
    _check_k(K)
    p3 = np.asarray(p3, dtype=float)
    if p3.shape != (3, 3):
        raise ValueError(f"p3 must be 3x3, got shape {p3.shape}")
    if np.any(p3 < -1e-15) or np.any(np.abs(p3.sum(axis=0) - 1.0) > 1e-12):
        raise ValueError("p3 columns must be probability vectors summing to 1")
    if theta not in (1, 2, 3):
        raise ValueError(f"theta must be 1, 2 or 3, got {theta}")
    table = _ladder_move_table(K)
    states = np.arange(3 * K + 1)
    P = np.zeros((states.size, states.size))
    for i in (1, 2, 3):  # one target per state and direction, added in order
        P[states, table[:, i]] += p3[i - 1, theta - 1]
    return P


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
    if np.any(P < -1e-15):
        raise ValueError("matrix entries must be nonnegative")
    if np.any(np.abs(P.sum(axis=1) - 1.0) > 1e-12):
        raise ValueError("matrix rows must sum to 1 within 1e-12")
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
