"""Exact values of the decision layer, the balances, and the continuous models'
log-likelihood ratios and censoring boundaries, in 50-digit mpmath.

The float paths are bounded against these values, not against an older
float path. The tests import this module by name: pytest puts ``tests/`` on
``sys.path``.
"""

import math

import mpmath
import numpy as np

_DPS = 50

with mpmath.workdps(_DPS):
    _INF = 2 ** mpmath.mpf(1024) - 2 ** mpmath.mpf(970)  # the least that rounds to inf
    _ZERO = 2 ** mpmath.mpf(-1075)  # the largest value that rounds to 0
    _LOG_INF, _LOG_ZERO = float(mpmath.log(_INF)), float(mpmath.log(_ZERO))
    _SQRT2 = mpmath.sqrt(2)

# The float screen of ``act_miss`` takes logs of powers up to 1000 * 745 in
# size, so its error is below 1e-9; it settles only entries whose float logs
# clear each edge by _SCREEN. Past _FAR standard deviations the act
# probability is 0 or 1 to within 1.2e-19.
_SCREEN = 1e-6
_FAR = 9.0


def balances(p11, p22, K, x):
    """lam and lambda_bar after the censoring step x, in mpmath arithmetic."""
    q11, q22 = ((p - x) / (1 - 2 * x) for p in (p11, p22))
    r1, r2 = q11 / (1 - q11), (1 - q22) / q22
    lam = sum(r2**s for s in range(-K, K + 1)) / sum(r1**s for s in range(-K, K + 1))
    return lam, lam * (r1 / r2) ** K


def _log_ratio(tilts):
    """x -> log density1(x) - log density2(x) of a ``ContinuousSignalModel``'s
    ``tilts``, each density the weighted sum of its unit tilts
    t * exp(t * x) / expm1(t), in the working precision."""
    states = [
        [(mpmath.mpf(t), mpmath.mpf(w) * t / mpmath.expm1(t)) for t, w in state]
        for state in tilts
    ]
    return lambda x: mpmath.log(
        sum(a * mpmath.exp(t * x) for t, a in states[0])
        / sum(a * mpmath.exp(t * x) for t, a in states[1])
    )


def log_likelihood_ratio(tilts, x):
    """log L(x) of ``tilts`` at x, to 50 digits."""
    with mpmath.workdps(_DPS):
        return _log_ratio(tilts)(mpmath.mpf(x))


def ratio_boundary(tilts, g):
    """The x in [0, 1] with log L(x) = g for the float g, to 50 digits: 0
    when log L(0) >= g and 1 when log L(1) <= g (log L increases)."""
    with mpmath.workdps(_DPS):
        log_ratio = _log_ratio(tilts)
        miss = lambda x: log_ratio(x) - g
        if miss(0) >= 0:
            return mpmath.mpf(0)
        if miss(1) <= 0:
            return mpmath.mpf(1)
        return mpmath.findroot(miss, (mpmath.mpf(0), mpmath.mpf(1)), solver="anderson")


def act_probability(prior, d, lam, Gamma, s):
    """Pr(rho_tilde * lam * d**s >= Gamma) over the prior noise, to 50 digits.

    This is the rule ``beliefs._act_probabilities`` states: a power d**s or a
    shift lam * d**s that rounds to inf acts 1, one that rounds to 0 acts 0,
    and a tie acts 1.
    """
    with mpmath.workdps(_DPS):
        power = mpmath.mpf(d) ** s
        shift = lam * power
        if max(power, shift) >= _INF:
            return mpmath.mpf(1)
        if min(power, shift) <= _ZERO:
            return mpmath.mpf(0)
        if Gamma in (0.0, math.inf) or prior.sigma_log == 0.0:
            return mpmath.mpf(prior.rho * shift >= Gamma)
        z = mpmath.log(prior.rho * shift / Gamma) / prior.sigma_log
        return mpmath.erfc(-z / _SQRT2) / 2


def act_miss(rows, prior, d, lam, Gamma) -> float:
    """Largest distance of act rows (M, 2K+1) from their 50-digit values, for
    one row per entry of the broadcast 1-d arrays d, lam and Gamma.

    A float screen settles the entries whose value is 0 or 1 to within
    1.2e-19: a power or shift far past an edge of the float range, or a
    posterior far from the stakes in logs. ``act_probability`` takes every
    other entry. So the true miss is within 1.2e-19 of the one returned.
    """
    rows = np.asarray(rows, dtype=float)
    K = (rows.shape[-1] - 1) // 2
    assert K <= 1000, "the screen's error bound holds up to K = 1000"
    d, lam, Gamma = (v[:, None] for v in np.broadcast_arrays(d, lam, Gamma))
    with np.errstate(divide="ignore"):
        log_power = np.log(d) * np.arange(-K, K + 1)
        log_shift = np.log(lam) + log_power
        margin = math.log(prior.rho) + log_shift - np.log(Gamma)  # log posterior/stakes
    top, bottom = np.maximum(log_power, log_shift), np.minimum(log_power, log_shift)
    over = top >= _LOG_INF + _SCREEN
    inside = (top < _LOG_INF - _SCREEN) & (bottom > _LOG_ZERO + _SCREEN)
    under = (top < _LOG_INF - _SCREEN) & (bottom <= _LOG_ZERO - _SCREEN)
    far = np.abs(margin) > max(_SCREEN, _FAR * prior.sigma_log)
    exact = (over | (inside & (margin > 0.0))).astype(float)
    settled = over | under | (inside & far)
    miss = float(np.abs(rows - exact)[settled].max(initial=0.0))
    for i, j in zip(*np.nonzero(~settled)):
        entry = (float(v[i, 0]) for v in (d, lam, Gamma))
        value = act_probability(prior, *entry, int(j) - K)
        miss = max(miss, float(abs(float(rows[i, j]) - value)))
    return miss
