"""Signal models, evidence classification, and censoring transforms.

A signal model describes how raw signals are generated under each underlying
state. Signals are reduced to a direction (which state the signal favors) and
a strength (how lopsided the likelihoods are, always >= 1). Censoring drops
every signal whose strength falls below a threshold 1 + beta; what survives
drives a birth-death walk over mental states, summarized by the conditional
move probabilities (p11, p22).

All types are immutable values and all operations are pure functions, so
everything here is safe to use from parallel sweeps without locking.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from collections.abc import Callable, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "FullyCensored",
    "Evidence",
    "TransitionKernel",
    "PVector",
    "ContinuousSignalModel",
    "DiscreteSignalModel",
    "CensorPoint",
    "tilt_model",
    "asymmetric_tilt_model",
    "classify",
    "censored_transitions",
    "censored_direction_matrix",
    "conditional_dynamics",
    "pool",
    "batch",
    "censor_path",
]

_QUAD_TOL = 1e-9       # absolute tolerance for numeric integration
_QUAD_DEPTH = 48       # the quadrature accepts every piece at this depth
_BLOCK = 1024          # points one quadrature block evaluates, about
_NEWTON_TOL = 1e-15    # a mixture's boundary is found once every step is below this
_NEWTON_STEPS = 100    # at most this many steps, should rounding keep them above it
_TABLE = np.linspace(0.0, 1.0, 257)  # where a mixture tabulates its log ratio
_NEG_TOL = 1e-15       # a probability may dip this far below 0 by rounding
_SUM_TOL = 1e-12       # a law may miss a total of 1 by this much


_INT_TYPES = (int, np.integer)


def _check_int(value, name: str, low: int, high=math.inf) -> int:
    """``value`` as an int; ValueError unless it is an int or numpy integer in [low, high].

    A bool is refused, although Python counts it as an int: a JSON ``true``
    is no count, nor True a state. A numpy integer comes back as the same
    Python int, so it computes what that int does (numpy's fixed width wraps
    around, and its power can land an ulp away). It runs on hot paths, so a
    plain int in range returns first and the arguments are positional.
    """
    if value.__class__ is int and low <= value <= high:
        return value
    if isinstance(value, _INT_TYPES) and value.__class__ is not bool and low <= value <= high:
        return int(value)
    interval = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
    raise ValueError(f"{name} must be an integer {interval}, got {value!r}")


def _check_real(value, name: str, low, high, ends: str) -> float:
    """``value`` as a float; ValueError unless it is a real number in the
    interval from ``low`` to ``high`` with ``ends`` "[" or "(" and "]" or ")".

    An int, float or numpy real counts; a bool does not, as in ``_check_int``,
    nor does a tuple, list, array, str or None. NaN lies in no interval, and
    an infinite end is in the interval only when closed, so (0, inf) refuses
    inf. It runs on hot paths, so a plain float strictly inside returns first.
    """
    if value.__class__ is float and low < value < high:
        return value
    if isinstance(value, (float, np.floating, *_INT_TYPES)) and value.__class__ is not bool:
        try:
            x = float(value)
        except OverflowError:  # an int past the float range
            x = math.inf if value > 0 else -math.inf
        if low < x < high or x == low and ends[0] == "[" or x == high and ends[1] == "]":
            return x
    raise ValueError(
        f"{name} must be a real number in {ends[0]}{low!r}, {high!r}{ends[1]}, got {value!r}"
    )


def _check_law(array: np.ndarray, axis: int, what: str) -> None:
    """Raise ValueError unless the slices of ``array`` along ``axis`` are laws.

    A law's entries are finite and at least -_NEG_TOL (a rounding dip below
    0), and they sum to 1 within _SUM_TOL. NaN fails both comparisons and an
    infinite entry the sum, so finiteness needs no test of its own.
    """
    sums = array.sum(axis=axis)
    if not (np.all(array >= -_NEG_TOL) and np.all(np.abs(sums - 1.0) <= _SUM_TOL)):
        raise ValueError(
            f"{what} must be finite, nonnegative and sum to 1 within {_SUM_TOL:g}"
        )


def _check_kind(value, name: str, kinds, states: int | None = None):
    """``value``; ValueError unless it is a ``kinds`` (a class or a tuple of them)
    with ``states`` states when set (a continuous model has two)."""
    count = getattr(value, "theta_count", 2)
    if isinstance(value, kinds) and states in (None, count):
        return value
    names = [kind.__name__ for kind in (kinds if isinstance(kinds, tuple) else (kinds,))]
    want = " or ".join(f"{'an' if kind[0] in 'AEIOU' else 'a'} {kind}" for kind in names)
    got = type(value).__name__
    if states is not None:
        want += f" with {states} states"
        got += f" with {count} states" if isinstance(value, kinds) else ""
    raise ValueError(f"{name} must be {want}, got {got}")


def _pick(theta: int, first, second):
    """``first`` under state 1, ``second`` under state 2."""
    if theta.__class__ is not int or not 0 < theta < 3:  # the hot path skips the rule
        theta = _check_int(theta, "theta", 1, 2)
    return (first, second)[theta - 1]


def _check_beta(beta) -> float:
    return _check_real(beta, "beta", 0, math.inf, "[)")


class FullyCensored(ValueError):
    """Raised when no evidence survives censoring under some state."""

    def __init__(self, theta: int, beta: float | None = None):
        self.theta = theta
        self.beta = beta
        detail = f" at beta={beta:g}" if beta is not None else ""
        super().__init__(f"fully censored under state theta={theta}{detail}")


@dataclass(frozen=True)
class Evidence:
    """Coarse reading of one signal: favored state and likelihood dominance."""

    direction: int
    strength: float

    def processed(self, beta: float) -> bool:
        """True when the signal survives censoring at threshold 1 + beta."""
        return self.strength >= 1.0 + _check_beta(beta)


@dataclass(frozen=True)
class TransitionKernel:
    """Per-state probabilities of an up move, down move, or no move.

    Tuples are indexed by underlying state: ``up[0]`` is the probability of
    processing evidence for state 1 when the true state is 1, ``up[1]`` the
    same probability when the true state is 2, and so on.
    """

    up: tuple[float, float]
    down: tuple[float, float]
    stay: tuple[float, float]

    def __post_init__(self):
        for name, pair in (("up", self.up), ("down", self.down), ("stay", self.stay)):
            if pair.__class__ is not tuple or len(pair) != 2:
                raise ValueError(f"{name} must be a tuple of two probabilities, got {pair!r}")
            for q in pair:  # a probability, or a rounding dip past 0 or 1
                _check_real(q, name, -_NEG_TOL, 1 + _NEG_TOL, "[]")
        for theta, total in enumerate(map(sum, zip(self.up, self.down, self.stay)), 1):
            if abs(total - 1.0) > _SUM_TOL:
                raise ValueError(f"kernel column theta={theta} sums to {total!r}, not 1")

    def column(self, theta: int) -> tuple[float, float, float]:
        """(up, down, stay) probabilities for underlying state ``theta``."""
        return _pick(theta, *zip(self.up, self.down, self.stay))


@dataclass(frozen=True)
class PVector:
    """Conditional move probabilities (p11, p22).

    p11 is the chance a processed signal moves the chain toward state 1 when
    the true state is 1; p22 the chance of a move toward state 2 when the
    true state is 2. The drift ratios r1, r2 use math.inf as the sentinel
    when a denominator vanishes.
    """

    p11: float
    p22: float

    def __post_init__(self):
        # a Python float overflows d**s quietly to inf, as ``posterior`` expects
        object.__setattr__(self, "p11", _check_real(self.p11, "p11", 0, 1, "[]"))
        object.__setattr__(self, "p22", _check_real(self.p22, "p22", 0, 1, "[]"))

    def column(self, theta: int) -> tuple[float, float, float]:
        """(up, down, stay) probabilities for underlying state ``theta``."""
        return _pick(theta, *_p_columns(self.p11, self.p22))

    @property
    def r1(self) -> float:
        """Up/down odds of the chain under state 1."""
        if self.p11 == 1.0:
            return math.inf
        return self.p11 / (1.0 - self.p11)

    @property
    def r2(self) -> float:
        """Up/down odds of the chain under state 2."""
        if self.p22 == 0.0:
            return math.inf
        return (1.0 - self.p22) / self.p22

    @property
    def interior(self) -> bool:
        return _interior(self.p11, self.p22)


def _interior(p11, p22):
    """Whether neither coordinate of p sits at 0 or 1, also over arrays."""
    return (0.0 < p11) & (p11 < 1.0) & (0.0 < p22) & (p22 < 1.0)


def _p_columns(p11, p22):
    """(up, down, stay) under theta = 1 and 2 of dynamics p, also over arrays."""
    return (p11, 1.0 - p11, 0.0), (1.0 - p22, p22, 0.0)


@dataclass(frozen=True)
class ContinuousSignalModel:
    """Pair of signal densities on [0, 1], each a mixture of exponential tilts.

    ``tilts`` holds one or two (t, weight) components per state; a state's
    density is the weighted sum of its unit tilts t * exp(t * x) / expm1(t)
    (``_tilt``), so it is normalized in closed form. Each t is finite and
    nonzero with expm1(|t|) finite, each state's weights form a law (a
    rounding dip below 0 becomes 0), and every state-1 t exceeds every
    state-2 t. So both densities are positive and finite on [0, 1], and the
    likelihood ratio L, density1 over density2, strictly increases. Construction
    binds ``density1``, ``density2``, the closed-form ``log_likelihood_ratio`` and its
    inverse on [0, 1] ``log_likelihood_ratio_inverse``, elementwise over arrays, and
    ``sampler(rng, theta, size)``, an exact inverse-CDF draw under state theta.
    """

    tilts: tuple
    name: str = "custom"
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        tilts = _check_tilts(self.tilts)
        (density1, draw1), (density2, draw2) = map(_mixture, tilts)
        object.__setattr__(self, "tilts", tilts)
        object.__setattr__(self, "density1", density1)
        object.__setattr__(self, "density2", density2)
        log_ratio, inverse = _log_ratio(tilts)
        object.__setattr__(self, "log_likelihood_ratio", log_ratio)
        object.__setattr__(self, "log_likelihood_ratio_inverse", inverse)
        object.__setattr__(
            self, "sampler", lambda rng, theta, size: _pick(theta, draw1, draw2)(rng, size)
        )

    def density(self, theta: int) -> Callable:
        return _pick(theta, self.density1, self.density2)


def _check_tilts(tilts) -> tuple:
    """``tilts`` as two tuples of float (t, weight) pairs; ValueError unless
    they keep the rules of ``ContinuousSignalModel``."""
    try:
        states = tuple(tuple((t, w) for t, w in state) for state in tilts)
    except (TypeError, ValueError):
        states = ()
    if len(states) != 2:
        raise ValueError(f"tilts must be two states of (t, weight) pairs, got {tilts!r}")
    for theta, state in enumerate(states, start=1):
        if len(state) not in (1, 2):
            raise ValueError(
                f"state {theta} needs one or two tilt components, got {len(state)}"
            )
        for t, w in state:
            if _check_real(t, "tilt", -math.inf, math.inf, "()") == 0:
                raise ValueError(f"tilt must be nonzero, got {t!r}")
            _check_real(w, "weight", -math.inf, math.inf, "()")
            try:
                math.expm1(abs(t))
            except OverflowError:
                raise ValueError(f"tilt {t!r} overflows the density's normalizer") from None
        weights = np.array([w for _, w in state], dtype=float)
        _check_law(weights, 0, f"state {theta} tilt weights")
    if min(t for t, _ in states[0]) <= max(t for t, _ in states[1]):
        raise ValueError("every state-1 tilt must exceed every state-2 tilt")
    return tuple(tuple((float(t), max(float(w), 0.0)) for t, w in state) for state in states)


@dataclass(frozen=True)
class DiscreteSignalModel:
    """Finite signal space with per-state outcome probabilities.

    ``probs`` has one row per underlying state (theta = 1..theta_count) and
    one column per outcome. ``batch_builder``, when set, maps a batch size J
    to an equivalent model on a sufficient statistic, which lets ``batch``
    sidestep the J-tuple blowup (tail counts for coin models, for example).

    Every outcome is classified once, at construction: its direction is the
    state with the highest probability (exact ties go to the lowest state),
    its strength that probability over the runner-up (inf when the
    runner-up is 0). An outcome with zero probability under every state is
    never drawn: it gets direction 0 and strength NaN, so censoring reads it
    as censored at every beta, and ``classify`` refuses it.
    """

    outcomes: tuple[str, ...]
    probs: np.ndarray
    theta_count: int = 2
    batch_builder: Callable[[int], "DiscreteSignalModel"] | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "theta_count", _check_int(self.theta_count, "theta_count", 2)
        )
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "outcomes", tuple(str(o) for o in self.outcomes))
        if probs.shape != (self.theta_count, len(self.outcomes)):
            raise ValueError(
                f"probs shape {probs.shape} does not match "
                f"{self.theta_count} states x {len(self.outcomes)} outcomes"
            )
        if len(set(self.outcomes)) != len(self.outcomes):
            raise ValueError("outcome labels must be unique")
        _check_law(probs, 1, "probs rows")
        # a tolerated rounding negative is a zero, not a negative strength
        probs = np.maximum(probs, 0.0)
        # read-only, so the checked law and the cached reading below stay true
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        ranked = np.sort(probs, axis=0)
        top, runner = ranked[-1], ranked[-2]
        with np.errstate(divide="ignore", invalid="ignore"):
            strength = np.where(runner == 0, math.inf, top / runner)
        null = top <= 0
        object.__setattr__(
            self, "_index", {label: i for i, label in enumerate(self.outcomes)}
        )
        object.__setattr__(
            self, "_direction", np.where(null, 0, np.argmax(probs, axis=0) + 1)
        )
        object.__setattr__(self, "_strength", np.where(null, math.nan, strength))

    def outcome_index(self, label: str) -> int:
        try:
            return self._index[str(label)]
        except KeyError:
            raise ValueError(f"unknown outcome {label!r}") from None

    def prob(self, label: str, theta: int) -> float:
        theta = _check_int(theta, "theta", 1, self.theta_count)
        return float(self.probs[theta - 1, self.outcome_index(label)])

    def directions(self, beta: float) -> np.ndarray:
        """Per-outcome direction after censoring at 1 + beta, 0 when censored."""
        _check_beta(beta)
        return np.where(self._strength >= 1.0 + beta, self._direction, 0)


# ---------------------------------------------------------------------------
# built-in continuous families


def _tilt(t: float, weight: float) -> tuple[Callable, Callable]:
    """``weight`` times the density t * exp(t * x) / expm1(t) on [0, 1].

    Also returns the unit density's inverse CDF, log1p(u * expm1(t)) / t.
    """
    rise = math.expm1(t)
    scale = weight * (t / rise)
    return (
        lambda x: scale * np.exp(t * np.asarray(x, dtype=float)),
        lambda u: np.log1p(u * rise) / t,
    )


def _mixture(components: tuple) -> tuple[Callable, Callable]:
    """One state's density and draw(rng, size), of its (t, weight) components.

    Two components add their densities in order. A draw takes its uniform u
    first; with two components, a second uniform below the second weight
    picks the second inverse CDF at u, and otherwise the first.
    """
    (first, draw_first), *rest = [_tilt(t, w) for t, w in components]
    if not rest:
        return first, lambda rng, size: draw_first(rng.random(size))
    [(second, draw_second)] = rest
    w_second = components[1][1]

    def draw(rng, size):
        u = rng.random(size)
        return np.where(rng.random(size) < w_second, draw_second(u), draw_first(u))

    return (lambda x: first(x) + second(x)), draw


def _log_ratio(tilts: tuple) -> tuple[Callable, Callable]:
    """log L(x) = log density1(x) - log density2(x) in closed form, and its inverse on [0, 1],
    both elementwise over arrays.

    A weighted ``_tilt`` density f is f(1/2) * exp(t * (x - 1/2)), and f(1/2) = w * (t/2) /
    sinh(t/2) is even in t. So log L is c + (t1 - t2) * (x - 1/2) over each state's component
    largest at 1/2 (c is 0 for a symmetric tilt), and the other, if f'(1/2) > 0, adds in
    state 1 and takes away in 2 log1p(exp(log(f'/f)(1/2) + (t' - t)(x - 1/2))), which cannot
    overflow. The inverse takes g to the x where log L(x) = g, to 0 where log L(0) >= g and
    to 1 where log L(1) <= g. With one component per state it solves the line; a mixture
    takes Newton steps from the table of log L on _TABLE, a step that leaves the bracket the
    signs of log L - g have drawn going to its midpoint, until each row has taken a step
    below _NEWTON_TOL.
    """
    at_half = lambda t, w: w * (t / 2 / math.sinh(t / 2) if t / 2 else 1.0)  # 5e-324 / 2 is 0
    heads = [sorted([(at_half(t, w), t) for t, w in state], reverse=True) for state in tilts]
    (f1, t1), (f2, t2) = (head[0] for head in heads)
    c, slope = math.log(f1 / f2), t1 - t2
    others = [(sign, math.log(g / f), s - t) for sign, ((f, t), *rest) in zip((1.0, -1.0), heads)
              for g, s in rest if g > 0]

    def log_ratio(x):
        h = np.asarray(x, dtype=float) - 0.5
        return sum((sign * np.log1p(np.exp(k + m * h)) for sign, k, m in others), c + slope * h)

    def inverse(g):
        g = np.asarray(g, dtype=float)
        if not others:
            return np.clip(0.5 + (g - c) / slope, 0.0, 1.0)
        table = log_ratio(_TABLE)  # the cell holding g; at an end that holds it, lo = hi
        i = np.searchsorted(table, g)
        lo, hi = _TABLE[np.clip([i - 1, i], 0, len(_TABLE) - 1)]
        x, done = np.interp(g, table, _TABLE), np.zeros(g.shape, dtype=bool)
        for _ in range(_NEWTON_STEPS):  # a row that is done stays, so no row reads another
            miss = log_ratio(x) - g
            lo, hi = np.where(miss < 0.0, x, lo), np.where(miss > 0.0, x, hi)
            e = [np.exp(k + m * (x - 0.5)) for _, k, m in others]
            rate = sum((sign * m * e / (1.0 + e) for (sign, _, m), e in zip(others, e)), slope)
            new = np.where(done, x, x - miss / rate)
            new = np.where((lo <= new) & (new <= hi), new, 0.5 * (lo + hi))
            done, x = done | (np.abs(new - x) < _NEWTON_TOL), new
            if done.all():
                break
        return x

    return log_ratio, inverse


def tilt_model(lam: float) -> ContinuousSignalModel:
    """Symmetric exponential-tilt pair on [0, 1].

    density1 is proportional to exp(lam * x) and density2 to exp(-lam * x),
    so the likelihood ratio is exp(lam * (2x - 1)): the uninformative signal
    sits at x = 1/2 and censoring removes a band symmetric around it.
    """
    lam = _check_real(lam, "lam", 0, math.inf, "()")
    return ContinuousSignalModel(
        (((lam, 1.0),), ((-lam, 1.0),)), name="tilt", params={"lam": lam}
    )


def asymmetric_tilt_model(
    lam: float = 0.1, spike: float = 14.0, weight: float = 0.44
) -> ContinuousSignalModel:
    """Tilt pair whose state-1 density mixes in a narrow high-strength spike.

    density2 is the downward tilt exp(-lam * x); density1 blends the upward
    tilt exp(lam * x) with weight ``weight`` of a steep tilt exp(spike * x)
    concentrated near x = 1. Evidence for state 2 is then uniformly weak
    (max strength 1/L(0) < 2 at the defaults) while evidence for state 1 can
    be strong, so a rising censoring threshold eventually silences the
    state-2 side entirely.
    """
    lam = _check_real(lam, "lam", 0, math.inf, "()")
    spike = _check_real(spike, "spike", lam, math.inf, "()")
    weight = _check_real(weight, "weight", 0, 1, "()")
    return ContinuousSignalModel(
        (((lam, 1.0 - weight), (spike, weight)), ((-lam, 1.0),)),
        name="asymmetric_tilt",
        params={"lam": lam, "spike": spike, "weight": weight},
    )


# ---------------------------------------------------------------------------
# classification


def classify(
    model: ContinuousSignalModel | DiscreteSignalModel, x
) -> Evidence:
    """Reduce a signal to (direction, strength).

    Direction is the state with the highest likelihood for the signal;
    strength is that likelihood divided by the best alternative, so it is
    always >= 1. Exact likelihood ties classify as the lowest state index,
    which keeps classification deterministic (such signals are censored by
    any beta > 0 anyway).
    """
    if isinstance(_check_kind(model, "model", _SIGNAL_MODELS), ContinuousSignalModel):
        g = float(model.log_likelihood_ratio(_check_real(x, "x", 0, 1, "[]")))
        return Evidence(1 if g >= 0.0 else 2, math.exp(abs(g)))

    idx = model.outcome_index(x)
    if model._direction[idx] == 0:
        raise ValueError(
            f"outcome {model.outcomes[idx]!r} has zero probability under every state"
        )
    return Evidence(int(model._direction[idx]), float(model._strength[idx]))


# ---------------------------------------------------------------------------
# censoring


def _simpson(f1: Callable, f2: Callable, a, b, n1: int, level: int = 0) -> np.ndarray:
    """Adaptive Simpson integrals of f1 over [a[i], b[i]] for i < n1, of f2
    for the rest, to an absolute tolerance of _QUAD_TOL each.

    The rule is recursive: a piece at depth j compares the Simpson estimate
    S of itself with the sum of its halves' and accepts that sum plus its
    excess over S / 15 when the excess is at most 15 * _QUAD_TOL / 2**j (or
    at depth _QUAD_DEPTH); otherwise its integral is its left half's plus
    its right half's. Every point a piece reads is the midpoint 0.5 * (l + r)
    of the piece above it, so the pieces are the nodes of one binary tree
    per interval. The tree is taken breadth first, a block of whole levels
    at a time: one density call per block evaluates every piece of those
    levels on every interval at once, and the pieces still open below the
    block are the next block's intervals. Sums go back up the tree in the
    recursion's pairs, so the results are the recursive rule's, bit for bit.
    """
    rows = len(a)
    if not rows:
        return np.zeros(0)
    # as many whole levels of pieces as fit _BLOCK grid points, at least one
    k = max(min(_QUAD_DEPTH + 1 - level, (_BLOCK // rows).bit_length() - 2), 1)
    n = 2 ** (k + 1)  # grid steps of a row: the smallest pieces are 2 steps wide
    x = np.empty((rows, n + 1))
    x[:, 0], x[:, n] = a, b
    step = n
    while step > 1:  # each level's midpoints, rounded as the recursion rounds them
        half = step // 2
        x[:, half:n:step] = 0.5 * (x[:, :n:step] + x[:, step::step])
        step = half
    fx = np.concatenate([f1(x[:n1]), f2(x[n1:])])
    ends, points, starts = _heap_pieces(k)
    xe, fe = np.take(x, ends, axis=1), np.take(fx, points, axis=1)
    estimate = (xe[:, 1] - xe[:, 0]) / 6.0 * (fe[:, 0] + 4.0 * fe[:, 1] + fe[:, 2])
    # the steps: the pieces of levels 0..k-1, each against its two halves
    halves = estimate[:, 1::2] + estimate[:, 2::2]
    excess = halves - estimate[:, : n // 2 - 1]
    accept = np.abs(excess) <= _step_bounds(level, k)
    value = halves + excess / 15.0
    closed = np.logical_and.reduceat(accept.all(axis=0), starts)
    if closed.any():  # every step of level top accepts: nothing below is open
        top = int(closed.argmax())
        below = value[:, starts[top] : 2 * starts[top] + 1]
    else:  # a piece of level k is open when no piece above it accepted
        top = k
        r, c = np.nonzero((~accept[:, _ancestors(k)]).all(axis=2))
        below = np.zeros((rows, n // 2))
        below[r, c] = _simpson(
            f1, f2, x[r, 2 * c], x[r, 2 * c + 2], np.searchsorted(r, n1), level + k
        )
    for j in reversed(range(top)):
        part = slice(starts[j], 2 * starts[j] + 1)
        halves = below[:, ::2] + below[:, 1::2]
        below = np.where(accept[:, part], value[:, part], halves)
    return below[:, 0]


@functools.cache
def _heap_pieces(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grid indices of the pieces of levels 0..k of a row of 2**(k + 1)
    steps, in heap order (piece i has halves 2i + 1 and 2i + 2): (left end,
    right end) and (left end, midpoint, right end); and the heap index of
    the first piece of each level below k."""
    n = 2 ** (k + 1)
    left = np.concatenate([np.arange(0, n, n >> j) for j in range(k + 1)])
    width = np.concatenate([np.full(2**j, n >> j) for j in range(k + 1)])
    return (
        np.stack([left, left + width]),
        np.stack([left, left + width // 2, left + width]),
        2 ** np.arange(k) - 1,
    )


@functools.cache
def _step_bounds(level: int, k: int) -> np.ndarray:
    """15 times the tolerance of each step of depths level..level+k-1, in
    heap order; every step at depth _QUAD_DEPTH accepts."""
    bound = [
        math.inf if j >= _QUAD_DEPTH else 15.0 * (_QUAD_TOL * 0.5**j)
        for j in range(level, level + k)
    ]
    return np.repeat(bound, 2 ** np.arange(k))


@functools.cache
def _ancestors(k: int) -> np.ndarray:
    """Row i: the heap indices of the pieces of levels 0..k-1 above piece i
    of level k."""
    i = np.arange(2**k)[:, None]
    j = np.arange(k)
    return 2**j - 1 + (i >> (k - j))


_SIGNAL_MODELS = (ContinuousSignalModel, DiscreteSignalModel)  # the kinds classify takes


def _direction_mass(model: DiscreteSignalModel, beta: float) -> np.ndarray:
    """Entry [i - 1, theta - 1]: Pr(a signal is processed and points to i | theta).

    Each entry adds its outcomes' probabilities one by one in outcome order
    (a running sum, not numpy's pairwise one).
    """
    dirs = model.directions(beta)
    picked = dirs == np.arange(1, model.theta_count + 1)[:, None]
    terms = np.where(picked[:, None, :], model.probs, 0.0)
    return np.cumsum(terms, axis=2)[:, :, -1]


def _censored_masses(
    model: ContinuousSignalModel | DiscreteSignalModel, betas: Sequence[float]
) -> np.ndarray:
    """Entry [b, i - 1, theta - 1]: Pr(a signal survives censoring at
    betas[b] and points to state i | theta), for a two-state model.

    The one home of censoring over a grid of betas. For a continuous model the
    2B ends of the censored bands [x_lo, x_hi], where |log L| < log1p(beta), come from
    one call of the log ratio's inverse, and the surviving pieces [x_hi, 1] and
    [0, x_lo] under both states from one quadrature over all 4B intervals.
    """
    _check_kind(model, "model", _SIGNAL_MODELS, 2)
    betas = np.array([_check_beta(beta) for beta in betas], dtype=float)
    if not len(betas):
        return np.zeros((0, 2, 2))
    if isinstance(model, ContinuousSignalModel):
        edge = np.log1p(betas)
        x_lo, x_hi = np.split(model.log_likelihood_ratio_inverse(np.concatenate([-edge, edge])), 2)
        # row i - 1: the pieces whose signals survive and point to state i
        lo = np.stack([x_hi, np.zeros_like(x_hi)])
        hi = np.stack([np.ones_like(x_lo), x_lo])
        kept = lo < hi
        a, b = np.tile(lo[kept], 2), np.tile(hi[kept], 2)  # theta = 1, then 2
        mass = np.zeros((2, 2, len(betas)))  # [theta - 1, i - 1, b]
        masses = _simpson(model.density1, model.density2, a, b, len(a) // 2)
        mass[:, kept] = masses.reshape(2, -1)
        return mass.transpose(2, 1, 0)
    return np.array([_direction_mass(model, beta) for beta in betas])


def _columns(masses: np.ndarray) -> np.ndarray:
    """(up, down, stay) columns, (..., 2, 3) indexed [..., theta - 1, move], of
    ``_censored_masses`` output (..., 2, 2).

    Each mass carries the quadrature's error (1e-9 a piece), so a stay in
    [-1e-6, 0) is a residue: its column's up and down are rescaled to sum to
    1 and stay is 0.
    A larger excess, or a mass that is not finite, raises ValueError.
    """
    moves = np.swapaxes(masses, -1, -2)  # [..., theta - 1, (up, down)]
    stay = 1.0 - moves[..., 0] - moves[..., 1]
    if not (stay >= 0.0).all():  # NaN fails the comparison too
        bad = np.argwhere(~(stay >= -1e-6))
        if len(bad):
            raise ValueError(
                f"move probabilities exceed 1 or are not finite under theta={bad[0, -1] + 1}"
            )
        over = stay < 0.0
        moves = moves / np.where(over, moves[..., 0] + moves[..., 1], 1.0)[..., None]
        stay = np.where(over, 0.0, stay)
    return np.concatenate([moves, stay[..., None]], axis=-1)


def _shares(cols: np.ndarray) -> np.ndarray:
    """(p11, p22) among processed signals, (..., 2), of columns (..., 2, 3);
    NaN under a silenced state."""
    moved = cols[..., 0] + cols[..., 1]  # [..., theta - 1]
    toward = cols[..., [0, 1], [0, 1]]  # up under theta = 1, down under theta = 2
    return np.divide(toward, moved, out=np.full(moved.shape, math.nan), where=moved > 0.0)


def censored_transitions(
    model: ContinuousSignalModel | DiscreteSignalModel, beta: float
) -> TransitionKernel:
    """Move probabilities after dropping signals of strength below 1 + beta.

    For continuous models the censored band [x_lo, x_hi], where |log L| < log1p(beta),
    ends where the closed-form log ratio's inverse puts it, to about 1e-15, and each
    surviving region is integrated by adaptive Simpson to an absolute tolerance of 1e-9,
    batched over a grid of betas (here, of one beta). A beta so large that everything
    is censored yields a legal degenerate kernel with stay probability 1.
    """
    cols = _columns(_censored_masses(model, [beta]))[0].tolist()  # [theta - 1][move]
    return TransitionKernel(*zip(*cols))


def censored_direction_matrix(
    model: DiscreteSignalModel, beta: float
) -> np.ndarray:
    """Pr(direction = i | a signal is processed, state theta) as a matrix.

    Entry [i - 1, theta - 1] is the conditional probability that a processed
    signal points to state i when the true state is theta; columns sum to 1.
    Raises FullyCensored when some state processes nothing at all.
    """
    mass = _direction_mass(_check_kind(model, "model", DiscreteSignalModel), beta)
    totals = mass.sum(axis=0)
    for theta in range(1, model.theta_count + 1):
        if totals[theta - 1] <= 0.0:
            raise FullyCensored(theta, beta)
    return mass / totals


def conditional_dynamics(q: TransitionKernel) -> PVector:
    """Collapse a kernel to the move probabilities conditional on processing."""
    _check_kind(q, "q", (PVector, TransitionKernel))
    p11, p22 = _shares(np.array([q.column(1), q.column(2)], dtype=float)).tolist()
    for theta, share in ((1, p11), (2, p22)):
        if math.isnan(share):
            raise FullyCensored(theta)
    return PVector(p11=p11, p22=p22)


# ---------------------------------------------------------------------------
# pooling, batching, censor paths


def pool(
    model: DiscreteSignalModel,
    partition: Mapping[str, Sequence[str]] | Iterable[Sequence[str]],
) -> DiscreteSignalModel:
    """Merge outcomes into groups, summing probabilities per state.

    ``partition`` either maps new labels to member outcome labels or is an
    iterable of member groups (labels are then joined with '+'). The groups
    must cover every outcome exactly once.
    """
    _check_kind(model, "model", DiscreteSignalModel)
    try:
        if isinstance(partition, Mapping):
            groups = [(str(k), list(v)) for k, v in partition.items()]
        else:
            groups = [("+".join(str(m) for m in g), list(g)) for g in partition]
    except TypeError:
        raise ValueError(
            "partition must map labels to groups of outcome labels or be an "
            f"iterable of such groups, got {partition!r}"
        ) from None
    seen: set[int] = set()
    new_probs = np.zeros((model.theta_count, len(groups)))
    for j, (_, members) in enumerate(groups):
        if not members:
            raise ValueError("empty partition group")
        for m in members:
            idx = model.outcome_index(m)
            if idx in seen:
                raise ValueError(f"outcome {m!r} appears in two groups")
            seen.add(idx)
            new_probs[:, j] += model.probs[:, idx]
    if len(seen) != len(model.outcomes):
        missing = set(range(len(model.outcomes))) - seen
        labels = [model.outcomes[i] for i in sorted(missing)]
        raise ValueError(f"partition does not cover outcomes {labels}")
    return DiscreteSignalModel(
        outcomes=tuple(name for name, _ in groups),
        probs=new_probs,
        theta_count=model.theta_count,
    )


def batch(model: DiscreteSignalModel, J: int) -> DiscreteSignalModel:
    """Process signals J at a time: outcomes become J-tuples.

    Models that declare a sufficient statistic (``batch_builder``) delegate
    to it. Otherwise outcomes are explicit J-tuples with product
    probabilities, refused above a million tuples.
    """
    _check_kind(model, "model", DiscreteSignalModel)
    J = _check_int(J, "J", 1)
    if J == 1:
        return model
    if model.batch_builder is not None:
        return model.batch_builder(J)
    n = len(model.outcomes)
    cap = 10**6
    if n**J > cap:
        raise ValueError(
            f"{n}^{J} batched outcomes exceed the cap of {cap}; "
            "declare a sufficient statistic via batch_builder instead"
        )
    probs = model.probs
    for _ in range(J - 1):  # the last outcome of a tuple varies fastest
        probs = (probs[:, :, None] * model.probs[:, None, :]).reshape(model.theta_count, -1)
    return DiscreteSignalModel(
        outcomes=tuple(map("|".join, itertools.product(model.outcomes, repeat=J))),
        probs=probs,
        theta_count=model.theta_count,
    )


@dataclass(frozen=True)
class CensorPoint:
    """One step of a censoring path: threshold and induced dynamics.

    ``fully_censored`` flags the states under which nothing is processed;
    the corresponding coordinate is NaN. A point is degenerate when a
    coordinate sits on the boundary of [0, 1] (all processed evidence points
    one way).
    """

    beta: float
    p11: float
    p22: float
    fully_censored: tuple[bool, bool] = (False, False)

    @property
    def degenerate(self) -> bool:
        return any(self.fully_censored) or self.p11 in (0.0, 1.0) or self.p22 in (
            0.0,
            1.0,
        )


def censor_path(
    model: ContinuousSignalModel | DiscreteSignalModel,
    beta_grid: Sequence[float],
) -> list[CensorPoint]:
    """Trace (p11, p22) as the censoring threshold sweeps over beta_grid."""
    betas = [_check_beta(b) for b in _check_kind(beta_grid, "beta_grid", Iterable)]
    if any(b2 < b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError("beta grid must be sorted ascending")
    shares = _shares(_columns(_censored_masses(model, betas))).tolist()
    return [
        CensorPoint(beta, p11, p22, (math.isnan(p11), math.isnan(p22)))
        for beta, (p11, p22) in zip(betas, shares)
    ]
