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

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

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
    "model_from_config",
    "load_model",
]

_BOUNDARY_TOL = 1e-12  # bisection width for censoring boundaries
_QUAD_TOL = 1e-9       # absolute tolerance for numeric integration


def _check_finite(**values) -> None:
    """Raise ValueError naming the first argument that holds a NaN or inf.

    Each value is a number, a tuple of numbers or a numpy array.
    """
    for name, value in values.items():
        if isinstance(value, np.ndarray):
            finite = bool(np.isfinite(value).all())
        else:
            items = value if isinstance(value, tuple) else (value,)
            finite = all(map(math.isfinite, items))
        if not finite:
            raise ValueError(f"{name} must be finite, got {value!r}")


def _check_int(**values) -> None:
    """Raise ValueError naming the first argument that is no (numpy) integer."""
    for name, value in values.items():
        if not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_beta(beta: float) -> None:
    _check_finite(beta=beta)
    if beta < 0:
        raise ValueError("beta must be nonnegative")


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
        return self.strength >= 1.0 + beta


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
        _check_finite(up=self.up, down=self.down, stay=self.stay)
        for i in range(2):
            total = self.up[i] + self.down[i] + self.stay[i]
            if abs(total - 1.0) > 1e-12:
                raise ValueError(
                    f"kernel column theta={i + 1} sums to {total!r}, not 1"
                )
            for q in (self.up[i], self.down[i], self.stay[i]):
                if q < -1e-15 or q > 1 + 1e-15:
                    raise ValueError(f"kernel entry {q!r} outside [0, 1]")

    def column(self, theta: int) -> tuple[float, float, float]:
        """(up, down, stay) probabilities for underlying state ``theta``."""
        if theta not in (1, 2):
            raise ValueError(f"theta must be 1 or 2, got {theta}")
        i = theta - 1
        return self.up[i], self.down[i], self.stay[i]


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
        for name, v in (("p11", self.p11), ("p22", self.p22)):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v!r} outside [0, 1]")

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
        return 0.0 < self.p11 < 1.0 and 0.0 < self.p22 < 1.0


def _as_float_fn(f: Callable) -> Callable[[float], float]:
    return lambda x: float(f(x))


@dataclass(frozen=True)
class ContinuousSignalModel:
    """Pair of signal densities on [0, 1] with a monotone likelihood ratio.

    ``density1`` and ``density2`` must be strictly positive on [0, 1],
    integrate to 1 (checked numerically to 1e-6), and their ratio
    L(x) = density1(x) / density2(x) must be strictly increasing (checked on
    a 1000-point grid). ``sampler(rng, theta, size)``, when provided, draws
    signals under the given state; the built-in families attach exact
    inverse-CDF samplers.
    """

    density1: Callable
    density2: Callable
    name: str = "custom"
    params: Mapping[str, float] = field(default_factory=dict)
    sampler: Callable | None = None

    def __post_init__(self):
        grid = np.linspace(0.0, 1.0, 1001)
        f1 = np.asarray(self.density1(grid), dtype=float)
        f2 = np.asarray(self.density2(grid), dtype=float)
        if not (np.all(f1 > 0) and np.all(f2 > 0)):
            raise ValueError("densities must be strictly positive on [0, 1]")
        ratio = f1 / f2
        if not np.all(np.diff(ratio) > 0):
            raise ValueError("likelihood ratio must be strictly increasing")
        for label, f in (("density1", self.density1), ("density2", self.density2)):
            total = _adaptive_simpson(_as_float_fn(f), 0.0, 1.0, 1e-9)
            if abs(total - 1.0) > 1e-6:
                raise ValueError(f"{label} integrates to {total!r}, not 1")

    def likelihood_ratio(self, x):
        return np.asarray(self.density1(x), dtype=float) / np.asarray(
            self.density2(x), dtype=float
        )

    def density(self, theta: int) -> Callable:
        if theta == 1:
            return self.density1
        if theta == 2:
            return self.density2
        raise ValueError(f"theta must be 1 or 2, got {theta}")


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
    runner-up is 0). Outcomes with zero probability under every state are
    only flagged here; using them raises.
    """

    outcomes: tuple[str, ...]
    probs: np.ndarray
    theta_count: int = 2
    batch_builder: Callable[[int], "DiscreteSignalModel"] | None = None

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "outcomes", tuple(str(o) for o in self.outcomes))
        if probs.shape != (self.theta_count, len(self.outcomes)):
            raise ValueError(
                f"probs shape {probs.shape} does not match "
                f"{self.theta_count} states x {len(self.outcomes)} outcomes"
            )
        if len(set(self.outcomes)) != len(self.outcomes):
            raise ValueError("outcome labels must be unique")
        _check_finite(probs=probs)
        if np.any(probs < -1e-15) or np.any(probs > 1 + 1e-15):
            raise ValueError("outcome probabilities outside [0, 1]")
        # a tolerated rounding negative is a zero, not a negative strength
        probs = np.maximum(probs, 0.0)
        object.__setattr__(self, "probs", probs)
        sums = probs.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-12):
            raise ValueError(f"per-state probabilities sum to {sums}, not 1")
        if self.theta_count < 2:
            raise ValueError("a signal model needs at least two states")
        ranked = np.sort(probs, axis=0)
        top, runner = ranked[-1], ranked[-2]
        with np.errstate(divide="ignore", invalid="ignore"):
            strength = np.where(runner == 0, math.inf, top / runner)
        object.__setattr__(
            self, "_index", {label: i for i, label in enumerate(self.outcomes)}
        )
        object.__setattr__(self, "_direction", np.argmax(probs, axis=0) + 1)
        object.__setattr__(self, "_strength", strength)
        object.__setattr__(self, "_null", top <= 0)

    def outcome_index(self, label: str) -> int:
        try:
            return self._index[str(label)]
        except KeyError:
            raise ValueError(f"unknown outcome {label!r}") from None

    def prob(self, label: str, theta: int) -> float:
        return float(self.probs[theta - 1, self.outcome_index(label)])

    def _require_signal(self, idx: int) -> None:
        if self._null[idx]:
            raise ValueError(
                f"outcome {self.outcomes[idx]!r} has zero probability under every state"
            )

    def directions(self, beta: float) -> np.ndarray:
        """Per-outcome direction after censoring at 1 + beta, 0 when censored."""
        _check_beta(beta)
        if self._null.any():
            self._require_signal(int(np.argmax(self._null)))
        return np.where(self._strength >= 1.0 + beta, self._direction, 0)


# ---------------------------------------------------------------------------
# built-in continuous families


def _tilt_norm(t: float) -> float:
    """t / expm1(t): the constant that makes exp(t * x) a density on [0, 1]."""
    try:
        return t / math.expm1(t)
    except OverflowError:
        raise ValueError(f"tilt {t!r} overflows the density's normalizer") from None


def tilt_model(lam: float) -> ContinuousSignalModel:
    """Symmetric exponential-tilt pair on [0, 1].

    density1 is proportional to exp(lam * x) and density2 to exp(-lam * x),
    so the likelihood ratio is exp(lam * (2x - 1)): the uninformative signal
    sits at x = 1/2 and censoring removes a band symmetric around it.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    c_up, c_down = _tilt_norm(lam), _tilt_norm(-lam)

    def density1(x):
        return c_up * np.exp(lam * np.asarray(x, dtype=float))

    def density2(x):
        return c_down * np.exp(-lam * np.asarray(x, dtype=float))

    def sampler(rng, theta, size):
        u = rng.random(size)
        if theta == 1:
            return np.log1p(u * math.expm1(lam)) / lam
        if theta == 2:
            return -np.log1p(u * math.expm1(-lam)) / lam
        raise ValueError(f"theta must be 1 or 2, got {theta}")

    return ContinuousSignalModel(
        density1, density2, name="tilt", params={"lam": lam}, sampler=sampler
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
    if lam <= 0 or spike <= lam:
        raise ValueError("need 0 < lam < spike")
    if not 0.0 < weight < 1.0:
        raise ValueError("weight must lie in (0, 1)")
    c_up, c_down, c_spike = _tilt_norm(lam), _tilt_norm(-lam), _tilt_norm(spike)

    def density1(x):
        x = np.asarray(x, dtype=float)
        return (1.0 - weight) * c_up * np.exp(lam * x) + weight * c_spike * np.exp(
            spike * x
        )

    def density2(x):
        return c_down * np.exp(-lam * np.asarray(x, dtype=float))

    def sampler(rng, theta, size):
        u = rng.random(size)
        if theta == 2:
            return -np.log1p(u * math.expm1(-lam)) / lam
        if theta != 1:
            raise ValueError(f"theta must be 1 or 2, got {theta}")
        pick_spike = rng.random(size) < weight
        base = np.log1p(u * math.expm1(lam)) / lam
        spiked = np.log1p(u * math.expm1(spike)) / spike
        return np.where(pick_spike, spiked, base)

    return ContinuousSignalModel(
        density1,
        density2,
        name="asymmetric_tilt",
        params={"lam": lam, "spike": spike, "weight": weight},
        sampler=sampler,
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
    if isinstance(model, ContinuousSignalModel):
        xf = float(x)
        if not 0.0 <= xf <= 1.0:
            raise ValueError(f"signal {xf!r} outside the support [0, 1]")
        f1 = float(model.density1(xf))
        f2 = float(model.density2(xf))
        if f1 <= 0 and f2 <= 0:
            raise ValueError(f"zero density under both states at x={xf!r}")
        if f1 >= f2:
            return Evidence(1, f1 / f2)
        return Evidence(2, f2 / f1)

    idx = model.outcome_index(x)
    model._require_signal(idx)
    return Evidence(int(model._direction[idx]), float(model._strength[idx]))


# ---------------------------------------------------------------------------
# censoring


def _adaptive_simpson(f, a: float, b: float, tol: float) -> float:
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


def _ratio_boundary(model: ContinuousSignalModel, target: float) -> float:
    """Solve L(x) = target by bisection, clipped to [0, 1]."""
    ratio = model.likelihood_ratio
    if float(ratio(0.0)) >= target:
        return 0.0
    if float(ratio(1.0)) <= target:
        return 1.0
    a, b = 0.0, 1.0
    while b - a > _BOUNDARY_TOL:
        m = 0.5 * (a + b)
        if float(ratio(m)) < target:
            a = m
        else:
            b = m
    return 0.5 * (a + b)


def _direction_mass(model: DiscreteSignalModel, beta: float) -> np.ndarray:
    """Entry [i - 1, theta - 1]: Pr(a signal is processed and points to i | theta).

    Each entry adds its outcomes' probabilities one by one in outcome order
    (a running sum, not numpy's pairwise one).
    """
    dirs = model.directions(beta)
    picked = dirs == np.arange(1, model.theta_count + 1)[:, None]
    terms = np.where(picked[:, None, :], model.probs, 0.0)
    return np.cumsum(terms, axis=2)[:, :, -1]


def censored_transitions(
    model: ContinuousSignalModel | DiscreteSignalModel, beta: float
) -> TransitionKernel:
    """Move probabilities after dropping signals of strength below 1 + beta.

    For continuous models the censored band [x_lo, x_hi] is located by
    bisection on the monotone likelihood ratio (so the integrand kinks are
    never crossed) and each surviving region is integrated adaptively to an
    absolute tolerance of 1e-9. A beta so large that everything is censored
    yields a legal degenerate kernel with stay probability 1.
    """
    _check_beta(beta)
    if isinstance(model, ContinuousSignalModel):
        x_lo = _ratio_boundary(model, 1.0 / (1.0 + beta))
        x_hi = _ratio_boundary(model, 1.0 + beta)
        up, down = [], []
        for theta in (1, 2):
            f = _as_float_fn(model.density(theta))
            q_up = _adaptive_simpson(f, x_hi, 1.0, _QUAD_TOL) if x_hi < 1.0 else 0.0
            q_down = _adaptive_simpson(f, 0.0, x_lo, _QUAD_TOL) if x_lo > 0.0 else 0.0
            up.append(q_up)
            down.append(q_down)
    else:
        if model.theta_count != 2:
            raise ValueError(
                "censored_transitions needs a two-state model; use "
                "censored_direction_matrix for more states"
            )
        mass = _direction_mass(model, beta)
        up, down = mass[0].tolist(), mass[1].tolist()

    stay = []
    for t in range(2):
        q0 = 1.0 - up[t] - down[t]
        if q0 < 0.0:
            # densities are only normalized to 1e-6; absorb the residue
            if q0 < -1e-6:
                raise ValueError(f"move probabilities exceed 1 under theta={t + 1}")
            total = up[t] + down[t]
            up[t] /= total
            down[t] /= total
            q0 = 0.0
        stay.append(q0)
    return TransitionKernel(up=tuple(up), down=tuple(down), stay=tuple(stay))


def censored_direction_matrix(
    model: DiscreteSignalModel, beta: float
) -> np.ndarray:
    """Pr(direction = i | a signal is processed, state theta) as a matrix.

    Entry [i - 1, theta - 1] is the conditional probability that a processed
    signal points to state i when the true state is theta; columns sum to 1.
    Raises FullyCensored when some state processes nothing at all.
    """
    mass = _direction_mass(model, beta)
    totals = mass.sum(axis=0)
    for theta in range(1, model.theta_count + 1):
        if totals[theta - 1] <= 0.0:
            raise FullyCensored(theta, beta)
    return mass / totals


def _processed_shares(q: TransitionKernel) -> tuple[float, float]:
    """(p11, p22) among processed signals; NaN under a silenced state."""
    (up1, down1, _), (up2, down2, _) = q.column(1), q.column(2)
    return (
        up1 / (up1 + down1) if up1 + down1 > 0.0 else math.nan,
        down2 / (up2 + down2) if up2 + down2 > 0.0 else math.nan,
    )


def conditional_dynamics(q: TransitionKernel) -> PVector:
    """Collapse a kernel to the move probabilities conditional on processing."""
    p11, p22 = _processed_shares(q)
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
    if isinstance(partition, Mapping):
        groups = [(str(k), list(v)) for k, v in partition.items()]
    else:
        groups = [("+".join(str(m) for m in g), list(g)) for g in partition]
    seen: list[int] = []
    new_probs = np.zeros((model.theta_count, len(groups)))
    for j, (_, members) in enumerate(groups):
        if not members:
            raise ValueError("empty partition group")
        for m in members:
            idx = model.outcome_index(m)
            if idx in seen:
                raise ValueError(f"outcome {m!r} appears in two groups")
            seen.append(idx)
            new_probs[:, j] += model.probs[:, idx]
    if len(seen) != len(model.outcomes):
        missing = set(range(len(model.outcomes))) - set(seen)
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
    _check_int(J=J)
    if J < 1:
        raise ValueError("J must be a positive integer")
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
    labels = []
    cols = []
    for combo in itertools.product(range(n), repeat=J):
        labels.append("|".join(model.outcomes[i] for i in combo))
        cols.append(model.probs[:, list(combo)].prod(axis=1))
    return DiscreteSignalModel(
        outcomes=tuple(labels),
        probs=np.column_stack(cols),
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
    betas = [float(b) for b in beta_grid]
    if any(b2 < b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError("beta grid must be sorted ascending")
    points = []
    for beta in betas:
        p11, p22 = _processed_shares(censored_transitions(model, beta))
        points.append(CensorPoint(beta, p11, p22, (math.isnan(p11), math.isnan(p22))))
    return points


# ---------------------------------------------------------------------------
# JSON loading

_FAMILIES = {
    "tilt": tilt_model,
    "asymmetric_tilt": asymmetric_tilt_model,
}


def model_from_config(doc: Mapping) -> ContinuousSignalModel | DiscreteSignalModel:
    """Build a model from a JSON-style mapping.

    Continuous: ``{"family": "tilt", "params": {"lam": 1.0}}``.
    Discrete: ``{"theta_count": 2, "outcomes": [...],
    "probs": {"1": [...], "2": [...]}}``.
    """
    if "family" in doc:
        name = doc["family"]
        if name not in _FAMILIES:
            raise ValueError(
                f"unknown family {name!r}; known: {sorted(_FAMILIES)}"
            )
        return _FAMILIES[name](**doc.get("params", {}))
    theta_count = int(doc.get("theta_count", 2))
    outcomes = [str(o) for o in doc["outcomes"]]
    probs = np.array(
        [doc["probs"][str(theta)] for theta in range(1, theta_count + 1)],
        dtype=float,
    )
    return DiscreteSignalModel(
        outcomes=tuple(outcomes), probs=probs, theta_count=theta_count
    )


def load_model(path: str) -> ContinuousSignalModel | DiscreteSignalModel:
    with open(path, encoding="utf-8") as fh:
        return model_from_config(json.load(fh))
