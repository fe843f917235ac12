"""The batched core against the per-cell path it replaced.

``chain._laws`` takes stacks of (up, down, stay) columns, ``welfare._combine``
broadcasts over them, ``beliefs._act_probabilities`` takes stacks of rules,
``signals._columns`` and ``_shares`` take stacks of censored masses, and
``sweep``, ``grid_argmax`` and the props battery evaluate whole stacks of
cells at once. The per-cell path they replaced is kept here as the
reference: the scalar power form and single matrix power of the chain, the
per-row combine, the scalar act step, Bayes parameters and B test, the
per-beta kernel and processed shares, the per-cell sweep metrics and the
per-cell sweep and ``grid_argmax`` loops. The comparisons are bit for bit
(17 significant digits, sign and NaN included, as the CLI prints them),
except where numpy arithmetic rounds apart from the C library that the
scalar path called: the stacks take d**s, log and exp in numpy and only
erfc one Python float at a time. There act rows are within ``_ACT_BOUND`` of the scalar loop and of
their 50-digit values (``exact_reference``).
"""

import math
from dataclasses import replace

import numpy as np
import pytest

import belieflab.welfare as welfare
from belieflab import (
    BayesParams,
    BeliefStrategy,
    PriorModel,
    PVector,
    ProblemSpec,
    TransitionKernel,
    baseline_welfare,
    bayes_params,
    censor_sensitivity,
    censored_transitions,
    conditional_dynamics,
    delta_fixed,
    finite_n_distribution,
    grid_argmax,
    in_B,
    prior_exceed_prob,
    regular_censoring_gain,
    stationary,
    sweep,
    tilt_model,
)
from belieflab.beliefs import _act_probabilities, _bayes_params
from belieflab.chain import _birth_death_table, _laws
from belieflab.signals import _censored_masses, _columns, _shares
from belieflab.welfare import (
    _act,
    _axis_value,
    _censor_response,
    _censoring_gains,
    _combine,
    _fixed_power_gains,
    _in_B,
    _power_rule,
)
from exact_reference import act_miss
from test_perfbench_reference import argmax_problems, workloads

# ---------------------------------------------------------------------------
# the per-cell path, as it stood before the batched core


def _ref_stationary(r, K):
    s = np.arange(-K, K + 1, dtype=float)
    w = r ** (s - K) if r >= 1.0 else abs(r) ** (s + K)
    return w / w.sum()


def _ref_finite_n(q, theta, K, N):
    up, down, stay = q.column(theta)
    table = _birth_death_table(K)  # directions (stay, up, down)
    states = np.arange(table.shape[0])
    P = np.zeros((states.size, states.size))
    for targets, prob in zip(table.T, (stay, up, down)):
        P[states, targets] += prob
    return np.linalg.matrix_power(P, N)[K]


def _ref_laws(q, K, N=None):
    if N is not None:
        return np.array([_ref_finite_n(q, t, K, N) for t in (1, 2)])
    laws = []
    for up, down, _ in (q.column(1), q.column(2)):
        if up + down > 0.0:
            laws.append(_ref_stationary(up / down if down > 0.0 else math.inf, K))
        else:
            laws.append(np.eye(1, 2 * K + 1, K)[0])
    return np.array(laws)


def _ref_combine(weights, phis, act):
    w1, w2 = weights
    return w1 * float(phis[0] @ act) + w2 * float(phis[1] @ (1.0 - act))


def _ref_exceed(prior, t):
    if t == math.inf:
        return 0.0
    if not t > 0.0:
        if t == 0.0:
            return 1.0
        raise ValueError(f"threshold t must be positive, got {t!r}")
    if prior.sigma_log == 0.0:
        return 1.0 if prior.rho >= t else 0.0
    z = (math.log(prior.rho) - math.log(t)) / prior.sigma_log
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _ref_act(prior, d, lam, Gamma, K):
    if not 0.0 < lam < math.inf:
        raise ValueError(f"lam must be positive and finite, got {lam!r}")
    out = np.empty(2 * K + 1)
    for i, s in enumerate(range(-K, K + 1)):
        try:
            shift = 1.0 * lam * d**s
        except OverflowError:
            shift = math.inf
        t = Gamma / shift if shift not in (0.0, math.inf) else (
            math.inf if shift == 0.0 else 0.0
        )
        out[i] = _ref_exceed(prior, t)
    return out


def _ref_spec_act(spec, d, lam=1.0):
    return _ref_act(spec.prior, d, lam, spec.Gamma, spec.K)


def _ref_normalizer(p, K):
    # Z(r) = rho**K z, with rho = max(p, 1 - p) / min(p, 1 - p) either odds' larger side
    rho = max(p, 1.0 - p) / min(p, 1.0 - p)
    return rho, float(np.sum(rho ** np.arange(-2.0 * K, 1.0)))


def _ref_power(x, K):
    # x**K as numpy rounds it in an array row, inf past the float range
    with np.errstate(over="ignore"):
        return float((np.array([x]) ** K)[0])


def _ref_bayes_params(p, K):
    if not p.interior:
        return math.nan, math.nan
    r1, r2 = p.r1, p.r2
    s = np.arange(-K, K + 1, dtype=float)
    with np.errstate(over="ignore"):
        z1, z2 = float(np.sum(r1**s)), float(np.sum(r2**s))
    if math.isfinite(z1) and math.isfinite(z2):
        lam = z2 / z1
    else:
        (rho1, w1), (rho2, w2) = _ref_normalizer(p.p11, K), _ref_normalizer(p.p22, K)
        lam = _ref_power(rho2 / rho1, K) * (w2 / w1)
    return r1 / r2, lam


def _ref_in_B(p, spec):
    if not p.interior:
        raise ValueError("in_B needs interior dynamics")
    d, lam = _ref_bayes_params(p, spec.K)
    scale = spec.rho * lam
    bar = spec.Gamma / scale if scale > 0.0 else math.inf
    return 0.0 < bar < math.inf and d > max(bar, 1.0 / bar)


def _ref_censored_p(p, x):
    return PVector((p.p11 - x) / (1.0 - 2.0 * x), (p.p22 - x) / (1.0 - 2.0 * x))


def _ref_default_step(p):
    return 0.5 * min(p.p11, 1.0 - p.p11, p.p22, 1.0 - p.p22, 0.02)


def _ref_delta_bayes(p, spec, ctx):
    under, _ = baseline_welfare(spec)
    if spec.has_correct_priors:
        phis = _ref_laws(p, spec.K)
        w1, w2 = spec.weights
        return float(np.maximum(w1 * phis[0], w2 * phis[1]).sum()) - under
    if not p.interior:
        raise ValueError("degenerate")
    act = _ref_spec_act(spec, *_ref_bayes_params(p, spec.K))
    return _ref_combine(spec.weights, _ref_laws(p, spec.K), act) - under


def _ref_delta_fixed(p, spec, ctx):
    act = _ref_spec_act(spec, _power_rule(ctx["d"], "delta_fixed").d)
    under, _ = baseline_welfare(spec)
    return _ref_combine(spec.weights, _ref_laws(p, spec.K), act) - under


def _ref_censor_gain(p, spec, ctx):
    act = _ref_spec_act(spec, BeliefStrategy(d=ctx["d"], lam=1.0).d)
    cut_p = _ref_censored_p(p, _ref_default_step(p))
    cut = _ref_combine(spec.weights, _ref_laws(cut_p, spec.K), act)
    return cut - _ref_combine(spec.weights, _ref_laws(p, spec.K), act)


def _ref_finite_n_ratio(p, spec, ctx):
    act = _ref_spec_act(spec, BeliefStrategy(d=ctx["d"], lam=1.0).d)
    full = _ref_combine(spec.weights, _ref_laws(p, spec.K), act)
    partial = _ref_combine(spec.weights, _ref_laws(p, spec.K, ctx["N"]), act)
    under, _ = baseline_welfare(spec)
    if under == 0.0:
        raise ValueError("zero baseline")
    return (full - partial) / under


def _ref_lambda_bar(p, spec, ctx):
    if not p.interior:
        raise ValueError("not interior")
    (rho1, z1), (rho2, z2) = _ref_normalizer(p.p11, spec.K), _ref_normalizer(p.p22, spec.K)
    value = _ref_power(rho2 * (p.r1 / p.r2) / rho1, spec.K) * (z2 / z1)
    if not value < math.inf:
        raise ValueError("overflow")
    return value


_REFERENCE = {
    "delta_bayes": _ref_delta_bayes,
    "delta_fixed": _ref_delta_fixed,
    "censor_gain": _ref_censor_gain,
    "finite_n_ratio": _ref_finite_n_ratio,
    "lambda_bar": _ref_lambda_bar,
    "in_B": lambda p, spec, ctx: 1.0 if _ref_in_B(p, spec) else 0.0,
    "regularity": lambda p, spec, ctx: 1.0 if p.p11 > 0.5 and p.p22 > 0.5 else 0.0,
}


def _ref_dynamics(ctx, model, kernels):
    beta = ctx["beta"]
    if beta is not None:
        if beta not in kernels:
            kernels[beta] = censored_transitions(model, beta)
        return conditional_dynamics(kernels[beta])
    if ctx["p11"] is None or ctx["p22"] is None:
        raise ValueError("sweep needs p11 and p22 (as axes or fixed values)")
    return PVector(p11=ctx["p11"], p22=ctx["p22"])


def _ref_sweep(metric, x, x_values, y, y_values, *, p11=None, p22=None, pi=0.5,
               gamma=0.6, sigma_log=0.0, rho=None, K=2, d=3.0, N=10, beta=None,
               model=None):
    base = {
        "p11": p11, "p22": p22, "gamma": gamma, "K": _axis_value("K", K), "d": d,
        "N": N, "beta": None if beta is None else _axis_value("beta", beta),
    }
    spec = ProblemSpec.noisy_priors(pi, gamma, base["K"], sigma_log, rho)
    kernels, rows = {}, []
    for yv in [_axis_value(y, v) for v in y_values]:
        for xv in [_axis_value(x, v) for v in x_values]:
            ctx = dict(base)
            ctx[x], ctx[y] = xv, yv
            cell_spec = replace(spec, gamma=ctx["gamma"], K=ctx["K"])
            row = {x: xv, y: yv}
            try:
                p = _ref_dynamics(ctx, model, kernels)
                row["value"] = float(_REFERENCE[metric](p, cell_spec, ctx))
                row["regular"] = 1.0 if p.p11 > 0.5 and p.p22 > 0.5 else 0.0
            except ValueError:
                row["value"] = row["regular"] = math.nan
            rows.append(row)
    return rows


def _ref_kernel(mass):
    """The kernel of one beta's ``_censored_masses``."""
    up, down = mass.tolist()
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


def _ref_shares(q):
    (up1, down1, _), (up2, down2, _) = q.column(1), q.column(2)
    return (
        up1 / (up1 + down1) if up1 + down1 > 0.0 else math.nan,
        down2 / (up2 + down2) if up2 + down2 > 0.0 else math.nan,
    )


def _ref_grid_argmax(problems, beta_grid, d_grid, lam=1.0):
    """(beta, d, value) per cell, row-major, one combine per (problem, beta, d)."""
    probs = [(m, s, float(w)) for m, s, w in problems]
    total = sum(w for _, _, w in probs)
    ds = [BeliefStrategy(d=float(d), lam=lam).d for d in d_grid]
    acts = [_act_probabilities(s.prior, ds, lam, s.Gamma, s.K) for _, s, _ in probs]
    betas = [float(beta) for beta in beta_grid]
    laws = [
        [_laws(_ref_kernel(mass), spec.K) for mass in _censored_masses(model, betas)]
        for model, spec, _ in probs
    ]
    table = []
    for i, beta in enumerate(betas):
        for j, d in enumerate(ds):
            terms = zip(probs, laws, acts)
            value = sum(
                w * float(_combine(s.weights, ph[i], a[j])) for (_, s, w), ph, a in terms
            ) / total
            table.append((beta, d, value))
    return table


def _printed(rows):
    return [{k: format(v, ".17g") for k, v in row.items()} for row in rows]


# ---------------------------------------------------------------------------
# chain: stacked laws


def _random_columns(rng, M):
    """M cells of (up, down, stay) columns, with stay mass, one-sided and
    silenced columns mixed in."""
    cols = rng.dirichlet(np.ones(3), size=(M, 2))
    cols[::7, 0] = [0.6, 0.0, 0.4]  # never moves down: r = inf
    cols[::11, 1] = [0.0, 0.7, 0.3]  # never moves up: r = 0
    cols[::13, 1] = [0.0, 0.0, 1.0]  # silenced
    cols[::17, 0] = [0.5, 0.5, 0.0]  # r = 1
    return cols


def _kernel(cell):
    return TransitionKernel(*zip(*cell))


class TestStackedLaws:
    @pytest.mark.parametrize("K", [1, 2, 3, 5, 8])
    def test_long_run_stack_matches_the_scalar_power_form(self, K):
        cols = _random_columns(np.random.default_rng(K), 150)
        stack = _laws(cols, K)
        assert stack.shape == (150, 2, 2 * K + 1)
        for cell, laws in zip(cols, stack):
            np.testing.assert_array_equal(laws, _ref_laws(_kernel(cell), K))

    @pytest.mark.parametrize("K, N", [(1, 0), (1, 5), (2, 1), (2, 3), (3, 40), (4, 250)])
    def test_finite_n_stack_crosses_block_boundaries(self, K, N):
        # 150 cells are 300 matrices: blocks of 128, 128 and 44
        cols = _random_columns(np.random.default_rng(100 + K), 150)
        stack = _laws(cols, K, N)
        assert stack.shape == (150, 2, 2 * K + 1)
        for cell, laws in zip(cols, stack):
            np.testing.assert_array_equal(laws, _ref_laws(_kernel(cell), K, N))

    def test_extra_leading_axes_keep_their_shape(self):
        cols = _random_columns(np.random.default_rng(7), 24).reshape(4, 6, 2, 3)
        np.testing.assert_array_equal(
            _laws(cols, 3, 9).reshape(24, 2, 7), _laws(cols.reshape(24, 2, 3), 3, 9)
        )

    @pytest.mark.parametrize("K", range(1, 8))
    def test_stationary_reads_the_same_power_form(self, K):
        rng = np.random.default_rng(K)
        rs = [0.0, -0.0, math.inf, 1.0, 1e300, 1e-300, *np.exp(rng.uniform(-50, 50, 200))]
        for r in rs:
            np.testing.assert_array_equal(stationary(float(r), K), _ref_stationary(r, K))

    @pytest.mark.parametrize("K", [1, 3, 6])
    def test_finite_n_distribution_is_the_single_matrix_power(self, K):
        rng = np.random.default_rng(K)
        for cell in _random_columns(rng, 20):
            q = _kernel(cell)
            for N in (0, 1, 2, 17, 1000):
                for theta in (1, 2):
                    np.testing.assert_array_equal(
                        finite_n_distribution(q, theta, K, N), _ref_finite_n(q, theta, K, N)
                    )


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


# ---------------------------------------------------------------------------
# the act step

_ACT_BOUND = 4.44e-16  # two ulp of 1, absolute
_PRIORS = [PriorModel(1.0), PriorModel(2.5), PriorModel(1.0, 0.5), PriorModel(0.3, 1.7)]


def _stack(rng, M):
    """M (d, lam, Gamma) entries: powers up to 1e200 (the shift overflows),
    lam near underflow, Gamma 0 and inf, and exact ties."""
    d = np.exp(rng.uniform(-3.0, 4.0, M))
    lam = np.exp(rng.uniform(-3.0, 3.0, M))
    Gamma = np.exp(rng.uniform(-4.0, 4.0, M))
    d[::9], d[1::9], d[2::9] = 1e200, 1e100, 1.0
    lam[::7], lam[1::7], lam[2::7] = 5e-324, 1e-300, 2.0**-1074 * 3
    Gamma[::5], Gamma[1::5] = 0.0, math.inf
    d[3::11], lam[3::11], Gamma[3::11] = 2.0, 1.0, 1.0  # gamma = 0.5, d = 2: tie at s = 0
    d[4::11], lam[4::11], Gamma[4::11] = 2.0, 0.5, 4.0  # tie at s = 3
    return d, lam, Gamma


@pytest.mark.parametrize("prior", _PRIORS, ids=lambda p: f"rho{p.rho}-sigma{p.sigma_log}")
@pytest.mark.parametrize("K", [1, 2, 3, 7, 40])
def test_stacked_act_step_matches_the_scalar_loop(prior, K):
    rng = np.random.default_rng(K)
    d, lam, Gamma = _stack(rng, 300)
    rows = _act_probabilities(prior, d, lam, Gamma, K)
    assert rows.shape == (300, 2 * K + 1)
    entries = zip(d.tolist(), lam.tolist(), Gamma.tolist())
    ref = np.array([_ref_act(prior, *entry, K) for entry in entries])
    if K == 1 or prior.sigma_log == 0.0:  # numpy and the C library agree here
        np.testing.assert_array_equal(_bits(rows), _bits(ref))
    assert np.abs(rows - ref).max() <= _ACT_BOUND
    assert act_miss(rows, prior, d, lam, Gamma) <= _ACT_BOUND


def test_act_step_takes_log_where_numpy_and_the_c_library_differ():
    # with d = 1 and lam = 1 the threshold is Gamma itself; numpy's own log
    # rounds differently from math.log on some builds, at about 1 in 10,000,
    # and both stay within the bound of the exact value
    ts = np.exp(np.random.default_rng(9).uniform(-20.0, 20.0, 200_000))
    differ = ts[np.log(ts) != np.array([math.log(t) for t in ts.tolist()])]
    Gamma = np.concatenate([differ, ts[:50]])
    for prior in _PRIORS[2:]:  # sigma > 0: the log is taken
        rows = _act_probabilities(prior, 1.0, 1.0, Gamma, 1)
        ref = np.array([_ref_act(prior, 1.0, 1.0, G, 1) for G in Gamma.tolist()])
        assert np.abs(rows - ref).max() <= _ACT_BOUND
        assert act_miss(rows, prior, 1.0, 1.0, Gamma) <= _ACT_BOUND


def test_stacked_act_step_broadcasts_and_one_entry_is_one_row():
    prior, K = PriorModel(1.0, 0.5), 3
    d, lam, Gamma = np.array([1.5, 3.0, 1e200]), np.array([[0.5], [2.0]]), 0.7
    rows = _act_probabilities(prior, d, lam, Gamma, K)
    assert rows.shape == (2, 3, 2 * K + 1)
    for i in range(2):
        for j in range(3):
            one = _act_probabilities(prior, d[j], lam[i, 0], Gamma, K)
            assert one.shape == (2 * K + 1,)
            np.testing.assert_array_equal(_bits(rows[i, j]), _bits(one))


def test_tie_at_gamma_one_half_and_d_two_acts():
    # Gamma = 1 and d = 2: at s = 0 the posterior equals the stakes exactly
    spec = ProblemSpec.correct_priors(0.5, 0.5, 2)
    act = _act(spec, BeliefStrategy(2.0))
    np.testing.assert_array_equal(act, [0.0, 0.0, 1.0, 1.0, 1.0])
    np.testing.assert_array_equal(act, _ref_act(spec.prior, 2.0, 1.0, spec.Gamma, 2))


@pytest.mark.parametrize("lam", [0.0, math.inf, math.nan])
def test_act_step_refuses_a_lam_without_a_rule(lam):
    # the act step checks the rule at entry, so no such lam reaches the act row
    spec = ProblemSpec.correct_priors(0.5, 0.5, 2)
    message = rf"^lam must be a real number in \(0, inf\), got {lam}$"
    with pytest.raises(ValueError, match=message):
        _act(spec, BayesParams(2.0, lam))


def test_prior_exceed_prob_matches_the_scalar_form():
    rng = np.random.default_rng(5)
    ts = [0.0, math.inf, 5e-324, 1e308, 1.0, *np.exp(rng.uniform(-30, 30, 200))]
    for prior in _PRIORS:
        for t in ts:
            assert _bits(prior_exceed_prob(prior, float(t))) == _bits(_ref_exceed(prior, float(t)))
    for t in (-1.0, math.nan):
        with pytest.raises(ValueError, match=rf"^t must be a real number in \[0, inf\], got {t}$"):
            prior_exceed_prob(_PRIORS[0], t)


# ---------------------------------------------------------------------------
# Bayes parameters and the set B


def _p_grid(rng, M):
    p = rng.uniform(0.0, 1.0, size=(M, 2))
    p[::13] = [0.999999, 1e-6]
    p[1::13] = [1e-7, 0.9999999]
    p[2::13] = [0.0, 0.5]  # not interior
    p[3::13] = [0.5, 1.0]
    return p


@pytest.mark.parametrize("K", [1, 2, 5, 60, 200, 300])
def test_array_bayes_params_match_the_scalar_form(K):
    # d and lam are bit for bit, past the float range included
    p = _p_grid(np.random.default_rng(K), 400)
    d, lam = _bayes_params(p[:, 0], p[:, 1], K)
    branches = set()
    for i, (p11, p22) in enumerate(p.tolist()):
        ref = _ref_bayes_params(PVector(p11, p22), K)
        params = bayes_params(PVector(p11, p22), K)
        assert _bits(d[i]) == _bits(params.d) == _bits(ref[0])
        assert _bits(lam[i]) == _bits(params.lam) == _bits(ref[1])
        branches.add("normal" if 0.0 < ref[1] < math.inf else "past the float range")
    if K >= 200:  # the normalizer branch, out to lam = 0 and inf
        assert branches == {"normal", "past the float range"}


@pytest.mark.parametrize("K", [2, 200, 300])
def test_array_in_B_matches_the_scalar_form(K):
    rng = np.random.default_rng(K + 1)
    p = rng.uniform(0.01, 0.99, size=(300, 2))
    gammas = np.array([0.0, 0.2, 0.5, 0.6, 0.9, 1.0])
    for sigma_log in (0.0, 0.5):
        specs = [ProblemSpec.noisy_priors(0.4, float(g), K, sigma_log) for g in gammas]
        Gamma = np.array([s.Gamma for s in specs])
        got = _in_B(p[:, 0, None], p[:, 1, None], specs[0].rho, Gamma, K)
        assert got.shape == (300, gammas.size)
        for i, (p11, p22) in enumerate(p.tolist()):
            for j, spec in enumerate(specs):
                ref = _ref_in_B(PVector(p11, p22), spec)
                assert got[i, j] == ref == in_B(PVector(p11, p22), spec)


# ---------------------------------------------------------------------------
# censoring responses: the scalar is one row of the arrays


@pytest.mark.parametrize("K", [2, 217])
def test_censor_sensitivity_is_one_row_of_the_arrays(K):
    p = np.random.default_rng(K).uniform(0.0, 1.0, size=(3000, 2))
    p[::97] = [0.5, 1e-310]  # odds past the float range
    p[1::97] = [1e-310, 0.5]  # a response past the float range
    fields = (
        "dp11", "dp22", "dd1", "dd2", "ddp", "d_p", "lam", "lambda_bar", "dlam", "dlambar"
    )
    response = _censor_response(*p.T, K)
    rows = np.stack([getattr(response, f) for f in fields], axis=-1)
    raised = 0
    for (p11, p22), row in zip(p.tolist(), rows):
        try:
            sens = censor_sensitivity(PVector(p11, p22), K)
        except ValueError:
            raised += 1
            assert not np.isfinite(row).all()
            continue
        np.testing.assert_array_equal(_bits([getattr(sens, f) for f in fields]), _bits(row))
    assert raised >= 2 * 31  # every planted p, and at K = 217 lambda_bar overflows too


# ---------------------------------------------------------------------------
# welfare: broadcast combine


def test_broadcast_combine_matches_the_per_row_dot():
    rng = np.random.default_rng(11)
    for n in range(3, 26, 2):
        phis = rng.dirichlet(np.ones(n), size=(300, 2))
        acts = rng.uniform(size=(300, n))
        weights = rng.uniform(size=(2, 300))
        got = _combine(weights, phis, acts)
        for i in range(300):
            assert got[i] == _ref_combine(weights[:, i], phis[i], acts[i])


# ---------------------------------------------------------------------------
# signal: the columns and shares of the censoring home's masses


def _random_masses(rng, M):
    """M betas' masses [b, i - 1, theta - 1], with zero moves, silenced states,
    residues in [-1e-6, 0) and an exact total of 1 mixed in."""
    masses = rng.dirichlet(np.ones(3), size=(M, 2))[..., :2].transpose(0, 2, 1)
    masses[::5, 0, 0] = 0.0  # never up under theta = 1
    masses[::7, 1, 1] = 0.0  # never down under theta = 2
    masses[::9, :, 0] = 0.0  # silenced under theta = 1
    moved = masses[1::4, :, 1]  # a view: theta = 2 moves a total just over 1
    moved *= (1.0 + rng.uniform(0.0, 9.9e-7, (len(moved), 1))) / moved.sum(1, keepdims=True)
    masses[2::6, :, 0] = [0.25, 0.75]  # stay exactly 0
    return masses


def test_columns_are_the_per_beta_kernels():
    masses = _random_masses(np.random.default_rng(5), 400)
    stay = 1.0 - masses[:, 0] - masses[:, 1]
    assert ((-1e-6 <= stay) & (stay < 0.0)).sum() > 50  # the residue rule runs
    cols = _columns(masses)
    assert cols.shape == (400, 2, 3)
    for mass, col in zip(masses, cols):
        q = _ref_kernel(mass)
        assert _bits(col).tolist() == _bits([q.column(1), q.column(2)]).tolist()
    assert _columns(masses[:0]).shape == (0, 2, 3)


@pytest.mark.parametrize("excess", [1.1e-6, 1e-3, math.inf, math.nan])
def test_columns_refuse_an_excess_beyond_the_residue(excess):
    masses = _random_masses(np.random.default_rng(6), 6)
    masses[4, :, 1] *= (1.0 + excess) / masses[4, :, 1].sum()
    with pytest.raises(ValueError):  # a NaN fails the kernel's finiteness check
        _ref_kernel(masses[4])
    with pytest.raises(ValueError, match="theta=2"):
        _columns(masses)


def test_shares_are_the_per_kernel_shares():
    cols = _random_columns(np.random.default_rng(8), 300)
    shares = _shares(cols)
    assert np.isnan(shares).any()  # silenced columns
    for col, share in zip(cols, shares):
        assert _bits(share).tolist() == _bits(_ref_shares(_kernel(col))).tolist()


# ---------------------------------------------------------------------------
# welfare: grid_argmax on one stack per problem


@pytest.mark.parametrize("name", sorted(workloads.ARGMAX_PROBLEMS))
def test_grid_argmax_matches_the_per_cell_loop(name):
    problems = argmax_problems(name)
    for betas, ds in (
        ([0.0, 0.1, 0.35, 0.5, 1.0, 3.0], [1.0, 1.5, 2.0, 3.0, 5.0]),
        ([0.2], [2.5]),
    ):
        got = grid_argmax(problems, betas, ds)
        table = [(r["beta"], r["d"], r["value"]) for r in got.table]
        assert _bits(table).tolist() == _bits(_ref_grid_argmax(problems, betas, ds)).tolist()
        best = max(table, key=lambda row: row[2])
        assert (got.beta, got.d, got.value) == best


def test_grid_argmax_takes_one_law_stack_per_problem(monkeypatch):
    calls = []
    real = welfare._laws

    def counted(cols, K, N=None):
        calls.append(np.shape(cols))
        return real(cols, K, N)

    monkeypatch.setattr(welfare, "_laws", counted)
    problems = argmax_problems("tilt+asym+lunar+coin")
    grid_argmax(problems, [0.0, 0.25, 0.5], [1.5, 2.0, 3.0, 6.0])
    assert calls == [(3, 2, 3)] * len(problems)


# ---------------------------------------------------------------------------
# sweep: every metric against the per-cell loop

_EDGE_P = [-0.1, 0.0, 0.02, 0.3, 0.5, 0.8, 0.995, 1.0, 1.2]
_GRIDS = {
    "p-grid": dict(x="p11", x_values=_EDGE_P, y="p22", y_values=[0.0, 0.2, 0.5, 0.7, 1.0]),
    "p-grid-noisy": dict(
        x="p11", x_values=_EDGE_P, y="p22", y_values=[0.0, 0.4, 0.9, 1.0], sigma_log=0.5
    ),
    "d-by-gamma": dict(
        x="d", x_values=[0.5, 1.0, 1.5, 3.0, 20.0], y="gamma",
        y_values=[0.0, 0.3, 0.6, 1.0], p11=0.8, p22=0.3, sigma_log=0.5,
    ),
    "d-by-p22-correct": dict(
        x="d", x_values=[0.5, 1.0, 2.0, 7.0], y="p22", y_values=[0.0, 0.35, 0.9, 1.0],
        p11=0.7, gamma=0.45,
    ),
    "K-by-p22": dict(
        x="p22", x_values=[0.0, 0.1, 0.6, 0.99, 1.0], y="K", y_values=[1, 2.0, 3, 5],
        p11=0.7, N=7,
    ),
    "K-by-gamma-noisy": dict(
        x="gamma", x_values=[0.0, 0.25, 0.7, 1.0], y="K", y_values=[1, 4], p11=0.85,
        p22=0.35, sigma_log=1.0, pi=0.3, N=3,
    ),
    "wrong-prior": dict(
        x="p11", x_values=[0.1, 0.6, 0.9], y="p22", y_values=[0.2, 0.8], rho=3.0
    ),
    "zero-baseline": dict(
        x="p11", x_values=[0.2, 0.9], y="p22", y_values=[0.3, 0.7], pi=5e-324,
        gamma=0.5, rho=2.0,
    ),
    "lam-overflow": dict(
        x="p22", x_values=[0.02, 0.6, 0.98, 0.999], y="K", y_values=[200, 300],
        p11=0.45, sigma_log=0.5, N=2,
    ),
    "beta-axis-tilt": dict(
        x="beta", x_values=[0.0, 0.3, 0.8, 2.0], y="d", y_values=[1.0, 2.0, 5.0],
        model=tilt_model(1.0), sigma_log=0.5,
    ),
    "beta-by-gamma-tilt": dict(
        x="beta", x_values=[0.0, 0.5, 1.0], y="gamma", y_values=[0.1, 0.6, 0.9],
        model=tilt_model(2.0),
    ),
}


@pytest.mark.parametrize("grid", sorted(_GRIDS))
@pytest.mark.parametrize("metric", sorted(_REFERENCE))
def test_sweep_matches_the_per_cell_path(metric, grid):
    kwargs = dict(_GRIDS[grid])
    got = sweep(metric, **kwargs)
    assert _printed(got) == _printed(_ref_sweep(metric, **kwargs))


def test_the_grids_reach_every_undefined_cell_kind():
    """The sweep grids above hold NaN cells of every kind the metrics have."""
    nan_cells = {
        (metric, grid): sum(math.isnan(r["value"]) for r in sweep(metric, **_GRIDS[grid]))
        for metric in _REFERENCE
        for grid in _GRIDS
    }
    assert nan_cells["delta_fixed", "d-by-gamma"] == 2 * 4  # d <= 1
    assert nan_cells["censor_gain", "d-by-gamma"] == 4  # d < 1
    assert nan_cells["finite_n_ratio", "zero-baseline"] == 4
    assert nan_cells["delta_bayes", "lam-overflow"] > 0  # a Bayes lam of 0 or inf
    assert nan_cells["lambda_bar", "lam-overflow"] > 0  # past the float range
    assert nan_cells["in_B", "p-grid"] > nan_cells["regularity", "p-grid"]  # boundary p
    assert nan_cells["regularity", "beta-axis-tilt"] == 3  # fully censored


def test_sweep_takes_laws_on_the_dynamics_axes_and_acts_on_the_others(monkeypatch):
    calls = []
    real_laws, real_acts = welfare._p_laws, welfare._act_probabilities

    def laws(p11, p22, K, N=None):
        calls.append(("laws", np.broadcast_shapes(np.shape(p11), np.shape(p22))))
        return real_laws(p11, p22, K, N)

    def acts(prior, d, lam, Gamma, K):
        calls.append(("acts", np.broadcast_shapes(*map(np.shape, (d, lam, Gamma)))))
        return real_acts(prior, d, lam, Gamma, K)

    monkeypatch.setattr(welfare, "_p_laws", laws)
    monkeypatch.setattr(welfare, "_act_probabilities", acts)
    sweep("delta_fixed", "gamma", [0.2, 0.5, 0.7], "d", [2.0, 4.0], p11=0.8, p22=0.3)
    assert calls == [("laws", (1, 1)), ("acts", (2, 3))]
    calls.clear()
    sweep("delta_fixed", "p11", [0.6, 0.7, 0.9], "p22", [0.3, 0.8])
    assert calls == [("laws", (2, 3)), ("acts", (1, 1))]


# ---------------------------------------------------------------------------
# props battery: the regular-censoring stack


@pytest.mark.parametrize("K", [2, 3, 5])
def test_battery_gains_match_regular_censoring_gain_cell_by_cell(K):
    grid = np.linspace(0.52, 0.98, 21)
    spec = ProblemSpec.correct_priors(0.5, 0.6, K)
    gains = _censoring_gains(grid[:, None], grid, spec)
    assert gains.shape == (21, 21, 2 * K)
    for i, p11 in enumerate(grid):
        for j, p22 in enumerate(grid):
            p = PVector(float(p11), float(p22))
            cut_laws = _ref_laws(_ref_censored_p(p, _ref_default_step(p)), K)
            laws = _ref_laws(p, K)
            for k in range(1 - K, K + 1):
                gain = gains[i, j, k + K - 1]
                assert gain == regular_censoring_gain(p, spec, k)
                act = (np.arange(-K, K + 1) >= k).astype(float)
                ref = _ref_combine(spec.weights, cut_laws, act)
                ref -= _ref_combine(spec.weights, laws, act)
                assert gain == ref


@pytest.mark.parametrize("K", [2, 3, 5])
def test_battery_fixed_power_gains_match_delta_fixed_cell_by_cell(K):
    grid, ds = np.linspace(0.02, 0.98, 21), (1.5, 3.0, 10.0)
    specs = [ProblemSpec.noisy_priors(0.5, float(gamma), K) for gamma in grid[::4]]
    gains = _fixed_power_gains(0.8, grid, specs, ds)
    assert gains.shape == (21, len(specs), 3)
    for i, p22 in enumerate(grid):
        for j, spec in enumerate(specs):
            for k, d in enumerate(ds):
                ref = delta_fixed(PVector(0.8, float(p22)), spec, d).decomposed
                assert _bits(gains[i, j, k]) == _bits(ref)


def test_battery_gains_keep_the_scalar_checks():
    spec = ProblemSpec.correct_priors(0.5, 0.6, 2)
    with pytest.raises(ValueError, match="not regular"):
        _censoring_gains(np.array([0.6, 0.5]), np.array([0.7, 0.7]), spec)
    with pytest.raises(ValueError, match="must be positive"):
        _censoring_gains(np.array([0.6, 1.0]), np.array([0.7, 0.7]), spec)
    with pytest.raises(ValueError, match="out of"):
        _censoring_gains(np.array([0.6, 0.7]), 0.7, spec, x=np.array([0.1, 0.4]))
