import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import CRIT, K_STAR_SUPER, SUPER, alarm
from scipy.integrate import OdeSolution

from selfsim import integrator
from selfsim import profile as profile_module
from selfsim.params import DomainError, ModelParams, alpha_beta_from_k
from selfsim.profile import (
    DENSE_SLICE,
    FIT_WINDOW,
    InterfaceType,
    ReconstructionError,
    evaluate_f,
    fit_interface,
    ode_residual,
    reconstruct,
    rescale,
)
from selfsim.solution import evaluate_u, make_solution

#: K* of (3, 1/2, 3) and of (5, 0.9, 3), bisected with find_k_star
K_STAR_M3 = 8.344726
K_STAR_M5 = 14.631461298134003
#: K* of (5, 3/4, 1) and of (5, 0.9, 4), bisected with find_k_star at tol 1e-6
K_STAR_M5_P75_N1 = 7.488502009423945
K_STAR_M5_N4 = 18.63344041872509


def test_reconstruct_reports_a_failed_bulk_run(monkeypatch):
    def failed(*args, **kwargs):
        return SimpleNamespace(status=-1, message="step size too small")

    monkeypatch.setattr(profile_module, "solve_ivp", failed)
    with pytest.raises(ReconstructionError,
                       match="^bulk run at K = 0.5 failed: "
                             "step size too small$"):
        reconstruct(SUPER, 0.5)


@pytest.fixture(scope="module")
def prof_fig3a():
    return reconstruct(SUPER, 0.1)


@pytest.fixture(scope="module")
def prof_mid():
    return reconstruct(SUPER, K_STAR_SUPER)


def test_profile_starts_at_one(prof_fig3a):
    assert evaluate_f(prof_fig3a, 0.0) == pytest.approx(1.0)
    # initially increasing
    assert prof_fig3a.f[1] > prof_fig3a.f[0] > 1.0


def test_profile_has_interface(prof_fig3a):
    assert prof_fig3a.xi0 is not None
    assert prof_fig3a.xi0 > prof_fig3a.xi[-1]
    assert np.all(np.diff(prof_fig3a.xi) > 0.0)
    assert np.all(prof_fig3a.f > 0.0)


def test_profile_decreasing_near_interface(prof_fig3a):
    tail = prof_fig3a.f[prof_fig3a.xi > 0.9 * prof_fig3a.xi0]
    assert len(tail) > 10
    assert np.all(np.diff(tail) < 0.0)


def test_interface_type_ii_below_transition(prof_fig3a):
    fit = fit_interface(prof_fig3a)
    assert fit.type_label is InterfaceType.TYPE_II
    assert fit.exponent == pytest.approx(2.0, rel=0.1)


def test_interface_type_i_at_transition(prof_mid):
    # K_STAR_M3 is 2.8e-7 below K*: the tail's eta has converged along the
    # Q4 ray before the orbit leaves it for Q1, so the profile ends at the
    # type I interface, short of the neck a near-K* orbit has
    m3 = reconstruct(ModelParams(3.0, 0.5, 3), K_STAR_M3)
    for prof, target in ((prof_mid, 1.0), (m3, 0.5)):
        fit = fit_interface(prof)
        assert fit.type_label is InterfaceType.TYPE_I
        assert fit.exponent == pytest.approx(target, rel=0.15)


def test_sign_change_exponent_above_transition():
    # the (5, 0.9, 3) tail is steep: f falls like (xi0 - xi)^(1/5)
    for params, K in ((SUPER, 4.0 * K_STAR_SUPER),
                      (ModelParams(5.0, 0.9, 3), 4.0 * K_STAR_M5)):
        fit = fit_interface(reconstruct(params, K))
        assert fit.type_label is InterfaceType.SIGN_CHANGE
        assert fit.exponent == pytest.approx(1.0 / params.m, rel=0.1)


def test_sign_change_profile_is_two_lsoda_runs():
    prof = reconstruct(SUPER, 4.0 * K_STAR_SUPER)
    bulk, tail = prof.stats
    assert (bulk.method, tail.method) == ("LSODA", "LSODA")
    # the bulk ends on its hand-off event, the tail once eta has converged
    assert (bulk.status, tail.status) == (1, 1)
    assert bulk.steps > 0 and tail.steps > 0
    # the scaled residual of the benchmark's profile workload, on its stride
    worst = max(
        ode_residual(prof, i) / max(1.0, abs(prof.alpha * prof.f[i]))
        for i in range(1, len(prof.xi) - 1, 97)
        if prof.xi[1] < prof.xi[i] < 0.99 * prof.xi0
    )
    assert worst < 1e-5


@pytest.mark.parametrize("params, k_star", [
    (ModelParams(5.0, 0.75, 1), K_STAR_M5_P75_N1),
    (ModelParams(5.0, 0.9, 3), K_STAR_M5),
    (ModelParams(5.0, 0.9, 4), K_STAR_M5_N4),
    # K*/4 = 1.8713153960118027 from the K* an earlier bisection gave
    (ModelParams(5.0, 0.75, 1), 4.0 * 1.8713153960118027),
])
def test_slow_type_ii_tails_reach_their_interface(params, k_star):
    # these tails once crawled near f = 1e-8 for minutes; an alarm turns a
    # regression into a failure instead of a hang
    with alarm(30):
        prof = reconstruct(params, k_star / 4.0)
    assert math.isfinite(prof.xi0) and prof.xi0 > prof.xi[-1]
    # samples 1e-3 xi0 short of xi0 lie past the tail run, on its type II
    # closed form; closer in, rounding xi costs f more than 1e-9
    near = np.flatnonzero(prof.xi < 0.999 * prof.xi0)[-20:]
    assert np.allclose(evaluate_f(prof, prof.xi[near]), prof.f[near],
                       rtol=1e-9, atol=0.0)
    fit = fit_interface(prof)
    if fit.type_label is InterfaceType.TYPE_II:
        target = 1.0 / (1.0 - params.p)
        assert abs(fit.exponent - target) < FIT_WINDOW * target


def test_critical_profile_single_interface_type():
    prof = reconstruct(CRIT, 0.03)
    fit = fit_interface(prof)
    # types coincide at m + p = 2: 1/(m-1) = 1/(1-p) = 2
    assert fit.exponent == pytest.approx(2.0, rel=0.1)


def test_ode_residual_interior(prof_fig3a):
    prof = prof_fig3a
    worst = 0.0
    for i in range(1, len(prof.xi) - 1, 199):
        if not prof.xi[1] < prof.xi[i] < 0.99 * prof.xi0:
            continue
        scale = max(1.0, abs(prof.alpha * prof.f[i]))
        worst = max(worst, ode_residual(prof, i) / scale)
    assert worst < 1e-6


def _two_solve_residual(prof, i):
    """The ODE residual with f^m and f each fitted by its own solve."""
    params = prof.params
    half = 2 if 2 <= i <= len(prof.xi) - 3 else 1
    x, f = prof.xi[i - half:i + half + 1], prof.f[i - half:i + half + 1]
    A = np.vander(x - prof.xi[i], increasing=True)
    w, g = np.linalg.solve(A, f**params.m), np.linalg.solve(A, f)
    x1, f1 = prof.xi[i], prof.f[i]
    return abs(2.0 * w[2] + (params.N - 1.0) / x1 * w[1] - prof.alpha * f1
               + prof.beta * x1 * g[1] + x1**params.sigma * f1**params.p)


@pytest.mark.parametrize("params, K", [
    (SUPER, 0.5 * K_STAR_SUPER), (SUPER, K_STAR_SUPER),
    (SUPER, 4.0 * K_STAR_SUPER), (SUPER, 0.3),
    (ModelParams(3.0, 0.5, 3), K_STAR_M3),
    (ModelParams(3.0, 0.5, 3), 4.0 * K_STAR_M3),
    (ModelParams(5.0, 0.9, 3), 26.33),
])
def test_ode_residual_matches_two_solves(params, K):
    # one solve with two right-hand sides rounds differently from two
    # solves; on the benchmark's stride the two stay within 1e-7, scaled,
    # against residuals up to 1.4e-6 and the benchmark's bound of 1e-5
    prof = reconstruct(params, K)
    for i in range(1, len(prof.xi) - 1, 97):
        if prof.xi[1] < prof.xi[i] < 0.99 * prof.xi0:
            scale = max(1.0, abs(prof.alpha * prof.f[i]))
            got, want = ode_residual(prof, i), _two_solve_residual(prof, i)
            assert abs(got - want) <= 1e-7 * scale


def test_ode_residual_index_bounds(prof_fig3a):
    with pytest.raises(DomainError):
        ode_residual(prof_fig3a, 0)
    with pytest.raises(DomainError):
        ode_residual(prof_fig3a, len(prof_fig3a.xi) - 1)


@pytest.mark.parametrize("index", [True, 1.5, np.float64(2.0)])
def test_ode_residual_index_must_be_an_integer(prof_fig3a, index):
    # True once raised a broadcast ValueError, 1.5 an IndexError
    with pytest.raises(DomainError, match=r"^index must be an integer"):
        ode_residual(prof_fig3a, index)
    assert ode_residual(prof_fig3a, np.int64(5)) == ode_residual(prof_fig3a, 5)


def test_profile_matches_orbit(prof_fig3a, monkeypatch):
    # push the samples through X = (alpha/2m) xi^2 f^(1-m), Y = xi f'/f and
    # compare against the phase-plane integration of the same K, kept in the
    # X-Y chart to X = 1e4, with the trap off there: from X = 0.16 on the
    # trap would end it
    from selfsim import integrator

    monkeypatch.setattr(integrator, "X_BIG", 1e4)
    xy_phase = integrator._xy_phase
    monkeypatch.setattr(
        integrator, "_xy_phase",
        lambda params, K, x, y, gap: xy_phase(params, K, x, y,
                                              integrator._no_stop))
    prof = prof_fig3a
    orbit = integrator.integrate_from_p0(SUPER, 0.1)
    sel = (prof.xi > 0.1) & (prof.xi < 0.98 * prof.xi0)
    xi = prof.xi[sel][::200]
    f = evaluate_f(prof, xi)
    d = 1e-5 * xi
    g = (evaluate_f(prof, xi + d) - evaluate_f(prof, xi - d)) / (2.0 * d)
    X = (prof.alpha / (2.0 * SUPER.m)) * xi**2 * f ** (1.0 - SUPER.m)
    Y = xi * g / f
    ok = (X > 2.0 * orbit.X[0]) & (X < 5e3)
    y_orbit = integrator._resample(SUPER, 0.1, orbit.X, orbit.Y, X[ok])
    assert np.allclose(Y[ok], y_orbit, rtol=1e-4, atol=1e-5)


def test_evaluate_f_piecewise(prof_fig3a):
    prof = prof_fig3a
    # beyond the interface the profile is identically zero
    assert evaluate_f(prof, prof.xi0 * 1.01) == 0.0
    assert evaluate_f(prof, prof.xi0 + 5.0) == 0.0
    # vector evaluation round-trips the stored samples
    vals = evaluate_f(prof, prof.xi[::500])
    assert np.allclose(vals, prof.f[::500], rtol=1e-9)


def test_evaluate_f_domain(prof_fig3a):
    # the series seed once answered far outside its range: 19.3 at xi = -5,
    # against 6.95 at xi = 5; NaN gave 0
    with pytest.raises(DomainError, match=r"got -5\.0$"):
        evaluate_f(prof_fig3a, -5.0)
    with pytest.raises(DomainError, match=r"got nan$"):
        evaluate_f(prof_fig3a, math.nan)
    # the first offending value of a batch is named
    with pytest.raises(DomainError, match=r"got -2\.0$"):
        evaluate_f(prof_fig3a, np.array([1.0, -2.0, math.nan, -3.0]))
    # +inf lies past the interface
    assert evaluate_f(prof_fig3a, math.inf) == 0.0
    assert np.array_equal(evaluate_f(prof_fig3a, np.array([0.0, math.inf])),
                          [evaluate_f(prof_fig3a, 0.0), 0.0])


def _reconstruct_recording(monkeypatch, params, K):
    """reconstruct, with the (ts, steps) and the evaluator of each of its
    two LSODA runs: the bulk, then the tail.  Each evaluator records the
    points of every call in ``calls``."""
    runs = []

    class Recording(profile_module._DenseRun):
        def __init__(self, ts, steps, n_states):
            super().__init__(ts, steps, n_states)
            self.calls = []
            runs.append((list(ts), list(steps), self))

        def __call__(self, x):
            self.calls.append(np.array(x))
            return super().__call__(x)

    monkeypatch.setattr(profile_module, "_DenseRun", Recording)
    return reconstruct(params, K), runs


def _reference_step(ts, x):
    """The step lookup the evaluator once made: the step whose start is the
    last one below x, clipped into the run."""
    return np.clip(np.searchsorted(ts, x) - 1, 0, len(ts) - 2)


@pytest.mark.parametrize("params, K", [(SUPER, 0.1),
                                       (ModelParams(3.0, 0.5, 3),
                                        0.5 * K_STAR_M3)])
def test_dense_run_matches_scipy_ode_solution(monkeypatch, params, K):
    # the evaluator reads LsodaDenseOutput's t, h, yh and p; scipy's own
    # OdeSolution over the same steps is the reference.  The bulk keeps its
    # ln f row alone, the tail both of its states (w, eta)
    _, runs = _reconstruct_recording(monkeypatch, params, K)
    assert len(runs) == 2
    rng = np.random.default_rng(3)
    for (ts, steps, dense), n_states in zip(runs, (1, 2)):
        reference = OdeSolution(ts, steps)
        t_min, t_max = reference.t_min, reference.t_max
        x = np.concatenate([ts, [t_min, t_max],
                            rng.uniform(t_min, t_max, 2 * DENSE_SLICE + 17)])
        want = reference(x)[:n_states]
        got = dense(x)
        assert got.shape == want.shape
        scale = np.max(np.abs(want), axis=1, keepdims=True)
        assert np.all(np.abs(got - want) <= 1e-13 * scale)
        # the old lookup picks the same step at every step end, between
        # ends, and below and above the run
        ts = np.asarray(ts)
        span = ts[-1] - ts[0]
        x = np.concatenate([ts, 0.5 * (ts[:-1] + ts[1:]),
                            [ts[0] - span, np.nextafter(ts[0], -np.inf),
                             np.nextafter(ts[-1], np.inf), ts[-1] + span,
                             -np.inf, np.inf]])
        assert np.array_equal(dense.step(x), _reference_step(ts, x))


def test_array_evaluation_matches_scalar_calls(monkeypatch):
    # a type II tail whose run ends on the closed form, short of the last
    # sample
    prof, runs = _reconstruct_recording(monkeypatch, ModelParams(3.0, 0.5, 3),
                                        0.5 * K_STAR_M3)
    (bulk_ts, _, _), (_, _, tail) = runs
    xi_h = math.exp(bulk_ts[-1])  # the bulk runs in ln xi
    xi_run_end = xi_h * math.exp(tail(tail.ts[-1:])[1, 0])
    xi_last = prof.xi[-1]
    assert xi_run_end < xi_last < prof.xi0
    x = np.array([0.0, 0.5 * prof.xi[0],                  # series head
                  prof.xi[0], 0.3 * xi_h, xi_h,          # bulk run
                  1.01 * xi_h, 0.5 * (xi_h + xi_run_end),  # tail run
                  xi_run_end,
                  0.5 * (xi_run_end + xi_last), xi_last,  # closed form
                  0.5 * (xi_last + prof.xi0), prof.xi0, 1.1 * prof.xi0])
    for p, xs in ((prof, x), (rescale(prof, 3.0), x / 3.0)):
        scalars = np.array([evaluate_f(p, float(v)) for v in xs])
        assert np.all(scalars[:-3] > 0.0) and np.all(scalars[-3:] == 0.0)
        assert np.array_equal(evaluate_f(p, xs), scalars)
    # evaluate_u on broadcast (n, k) grids of (r, t), the shape
    # solution._masses passes
    sol = make_solution(prof)

    def grid_matches_scalars(r, t):
        grid = evaluate_u(sol, r[:, None], t)
        scalars = np.array([[evaluate_u(sol, a, b) for b in t.tolist()]
                            for a in r.tolist()])
        return grid.shape == scalars.shape and np.array_equal(grid, scalars)

    # at t = 0 the rows are the points above and +inf; at t = -900
    # e^(-beta t) overflows, so r = 0 gives xi = 0 * inf there
    assert 900.0 * prof.beta > math.log(sys.float_info.max)
    assert grid_matches_scalars(np.append(x, math.inf),
                                np.array([0.0, 0.3, -900.0]))
    # a grid wholly in the bulk reaches it in one call
    bulk = runs[0][2]
    bulk.calls.clear()
    assert grid_matches_scalars(np.linspace(0.2, 0.6, 7) * xi_h,
                                np.array([0.0, 0.05, -0.05]))
    assert bulk.calls[0].shape == (21,)


@pytest.mark.parametrize("params, K", [(SUPER, K_STAR_SUPER),
                                       (ModelParams(3.0, 0.5, 3),
                                        0.5 * K_STAR_M3)])
def test_tail_value_depends_on_its_point_alone(monkeypatch, params, K):
    # each tail point inverts eta(s) on its own: while the batch iterated
    # until all its points converged, 116 and 15 of these 400 points came
    # out different from their scalar calls, by up to 4e-12 relative
    prof, ((bulk_ts, _, _), _) = _reconstruct_recording(monkeypatch, params, K)
    rng = np.random.default_rng(5)
    x = rng.uniform(math.exp(bulk_ts[-1]), 1.01 * prof.xi0, 400)
    scalars = np.array([evaluate_f(prof, float(v)) for v in x])
    assert np.count_nonzero(scalars) > 200
    assert np.array_equal(evaluate_f(prof, x), scalars)


def test_points_past_the_run_skip_the_newton_loop(monkeypatch):
    # past the tail run's end, s is the type II closed form: no point there
    # evaluates the run
    prof, runs = _reconstruct_recording(monkeypatch, ModelParams(3.0, 0.5, 3),
                                        0.5 * K_STAR_M3)
    (bulk_ts, _, _), (_, _, tail) = runs
    xi_h = math.exp(bulk_ts[-1])  # the bulk runs in ln xi
    xi_run_end = xi_h * math.exp(tail(tail.ts[-1:])[1, 0])
    x = np.linspace(xi_run_end, prof.xi[-1], 50)[1:]
    tail.calls.clear()
    assert np.all(evaluate_f(prof, x) > 0.0)
    assert tail.calls == []
    # a point on the run makes one call per Newton iteration, on itself only
    evaluate_f(prof, np.concatenate([x, [0.5 * (xi_h + xi_run_end)]]))
    assert 1 <= len(tail.calls) <= profile_module.INVERT_ITERATIONS
    assert all(len(call) == 1 for call in tail.calls)


def test_rescale_identity(prof_mid):
    r = rescale(prof_mid, 1.0)
    assert np.allclose(r.xi, prof_mid.xi)
    assert np.allclose(r.f, prof_mid.f)


@pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
def test_rescale_symmetry(prof_mid, lam):
    r = rescale(prof_mid, lam)
    gamma = 2.0 / (SUPER.m - 1.0)
    assert evaluate_f(r, 0.0) == pytest.approx(lam**-gamma)
    assert r.xi0 == pytest.approx(prof_mid.xi0 / lam)
    # residual of the rescaled profile stays within 10x of the original's
    def worst(p):
        out = 0.0
        for i in range(1, len(p.xi) - 1, 499):
            if not p.xi[1] < p.xi[i] < 0.99 * p.xi0:
                continue
            scale = max(1.0, abs(p.alpha * p.f[i]))
            out = max(out, ode_residual(p, i) / scale)
        return out

    assert worst(r) < 10.0 * max(worst(prof_mid), 1e-7)


def _pieces(p):
    """One xi in each piece of a reconstructed profile: series, bulk run,
    tail run, past xi0."""
    return np.array([0.5 * p.xi[0], 0.5 * p.xi0,
                     0.5 * (p.xi[-2] + p.xi[-1]), 1.1 * p.xi0])


@pytest.mark.parametrize("lam", [0.5, 3.0])
def test_rescale_evaluates_every_piece(prof_mid, lam):
    x = _pieces(prof_mid) / lam
    want = lam ** (-2.0 / (SUPER.m - 1.0)) * evaluate_f(prof_mid, lam * x)
    assert want[2] > 0.0 and want[3] == 0.0
    assert np.allclose(evaluate_f(rescale(prof_mid, lam), x), want,
                       rtol=1e-13, atol=0.0)


def test_rescale_composes(prof_mid):
    twice = rescale(rescale(prof_mid, 0.5), 6.0)
    once = rescale(prof_mid, 3.0)
    assert twice.xi0 == pytest.approx(once.xi0, rel=1e-14)
    assert np.allclose(twice.xi, once.xi, rtol=1e-14, atol=0.0)
    assert np.allclose(twice.f, once.f, rtol=1e-14, atol=0.0)
    x = _pieces(once)
    assert np.allclose(evaluate_f(twice, x), evaluate_f(once, x),
                       rtol=1e-12, atol=0.0)


def test_rescale_keeps_the_solver_counts(prof_mid):
    # a rescaled profile evaluates through the same two LSODA runs
    assert len(prof_mid.stats) == 2
    assert rescale(prof_mid, 2.0).stats == prof_mid.stats


def test_rescale_requires_positive_lambda(prof_mid):
    # inf once gave xi0 = 0, 1e300 an f that underflowed to 0 everywhere and
    # 1e-300 a raw OverflowError from lam^(-2/(m-1))
    for lam in (0.0, -1.0, math.nan, math.inf, 1e300, 1e-300):
        with pytest.raises(DomainError, match="lambda"):
            rescale(prof_mid, lam)


@pytest.mark.parametrize("params, K", [
    # xi0 = xi_h e^(eta + rest) overflowed a Python float
    (ModelParams(3.0, 0.5, 3), 1e-3),
    (ModelParams(5.0, 0.9, 3), 1e-2),
    (ModelParams(1.5, 0.9, 1), 1e-3),
    # xi0 is finite, but alpha xi^2 / 2m overflowed in the tail samples
    (SUPER, 1e-4),
    (ModelParams(1.5, 0.9, 1), 10.0**-2.5),
    # c xi^2 leaves the float range during the tail run; stepped on, the run
    # once reached a nonfinite state first, at ln X = 46.8, 47.9 and 40.6
    (ModelParams(3.0, 0.9, 3), 1e-3),
    (ModelParams(7.0, 0.9, 3), 1e-2),
    (ModelParams(5.0, 0.9, 3), 10.0**-3.5),
])
def test_interface_past_the_float_range_names_k(params, K):
    with pytest.raises(ReconstructionError,
                       match=f"interface at K = {K:g} lies past the float"):
        reconstruct(params, K)


@pytest.mark.parametrize("params, K", [
    (ModelParams(1.0002, 0.9998, 3), 1e-8),
    (ModelParams(1.001, 0.999, 3), 0.125 * 0.001**2),
    (ModelParams(1.01, 0.99, 3), 1e-8),
])
def test_profile_past_the_float_range_names_k(params, K):
    # xi0 is finite, but the power 1/(m-1) lifts f past the float range;
    # the samples once held inf
    with pytest.raises(ReconstructionError,
                       match=f"^profile at K = {K:g} lies past the float"):
        reconstruct(params, K)


INTERFACE_PAST_RANGE = "interface at K = {K:g} lies past the float range"
BULK_NONFINITE = "bulk run at K = {K:g} turned nonfinite at ln xi = "


@pytest.mark.parametrize("N", [1, 3])
@pytest.mark.parametrize("m", [1.001, 1.0000001, 1.0 + 1e-12])
def test_critical_line_near_m_1_names_k(m, N):
    # xi^sigma in the old bulk field, or the seed's power 1/(m-1), once
    # raised a raw OverflowError here, and later the run was reported as
    # reaching xi = inf.  f reaches 0 at a finite xi while X, which goes
    # like f^(1-m), stays below X_BIG, so Y falls to -inf and the state
    # turns NaN; the error says so
    with pytest.raises(ReconstructionError,
                       match="^" + re.escape(BULK_NONFINITE.format(K=1.0))):
        reconstruct(ModelParams(m, 2.0 - m, N), 1.0)


#: (params, K, the message the bulk ends with)
LARGE_M_BULK = [
    # the rest e^(-q1 s)/(K q1) puts ln xi0 near 2e7 at m = 1e6
    (ModelParams(1e6, 0.5, 3), 0.1, INTERFACE_PAST_RANGE),
    (ModelParams(1e8, 0.5, 3), 0.1, INTERFACE_PAST_RANGE),
    (ModelParams(1e8, 0.5, 3), 1.0, INTERFACE_PAST_RANGE),
    # ln f and Y are near 1/(m-1), below the bulk's atol, and the run turns
    # NaN; m = 1e155 once did not return within 30 s
    (ModelParams(1e16, 0.5, 3), 1.0, BULK_NONFINITE),
    (ModelParams(1e155, 0.5, 3), 1.0, BULK_NONFINITE),
    # bulk creeps that once took 3-12 s, hung, or ended "reached xi = inf"
    (ModelParams(7.0, 0.5, 1), 1e-4, INTERFACE_PAST_RANGE),
    (ModelParams(5.0, 0.9, 1), 1e-4, INTERFACE_PAST_RANGE),
    (ModelParams(7.0, 0.9, 1), 1e-4, INTERFACE_PAST_RANGE),
    (ModelParams(7.0, 0.9, 3), 1e-4, INTERFACE_PAST_RANGE),
    (ModelParams(18.898, 0.41117, 1), 0.017242, INTERFACE_PAST_RANGE),
]


@pytest.mark.parametrize(
    "params, K, message", LARGE_M_BULK,
    ids=[f"{p.m}-{K}" if (p.p, p.N) == (0.5, 3) else f"{p.m}-{p.p}-{p.N}-{K}"
         for p, K, _ in LARGE_M_BULK])
def test_large_m_bulk_names_k_with_no_warning(params, K, message):
    # the bulk forms no power of f or xi: the old field's f^(m-1) left the
    # float range here and the run went on to xi = inf, numpy's powers once
    # warned, and lsoda's UserWarning reached stderr at m = 1e8, K = 1.  An
    # alarm turns a hang into a failure
    with alarm(5), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ReconstructionError,
                           match="^" + re.escape(message.format(K=K))):
            reconstruct(params, K)


@pytest.mark.parametrize("K", [1e10, 1e150, 1e250, 1e300])
def test_huge_k_bulk_names_k(K):
    # f falls to 0 within a step below the spacing of the floats near
    # ln xi; from K = 1e150 the seed's dropped term K X0^q, 2e246 times the
    # others at 1e250, makes the first step zero, where the run once hung
    with pytest.raises(ReconstructionError,
                       match=re.escape(f"bulk run at K = {K:g} failed to "
                                       "locate its hand-off")):
        reconstruct(SUPER, K)


def test_profile_callbacks_return_python_floats(monkeypatch):
    # LSODA passes its state as a numpy array; the bulk's field, its
    # hand-off event and the tail's field unpack it as Python floats
    seen = {}
    solve_ivp, lsoda = profile_module.solve_ivp, profile_module.LSODA

    def spy_solve_ivp(fun, span, y0, *, events, **kwargs):
        seen["bulk"], seen["hand-off"], seen["seed"] = fun, events[0], y0
        return solve_ivp(fun, span, y0, events=events, **kwargs)

    def spy_lsoda(fun, *args, **kwargs):
        seen["tail"] = fun
        return lsoda(fun, *args, **kwargs)

    monkeypatch.setattr(profile_module, "solve_ivp", spy_solve_ivp)
    monkeypatch.setattr(profile_module, "LSODA", spy_lsoda)
    reconstruct(SUPER, 0.5)
    # (ln f, Y) at ln xi = 5 and (w, eta) at ln X = 5
    state = np.array([0.5, -0.25])
    for name in ("bulk", "tail"):
        assert [type(v) for v in seen[name](5.0, state)] == [float] * 2, name
    assert type(seen["hand-off"](5.0, state)) is float
    assert [type(v) for v in seen["seed"]] == [float] * 2


def test_profile_reads_the_tolerances_at_call_time(prof_fig3a, monkeypatch):
    # the bulk runs at integrator.REL_TOL and the tail at a 100th of it
    monkeypatch.setattr(integrator, "REL_TOL", integrator.REL_TOL / 2.0)
    halved = reconstruct(SUPER, 0.1).stats
    assert len(halved) == len(prof_fig3a.stats) == 2
    for old, new in zip(prof_fig3a.stats, halved):
        assert new.nfev != old.nfev


def test_tail_failure_names_its_cause(monkeypatch):
    # a step that leaves the float range reports no solver message, which
    # once printed as "(None)"; this field turns infinite past ln X = 12
    real = profile_module._rhs_slope

    def blowing_up(params, K):
        slope = real(params, K)
        return lambda s, y: (math.inf, 1.0) if s > 12.0 else slope(s, y)

    monkeypatch.setattr(profile_module, "_rhs_slope", blowing_up)
    with pytest.raises(ReconstructionError) as exc:
        reconstruct(SUPER, 0.5)
    assert str(exc.value) == ("slope chart tail at K = 0.5 failed at "
                              "ln X = 12.0 (nonfinite state)")


def test_import_loads_no_interpolation():
    # every profile evaluates through the evaluator reconstruct builds, so
    # the package needs no scipy.interpolate
    src = str(Path(profile_module.__file__).parents[1])
    code = "import selfsim, sys; assert 'scipy.interpolate' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})


def test_reconstruct_rejects_subcritical():
    with pytest.raises(DomainError):
        reconstruct(ModelParams(1.2, 0.5, 3), 1.0)


def test_fit_needs_tail_samples(prof_fig3a):
    sparse = replace(prof_fig3a, xi=prof_fig3a.xi[:50], f=prof_fig3a.f[:50])
    with pytest.raises(DomainError):
        fit_interface(sparse)


def test_seed_scale_tracks_alpha():
    # seed offset shrinks as alpha grows, keeping the series error tiny
    a_small = reconstruct(SUPER, 5.0)
    a_big = reconstruct(SUPER, 0.5)
    assert a_small.xi[0] > 0.0
    assert alpha_beta_from_k(SUPER, 5.0).alpha < alpha_beta_from_k(SUPER, 0.5).alpha
    assert a_small.xi[0] > a_big.xi[0]
