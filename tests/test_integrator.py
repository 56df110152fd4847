import decimal
import math
import warnings

import numpy as np
import pytest
from conftest import CRIT, SUB, SUPER
from scipy.integrate import DOP853, solve_ivp

from selfsim import integrator
from selfsim.integrator import (
    X_BIG,
    OrbitEnd,
    OrbitTag,
    PhaseStats,
    _resample,
    _rhs_slope,
    integrate,
    integrate_from_p0,
    launch_from_p0,
    orbit_monotonicity_check,
)
from selfsim.params import DomainError, ModelParams
from selfsim.phaseplane import PhasePoint, planar_field

#: the supercritical trap's diagnostics up to its ln X
TRAPPED = "trapped above the lower root of u^2 + (m-1)u + K X^(q-2)"


def test_launch_point_high_dimension():
    pt = launch_from_p0(SUPER, 0.1)
    assert pt.X == pytest.approx(1e-6)
    # slope 2/N with a negative correction of higher order in delta
    assert pt.Y < 0.5e-6
    assert pt.Y == pytest.approx(0.5e-6, rel=1e-3)


def test_launch_point_low_dimensions():
    pt = launch_from_p0(ModelParams(2.0, 0.5, 2), 0.1)
    assert pt.Y == pytest.approx(1e-6, rel=1e-3)
    pt = launch_from_p0(ModelParams(2.0, 0.5, 1), 0.1)
    assert pt.Y == pytest.approx(2e-6, rel=1e-3)


def test_reference_tags():
    assert integrate_from_p0(SUPER, 0.1).termination.tag is OrbitTag.TO_Q1
    assert integrate_from_p0(SUPER, 8.0).termination.tag is OrbitTag.TO_Q3


def test_critical_slope_approaches_upper_root():
    # the orbit ends where the trap above y2 is proven; continued to s = 600,
    # its slope reaches the Q1 slope y1
    orbit = integrate_from_p0(CRIT, 0.05)
    end = orbit.termination
    assert end.tag is OrbitTag.TO_Q1
    assert end.diagnostics.startswith("trapped above the Q4 slope -0.361803")
    ref = _reference_slope(orbit, CRIT, 0.05)
    assert ref.status == 0
    assert ref.y[0, -1] == pytest.approx(-0.1381966011, rel=1e-4)


def test_float_k_just_above_k_star_is_bound_to_plunge():
    # (m-1)^2/4 rounds to 0.009999999999999995, so at K = 0.01 Q1 and Q4 do
    # not exist and the slope creeps past the ghost of their saddle-node
    params = ModelParams(1.2, 0.8, 3)
    assert 0.25 * (params.m - 1.0) ** 2 < 0.01
    end = integrate_from_p0(params, 0.01).termination
    assert end.tag is OrbitTag.TO_Q3
    assert end.diagnostics.startswith("bound to plunge")


def test_x_monotone_below_cap():
    orbit = integrate_from_p0(SUPER, 8.0)
    cap = 2.0 / (SUPER.m - 1.0)
    mask = orbit.Y < cap
    X = orbit.X[mask]
    assert np.all(np.diff(X) > 0.0)
    assert np.all(np.diff(orbit.eta) > 0.0)


def test_tags_stable_under_tolerance_halving(monkeypatch):
    cases = ((0.1, OrbitTag.TO_Q1), (8.0, OrbitTag.TO_Q3))
    base = [integrate_from_p0(SUPER, K) for K, _ in cases]
    monkeypatch.setattr(integrator, "REL_TOL", integrator.REL_TOL / 2.0)
    tight = [integrate_from_p0(SUPER, K) for K, _ in cases]
    for (_, tag), a, b in zip(cases, base, tight):
        assert a.termination.tag is tag and b.termination.tag is tag
        assert b.termination.final_slope == pytest.approx(
            a.termination.final_slope, rel=1e-4)
        # the halved tolerance reaches the X-Y phase
        assert b.stats[0].nfev != a.stats[0].nfev


@pytest.mark.parametrize("delta", [1e-5, 1e-6, 1e-7])
def test_tags_stable_under_launch_offset(delta, monkeypatch):
    monkeypatch.setattr(integrator, "LAUNCH_OFFSET", delta)
    orbit = integrate_from_p0(SUPER, 0.1)
    assert orbit.X[0] == delta
    assert orbit.termination.tag is OrbitTag.TO_Q1
    assert integrate_from_p0(SUPER, 8.0).termination.tag is OrbitTag.TO_Q3


def test_subcritical_grid_all_to_q3():
    for K in np.geomspace(1e-3, 1e3, 7):
        end = integrate_from_p0(SUB, float(K)).termination
        assert end.tag is OrbitTag.TO_Q3
    # next to m + p = 2 the K term grows slowly: LSODA runs until the bound
    end = integrate_from_p0(ModelParams(1.5, 0.49, 3), 1e-4).termination
    assert end.tag is OrbitTag.TO_Q3
    assert end.diagnostics.startswith("bound to plunge")


def test_reintegration_from_interior_sample():
    orbit = integrate_from_p0(SUPER, 8.0)
    i = len(orbit.eta) // 2
    start = PhasePoint(float(orbit.X[i]), float(orbit.Y[i]))
    again = integrate(start, SUPER, 8.0)
    # compare Y(X) on the overlapping range
    x_lo = max(orbit.X[i], again.X[0]) * 1.001
    x_hi = min(orbit.X[-1], again.X[-1]) * 0.999
    grid = np.geomspace(x_lo, x_hi, 20)
    # the endpoints agree to integrator accuracy; pointwise comparison is
    # limited by the cubic resampling of the sparse adaptive output
    assert again.X[-1] == pytest.approx(orbit.X[-1], rel=1e-8)
    y_old = _resample(SUPER, 8.0, orbit.X[i:], orbit.Y[i:], grid)
    y_new = _resample(SUPER, 8.0, again.X, again.Y, grid)
    assert np.allclose(y_old, y_new, rtol=1e-3, atol=1e-5)


def test_monotone_in_k():
    assert orbit_monotonicity_check(SUPER, 0.1, 0.2)
    assert orbit_monotonicity_check(CRIT, 0.01, 0.05)


@pytest.mark.parametrize("K1, ratio", [
    (0.03162277660168379, 1.1), (31.622776601683793, 1.01)])
def test_monotone_in_k_between_sparse_samples(K1, ratio):
    # the X-Y phase samples only its step ends; Y resampled linearly in X
    # between them put the orbit of K2 = ratio*K1 above that of K1 here
    assert orbit_monotonicity_check(SUB, K1, K1 * ratio)


def test_resample_is_cubic_between_samples():
    # on one orbit, resampling every other sample recovers the rest far
    # closer than a straight line between them
    orbit = integrate_from_p0(SUPER, 8.0)
    X, Y = orbit.X, orbit.Y
    mid = _resample(SUPER, 8.0, X[::2], Y[::2], X[1:-1:2])
    line = np.interp(np.log(X[1:-1:2]), np.log(X[::2]), Y[::2])
    err, err_line = np.abs(mid - Y[1:-1:2]), np.abs(line - Y[1:-1:2])
    assert err.max() < 1e-2 * err_line.max()


def test_monotonicity_preconditions():
    with pytest.raises(DomainError):
        orbit_monotonicity_check(SUPER, 0.2, 0.2)
    with pytest.raises(DomainError):
        orbit_monotonicity_check(SUPER, 0.3, 0.2)


@pytest.mark.parametrize("K1, K2, name", [
    (0.1, math.inf, "K2"), (math.nan, 0.2, "K1"), (0.0, 0.2, "K1"),
    (-0.1, 0.2, "K1"),
])
def test_monotonicity_check_names_the_bad_k(K1, K2, name):
    # a bad K2 was once reported as "K must be positive and finite"
    with pytest.raises(DomainError,
                       match=f"^{name} must be positive and finite, got "):
        orbit_monotonicity_check(SUPER, K1, K2)


def test_monotonicity_needs_a_common_x_range(monkeypatch):
    # with X_BIG below the launch offset both orbits escape at their start,
    # which leaves no X range to compare them on
    monkeypatch.setattr(integrator, "X_BIG", 0.5 * integrator.LAUNCH_OFFSET)
    with pytest.raises(DomainError,
                       match="^orbits do not share a common X range$"):
        orbit_monotonicity_check(SUPER, 0.1, 0.2)


@pytest.mark.parametrize("params", [CRIT, SUB], ids=["critical", "subcritical"])
def test_bound_claims_no_stop_below_ln_x_minus_700(params):
    # e^(-s) nears the float range there, and at ln X = -800 math.exp would
    # raise OverflowError; just above -700 the gap is finite and negative
    bound = integrator._stops(params, 1.0)[1][0]
    assert bound(-700.5, (0.0,)) == bound(-800.0, (0.0,)) == -math.inf
    assert -math.inf < bound(-699.5, (0.0,)) < 0.0


def test_launch_requires_positive_k():
    with pytest.raises(DomainError):
        launch_from_p0(SUPER, 0.0)


def test_launch_and_integrate_require_finite_k():
    with pytest.raises(DomainError, match="^K "):
        launch_from_p0(SUPER, np.inf)
    with pytest.raises(DomainError, match="^K "):
        integrate(PhasePoint(1e-6, 0.5e-6), SUPER, np.inf)


def test_integrate_requires_positive_start():
    with pytest.raises(DomainError,
                       match="^start.X must be positive and finite, got 0.0$"):
        integrate(PhasePoint(0.0, 0.0), SUPER, 0.1)
    with pytest.raises(DomainError):
        integrate(PhasePoint(1.0, np.inf), SUPER, 0.1)


def _reference_xy(start, params, K):
    """The X-Y phase as solve_ivp's DOP853 runs it, with terminal events:
    the escape, the plunge and the slope chart's trap or bound to plunge,
    taken at (ln X, Y/X) where X is rising."""
    m = params.m
    field = planar_field(params, K)
    gap = integrator._stops(params, K)[1][0]

    def escape(eta, y):
        return y[0] - X_BIG

    def plunge(eta, y):
        return y[1] + 3.0 * (m - 1.0) * y[0] + 10.0

    def stop(eta, y):
        X, Y = y
        if 0.0 < X < math.inf and -math.inf < Y < 2.0 / (m - 1.0):
            return gap(math.log(X), (Y / X,))
        return -math.inf

    escape.terminal, escape.direction = True, 1.0
    plunge.terminal, plunge.direction = True, -1.0
    stop.terminal, stop.direction = True, 1.0
    return solve_ivp(lambda eta, y: field(*y), (0.0, integrator.ETA_MAX),
                     [start.X, start.Y], method="DOP853",
                     rtol=integrator.REL_TOL, atol=integrator.ABS_TOL,
                     events=[escape, plunge, stop])


def _without_xy_stop(monkeypatch):
    """Run the X-Y phase without the slope chart's trap or bound, as it ran
    before it tested them: escape and plunge only."""
    xy_phase = integrator._xy_phase

    def no_stop(params, K, x, y, gap):
        return xy_phase(params, K, x, y, integrator._no_stop)

    monkeypatch.setattr(integrator, "_xy_phase", no_stop)


@pytest.mark.parametrize("params, K, tols, eta_max, start, event", [
    (CRIT, 0.05, None, None, None, "escape"),
    (SUPER, 8.0, None, None, None, "plunge"),
    (SUPER, 2.5488157, None, None, None, "escape"),
    # the bound to plunge holds before the plunge
    (SUB, 1.0, None, None, None, "stop"),
    # the trap holds before X_BIG
    (ModelParams(2.0, 0.5, 1), 0.3, None, None, None, "stop"),
    (SUPER, 8.0, (1e-12, 1e-14), None, None, "plunge"),
    (SUPER, 0.1, None, 5.0, None, None),
    # loose tolerances: about one attempt in three is rejected
    (SUPER, 1.0, (1e-3, 1e-5), None, PhasePoint(0.5, 1.0), "stop"),
    (CRIT, 1.0, (1e-6, 1e-8), None, PhasePoint(0.5, 1.0), "stop"),
    # N = 2, where P0 is a saddle-node
    (ModelParams(2.0, 0.5, 2), 0.3, None, None, None, "stop"),
    # the below-axis start of the portrait command
    (SUPER, 1.0, None, None, PhasePoint(2.0, -2.0), "stop"),
    # large m: trapped at ln X = -3.2, far below X_BIG
    (ModelParams(7.0, 0.5, 3), 0.5, None, None, None, "stop"),
] + [
    # near m = 1, q = (m-p)/(m-1) passes 2500 and K X^q overflows in
    # rejected attempts; the bound to plunge holds before the plunge
    (ModelParams(m, 0.5, 3), K, None, None, None, "stop")
    for m in (1.0002, 1.0001, 1.00001) for K in (1e-3, 1.0, 1e3)
], ids=["ToQ1", "ToQ3-plunge", "ToQ3-past-X_big", "subcritical", "N1",
        "tightened", "eta-exhausted", "rejections-escape",
        "rejections-plunge", "N2", "below-axis-start", "long-run"] + [
    f"overflow-m{m}-K{K:g}"
    for m in (1.0002, 1.0001, 1.00001) for K in (1e-3, 1.0, 1e3)])
def test_xy_phase_steps_as_solve_ivp_rk45(params, K, tols, eta_max, start,
                                          event, monkeypatch):
    # the X-Y phase is stepped by DOP853; the name is kept so that the 21
    # case ids stay stable
    if tols is not None:
        monkeypatch.setattr(integrator, "REL_TOL", tols[0])
        monkeypatch.setattr(integrator, "ABS_TOL", tols[1])
    if eta_max is not None:
        monkeypatch.setattr(integrator, "ETA_MAX", eta_max)
    start = start or launch_from_p0(params, K)
    # numpy's float64 power gives inf where a Python float's raises, and
    # the stages then meet inf - inf
    with np.errstate(over="ignore", invalid="ignore"):
        ref = _reference_xy(start, params, K)
    orbit = integrate(start, params, K)
    xy = orbit.stats[0]
    assert xy.method == "DOP853"
    assert (xy.nfev, xy.njev, xy.steps, xy.status) == (
        ref.nfev, 0, len(ref.t) - 1, ref.status)
    fired = [name for name, t in zip(("escape", "plunge", "stop"),
                                     ref.t_events) if len(t)]
    assert fired == ([event] if event else [])
    assert len(orbit.stats) == (2 if event == "escape" else 1)
    n = xy.steps
    np.testing.assert_allclose(orbit.eta[n], ref.t[-1], rtol=1e-10)
    np.testing.assert_allclose([orbit.X[n], orbit.Y[n]], ref.y[:, -1],
                               rtol=1e-10)


def test_dop853_tableau_premises():
    # the written-out X-Y step leaves out these zero entries of A, B, E5 and
    # E3; its twelfth stage sits at the end of the step, like the slope
    # there that the next step reuses
    A = DOP853.A
    assert A.shape == (12, 12)
    assert np.all(A[3:5, 1] == 0.0) and np.all(A[5:, 1:3] == 0.0)
    assert np.all(DOP853.B[1:5] == 0.0)
    for E in (DOP853.E5, DOP853.E3):
        assert len(E) == 13 and np.all(E[1:5] == 0.0)
    assert DOP853.C[11] == 1.0


def test_start_below_plunge_line_is_q3():
    orbit = integrate(PhasePoint(1.0, -20.0), SUPER, 1.0)
    end = orbit.termination
    assert end.tag is OrbitTag.TO_Q3
    assert end.diagnostics == "plunged below the Q4 ray"
    assert end.final_slope == -20.0
    assert list(orbit.X) == [1.0] and list(orbit.Y) == [-20.0]
    assert orbit.stats == (PhaseStats("DOP853", 0, 0, 0, 1),)


def test_start_past_x_big_escapes_at_once(monkeypatch):
    # the escape test only saw a crossing from below, so a start past X_BIG
    # ran the X-Y phase to its eta budget.  At K = 30 the trap's lower root
    # is -0.694 there, above the start's slope -0.75, so the trap does not
    # hold at the start; the slope rises through the root in the slope chart
    monkeypatch.setattr(integrator, "ETA_MAX", 0.05)
    orbit = integrate(PhasePoint(2e4, -1.5e4), SUPER, 30.0)
    assert orbit.termination.tag is OrbitTag.TO_Q1
    assert orbit.stats[0] == PhaseStats("DOP853", 0, 0, 0, 1)
    assert orbit.stats[1].method == "LSODA"


#: X-Y field evaluations an orbit may make under the xy_budget fixture
XY_BUDGET = 20_000


@pytest.fixture
def xy_budget(monkeypatch):
    """Make each orbit's field raise after ``XY_BUDGET`` evaluations, so that
    an orbit which would run on fails its test instead."""
    def budgeted(params, K):
        field, count = planar_field(params, K), 0

        def counted(X, Y):
            nonlocal count
            count += 1
            if count > XY_BUDGET:
                raise RuntimeError(f"X-Y budget spent at {params}, K = {K}")
            return field(X, Y)

        return counted

    monkeypatch.setattr(integrator, "planar_field", budgeted)


@pytest.mark.parametrize("start, params, K, nfev, steps, ln_x", [
    (PhasePoint(200.0, 5.0), ModelParams(2.04, 0.24, 4), 1.7e-4, 170, 12,
     "5.3"),
    (PhasePoint(1e3, 10.0), SUPER, 0.1, 74, 5, "6.9"),
    (PhasePoint(1e4, 1e3), ModelParams(3.0, 0.5, 3), 1.0, 278, 21, "9.1"),
], ids=["m2.04", "m2", "m3"])
def test_start_past_x_big_with_x_falling_escapes(start, params, K, nfev,
                                                 steps, ln_x, xy_budget):
    # X falls at these starts (Y >= 2/(m-1)); the escape test once saw only
    # a crossing of X_BIG from below, and the stiff X-Y phase ran on for
    # millions of evaluations.  The trap, tested before the escape, holds
    # once Y falls below 2/(m-1), at the end of that step, so no dense
    # output is built
    orbit = integrate(start, params, K)
    end = orbit.termination
    assert end.tag is OrbitTag.TO_Q1
    assert end.diagnostics == f"{TRAPPED} at ln X = {ln_x}"
    (xy,) = orbit.stats
    assert (xy.nfev, xy.steps, xy.status) == (nfev, steps, 1)
    assert (xy.nfev - 2) % 12 == 0
    assert orbit.X[steps] >= X_BIG
    assert orbit.Y[steps] < 2.0 / (params.m - 1.0)


def test_start_past_x_big_with_x_falling_can_plunge_in_the_slope_chart():
    # this orbit once plunged in the X-Y chart after 65 steps; in the slope
    # chart it ends where it falls through the Q4 ray, bound to plunge
    orbit = integrate(PhasePoint(150.0, 3.0), SUPER, 8.0)
    end = orbit.termination
    assert end.tag is OrbitTag.TO_Q3
    assert end.diagnostics == "below the Q4 ray at ln X = 7.4"
    assert orbit.stats[0].steps == 1
    assert orbit.stats[1].method == "LSODA"


def test_every_start_returns_after_bounded_work(xy_budget):
    # starts drawn over the CLI's domain; 28 of these once ran for seconds
    # without returning, all past X_BIG with X falling
    rng = np.random.default_rng(0)
    falling = 0
    for _ in range(450):
        params = ModelParams(10.0 ** rng.uniform(0.01, 0.8),
                             rng.uniform(0.05, 0.95),
                             int(rng.choice([1, 2, 3, 4, 7])))
        K = 10.0 ** rng.uniform(-4.0, 4.0)
        X = 10.0 ** rng.uniform(-6.0, 8.0)
        Y = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-6.0, 8.0)
        falling += X >= X_BIG and Y >= 2.0 / (params.m - 1.0)
        orbit = integrate(PhasePoint(X, Y), params, K)
        assert orbit.termination.tag in (OrbitTag.TO_Q1, OrbitTag.TO_Q3)
        assert orbit.stats[0].nfev < XY_BUDGET
    assert falling == 41


@pytest.mark.parametrize("e", [
    # a square overflows, or the sum of squares doubled does: scipy's norm
    # of e5 = (1e154, 0) is h 1e308 / inf = 0
    (3e170, -4e170, 1e170, 2e170), (0.0, -2.3e160, 0.0, 0.0),
    (1e154, 0.0, 0.0, 0.0), (1e-300, 0.0, 1e200, 0.0),
    # e5 is 0 and 0.01 |e3|^2 underflows: the root of 0
    (0.0, 0.0, 1e-161, 0.0), (0.0, 0.0, -1e-161, 1e-161),
])
@pytest.mark.parametrize("h", [5e-323, 1e-3, 10.0])
def test_error_norm_past_the_float_range_is_the_exact_norm(e, h):
    # |h| |e5|^2 / sqrt(2 (|e5|^2 + 0.01 |e3|^2)) in decimal arithmetic,
    # whose exponent range holds every square
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        hd, e5x, e5y, e3x, e3y = map(decimal.Decimal, (h, *e))
        n5, n3 = e5x * e5x + e5y * e5y, e3x * e3x + e3y * e3y
        ref = float(hd * n5 / (2 * (n5 + n3 / 100)).sqrt())
    assert integrator._error_norm(h, *e) == pytest.approx(ref, rel=1e-15,
                                                          abs=0.0)


@pytest.mark.parametrize("e", [
    (math.inf, 0.0, 0.0, 0.0), (0.0, 0.0, -math.inf, 0.0),
    (0.0, math.nan, 0.0, 0.0), (1e300, 0.0, math.nan, 0.0),
])
def test_error_norm_of_a_nonfinite_estimate_fails_the_attempt(e):
    assert integrator._error_norm(1e-3, *e) == math.inf


@pytest.mark.parametrize("start, params, steps", [
    (PhasePoint(1e120, 30.0), ModelParams(1.5, 0.8, 3), 157),
    (PhasePoint(1e120, 100.0), ModelParams(1.5, 0.8, 1), 158),
], ids=["N3", "N1"])
def test_integrate_returns_where_the_xy_error_estimates_overflow(start,
                                                                 params,
                                                                 steps):
    # X falls at these starts, so no stop is tested.  The first attempt has
    # h = 5e-323 and an error estimate near -2.3e160, whose square
    # overflows; the norm once squared h e instead, which underflowed to
    # 0 / 0 and raised ZeroDivisionError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        orbit = integrate(start, params, 1.0)
    assert orbit.termination.tag is OrbitTag.TO_Q1
    assert orbit.termination.diagnostics == f"{TRAPPED} at ln X = 276.3"
    (xy,) = orbit.stats
    assert (xy.steps, xy.status) == (steps, 1)


def test_final_slope_past_the_float_range_is_minus_inf_with_no_warning():
    # Y/X of the start passes the float range; on numpy scalars it printed
    # "overflow encountered in scalar divide"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        orbit = integrate(PhasePoint(1e-300, -1e10), ModelParams(2.0, 0.5, 4),
                          1.0)
    end = orbit.termination
    assert end.tag is OrbitTag.TO_Q3
    assert type(end.final_slope) is float and end.final_slope == -math.inf


def test_slope_chart_field_does_not_overflow():
    # q = 5: e^((q-2)s) passes the float range at s = 236.6; the exponent
    # is clamped at 700, as in the bound to plunge
    du, deta = _rhs_slope(ModelParams(1.05, 0.8, 3), 1.0)(300.0, (-0.01, 0.0))
    assert np.isfinite(du) and np.isfinite(deta)
    assert du < 0.0


@pytest.mark.parametrize("params", [
    ModelParams(1.2, 0.5, 1), ModelParams(1.2, 0.5, 3),
    ModelParams(1.05, 0.8, 3),
], ids=["m1.2-N1", "m1.2-N3", "m1.05"])
def test_slope_chart_ends_by_a_stop_where_the_cap_once_fell_with_q(params):
    # q = 7.5 and 5: the slope chart once ran only to ln X = 690/(q-2), so
    # that K e^((q-2)s) stayed in the float range; the clamp in _rhs_slope
    # lets every run go to LN_X_CAP, and each stop fires well before either.
    # The bound's gap depends on s alone, and each ln X is its root; at
    # m = 1.05 and K >= 1e-7 the root lies below X_BIG, where the X-Y phase
    # once ran on to a plunge
    want = {
        (1.2, 1): ["10.7", "7.7", "6.4", "5.2"],
        (1.2, 3): ["10.8", "7.8", "6.5", "5.3"],
        (1.05, 3): ["5.4", "4.3", "3.7", "3.1"],
    }[params.m, params.N]
    for K, ln_x in zip((1e-9, 1e-7, 1e-6, 1e-5), want):
        end = integrate_from_p0(params, K).termination
        assert end.tag is OrbitTag.TO_Q3
        assert end.diagnostics == f"bound to plunge at ln X = {ln_x}"


@pytest.mark.parametrize("m, start, tag, samples", [
    # the norm of the first slope overflows: the first trial step is the
    # minimum, where scipy's error norm squares an error estimate of about
    # 1e176 before it multiplies by h, so solve_ivp rejects every attempt
    (1.005, PhasePoint(50.0, 0.0), OrbitTag.TO_Q3, 159),
    # X^q overflows a Python float at the start: no step is taken
    (1.003, PhasePoint(90.0, 0.0), OrbitTag.UNRESOLVED, 1),
    # the portrait command's (2, 1) and (2, -2(m-1)) starts at m = 1.0001
    (1.0001, PhasePoint(2.0, 1.0), OrbitTag.UNRESOLVED, 1),
    (1.0001, PhasePoint(2.0, -2e-4), OrbitTag.UNRESOLVED, 1),
])
def test_overflow_at_the_start_ends_as_under_solve_ivp(m, start, tag, samples,
                                                      monkeypatch):
    # solve_ivp ended the last three orbits the same way, with overflow
    # warnings; an orbit that takes no step names its step-size failure.
    # The bound to plunge holds at each of these starts, so the X-Y step is
    # compared with it turned off
    params = ModelParams(m, 0.5, 3)
    with monkeypatch.context() as mp:
        _without_xy_stop(mp)
        orbit = integrate(start, params, 1e-3)
    with np.errstate(over="ignore", invalid="ignore"):
        ref = _reference_xy(start, params, 1e-3)
    xy = orbit.stats[0]
    # solve_ivp's one attempt at the minimum step: 2 evaluations for the
    # first step and 12 for the attempt
    assert (ref.nfev, len(ref.t) - 1, ref.status) == (14, 0, -1)
    if tag is OrbitTag.TO_Q3:
        # 158 attempts, none rejected, and the dense output of the last
        assert (xy.nfev, xy.steps, xy.status) == (2 + 12 * 158 + 3, 158, 1)
    else:
        assert (xy.nfev, xy.steps, xy.status) == (ref.nfev, len(ref.t) - 1,
                                                  ref.status)
    assert orbit.termination.tag is tag
    assert len(orbit.eta) == samples
    assert orbit.termination.diagnostics == {
        OrbitTag.TO_Q3: "plunged below the Q4 ray",
        OrbitTag.UNRESOLVED:
            f"X-Y step size fell below its minimum at X={start.X:g}",
    }[tag]
    # with the bound, K e^((q-2) ln X) past the float range ends the orbit
    # at the start, with no step
    orbit = integrate(start, params, 1e-3)
    assert orbit.termination == OrbitEnd(
        OrbitTag.TO_Q3, start.Y / start.X,
        f"bound to plunge at ln X = {math.log(start.X):.1f}")
    assert orbit.stats == (PhaseStats("DOP853", 0, 0, 0, 1),)


def test_numpy_scalar_k_steps_as_a_float():
    # near m = 1 numpy's scalar power overflows with a RuntimeWarning where
    # a Python float's raises; integrate steps every K as a Python float
    params = ModelParams(1.0002, 0.5, 3)
    orbit = integrate_from_p0(params, np.float64(1.0))
    ref = integrate_from_p0(params, 1.0)
    for name in ("eta", "X", "Y"):
        assert getattr(orbit, name).tobytes() == getattr(ref, name).tobytes()
    assert orbit.termination == ref.termination
    assert orbit.stats == ref.stats


@pytest.mark.parametrize("params, K", [(SUPER, 0.5), (CRIT, 0.05), (SUB, 1.0)],
                         ids=["supercritical", "critical", "subcritical"])
def test_slope_chart_callbacks_return_python_floats(params, K):
    # LSODA passes its state as a numpy array; the field and every stop gap
    # unpack it as Python floats, so numpy's scalar rules never apply
    state = np.array([-0.25, 1.5])
    assert [type(v) for v in _rhs_slope(params, K)(5.0, state)] == [float] * 2
    for gap, _, _ in integrator._stops(params, K):
        assert type(gap(5.0, state)) is float, gap.__name__


@pytest.mark.parametrize("start, tag, diagnostics, status", [
    (PhasePoint(1e300, -1e300), OrbitTag.UNRESOLVED,
     "start at ln X = 690.8 is past the ln X cap 600.0", 0),
    (PhasePoint(1e270, -1e270), OrbitTag.UNRESOLVED,
     "start at ln X = 621.7 is past the ln X cap 600.0", 0),
    # the trap is tested at the start of the X-Y phase, before the escape
    # and the cap; it ends that phase with status 1 and no LSODA record
    (PhasePoint(1e300, 0.0), OrbitTag.TO_Q1,
     f"{TRAPPED} at ln X = 690.8", 1),
])
def test_start_past_the_ln_x_cap_runs_no_lsoda_step(start, tag, diagnostics,
                                                    status):
    # LSODA was handed the span (ln X, 600) and stepped down in s.  At
    # (2,1/2,4), K = 1 the Unresolved starts lie on the Q4 ray, where the
    # stop below it holds (test_start_on_the_q4_ray_is_below_it_not_trapped),
    # so they run at (1.5,1/2,3), K = 0.05, where their slope -1 lies between
    # the plunge line -1.5 and the Q4 slope y2 = -0.362 and K < (m-1)^2/4
    # keeps the bound from holding
    params, K = ((SUPER, 1.0) if tag is OrbitTag.TO_Q1 else (CRIT, 0.05))
    orbit = integrate(start, params, K)
    assert orbit.termination.tag is tag
    assert orbit.termination.diagnostics == diagnostics
    assert len(orbit.eta) == 1
    if tag is OrbitTag.UNRESOLVED:
        assert orbit.stats == (PhaseStats("DOP853", 0, 0, 0, 1),
                               PhaseStats("LSODA", 0, 0, 0, status))
    else:
        assert orbit.stats == (PhaseStats("DOP853", 0, 0, 0, status),)


@pytest.mark.parametrize("start, tag, diagnostics, phases", [
    # on the line u = -(m-1)/2 = -1, with the K term below (m-1)^2/4: inside
    # the trap, which the X-Y phase tests at its start
    (PhasePoint(1e10, -1e10), OrbitTag.TO_Q1, f"{TRAPPED} at ln X = 23.0",
     1),
    (PhasePoint(1e100, -1e100), OrbitTag.TO_Q1, f"{TRAPPED} at ln X = 230.3",
     1),
    # on the plunge line u = -3(m-1) = -6, where u falls: decided at escape
    (PhasePoint(1e10, -6e10), OrbitTag.TO_Q3,
     "plunged below the Q4 ray (slope chart)", 2),
    # on the Q4 ray u = -(m-1) = -2, past ln X = ln(8/K)/(q-1) = 35.9, where
    # the stop below the ray starts: decided at escape
    (PhasePoint(1e100, -2e100), OrbitTag.TO_Q3,
     "below the Q4 ray at ln X = 230.3", 2),
], ids=["trap-1e10", "trap-1e100", "plunge-1e10", "ray-1e100"])
def test_start_on_a_stop_boundary_is_decided_at_escape(start, tag,
                                                       diagnostics, phases):
    # the plunge and ray starts lie exactly on their gap's zero: LSODA's
    # event search could not bracket the crossing there, and brentq raised a
    # ValueError on the trap line's starts before the trap grew past it
    orbit = integrate(start, ModelParams(3.0, 0.5, 3), 1e-3)
    assert orbit.termination.tag is tag
    assert orbit.termination.diagnostics == diagnostics
    assert len(orbit.eta) == 1
    assert orbit.stats == (PhaseStats("DOP853", 0, 0, 0, 1),
                           PhaseStats("LSODA", 0, 0, 0, 1))[:phases]


@pytest.mark.parametrize("start, ln_x", [
    (PhasePoint(1e300, -1e300), "690.8"), (PhasePoint(1e270, -1e270), "621.7"),
])
def test_start_on_the_q4_ray_is_below_it_not_trapped(start, ln_x):
    # exactly on the ray u = -(m-1) the trap's product u(u + m-1) is 0, so
    # its gap is -K X^(q-2) < 0, however small; a gap taken through the
    # root formula rounds the lower root onto the ray there and traps the
    # start.  Past ln X = ln(6/K)/(q-1) the ray is the edge of the stop below
    # it, which holds on its boundary
    orbit = integrate(start, SUPER, 1.0)
    assert orbit.termination == OrbitEnd(OrbitTag.TO_Q3, -1.0,
                                         f"below the Q4 ray at ln X = {ln_x}")
    assert orbit.stats == (PhaseStats("DOP853", 0, 0, 0, 1),
                           PhaseStats("LSODA", 0, 0, 0, 1))
    trapped = integrator._stops(SUPER, 1.0)[1][0]
    assert trapped(math.log(start.X), (-1.0,)) < 0.0


def _plunge_and_half_plane_trap(params, K):
    """Supercritical stops whose proofs need no root of the slope field: the
    plunge and the trap on the half-plane u >= -(m-1)/2."""
    m1, q = params.m - 1.0, params.power_ratio
    ln_x_trap = (math.log(4.0 * K) - 2.0 * math.log(m1)) / (2.0 - q)

    def plunged(s, y):
        return -(y[0] + 3.0 * m1)

    def trapped(s, y):
        return min(y[0] + 0.5 * m1, s - ln_x_trap)

    for gap in (plunged, trapped):
        gap.terminal, gap.direction = True, 1.0
    return [(plunged, OrbitTag.TO_Q3, "plunged"),
            (trapped, OrbitTag.TO_Q1, "trapped")]


@pytest.mark.parametrize("params, K", [
    (SUPER, 1.0), (SUPER, 2.5), (ModelParams(3.0, 0.5, 3), 8.0),
    (ModelParams(5.0, 0.9, 1), 6.0), (ModelParams(7.0, 0.5, 3), 24.0),
    (ModelParams(1.5, 0.6, 2), 0.06),
], ids=["2-0.5-4-K1", "2-0.5-4-K2.5", "3-0.5-3", "5-0.9-1", "7-0.5-3",
        "1.5-0.6-2"])
def test_stops_at_the_ray_end_as_plunge_and_half_plane_trap_prove(params, K):
    # starts drawn inside the trap above the lower root u- and inside the
    # stop below the Q4 ray, some within 1e-10 of their edge, run in the
    # slope chart with only the plunge and the half-plane trap: each ends
    # where the tag of the stop it was drawn in says
    rng = np.random.default_rng(11)
    m1, q = params.m - 1.0, params.power_ratio
    _, (trapped, _, _), (below, _, _) = integrator._stops(params, K)
    ln_x_trap = (math.log(4.0 * K) - 2.0 * math.log(m1)) / (2.0 - q)
    s_below = max(math.log(params.N / m1),
                  math.log((params.N * m1 + 2.0) / K) / params.power_excess)
    cases = []
    for _ in range(6):
        s = rng.uniform(0.0, 20.0) + max(ln_x_trap, math.log(X_BIG))
        E = K * math.exp((q - 2.0) * s)
        # u- = -(m-1) + 2E/(m-1 + sqrt((m-1)^2 - 4E)), free of cancellation
        lower = -m1 + 2.0 * E / (m1 + math.sqrt(m1 * m1 - 4.0 * E))
        r = 10.0 ** rng.uniform(-10.0, 0.0)
        cases.append((s, lower + r * (-0.5 * m1 - lower), trapped,
                      OrbitTag.TO_Q1))
        s = rng.uniform(0.0, 20.0) + max(s_below, math.log(X_BIG))
        r = 10.0 ** rng.uniform(-10.0, 0.0)
        cases.append((s, -m1 - r * 1.99 * m1, below, OrbitTag.TO_Q3))
    for s, u, gap, tag in cases:
        assert gap(s, (u,)) >= 0.0
        _, end, stats = integrator._slope_phase(
            params, K, s, u, 0.0, _plunge_and_half_plane_trap(params, K))
        assert end.tag is tag, (s, u, end)
        assert stats.status == 1


@pytest.mark.parametrize("m", [1.0002, 1.0001, 1.00001])
def test_stop_just_below_ln_x_0_prints_no_negative_zero(m):
    # the bound fires a rounding below ln X = 0 here, which {:.1f} printed
    # as -0.0
    end = integrate_from_p0(ModelParams(m, 0.5, 3), 1e3).termination
    assert end.tag is OrbitTag.TO_Q3
    assert end.diagnostics == "bound to plunge at ln X = 0.0"


@pytest.mark.parametrize("N", [1, 3])
def test_no_stop_by_the_ln_x_cap_is_unresolved(N):
    # just below m + p = 2 the bound to plunge cannot turn positive by the
    # cap, though the paper puts the orbit at Q3
    orbit = integrate_from_p0(ModelParams(1.5, 0.5 - 1e-9, N), 1e-3)
    end = orbit.termination
    assert end.tag is OrbitTag.UNRESOLVED
    assert end.diagnostics == "no stop fired by the ln X cap 600.0"
    slope = orbit.stats[1]
    assert (slope.method, slope.status) == ("LSODA", 0)


@pytest.mark.parametrize("start, params, K, eta_max, tag, diagnostics, phases", [
    (None, SUPER, 8.0, None, OrbitTag.TO_Q3, "plunged below the Q4 ray", 1),
    (None, SUPER, 0.1, 5.0, OrbitTag.UNRESOLVED, "eta budget exhausted at X=",
     1),
    # X falls at this start (Y >= 2/(m-1)), so the bound is not tested there
    (PhasePoint(90.0, 1e3), ModelParams(1.003, 0.5, 3), 1e-3, None,
     OrbitTag.UNRESOLVED, "X-Y step size fell below its minimum at X=90", 1),
    # the trap holds where ln X passes ln(4K/(m-1)^2)/(2-q) = 2 ln 0.4
    (None, SUPER, 0.1, None, OrbitTag.TO_Q1, f"{TRAPPED} at ln X = -1.8",
     1),
    # the critical trap above y2 is tested at escape only
    (None, CRIT, 0.05, None, OrbitTag.TO_Q1,
     "trapped above the Q4 slope -0.361803 at ln X = 4.6", 2),
    # a critical start that meets no stop (see
    # test_start_past_the_ln_x_cap_runs_no_lsoda_step)
    (PhasePoint(1e300, -1e300), CRIT, 0.05, None, OrbitTag.UNRESOLVED,
     "start at ln X = 690.8 is past the ln X cap 600.0", 2),
    (None, ModelParams(1.5, 0.501, 3), 0.065, None, OrbitTag.TO_Q3,
     "below the Q4 ray at ln X = 18.7", 2),
    (None, ModelParams(1.5, 0.5 - 1e-9, 3), 1e-3, None, OrbitTag.UNRESOLVED,
     "no stop fired by the ln X cap 600.0", 2),
], ids=["xy-plunge", "eta-budget", "overflowing-start", "stop-in-xy",
        "stop-at-escape", "start-past-cap", "stop-fired-in-run",
        "no-stop-by-cap"])
def test_every_ending_of_integrate(start, params, K, eta_max, tag, diagnostics,
                                   phases, monkeypatch):
    if eta_max is not None:
        monkeypatch.setattr(integrator, "ETA_MAX", eta_max)
    orbit = integrate(start or launch_from_p0(params, K), params, K)
    end = orbit.termination
    assert end.tag is tag
    assert end.diagnostics.startswith(diagnostics)
    # LSODA's slope once came back as np.float64
    assert type(end.final_slope) is float
    assert len(orbit.stats) == phases
    assert len(orbit.eta) == 1 + sum(phase.steps for phase in orbit.stats)
    assert len(orbit.X) == len(orbit.Y) == len(orbit.eta)
    # eta never decreases by more than LSODA's tolerance: near the cap its
    # increments in the slope chart fall below that tolerance
    assert np.all(np.diff(orbit.eta) >= -integrator.REL_TOL * orbit.eta[1:])


def test_orbit_stats_count_both_phases():
    # next to m + p = 2: LSODA steps until the bound to plunge holds
    orbit = integrate_from_p0(ModelParams(1.5, 0.49, 3), 1e-4)
    xy, slope = orbit.stats
    assert (xy.method, xy.njev, xy.status) == ("DOP853", 0, 1)
    assert (slope.method, slope.status) == ("LSODA", 1)
    # the first stage reuses the last slope: 12 evaluations per attempt,
    # plus 2 to choose the first step and 3 for the dense output of the
    # step with the escape
    assert (xy.nfev - 2 - 3) % 12 == 0 and xy.nfev >= 2 + 12 * xy.steps + 3
    assert slope.nfev > 0 and slope.njev > 0
    assert len(orbit.eta) == 1 + xy.steps + slope.steps


def _reference_slope(orbit, params, K):
    """LSODA in the slope chart from the orbit's last sample, run until the
    slope plunges below -3(m-1), rises through -1e-6(m-1), falls through the
    Q4 ray -(m-1) or s = 600.  The events are in that order."""
    m = params.m

    def down(s, y):
        return y[0] + 3.0 * (m - 1.0)

    def relaxed(s, y):
        return y[0] + 1e-6 * (m - 1.0)

    def below_ray(s, y):
        return y[0] + (m - 1.0)

    down.terminal, down.direction = True, -1.0
    relaxed.terminal, relaxed.direction = True, 1.0
    below_ray.terminal, below_ray.direction = True, -1.0
    s0 = np.log(orbit.X[-1])
    return solve_ivp(_rhs_slope(params, K), (s0, 600.0),
                     [orbit.Y[-1] / orbit.X[-1], orbit.eta[-1]],
                     method="LSODA", rtol=1e-10, atol=1e-12,
                     events=[down, relaxed, below_ray])


@pytest.mark.parametrize("params, K", [
    (SUPER, 0.1), (SUPER, 1.0), (SUPER, 2.548), (SUPER, 2.5488144),
    (ModelParams(3.0, 0.75, 3), 1.0),
], ids=["K0.1", "K1", "K2.548", "near-K*", "m3-p0.75"])
def test_trapped_orbit_relaxes_toward_q1(params, K):
    orbit = integrate_from_p0(params, K)
    end = orbit.termination
    assert end.tag is OrbitTag.TO_Q1
    assert end.diagnostics.startswith(TRAPPED)
    # the orbit ends above -(m-1)/2 or between the roots of
    # u^2 + (m-1)u + K X^(q-2), up to the rounding of the event root; near
    # K* that is well below -(m-1)/2
    m1, s = params.m - 1.0, math.log(orbit.X[-1])
    E = K * math.exp((params.power_ratio - 2.0) * s)
    u = end.final_slope
    assert u > -m1
    assert u > -0.5 * m1 - 1e-12 or u * (u + m1) + E < 1e-12
    ref = _reference_slope(orbit, params, K)
    assert ref.status == 1
    assert [len(t) for t in ref.t_events] == [0, 1, 0]


def test_trapped_at_escape_runs_no_slope_phase():
    # the trap holds before X_BIG: the X-Y phase ends at its root, where
    # X = (4K/(m-1)^2)^(1/(2-q)) = 0.4^2, and no slope-chart phase runs
    orbit = integrate_from_p0(SUPER, 0.1)
    (xy,) = orbit.stats
    assert xy.status == 1
    assert len(orbit.eta) == 1 + xy.steps
    assert orbit.X[-1] == pytest.approx(0.16, rel=1e-12)
    assert orbit.termination.final_slope == orbit.Y[-1] / orbit.X[-1]


def test_large_m_orbit_is_trapped():
    # large m: the slope of a Q1-bound orbit rises toward 0 from below and
    # is tagged once the trap holds
    end = integrate_from_p0(ModelParams(7.0, 0.5, 3), 1.0).termination
    assert end.tag is OrbitTag.TO_Q1
    assert end.diagnostics.startswith(TRAPPED)


@pytest.mark.parametrize("params, K", [
    (ModelParams(7.0, 0.5, 3), 0.01),
    (ModelParams(3.0, 0.2, 2), 1e-3),
    (ModelParams(3.0, 0.2, 2), 1e-4),
], ids=["m7-K0.01", "m3-p0.2-K1e-3", "m3-p0.2-K1e-4"])
def test_small_k_orbit_is_trapped_without_a_stiff_x_y_phase(params, K):
    # small K lingers below Y = 2/(m-1), where the -(m-1)XY term makes the
    # X-Y chart stiff at large X; the slope chart takes over at X_BIG, and
    # the trap, tested in the X-Y phase, ends these orbits well before it
    orbit = integrate_from_p0(params, K)
    end = orbit.termination
    assert end.tag is OrbitTag.TO_Q1
    assert end.diagnostics.startswith(TRAPPED)
    assert orbit.stats[0].nfev < 1e5


def test_start_past_x_big_near_m_1_is_bound_to_plunge():
    # q = 101: K e^((q-2)s) passes the float range at this start
    orbit = integrate(PhasePoint(9000.0, 0.0), ModelParams(1.005, 0.5, 3),
                      1e-3)
    end = orbit.termination
    assert end.tag is OrbitTag.TO_Q3
    assert end.diagnostics.startswith("bound to plunge")


def test_trap_waits_for_the_k_term():
    # near m + p = 2 the K term barely decays: this orbit escapes above
    # u = -(m-1)/2 with K e^((q-2)s) > (m-1)^2/4, is never trapped, and
    # falls through the Q4 ray, bound to plunge
    params = ModelParams(1.5, 0.501, 3)
    orbit = integrate_from_p0(params, 0.065)
    xy = orbit.stats[0]
    assert orbit.Y[xy.steps] / orbit.X[xy.steps] > -0.5 * (params.m - 1.0)
    end = orbit.termination
    assert end.tag is OrbitTag.TO_Q3
    assert end.diagnostics == "below the Q4 ray at ln X = 18.7"
    trapped = integrator._stops(params, 0.065)[1][0]
    s = np.log(orbit.X[xy.steps:])
    u = orbit.Y[xy.steps:] / orbit.X[xy.steps:]
    assert all(trapped(si, (ui,)) < 0.0 for si, ui in zip(s, u))


def test_very_large_m_is_trapped_at_the_launch(xy_budget):
    # m = 1e5: the trap holds from ln X = ln(4K/(m-1)^2)/(2-q) = -21.6, below
    # the launch at ln X = -13.8, where the slope is about 1/3.  The trap was
    # once tested only past X_BIG, and this orbit made 21.1M X-Y evaluations
    # on its way there
    orbit = integrate_from_p0(ModelParams(1e5, 0.5, 3), 1.0)
    end = orbit.termination
    assert end.tag is OrbitTag.TO_Q1
    assert end.diagnostics == f"{TRAPPED} at ln X = -13.8"
    assert orbit.stats == (PhaseStats("DOP853", 0, 0, 0, 1),)
    assert len(orbit.eta) == 1


@pytest.mark.parametrize("regime_name", ["supercritical", "critical",
                                         "subcritical"])
def test_tags_follow_the_paper_split_away_from_k_star(regime_name):
    # the paper's split of the P0-orbit's endpoint over K: Q1 below K*, Q3
    # above it, and Q3 at every K for m + p < 2.  K is drawn log-uniformly
    # over three decades on each side, at least a factor 2 from K*
    rng = np.random.default_rng(5)
    cases = []
    if regime_name == "supercritical":
        for params, k_star in ((SUPER, 2.5488157),
                               (ModelParams(3.0, 0.5, 3), 8.344726)):
            cases += [(params, k_star / 2.0 * 10.0 ** -rng.uniform(0.0, 3.0),
                       OrbitTag.TO_Q1) for _ in range(6)]
            cases += [(params, k_star * 2.0 * 10.0 ** rng.uniform(0.0, 3.0),
                       OrbitTag.TO_Q3) for _ in range(6)]
    elif regime_name == "critical":
        # K* = (m-1)^2/4; K <= (m-1)^2/8 or K >= (m-1)^2/2
        for _ in range(6):
            m = rng.uniform(1.05, 1.95)
            params = ModelParams(m, 2.0 - m, int(rng.integers(1, 5)))
            k_star = 0.25 * (m - 1.0) ** 2
            cases.append((params, k_star / 2.0 * 10.0 ** -rng.uniform(0.0, 3.0),
                          OrbitTag.TO_Q1))
            cases.append((params, k_star * 2.0 * 10.0 ** rng.uniform(0.0, 3.0),
                          OrbitTag.TO_Q3))
    else:
        # m + p <= 1.8: next to m + p = 2 the bound to plunge fires past the
        # ln X cap (see test_no_stop_by_the_ln_x_cap_is_unresolved)
        for _ in range(12):
            m = rng.uniform(1.05, 1.7)
            params = ModelParams(m, rng.uniform(0.05, 1.8 - m),
                                 int(rng.integers(1, 5)))
            cases.append((params, 10.0 ** rng.uniform(-4.0, 4.0),
                          OrbitTag.TO_Q3))
    for params, K, tag in cases:
        end = integrate_from_p0(params, K).termination
        assert end.tag is tag, (params, K, end)
