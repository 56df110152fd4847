import numpy as np
import pytest
from scipy.integrate import solve_ivp

from selfsim.integrator import (
    IntegratorOptions,
    OrbitTag,
    PhaseStats,
    integrate,
    integrate_from_p0,
    launch_from_p0,
    orbit_monotonicity_check,
    tightened,
)
from selfsim.params import DomainError, ModelParams
from selfsim.phaseplane import PhasePoint, planar_rhs

SUPER = ModelParams(2.0, 0.5, 4)
CRIT = ModelParams(1.5, 0.5, 3)
SUB = ModelParams(1.2, 0.5, 3)


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
    end = integrate_from_p0(CRIT, 0.05).termination
    assert end.tag is OrbitTag.TO_Q1
    assert end.final_slope == pytest.approx(-0.1381966011, rel=1e-4)


def test_x_monotone_below_cap():
    orbit = integrate_from_p0(SUPER, 8.0)
    cap = 2.0 / (SUPER.m - 1.0)
    mask = orbit.Y < cap
    X = orbit.X[mask]
    assert np.all(np.diff(X) > 0.0)
    assert np.all(np.diff(orbit.eta) > 0.0)


def test_tags_stable_under_tolerance_halving():
    opts = IntegratorOptions()
    tight = IntegratorOptions(rel_tol=opts.rel_tol / 2.0)
    for K, tag in ((0.1, OrbitTag.TO_Q1), (8.0, OrbitTag.TO_Q3)):
        a = integrate_from_p0(SUPER, K, opts).termination
        b = integrate_from_p0(SUPER, K, tight).termination
        assert a.tag is tag and b.tag is tag
        assert b.final_slope == pytest.approx(a.final_slope, rel=1e-4)


@pytest.mark.parametrize("delta", [1e-5, 1e-6, 1e-7])
def test_tags_stable_under_launch_offset(delta):
    opts = IntegratorOptions(launch_offset=delta)
    assert integrate_from_p0(SUPER, 0.1, opts).termination.tag is OrbitTag.TO_Q1
    assert integrate_from_p0(SUPER, 8.0, opts).termination.tag is OrbitTag.TO_Q3


def test_subcritical_grid_all_to_q3():
    for K in np.geomspace(1e-3, 1e3, 7):
        end = integrate_from_p0(SUB, float(K)).termination
        assert end.tag is OrbitTag.TO_Q3


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
    # limited by linear resampling of the sparse adaptive output
    assert again.X[-1] == pytest.approx(orbit.X[-1], rel=1e-8)
    y_old = np.interp(np.log(grid), np.log(orbit.X[i:]), orbit.Y[i:])
    y_new = np.interp(np.log(grid), np.log(again.X), again.Y)
    assert np.allclose(y_old, y_new, rtol=1e-3, atol=1e-5)


def test_monotone_in_k():
    assert orbit_monotonicity_check(SUPER, 0.1, 0.2)
    assert orbit_monotonicity_check(CRIT, 0.01, 0.05)


def test_monotonicity_preconditions():
    with pytest.raises(DomainError):
        orbit_monotonicity_check(SUPER, 0.2, 0.2)
    with pytest.raises(DomainError):
        orbit_monotonicity_check(SUPER, 0.3, 0.2)


def test_options_validation():
    with pytest.raises(DomainError):
        IntegratorOptions(rel_tol=-1.0)
    with pytest.raises(DomainError):
        IntegratorOptions(X_big=10.0)


def test_tightened_escalates():
    opts = IntegratorOptions()
    t = tightened(opts)
    assert t.rel_tol < opts.rel_tol
    assert t.eta_max > opts.eta_max


def test_launch_requires_positive_k():
    with pytest.raises(DomainError):
        launch_from_p0(SUPER, 0.0)


def test_integrate_requires_positive_start():
    with pytest.raises(DomainError):
        integrate(PhasePoint(0.0, 0.0), SUPER, 0.1)
    with pytest.raises(DomainError):
        integrate(PhasePoint(1.0, np.inf), SUPER, 0.1)


def _reference_xy(start, params, K, opts):
    """The X-Y phase as solve_ivp's RK45 runs it, with terminal events."""
    m = params.m

    def escape(eta, y):
        return y[0] - opts.X_big

    def plunge(eta, y):
        return y[1] + 3.0 * (m - 1.0) * y[0] + 10.0

    escape.terminal, escape.direction = True, 1.0
    plunge.terminal, plunge.direction = True, -1.0
    return solve_ivp(planar_rhs(params, K), (0.0, opts.eta_max),
                     [start.X, start.Y], method="RK45", rtol=opts.rel_tol,
                     atol=opts.abs_tol, events=[escape, plunge])


@pytest.mark.parametrize("params, K, opts, start, event", [
    (CRIT, 0.05, IntegratorOptions(), None, "escape"),
    (SUPER, 8.0, IntegratorOptions(), None, "plunge"),
    (SUPER, 2.5488157, IntegratorOptions(), None, "escape"),
    (SUB, 1.0, IntegratorOptions(), None, "plunge"),
    (ModelParams(2.0, 0.5, 1), 0.3, IntegratorOptions(), None, "escape"),
    (SUPER, 8.0, tightened(IntegratorOptions()), None, "plunge"),
    (SUPER, 0.1, IntegratorOptions(eta_max=5.0), None, None),
    # loose tolerances: about one attempt in three is rejected
    (SUPER, 1.0, IntegratorOptions(rel_tol=1e-3, abs_tol=1e-5),
     PhasePoint(0.5, 1.0), "escape"),
    (CRIT, 1.0, IntegratorOptions(rel_tol=1e-6, abs_tol=1e-8),
     PhasePoint(0.5, 1.0), "plunge"),
    # below scipy's floor of 100 eps, which both raise rtol to
    pytest.param(SUPER, 8.0, IntegratorOptions(rel_tol=1e-15), None, "plunge",
                 marks=pytest.mark.filterwarnings("ignore:At least one")),
], ids=["ToQ1", "ToQ3-plunge", "ToQ3-past-X_big", "subcritical", "N1",
        "tightened", "eta-exhausted", "rejections-escape",
        "rejections-plunge", "rtol-floor"])
def test_xy_phase_steps_as_solve_ivp_rk45(params, K, opts, start, event):
    start = start or launch_from_p0(params, K, opts)
    ref = _reference_xy(start, params, K, opts)
    orbit = integrate(start, params, K, opts)
    xy = orbit.stats[0]
    assert xy.method == "RK45"
    assert (xy.nfev, xy.njev, xy.steps, xy.status) == (
        ref.nfev, 0, len(ref.t) - 1, ref.status)
    fired = [name for name, t in zip(("escape", "plunge"), ref.t_events)
             if len(t)]
    assert fired == ([event] if event else [])
    assert len(orbit.stats) == (2 if event == "escape" else 1)
    n = xy.steps
    np.testing.assert_allclose(orbit.eta[n], ref.t[-1], rtol=1e-10)
    np.testing.assert_allclose([orbit.X[n], orbit.Y[n]], ref.y[:, -1],
                               rtol=1e-10)


def test_start_below_plunge_line_is_q3():
    orbit = integrate(PhasePoint(1.0, -20.0), SUPER, 1.0)
    end = orbit.termination
    assert end.tag is OrbitTag.TO_Q3
    assert end.diagnostics == "plunged below the Q4 ray"
    assert end.final_slope == -20.0
    assert list(orbit.X) == [1.0] and list(orbit.Y) == [-20.0]
    assert orbit.stats == (PhaseStats("RK45", 0, 0, 0, 1),)


@pytest.mark.parametrize("m, start, tag, samples", [
    # the norm of the first slope overflows: the first trial step is 0
    (1.01, PhasePoint(1000.0, 0.0), OrbitTag.TO_Q3, 176),
    # X^q overflows a Python float at the start: no step is taken
    (1.005, PhasePoint(9000.0, 0.0), OrbitTag.UNRESOLVED, 1),
])
def test_overflow_at_the_start_ends_as_under_solve_ivp(m, start, tag, samples):
    # solve_ivp ended these orbits the same way, with overflow warnings
    orbit = integrate(start, ModelParams(m, 0.5, 3), 1e-3)
    assert orbit.termination.tag is tag
    assert len(orbit.eta) == samples


def test_orbit_stats_count_both_phases():
    orbit = integrate_from_p0(SUPER, 0.1)
    xy, slope = orbit.stats
    assert (xy.method, xy.njev, xy.status) == ("RK45", 0, 1)
    assert (slope.method, slope.status) == ("LSODA", 1)
    # the first stage reuses the last slope: 6 evaluations per attempt,
    # plus 2 to choose the first step
    assert (xy.nfev - 2) % 6 == 0 and xy.nfev >= 2 + 6 * xy.steps
    assert slope.nfev > 0 and slope.njev > 0
    assert len(orbit.eta) == 1 + xy.steps + slope.steps
