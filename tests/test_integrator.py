import numpy as np
import pytest
from scipy.integrate import DOP853, solve_ivp

from selfsim import integrator
from selfsim.integrator import (
    X_BIG,
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


def test_launch_requires_positive_k():
    with pytest.raises(DomainError):
        launch_from_p0(SUPER, 0.0)


def test_launch_and_integrate_require_finite_k():
    with pytest.raises(DomainError, match="^K "):
        launch_from_p0(SUPER, np.inf)
    with pytest.raises(DomainError, match="^K "):
        integrate(PhasePoint(1e-6, 0.5e-6), SUPER, np.inf)


def test_integrate_requires_positive_start():
    with pytest.raises(DomainError):
        integrate(PhasePoint(0.0, 0.0), SUPER, 0.1)
    with pytest.raises(DomainError):
        integrate(PhasePoint(1.0, np.inf), SUPER, 0.1)


def _reference_xy(start, params, K):
    """The X-Y phase as solve_ivp's DOP853 runs it, with terminal events."""
    m = params.m
    field = planar_field(params, K)

    def escape(eta, y):
        return y[0] - X_BIG

    def plunge(eta, y):
        return y[1] + 3.0 * (m - 1.0) * y[0] + 10.0

    escape.terminal, escape.direction = True, 1.0
    plunge.terminal, plunge.direction = True, -1.0
    return solve_ivp(lambda eta, y: field(*y), (0.0, integrator.ETA_MAX),
                     [start.X, start.Y], method="DOP853",
                     rtol=integrator.REL_TOL, atol=integrator.ABS_TOL,
                     events=[escape, plunge])


@pytest.mark.parametrize("params, K, tols, eta_max, start, event", [
    (CRIT, 0.05, None, None, None, "escape"),
    (SUPER, 8.0, None, None, None, "plunge"),
    (SUPER, 2.5488157, None, None, None, "escape"),
    (SUB, 1.0, None, None, None, "plunge"),
    (ModelParams(2.0, 0.5, 1), 0.3, None, None, None, "escape"),
    (SUPER, 8.0, (1e-12, 1e-14), None, None, "plunge"),
    (SUPER, 0.1, None, 5.0, None, None),
    # loose tolerances: about one attempt in three is rejected
    (SUPER, 1.0, (1e-3, 1e-5), None, PhasePoint(0.5, 1.0), "escape"),
    (CRIT, 1.0, (1e-6, 1e-8), None, PhasePoint(0.5, 1.0), "plunge"),
    # N = 2, where P0 is a saddle-node
    (ModelParams(2.0, 0.5, 2), 0.3, None, None, None, "escape"),
    # the below-axis start of the portrait command
    (SUPER, 1.0, None, None, PhasePoint(2.0, -2.0), "escape"),
    # a long run: 1450 steps
    (ModelParams(7.0, 0.5, 3), 0.5, None, None, None, "escape"),
] + [
    # near m = 1, q = (m-p)/(m-1) passes 2500 and K X^q overflows in
    # rejected attempts
    (ModelParams(m, 0.5, 3), K, None, None, None, "plunge")
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
    fired = [name for name, t in zip(("escape", "plunge"), ref.t_events)
             if len(t)]
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
    # ran the X-Y phase to its eta budget
    monkeypatch.setattr(integrator, "ETA_MAX", 0.05)
    orbit = integrate(PhasePoint(2e4, 0.0), SUPER, 0.1)
    assert orbit.termination.tag is OrbitTag.TO_Q1
    assert orbit.stats[0] == PhaseStats("DOP853", 0, 0, 0, 1)
    assert orbit.stats[1].method == "LSODA"


#: X-Y field evaluations an orbit may make under the xy_budget fixture
XY_BUDGET = 200_000


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
    # millions of evaluations.  The escape here comes once Y falls below
    # 2/(m-1), at the end of that step, so no dense output is built
    orbit = integrate(start, params, K)
    end = orbit.termination
    assert end.tag is OrbitTag.TO_Q1
    assert end.diagnostics == (
        f"trapped above the slope -(m-1)/2 at ln X = {ln_x}")
    xy = orbit.stats[0]
    assert (xy.nfev, xy.steps, xy.status) == (nfev, steps, 1)
    assert (xy.nfev - 2) % 12 == 0
    assert orbit.X[steps] >= X_BIG
    assert orbit.Y[steps] < 2.0 / (params.m - 1.0)


def test_start_past_x_big_with_x_falling_can_plunge_in_the_slope_chart():
    # this orbit once plunged in the X-Y chart after 65 steps
    orbit = integrate(PhasePoint(150.0, 3.0), SUPER, 8.0)
    end = orbit.termination
    assert end.tag is OrbitTag.TO_Q3
    assert end.diagnostics == "plunged below the Q4 ray (slope chart)"
    assert orbit.stats[0].steps == 1


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
    # lets every run go to LN_X_CAP, and each stop fires well before either
    want = {
        (1.2, 1): ["10.7", "7.7", "6.4", "5.2"],
        (1.2, 3): ["10.8", "7.8", "6.5", "5.3"],
        (1.05, 3): ["5.4", None, None, None],
    }[params.m, params.N]
    for K, ln_x in zip((1e-9, 1e-7, 1e-6, 1e-5), want):
        end = integrate_from_p0(params, K).termination
        assert end.tag is OrbitTag.TO_Q3
        assert end.diagnostics == (f"bound to plunge at ln X = {ln_x}" if ln_x
                                   else "plunged below the Q4 ray")


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
def test_overflow_at_the_start_ends_as_under_solve_ivp(m, start, tag, samples):
    # solve_ivp ended the last three orbits the same way, with overflow
    # warnings; an orbit that takes no step names its step-size failure
    params = ModelParams(m, 0.5, 3)
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


@pytest.mark.parametrize("start, tag, diagnostics, status", [
    (PhasePoint(1e300, -1e300), OrbitTag.UNRESOLVED,
     "start at ln X = 690.8 is past the ln X cap 600.0", 0),
    (PhasePoint(1e270, -1e270), OrbitTag.UNRESOLVED,
     "start at ln X = 621.7 is past the ln X cap 600.0", 0),
    # the stops are tested at escape before the cap
    (PhasePoint(1e300, 0.0), OrbitTag.TO_Q1,
     "trapped above the slope -(m-1)/2 at ln X = 690.8", 1),
])
def test_start_past_the_ln_x_cap_runs_no_lsoda_step(start, tag, diagnostics,
                                                    status):
    # LSODA was handed the span (ln X, 600) and stepped down in s
    orbit = integrate(start, SUPER, 1.0)
    assert orbit.termination.tag is tag
    assert orbit.termination.diagnostics == diagnostics
    assert len(orbit.eta) == 1
    assert orbit.stats == (PhaseStats("DOP853", 0, 0, 0, 1),
                           PhaseStats("LSODA", 0, 0, 0, status))


@pytest.mark.parametrize("start, tag, diagnostics", [
    # on the trap line u = -(m-1)/2 = -1, with the K term below (m-1)^2/4
    (PhasePoint(1e10, -1e10), OrbitTag.TO_Q1,
     "trapped above the slope -(m-1)/2 at ln X = 23.0"),
    (PhasePoint(1e100, -1e100), OrbitTag.TO_Q1,
     "trapped above the slope -(m-1)/2 at ln X = 230.3"),
    # on the plunge line u = -3(m-1) = -6, where u falls
    (PhasePoint(1e10, -6e10), OrbitTag.TO_Q3,
     "plunged below the Q4 ray (slope chart)"),
], ids=["trap-1e10", "trap-1e100", "plunge-1e10"])
def test_start_on_a_stop_boundary_is_decided_at_escape(start, tag,
                                                       diagnostics):
    # the gap is exactly 0 at the start: LSODA's event search could not
    # bracket the crossing and brentq raised a ValueError
    orbit = integrate(start, ModelParams(3.0, 0.5, 3), 1e-3)
    assert orbit.termination.tag is tag
    assert orbit.termination.diagnostics == diagnostics
    assert len(orbit.eta) == 1
    assert orbit.stats == (PhaseStats("DOP853", 0, 0, 0, 1),
                           PhaseStats("LSODA", 0, 0, 0, 1))


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
    (PhasePoint(90.0, 0.0), ModelParams(1.003, 0.5, 3), 1e-3, None,
     OrbitTag.UNRESOLVED, "X-Y step size fell below its minimum at X=90", 1),
    (None, SUPER, 0.1, None, OrbitTag.TO_Q1,
     "trapped above the slope -(m-1)/2 at ln X = 4.6", 2),
    (PhasePoint(1e300, -1e300), SUPER, 1.0, None, OrbitTag.UNRESOLVED,
     "start at ln X = 690.8 is past the ln X cap 600.0", 2),
    (None, ModelParams(1.5, 0.501, 3), 0.065, None, OrbitTag.TO_Q3,
     "plunged below the Q4 ray (slope chart)", 2),
    (None, ModelParams(1.5, 0.5 - 1e-9, 3), 1e-3, None, OrbitTag.UNRESOLVED,
     "no stop fired by the ln X cap 600.0", 2),
], ids=["xy-plunge", "eta-budget", "overflowing-start", "stop-at-escape",
        "start-past-cap", "stop-fired-in-run", "no-stop-by-cap"])
def test_every_ending_of_integrate(start, params, K, eta_max, tag, diagnostics,
                                   phases, monkeypatch):
    if eta_max is not None:
        monkeypatch.setattr(integrator, "ETA_MAX", eta_max)
    orbit = integrate(start or launch_from_p0(params, K), params, K)
    end = orbit.termination
    assert end.tag is tag
    assert end.diagnostics.startswith(diagnostics)
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
    slope plunges below -3(m-1), rises through -1e-6(m-1) or s = 600."""
    m = params.m

    def down(s, y):
        return y[0] + 3.0 * (m - 1.0)

    def relaxed(s, y):
        return y[0] + 1e-6 * (m - 1.0)

    down.terminal, down.direction = True, -1.0
    relaxed.terminal, relaxed.direction = True, 1.0
    s0 = np.log(orbit.X[-1])
    return solve_ivp(_rhs_slope(params, K), (s0, 600.0),
                     [orbit.Y[-1] / orbit.X[-1], orbit.eta[-1]],
                     method="LSODA", rtol=1e-10, atol=1e-12,
                     events=[down, relaxed])


@pytest.mark.parametrize("params, K", [
    (SUPER, 0.1), (SUPER, 1.0), (SUPER, 2.548), (SUPER, 2.5488144),
    (ModelParams(3.0, 0.75, 3), 1.0),
], ids=["K0.1", "K1", "K2.548", "near-K*", "m3-p0.75"])
def test_trapped_orbit_relaxes_toward_q1(params, K):
    orbit = integrate_from_p0(params, K)
    end = orbit.termination
    assert end.tag is OrbitTag.TO_Q1
    assert end.diagnostics.startswith("trapped above the slope -(m-1)/2")
    # the event root may sit a rounding error below the line
    assert end.final_slope > -0.5 * (params.m - 1.0) - 1e-12
    ref = _reference_slope(orbit, params, K)
    assert ref.status == 1
    assert len(ref.t_events[0]) == 0 and len(ref.t_events[1]) == 1


def test_trapped_at_escape_runs_no_slope_phase():
    orbit = integrate_from_p0(SUPER, 0.1)
    xy, slope = orbit.stats
    assert slope == PhaseStats("LSODA", 0, 0, 0, 1)
    assert len(orbit.eta) == 1 + xy.steps
    assert orbit.X[-1] == pytest.approx(X_BIG, rel=1e-12)
    assert orbit.termination.final_slope == orbit.Y[-1] / orbit.X[-1]


def test_large_m_orbit_is_trapped():
    # large m: the slope of a Q1-bound orbit rises toward 0 from below and
    # is tagged once the trap above -(m-1)/2 holds
    end = integrate_from_p0(ModelParams(7.0, 0.5, 3), 1.0).termination
    assert end.tag is OrbitTag.TO_Q1
    assert end.diagnostics.startswith("trapped above the slope -(m-1)/2")


@pytest.mark.parametrize("params, K", [
    (ModelParams(7.0, 0.5, 3), 0.01),
    (ModelParams(3.0, 0.2, 2), 1e-3),
    (ModelParams(3.0, 0.2, 2), 1e-4),
], ids=["m7-K0.01", "m3-p0.2-K1e-3", "m3-p0.2-K1e-4"])
def test_small_k_orbit_is_trapped_without_a_stiff_x_y_phase(params, K):
    # small K lingers below Y = 2/(m-1), where the -(m-1)XY term makes the
    # X-Y chart stiff at large X; the slope chart takes over at X_BIG
    orbit = integrate_from_p0(params, K)
    end = orbit.termination
    assert end.tag is OrbitTag.TO_Q1
    assert end.diagnostics.startswith("trapped above the slope -(m-1)/2")
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
    # u = -(m-1)/2 with K e^((q-2)s) > (m-1)^2/4 and still plunges
    params = ModelParams(1.5, 0.501, 3)
    orbit = integrate_from_p0(params, 0.065)
    xy = orbit.stats[0]
    assert orbit.Y[xy.steps] / orbit.X[xy.steps] > -0.5 * (params.m - 1.0)
    end = orbit.termination
    assert end.tag is OrbitTag.TO_Q3
    assert end.diagnostics == "plunged below the Q4 ray (slope chart)"
