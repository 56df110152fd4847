"""Adaptive integration of the planar system with endpoint classification.

Orbits of the planar system, whose one right-hand side is
``phaseplane.planar_rhs``, are advanced in the autonomous time eta by an
in-module scalar Dormand-Prince 5(4) loop: the method, tableau, initial
step, error norm and step-size controller of scipy's RK45, step for step,
with the escape and plunge events tested as two scalars after each
accepted step instead of through ``solve_ivp``'s per-step event machinery.
The free boundary of the profile is only reached as X -> infinity, so
classification happens at escape:

* an orbit plunging far below the ray Y = -(m-1)X is conclusively headed
  to the vertical stable node Q3;
* once X exceeds ``X_big`` the integration switches to the slope chart
  (u, s) = (Y/X, ln X), which stays well-scaled over hundreds of e-folds
  of X; this is what resolves the slow saddle(-node) passage near the
  critical shooting parameter;
* the final slope u is compared against the known ray slopes of the
  critical points at infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
from scipy.integrate import RK45, solve_ivp
from scipy.optimize import brentq

from selfsim.params import DomainError, ModelParams, Regime, regime
from selfsim.phaseplane import (
    PhasePoint,
    critical_slopes,
    launch_slope,
    planar_rhs,
)

#: half-width, in units of m - 1, of the slope windows that match an escape
#: slope to a ray slope at infinity
RATIO_WINDOW = 0.15
#: points of the shared X-grid on which orbit_monotonicity_check compares
MONOTONICITY_GRID = 60

# Dormand-Prince 5(4) (Hairer, Norsett & Wanner, Solving ODEs I, II.4-5):
# scipy's RK45 tableau read as Python floats, its rows cut to the stages
# they combine
_C = RK45.C.tolist()
_A = [row[:s] for s, row in enumerate(RK45.A.tolist())]
_B = RK45.B.tolist()
_E = RK45.E.tolist()
_P = RK45.P.tolist()
_ERROR_EXPONENT = -1.0 / (RK45.error_estimator_order + 1)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_EPS = float(np.finfo(float).eps)
_SQRT2 = 2.0**0.5


@dataclass(frozen=True)
class IntegratorOptions:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    eta_max: float = 1e3
    X_big: float = 1e4
    launch_offset: float = 1e-6
    #: cap on ln X for the slope-chart escape phase
    ln_x_cap: float = 600.0

    def __post_init__(self) -> None:
        for name in ("rel_tol", "abs_tol", "eta_max", "X_big",
                     "launch_offset", "ln_x_cap"):
            if not getattr(self, name) > 0.0:
                raise DomainError(f"{name} must be positive")
        if self.X_big < 1e3:
            raise DomainError("X_big must be at least 1e3")


class OrbitTag(Enum):
    TO_Q1 = "ToQ1"
    TO_Q4 = "ToQ4"
    TO_Q3 = "ToQ3"
    UNRESOLVED = "Unresolved"


@dataclass(frozen=True)
class OrbitEnd:
    tag: OrbitTag
    final_slope: float
    diagnostics: str = ""


@dataclass(frozen=True)
class PhaseStats:
    """Solver counts of one integration phase.

    ``status`` follows ``solve_ivp``: -1 the step size fell below its
    minimum, 0 the end of the interval was reached, 1 an event ended it.
    """

    method: str
    nfev: int
    njev: int
    steps: int
    status: int


@dataclass(frozen=True)
class Orbit:
    """An integrated trajectory: samples (eta, X, Y) plus termination data.

    ``stats`` holds one record per phase that ran: the X-Y phase, then the
    slope-chart phase if the orbit escaped past ``X_big``.
    """

    eta: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    termination: OrbitEnd
    stats: tuple[PhaseStats, ...] = ()


def launch_from_p0(
    params: ModelParams, K: float, opts: IntegratorOptions | None = None
) -> PhasePoint:
    """Starting point a small offset along the distinguished direction at P0.

    The offset is applied on the X axis with the second-order correction

        Y(X) = (2/N)*X - [K(m-1) / (N(m-1) + 2(1-p))] * X^((m-p)/(m-1))

    (the 2/N slope becomes 1 for N=2 and 2 for N=1; the correction
    coefficient formula covers all dimensions).
    """
    if not K > 0.0:
        raise DomainError(f"K must be positive, got {K}")
    opts = opts or IntegratorOptions()
    delta = opts.launch_offset
    m, N, q = params.m, params.N, params.power_ratio
    corr = K * (m - 1.0) / (N * (m - 1.0) + 2.0 * (1.0 - params.p))
    Y = launch_slope(params) * delta - corr * delta**q
    return PhasePoint(X=delta, Y=Y)


def _rhs_slope(params: ModelParams, K: float):
    # slope chart: u = Y/X, s = ln X; state is (u, eta)
    m, N, q = params.m, params.N, params.power_ratio

    def rhs(s, y):
        u = y[0]
        inv_x = math.exp(-s) if s < 700.0 else 0.0
        frac = K * math.exp((q - 2.0) * s)
        num = -(u * u + (m - 1.0) * u) - frac - (N * u - 2.0) * inv_x
        den = 2.0 * inv_x - (m - 1.0) * u
        if den <= 0.0:
            # above the line Y = 2/(m-1): outside this chart's validity
            return (math.nan, math.nan)
        return (num / den, inv_x / den)

    return rhs


def _classify_slope(params: ModelParams, K: float, u: float) -> OrbitTag:
    """Match an escape slope u = Y/X against the infinity ray slopes."""
    m = params.m
    reg = regime(params)
    if reg is Regime.CRITICAL:
        slopes = critical_slopes(params, K)
        if slopes is not None:
            y1, y2 = slopes
            if u > -0.5 * (m - 1.0):
                return OrbitTag.TO_Q1
            if abs(u - y2) < RATIO_WINDOW * (m - 1.0) and u > y2:
                return OrbitTag.TO_Q4
            if u < y2 - RATIO_WINDOW * (m - 1.0):
                return OrbitTag.TO_Q3
            return OrbitTag.UNRESOLVED
        # no Q1/Q4: only a plunge to Q3 is conclusive
        if u < -(m - 1.0):
            return OrbitTag.TO_Q3
        return OrbitTag.UNRESOLVED
    if reg is Regime.SUBCRITICAL:
        if u < -(m - 1.0) * (1.0 + RATIO_WINDOW):
            return OrbitTag.TO_Q3
        return OrbitTag.UNRESOLVED
    # supercritical
    if u > -(m - 1.0) / m + RATIO_WINDOW * (m - 1.0):
        return OrbitTag.TO_Q1
    if abs(u + (m - 1.0)) < RATIO_WINDOW * (m - 1.0):
        return OrbitTag.TO_Q4
    if u < -(m - 1.0) * (1.0 + RATIO_WINDOW):
        return OrbitTag.TO_Q3
    return OrbitTag.UNRESOLVED


def _rms(a: float, b: float) -> float:
    """RMS norm of a 2-vector, as scipy's solvers take it."""
    return math.sqrt(a * a + b * b) / _SQRT2


def _dense(t_old: float, h: float, x_old: float, y_old: float, kx, ky):
    """The quartic dense output of one Dormand-Prince step, as RK45's."""
    qx = [sum(k * P[i] for k, P in zip(kx, _P)) for i in range(4)]
    qy = [sum(k * P[i] for k, P in zip(ky, _P)) for i in range(4)]

    def at(t: float) -> tuple[float, float]:
        r = (t - t_old) / h
        powers = (r, r * r, r * r * r, r * r * r * r)
        return (
            h * sum(q * w for q, w in zip(qx, powers)) + x_old,
            h * sum(q * w for q, w in zip(qy, powers)) + y_old,
        )

    return at


def _xy_phase(
    params: ModelParams, K: float, start: PhasePoint, opts: IntegratorOptions
):
    """Step the planar system from ``start`` until an event or ``eta_max``.

    This is scipy's RK45 on two floats: the same initial step, stages,
    error norm, step-size controller and quartic dense output.  The events
    are tested after each accepted step: X rising through ``X_big`` is an
    escape, Y + 3(m-1)X + 10 falling through 0, far below the Q4 ray, is a
    plunge.  An event's root is found on the dense output with ``brentq``
    and becomes the last sample; if both occur in one step the earlier
    root wins.  A start already below the plunge line is a plunge before
    the first step.

    Returns the samples (eta, X, Y) as lists, the event that ended the
    phase ("escape", "plunge" or None) and the phase's ``PhaseStats``.
    """
    rhs = planar_rhs(params, K)
    m3 = 3.0 * (params.m - 1.0)
    x_big, t_bound, atol = opts.X_big, opts.eta_max, opts.abs_tol
    rtol = max(opts.rel_tol, 100.0 * _EPS)  # scipy's floor under rtol

    def escape_gap(X: float, Y: float) -> float:
        return X - x_big

    def plunge_gap(X: float, Y: float) -> float:
        return Y + m3 * X + 10.0

    t, x, y = 0.0, start.X, start.Y
    ts, xs, ys = [t], [x], [y]
    g_escape, g_plunge = escape_gap(x, y), plunge_gap(x, y)
    if g_plunge < 0.0:
        return ts, xs, ys, "plunge", PhaseStats("RK45", 0, 0, 0, 1)

    def rhs_or_nan(X: float, Y: float) -> tuple[float, float]:
        # at a start with X^q past the float range, numpy's float64 power
        # overflows to inf where a Python float's raises; either way no
        # step is taken
        try:
            return rhs(0.0, (X, Y))
        except OverflowError:
            return math.nan, math.nan

    # initial step (Hairer, Norsett & Wanner II.4), as select_initial_step
    fx, fy = rhs_or_nan(x, y)
    sx, sy = atol + abs(x) * rtol, atol + abs(y) * rtol
    d0, d1 = _rms(x / sx, y / sy), _rms(fx / sx, fy / sy)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_bound)
    f1x, f1y = rhs_or_nan(x + h0 * fx, y + h0 * fy)
    # h0 is 0 only where d1 is infinite; the first step is then 0 too
    d2 = _rms((f1x - fx) / sx, (f1y - fy) / sy) / h0 if h0 else math.inf
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_ERROR_EXPONENT
    h_abs = min(100.0 * h0, h1, t_bound)
    nfev = 2

    kx, ky = [0.0] * 7, [0.0] * 7
    event = status = None
    while status is None:
        min_step = 10.0 * math.ulp(t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while h_abs >= min_step:
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = h
            kx[0], ky[0] = fx, fy
            for s in range(1, 6):
                dx = dy = 0.0
                for kxj, kyj, a in zip(kx, ky, _A[s]):
                    dx += kxj * a
                    dy += kyj * a
                kx[s], ky[s] = rhs(t + _C[s] * h, (x + dx * h, y + dy * h))
            dx = dy = 0.0
            for kxj, kyj, b in zip(kx, ky, _B):
                dx += kxj * b
                dy += kyj * b
            x_new, y_new = x + h * dx, y + h * dy
            kx[6], ky[6] = rhs(t_new, (x_new, y_new))
            nfev += 6
            ex = ey = 0.0
            for kxj, kyj, e in zip(kx, ky, _E):
                ex += kxj * e
                ey += kyj * e
            err = _rms(
                ex * h / (atol + max(abs(x), abs(x_new)) * rtol),
                ey * h / (atol + max(abs(y), abs(y_new)) * rtol),
            )
            if err < 1.0:
                factor = (_MAX_FACTOR if err == 0.0 else
                          min(_MAX_FACTOR, _SAFETY * err**_ERROR_EXPONENT))
                h_abs *= min(1.0, factor) if rejected else factor
                break
            h_abs *= max(_MIN_FACTOR, _SAFETY * err**_ERROR_EXPONENT)
            rejected = True
        else:
            status = -1
            break

        g_escape_new = escape_gap(x_new, y_new)
        g_plunge_new = plunge_gap(x_new, y_new)
        escaped = g_escape <= 0.0 <= g_escape_new
        plunged = g_plunge >= 0.0 >= g_plunge_new
        if escaped or plunged:
            at = _dense(t, h, x, y, kx, ky)
            t_new, event = min(
                (brentq(lambda s, gap=gap: gap(*at(s)), t, t_new,
                        xtol=4.0 * _EPS, rtol=4.0 * _EPS), name)
                for gap, name, hit in ((escape_gap, "escape", escaped),
                                       (plunge_gap, "plunge", plunged))
                if hit
            )
            x_new, y_new = at(t_new)
            status = 1
        elif t_new >= t_bound:
            status = 0
        t, x, y, fx, fy = t_new, x_new, y_new, kx[6], ky[6]
        g_escape, g_plunge = g_escape_new, g_plunge_new
        ts.append(t)
        xs.append(x)
        ys.append(y)
    return ts, xs, ys, event, PhaseStats("RK45", nfev, 0, len(ts) - 1, status)


def integrate(
    start: PhasePoint,
    params: ModelParams,
    K: float,
    opts: IntegratorOptions | None = None,
) -> Orbit:
    """Integrate from ``start`` until the orbit's endpoint can be classified.

    Termination is a value, not an error: orbits that cannot be resolved
    within the eta and ln X budgets end with tag ``Unresolved``.
    """
    if not start.X > 0.0:
        raise DomainError("start.X must be positive")
    if not (math.isfinite(start.X) and math.isfinite(start.Y)):
        raise DomainError("start must be finite")
    if not K > 0.0:
        raise DomainError(f"K must be positive, got {K}")
    opts = opts or IntegratorOptions()
    m = params.m

    eta, X, Y, event, xy_stats = _xy_phase(params, K, start, opts)
    eta, X, Y = np.array(eta), np.array(X), np.array(Y)
    stats = (xy_stats,)
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
        end = OrbitEnd(
            tag=OrbitTag.UNRESOLVED,
            final_slope=math.nan,
            diagnostics="nonfinite state during integration",
        )
        keep = np.isfinite(X) & np.isfinite(Y)
        return Orbit(eta=eta[keep], X=X[keep], Y=Y[keep], termination=end,
                     stats=stats)

    slope = Y[-1] / X[-1] if X[-1] > 0.0 else -math.inf

    if event == "plunge":
        end = OrbitEnd(tag=OrbitTag.TO_Q3, final_slope=slope,
                       diagnostics="plunged below the Q4 ray")
        return Orbit(eta=eta, X=X, Y=Y, termination=end, stats=stats)

    if event is None:
        end = OrbitEnd(
            tag=OrbitTag.UNRESOLVED,
            final_slope=slope,
            diagnostics=f"eta budget exhausted at X={X[-1]:.3g}",
        )
        return Orbit(eta=eta, X=X, Y=Y, termination=end, stats=stats)

    # escape phase in the slope chart (u, s) = (Y/X, ln X)
    s0 = math.log(X[-1])
    u0 = slope
    q = params.power_ratio
    s_cap = opts.ln_x_cap if q <= 2.0 else min(opts.ln_x_cap, 690.0 / (q - 2.0))

    def ev_down(s, y):
        return y[0] + 3.0 * (m - 1.0)

    ev_down.terminal = True
    ev_down.direction = -1.0

    def ev_relaxed(s, y):
        # slope rising back toward 0: conclusively in the Q1 basin
        return y[0] + 1e-6 * (m - 1.0)

    ev_relaxed.terminal = True
    ev_relaxed.direction = 1.0

    # the slope relaxes onto a slow manifold whose attraction rate grows
    # exponentially in s: stiff, so use an implicit-capable method here
    sol2 = solve_ivp(
        _rhs_slope(params, K),
        (s0, s_cap),
        [u0, eta[-1]],
        method="LSODA",
        rtol=max(opts.rel_tol, 1e-12),
        atol=max(opts.abs_tol, 1e-14),
        events=[ev_down, ev_relaxed],
    )
    u_arr, eta2 = sol2.y
    s_arr = sol2.t
    finite = np.isfinite(u_arr)
    u_arr, eta2, s_arr = u_arr[finite], eta2[finite], s_arr[finite]
    diag = ""
    if len(u_arr) == 0:
        u_final = u0
        tag = OrbitTag.UNRESOLVED
        diag = "slope chart integration failed"
    else:
        u_final = u_arr[-1]
        if len(sol2.t_events[0]) > 0:
            tag = OrbitTag.TO_Q3
            diag = "plunged below the Q4 ray (slope chart)"
        else:
            tag = _classify_slope(params, K, u_final)
            if sol2.status == -1:
                diag = f"slope chart stalled at ln X = {s_arr[-1]:.1f}"
            elif tag is OrbitTag.UNRESOLVED:
                diag = f"slope {u_final:.6g} inconclusive at ln X = {s_arr[-1]:.1f}"

    if len(s_arr) > 1:
        with np.errstate(over="ignore"):
            X2 = np.exp(s_arr[1:])
            Y2 = u_arr[1:] * X2
        eta = np.concatenate([eta, eta2[1:]])
        X = np.concatenate([X, X2])
        Y = np.concatenate([Y, Y2])

    end = OrbitEnd(tag=tag, final_slope=u_final, diagnostics=diag)
    slope_stats = PhaseStats("LSODA", int(sol2.nfev), int(sol2.njev),
                             len(sol2.t) - 1, int(sol2.status))
    return Orbit(eta=eta, X=X, Y=Y, termination=end,
                 stats=stats + (slope_stats,))


def integrate_from_p0(
    params: ModelParams, K: float, opts: IntegratorOptions | None = None
) -> Orbit:
    """Convenience: launch from P0 and integrate."""
    opts = opts or IntegratorOptions()
    return integrate(launch_from_p0(params, K, opts), params, K, opts)


def orbit_monotonicity_check(
    params: ModelParams,
    K1: float,
    K2: float,
    opts: IntegratorOptions | None = None,
) -> bool:
    """Check that the P0-orbit moves down pointwise as K increases.

    Both orbits are resampled as Y(X) on a shared logarithmic X-grid below
    the line Y = 2/(m-1); returns True iff Y_{K2}(X) < Y_{K1}(X) on every
    grid point.
    """
    if not 0.0 < K1 < K2:
        raise DomainError("need 0 < K1 < K2")
    opts = opts or IntegratorOptions()
    orbits = [integrate_from_p0(params, k, opts) for k in (K1, K2)]
    cap = 2.0 / (params.m - 1.0)
    xs, ys = [], []
    for orb in orbits:
        mask = orb.Y < cap
        x, y = orb.X[mask], orb.Y[mask]
        keep = np.isfinite(x) & np.isfinite(y)
        xs.append(x[keep])
        ys.append(y[keep])
    lo = max(x[0] for x in xs) * 1.01
    hi = min(min(x[-1] for x in xs), opts.X_big) * 0.99
    if not hi > lo:
        raise DomainError("orbits do not share a common X range")
    grid = np.geomspace(lo, hi, MONOTONICITY_GRID)
    y_on_grid = [np.interp(grid, x, y) for x, y in zip(xs, ys)]
    # near the launch point the two orbits agree to O(delta^q), which can be
    # below double precision; allow machine-level ties there but demand a
    # genuine separation over most of the shared range
    tol = 1e-9 * (1.0 + np.abs(y_on_grid[0]))
    no_crossing = bool(np.all(y_on_grid[1] < y_on_grid[0] + tol))
    separated = bool(np.any(y_on_grid[1] < y_on_grid[0] - tol))
    return no_crossing and separated


def tightened(opts: IntegratorOptions) -> IntegratorOptions:
    """Escalated options for retrying an unresolved classification."""
    return replace(
        opts,
        rel_tol=max(opts.rel_tol / 100.0, 3e-14),
        abs_tol=max(opts.abs_tol / 100.0, 1e-300),
        eta_max=opts.eta_max * 10.0,
        ln_x_cap=min(opts.ln_x_cap * 1.15, 690.0),
    )
