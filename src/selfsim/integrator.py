"""Adaptive integration of the planar system with endpoint classification.

Orbits of the planar system, whose one vector field is
``phaseplane.planar_field``, are advanced in the autonomous time eta by an
in-module scalar DOP853 step, its twelve stages written out as float
arithmetic over that field: the method, tableau, initial step, error norm
and step-size controller of scipy's DOP853, step for step, with its events
tested as scalars after each accepted step instead of through
``solve_ivp``'s per-step event machinery.  Its 8th-order step meets
``REL_TOL`` in about a fifth of the steps of a 5(4) pair, at twice the
evaluations per step; the dense output is built only on the step where an
event occurs.
The free boundary of the profile is only reached as X -> infinity, so an
orbit is classified once a proven stop (``_stops``) holds: a region that,
once entered, the orbit never leaves and that leads to one endpoint.

* an orbit plunging far below the ray Y = -(m-1)X is conclusively headed
  to the vertical stable node Q3;
* the supercritical trap and the bound to plunge hold at any X, so the X-Y
  phase tests them at (ln X, Y/X) from the start, wherever X is rising, and
  an orbit whose fate they prove ends there.  The trap is the region above
  the lower root of u^2 + (m-1)u + K X^(q-2), u = Y/X, which falls toward the
  Q4 ray u = -(m-1) as X grows, so an orbit that rides the ray toward Q1 is
  trapped as soon as it leaves the ray;
* once X is past ``X_BIG`` and rising, the orbit switches to the slope chart
  (u, s) = (Y/X, ln X), which stays well-scaled over hundreds of e-folds
  of X.  The switch comes early: the -(m-1)XY term of Y' relaxes Y at a
  rate of about (m-1)X, so an explicit step in the X-Y chart shrinks like
  1/((m-1)X), while LSODA takes the slope chart's stiffness in stride;
* there every tag comes from a stop, the critical trap above the Q4 slope
  and the supercritical stop below the Q4 ray among them, the latter as soon
  as an orbit falls through the ray toward Q3; an orbit that meets none by
  the ln X cap is ``Unresolved``.

``integrate`` maps the way the X-Y phase ended (a nonfinite state, a
plunge, a stop, the eta budget or the step-size floor) to an ``OrbitEnd``,
or hands an escape to ``_slope_phase``, which returns the slope chart's
samples and ``OrbitEnd``; it builds the ``Orbit`` once, from whichever
ended it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.integrate import DOP853, solve_ivp
from scipy.optimize import brentq

from selfsim.params import (DomainError, ModelParams, Regime,
                            positive_finite, regime)
from selfsim.phaseplane import (
    PhasePoint,
    critical_slopes,
    launch_slope,
    planar_field,
)

#: X at which an orbit escapes from the X-Y chart into the slope chart,
#: before the X-Y chart turns stiff
X_BIG = 1e2
#: eta budget of the X-Y phase
ETA_MAX = 1e3
#: cap on ln X for the slope-chart escape phase
LN_X_CAP = 600.0
#: points of the shared X-grid on which orbit_monotonicity_check compares
MONOTONICITY_GRID = 60
#: relative and absolute tolerances of both phases of every orbit and of the
#: profile bulk
REL_TOL, ABS_TOL = 1e-10, 1e-12
#: X of the launch point on the distinguished direction at P0
LAUNCH_OFFSET = 1e-6

# DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.10): scipy's tableau
# read as Python floats, the rows of A cut to the stages they combine; the
# field is autonomous, so the stage times C and C_EXTRA drop out
_A = [row[:s] for s, row in enumerate(DOP853.A.tolist())]
_B = DOP853.B.tolist()
_E5 = DOP853.E5.tolist()
_E3 = DOP853.E3.tolist()
_A_EXTRA = DOP853.A_EXTRA.tolist()
_D = DOP853.D.tolist()
_ERROR_EXPONENT = -1.0 / (DOP853.error_estimator_order + 1)
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_EPS = float(np.finfo(float).eps)
_SQRT2 = 2.0**0.5


class OrbitTag(Enum):
    TO_Q1 = "ToQ1"
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
    slope-chart phase if the orbit escaped past ``X_BIG``.
    """

    eta: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    termination: OrbitEnd
    stats: tuple[PhaseStats, ...] = ()


def launch_from_p0(params: ModelParams, K: float) -> PhasePoint:
    """Start ``LAUNCH_OFFSET`` along the distinguished direction at P0.

    The offset is applied on the X axis with the second-order correction,
    one formula at every N,

        Y(X) = (2/N)*X - [K(m-1) / (N(m-1) + 2(1-p))] * X^((m-p)/(m-1))
    """
    K = positive_finite("K", K)
    delta = LAUNCH_OFFSET
    m, N, q = params.m, params.N, params.power_ratio
    corr = K * (m - 1.0) / (N * (m - 1.0) + 2.0 * (1.0 - params.p))
    Y = launch_slope(params) * delta - corr * delta**q
    return PhasePoint(X=delta, Y=Y)


def _rhs_slope(params: ModelParams, K: float):
    """The slope chart's field ``rhs(s, (u, eta))``, u = Y/X and s = ln X;
    the one overflow rule of the chart clamps the exponent of K e^((q-2)s)
    at 700, as the bound stop does, so rhs returns a value at every s."""
    m, N, q = params.m, params.N, params.power_ratio

    def rhs(s, y):
        u = float(y[0])
        inv_x = math.exp(-s)
        frac = K * math.exp(min((q - 2.0) * s, 700.0))
        num = -(u * u + (m - 1.0) * u) - frac - (N * u - 2.0) * inv_x
        den = 2.0 * inv_x - (m - 1.0) * u
        if den <= 0.0:
            # above the line Y = 2/(m-1): outside this chart's validity
            return (math.nan, math.nan)
        return (num / den, inv_x / den)

    return rhs


def _stops(params: ModelParams, K: float):
    """The slope chart's proven stops, as (gap, tag, diagnostics) triples.

    Each gap g(s, (u, eta)), once positive, stays positive along the orbit,
    and the orbit then ends at the tag's point; it is a terminal event of
    ``solve_ivp`` with direction +1.  Every gap but the plunge's also holds
    at 0, where the flow crosses its boundary into the stop.
    ``diagnostics`` is formatted with the ln X where the stop fired.  With
    num = -u^2 - (m-1)u - K e^((q-2)s) - (Nu - 2)e^(-s) and
    den = 2e^(-s) - (m-1)u > 0, du/ds = num/den.

    The first stop is the plunge and the second the trap (m + p > 2) or the
    bound to plunge (m + p <= 2); the supercritical regime adds the stop
    below the Q4 ray u = -(m-1), the critical regime the trap above y2.  The
    proofs of the trap and the bound use no bound on s, so the X-Y phase
    tests the second stop too, at (s, u) = (ln X, Y/X) wherever X is rising
    (den > 0).  No gap overflows at any finite s.
    """
    m1, N, q = params.m - 1.0, params.N, params.power_ratio
    reg = regime(params)

    def plunged(s, y):
        return -(float(y[0]) + 3.0 * m1)

    stops = [(plunged, OrbitTag.TO_Q3, "plunged below the Q4 ray (slope chart)")]
    if reg is Regime.SUPERCRITICAL:
        # q < 2: the K term E(s) = K e^((q-2)s), its exponent clamped at 700
        # as in _rhs_slope, falls with s.  Past ln X = ln(4K/(m-1)^2)/(2-q),
        # taken in logs so that no power overflows, it is below (m-1)^2/4,
        # and the roots u- <= u+ of u^2 + (m-1)u + E(s) exist, u- falling
        # toward -(m-1).  On u = u-, num = (2 - Nu)e^(-s) > 0, so the flow
        # enters the region above u-, and between the roots num > 0: once
        # above u-, u never falls back to it and never plunges: Q1.  The
        # half-plane u >= -(m-1)/2 lies inside.  The product form keeps the
        # gap at -E(s) < 0 on the ray, where the root formula would round u-
        # onto -(m-1)
        ln_x_trap = (math.log(4.0 * K) - 2.0 * math.log(m1)) / (2.0 - q)

        def trapped(s, y):
            u = float(y[0])
            E = K * math.exp(min((q - 2.0) * s, 700.0))
            return min(max(u + 0.5 * m1, -(u * (u + m1) + E)), s - ln_x_trap)

        # below the ray, u = -(m-1) - d with d >= 0:
        #   num = -d(m-1 + d - N e^(-s)) - e^(-s)(K e^((q-1)s) - (N(m-1) + 2)),
        # negative past ln X = max(ln(N/(m-1)), ln((N(m-1) + 2)/K)/(q-1)), so
        # u falls monotonically to the plunge line: Q3.  Tested in the slope
        # chart only, where s >= ln X_BIG > 0 and E(s) is not clamped
        s_below = max(math.log(N / m1),
                      (math.log(N * m1 + 2.0) - math.log(K))
                      / params.power_excess)

        def below(s, y):
            return min(-(float(y[0]) + m1), s - s_below)

        stops += [(trapped, OrbitTag.TO_Q1,
                   "trapped above the lower root of u^2 + (m-1)u + K X^(q-2) "
                   "at ln X = {:.1f}"),
                  (below, OrbitTag.TO_Q3, "below the Q4 ray at ln X = {:.1f}")]
    else:
        # q >= 2: the K term never falls.  For u in [-3(m-1), 2e^(-s)/(m-1)],
        # num <= -bound, so once the bound is positive u falls at a rate
        # bounded away from 0 until it plunges: Q3.
        def bound(s, y):
            # the clamp of _rhs_slope keeps the sign of the gap; below
            # ln X = -700, where e^(-s) nears the float range, no stop is
            # claimed
            if s < -700.0:
                return -math.inf
            return (K * math.exp(min((q - 2.0) * s, 700.0)) - 0.25 * m1 * m1
                    - (2.0 + 3.0 * N * m1) * math.exp(-s))

        stops.append((bound, OrbitTag.TO_Q3, "bound to plunge at ln X = {:.1f}"))
    slopes = critical_slopes(params, K) if reg is Regime.CRITICAL else None
    if slopes is not None:
        # on u = y2 (the Q4 ray), num = (2 - N y2)e^(-s) > 0, and du/ds < 0
        # where the chart ends, so u converges to y1: Q1
        y2 = slopes[1]

        def above_y2(s, y):
            return float(y[0]) - y2

        stops.append((above_y2, OrbitTag.TO_Q1,
                      f"trapped above the Q4 slope {y2:.6g} at ln X = {{:.1f}}"))
    for gap, _, _ in stops:
        gap.terminal, gap.direction = True, 1.0
    return stops


def _stop_diagnostics(diag: str, s: float) -> str:
    """A stop's diagnostics at ln X = s, rounded to 0.1 before it is
    formatted, so that an ln X just below 0 prints as 0.0, not -0.0."""
    return diag.format(round(s, 1) + 0.0)


def _no_stop(s: float, y) -> float:
    """A stop gap that never holds, for an X-Y phase without a stop."""
    return -math.inf


def _rms(a: float, b: float) -> float:
    """RMS norm of a 2-vector, as scipy's solvers take it."""
    return math.sqrt(a * a + b * b) / _SQRT2


def _error_norm(h: float, e5x: float, e5y: float, e3x: float,
                e3y: float) -> float:
    """DOP853's error norm of one attempt from its scaled error estimates.

    This is scipy's |h| |e5|^2 / sqrt(2 (|e5|^2 + 0.01 |e3|^2)), with each
    squared norm taken as np.linalg.norm(.)**2.  Where the root's argument
    leaves the float range, as where a square overflows or where e5 is 0
    and 0.01 |e3|^2 underflows, the estimates are scaled by the largest of
    them, b: the norm is h |e5/b|^2 / sqrt(2 (|e5/b|^2 + 0.01 |e3/b|^2)) b,
    the same norm, as b divides out.  The scaled squares are at most 2 and
    one of them is 1, so none overflows and the root is at least 0.14.
    Scaled by h instead, the squares can underflow to 0 / 0, as at a first
    step of 5e-323.  An estimate that is not finite fails the attempt: the
    norm is inf.
    """
    r5, r3 = math.sqrt(e5x * e5x + e5y * e5y), math.sqrt(e3x * e3x + e3y * e3y)
    n5, n3 = r5 * r5, r3 * r3
    if n5 == 0.0 and n3 == 0.0:
        return 0.0
    den = (n5 + 0.01 * n3) * 2.0
    if 0.0 < den < math.inf:
        return h * n5 / math.sqrt(den)
    if not all(map(math.isfinite, (e5x, e5y, e3x, e3y))):
        return math.inf
    b = max(abs(e5x), abs(e5y), abs(e3x), abs(e3y))
    e5x, e5y, e3x, e3y = e5x / b, e5y / b, e3x / b, e3y / b
    n5, n3 = e5x * e5x + e5y * e5y, e3x * e3x + e3y * e3y
    # n5 / root <= 1, so its product with b is finite; h multiplies last,
    # as a product with a subnormal h keeps few digits
    return h * (n5 / math.sqrt((n5 + 0.01 * n3) * 2.0) * b)


def _dense(field, t_old: float, h: float, x_old: float, y_old: float,
           x_new: float, y_new: float, kx: list, ky: list):
    """The 7th-order dense output of one DOP853 step, as scipy builds it.

    ``kx`` and ``ky`` hold the step's 13 slopes, its 12 stages and the slope
    at its end; the three extra stages are appended to them.
    """
    for a in _A_EXTRA:
        # zip stops at the slopes computed so far, as scipy's a[:s]
        sx, sy = field(x_old + sum(k * c for k, c in zip(kx, a)) * h,
                       y_old + sum(k * c for k, c in zip(ky, a)) * h)
        kx.append(sx)
        ky.append(sy)
    dx, dy = x_new - x_old, y_new - y_old
    F = [(dx, dy), (h * kx[0] - dx, h * ky[0] - dy),
         (2.0 * dx - h * (kx[12] + kx[0]), 2.0 * dy - h * (ky[12] + ky[0]))]
    F += [(h * sum(k * c for k, c in zip(kx, d)),
           h * sum(k * c for k, c in zip(ky, d))) for d in _D]

    def at(t: float) -> tuple[float, float]:
        r = (t - t_old) / h
        x = y = 0.0
        for i, (gx, gy) in enumerate(reversed(F)):
            w = r if i % 2 == 0 else 1.0 - r
            x, y = (x + gx) * w, (y + gy) * w
        return x + x_old, y + y_old

    return at


def _xy_phase(params: ModelParams, K: float, x: float, y: float, gap):
    """Step the planar system from (x, y) until an event or ``ETA_MAX``.

    This is scipy's DOP853 on Python floats (K, x and y must be floats): the
    same initial step, twelve stages, error norm, step-size controller and
    7th-order dense output, except that the norm stays in the float range
    where scipy's squared error estimates leave it (``_error_norm``).  An
    attempt through a state where K X^q passes the float range meets the
    field's -inf there and fails the error test, as in DOP853.  The events are tested at the
    start and after each accepted step: X at or past ``X_BIG`` with X
    rising (Y < 2/(m-1)) is an escape, Y + 3(m-1)X + 10 at or below 0 (far
    below the Q4 ray) a plunge, and the slope-chart stop ``gap`` (the trap
    or the bound of ``_stops``) at or above 0 at (ln X, Y/X), with X rising,
    a stop.  At a start the plunge wins, then the stop.  A plunge, an escape
    on a step that crossed ``X_BIG``, or a stop on a step that began with X
    rising, ends at its ``brentq`` root on the step's dense output, built
    there only, at three more evaluations; the earliest event wins.  Any
    other stop or escape ends at the step's end, the stop first: a root on
    Y = 2/(m-1) would leave the slope chart singular.

    Returns the samples (eta, X, Y) as lists, the event that ended the
    phase ("escape", "plunge", "stop" or None) and the phase's
    ``PhaseStats``.
    """
    field = planar_field(params, K)
    m3, y_rise = 3.0 * (params.m - 1.0), 2.0 / (params.m - 1.0)
    t_bound, rtol, atol = ETA_MAX, REL_TOL, ABS_TOL

    def escapes(X: float, Y: float) -> bool:
        # X rising, so the slope chart's den = (2 - (m-1)Y)/X is positive
        return X >= X_BIG and Y < y_rise

    def plunge_gap(X: float, Y: float) -> float:
        return Y + m3 * X + 10.0

    def stop_gap(X: float, Y: float) -> float:
        # the stop's proof needs X rising; elsewhere it is not tested
        if 0.0 < X < math.inf and -math.inf < Y < y_rise:
            return gap(math.log(X), (Y / X,))
        return -math.inf

    t = 0.0
    ts, xs, ys = [t], [x], [y]
    g = stop_gap(x, y)
    for event, hit in (("plunge", plunge_gap(x, y) < 0.0), ("stop", g >= 0.0),
                       ("escape", escapes(x, y))):
        if hit:
            return ts, xs, ys, event, PhaseStats("DOP853", 0, 0, 0, 1)

    # initial step (Hairer, Norsett & Wanner II.4), as select_initial_step
    fx, fy = field(x, y)
    sx, sy = atol + abs(x) * rtol, atol + abs(y) * rtol
    d0, d1 = _rms(x / sx, y / sy), _rms(fx / sx, fy / sy)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_bound)
    f1x, f1y = field(x + h0 * fx, y + h0 * fy)
    # h0 is 0 only where d1 is infinite; the first step is then 0 too
    d2 = _rms((f1x - fx) / sx, (f1y - fy) / sy) / h0 if h0 else math.inf
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_ERROR_EXPONENT
    h_abs = min(100.0 * h0, h1, t_bound)
    nfev = 2

    # the stages written out over the tableau's nonzero entries, each sum in
    # scipy's order; E5[12] and E3[12] are 0 but kept, so that a nonfinite
    # slope at the step's end fails the error test, as in scipy
    (_, (a1_0,), (a2_0, a2_1), (a3_0, _, a3_2), (a4_0, _, a4_2, a4_3),
     (a5_0, _, _, a5_3, a5_4), (a6_0, _, _, a6_3, a6_4, a6_5),
     (a7_0, _, _, a7_3, a7_4, a7_5, a7_6),
     (a8_0, _, _, a8_3, a8_4, a8_5, a8_6, a8_7),
     (a9_0, _, _, a9_3, a9_4, a9_5, a9_6, a9_7, a9_8),
     (a10_0, _, _, a10_3, a10_4, a10_5, a10_6, a10_7, a10_8, a10_9),
     (a11_0, _, _, a11_3, a11_4, a11_5, a11_6, a11_7, a11_8, a11_9,
      a11_10)) = _A
    b0, _, _, _, _, b5, b6, b7, b8, b9, b10, b11 = _B
    (e5_0, _, _, _, _, e5_5, e5_6, e5_7, e5_8, e5_9, e5_10, e5_11,
     e5_12) = _E5
    (e3_0, _, _, _, _, e3_5, e3_6, e3_7, e3_8, e3_9, e3_10, e3_11,
     e3_12) = _E3
    event = status = None
    while status is None:
        min_step = 10.0 * math.ulp(t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while h_abs >= min_step:
            t_new = min(t + h_abs, t_bound)
            h = t_new - t
            h_abs = h
            k1x, k1y = field(
                x + (fx * a1_0) * h,
                y + (fy * a1_0) * h)
            k2x, k2y = field(
                x + (fx * a2_0 + k1x * a2_1) * h,
                y + (fy * a2_0 + k1y * a2_1) * h)
            k3x, k3y = field(
                x + (fx * a3_0 + k2x * a3_2) * h,
                y + (fy * a3_0 + k2y * a3_2) * h)
            k4x, k4y = field(
                x + (fx * a4_0 + k2x * a4_2 + k3x * a4_3) * h,
                y + (fy * a4_0 + k2y * a4_2 + k3y * a4_3) * h)
            k5x, k5y = field(
                x + (fx * a5_0 + k3x * a5_3 + k4x * a5_4) * h,
                y + (fy * a5_0 + k3y * a5_3 + k4y * a5_4) * h)
            k6x, k6y = field(
                x + (fx * a6_0 + k3x * a6_3 + k4x * a6_4 + k5x * a6_5) * h,
                y + (fy * a6_0 + k3y * a6_3 + k4y * a6_4 + k5y * a6_5) * h)
            k7x, k7y = field(
                x + (fx * a7_0 + k3x * a7_3 + k4x * a7_4 + k5x * a7_5
                     + k6x * a7_6) * h,
                y + (fy * a7_0 + k3y * a7_3 + k4y * a7_4 + k5y * a7_5
                     + k6y * a7_6) * h)
            k8x, k8y = field(
                x + (fx * a8_0 + k3x * a8_3 + k4x * a8_4 + k5x * a8_5
                     + k6x * a8_6 + k7x * a8_7) * h,
                y + (fy * a8_0 + k3y * a8_3 + k4y * a8_4 + k5y * a8_5
                     + k6y * a8_6 + k7y * a8_7) * h)
            k9x, k9y = field(
                x + (fx * a9_0 + k3x * a9_3 + k4x * a9_4 + k5x * a9_5
                     + k6x * a9_6 + k7x * a9_7 + k8x * a9_8) * h,
                y + (fy * a9_0 + k3y * a9_3 + k4y * a9_4 + k5y * a9_5
                     + k6y * a9_6 + k7y * a9_7 + k8y * a9_8) * h)
            k10x, k10y = field(
                x + (fx * a10_0 + k3x * a10_3 + k4x * a10_4 + k5x * a10_5
                     + k6x * a10_6 + k7x * a10_7 + k8x * a10_8
                     + k9x * a10_9) * h,
                y + (fy * a10_0 + k3y * a10_3 + k4y * a10_4 + k5y * a10_5
                     + k6y * a10_6 + k7y * a10_7 + k8y * a10_8
                     + k9y * a10_9) * h)
            k11x, k11y = field(
                x + (fx * a11_0 + k3x * a11_3 + k4x * a11_4 + k5x * a11_5
                     + k6x * a11_6 + k7x * a11_7 + k8x * a11_8 + k9x * a11_9
                     + k10x * a11_10) * h,
                y + (fy * a11_0 + k3y * a11_3 + k4y * a11_4 + k5y * a11_5
                     + k6y * a11_6 + k7y * a11_7 + k8y * a11_8 + k9y * a11_9
                     + k10y * a11_10) * h)
            x_new = x + h * (fx * b0 + k5x * b5 + k6x * b6 + k7x * b7
                             + k8x * b8 + k9x * b9 + k10x * b10 + k11x * b11)
            y_new = y + h * (fy * b0 + k5y * b5 + k6y * b6 + k7y * b7
                             + k8y * b8 + k9y * b9 + k10y * b10 + k11y * b11)
            k12x, k12y = field(x_new, y_new)
            sx = atol + max(abs(x), abs(x_new)) * rtol
            sy = atol + max(abs(y), abs(y_new)) * rtol
            err = _error_norm(
                h,
                (fx * e5_0 + k5x * e5_5 + k6x * e5_6 + k7x * e5_7 + k8x * e5_8
                 + k9x * e5_9 + k10x * e5_10 + k11x * e5_11
                 + k12x * e5_12) / sx,
                (fy * e5_0 + k5y * e5_5 + k6y * e5_6 + k7y * e5_7 + k8y * e5_8
                 + k9y * e5_9 + k10y * e5_10 + k11y * e5_11
                 + k12y * e5_12) / sy,
                (fx * e3_0 + k5x * e3_5 + k6x * e3_6 + k7x * e3_7 + k8x * e3_8
                 + k9x * e3_9 + k10x * e3_10 + k11x * e3_11
                 + k12x * e3_12) / sx,
                (fy * e3_0 + k5y * e3_5 + k6y * e3_6 + k7y * e3_7 + k8y * e3_8
                 + k9y * e3_9 + k10y * e3_10 + k11y * e3_11
                 + k12y * e3_12) / sy)
            nfev += 12
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

        escaped = escapes(x_new, y_new)
        plunged = plunge_gap(x_new, y_new) <= 0.0
        # g at the step's start is negative, or -inf where X was not rising
        g_old, g = g, stop_gap(x_new, y_new)
        stopped = g >= 0.0
        roots = [(f, name) for f, name, hit in (
            (lambda X, Y: X - X_BIG, "escape", escaped and x < X_BIG),
            (plunge_gap, "plunge", plunged),
            (stop_gap, "stop", stopped and g_old > -math.inf)) if hit]
        if roots:
            at = _dense(field, t, h, x, y, x_new, y_new,
                        [fx, k1x, k2x, k3x, k4x, k5x, k6x, k7x, k8x, k9x,
                         k10x, k11x, k12x],
                        [fy, k1y, k2y, k3y, k4y, k5y, k6y, k7y, k8y, k9y,
                         k10y, k11y, k12y])
            nfev += 3
            t_new, event = min(
                (brentq(lambda s, f=f: f(*at(s)), t, t_new,
                        xtol=4.0 * _EPS, rtol=4.0 * _EPS), name)
                for f, name in roots)
            x_new, y_new = at(t_new)
            status = 1
        elif stopped:
            event, status = "stop", 1
        elif escaped:
            event, status = "escape", 1
        elif t_new >= t_bound:
            status = 0
        t, x, y, fx, fy = t_new, x_new, y_new, k12x, k12y
        ts.append(t)
        xs.append(x)
        ys.append(y)
    return ts, xs, ys, event, PhaseStats("DOP853", nfev, 0, len(ts) - 1,
                                         status)


def _slope_phase(params: ModelParams, K: float, s0: float, u0: float,
                 eta0: float, stops):
    """Carry an escaped orbit in the slope chart (u, s) = (Y/X, ln X).

    The stops are tested at the start (s0, u0) first, and a start at or past
    ``LN_X_CAP`` ends ``Unresolved``; neither runs a step.  Otherwise LSODA
    runs from there with the stops as terminal events until one fires, s
    reaches ``LN_X_CAP``, the one bound on every run, or the step size
    stalls.  Returns the samples (eta, X, Y) after the start as arrays, the
    orbit's ``OrbitEnd`` and the phase's ``PhaseStats``; ``stops`` are
    ``_stops(params, K)``.
    """
    rhs = _rhs_slope(params, K)

    def holds(i, gap):
        # a start on a stop's boundary (gap exactly 0) is decided here, as
        # LSODA cannot bracket a crossing at its first point: the flow enters
        # every stop but the plunge there (see _stops), and the plunge where
        # u falls
        g = gap(s0, (u0,))
        return g > 0.0 or g == 0.0 and (i > 0 or rhs(s0, (u0, eta0))[0] < 0.0)

    held = next(((tag, _stop_diagnostics(diag, s0))
                 for i, (gap, tag, diag) in enumerate(stops) if holds(i, gap)),
                None)
    if held is not None or s0 >= LN_X_CAP:
        # the slope chart runs up to the cap only; LSODA would run backwards
        tag, diag = held or (OrbitTag.UNRESOLVED,
                             f"start at ln X = {s0:.1f} is past the ln X cap "
                             f"{LN_X_CAP:.1f}")
        return ((np.empty(0),) * 3, OrbitEnd(tag, u0, diag),
                PhaseStats("LSODA", 0, 0, 0, int(held is not None)))

    # the slope relaxes onto a slow manifold whose attraction rate grows
    # exponentially in s: stiff, so use an implicit-capable method here
    sol = solve_ivp(
        rhs,
        (s0, LN_X_CAP),
        [u0, eta0],
        method="LSODA",
        rtol=REL_TOL,
        atol=ABS_TOL,
        events=[gap for gap, _, _ in stops],
    )
    u, eta = sol.y
    finite = np.isfinite(u)
    s, u, eta = sol.t[finite], u[finite], eta[finite]
    fired = [stop for stop, t in zip(stops, sol.t_events) if len(t)]
    if fired:
        _, tag, diag = fired[0]
        diag = _stop_diagnostics(diag, s[-1])
    else:
        tag = OrbitTag.UNRESOLVED
        diag = (f"slope chart stalled at ln X = {s[-1]:.1f}" if sol.status == -1
                else f"no stop fired by the ln X cap {s[-1]:.1f}")
    with np.errstate(over="ignore"):
        X = np.exp(s[1:])
        Y = u[1:] * X
    return ((eta[1:], X, Y), OrbitEnd(tag, float(u[-1]), diag),
            PhaseStats("LSODA", int(sol.nfev), int(sol.njev), len(sol.t) - 1,
                       int(sol.status)))


def integrate(start: PhasePoint, params: ModelParams, K: float) -> Orbit:
    """Integrate from ``start`` until the orbit's endpoint can be classified.

    Termination is a value, not an error: orbits that cannot be resolved
    within the eta and ln X budgets end with tag ``Unresolved``.
    """
    x0 = positive_finite("start.X", start.X)
    K = positive_finite("K", K)

    stops = _stops(params, K)
    eta, X, Y, event, xy_stats = _xy_phase(params, K, x0, float(start.Y),
                                            stops[1][0])
    eta, X, Y = np.array(eta), np.array(X), np.array(Y)
    stats = (xy_stats,)
    # the start is finite, so a finite sample is left
    keep = np.isfinite(X) & np.isfinite(Y)
    eta, X, Y = eta[keep], X[keep], Y[keep]
    # in Python floats, as the X-Y phase takes Y/X: past the float range
    # the slope is +-inf, with no warning
    x_end, y_end = float(X[-1]), float(Y[-1])
    slope = y_end / x_end if x_end > 0.0 else -math.inf
    if not np.all(keep):
        end = OrbitEnd(OrbitTag.UNRESOLVED, math.nan,
                       "nonfinite state during integration")
    elif event == "plunge":
        end = OrbitEnd(OrbitTag.TO_Q3, slope, "plunged below the Q4 ray")
    elif event == "stop":
        _, tag, diag = stops[1]
        end = OrbitEnd(tag, slope, _stop_diagnostics(diag, math.log(x_end)))
    elif event is None:
        reason = ("X-Y step size fell below its minimum" if xy_stats.status == -1
                  else "eta budget exhausted")
        end = OrbitEnd(OrbitTag.UNRESOLVED, slope, f"{reason} at X={x_end:.3g}")
    else:
        (eta2, X2, Y2), end, slope_stats = _slope_phase(
            params, K, math.log(x_end), slope, eta[-1], stops)
        eta, X, Y = (np.concatenate(pair) for pair in
                     ((eta, eta2), (X, X2), (Y, Y2)))
        stats += (slope_stats,)
    return Orbit(eta=eta, X=X, Y=Y, termination=end, stats=stats)


def integrate_from_p0(params: ModelParams, K: float) -> Orbit:
    """Convenience: launch from P0 and integrate."""
    return integrate(launch_from_p0(params, K), params, K)


def _resample(params: ModelParams, K: float, X: np.ndarray, Y: np.ndarray,
              grid: np.ndarray) -> np.ndarray:
    """Y of an orbit's samples (X, Y) at the X values ``grid``.

    The samples are joined by cubic Hermite pieces in ln X, whose slopes
    dY/d(ln X) = X dY/dX come from ``planar_field`` at the samples.  X must
    increase along the samples, and the grid must lie within their range.
    """
    field = planar_field(params, K)
    dX, dY = np.array([field(x, y) for x, y in zip(X.tolist(), Y.tolist())]).T
    # slope-chart samples far past X_BIG can overflow the field; a piece
    # uses only the slopes at its own two ends
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        slope = X * dY / dX
    s, sg = np.log(X), np.log(grid)
    i = np.clip(np.searchsorted(s, sg), 1, len(s) - 1)
    h = s[i] - s[i - 1]
    r = (sg - s[i - 1]) / h
    return ((1.0 + 2.0 * r) * (1.0 - r) ** 2 * Y[i - 1]
            + r * (1.0 - r) ** 2 * h * slope[i - 1]
            + r * r * (3.0 - 2.0 * r) * Y[i]
            + r * r * (r - 1.0) * h * slope[i])


def orbit_monotonicity_check(params: ModelParams, K1: float, K2: float) -> bool:
    """Check that the P0-orbit moves down pointwise as K increases.

    Both orbits are run in the X-Y phase alone, without the trap or the
    bound, to their escape or plunge, and resampled as Y(X)
    (``_resample``) on a shared logarithmic X-grid below the line
    Y = 2/(m-1) and ``X_BIG``; returns True iff Y_{K2}(X) < Y_{K1}(X) on
    every grid point.
    """
    K1, K2 = positive_finite("K1", K1), positive_finite("K2", K2)
    if not K1 < K2:
        raise DomainError(f"need K1 < K2, got K1 = {K1} and K2 = {K2}")
    cap = 2.0 / (params.m - 1.0)
    xs, ys = [], []
    for k in (K1, K2):
        # the X-Y phase with no stop, up to X_BIG: a trap or bound proven
        # earlier would cut the range the orbits are compared on
        start = launch_from_p0(params, k)
        _, x, y, _, _ = _xy_phase(params, k, float(start.X), float(start.Y),
                                  _no_stop)
        x, y = np.array(x), np.array(y)
        mask = y < cap
        x, y = x[mask], y[mask]
        keep = np.isfinite(x) & np.isfinite(y)
        xs.append(x[keep])
        ys.append(y[keep])
    lo = max(x[0] for x in xs) * 1.01
    hi = min(min(x[-1] for x in xs), X_BIG) * 0.99
    if not hi > lo:
        raise DomainError("orbits do not share a common X range")
    grid = np.geomspace(lo, hi, MONOTONICITY_GRID)
    y_on_grid = [_resample(params, k, x, y, grid)
                 for k, x, y in zip((K1, K2), xs, ys)]
    # near the launch point the two orbits agree to O(delta^q), which can be
    # below double precision; allow machine-level ties there but demand a
    # genuine separation over most of the shared range
    tol = 1e-9 * (1.0 + np.abs(y_on_grid[0]))
    no_crossing = bool(np.all(y_on_grid[1] < y_on_grid[0] + tol))
    separated = bool(np.any(y_on_grid[1] < y_on_grid[0] - tol))
    return no_crossing and separated
