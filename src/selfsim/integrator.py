"""Adaptive integration of the planar system with endpoint classification.

Orbits of the planar system, whose one right-hand side is
``phaseplane.planar_rhs``, are advanced in the autonomous time eta with an
embedded adaptive Runge-Kutta pair (scipy's RK45).  The free boundary of the profile is only
reached as X -> infinity, so classification happens at escape:

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
from scipy.integrate import solve_ivp

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
class Orbit:
    """An integrated trajectory: samples (eta, X, Y) plus termination data."""

    eta: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    termination: OrbitEnd


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
    if not K > 0.0:
        raise DomainError(f"K must be positive, got {K}")
    opts = opts or IntegratorOptions()
    m = params.m

    def ev_big(eta, y):
        return y[0] - opts.X_big

    ev_big.terminal = True
    ev_big.direction = 1.0

    def ev_deep(eta, y):
        # far below the ray Y = -(m-1)X: conclusively Q3-bound
        return y[1] + 3.0 * (m - 1.0) * y[0] + 10.0

    ev_deep.terminal = True
    ev_deep.direction = -1.0

    sol = solve_ivp(
        planar_rhs(params, K),
        (0.0, opts.eta_max),
        [start.X, start.Y],
        method="RK45",
        rtol=opts.rel_tol,
        atol=opts.abs_tol,
        events=[ev_big, ev_deep],
    )
    eta = sol.t
    X, Y = sol.y
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
        end = OrbitEnd(
            tag=OrbitTag.UNRESOLVED,
            final_slope=math.nan,
            diagnostics="nonfinite state during integration",
        )
        keep = np.isfinite(X) & np.isfinite(Y)
        return Orbit(eta=eta[keep], X=X[keep], Y=Y[keep], termination=end)

    hit_big = len(sol.t_events[0]) > 0
    hit_deep = len(sol.t_events[1]) > 0
    slope = Y[-1] / X[-1] if X[-1] > 0.0 else -math.inf

    if hit_deep:
        end = OrbitEnd(tag=OrbitTag.TO_Q3, final_slope=slope,
                       diagnostics="plunged below the Q4 ray")
        return Orbit(eta=eta, X=X, Y=Y, termination=end)

    if not hit_big:
        end = OrbitEnd(
            tag=OrbitTag.UNRESOLVED,
            final_slope=slope,
            diagnostics=f"eta budget exhausted at X={X[-1]:.3g}",
        )
        return Orbit(eta=eta, X=X, Y=Y, termination=end)

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
    return Orbit(eta=eta, X=X, Y=Y, termination=end)


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
