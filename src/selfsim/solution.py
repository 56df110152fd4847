"""Assembly of the eternal solution u(x, t) and the traveling-wave map.

The solution u(r, t) = exp(alpha*t) * f(r * exp(-beta*t)) grows forever in
time while its support radius xi0 * exp(beta*t) expands.  Substituting
w = r^(-2/(m-1)) * u and y = ln r turns the radial equation into a 1-D
reaction-convection-diffusion equation whose traveling waves
w(y, tau) = F(y - c*tau), c = beta, correspond exactly to these solutions.
That orientation convention (wave profile advected to the right at speed
beta) is the one under which the residual operator below vanishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cubature
from scipy.special import gamma as gamma_fn

from selfsim.params import (DomainError, ModelParams, check_step, exp, finite,
                            positive_finite, power)
from selfsim.profile import Profile, ReconstructionError, evaluate_f


@dataclass(frozen=True)
class EternalSolution:
    profile: Profile
    alpha: float
    beta: float


def make_solution(profile: Profile) -> EternalSolution:
    return EternalSolution(profile=profile, alpha=profile.alpha,
                           beta=profile.beta)


def evaluate_u(sol: EternalSolution, r, t):
    """u(r, t) = exp(alpha*t) * f(r * exp(-beta*t)); exactly 0 beyond the
    interface at every t.

    r >= 0 and t broadcast against each other.  A ``DomainError`` naming
    the first negative or NaN r, a NaN t, or a t where u leaves the float
    range.
    """
    r, t = np.asarray(r, dtype=float), np.asarray(t, dtype=float)
    bad = ~(r >= 0.0)
    if bad.any():
        raise DomainError(f"r must be >= 0, got {r[bad][0]}")
    if np.isnan(t).any():
        raise DomainError("t must not be NaN")
    with np.errstate(over="ignore", invalid="ignore"):
        xi = r * np.exp(-sol.beta * t)
        growth = np.exp(sol.alpha * t)
    # xi is NaN only as 0 * inf at r = 0 or inf * 0 at r = inf, and is r there
    f = evaluate_f(sol.profile, np.where(np.isnan(xi), r, xi))
    with np.errstate(over="ignore", invalid="ignore"):
        u = growth * f
    if not np.isfinite(u).all():
        # where e^(alpha t) overflows, u is inf * 0 = NaN past the interface
        u = np.where(f == 0.0, 0.0, u)[()]
        bad = ~np.isfinite(u)
        if bad.any():
            bad_t = np.broadcast_to(t, np.shape(u))[bad][0]
            raise DomainError(f"u at t={bad_t} is off the float range")
    return u


def pde_residual(sol: EternalSolution, r: float, t: float, h: float) -> float:
    """Finite-difference residual of the radial equation at (r, t).

    Uses the symmetric extension u(-r) = u(r) near the origin; accuracy
    degrades within a few h of the interface, which callers must avoid.
    A ``DomainError`` naming h where ``params.check_step`` rejects it, or
    naming r and t where a term leaves the float range.
    """
    h = positive_finite("h", h)
    r = positive_finite("r", r)
    t = finite("t", t)
    check_step(h, r=r, t=t)
    params = sol.profile.params
    m, N, sigma, p = params.m, params.N, params.sigma, params.p
    # the five stencil points (r, t), (r, t -/+ h), (r -/+ h, t) in one call
    u0, u_early, u_late, u_in, u_out = evaluate_u(
        sol, np.abs([r, r, r, r - h, r + h]), [t, t - h, t + h, t, t]).tolist()
    u_t, _ = _central(u_early, u0, u_late, h)
    w_r, w_rr = _central(power(u_in, m), power(u0, m), power(u_out, m), h)
    res = u_t - w_rr - (N - 1.0) / r * w_r - power(r, sigma) * u0**p
    if not math.isfinite(res):
        raise DomainError(f"PDE terms at r={r}, t={t} are off the float "
                          "range")
    return res


def _central(lo: float, mid: float, hi: float, h: float) -> tuple[float, float]:
    """First and second central differences of samples at x - h, x, x + h."""
    return (hi - lo) / (2.0 * h), (hi - 2.0 * mid + lo) / (h * h)


def sphere_area(N: int) -> float:
    """Surface measure of the unit sphere in R^N (2 for N = 1)."""
    return 2.0 * math.pi ** (N / 2.0) / gamma_fn(N / 2.0)


#: relative and absolute tolerance of each M(t) (quad's defaults), and the
#: most subdivisions of [0, 1] before the quadrature gives up
QUAD_TOL, QUAD_LIMIT = 1.49e-8, 200


def mass_growth_rate(sol: EternalSolution, t_samples: list[float]) -> float:
    """Fitted exponential rate of the total mass M(t); equals alpha + N*beta.

    M(t) at every sample time comes from one batched adaptive Gauss-Kronrod
    quadrature (``_masses``), and the rate is the least-squares slope of
    ln M(t).  It raises ``DomainError`` unless there are two distinct times,
    a support edge xi0 * exp(beta*t) in the float range at each, and a
    converged, finite and positive M(t) at each.
    """
    distinct = len(set(t_samples))
    if distinct < 2:
        raise DomainError(
            f"need at least two distinct sample times, got {distinct}")
    log_m = np.log(_masses(sol, t_samples))
    slope = np.polyfit(np.asarray(t_samples, dtype=float), log_m, 1)[0]
    return float(slope)


def _masses(sol: EternalSolution, t_samples: list[float]) -> np.ndarray:
    """Total mass M(t) of u(., t) in R^N at each sample time.

    Each M(t) is the integral of |S^(N-1)| u(r, t) r^(N-1) over the support
    [0, xi0 * exp(beta*t)], written on x = r / edge in [0, 1].  All times
    are integrated in one adaptive 21-point Gauss-Kronrod quadrature (quad's
    rule and tolerances), so each batch of nodes costs one ``evaluate_u``
    call over every time at once.
    """
    edges = []
    for t in t_samples:
        edge = sol.profile.xi0 * exp(sol.beta * t)
        if not 0.0 < edge < math.inf:
            raise DomainError(f"support edge at t={t} is {edge}, off the "
                              "float range")
        edges.append(edge)
    N = sol.profile.params.N
    ts, edges = np.asarray(t_samples, dtype=float), np.asarray(edges)

    def integrand(x):
        # x has shape (n, 1), so r has one column per sample time
        r = x * edges
        return evaluate_u(sol, r, ts) * r ** (N - 1.0) * edges

    res = cubature(integrand, [0.0], [1.0], rule="gk21", rtol=QUAD_TOL,
                   atol=QUAD_TOL, max_subdivisions=QUAD_LIMIT)
    mass = sphere_area(N) * res.estimate
    bad = ~(np.isfinite(mass) & (mass > 0.0))
    if res.status != "converged":
        bad |= res.error > QUAD_TOL * (1.0 + np.abs(res.estimate))
    if bad.any():
        raise DomainError(f"quadrature failed at t={t_samples[bad.argmax()]}")
    return mass


@dataclass(frozen=True)
class TravelingWave:
    """Wave profile F(z) with speed c for the transformed 1-D equation.

    F(z) = exp(-2z/(m-1)) * f(exp(z)); compactly supported to the right of
    z = ln(xi0), unbounded as z -> -infinity.
    """

    c: float
    z_grid: np.ndarray
    F: np.ndarray
    profile: Profile = field(repr=False, compare=False)

    @property
    def support_edge(self) -> float:
        return math.log(self.profile.xi0)


def convection_coefficient(params: ModelParams) -> float:
    m, N = params.m, params.N
    return (N * (m - 1.0) + 2.0 * (m + 1.0)) / (m - 1.0)


def reaction_coefficient(params: ModelParams) -> float:
    m, N = params.m, params.N
    return 2.0 * m * (N * (m - 1.0) + 2.0) / (m - 1.0) ** 2


#: points of the z-grid on which to_traveling_wave samples F
TW_POINTS = 2001


def to_traveling_wave(sol: EternalSolution) -> TravelingWave:
    """Map the eternal solution to its traveling wave, speed c = beta;
    raises ``ReconstructionError`` where F passes the float range."""
    profile = sol.profile
    z_lo = math.log(profile.xi[0])
    z_hi = math.log(profile.xi0)
    z = np.linspace(z_lo, z_hi + 0.1 * (z_hi - z_lo), TW_POINTS)
    with np.errstate(over="ignore"):
        F = tw_value_on(profile, z)
    if not np.all(np.isfinite(F)):
        raise ReconstructionError(f"traveling wave at alpha = {sol.alpha:g} "
                                  "lies past the float range (F overflows)")
    return TravelingWave(c=sol.beta, z_grid=z, F=F, profile=profile)


def tw_value_on(profile: Profile, z) -> np.ndarray:
    """F(z) = exp(-2z/(m-1)) * f(exp(z))."""
    gamma = 2.0 / (profile.params.m - 1.0)
    z_arr = np.asarray(z, dtype=float)
    return np.exp(-gamma * z_arr) * evaluate_f(profile, np.exp(z_arr))


def _tw_terms(tw: TravelingWave, z: float, h: float) -> tuple[float, ...]:
    """The five terms of the traveling-wave operator at z, by central
    differences with a step h that ``params.check_step`` accepts."""
    h = positive_finite("h", h)
    z = finite("z", z)
    check_step(h, z=z)
    params = tw.profile.params
    with np.errstate(over="ignore"):
        F = tw_value_on(tw.profile, np.array([z - h, z, z + h])).tolist()
    w = [power(v, params.m) for v in F]
    Fp, _ = _central(*F, h)
    w_p, w_pp = _central(*w, h)
    terms = (tw.c * Fp, w_pp, convection_coefficient(params) * w_p,
             reaction_coefficient(params) * w[1], F[1] ** params.p)
    if not all(map(math.isfinite, terms)):
        raise DomainError(f"traveling-wave terms at z={z} are off the float "
                          "range")
    return terms


def tw_residual(tw: TravelingWave, z: float, h: float) -> float:
    """Finite-difference residual of the traveling-wave equation at z.

    With the F(y - c*tau) orientation the operator is

        c*F' + (F^m)'' + a*(F^m)' + b*F^m + F^p,

    where a and b are the convection and reaction coefficients of the
    transformed equation.
    """
    advect, diffuse, convect, react, source = _tw_terms(tw, z, h)
    return float(advect + diffuse + convect + react + source)


def tw_residual_scale(tw: TravelingWave, z: float, h: float) -> float:
    """Magnitude of the largest term entering the residual at z."""
    return max(abs(t) for t in _tw_terms(tw, z, h))
