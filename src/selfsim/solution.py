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
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn

from selfsim.params import DomainError, ModelParams
from selfsim.profile import Profile, evaluate_f


@dataclass(frozen=True)
class EternalSolution:
    profile: Profile
    alpha: float
    beta: float


def make_solution(profile: Profile) -> EternalSolution:
    return EternalSolution(profile=profile, alpha=profile.alpha,
                           beta=profile.beta)


def evaluate_u(sol: EternalSolution, r, t: float):
    """u(r, t) = exp(alpha*t) * f(r * exp(-beta*t)); 0 beyond the interface."""
    xi = np.asarray(r, dtype=float) * math.exp(-sol.beta * t)
    return math.exp(sol.alpha * t) * evaluate_f(sol.profile, xi)


def pde_residual(sol: EternalSolution, r: float, t: float, h: float) -> float:
    """Finite-difference residual of the radial equation at (r, t).

    Uses the symmetric extension u(-r) = u(r) near the origin; accuracy
    degrades within a few h of the interface, which callers must avoid.
    """
    if not h > 0.0:
        raise DomainError(f"h must be positive, got {h}")
    params = sol.profile.params
    m, N, sigma, p = params.m, params.N, params.sigma, params.p

    def u(rr, tt):
        return evaluate_u(sol, abs(rr), tt)

    u0 = u(r, t)
    u_t, _ = _central(u(r, t - h), u0, u(r, t + h), h)
    w_r, w_rr = _central(u(r - h, t) ** m, u0**m, u(r + h, t) ** m, h)
    return float(u_t - w_rr - (N - 1.0) / r * w_r - r**sigma * u0**p)


def _central(lo: float, mid: float, hi: float, h: float) -> tuple[float, float]:
    """First and second central differences of samples at x - h, x, x + h."""
    return (hi - lo) / (2.0 * h), (hi - 2.0 * mid + lo) / (h * h)


def sphere_area(N: int) -> float:
    """Surface measure of the unit sphere in R^N (2 for N = 1)."""
    return 2.0 * math.pi ** (N / 2.0) / gamma_fn(N / 2.0)


def mass_growth_rate(sol: EternalSolution, t_samples: list[float]) -> float:
    """Fitted exponential rate of the total mass M(t); equals alpha + N*beta.

    M(t) is computed by adaptive quadrature over the (compact) support at
    each sample time and the rate is the least-squares slope of ln M(t).
    """
    params = sol.profile.params
    N = params.N
    if sol.profile.xi0 is None:
        raise DomainError("profile has no interface; mass is not defined")
    omega = sphere_area(N)
    log_m = []
    for t in t_samples:
        edge = sol.profile.xi0 * math.exp(sol.beta * t)

        def integrand(r, t=t):
            return evaluate_u(sol, r, t) * r ** (N - 1.0)

        val, _ = quad(integrand, 0.0, edge, limit=200)
        if not (np.isfinite(val) and val > 0.0):
            raise DomainError(f"quadrature failed at t={t}")
        log_m.append(math.log(omega * val))
    slope = np.polyfit(np.asarray(t_samples, dtype=float), log_m, 1)[0]
    return float(slope)


@dataclass(frozen=True)
class TravelingWave:
    """Wave profile F(z) with speed c for the transformed 1-D equation.

    F(z) = exp(-2z/(m-1)) * f(exp(z)); compactly supported to the right of
    z = ln(xi0), unbounded as z -> -infinity.
    """

    c: float
    z_grid: np.ndarray
    F: np.ndarray
    params: ModelParams
    profile: Profile = field(repr=False, compare=False, default=None)

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
    """Map the eternal solution to its traveling wave, speed c = beta."""
    profile = sol.profile
    if profile.xi0 is None:
        raise DomainError("profile has no interface")
    z_lo = math.log(profile.xi[0])
    z_hi = math.log(profile.xi0)
    z = np.linspace(z_lo, z_hi + 0.1 * (z_hi - z_lo), TW_POINTS)
    F = tw_value_on(profile, z)
    return TravelingWave(c=sol.beta, z_grid=z, F=F, params=profile.params,
                         profile=profile)


def tw_value_on(profile: Profile, z) -> np.ndarray:
    """F(z) = exp(-2z/(m-1)) * f(exp(z))."""
    gamma = 2.0 / (profile.params.m - 1.0)
    z_arr = np.asarray(z, dtype=float)
    return np.exp(-gamma * z_arr) * evaluate_f(profile, np.exp(z_arr))


def _tw_terms(tw: TravelingWave, z: float, h: float) -> tuple[float, ...]:
    """The five terms of the traveling-wave operator at z, by central
    differences with step h."""
    params = tw.params
    F = [float(tw_value_on(tw.profile, zz)) for zz in (z - h, z, z + h)]
    w = [v ** params.m for v in F]
    Fp, _ = _central(*F, h)
    w_p, w_pp = _central(*w, h)
    return (tw.c * Fp, w_pp, convection_coefficient(params) * w_p,
            reaction_coefficient(params) * w[1], F[1] ** params.p)


def tw_residual(tw: TravelingWave, z: float, h: float) -> float:
    """Finite-difference residual of the traveling-wave equation at z.

    With the F(y - c*tau) orientation the operator is

        c*F' + (F^m)'' + a*(F^m)' + b*F^m + F^p,

    where a and b are the convection and reaction coefficients of the
    transformed equation.
    """
    if not h > 0.0:
        raise DomainError(f"h must be positive, got {h}")
    advect, diffuse, convect, react, source = _tw_terms(tw, z, h)
    return float(advect + diffuse + convect + react + source)


def tw_residual_scale(tw: TravelingWave, z: float, h: float) -> float:
    """Magnitude of the largest term entering the residual at z."""
    return max(abs(t) for t in _tw_terms(tw, z, h))
