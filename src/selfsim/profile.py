"""Reconstruction of the self-similar profile f(xi) and its interface.

The profile solves

    (f^m)'' + (N-1)/xi * (f^m)' - alpha*f + beta*xi*f' + xi^sigma * f^p = 0

with f(0) = 1, f'(0) = 0.  Integration starts from a series seed at a
scale-aware offset, stops when f drops below a floor (the equation loses
Lipschitz continuity at f = 0), and the interface position xi0 is
extrapolated from the vanishing power law of the tail.  A reconstructed
profile evaluates anywhere through one private evaluator: the series below
the seed offset, the dense ODE solution up to the last sample, the tail
power law up to xi0 and 0 beyond; ``rescale`` composes it.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import PchipInterpolator
from scipy.optimize import minimize_scalar

from selfsim.integrator import IntegratorOptions
from selfsim.params import (
    DomainError,
    ModelParams,
    Regime,
    ShootingParam,
    alpha_beta_from_k,
    regime,
)


#: integration stops once f drops below this floor
F_FLOOR = 1e-8
#: samples on the uniform bulk grid and on the geometric cluster at the tail
N_UNIFORM, N_CLUSTER = 40000, 5000
#: fit_interface fits the tail band f < TAIL_WINDOW * f(0)
TAIL_WINDOW = 0.05


class ReconstructionError(RuntimeError):
    """The profile failed to reach its interface."""


class InterfaceType(Enum):
    TYPE_I = "TypeI"          # f ~ C*(xi0 - xi)^(1/(m-1))
    TYPE_II = "TypeII"        # f ~ C*(xi0 - xi)^(1/(1-p))
    SIGN_CHANGE = "SignChange"  # f ~ C*(xi0 - xi)^(1/m), not admissible
    INDETERMINATE = "Indeterminate"


@dataclass(frozen=True)
class InterfaceFit:
    xi0: float
    exponent: float
    constant: float
    type_label: InterfaceType


@dataclass(frozen=True)
class Profile:
    params: ModelParams
    alpha: float
    beta: float
    xi: np.ndarray
    f: np.ndarray
    xi0: float | None = None
    interface_fit: InterfaceFit | None = None
    #: f on a 1-d array of xi >= 0, as built by reconstruct or rescale; a
    #: profile built from samples alone gets ``_sampled`` of its samples
    _eval: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self._eval is None:
            object.__setattr__(self, "_eval", _sampled(self.xi, self.f))


def _sampled(xi: np.ndarray, f: np.ndarray):
    """PCHIP interpolant of ln f over the samples, 0 past the last one.

    Below the first sample it holds f(xi[0]): the profile is even with
    f'(0) = 0, so it is flat at the origin.
    """
    interp = PchipInterpolator(xi, np.log(f), extrapolate=False)
    return lambda x: np.select([x < xi[0], x <= xi[-1]],
                               [f[0], np.exp(interp(x))], 0.0)


def _series_coeff(params: ModelParams, alpha: float) -> float:
    return alpha * (params.m - 1.0) / (2.0 * params.m * params.N)


def _seed(params: ModelParams, alpha: float, eps: float) -> tuple[float, float]:
    c = _series_coeff(params, alpha)
    m = params.m
    base = 1.0 + c * eps * eps
    f = base ** (1.0 / (m - 1.0))
    fp = (2.0 * c * eps / (m - 1.0)) * base ** ((2.0 - m) / (m - 1.0))
    return f, fp


def _rhs(params: ModelParams, alpha: float, beta: float):
    m, N, sigma, p = params.m, params.N, params.sigma, params.p

    def rhs(xi, y):
        f, g = y
        fc = max(f, 1e-300)
        w1 = m * fc ** (m - 1.0)
        acc = (
            alpha * f
            - beta * xi * g
            - xi**sigma * fc**p
            - m * (m - 1.0) * fc ** (m - 2.0) * g * g
            - (N - 1.0) / xi * w1 * g
        )
        return (g, acc / w1)

    return rhs


def reconstruct(
    params: ModelParams,
    K: float,
    opts: IntegratorOptions | None = None,
) -> Profile:
    """Integrate the profile ODE from the series seed down to the interface.

    The returned samples are a fine uniform grid over the bulk plus a
    geometric cluster approaching the interface (needed to resolve the
    vanishing exponent); ``xi0`` is extrapolated from the best-fitting
    power law among the admissible tail behaviors.
    """
    reg = regime(params)
    if reg is Regime.SUBCRITICAL:
        raise DomainError("profiles with interface require m + p >= 2")
    opts = opts or IntegratorOptions()
    sp: ShootingParam = alpha_beta_from_k(params, K)
    alpha, beta = sp.alpha, sp.beta
    m = params.m

    scale = math.sqrt(2.0 * m * params.N / (alpha * (m - 1.0)))
    eps = 1e-4 * scale
    f0, g0 = _seed(params, alpha, eps)
    # the interface can sit hundreds of hump-widths out for small K
    xi_max = 1e5 * scale

    def ev_floor(xi, y):
        return y[0] - F_FLOOR

    ev_floor.terminal = True
    ev_floor.direction = -1.0

    def ev_blow(xi, y):
        return y[0] - 1e12

    ev_blow.terminal = True
    ev_blow.direction = 1.0

    def run(method):
        return solve_ivp(
            _rhs(params, alpha, beta),
            (eps, xi_max),
            [f0, g0],
            method=method,
            rtol=max(opts.rel_tol, 1e-12),
            atol=max(opts.abs_tol, 1e-14),
            events=[ev_floor, ev_blow],
            dense_output=True,
        )

    try:
        sol = run("LSODA")
    except ValueError:
        # LSODA's event interpolant misbehaves when the step underflows at
        # a sign-change tail (f' -> -inf); RK45 stalls there cleanly
        sol = run("RK45")
    if len(sol.t_events[1]) > 0:
        raise ReconstructionError(
            "profile failed to decrease (wrong-regime call?)"
        )
    if len(sol.t_events[0]) > 0:
        xi_f = float(sol.t_events[0][0])
    elif sol.status == -1 and sol.y[0, -1] < 1e-4:
        # sign-change tails have f' -> -inf at f = 0; the stepper stalls
        # just above the floor, which still pins down the interface
        xi_f = float(sol.t[-1])
    else:
        raise ReconstructionError(
            f"floor {F_FLOOR} not reached by xi = {xi_max:.3g}"
        )

    dense = sol.sol
    xi0, tail_exp, tail_const = _extrapolate_interface(params, dense, xi_f)

    # sample grid: uniform bulk + geometric cluster approaching xi_f
    split = min(0.985 * xi_f, xi_f - 1e-3 * (xi0 - eps))
    bulk = np.linspace(eps, split, N_UNIFORM)
    gaps = np.geomspace(xi0 - split, xi0 - xi_f, N_CLUSTER)
    cluster = xi0 - gaps
    grid = np.unique(np.concatenate([bulk, cluster]))
    grid = grid[(grid >= eps) & (grid <= xi_f)]
    f_vals = np.clip(dense(grid)[0], 0.0, None)
    keep = f_vals > 0.0
    grid, f_vals = grid[keep], f_vals[keep]

    return Profile(
        params=params,
        alpha=alpha,
        beta=beta,
        xi=grid,
        f=f_vals,
        xi0=xi0,
        _eval=_reconstructed(params, alpha, dense, eps, grid[-1], xi0,
                             tail_exp, tail_const),
    )


def _reconstructed(params: ModelParams, alpha: float, dense, eps: float,
                   xi_last: float, xi0: float, e: float, C: float):
    """Series below eps, dense solution up to xi_last, C*(xi0 - xi)^e up to
    xi0, and 0 beyond."""
    c = _series_coeff(params, alpha)
    power = 1.0 / (params.m - 1.0)

    def f_of(x):
        out = np.zeros_like(x)
        head = x < eps
        if np.any(head):
            out[head] = (1.0 + c * x[head] ** 2) ** power
        mid = (x >= eps) & (x <= xi_last)
        if np.any(mid):
            out[mid] = np.clip(dense(x[mid])[0], 0.0, None)
        tail = (x > xi_last) & (x < xi0)
        if np.any(tail):
            out[tail] = C * (xi0 - x[tail]) ** e
        return out

    return f_of


def _extrapolate_interface(
    params: ModelParams, dense, xi_f: float
) -> tuple[float, float, float]:
    """Extrapolate xi0 from the vanishing power law of the tail.

    With f ~ C*(xi0 - xi)^e the slope of ln(-f') against ln f is
    (e - 1)/e, so the exponent can be read off without knowing xi0.  The
    measured exponent is snapped to the nearest admissible value among
    1/(m-1) (saddle-ray interface), 1/(1-p) (node interface) and 1/m
    (sign-change), and xi0 comes from the linear fit of f^(1/e) vs xi.
    Returns (xi0, exponent, constant) of f ~ C*(xi0 - xi)^e.
    """
    m, p = params.m, params.p
    # probe points marching into the steep tail
    gaps = np.geomspace(1e-12 * xi_f, 0.2 * xi_f, 160)
    xi_pts = xi_f - gaps[::-1]
    vals = dense(xi_pts)
    f_pts, g_pts = vals[0], vals[1]
    sel = (f_pts > 2.0 * F_FLOOR) & (f_pts < 0.05) & (g_pts < 0.0)
    if np.count_nonzero(sel) < 8:
        sel = (f_pts > 0.0) & (g_pts < 0.0)
    if np.count_nonzero(sel) < 4:
        raise ReconstructionError("no vanishing power law fits the tail")
    xi_pts, f_pts, g_pts = xi_pts[sel], f_pts[sel], g_pts[sel]

    n_deep = min(40, len(f_pts))
    lf, lg = np.log(f_pts[-n_deep:]), np.log(-g_pts[-n_deep:])
    s = np.polyfit(lf, lg, 1)[0]
    if s >= 1.0:
        raise ReconstructionError("tail derivative does not diverge or decay")
    e_raw = 1.0 / (1.0 - s)
    theta = min((m - 1.0, 1.0 - p, m), key=lambda t: abs(1.0 / t - e_raw))

    w = f_pts[-n_deep:] ** theta
    A = np.vstack([xi_pts[-n_deep:], np.ones(n_deep)]).T
    slope, intercept = np.linalg.lstsq(A, w, rcond=None)[0]
    if slope >= 0.0:
        raise ReconstructionError("no vanishing power law fits the tail")
    xi0 = -intercept / slope
    if xi0 <= xi_f:
        # linear fit undershot; fall back to the local gap estimate
        xi0 = xi_f + theta * f_pts[-1] / (-g_pts[-1])
    return xi0, 1.0 / theta, (-slope) ** (1.0 / theta)


def evaluate_f(profile: Profile, xi) -> np.ndarray:
    """Evaluate the profile at arbitrary xi >= 0 (0 beyond the interface)."""
    out = profile._eval(np.atleast_1d(np.asarray(xi, dtype=float)))
    if np.isscalar(xi) or np.ndim(xi) == 0:
        return float(out[0])
    return out


def _fd_derivs(x: np.ndarray, v: np.ndarray, x_at: float) -> tuple[float, float]:
    """First and second derivative at x_at from polynomial interpolation."""
    t = x - x_at
    # Vandermonde solve; degree len(x)-1 keeps this exact for polynomials
    A = np.vander(t, increasing=True)
    c = np.linalg.solve(A, v)
    return float(c[1]), 2.0 * float(c[2])


def ode_residual(profile: Profile, index: int) -> float:
    """Absolute residual of the profile ODE at an interior sample index.

    Derivatives come from local polynomial interpolation on the stored
    (possibly nonuniform) grid: a 5-point stencil in the interior, 3-point
    next to the ends.
    """
    xi, f = profile.xi, profile.f
    n = len(xi)
    if not 1 <= index <= n - 2:
        raise DomainError(f"index {index} not interior")
    params = profile.params
    m, N, sigma, p = params.m, params.N, params.sigma, params.p
    half = 2 if 2 <= index <= n - 3 else 1
    sl = slice(index - half, index + half + 1)
    x1 = xi[index]
    w_p, w_pp = _fd_derivs(xi[sl], f[sl] ** m, x1)
    f_p, _ = _fd_derivs(xi[sl], f[sl], x1)
    res = (
        w_pp
        + (N - 1.0) / x1 * w_p
        - profile.alpha * f[index]
        + profile.beta * x1 * f_p
        + x1**sigma * f[index] ** p
    )
    return abs(float(res))


#: relative window for matching the fitted exponent to an analytic target
FIT_WINDOW = 0.1


def fit_interface(profile: Profile) -> InterfaceFit:
    """Fit f ~ C*(xi0 - xi)^e on the tail with xi0 jointly optimized.

    The fit uses the tail band f < TAIL_WINDOW * f(0).  The exponent is a
    log-log regression slope; xi0 is chosen by minimizing the regression
    residual (golden-section in the gap beyond the last sample).  The
    exponent is then matched against 1/(m-1), 1/(1-p) and 1/m.
    """
    xi, f = profile.xi, profile.f
    f0 = float(f[0])
    sel = f < TAIL_WINDOW * f0
    if np.count_nonzero(sel) < 20:
        raise DomainError("need at least 20 samples below the fit window")
    xs, fs = xi[sel], f[sel]
    log_f = np.log(fs)
    xi_last = float(xs[-1])

    gap0 = (profile.xi0 - xi_last) if profile.xi0 else xi_last * 1e-6
    gap0 = max(gap0, 1e-300)

    def sse(log_gap: float) -> float:
        xi0 = xi_last + math.exp(log_gap)
        t = np.log(xi0 - xs)
        A = np.vstack([t, np.ones_like(t)]).T
        _, res, *_ = np.linalg.lstsq(A, log_f, rcond=None)
        return float(res[0]) if len(res) else 0.0

    opt = minimize_scalar(
        sse,
        bounds=(math.log(gap0) - 7.0, math.log(gap0) + 7.0),
        method="bounded",
        options={"xatol": 1e-12},
    )
    xi0 = xi_last + math.exp(opt.x)
    t = np.log(xi0 - xs)
    A = np.vstack([t, np.ones_like(t)]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, log_f, rcond=None)
    exponent = float(slope)
    constant = float(math.exp(intercept))

    m, p = profile.params.m, profile.params.p
    targets = [
        (1.0 / (m - 1.0), InterfaceType.TYPE_I),
        (1.0 / (1.0 - p), InterfaceType.TYPE_II),
        (1.0 / m, InterfaceType.SIGN_CHANGE),
    ]
    label = InterfaceType.INDETERMINATE
    best_rel = math.inf
    for target, lab in targets:
        rel = abs(exponent - target) / target
        if rel < FIT_WINDOW and rel < best_rel:
            best_rel, label = rel, lab
    return InterfaceFit(
        xi0=xi0, exponent=exponent, constant=constant, type_label=label
    )


def rescale(profile: Profile, lam: float) -> Profile:
    """Exact symmetry g(xi) = lam^(-2/(m-1)) * f(lam*xi) of the profile ODE."""
    if not lam > 0.0:
        raise DomainError(f"lambda must be positive, got {lam}")
    gamma = 2.0 / (profile.params.m - 1.0)
    fac = lam**-gamma
    xi0 = profile.xi0 / lam if profile.xi0 is not None else None
    fit = profile.interface_fit
    if fit is not None:
        fit = InterfaceFit(
            xi0=fit.xi0 / lam,
            exponent=fit.exponent,
            constant=fit.constant * fac * lam**fit.exponent,
            type_label=fit.type_label,
        )
    base = profile._eval
    return Profile(
        params=profile.params,
        alpha=profile.alpha,
        beta=profile.beta,
        xi=profile.xi / lam,
        f=profile.f * fac,
        xi0=xi0,
        interface_fit=fit,
        _eval=lambda x: fac * base(lam * x),
    )
