"""Reconstruction of the self-similar profile f(xi) and its interface.

The profile solves

    (f^m)'' + (N-1)/xi * (f^m)' - alpha*f + beta*xi*f' + xi^sigma * f^p = 0

with f(0) = 1, f'(0) = 0.  ``reconstruct`` integrates it in xi from a
series seed until X = (alpha/2m) xi^2 f^(1-m) rises through ``X_BIG``, then
carries the tail on in the slope chart (u, s, eta) = (Y/X, ln X, ln xi) of
the planar system, where the interface is no degeneracy: s runs to infinity
while eta converges to ln xi0.  The hand-off shares ``X_BIG`` with the
orbits, so the bulk ends where their X-Y phase does.  A reconstructed
profile evaluates anywhere through one private evaluator, which ``rescale``
composes.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.integrate import LSODA, solve_ivp
from scipy.optimize import minimize_scalar

from selfsim import integrator
from selfsim.integrator import PhaseStats, _rhs_slope
from selfsim.params import (
    DomainError,
    ModelParams,
    Regime,
    alpha_beta_from_k,
    exp,
    integer,
    positive_finite,
    power,
    regime,
)


#: the tail ends once the rest of eta = ln xi is below ETA_TOL, its run there
#: or once the rest is the type II closed form to CLOSED_REL, relative
ETA_TOL, CLOSED_REL = 1e-8, 1e-15
#: cap on the Newton iterations that invert eta(s) along the tail
INVERT_ITERATIONS = 8
#: samples over the bulk and over the tail
N_UNIFORM, N_TAIL = 40000, 5000
#: points per slice of a dense-output evaluation, which bounds its
#: temporaries: one slice over all N_UNIFORM bulk samples raised the peak
#: memory of a profile check by 12%
DENSE_SLICE = 4096
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
    xi0: float
    #: f on an array of xi >= 0 of any shape, such as the (n, k) grids of
    #: ``solution._masses``, as built by reconstruct or rescale
    _eval: Callable[[np.ndarray], np.ndarray] = field(repr=False,
                                                      compare=False)
    #: one record per LSODA run of ``reconstruct``: the bulk, then the tail
    stats: tuple[PhaseStats, ...] = field(default=(), compare=False)


def _seed(params: ModelParams, alpha: float, xi):
    """The series f = (1 + c xi^2)^(1/(m-1)), c = alpha (m-1) / (2mN), and
    its derivative f' at xi, a float or an array, by ``params.power``."""
    m = params.m
    c = alpha * (m - 1.0) / (2.0 * m * params.N)
    base = 1.0 + c * xi * xi
    f = power(base, 1.0 / (m - 1.0))
    fp = (2.0 * c * xi / (m - 1.0)) * power(base, (2.0 - m) / (m - 1.0))
    return f, fp


def _rhs(params: ModelParams, alpha: float, beta: float):
    """The bulk's field in Python floats, each power by ``params.power``;
    f'' is NaN off the ODE's domain (f <= 0, f^(m-1) at 0 or inf), as numpy
    gave, so a step there fails LSODA's error test."""
    m, N, sigma, p = params.m, params.N, params.sigma, params.p

    def rhs(xi, y):
        f, g = float(y[0]), float(y[1])
        w1 = m * power(f, m - 1.0) if f > 0.0 else 0.0
        if not 0.0 < w1 < math.inf:
            return (g, math.nan)
        acc = (
            alpha * f
            - beta * xi * g
            - power(xi, sigma) * power(f, p)
            - m * (m - 1.0) * power(f, m - 2.0) * g * g
            - (N - 1.0) / xi * w1 * g
        )
        return (g, acc / w1)

    return rhs


def reconstruct(params: ModelParams, K: float) -> Profile:
    """Integrate the profile from the series seed to its interface.

    The bulk runs in xi until X = (alpha/2m) xi^2 f^(1-m) rises through
    ``X_BIG``, the tail in the slope chart from there (``_slope_tail``).
    """
    if regime(params) is Regime.SUBCRITICAL:
        raise DomainError("profiles with interface require m + p >= 2")
    sp = alpha_beta_from_k(params, K)
    alpha, m, q1 = sp.alpha, params.m, params.power_excess
    eps = 1e-4 * math.sqrt(2.0 * m * params.N / (alpha * (m - 1.0)))
    c = alpha / (2.0 * m)

    past_range = f"profile at K = {K:g} lies past the float range (f overflows)"
    seed = _seed(params, alpha, eps)
    if not math.isfinite(sum(seed)):
        raise ReconstructionError(past_range)

    def ev_hand_off(xi, y):
        # X rising through X_BIG, written without dividing by f
        f = float(y[0])
        return c * xi * xi - integrator.X_BIG * power(max(f, 0.0), m - 1.0)

    ev_hand_off.terminal = True
    ev_hand_off.direction = 1.0

    # X grows like xi^2 while f stays bounded, so the hand-off comes unless
    # f^(m-1) leaves the float range first
    try:
        bulk = solve_ivp(
            _rhs(params, alpha, sp.beta),
            (eps, math.inf),
            seed,
            method="LSODA",
            rtol=integrator.REL_TOL,
            atol=integrator.ABS_TOL,
            events=[ev_hand_off],
            dense_output=True,
        )
    except ValueError as exc:
        # at huge K, f falls to 0 within a step below the spacing of the
        # floats near xi, so the hand-off cannot be bracketed in that step
        raise ReconstructionError(
            f"bulk run at K = {K:g} failed to locate its hand-off ({exc})"
        ) from exc
    if bulk.status != 1:
        raise ReconstructionError(
            f"bulk run at K = {K:g} reached xi = inf without its hand-off"
            if bulk.status == 0
            else f"bulk run at K = {K:g} failed: {bulk.message}")
    xi_h = float(bulk.t[-1])
    # the bulk is read for f alone, the tail for w and eta
    body = _DenseRun(bulk.sol.ts, bulk.sol.interpolants, 1)
    tail, tail_stats, xi0, s_last = _slope_tail(params, K, xi_h,
                                                *bulk.y[:, -1].tolist(), c)
    s_end = tail.ts[-1]

    def xi_of_s(s):
        # e^eta on the run, then the type II closed form it may end on
        run = xi_h * np.exp(tail(np.minimum(s, s_end))[1])
        closed = xi0 * np.exp(-np.exp(-q1 * s) / (K * q1))
        return np.where(s <= s_end, run, closed)

    # samples: uniform in xi over the bulk and uniform in s over the tail,
    # which is geometric in xi0 - xi there; eta stops growing in its last bits
    s = np.linspace(tail.ts[0], s_last, N_TAIL)
    xi_s = xi_of_s(s)
    xi_tail, first = np.unique(xi_s, return_index=True)
    xi = np.linspace(eps, xi_h, N_UNIFORM, endpoint=False)
    with np.errstate(over="ignore"):
        f = np.concatenate([body(xi)[0], (c * xi_tail**2 * np.exp(-s[first]))
                            ** (1 / (m - 1))])
    if not np.all(np.isfinite(f)):
        # as m -> 1 the power 1/(m-1) lifts f past the float range
        raise ReconstructionError(past_range)
    xi = np.concatenate([xi, xi_tail])
    return Profile(
        params=params,
        alpha=alpha,
        beta=sp.beta,
        xi=xi[f > 0.0],
        f=f[f > 0.0],
        xi0=xi0,
        stats=(PhaseStats("LSODA", int(bulk.nfev), int(bulk.njev),
                          len(bulk.t) - 1, int(bulk.status)), tail_stats),
        _eval=_reconstructed(params, K, alpha, body, eps, xi_h, tail, xi0,
                             xi_s[-1]),
    )


def _slope_tail(params: ModelParams, K: float, xi_h: float, f_h: float,
                g_h: float, c: float):
    """Carry the profile from the hand-off to its interface in the slope chart.

    ``_rhs_slope`` carries (u, eta) in s as w = u e^((2-q)s), which tends to
    -K/(m-1) on a type II tail while u falls below any atol.  deta/ds decays
    at least at the rate q1 = sigma/2 (``power_excess``), so rest =
    (deta/ds)/q1 estimates the eta still to come; on a type II tail it tends
    to e^(-q1 s)/(K q1).  The run ends once the rest is below ``ETA_TOL`` or
    is that closed form, which the tail then follows while w relaxes at a
    rate (m-1)e^((2-q)s)/K that soon lets rounding swamp dw/ds.  It ends
    too at the first step where c xi^2 overflows; xi0 exceeds that xi, so
    the float-range check after the run raises.  Returns the run's dense
    output of (w, eta - ln xi_h), its ``PhaseStats``, xi0 =
    xi_h exp(eta + rest) and the s where the rest falls below ``ETA_TOL``.  The run is stepped by
    hand, and each step's Nordsieck array goes into the ``_DenseRun`` that
    is its dense output.
    """
    m, q, q1 = params.m, params.power_ratio, params.power_excess
    s0 = math.log(c * xi_h * xi_h) + (1.0 - m) * math.log(f_h)
    slope = _rhs_slope(params, K)

    def rhs(s, y):
        w, eta = float(y[0]), float(y[1])
        E = math.exp((q - 2.0) * s)
        du, deta = slope(s, (w * E, eta))
        return (du / E + (2.0 - q) * w, deta)

    w0 = xi_h * g_h / f_h * math.exp(-q1 * s0)
    # stepped by hand: on solve_ivp with its end as a terminal event, the
    # same evaluations took 0.31-0.33 s per reconstruct, not 0.26 (2 cores);
    # tolerances a 100th of the bulk's: |Y| > 100 scales an eta error in ln f
    solver = LSODA(rhs, s0, [w0, 0.0], integrator.LN_X_CAP,
                   rtol=integrator.REL_TOL / 100.0,
                   atol=integrator.ABS_TOL / 100.0)
    ts, steps, converged, past = [s0], [], False, False
    while not (converged or past) and solver.status == "running":
        message = solver.step()
        y = solver.y.tolist()
        if solver.status == "failed" or not all(map(math.isfinite, y)):
            raise ReconstructionError(
                f"slope chart tail failed at ln X = {solver.t:.1f} "
                f"({message or 'nonfinite state'})"
            )
        ts.append(solver.t)
        steps.append(solver.dense_output())
        rest = rhs(solver.t, y)[1] / q1
        closed = math.exp(-q1 * solver.t) / (K * q1)
        converged = rest < ETA_TOL or abs(closed - rest) < CLOSED_REL * rest
        past = not math.isfinite(c * power(xi_h * exp(y[1]), 2.0))
    stats = PhaseStats("LSODA", int(solver.nfev), int(solver.njev),
                       len(steps), int(converged))
    xi0 = xi_h * exp(y[1] + rest)
    if not math.isfinite(c * power(xi0, 2.0)):
        # the tail samples f from c xi^2 e^(-s)
        raise ReconstructionError(
            f"interface at K = {K:g} lies past the float range "
            f"(alpha xi0^2 / 2m overflows)")
    s_last = (solver.t if rest < ETA_TOL
              else -math.log(ETA_TOL * K * q1) / q1)
    return _DenseRun(ts, steps, 2), stats, xi0, s_last


class _DenseRun:
    """The dense output of one LSODA run, evaluated a batch at a time.

    Step i covers [ts[i], ts[i+1]] with the polynomial
    sum_j yh[i, :, j] ((x - t[i]) / h[i])^j of scipy's ``LsodaDenseOutput``,
    where t[i] is the solver's t after the step (past ts[-1] on the last
    step of a run cut by an event), h[i] the step size and yh[i] the
    Nordsieck array, zero-padded to the run's highest order.  Only the
    first ``n_states`` components are kept, the ones the run is read for.
    A point on a step end takes the step that ends there, and a point
    outside [ts[0], ts[-1]] the nearest step.
    """

    def __init__(self, ts, steps, n_states: int) -> None:
        self.ts = np.asarray(ts, dtype=float)
        self.t = np.array([step.t for step in steps])
        self.h = np.array([step.h for step in steps])
        n_coef = max(len(step.p) for step in steps)
        self.yh = np.zeros((len(steps), n_states, n_coef))
        for i, step in enumerate(steps):
            self.yh[i, :, :len(step.p)] = step.yh[:n_states]

    def step(self, x: np.ndarray) -> np.ndarray:
        """The step that evaluates each point of x: the count of inner step
        ends below it, so an end takes the step that ends there and a point
        outside the run the nearest step."""
        return np.searchsorted(self.ts[1:-1], x)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """The kept states at a 1-d array x, shape (n_states, len(x))."""
        out = np.empty((self.yh.shape[1], len(x)))
        for lo in range(0, len(x), DENSE_SLICE):
            xs = x[lo:lo + DENSE_SLICE]
            i = self.step(xs)
            # powers by products: the ratio is negative, and ** on negative
            # bases goes through libm's slow pow
            z = np.vander((xs - self.t[i]) / self.h[i], self.yh.shape[2],
                          increasing=True)
            out[:, lo:lo + DENSE_SLICE] = np.einsum("ivj,ij->vi", self.yh[i], z)
        return out


def _reconstructed(params: ModelParams, K: float, alpha: float,
                   bulk: _DenseRun, eps: float, xi_h: float, tail: _DenseRun,
                   xi0: float, xi_last: float):
    """Series below eps, the bulk run up to the hand-off xi_h, the tail up
    to xi_last mapped back by f = (alpha xi^2 e^(-s)/2m)^(1/(m-1)), and 0
    beyond.  Newton's method inverts eta(s) on the tail run's dense output
    with ds/deta = 2 - (m-1)Y, Y = w e^(q1 s), q1 = sigma/2, the X equation
    of the planar system, each point until its own miss is within rounding;
    past the run, s solves ln(xi0/xi) = e^(-q1 s)/(K q1) with no iteration.
    The evaluator takes an array of any shape; a batch within one piece goes
    to it whole, a mixed batch point by point through masks."""
    m, q1 = params.m, params.power_excess
    power = 1.0 / (m - 1.0)
    etas = tail(tail.ts)[1]
    xi_end = xi_h * math.exp(etas[-1])

    def run_f(xs):
        # f at a 1-d array in (xi_h, xi_last]
        past = xs > xi_end
        todo = np.flatnonzero(~past)
        eta = np.log(xs[todo] / xi_h)
        s = np.empty_like(xs)
        s[past] = -np.log(K * q1 * np.log(xi0 / xs[past])) / q1
        s[todo] = np.interp(eta, etas, tail.ts)
        for _ in range(INVERT_ITERATIONS):
            if not todo.size:
                break
            w, miss = tail(s[todo])
            miss -= eta
            keep = np.abs(miss) > 1e-15 * np.maximum(eta, 1.0)
            todo, eta, w, miss = todo[keep], eta[keep], w[keep], miss[keep]
            ds_deta = 2.0 - (m - 1.0) * w * np.exp(q1 * s[todo])
            s[todo] -= miss * ds_deta
        return (alpha / (2.0 * m) * xs * xs * np.exp(-s)) ** power

    # f on each piece in order of xi: the series head, the bulk run, the
    # tail, and 0 past xi_last
    pieces = (lambda xs: _seed(params, alpha, xs)[0], lambda xs: bulk(xs)[0],
              run_f, np.zeros_like)

    def piece(x):
        # the index into pieces of each point of x, an array or a scalar
        return (x >= eps).astype(np.intp) + (x > xi_h) + (x > xi_last)

    def f_of(x):
        flat = x.ravel()
        if not flat.size:
            return np.zeros_like(x)
        lo, hi = piece(flat.min()), piece(flat.max())
        if lo == hi:
            # the pieces are intervals in order, so every point lies in it
            return pieces[lo](flat).reshape(x.shape)
        which = piece(flat)
        out = np.zeros_like(flat)  # already f past xi_last
        for k in range(lo, min(hi, 2) + 1):
            sel = which == k
            if sel.any():
                out[sel] = pieces[k](flat[sel])
        return out.reshape(x.shape)

    return f_of


def evaluate_f(profile: Profile, xi) -> np.ndarray:
    """Evaluate the profile at arbitrary xi >= 0 (0 beyond the interface);
    a negative or NaN xi raises ``DomainError`` naming the first one."""
    x = np.atleast_1d(np.asarray(xi, dtype=float))
    if not np.all(x >= 0.0):
        raise DomainError(f"xi must be >= 0, got {x[~(x >= 0.0)][0]}")
    out = profile._eval(x)
    return float(out[0]) if np.ndim(xi) == 0 else out


def ode_residual(profile: Profile, index: int) -> float:
    """Absolute residual of the profile ODE at an interior sample index.

    Derivatives come from local polynomial interpolation on the stored
    (possibly nonuniform) grid: a 5-point stencil in the interior, 3-point
    next to the ends, of degree len(stencil)-1 through f^m and f at once.
    """
    index = integer("index", index)
    xi, f = profile.xi, profile.f
    n = len(xi)
    if not 1 <= index <= n - 2:
        raise DomainError(f"index {index} not interior")
    params = profile.params
    m, N, sigma, p = params.m, params.N, params.sigma, params.p
    half = 2 if 2 <= index <= n - 3 else 1
    sl = slice(index - half, index + half + 1)
    x1 = xi[index]
    # columns: the Taylor coefficients of f^m and of f at x1
    c = np.linalg.solve(np.vander(xi[sl] - x1, increasing=True),
                        np.stack([f[sl] ** m, f[sl]], axis=1))
    res = (
        2.0 * c[2, 0]
        + (N - 1.0) / x1 * c[1, 0]
        - profile.alpha * f[index]
        + profile.beta * x1 * c[1, 1]
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

    gap0 = max(profile.xi0 - xi_last, 1e-300)

    def line(xi0: float):
        # (slope, intercept) of log f on log(xi0 - xi), and its residual
        t = np.log(xi0 - xs)
        A = np.vstack([t, np.ones_like(t)]).T
        coef, res, *_ = np.linalg.lstsq(A, log_f, rcond=None)
        return coef, float(res[0]) if len(res) else 0.0

    opt = minimize_scalar(
        lambda log_gap: line(xi_last + math.exp(log_gap))[1],
        bounds=(math.log(gap0) - 7.0, math.log(gap0) + 7.0),
        method="bounded",
        options={"xatol": 1e-12},
    )
    xi0 = xi_last + math.exp(opt.x)
    (slope, intercept), _ = line(xi0)
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
    """Exact symmetry g(xi) = lam^(-2/(m-1)) * f(lam*xi) of the profile ODE.

    lam, the factor lam^(-2/(m-1)) and the interface xi0/lam must all be
    positive and finite.
    """
    lam = positive_finite("lambda", lam)
    fac = power(lam, -2.0 / (profile.params.m - 1.0))
    xi0 = profile.xi0 / lam
    if not (0.0 < fac < math.inf and 0.0 < xi0 < math.inf):
        raise DomainError(f"lambda = {lam} scales f by {fac} and xi0 to "
                          f"{xi0}, off the float range")
    base = profile._eval
    return Profile(
        params=profile.params,
        alpha=profile.alpha,
        beta=profile.beta,
        xi=profile.xi / lam,
        f=profile.f * fac,
        xi0=xi0,
        _eval=lambda x: fac * base(lam * x),
        stats=profile.stats,
    )
