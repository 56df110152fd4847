"""Classification of the P0-orbit over K and bisection for the critical K*.

For m + p >= 2 the K-axis splits into an interval of Q1-connections, a
single saddle connection at K = K*, and an interval of Q3-connections.
The saddle connection itself has measure zero, so K* is defined
operationally as the Q1/Q3 transition located by bracketing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from selfsim.integrator import (
    IntegratorOptions,
    Orbit,
    OrbitTag,
    integrate_from_p0,
    tightened,
)
from selfsim.params import (
    DomainError,
    ModelParams,
    Regime,
    ShootingParam,
    alpha_beta_from_k,
    regime,
)


class BracketError(RuntimeError):
    """No Q1/Q3 sign change found, or too many unresolved probes."""


@dataclass(frozen=True)
class ClassificationReport:
    params: ModelParams
    regime: Regime
    K_grid: tuple[tuple[float, OrbitTag], ...]
    K_star: float | None = None
    K_star_bracket: tuple[float, float] | None = None
    alpha_star: float | None = None
    #: analytic K* = (m-1)^2/4 and its relative discrepancy (m + p = 2 only)
    K_star_analytic: float | None = None
    K_star_discrepancy: float | None = None
    notes: str = ""


#: retries with tightened options before an orbit is reported unresolved
RETRIES = 2


def shoot(
    params: ModelParams, K: float, opts: IntegratorOptions | None = None
) -> Orbit:
    """The P0-orbit for a single K, retried while its endpoint is unresolved.

    Unresolved outcomes (slow saddle passage) are retried with tightened
    tolerances and a larger ln X budget; the last orbit integrated is
    returned.
    """
    opts = opts or IntegratorOptions()
    orbit = integrate_from_p0(params, K, opts)
    for _ in range(RETRIES):
        if orbit.termination.tag is not OrbitTag.UNRESOLVED:
            break
        opts = tightened(opts)
        orbit = integrate_from_p0(params, K, opts)
    return orbit


def classify(
    params: ModelParams, K: float, opts: IntegratorOptions | None = None
) -> OrbitTag:
    """Endpoint tag of the P0-orbit for a single K, after ``shoot``'s retries."""
    return shoot(params, K, opts).termination.tag


_K_MIN, _K_MAX = 1e-6, 1e6


def find_k_star(
    params: ModelParams,
    tol_K: float = 1e-6,
    opts: IntegratorOptions | None = None,
) -> ClassificationReport:
    """Bracket and bisect the Q1 -> Q3 transition in K.

    ``tol_K`` is relative: bisection stops once K_hi - K_lo < tol_K * K_lo,
    or earlier if the probes near the transition become numerically
    indistinguishable (recorded in ``notes``).
    """
    reg = regime(params)
    if reg is Regime.SUBCRITICAL:
        raise DomainError("no transition exists for m + p < 2")
    opts = opts or IntegratorOptions()
    probes: list[tuple[float, OrbitTag]] = []
    unresolved = 0

    def probe(K: float) -> OrbitTag:
        nonlocal unresolved
        tag = classify(params, K, opts)
        probes.append((K, tag))
        if tag is OrbitTag.UNRESOLVED:
            unresolved += 1
            if unresolved > max(2, len(probes) // 10):
                raise BracketError(
                    f"too many unresolved probes ({unresolved}/{len(probes)})"
                )
        return tag

    # expanding search for a (ToQ1, ToQ3) bracket
    if reg is Regime.CRITICAL:
        K0 = 0.25 * (params.m - 1.0) ** 2  # analytic transition; start nearby
        K_lo, K_hi = 0.5 * K0, 2.0 * K0
    else:
        K_lo = K_hi = 1.0
    while probe(K_lo) is not OrbitTag.TO_Q1:
        K_lo /= 8.0
        if K_lo < _K_MIN:
            raise BracketError(f"no Q1-connection found above K={_K_MIN}")
    while probe(K_hi) is not OrbitTag.TO_Q3:
        K_hi *= 8.0
        if K_hi > _K_MAX:
            raise BracketError(f"no Q3-connection found below K={_K_MAX}")

    notes = ""
    while K_hi - K_lo >= tol_K * K_lo:
        mid = math.sqrt(K_lo * K_hi)
        tag = probe(mid)
        if tag is OrbitTag.TO_Q1:
            K_lo = mid
        elif tag is OrbitTag.TO_Q3:
            K_hi = mid
        elif tag is OrbitTag.TO_Q4:
            # transient lock onto the saddle ray: treat as the connection
            K_lo = K_hi = mid
            notes = "midpoint locked onto the Q4 ray"
            break
        else:
            notes = (
                f"stopped at bracket width {(K_hi - K_lo) / K_lo:.3g} "
                "(probe unresolved)"
            )
            break

    K_star = math.sqrt(K_lo * K_hi)
    sp: ShootingParam = alpha_beta_from_k(params, K_star)
    analytic = discrepancy = None
    if reg is Regime.CRITICAL:
        analytic = 0.25 * (params.m - 1.0) ** 2
        discrepancy = abs(K_star - analytic) / analytic
    return ClassificationReport(
        params=params,
        regime=reg,
        K_grid=tuple(sorted(probes)),
        K_star=K_star,
        K_star_bracket=(K_lo, K_hi),
        alpha_star=sp.alpha,
        K_star_analytic=analytic,
        K_star_discrepancy=discrepancy,
        notes=notes,
    )


def nonexistence_sweep(
    params: ModelParams,
    K_grid: list[float],
    opts: IntegratorOptions | None = None,
) -> ClassificationReport:
    """Classify every K on a grid in the m + p < 2 regime.

    Every resolved probe is expected to end at Q3 (no interface behavior);
    unresolved entries are kept in the grid for inspection.
    """
    reg = regime(params)
    if reg is not Regime.SUBCRITICAL:
        raise DomainError("nonexistence sweep applies to m + p < 2 only")
    opts = opts or IntegratorOptions()
    probes = tuple(sorted((K, classify(params, K, opts)) for K in K_grid))
    bad = [K for K, tag in probes
           if tag not in (OrbitTag.TO_Q3, OrbitTag.UNRESOLVED)]
    notes = "" if not bad else f"unexpected non-Q3 tags at K={bad}"
    return ClassificationReport(
        params=params, regime=reg, K_grid=probes, notes=notes
    )
