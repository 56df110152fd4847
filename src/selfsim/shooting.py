"""Classification of the P0-orbit over K and bisection for the critical K*.

For m + p >= 2 the K-axis splits into an interval of Q1-connections, a
single saddle connection at K = K*, and an interval of Q3-connections.
The saddle connection itself has measure zero, so K* is defined
operationally as the Q1/Q3 transition located by bracketing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from selfsim.integrator import OrbitTag, integrate_from_p0
from selfsim.params import (
    DomainError,
    ModelParams,
    Regime,
    ShootingParam,
    alpha_beta_from_k,
    positive_finite,
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


def classify(params: ModelParams, K: float) -> OrbitTag:
    """Endpoint tag of the P0-orbit for a single K.

    One orbit is shot per K: every slope-chart tag comes from a proven
    stop, so a tighter run could only repeat ``Unresolved``.
    """
    return integrate_from_p0(params, K).termination.tag


def find_k_star(
    params: ModelParams, tol_K: float = 1e-6
) -> ClassificationReport:
    """Bracket and bisect the Q1 -> Q3 transition in K.

    K* exists for every m + p >= 2, so the bracket search divides K by 8
    until a probe ends at Q1, and multiplies it by 8 until one ends at Q3,
    over all K with an alpha; past them a ``BracketError`` names the last K.

    ``tol_K`` is relative and must be positive and finite: bisection stops
    once K_hi - K_lo < tol_K * K_lo, or earlier, with a ``notes`` entry, if
    a probe is unresolved or the bracket reaches float resolution.
    """
    tol_K = positive_finite("tol_K", tol_K)
    reg = regime(params)
    if reg is Regime.SUBCRITICAL:
        raise DomainError("no transition exists for m + p < 2")
    probes: dict[float, OrbitTag] = {}
    unresolved = 0

    def probe(K: float) -> OrbitTag:
        nonlocal unresolved
        # K = 1 starts both searches for m + p > 2, and a first midpoint
        # can be a K the search already shot
        if K in probes:
            return probes[K]
        tag = classify(params, K)
        probes[K] = tag
        if tag is OrbitTag.UNRESOLVED:
            unresolved += 1
            if unresolved > max(2, len(probes) // 10):
                raise BracketError(
                    f"too many unresolved probes ({unresolved}/{len(probes)})"
                )
        return tag

    def expand(K: float, factor: float, tag: OrbitTag, failure: str) -> float:
        while probe(K) is not tag:
            try:
                alpha_beta_from_k(params, K * factor)
            except DomainError:
                raise BracketError(f"{failure} K={K}") from None
            K *= factor
        return K

    # expanding search for a (ToQ1, ToQ3) bracket
    if reg is Regime.CRITICAL:
        K0 = 0.25 * (params.m - 1.0) ** 2  # analytic transition; start nearby
        K_lo, K_hi = 0.5 * K0, 2.0 * K0
    else:
        K_lo = K_hi = 1.0
    K_lo = expand(K_lo, 0.125, OrbitTag.TO_Q1, "no Q1-connection found above")
    K_hi = expand(K_hi, 8.0, OrbitTag.TO_Q3, "no Q3-connection found below")

    notes = ""
    while K_hi - K_lo >= tol_K * K_lo:
        mid = math.sqrt(K_lo * K_hi)
        # below about 1e-16 the midpoint rounds onto an end of the bracket
        tag = probe(mid) if K_lo < mid < K_hi else None
        if tag is OrbitTag.TO_Q1:
            K_lo = mid
        elif tag is OrbitTag.TO_Q3:
            K_hi = mid
        else:
            reason = ("bracket at float resolution" if tag is None
                      else "probe unresolved")
            notes = (
                f"stopped at bracket width {(K_hi - K_lo) / K_lo:.3g} "
                f"({reason})"
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
        K_grid=tuple(sorted(probes.items())),
        K_star=K_star,
        K_star_bracket=(K_lo, K_hi),
        alpha_star=sp.alpha,
        K_star_analytic=analytic,
        K_star_discrepancy=discrepancy,
        notes=notes,
    )


def nonexistence_sweep(
    params: ModelParams, K_grid: list[float]
) -> ClassificationReport:
    """Classify every K on a grid in the m + p < 2 regime.

    Every resolved probe is expected to end at Q3 (no interface behavior);
    unresolved entries are kept in the grid for inspection.  An empty grid
    is a ``DomainError``: its report would read as "every probe ends at Q3".
    """
    reg = regime(params)
    if reg is not Regime.SUBCRITICAL:
        raise DomainError("nonexistence sweep applies to m + p < 2 only")
    if len(K_grid) == 0:
        raise DomainError("nonexistence sweep needs a nonempty K grid")
    for K in K_grid:  # every K has an alpha before any orbit is shot
        alpha_beta_from_k(params, K)
    probes = tuple(sorted((K, classify(params, K)) for K in K_grid))
    bad = [K for K, tag in probes
           if tag not in (OrbitTag.TO_Q3, OrbitTag.UNRESOLVED)]
    notes = "" if not bad else f"unexpected non-Q3 tags at K={bad}"
    return ClassificationReport(
        params=params, regime=reg, K_grid=probes, notes=notes
    )
