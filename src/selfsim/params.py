"""Exponent algebra shared by every other module.

The model is fixed by the diffusion exponent m > 1, the reaction exponent
0 < p < 1 and the dimension N; the weight exponent sigma is always derived
as 2(1-p)/(m-1).  The free shooting parameter K is equivalent to the
self-similar growth rate alpha through

    K = (1/m) * (2m/alpha)^((m-p)/(m-1)),      alpha = 2*beta/(m-1),

a strictly decreasing bijection of (0, inf) onto itself.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum

#: relative tolerance for detecting the borderline case m + p = 2
TOL_REGIME = 1e-12


class DomainError(ValueError):
    """Raised when inputs leave the valid exponent range."""


def positive_finite(name: str, x: float) -> float:
    """The one owner of the rule 0 < x < inf: a ``DomainError`` naming the
    argument ``name``, else x as a Python float, so that numpy scalars run
    Python-float arithmetic."""
    if not 0.0 < x < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {x}")
    return float(x)


def finite(name: str, x: float) -> float:
    """The one owner of the rule -inf < x < inf: a ``DomainError`` naming
    the argument ``name``, else x as a Python float."""
    if not -math.inf < x < math.inf:
        raise DomainError(f"{name} must be finite, got {x}")
    return float(x)


def integer(name: str, x) -> int:
    """The one owner of the integer rule: what ``operator.index`` accepts,
    bool excepted, as a Python int; else a ``DomainError`` naming ``name``."""
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise DomainError(f"{name} must be an integer, got {x!r}")


def check_step(h: float, **centres: float) -> None:
    """The one owner of the finite-difference step rule: a ``DomainError``
    naming h where h*h underflows to 0 or a stencil point x +/- h rounds
    back to its centre x, each centre named by its keyword.  It catches
    only a collapsed stencil point, not a step too small for the
    difference it feeds."""
    if h * h == 0.0 or any(x + h == x or x - h == x
                           for x in centres.values()):
        where = ", ".join(f"{k}={x}" for k, x in centres.items())
        raise DomainError(f"h={h} is lost to rounding at {where}")


def power(base: float, exponent: float) -> float:
    """base ** exponent, or inf where Python floats raise ``OverflowError``
    (numpy's float64 gives inf there)."""
    try:
        return base**exponent
    except OverflowError:
        return math.inf


def exp(x: float) -> float:
    """math.exp(x), or inf where it raises ``OverflowError``."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _check_m(m: float) -> None:
    """The one owner of the rule on m: finite and > 1."""
    if not 1.0 < m < math.inf:
        raise DomainError(f"m must be finite and > 1, got {m}")


class Regime(Enum):
    SUPERCRITICAL = "supercritical"  # m + p > 2
    CRITICAL = "critical"            # m + p = 2
    SUBCRITICAL = "subcritical"      # m + p < 2


def sigma_critical(m: float, p: float) -> float:
    """Weight exponent 2(1-p)/(m-1) for given (m, p)."""
    _check_m(m)
    if not 0.0 < p < 1.0:
        raise DomainError(f"p must lie in (0, 1), got {p}")
    return 2.0 * (1.0 - p) / (m - 1.0)


@dataclass(frozen=True)
class ModelParams:
    """Fixed problem data (m, p, N) with the derived weight sigma."""

    m: float
    p: float
    N: int
    sigma: float = field(init=False)

    def __post_init__(self) -> None:
        sigma = sigma_critical(self.m, self.p)
        N = integer("N", self.N)
        if N < 1:
            raise DomainError(f"N must be a positive integer, got {N}")
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "sigma", sigma)

    @property
    def power_ratio(self) -> float:
        """Exponent (m-p)/(m-1) of the fractional term in the planar system."""
        return (self.m - self.p) / (self.m - 1.0)

    @property
    def power_excess(self) -> float:
        """q - 1 = (1-p)/(m-1) = sigma/2, exact where the difference of
        ``power_ratio`` and 1 is not (it rounds to 0 from m = 1e16)."""
        return 0.5 * self.sigma


def regime(params: ModelParams) -> Regime:
    """Classify the sign of m + p - 2."""
    s = params.m + params.p
    if abs(s - 2.0) <= TOL_REGIME * max(1.0, abs(s)):
        return Regime.CRITICAL
    return Regime.SUPERCRITICAL if s > 2.0 else Regime.SUBCRITICAL


@dataclass(frozen=True)
class ShootingParam:
    """The shooting parameter K with its equivalent exponents (alpha, beta)."""

    K: float
    alpha: float
    beta: float


def alpha_beta_from_k(params: ModelParams, K: float) -> ShootingParam:
    """Invert the K(alpha) relation: alpha = 2m*(mK)^(-(m-1)/(m-p))."""
    K = positive_finite("K", K)
    m = params.m
    alpha = 2.0 * m * power(m * K, -(m - 1.0) / (m - params.p))
    if not 0.0 < alpha < math.inf:
        raise DomainError(f"K = {K} maps to alpha = {alpha} at m = {m}, "
                          "past the float range")
    beta = 0.5 * (m - 1.0) * alpha
    return ShootingParam(K=K, alpha=alpha, beta=beta)


def k_from_alpha(params: ModelParams, alpha: float) -> ShootingParam:
    """Forward map K = (1/m)*(2m/alpha)^((m-p)/(m-1))."""
    alpha = positive_finite("alpha", alpha)
    m = params.m
    K = (1.0 / m) * power(2.0 * m / alpha, params.power_ratio)
    if not 0.0 < K < math.inf:
        raise DomainError(f"alpha = {alpha} maps to K = {K} at m = {m}, "
                          "past the float range")
    beta = 0.5 * (m - 1.0) * alpha
    return ShootingParam(K=K, alpha=alpha, beta=beta)


def alpha_star_critical(m: float) -> float:
    """Explicit threshold exponent 4*sqrt(m)/(m-1), valid when m + p = 2."""
    _check_m(m)
    return 4.0 * math.sqrt(m) / (m - 1.0)
