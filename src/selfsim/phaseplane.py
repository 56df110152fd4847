"""Geometry of the autonomous planar system

    X' = X*(2 - (m-1)*Y)
    Y' = -m*Y^2 - (N-2)*Y + 2*X - (m-1)*X*Y - K*X^((m-p)/(m-1))

obtained from the profile ODE.  ``planar_field`` is the one way to evaluate
it; the module also gives isocline branches, finite critical points P0/P1
with analytic eigen-data (cross-checked by ``numerical_jacobian``), and the
critical points at infinity Q1..Q4 represented by their ray slopes Y/X.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from selfsim.params import (DomainError, ModelParams, Regime, check_step,
                            finite, positive_finite, power, regime)


def _check_phase_point(X: float, Y: float = 0.0) -> None:
    """The one owner of the phase-point rule: X >= 0, X and Y finite."""
    if not 0.0 <= X < math.inf:
        raise DomainError(f"X must be nonnegative and finite, got {X}")
    finite("Y", Y)


@dataclass(frozen=True)
class PhasePoint:
    """State (X, Y) of the planar system, admissible by construction."""

    X: float
    Y: float

    def __post_init__(self) -> None:
        _check_phase_point(self.X, self.Y)


class PointKind(Enum):
    SADDLE = "saddle"
    STABLE_NODE = "stable node"
    UNSTABLE_NODE = "unstable node"
    SADDLE_NODE = "saddle-node"


@dataclass(frozen=True)
class CriticalPoint:
    """A critical point of the system, finite or at infinity.

    Finite points carry their (X, Y) location; infinity points are
    represented by the asymptotic ray slope Y/X (0 for the horizontal
    direction, +/-inf for the vertical ones).  Eigenvalues are the analytic
    ones of the appropriate chart linearization.
    """

    label: str  # one of P0, P1, Q1, Q2, Q3, Q4
    kind: PointKind
    eigenvalues: tuple[float, float]
    location: PhasePoint | None = None
    slope: float | None = None
    launch_direction: tuple[float, float] | None = None


def planar_field(params: ModelParams, K: float):
    """The planar system's vector field ``field(X, Y) -> (dX, dY)``, the one
    way to evaluate it: the orbits' X-Y phase, their resampling and
    ``numerical_jacobian`` all build their field here.

    A solver may overshoot the invariant axis X = 0 by rounding; the
    fractional term then sees X clamped to 0.  At X = NaN the clamp gives
    0, but dY is NaN through the 2X term all the same.  K X^q passes the
    float range as m -> 1 (q = (m-p)/(m-1) passes 2500): ``params.power``
    gives inf, so dY is -inf and a solver's step through such a state fails
    its error test.
    """
    K = positive_finite("K", K)
    m, N, q = params.m, params.N, params.power_ratio

    def field(X, Y):
        Xc = X if X > 0.0 else 0.0
        return (
            X * (2.0 - (m - 1.0) * Y),
            -m * Y * Y
            - (N - 2.0) * Y
            + 2.0 * X
            - (m - 1.0) * X * Y
            - K * power(Xc, q),
        )

    return field


def finite_critical_points(params: ModelParams) -> list[CriticalPoint]:
    """The finite critical points with analytic eigen-data.

    P0 = (0, 0) has eigenvalues (2, 2 - N), and P1 = (0, -(N-2)/m) has
    ((mN - N + 2)/m, N - 2); P1 merges into P0 at N = 2.  Each kind
    follows from the signs of its eigenvalues.
    """
    m, N = params.m, params.N
    slope = launch_slope(params)
    n = math.hypot(1.0, slope)
    points = [_point("P0", (2.0, 2.0 - N), location=PhasePoint(0.0, 0.0),
                     launch_direction=(1.0 / n, slope / n))]
    if N != 2:
        points.append(_point("P1", ((m * N - N + 2.0) / m, N - 2.0),
                             location=PhasePoint(0.0, -(N - 2.0) / m)))
    return points


def launch_slope(params: ModelParams) -> float:
    """Slope 2/N of the distinguished outgoing direction at P0."""
    return 2.0 / params.N


def infinity_critical_points(params: ModelParams, K: float) -> list[CriticalPoint]:
    """Critical points at infinity, represented by their ray slopes.

    The available points depend on the sign of m + p - 2:

    * m + p > 2: Q1 (slope 0, stable node), Q2/Q3 (vertical, unstable and
      stable nodes) and Q4 (slope -(m-1), saddle).
    * m + p = 2: Q1/Q4 exist only for K <= (m-1)^2/4, with slopes the roots
      of y^2 + (m-1)y + K = 0; they coalesce into a saddle-node at equality.
    * m + p < 2: only the vertical points Q2 and Q3 survive.

    Each kind follows from the signs of its eigenvalues, except the
    supercritical Q1's.
    """
    K = positive_finite("K", K)
    m = params.m
    reg = regime(params)
    points = [_point("Q2", (1.0, m), slope=math.inf),
              _point("Q3", (-1.0, -m), slope=-math.inf)]
    if reg is Regime.SUPERCRITICAL:
        # the paper's stable node: its zero eigenvalue alone would read as
        # a saddle-node
        return [CriticalPoint(label="Q1", kind=PointKind.STABLE_NODE,
                              eigenvalues=(-(m - 1.0), 0.0), slope=0.0),
                *points,
                _point("Q4", (m - 1.0, -(m - 1.0) * (m + params.p - 2.0)),
                       slope=-(m - 1.0))]
    # critical regime: Q1/Q4 exist only while their slopes are real
    rays = _critical_rays(params, K) if reg is Regime.CRITICAL else None
    if rays is None:
        return points
    root, y1, y2 = rays
    return [_point("Q1", (-root, (m - 1.0) * y1), slope=y1), *points,
            _point("Q4", (root, (m - 1.0) * y2), slope=y2)]


def _point(label: str, eigenvalues: tuple[float, float],
           **where) -> CriticalPoint:
    """The critical point ``label`` with the kind its eigenvalue signs give:
    a saddle-node where one is 0, a node where both signs agree, else a
    saddle."""
    a, b = eigenvalues
    if a == 0.0 or b == 0.0:
        kind = PointKind.SADDLE_NODE
    elif a > 0.0 and b > 0.0:
        kind = PointKind.UNSTABLE_NODE
    elif a < 0.0 and b < 0.0:
        kind = PointKind.STABLE_NODE
    else:
        kind = PointKind.SADDLE
    return CriticalPoint(label=label, kind=kind, eigenvalues=eigenvalues,
                         **where)


def critical_slopes(params: ModelParams, K: float) -> tuple[float, float] | None:
    """Ray slopes (y1, y2) of Q1/Q4 in the m + p = 2 regime, or None."""
    rays = _critical_rays(params, positive_finite("K", K))
    return None if rays is None else rays[1:]


def _critical_rays(params: ModelParams, K: float):
    """(root, y1, y2) of the m + p = 2 regime with root = sqrt((m-1)^2 - 4K)
    = y1 - y2, or None where the discriminant is negative.  y1 is K/y2
    (y1 y2 = K), which does not cancel as K -> 0, and y2 at the fold."""
    disc = (params.m - 1.0) ** 2 - 4.0 * K
    if disc < 0.0:
        return None
    root = math.sqrt(disc)
    y2 = -0.5 * ((params.m - 1.0) + root)
    return root, (K / y2 if root > 0.0 else y2), y2


@dataclass(frozen=True)
class IsoclineBranches:
    """Branches Y1 >= Y2 of the Y-nullcline at abscissa X.

    The branches exist where the discriminant delta(X) is nonnegative;
    absent branches are signaled by None.
    """

    X: float
    delta: float
    Y1: float | None
    Y2: float | None


def isocline(X: float, params: ModelParams, K: float) -> IsoclineBranches:
    """Evaluate the Y-nullcline branches and their discriminant at X.

    A ``DomainError`` naming X and K where the discriminant leaves the float
    range; where it stays inside, so do (m-1)X and both branches.
    """
    _check_phase_point(X)
    K = positive_finite("K", K)
    m, N = params.m, params.N
    delta = (
        power(m - 1.0, 2) * X * X
        + 2.0 * (m * N + 2.0 * m - N + 2.0) * X
        + (N - 2.0) ** 2
        - 4.0 * K * m * power(X, params.power_ratio)
    )
    if not math.isfinite(delta):
        raise DomainError(f"isocline discriminant at X={X}, K={K} is "
                          f"{delta}, off the float range")
    if delta < 0.0:
        return IsoclineBranches(X=X, delta=delta, Y1=None, Y2=None)
    root = math.sqrt(delta)
    base = -(N - 2.0) - (m - 1.0) * X
    return IsoclineBranches(X=X, delta=delta, Y1=(base + root) / (2.0 * m),
                            Y2=(base - root) / (2.0 * m))


def isocline_zero_crossing(params: ModelParams, K: float) -> float:
    """Abscissa X0(K) = (2/K)^((m-1)/(1-p)) where the upper branch changes
    sign; a ``DomainError`` naming K where X0 leaves the float range."""
    K = positive_finite("K", K)
    X0 = power(2.0 / K, (params.m - 1.0) / (1.0 - params.p))
    if not 0.0 < X0 < math.inf:
        raise DomainError(f"X0 at K={K} is {X0}, off the float range")
    return X0


def numerical_jacobian(
    P: PhasePoint, params: ModelParams, K: float, h: float
) -> np.ndarray:
    """Finite-difference Jacobian of ``planar_field`` at P.

    Used to cross-check the analytic eigen-data of the finite critical
    points.  Central differences wherever X - h stays admissible; on and
    near the invariant axis X = 0 the X-derivative takes a forward step
    (the eigenvalues there live on the diagonal, which is unaffected).
    A ``DomainError`` naming h where ``params.check_step`` rejects it at
    P or an entry is not finite.
    """
    h = positive_finite("h", h)
    check_step(h, X=P.X, Y=P.Y)
    field = planar_field(params, K)
    x_lo, dx = (P.X - h, 2.0 * h) if P.X - h >= 0.0 else (P.X, h)
    fp, fm = field(P.X + h, P.Y), field(x_lo, P.Y)
    gp, gm = field(P.X, P.Y + h), field(P.X, P.Y - h)
    J = np.array([[(fp[0] - fm[0]) / dx, (gp[0] - gm[0]) / (2.0 * h)],
                  [(fp[1] - fm[1]) / dx, (gp[1] - gm[1]) / (2.0 * h)]])
    if not np.isfinite(J).all():
        raise DomainError(f"h={h} gives a nonfinite Jacobian at X={P.X}, "
                          f"Y={P.Y}")
    return J
