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

from selfsim.params import (DomainError, ModelParams, Regime, finite,
                            positive_finite, regime)


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
    0, but dY is NaN through the 2X term all the same.  This is the one
    place that handles K X^q past the float range (q = (m-p)/(m-1) passes
    2500 as m -> 1): dY is then -inf, as numpy's float64 power gives it,
    so a solver's step through such a state fails its error test.
    """
    K = positive_finite("K", K)
    m, N, q = params.m, params.N, params.power_ratio

    def field(X, Y):
        Xc = X if X > 0.0 else 0.0
        try:
            reaction = K * Xc**q
        except OverflowError:
            reaction = math.inf
        return (
            X * (2.0 - (m - 1.0) * Y),
            -m * Y * Y
            - (N - 2.0) * Y
            + 2.0 * X
            - (m - 1.0) * X * Y
            - reaction,
        )

    return field


def finite_critical_points(params: ModelParams) -> list[CriticalPoint]:
    """The finite critical points with analytic eigen-data.

    N >= 3: P0 = (0,0) saddle and P1 = (0, -(N-2)/m) unstable node.
    N = 2: P0 and P1 merge into a saddle-node at the origin.
    N = 1: P0 = (0,0) unstable node and P1 = (0, 1/m) saddle.
    """
    m, N = params.m, params.N
    launch = _unit(1.0, launch_slope(params))
    if N >= 3:
        return [
            CriticalPoint(
                label="P0",
                kind=PointKind.SADDLE,
                eigenvalues=(2.0, 2.0 - N),
                location=PhasePoint(0.0, 0.0),
                launch_direction=launch,
            ),
            CriticalPoint(
                label="P1",
                kind=PointKind.UNSTABLE_NODE,
                eigenvalues=((m * N - N + 2.0) / m, float(N - 2)),
                location=PhasePoint(0.0, -(N - 2.0) / m),
            ),
        ]
    if N == 2:
        return [
            CriticalPoint(
                label="P0",
                kind=PointKind.SADDLE_NODE,
                eigenvalues=(2.0, 0.0),
                location=PhasePoint(0.0, 0.0),
                launch_direction=launch,
            )
        ]
    # N == 1
    return [
        CriticalPoint(
            label="P0",
            kind=PointKind.UNSTABLE_NODE,
            eigenvalues=(2.0, 1.0),
            location=PhasePoint(0.0, 0.0),
            launch_direction=launch,
        ),
        CriticalPoint(
            label="P1",
            kind=PointKind.SADDLE,
            eigenvalues=((m + 1.0) / m, -1.0),
            location=PhasePoint(0.0, 1.0 / m),
        ),
    ]


def launch_slope(params: ModelParams) -> float:
    """Slope of the distinguished outgoing direction at P0."""
    N = params.N
    if N >= 3:
        return 2.0 / N
    return 1.0 if N == 2 else 2.0


def infinity_critical_points(params: ModelParams, K: float) -> list[CriticalPoint]:
    """Critical points at infinity, represented by their ray slopes.

    The available points depend on the sign of m + p - 2:

    * m + p > 2: Q1 (slope 0, stable node), Q2/Q3 (vertical, unstable and
      stable nodes) and Q4 (slope -(m-1), saddle).
    * m + p = 2: Q1/Q4 exist only for K <= (m-1)^2/4, with slopes the roots
      of y^2 + (m-1)y + K = 0; they coalesce into a saddle-node at equality.
    * m + p < 2: only the vertical points Q2 and Q3 survive.
    """
    K = positive_finite("K", K)
    m = params.m
    reg = regime(params)
    q2 = CriticalPoint(
        label="Q2", kind=PointKind.UNSTABLE_NODE, eigenvalues=(1.0, m), slope=math.inf
    )
    q3 = CriticalPoint(
        label="Q3", kind=PointKind.STABLE_NODE, eigenvalues=(-1.0, -m), slope=-math.inf
    )
    if reg is Regime.SUBCRITICAL:
        return [q2, q3]
    if reg is Regime.SUPERCRITICAL:
        q1 = CriticalPoint(
            label="Q1",
            kind=PointKind.STABLE_NODE,
            eigenvalues=(-(m - 1.0), 0.0),
            slope=0.0,
        )
        q4 = CriticalPoint(
            label="Q4",
            kind=PointKind.SADDLE,
            eigenvalues=(m - 1.0, -(m - 1.0) * (m + params.p - 2.0)),
            slope=-(m - 1.0),
        )
        return [q1, q2, q3, q4]
    # critical regime: Q1/Q4 exist only while their slopes are real
    slopes = critical_slopes(params, K)
    if slopes is None:
        return [q2, q3]
    y1, y2 = slopes
    root = y1 - y2
    if root == 0.0:
        kinds = (PointKind.SADDLE_NODE, PointKind.SADDLE_NODE)
    else:
        kinds = (PointKind.STABLE_NODE, PointKind.SADDLE)
    q1 = CriticalPoint(
        label="Q1", kind=kinds[0], eigenvalues=(-root, (m - 1.0) * y1), slope=y1
    )
    q4 = CriticalPoint(
        label="Q4", kind=kinds[1], eigenvalues=(root, (m - 1.0) * y2), slope=y2
    )
    return [q1, q2, q3, q4]


def critical_slopes(params: ModelParams, K: float) -> tuple[float, float] | None:
    """Ray slopes (y1, y2) of Q1/Q4 in the m + p = 2 regime, or None."""
    K = positive_finite("K", K)
    disc = (params.m - 1.0) ** 2 - 4.0 * K
    if disc < 0.0:
        return None
    root = math.sqrt(disc)
    return (
        0.5 * (-(params.m - 1.0) + root),
        0.5 * (-(params.m - 1.0) - root),
    )


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
    """Evaluate the Y-nullcline branches and their discriminant at X."""
    _check_phase_point(X)
    K = positive_finite("K", K)
    m, N = params.m, params.N
    delta = (
        (m - 1.0) ** 2 * X * X
        + 2.0 * (m * N + 2.0 * m - N + 2.0) * X
        + (N - 2.0) ** 2
        - 4.0 * K * m * X**params.power_ratio
    )
    if delta < 0.0:
        return IsoclineBranches(X=X, delta=delta, Y1=None, Y2=None)
    root = math.sqrt(delta)
    base = -(N - 2.0) - (m - 1.0) * X
    return IsoclineBranches(
        X=X,
        delta=delta,
        Y1=(base + root) / (2.0 * m),
        Y2=(base - root) / (2.0 * m),
    )


def isocline_zero_crossing(params: ModelParams, K: float) -> float:
    """Abscissa X0(K) = (2/K)^((m-1)/(1-p)) where the upper branch changes sign."""
    K = positive_finite("K", K)
    return (2.0 / K) ** ((params.m - 1.0) / (1.0 - params.p))


def numerical_jacobian(
    P: PhasePoint, params: ModelParams, K: float, h: float
) -> np.ndarray:
    """Finite-difference Jacobian of ``planar_field`` at P.

    Used to cross-check the analytic eigen-data of the finite critical
    points.  Central differences wherever X - h stays admissible; on and
    near the invariant axis X = 0 the X-derivative takes a forward step
    (the eigenvalues there live on the diagonal, which is unaffected).
    """
    h = positive_finite("h", h)
    field = planar_field(params, K)
    x_lo, dx = (P.X - h, 2.0 * h) if P.X - h >= 0.0 else (P.X, h)
    fp, fm = field(P.X + h, P.Y), field(x_lo, P.Y)
    gp, gm = field(P.X, P.Y + h), field(P.X, P.Y - h)
    return np.array([[(fp[0] - fm[0]) / dx, (gp[0] - gm[0]) / (2.0 * h)],
                     [(fp[1] - fm[1]) / dx, (gp[1] - gm[1]) / (2.0 * h)]])


def _unit(x: float, y: float) -> tuple[float, float]:
    n = math.hypot(x, y)
    return (x / n, y / n)
