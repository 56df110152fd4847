import math

import numpy as np
import pytest

from selfsim.params import DomainError, ModelParams
from selfsim.phaseplane import (
    IsoclineBranches,
    PhasePoint,
    PointKind,
    critical_slopes,
    finite_critical_points,
    infinity_critical_points,
    isocline,
    isocline_zero_crossing,
    launch_slope,
    numerical_jacobian,
    planar_field,
)

SUPER = ModelParams(2.0, 0.5, 4)
CRIT = ModelParams(1.5, 0.5, 3)
SUB = ModelParams(1.2, 0.5, 3)


def test_vector_field_fixed_points():
    field = planar_field(SUPER, 0.1)
    assert field(0.0, 0.0) == (0.0, 0.0)
    # P1 = (0, -(N-2)/m) for N=4, m=2
    dX, dY = field(0.0, -1.0)
    assert dX == 0.0
    assert dY == pytest.approx(0.0, abs=1e-15)


def test_vector_field_hand_value():
    dX, dY = planar_field(SUPER, 0.1)(1.0, 0.0)
    assert dX == pytest.approx(2.0)
    assert dY == pytest.approx(1.9)


def test_negative_x_rejected_at_construction():
    with pytest.raises(DomainError):
        PhasePoint(-0.5, 0.0)


@pytest.mark.parametrize("X, Y, name", [
    (math.inf, 0.0, "X"), (math.nan, 0.0, "X"), (1.0, math.inf, "Y"),
    (1.0, -math.inf, "Y"), (1.0, math.nan, "Y"),
])
def test_nonfinite_phase_point_rejected_at_construction(X, Y, name):
    # numerical_jacobian at (inf, 0) once returned an all-NaN matrix
    with pytest.raises(DomainError, match=f"^{name} must be"):
        PhasePoint(X, Y)


def test_finite_points_high_dimension():
    pts = {cp.label: cp for cp in finite_critical_points(SUPER)}
    p0, p1 = pts["P0"], pts["P1"]
    assert p0.kind is PointKind.SADDLE
    assert p0.eigenvalues == (2.0, -2.0)
    assert p0.launch_direction == pytest.approx(
        (1.0 / math.hypot(1.0, 0.5), 0.5 / math.hypot(1.0, 0.5))
    )
    assert p1.kind is PointKind.UNSTABLE_NODE
    assert p1.location.Y == pytest.approx(-1.0)
    assert p1.eigenvalues == pytest.approx((3.0, 2.0))


def test_finite_points_n2():
    pts = finite_critical_points(ModelParams(2.0, 0.5, 2))
    assert len(pts) == 1
    assert pts[0].kind is PointKind.SADDLE_NODE
    assert pts[0].eigenvalues == (2.0, 0.0)
    s = 1.0 / math.sqrt(2.0)
    assert pts[0].launch_direction == pytest.approx((s, s))


def test_finite_points_n1():
    pts = {cp.label: cp for cp in finite_critical_points(ModelParams(2.0, 0.3, 1))}
    assert pts["P0"].kind is PointKind.UNSTABLE_NODE
    assert pts["P0"].eigenvalues == (2.0, 1.0)
    assert pts["P1"].location.Y == pytest.approx(0.5)
    assert pts["P1"].kind is PointKind.SADDLE


def test_launch_slopes():
    assert launch_slope(SUPER) == pytest.approx(0.5)
    assert launch_slope(ModelParams(2.0, 0.5, 2)) == 1.0
    assert launch_slope(ModelParams(2.0, 0.5, 1)) == 2.0


def test_infinity_points_supercritical():
    pts = {cp.label: cp for cp in infinity_critical_points(SUPER, 0.1)}
    assert set(pts) == {"Q1", "Q2", "Q3", "Q4"}
    assert pts["Q1"].slope == 0.0
    assert pts["Q4"].slope == pytest.approx(-1.0)
    assert pts["Q4"].kind is PointKind.SADDLE
    assert pts["Q2"].slope == math.inf and pts["Q3"].slope == -math.inf


def test_infinity_points_critical_slopes():
    pts = {cp.label: cp for cp in infinity_critical_points(CRIT, 0.05)}
    assert pts["Q1"].slope == pytest.approx(-0.1381966011, rel=1e-9)
    assert pts["Q4"].slope == pytest.approx(-0.3618033989, rel=1e-9)
    # beyond the fold only the vertical points remain
    pts = {cp.label: cp for cp in infinity_critical_points(CRIT, 0.1)}
    assert set(pts) == {"Q2", "Q3"}


def test_infinity_points_critical_fold():
    # at K = (m-1)^2/4 the paper's Q1 and Q4 coalesce
    pts = {cp.label: cp for cp in infinity_critical_points(CRIT, 0.0625)}
    for label in ("Q1", "Q4"):
        assert pts[label].kind is PointKind.SADDLE_NODE
        assert pts[label].slope == -0.25


@pytest.mark.parametrize("K", [0.0, -1.0, math.nan, math.inf])
def test_infinity_points_reject_nonpositive_k(K):
    with pytest.raises(DomainError):
        infinity_critical_points(SUPER, K)


def test_infinity_points_subcritical():
    pts = {cp.label: cp for cp in infinity_critical_points(SUB, 1.0)}
    assert set(pts) == {"Q2", "Q3"}


def test_critical_slopes_fold():
    y1, y2 = critical_slopes(CRIT, 0.0625)
    assert y1 == pytest.approx(-0.25)
    assert y2 == pytest.approx(-0.25)
    assert critical_slopes(CRIT, 0.0626) is None
    # sign change of the discriminant exactly at (m-1)^2/4
    assert critical_slopes(CRIT, 0.0624) is not None


def test_isocline_at_origin():
    br = isocline(0.0, SUPER, 0.1)
    assert br.delta == pytest.approx(4.0)
    assert br.Y1 == pytest.approx(0.0)
    assert br.Y2 == pytest.approx(-1.0)


def test_isocline_discriminant_hand_value():
    # (m-1)^2 + 2(mN+2m-N+2) + (N-2)^2 - 4Km = 1 + 20 + 4 - 0.8
    br = isocline(1.0, SUPER, 0.1)
    assert br.delta == pytest.approx(24.2)


def test_isocline_branches_solve_quadratic():
    # independent oracle: both branches are roots of
    # -m y^2 - [(N-2) + (m-1)X] y + 2X - K X^q = 0
    m, N = SUPER.m, SUPER.N
    K = 0.1
    for X in (0.3, 1.0, 7.0, 150.0, 400.0):
        br = isocline(X, SUPER, K)
        roots = np.roots(
            [-m, -((N - 2.0) + (m - 1.0) * X),
             2.0 * X - K * X ** SUPER.power_ratio]
        )
        assert br.Y1 == pytest.approx(max(roots), rel=1e-12)
        assert br.Y2 == pytest.approx(min(roots), rel=1e-12)
        for y in (br.Y1, br.Y2):
            res = -m * y * y - ((N - 2.0) + (m - 1.0) * X) * y \
                + 2.0 * X - K * X ** SUPER.power_ratio
            assert abs(res) < 1e-10 * (1.0 + X * X)


def test_isocline_zero_crossing_analytic():
    X0 = isocline_zero_crossing(SUPER, 0.1)
    assert X0 == pytest.approx(400.0)
    # bracket the sign change of Y1 numerically
    assert isocline(X0 * (1.0 - 1e-8), SUPER, 0.1).Y1 > 0.0
    assert isocline(X0 * (1.0 + 1e-8), SUPER, 0.1).Y1 < 0.0


def test_isocline_small_k_geometry():
    # for the small-K reference case the branches never intersect and the
    # upper branch stays below 2/(m-1), positive before X0 and negative after
    K = 0.1
    X0 = isocline_zero_crossing(SUPER, K)
    cap = 2.0 / (SUPER.m - 1.0)
    for X in np.geomspace(1e-6, 10.0 * X0, 200):
        br = isocline(float(X), SUPER, K)
        assert br.delta > 0.0
        assert br.Y1 < cap
        if X < X0 * (1.0 - 1e-6):
            assert br.Y1 > 0.0
        elif X > X0 * (1.0 + 1e-6):
            assert br.Y1 < 0.0
    ys = [isocline(float(X), SUPER, K).Y1
          for X in np.geomspace(X0, 100.0 * X0, 50)]
    assert all(a > b for a, b in zip(ys, ys[1:]))


@pytest.mark.parametrize("N", [3, 4, 5])
def test_jacobian_eigenvalues_match_analytic(N):
    params = ModelParams(2.0, 0.5, N)
    K = 0.3
    for cp in finite_critical_points(params):
        J = numerical_jacobian(cp.location, params, K, h=1e-5)
        eig = sorted(np.linalg.eigvals(J).real)
        target = sorted(cp.eigenvalues)
        for got, want in zip(eig, target):
            assert got == pytest.approx(want, rel=1e-6, abs=1e-6)


def test_jacobian_off_diagonal_at_p0():
    J = numerical_jacobian(PhasePoint(0.0, 0.0), SUPER, 0.3, h=1e-5)
    assert J[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_jacobian_central_off_axis():
    # X - h >= 0, so the X-derivative is central: a forward step would be
    # off by about h K q (q-1) X^(q-2) / 2 = 4e-7 in J[1, 0]
    m, N, K, X, Y = SUPER.m, SUPER.N, 0.1, 1.0, 0.5
    q = SUPER.power_ratio
    J = numerical_jacobian(PhasePoint(X, Y), SUPER, K, h=1e-5)
    analytic = [
        [2.0 - (m - 1.0) * Y, -(m - 1.0) * X],
        [2.0 - (m - 1.0) * Y - K * q * X ** (q - 1.0),
         -2.0 * m * Y - (N - 2.0) - (m - 1.0) * X],
    ]
    np.testing.assert_allclose(J, analytic, rtol=1e-10)


def test_jacobian_bad_step():
    with pytest.raises(DomainError):
        numerical_jacobian(PhasePoint(1.0, 0.0), SUPER, 0.1, h=0.0)
    with pytest.raises(DomainError, match="^h must be positive and finite"):
        numerical_jacobian(PhasePoint(1.0, 0.0), SUPER, 0.1, h=math.inf)


def test_isocline_negative_x_rejected():
    with pytest.raises(DomainError):
        isocline(-1.0, SUPER, 0.1)


@pytest.mark.parametrize("X", [math.inf, math.nan])
def test_isocline_rejects_nonfinite_x(X):
    # isocline at X = inf once returned NaN branches
    with pytest.raises(DomainError, match="^X must be nonnegative and finite"):
        isocline(X, SUPER, 0.1)


@pytest.mark.parametrize("K", [0.0, -1.0, math.nan, math.inf])
def test_k_entry_points_reject_k_off_the_domain(K):
    # at K = -1 the zero crossing was once 4.0, at K = 0 a ZeroDivisionError;
    # isocline and numerical_jacobian at K = nan returned NaN
    calls = [lambda: planar_field(SUPER, K),
             lambda: critical_slopes(CRIT, K),
             lambda: isocline(1.0, SUPER, K),
             lambda: isocline_zero_crossing(SUPER, K),
             lambda: numerical_jacobian(PhasePoint(1.0, 0.0), SUPER, K, 1e-6)]
    for call in calls:
        with pytest.raises(DomainError, match="^K must be positive and finite"):
            call()


def test_isocline_branch_absence():
    # large K in the critical regime makes the discriminant negative
    br = isocline(1.0, CRIT, 50.0)
    assert br.delta < 0.0
    assert br.Y1 is None and br.Y2 is None
    assert isinstance(br, IsoclineBranches)
