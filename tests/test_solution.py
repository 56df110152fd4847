import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from selfsim.params import (
    DomainError,
    ModelParams,
    alpha_beta_from_k,
    alpha_star_critical,
)
from selfsim import solution
from selfsim.profile import ReconstructionError, reconstruct
from selfsim.solution import (
    _masses,
    convection_coefficient,
    evaluate_u,
    make_solution,
    mass_growth_rate,
    pde_residual,
    reaction_coefficient,
    sphere_area,
    to_traveling_wave,
    tw_residual,
    tw_residual_scale,
    tw_value_on,
)

SUPER = ModelParams(2.0, 0.5, 4)

K_STAR_SUPER = 2.5488157


@pytest.fixture(scope="module")
def sol_fig3a():
    return make_solution(reconstruct(SUPER, 0.1))


def test_normalization(sol_fig3a):
    assert evaluate_u(sol_fig3a, 0.0, 0.0) == pytest.approx(1.0)


def test_negative_or_nan_radius_is_rejected(sol_fig3a):
    # r = -3 once read f at xi = -3, through the series seed far outside
    # its range: 7.58, against 3.93 at r = 3
    with pytest.raises(DomainError, match=r"got -3\.0$"):
        evaluate_u(sol_fig3a, -3.0, 0.0)
    with pytest.raises(DomainError, match=r"got nan$"):
        evaluate_u(sol_fig3a, math.nan, 0.0)
    with pytest.raises(DomainError, match=r"got -1\.0$"):
        evaluate_u(sol_fig3a, np.array([2.0, -1.0]), np.array([[0.0], [0.1]]))
    # +inf lies past the interface at every t
    assert evaluate_u(sol_fig3a, math.inf, 0.3) == 0.0


def test_interface_advects(sol_fig3a):
    xi0 = sol_fig3a.profile.xi0
    for t in (-0.5, 0.0, 0.7):
        r = xi0 * math.exp(sol_fig3a.beta * t)
        assert evaluate_u(sol_fig3a, r, t) == 0.0
        assert evaluate_u(sol_fig3a, r * 1.001, t) == 0.0


def test_exact_self_similarity(sol_fig3a):
    sol = sol_fig3a
    dt = 0.13
    for r in np.linspace(0.05, 0.8, 7) * sol.profile.xi0:
        lhs = evaluate_u(sol, r, dt)
        rhs = math.exp(sol.alpha * dt) * evaluate_u(
            sol, r * math.exp(-sol.beta * dt), 0.0
        )
        assert lhs == pytest.approx(rhs, rel=1e-6)


def test_pde_residual_interior(sol_fig3a):
    sol = sol_fig3a
    rng = np.random.default_rng(42)
    h = 1e-3
    for _ in range(50):
        t = float(rng.uniform(-0.2, 0.2))
        r = float(rng.uniform(0.05, 0.9)) * sol.profile.xi0 * math.exp(sol.beta * t)
        res = pde_residual(sol, r, t, h)
        scale = sol.alpha * evaluate_u(sol, r, t)
        assert abs(res) < 1e-4 * scale


def test_pde_residual_bound_both_times(sol_fig3a):
    # the self-similar structure keeps the scaled residual bounded at any t
    sol = sol_fig3a
    for t in (0.0, 0.1):
        r = 0.4 * sol.profile.xi0 * math.exp(sol.beta * t)
        res = pde_residual(sol, r, t, 1e-3)
        assert abs(res) < 1e-4 * sol.alpha * evaluate_u(sol, r, t)


def test_pde_residual_near_origin(sol_fig3a):
    res = pde_residual(sol_fig3a, 2e-3, 0.0, 1e-3)
    assert abs(res) < 1e-4 * sol_fig3a.alpha


@pytest.mark.parametrize("r, t", [
    (0.0, 0.0), (-0.1, 0.0), (math.nan, 0.0), (math.inf, 0.0),
    (0.1, math.nan), (0.1, math.inf), (0.1, -math.inf),
])
def test_pde_residual_rejects_r_and_t_off_the_domain(sol_fig3a, r, t):
    with pytest.raises(DomainError):
        pde_residual(sol_fig3a, r, t, 1e-3)


@pytest.mark.parametrize("h", [0.0, -1e-3, math.nan, math.inf])
def test_residuals_reject_nonpositive_h(sol_fig3a, h):
    # tw_residual_scale once raised ZeroDivisionError at h = 0 and returned
    # 49.3 at h = -1e-3
    tw = to_traveling_wave(sol_fig3a)
    with pytest.raises(DomainError):
        pde_residual(sol_fig3a, 0.1, 0.0, h)
    with pytest.raises(DomainError):
        tw_residual(tw, tw.support_edge - 1.0, h)
    with pytest.raises(DomainError, match="^h must be positive and finite"):
        tw_residual_scale(tw, tw.support_edge - 1.0, h)


@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
def test_tw_residuals_reject_nonfinite_z(sol_fig3a, z):
    # both once returned NaN at z = -inf
    tw = to_traveling_wave(sol_fig3a)
    with pytest.raises(DomainError, match="^z must be finite"):
        tw_residual(tw, z, 1e-3)
    with pytest.raises(DomainError, match="^z must be finite"):
        tw_residual_scale(tw, z, 1e-3)


def test_sphere_area_values():
    assert sphere_area(1) == pytest.approx(2.0)
    assert sphere_area(2) == pytest.approx(2.0 * math.pi)
    assert sphere_area(3) == pytest.approx(4.0 * math.pi)


def test_mass_growth_rate(sol_fig3a):
    sol = sol_fig3a
    rate = mass_growth_rate(sol, [0.0, 0.05, 0.1, 0.15])
    target = sol.alpha + SUPER.N * sol.beta
    assert rate == pytest.approx(target, rel=1e-3)
    assert rate > 0.0


@pytest.mark.parametrize("t_samples", [[], [0.0], [0.0, 0.0], [0.0, 1e4]])
def test_mass_growth_rate_needs_two_times(sol_fig3a, t_samples, capfd):
    # two equal times once reached np.polyfit, whose LAPACK call printed to
    # stdout before it raised LinAlgError; an edge xi0 e^(beta t) past the
    # float range once raised OverflowError from math.exp
    distinct = len(set(t_samples))
    match = f"got {distinct}" if distinct < 2 else "support edge at t=10000"
    with pytest.raises(DomainError, match=match):
        mass_growth_rate(sol_fig3a, t_samples)
    assert capfd.readouterr().out == ""


@pytest.mark.parametrize("mpn, K", [
    # the mass sits in a thin region there: a fixed 1024-point rule graded
    # toward the interface was off by 2.0e-3 and 5.2e-5
    ((5.0, 0.9, 3), 8.0), ((2.0, 0.9, 1), 0.3),
    ((2.0, 0.5, 4), K_STAR_SUPER),
])
def test_masses_match_quad_over_each_support(mpn, K):
    sol = make_solution(reconstruct(ModelParams(*mpn), K))
    N = mpn[2]
    t_samples = [0.0, 0.05, 0.1, 0.15]
    masses = _masses(sol, t_samples)
    for t, mass in zip(t_samples, masses):
        edge = sol.profile.xi0 * math.exp(sol.beta * t)
        ref, _ = quad(lambda r: evaluate_u(sol, r, t) * r ** (N - 1.0),
                      0.0, edge, limit=200)
        assert mass == pytest.approx(sphere_area(N) * ref, rel=1e-8)


@pytest.mark.parametrize("spoil", [
    lambda u, rng: np.nan, lambda u, rng: 0.0,
    # noise the adaptive rule cannot resolve: it stops unconverged
    lambda u, rng: u * rng.uniform(0.0, 2.0, u.shape),
], ids=["nan", "zero", "noise"])
def test_mass_growth_rate_names_the_failed_time(sol_fig3a, spoil,
                                                monkeypatch):
    rng = np.random.default_rng(7)

    def spoiled(sol, r, t):
        u = evaluate_u(sol, r, t)
        u[:, 1] = spoil(u[:, 1], rng)
        return u

    monkeypatch.setattr(solution, "evaluate_u", spoiled)
    with pytest.raises(DomainError, match=r"quadrature failed at t=0\.1$"):
        mass_growth_rate(sol_fig3a, [0.0, 0.1, 0.2])


def test_mass_growth_rate_critical_case():
    params = ModelParams(1.5, 0.5, 3)
    sol = make_solution(reconstruct(params, 0.0624))
    rate = mass_growth_rate(sol, [0.0, 0.1, 0.2])
    assert rate == pytest.approx(sol.alpha + 3 * sol.beta, rel=1e-3)


def test_tw_coefficients():
    assert convection_coefficient(SUPER) == pytest.approx(10.0)
    assert reaction_coefficient(SUPER) == pytest.approx(24.0)


def test_minimal_speed_arithmetic():
    # c* = beta* = (m-1) alpha*/2 in the critical regime
    m = 1.5
    params = ModelParams(m, 0.5, 3)
    sp = alpha_beta_from_k(params, 0.25 * (m - 1.0) ** 2)
    assert sp.alpha == pytest.approx(alpha_star_critical(m), rel=1e-12)
    assert sp.beta == pytest.approx(2.449489742783178, rel=1e-9)


def test_traveling_wave_shape(sol_fig3a):
    tw = to_traveling_wave(sol_fig3a)
    assert tw.c == pytest.approx(sol_fig3a.beta)
    edge = tw.support_edge
    assert edge == pytest.approx(math.log(sol_fig3a.profile.xi0))
    # compactly supported to the right
    assert np.all(tw.F[tw.z_grid >= edge + 1e-9] == 0.0)
    # positive immediately left of the edge
    inside = tw.F[(tw.z_grid < edge) & (tw.z_grid > edge - 0.5)]
    assert np.all(inside > 0.0)


def test_traveling_wave_left_tail(sol_fig3a):
    tw = to_traveling_wave(sol_fig3a)
    gamma = 2.0 / (SUPER.m - 1.0)
    z = tw.z_grid[0]
    # F -> e^{-gamma z} since f(0) = 1
    assert tw.F[0] * math.exp(gamma * z) == pytest.approx(1.0, rel=1e-4)


@pytest.mark.parametrize("K", [0.5 * K_STAR_SUPER, K_STAR_SUPER])
def test_tw_residual_bound(K):
    sol = make_solution(reconstruct(SUPER, K))
    tw = to_traveling_wave(sol)
    edge = tw.support_edge
    h = 1e-4
    for z in np.linspace(edge - 3.0, edge - 0.05, 12):
        res = abs(tw_residual(tw, float(z), h))
        assert res < 1e-3 * tw_residual_scale(tw, float(z), h)


def test_tw_wrong_speed_control():
    sol = make_solution(reconstruct(SUPER, 0.5 * K_STAR_SUPER))
    tw = to_traveling_wave(sol)
    bad = replace(tw, c=tw.c + 0.5)
    z = tw.support_edge - 1.0
    h = 1e-4
    bound = 1e-3 * tw_residual_scale(bad, z, h)
    assert abs(tw_residual(bad, z, h)) > 10.0 * bound


def test_tw_value_transform(sol_fig3a):
    prof = sol_fig3a.profile
    gamma = 2.0 / (SUPER.m - 1.0)
    z = math.log(0.3 * prof.xi0)
    expected = math.exp(-gamma * z) * evaluate_u(sol_fig3a, 0.3 * prof.xi0, 0.0)
    assert tw_value_on(prof, z) == pytest.approx(expected, rel=1e-10)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("K", [6.25e-6, 1.25e-5])
def test_traveling_wave_past_the_float_range_raises(K):
    # near m = 1 the profile is finite, but e^(-2z/(m-1)) f(e^z) passes the
    # float range at the left end of the z-grid; this once returned inf
    # values of F with numpy's overflow warning
    prof = reconstruct(ModelParams(1.01, 0.99, 3), K)
    assert np.all(np.isfinite(prof.f))
    sol = make_solution(prof)
    with pytest.raises(
            ReconstructionError, match=f"alpha = {sol.alpha:g} lies past the "
            r"float range \(F overflows\)"):
        to_traveling_wave(sol)
