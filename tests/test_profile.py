import numpy as np
import pytest

from selfsim.params import DomainError, ModelParams, alpha_beta_from_k
from selfsim.profile import (
    InterfaceType,
    Profile,
    ReconstructionError,
    evaluate_f,
    fit_interface,
    ode_residual,
    reconstruct,
    rescale,
)

SUPER = ModelParams(2.0, 0.5, 4)
CRIT = ModelParams(1.5, 0.5, 3)

K_STAR_SUPER = 2.5488157


@pytest.fixture(scope="module")
def prof_fig3a():
    return reconstruct(SUPER, 0.1)


@pytest.fixture(scope="module")
def prof_mid():
    return reconstruct(SUPER, K_STAR_SUPER)


def test_profile_starts_at_one(prof_fig3a):
    assert evaluate_f(prof_fig3a, 0.0) == pytest.approx(1.0)
    # initially increasing
    assert prof_fig3a.f[1] > prof_fig3a.f[0] > 1.0


def test_profile_has_interface(prof_fig3a):
    assert prof_fig3a.xi0 is not None
    assert prof_fig3a.xi0 > prof_fig3a.xi[-1]
    assert np.all(np.diff(prof_fig3a.xi) > 0.0)
    assert np.all(prof_fig3a.f > 0.0)


def test_profile_decreasing_near_interface(prof_fig3a):
    tail = prof_fig3a.f[prof_fig3a.xi > 0.9 * prof_fig3a.xi0]
    assert len(tail) > 10
    assert np.all(np.diff(tail) < 0.0)


def test_interface_type_ii_below_transition(prof_fig3a):
    fit = fit_interface(prof_fig3a)
    assert fit.type_label is InterfaceType.TYPE_II
    assert fit.exponent == pytest.approx(2.0, rel=0.1)


def test_interface_type_i_at_transition(prof_mid):
    fit = fit_interface(prof_mid)
    assert fit.type_label is InterfaceType.TYPE_I
    assert fit.exponent == pytest.approx(1.0, rel=0.15)


def test_sign_change_exponent_above_transition():
    prof = reconstruct(SUPER, 4.0 * K_STAR_SUPER)
    fit = fit_interface(prof)
    assert fit.type_label is InterfaceType.SIGN_CHANGE
    assert fit.exponent == pytest.approx(0.5, rel=0.1)


def test_critical_profile_single_interface_type():
    prof = reconstruct(CRIT, 0.03)
    fit = fit_interface(prof)
    # types coincide at m + p = 2: 1/(m-1) = 1/(1-p) = 2
    assert fit.exponent == pytest.approx(2.0, rel=0.1)


def test_ode_residual_interior(prof_fig3a):
    prof = prof_fig3a
    worst = 0.0
    for i in range(1, len(prof.xi) - 1, 199):
        if not prof.xi[1] < prof.xi[i] < 0.99 * prof.xi0:
            continue
        scale = max(1.0, abs(prof.alpha * prof.f[i]))
        worst = max(worst, ode_residual(prof, i) / scale)
    assert worst < 1e-6


def test_ode_residual_index_bounds(prof_fig3a):
    with pytest.raises(DomainError):
        ode_residual(prof_fig3a, 0)
    with pytest.raises(DomainError):
        ode_residual(prof_fig3a, len(prof_fig3a.xi) - 1)


def test_profile_matches_orbit(prof_fig3a):
    # push the samples through X = (alpha/2m) xi^2 f^(1-m), Y = xi f'/f and
    # compare against the phase-plane integration of the same K
    from selfsim.integrator import integrate_from_p0

    prof = prof_fig3a
    orbit = integrate_from_p0(SUPER, 0.1)
    sel = (prof.xi > 0.1) & (prof.xi < 0.98 * prof.xi0)
    xi = prof.xi[sel][::200]
    f = evaluate_f(prof, xi)
    d = 1e-5 * xi
    g = (evaluate_f(prof, xi + d) - evaluate_f(prof, xi - d)) / (2.0 * d)
    X = (prof.alpha / (2.0 * SUPER.m)) * xi**2 * f ** (1.0 - SUPER.m)
    Y = xi * g / f
    ok = (X > 2.0 * orbit.X[0]) & (X < 5e3)
    y_orbit = np.interp(np.log(X[ok]), np.log(orbit.X), orbit.Y)
    assert np.allclose(Y[ok], y_orbit, rtol=1e-4, atol=1e-5)


def test_evaluate_f_piecewise(prof_fig3a):
    prof = prof_fig3a
    # beyond the interface the profile is identically zero
    assert evaluate_f(prof, prof.xi0 * 1.01) == 0.0
    assert evaluate_f(prof, prof.xi0 + 5.0) == 0.0
    # vector evaluation round-trips the stored samples
    vals = evaluate_f(prof, prof.xi[::500])
    assert np.allclose(vals, prof.f[::500], rtol=1e-9)


def test_rescale_identity(prof_mid):
    r = rescale(prof_mid, 1.0)
    assert np.allclose(r.xi, prof_mid.xi)
    assert np.allclose(r.f, prof_mid.f)


@pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
def test_rescale_symmetry(prof_mid, lam):
    r = rescale(prof_mid, lam)
    gamma = 2.0 / (SUPER.m - 1.0)
    assert evaluate_f(r, 0.0) == pytest.approx(lam**-gamma)
    assert r.xi0 == pytest.approx(prof_mid.xi0 / lam)
    # residual of the rescaled profile stays within 10x of the original's
    def worst(p):
        out = 0.0
        for i in range(1, len(p.xi) - 1, 499):
            if not p.xi[1] < p.xi[i] < 0.99 * p.xi0:
                continue
            scale = max(1.0, abs(p.alpha * p.f[i]))
            out = max(out, ode_residual(p, i) / scale)
        return out

    assert worst(r) < 10.0 * max(worst(prof_mid), 1e-7)


def _pieces(p):
    """One xi in each piece of a reconstructed profile: series, dense
    solution, tail power law, past xi0."""
    return np.array([0.5 * p.xi[0], 0.5 * p.xi0,
                     0.5 * (p.xi[-1] + p.xi0), 1.1 * p.xi0])


@pytest.mark.parametrize("lam", [0.5, 3.0])
def test_rescale_evaluates_every_piece(prof_mid, lam):
    x = _pieces(prof_mid) / lam
    want = lam ** (-2.0 / (SUPER.m - 1.0)) * evaluate_f(prof_mid, lam * x)
    assert want[2] > 0.0 and want[3] == 0.0
    assert np.allclose(evaluate_f(rescale(prof_mid, lam), x), want,
                       rtol=1e-13, atol=0.0)


def test_rescale_composes(prof_mid):
    twice = rescale(rescale(prof_mid, 0.5), 6.0)
    once = rescale(prof_mid, 3.0)
    assert twice.xi0 == pytest.approx(once.xi0, rel=1e-14)
    assert np.allclose(twice.xi, once.xi, rtol=1e-14, atol=0.0)
    assert np.allclose(twice.f, once.f, rtol=1e-14, atol=0.0)
    x = _pieces(once)
    assert np.allclose(evaluate_f(twice, x), evaluate_f(once, x),
                       rtol=1e-12, atol=0.0)


def test_sampled_profiles_evaluate_their_own_samples():
    # a freed profile's id is often reused by the next one built, which
    # must not see an interpolant of the earlier samples
    xi = np.linspace(0.1, 1.0, 50)

    def build(level):
        return Profile(params=SUPER, alpha=1.0, beta=0.5, xi=xi,
                       f=np.full_like(xi, level))

    for k in range(20):
        old = build(1.0 + k)
        assert evaluate_f(old, 0.5) == pytest.approx(1.0 + k)
        del old
        assert evaluate_f(build(100.0 + k), 0.5) == pytest.approx(100.0 + k)


def test_sampled_profile_holds_its_first_value_down_to_the_origin():
    xi = np.linspace(0.1, 1.0, 10)
    # exp(ln f[0]) can miss f[0] in the last bit; the hold is f[0] itself
    prof = Profile(params=SUPER, alpha=1.0, beta=0.5, xi=xi,
                   f=np.linspace(2.735, 1.0, 10))
    assert evaluate_f(prof, 0.0) == prof.f[0]
    assert np.all(evaluate_f(prof, np.array([0.0, 0.05])) == prof.f[0])


def test_rescale_requires_positive_lambda(prof_mid):
    with pytest.raises(DomainError):
        rescale(prof_mid, 0.0)


def test_reconstruct_rejects_subcritical():
    with pytest.raises(DomainError):
        reconstruct(ModelParams(1.2, 0.5, 3), 1.0)


def test_fit_needs_tail_samples(prof_fig3a):
    sparse = Profile(
        params=prof_fig3a.params,
        alpha=prof_fig3a.alpha,
        beta=prof_fig3a.beta,
        xi=prof_fig3a.xi[:50],
        f=prof_fig3a.f[:50],
        xi0=prof_fig3a.xi0,
    )
    with pytest.raises(DomainError):
        fit_interface(sparse)


def test_seed_scale_tracks_alpha():
    # seed offset shrinks as alpha grows, keeping the series error tiny
    a_small = reconstruct(SUPER, 5.0)
    a_big = reconstruct(SUPER, 0.5)
    assert a_small.xi[0] > 0.0
    assert alpha_beta_from_k(SUPER, 5.0).alpha < alpha_beta_from_k(SUPER, 0.5).alpha
    assert a_small.xi[0] > a_big.xi[0]
