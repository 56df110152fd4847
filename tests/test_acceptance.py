"""Acceptance suite: one check per numbered criterion, each printing a
single PASS/FAIL line so the run log doubles as a report."""

import math
import time
from dataclasses import replace

import numpy as np

from selfsim import integrator
from selfsim.integrator import (
    OrbitTag,
    integrate_from_p0,
    orbit_monotonicity_check,
)
from selfsim.params import ModelParams, alpha_star_critical
from selfsim.phaseplane import finite_critical_points, numerical_jacobian
from selfsim.profile import (
    InterfaceType,
    fit_interface,
    ode_residual,
    reconstruct,
    rescale,
)
from selfsim.shooting import find_k_star, nonexistence_sweep
from selfsim.solution import (
    evaluate_u,
    make_solution,
    mass_growth_rate,
    pde_residual,
    to_traveling_wave,
    tw_residual,
    tw_residual_scale,
)

SUPER = ModelParams(2.0, 0.5, 4)

K_STAR_SUPER = 2.5488157


def report(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num:2d} [{status}] {label}{suffix}")
    assert ok, f"criterion {num}: {label}{suffix}"


def _scaled_ode_residual(prof, stride=97):
    worst = 0.0
    for i in range(1, len(prof.xi) - 1, stride):
        if not prof.xi[1] < prof.xi[i] < 0.99 * prof.xi0:
            continue
        scale = max(1.0, abs(prof.alpha * prof.f[i]))
        worst = max(worst, ode_residual(prof, i) / scale)
    return worst


def test_criterion_1_figure3_tags():
    t0 = time.time()
    tag_a = integrate_from_p0(SUPER, 0.1).termination.tag
    t_a = time.time() - t0
    t0 = time.time()
    tag_b = integrate_from_p0(SUPER, 8.0).termination.tag
    t_b = time.time() - t0
    ok = tag_a is OrbitTag.TO_Q1 and tag_b is OrbitTag.TO_Q3
    report(1, "reference-case tags (K=0.1 -> ToQ1, K=8 -> ToQ3)", ok,
           f"runtimes {t_a:.2f}s / {t_b:.2f}s")


def test_criterion_2_critical_constants():
    ok = True
    details = []
    for m in (1.25, 1.5, 1.75):
        params = ModelParams(m, 2.0 - m, 3)
        rep = find_k_star(params, tol_K=1e-4)
        k_ref = 0.25 * (m - 1.0) ** 2
        a_ref = alpha_star_critical(m)
        dk = abs(rep.K_star - k_ref) / k_ref
        da = abs(rep.alpha_star - a_ref) / a_ref
        ok = ok and dk < 1e-3 and da < 1e-3
        details.append(f"m={m}: dK={dk:.1e} da={da:.1e}")
    report(2, "critical-regime K* and alpha* within 1e-3", ok,
           "; ".join(details))


def test_criterion_3_nonexistence_sweeps():
    grid = list(np.geomspace(1e-3, 1e3, 13))
    ok = True
    for m, p in ((1.2, 0.5), (1.3, 0.6)):
        for N in (1, 3):
            rep = nonexistence_sweep(ModelParams(m, p, N), grid)
            ok = ok and all(t is OrbitTag.TO_Q3 for _, t in rep.K_grid)
    report(3, "subcritical sweeps all ToQ3 (13-point grid, N in {1,3})", ok)


def test_criterion_4_interface_types():
    rep = find_k_star(SUPER, tol_K=1e-6)
    k_mid = rep.K_star
    fits = {
        "low": fit_interface(reconstruct(SUPER, 0.5 * k_mid)),
        "mid": fit_interface(reconstruct(SUPER, k_mid)),
        "high": fit_interface(reconstruct(SUPER, 4.0 * k_mid)),
    }
    ok = (
        abs(fits["low"].exponent - 2.0) / 2.0 < 0.10
        and fits["low"].type_label is InterfaceType.TYPE_II
        and abs(fits["mid"].exponent - 1.0) < 0.15
        and abs(fits["high"].exponent - 0.5) / 0.5 < 0.10
    )
    report(4, "interface exponents 2 / 1 / 0.5 at 0.5K*, K*, 4K*", ok,
           ", ".join(f"{k}={v.exponent:.4f}" for k, v in fits.items()))


def test_criterion_5_jacobian_eigenvalues():
    ok = True
    for N in (3, 4, 5):
        params = ModelParams(2.0, 0.5, N)
        for cp in finite_critical_points(params):
            J = numerical_jacobian(cp.location, params, 0.3, h=1e-5)
            eig = sorted(np.linalg.eigvals(J).real)
            for got, want in zip(eig, sorted(cp.eigenvalues)):
                ok = ok and abs(got - want) <= 1e-6 * max(1.0, abs(want))
    report(5, "numerical Jacobian eigenvalues at P0/P1 within 1e-6", ok)


def test_criterion_6_self_similar_consistency():
    prof = reconstruct(SUPER, 0.1)
    sol = make_solution(prof)
    worst_ode = _scaled_ode_residual(prof)

    rng = np.random.default_rng(1234)
    worst_pde = 0.0
    for _ in range(100):
        t = float(rng.uniform(-0.2, 0.2))
        r = float(rng.uniform(0.05, 0.9)) * prof.xi0 * math.exp(sol.beta * t)
        res = pde_residual(sol, r, t, 1e-3)
        worst_pde = max(worst_pde, abs(res) / (sol.alpha * evaluate_u(sol, r, t)))

    rate = mass_growth_rate(sol, [0.0, 0.05, 0.1, 0.15])
    target = sol.alpha + SUPER.N * sol.beta
    d_rate = abs(rate - target) / target

    ok = worst_ode < 1e-6 and worst_pde < 1e-4 and d_rate < 1e-3
    report(6, "ODE/PDE residuals and mass-growth rate", ok,
           f"ode={worst_ode:.1e} pde={worst_pde:.1e} mass={d_rate:.1e}")


def test_criterion_7_rescaling_symmetry():
    prof = reconstruct(SUPER, K_STAR_SUPER)
    base = max(_scaled_ode_residual(prof), 1e-7)
    ok = True
    details = []
    for lam in (0.5, 2.0, 10.0):
        worst = _scaled_ode_residual(rescale(prof, lam))
        ok = ok and worst < 10.0 * base
        details.append(f"lam={lam}: {worst / base:.2f}x")
    report(7, "rescaled profiles keep the residual bound within 10x", ok,
           "; ".join(details))


def test_criterion_8_monotonicity_in_k():
    pairs = {
        ModelParams(2.0, 0.5, 4): [(0.1, 0.2), (0.5, 1.0), (1.0, 2.0)],
        ModelParams(1.5, 0.5, 3): [(0.01, 0.02), (0.02, 0.04), (0.03, 0.06)],
        ModelParams(1.2, 0.5, 3): [(0.1, 0.3), (1.0, 3.0), (10.0, 30.0)],
    }
    ok = all(
        orbit_monotonicity_check(params, k1, k2)
        for params, ks in pairs.items()
        for k1, k2 in ks
    )
    report(8, "orbit monotonicity in K (3 pairs per regime)", ok)


def test_criterion_9_traveling_waves():
    ok = True
    details = []
    for K in (0.5 * K_STAR_SUPER, K_STAR_SUPER):
        sol = make_solution(reconstruct(SUPER, K))
        tw = to_traveling_wave(sol)
        edge = tw.support_edge
        h = 1e-4
        worst = max(
            abs(tw_residual(tw, float(z), h)) / tw_residual_scale(tw, float(z), h)
            for z in np.linspace(edge - 3.0, edge - 0.05, 12)
        )
        bad = replace(tw, c=tw.c + 0.5)
        z = edge - 1.0
        ratio = abs(tw_residual(bad, z, h)) / (1e-3 * tw_residual_scale(bad, z, h))
        zero_right = bool(np.all(tw.F[tw.z_grid >= edge + 1e-9] == 0.0))
        ok = ok and worst < 1e-3 and ratio >= 10.0 and zero_right
        details.append(f"K={K:.3f}: res={worst:.1e} ctrl={ratio:.0f}x")
    report(9, "TW residual bound, wrong-speed control, right support", ok,
           "; ".join(details))


def test_criterion_10_tag_stability(monkeypatch):
    variants = [
        ("REL_TOL", integrator.REL_TOL / 2.0),
        ("LAUNCH_OFFSET", 1e-5),
        ("LAUNCH_OFFSET", 1e-7),
    ]
    ok = True
    for name, value in variants:
        with monkeypatch.context() as mp:
            mp.setattr(integrator, name, value)
            ok = ok and integrate_from_p0(SUPER, 0.1).termination.tag \
                is OrbitTag.TO_Q1
            ok = ok and integrate_from_p0(SUPER, 8.0).termination.tag \
                is OrbitTag.TO_Q3
            rep = find_k_star(ModelParams(1.5, 0.5, 3), tol_K=1e-4)
            ok = ok and abs(rep.K_star - 0.0625) / 0.0625 < 1e-3
            sweep = nonexistence_sweep(
                ModelParams(1.2, 0.5, 3), list(np.geomspace(1e-3, 1e3, 13))
            )
            ok = ok and all(t is OrbitTag.TO_Q3 for _, t in sweep.K_grid)
    report(10, "criteria 1-3 stable under rel_tol/2 and delta in {1e-5,1e-7}",
           ok)
