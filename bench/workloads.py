"""The benchmark's three workloads: fixed task lists with checked answers.

Each workload is a closed loop with one caller: a pass runs its task list
once, in order, in this process.  Inputs come from the workload seed alone;
the library receives only the generated inputs.  Every answer is checked
against the paper's known values.  A check that fails at the seed commit is
listed in ``KNOWN_FAILURES`` with the form it fails in there.  It still
counts as failed, so a later fix shows up as a higher ``pass_frac``.  Only a
failure in that form is expected: any other failure, also of a listed check
and also an exception, makes the run incorrect.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from selfsim import cli, profile, shooting, solution
from selfsim.params import ModelParams, Regime, regime
from selfsim.profile import InterfaceType

#: K* of (m, p, N) = (2, 1/2, 4), as in the acceptance suite
K_STAR_SUPER = 2.5488157
#: K* of (3, 1/2, 3), bisected to tol 1e-6 with find_k_star
K_STAR_M3 = 8.344726
#: requested relative bracket width of the kstar workload
TOL_K = 1e-6
#: widest bracket the known (1.5, 1/2, 3) stall may stop at
STALL_WIDTH = 1e-5

#: checks that fail at the seed commit, and the only form they may fail in
KNOWN_FAILURES = {
    "find_k_star m=1.5 p=0.5 N=3":
        "returns a bracket that holds K* = 0.0625 and is narrower than 1e-5 "
        "but not 1e-6 (5.29e-6, 'probe unresolved', at the seed)",
    "interface m=3 p=0.5 N=3 K=K*":
        "fit type Indeterminate (exponent 7.16 at the seed; the target is "
        "1/(m-1) = 0.5) with every residual within its bound",
}


@dataclass
class Outcome:
    """What one task found: pass/fail checks and accuracy figures."""

    #: (label, passed, failed in its known form, detail)
    checks: list[tuple[str, bool, bool, str]] = field(default_factory=list)
    #: accuracy figures; a pass keeps the largest value of each
    errors: dict[str, float] = field(default_factory=dict)

    def check(self, label: str, ok: bool, detail: str = "",
              known: bool = False) -> None:
        """Record a check; ``known`` marks a failure in its seed form."""
        if known and label not in KNOWN_FAILURES:
            raise ValueError(f"{label} is not a known failure")
        self.checks.append((label, bool(ok), bool(known) and not ok, detail))

    def error(self, name: str, value: float) -> None:
        self.errors[name] = max(self.errors.get(name, 0.0), float(value))


@dataclass(frozen=True)
class Task:
    label: str
    #: checks the task reports; a task that raises fails all of them
    n_checks: int
    run: object  # callable(scratch: Path) -> Outcome


def _tag(m, p, N) -> str:
    return f"m={m:g} p={p:g} N={N}"


# --------------------------------------------------------------------------
# kstar: shooting with bisection; no random input, so the seed is unused

KSTAR_CASES = [
    ((2.0, 0.5, 4), K_STAR_SUPER),
    ((1.5, 0.5, 3), 0.0625),  # analytic (m-1)^2/4, since m + p = 2
]


def _kstar_task(mpn, ref: float, scratch: Path) -> Outcome:
    out = Outcome()
    rep = shooting.find_k_star(ModelParams(*mpn), tol_K=TOL_K)
    lo, hi = rep.K_star_bracket
    width = (hi - lo) / lo
    err = abs(rep.K_star - ref) / ref
    out.error("kstar_rel_err", err)
    label = f"find_k_star {_tag(*mpn)}"
    out.check(
        label,
        width < TOL_K and err < TOL_K,
        f"K*={rep.K_star!r} rel_err={err:.3g} width={width:.3g} "
        f"probes={len(rep.K_grid)} {rep.notes}".rstrip(),
        known=label in KNOWN_FAILURES and lo <= ref <= hi
        and width < STALL_WIDTH,
    )
    return out


def kstar_tasks(seed: int) -> list[Task]:
    return [Task(f"find_k_star {_tag(*mpn)}", 1, partial(_kstar_task, mpn, ref))
            for mpn, ref in KSTAR_CASES]


# --------------------------------------------------------------------------
# sweep: in-process `selfsim sweep`, classify only

#: (m, p, N), log10 of k-min and k-max, whether k-min may shift.  Grid points
#: sit on a half-decade lattice.  The seed moves k-max by one lattice step
#: down, none or up on every grid, and k-min only on the m = 1.2 grids, whose
#: small-K orbits are plunges as cheap as the large-K ones.  Elsewhere the
#: small-K orbits are long Q1 or slow Q3 runs (at (2, 1/2, 4) one orbit at
#: K = 10^-2.5 costs more than the rest of its grid), and moving them would
#: change the work of a pass from seed to seed.
SWEEP_GRIDS = [
    ((1.2, 0.5, 1), -3.0, 3.0, True),
    ((1.2, 0.5, 3), -3.0, 3.0, True),
    ((1.3, 0.6, 3), -3.0, 3.0, False),
    ((1.5, 0.5, 3), -3.0, 3.0, False),
    ((2.0, 0.5, 4), -2.0, 2.0, False),
]
SWEEP_K_STAR = {(1.5, 0.5, 3): 0.0625, (2.0, 0.5, 4): K_STAR_SUPER}


def _expected_tag(mpn, K: float) -> str:
    if regime(ModelParams(*mpn)) is Regime.SUBCRITICAL:
        return "ToQ3"
    return "ToQ1" if K < SWEEP_K_STAR[mpn] else "ToQ3"


def _sweep_task(i: int, mpn, lo: float, hi: float, scratch: Path) -> Outcome:
    out = Outcome()
    count = int(round(2 * (hi - lo))) + 1
    prefix = scratch / f"sweep{i}"
    m, p, N = mpn
    code = cli.main([
        "sweep", "--m", repr(m), "--p", repr(p), "--N", str(N),
        "--k-min", repr(10.0**lo), "--k-max", repr(10.0**hi),
        "--k-count", str(count), "--out", str(prefix),
    ])
    csv, doc = Path(f"{prefix}.csv"), Path(f"{prefix}.json")
    probes = []
    if code == 0 and csv.is_file() and doc.is_file():
        probes = json.loads(doc.read_text(encoding="utf-8"))["probes"]
    for j in range(count):
        label = f"sweep {_tag(*mpn)} K=10^{lo + 0.5 * j:g}"
        if j >= len(probes):
            out.check(label, False, f"exit code {code}, no tag")
            continue
        K, tag = probes[j]["k"], probes[j]["tag"]
        want = _expected_tag(mpn, K)
        out.check(label, tag == want, f"K={K!r} tag={tag} expected={want}")
    return out


def sweep_tasks(seed: int) -> list[Task]:
    rng = np.random.default_rng(seed)
    tasks = []
    for i, (mpn, lo, hi, shift_lo) in enumerate(SWEEP_GRIDS):
        d_lo, d_hi = (int(s) for s in rng.integers(-1, 2, size=2))
        if seed == 0:  # seed 0 is the unshifted reference grid
            d_lo = d_hi = 0
        lo += 0.5 * d_lo if shift_lo else 0.0
        hi += 0.5 * d_hi
        n = int(round(2 * (hi - lo))) + 1
        tasks.append(Task(f"sweep {_tag(*mpn)}", n,
                          partial(_sweep_task, i, mpn, lo, hi)))
    return tasks


# --------------------------------------------------------------------------
# profile: reconstruct, fit and residual checks; no shooting

#: (m, p, N), K*, and the K values as (label, K, side of K*)
PROFILE_CASES = [
    ((2.0, 0.5, 4), K_STAR_SUPER, [
        ("0.1", 0.1, -1), ("K*/2", 0.5 * K_STAR_SUPER, -1),
        ("K*", K_STAR_SUPER, 0), ("4K*", 4.0 * K_STAR_SUPER, 1)]),
    ((3.0, 0.5, 3), K_STAR_M3, [
        ("K*/2", 0.5 * K_STAR_M3, -1), ("K*", K_STAR_M3, 0),
        ("4K*", 4.0 * K_STAR_M3, 1)]),
]

#: residual bounds of acceptance criteria 6 (ode, pde, mass) and 9 (tw)
RESIDUAL_TOL = {"ode": 1e-6, "pde": 1e-4, "mass": 1e-3, "tw": 1e-3}
#: above K* the interface is a sign change with f' -> -inf at xi0, where the
#: finite-difference stencils lose accuracy; the suite checks no residual there
RESIDUAL_TOL_SIGN_CHANGE = {"ode": 1e-4, "pde": 1e-3, "mass": 1e-3, "tw": 1e-3}
MASS_TIMES = [0.0, 0.05, 0.1, 0.15]
ODE_STRIDE = 97


def _expected_interface(params: ModelParams, side: int):
    """Type II below K*, type I at K*, a sign change above."""
    m, p = params.m, params.p
    if side < 0:
        return InterfaceType.TYPE_II, 1.0 / (1.0 - p)
    if side == 0:
        return InterfaceType.TYPE_I, 1.0 / (m - 1.0)
    return InterfaceType.SIGN_CHANGE, 1.0 / m


def _profile_task(mpn, K: float, side: int, label: str,
                  pde_pts: list[list[float]], z_offsets: np.ndarray,
                  scratch: Path) -> Outcome:
    """Criteria 4, 6 and 9 of the acceptance suite at one K."""
    out = Outcome()
    params = ModelParams(*mpn)
    prof = profile.reconstruct(params, K)
    fit = profile.fit_interface(prof)
    want, target = _expected_interface(params, side)
    type_ok = fit.type_label is want

    res = {}
    res["ode"] = max(
        (profile.ode_residual(prof, i) / max(1.0, abs(prof.alpha * prof.f[i]))
         for i in range(1, len(prof.xi) - 1, ODE_STRIDE)
         if prof.xi[1] < prof.xi[i] < 0.99 * prof.xi0),
        default=0.0,
    )
    sol = solution.make_solution(prof)
    worst = 0.0
    for t, frac in pde_pts:
        r = frac * prof.xi0 * math.exp(sol.beta * t)
        scale = sol.alpha * solution.evaluate_u(sol, r, t)
        worst = max(worst, abs(solution.pde_residual(sol, r, t, 1e-3)) / scale)
    res["pde"] = worst
    rate = solution.mass_growth_rate(sol, MASS_TIMES)
    want_rate = sol.alpha + params.N * sol.beta
    res["mass"] = abs(rate - want_rate) / want_rate
    tw = solution.to_traveling_wave(sol)
    h = 1e-4
    res["tw"] = max(
        abs(solution.tw_residual(tw, z, h)) / solution.tw_residual_scale(tw, z, h)
        for z in (tw.support_edge - z_offsets).tolist()
    )

    tol = RESIDUAL_TOL if side <= 0 else RESIDUAL_TOL_SIGN_CHANGE
    over = [k for k, v in res.items() if not v < tol[k]]
    for k, v in res.items():
        out.error(f"{k}_res_max" if k != "mass" else "mass_rate_err", v)
    out.error("xi0_rel_diff", abs(fit.xi0 - prof.xi0) / prof.xi0)
    exp_err = abs(fit.exponent - target) / target
    ok = type_ok and not over
    if ok:
        out.error("iface_exp_err", exp_err)
    check = f"interface {_tag(*mpn)} K={label}"
    out.check(
        check, ok,
        f"type={fit.type_label.value} expected={want.value} "
        f"exponent={fit.exponent:.4g} target={target:.4g}"
        + (f" residuals over bound: {over}" if over else ""),
        known=check in KNOWN_FAILURES
        and fit.type_label is InterfaceType.INDETERMINATE and not over,
    )
    return out


def _cli_profile_task(mpn, K: float, scratch: Path) -> Outcome:
    out = Outcome()
    m, p, N = mpn
    prefix = scratch / f"profile-{m:g}-{p:g}-{N}"
    code = cli.main(["profile", "--m", repr(m), "--p", repr(p), "--N", str(N),
                     "--K", repr(K), "--out", str(prefix)])
    csv, doc = Path(f"{prefix}.csv"), Path(f"{prefix}.json")
    files = csv.is_file() and csv.stat().st_size > 0 and doc.is_file()
    keys = files and "interface_type" in json.loads(doc.read_text("utf-8"))
    out.check(f"cli profile {_tag(*mpn)} K=K*", code == 0 and keys,
              f"exit code {code}, output files {'ok' if keys else 'missing'}")
    return out


def profile_tasks(seed: int) -> list[Task]:
    rng = np.random.default_rng(seed)
    tasks = []
    for mpn, k_star, ks in PROFILE_CASES:
        for label, K, side in ks:
            # criterion 6 samples: t in (-0.2, 0.2), r/(xi0 e^{beta t}) in
            # (0.05, 0.9); criterion 9 points: 0.05 to 3 left of the edge
            pde_pts = np.column_stack([rng.uniform(-0.2, 0.2, 100),
                                       rng.uniform(0.05, 0.9, 100)]).tolist()
            z_offsets = np.sort(rng.uniform(0.05, 3.0, 12))
            tasks.append(Task(
                f"interface {_tag(*mpn)} K={label}", 1,
                partial(_profile_task, mpn, K, side, label, pde_pts,
                        z_offsets)))
    for mpn, k_star, _ in PROFILE_CASES:
        tasks.append(Task(f"cli profile {_tag(*mpn)} K=K*", 1,
                          partial(_cli_profile_task, mpn, k_star)))
    return tasks


WORKLOADS = {
    "kstar": kstar_tasks,
    "sweep": sweep_tasks,
    "profile": profile_tasks,
}

#: accuracy figures each workload reports; all are relative errors
ACCURACY = {
    "kstar": ["kstar_rel_err"],
    "sweep": [],
    "profile": ["iface_exp_err", "xi0_rel_diff", "ode_res_max", "pde_res_max",
                "tw_res_max", "mass_rate_err"],
}
