"""Command-line front end with deterministic, diff-stable file output.

Every command echoes the model parameters (including the derived weight
exponent sigma) in its output; floats are printed with round-trip
precision so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys

from selfsim.integrator import IntegratorOptions, OrbitTag, integrate, integrate_from_p0
from selfsim.params import (
    DomainError,
    ModelParams,
    ShootingParam,
    alpha_beta_from_k,
    k_from_alpha,
)
from selfsim.phaseplane import PhasePoint, launch_slope
from selfsim.profile import ReconstructionError, fit_interface, reconstruct
from selfsim.shooting import BracketError, find_k_star, nonexistence_sweep, shoot
from selfsim.solution import (
    convection_coefficient,
    make_solution,
    reaction_coefficient,
    to_traveling_wave,
)

SCHEMA_VERSION = 1

EXIT_FLAGS = 2
EXIT_NUMERICAL = 3


def _fmt(x) -> str:
    return repr(float(x))


def _json_dump(doc: dict, path: str | None) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_csv(path: str, meta: dict, columns: list[str], rows) -> None:
    """Metadata header, column names, then rows; string cells are verbatim."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, val in meta.items():
            fh.write(f"# {key} = {val}\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else _fmt(v)
                              for v in row) + "\n")


def _model_meta(params: ModelParams) -> dict:
    return {
        "m": params.m,
        "p": params.p,
        "N": params.N,
        "sigma": params.sigma,
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selfsim",
        description="Self-similar profiles and phase-plane orbits of the "
        "weighted reaction porous-medium equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, with_k=True):
        sp.add_argument("--m", type=float, required=True)
        sp.add_argument("--p", type=float, required=True)
        sp.add_argument("--N", type=int, required=True)
        sp.add_argument("--sigma", type=float, default=None,
                        help="optional; checked against the derived value")
        if with_k:
            group = sp.add_mutually_exclusive_group(required=True)
            group.add_argument("--K", type=float, default=None)
            group.add_argument("--alpha", type=float, default=None)
        sp.add_argument("--rel-tol", type=float, default=None)
        sp.add_argument("--abs-tol", type=float, default=None)
        sp.add_argument("--x-big", type=float, default=None)
        sp.add_argument("--out", default=None)

    add_common(sub.add_parser("classify", help="tag of the P0-orbit at one K"))

    sp = sub.add_parser("find-kstar", help="bracket the Q1/Q3 transition")
    add_common(sp, with_k=False)
    sp.add_argument("--tol-k", type=float, default=1e-6)

    sp = sub.add_parser("sweep", help="classify a log-grid of K values")
    add_common(sp, with_k=False)
    sp.add_argument("--k-min", type=float, default=1e-3)
    sp.add_argument("--k-max", type=float, default=1e3)
    sp.add_argument("--k-count", type=int, default=13)

    add_common(sub.add_parser(
        "profile", help="reconstruct f(xi) and fit its interface"))
    add_common(sub.add_parser(
        "portrait", help="orbit data files for a phase-plane portrait"))
    add_common(sub.add_parser(
        "tw", help="traveling-wave profile of the transformed equation"))
    return parser


def _model_from_args(args) -> ModelParams:
    params = ModelParams(m=args.m, p=args.p, N=args.N)
    if args.sigma is not None:
        if abs(args.sigma - params.sigma) > 1e-12 * max(1.0, abs(params.sigma)):
            raise DomainError(
                f"--sigma {args.sigma} contradicts the derived value "
                f"{params.sigma}; sigma is fixed by m and p"
            )
    return params


def _shooting_from_args(params: ModelParams, args) -> ShootingParam:
    if args.K is not None:
        return alpha_beta_from_k(params, args.K)
    return k_from_alpha(params, args.alpha)


def _opts_from_args(args) -> IntegratorOptions:
    kwargs = {}
    if args.rel_tol is not None:
        kwargs["rel_tol"] = args.rel_tol
    if args.abs_tol is not None:
        kwargs["abs_tol"] = args.abs_tol
    if getattr(args, "x_big", None) is not None:
        kwargs["X_big"] = args.x_big
    return IntegratorOptions(**kwargs)


def _cmd_classify(args) -> int:
    params = _model_from_args(args)
    sp = _shooting_from_args(params, args)
    opts = _opts_from_args(args)
    end = shoot(params, sp.K, opts).termination
    doc = {
        "schema_version": SCHEMA_VERSION,
        **_model_meta(params),
        "k": sp.K,
        "alpha": sp.alpha,
        "beta": sp.beta,
        "tag": end.tag.value,
        "final_slope": end.final_slope,
        "diagnostics": end.diagnostics,
    }
    _json_dump(doc, args.out)
    if end.tag is OrbitTag.UNRESOLVED:
        print("orbit endpoint unresolved", file=sys.stderr)
        return EXIT_NUMERICAL
    return 0


def _cmd_find_kstar(args) -> int:
    params = _model_from_args(args)
    opts = _opts_from_args(args)
    report = find_k_star(params, tol_K=args.tol_k, opts=opts)
    doc = {
        "schema_version": SCHEMA_VERSION,
        **_model_meta(params),
        "regime": report.regime.value,
        "k_star": report.K_star,
        "k_star_bracket": list(report.K_star_bracket),
        "alpha_star": report.alpha_star,
        "k_star_analytic": report.K_star_analytic,
        "k_star_discrepancy": report.K_star_discrepancy,
        "probes": [{"k": k, "tag": tag.value} for k, tag in report.K_grid],
        "notes": report.notes,
    }
    _json_dump(doc, args.out)
    return 0


def _k_grid(args) -> list[float]:
    import numpy as np

    return list(np.geomspace(args.k_min, args.k_max, args.k_count))


def _cmd_sweep(args) -> int:
    from selfsim.params import Regime, regime
    from selfsim.shooting import classify as classify_k

    params = _model_from_args(args)
    opts = _opts_from_args(args)
    if args.out is None:
        print("sweep requires --out (file prefix)", file=sys.stderr)
        return EXIT_FLAGS
    grid = _k_grid(args)
    if regime(params) is Regime.SUBCRITICAL:
        report = nonexistence_sweep(params, grid, opts)
        probes = report.K_grid
        notes = report.notes
    else:
        probes = tuple(sorted((K, classify_k(params, K, opts)) for K in grid))
        notes = ""
    doc = {
        "schema_version": SCHEMA_VERSION,
        **_model_meta(params),
        "regime": regime(params).value,
        "all_to_q3": all(t is OrbitTag.TO_Q3 for _, t in probes),
        "probes": [{"k": k, "tag": t.value} for k, t in probes],
        "notes": notes,
    }
    _write_csv(
        args.out + ".csv",
        {**_model_meta(params), "regime": regime(params).value},
        ["K", "tag"],
        ((k, t.value) for k, t in probes),
    )
    _json_dump(doc, args.out + ".json")
    return 0


def _cmd_profile(args) -> int:
    params = _model_from_args(args)
    sp = _shooting_from_args(params, args)
    opts = _opts_from_args(args)
    if args.out is None:
        print("profile requires --out (file prefix)", file=sys.stderr)
        return EXIT_FLAGS
    prof = reconstruct(params, sp.K, opts)
    fit = fit_interface(prof)
    meta = {
        **_model_meta(params),
        "K": sp.K,
        "alpha": prof.alpha,
        "beta": prof.beta,
        "xi0": prof.xi0,
    }
    _write_csv(args.out + ".csv", meta, ["xi", "f"], zip(prof.xi, prof.f))
    doc = {
        "schema_version": SCHEMA_VERSION,
        **_model_meta(params),
        "k": sp.K,
        "alpha": prof.alpha,
        "beta": prof.beta,
        "xi0": fit.xi0,
        "interface_exponent": fit.exponent,
        "interface_constant": fit.constant,
        "interface_type": fit.type_label.value,
    }
    _json_dump(doc, args.out + ".json")
    return 0


def _cmd_portrait(args) -> int:
    params = _model_from_args(args)
    sp = _shooting_from_args(params, args)
    opts = _opts_from_args(args)
    if args.out is None:
        print("portrait requires --out (file prefix)", file=sys.stderr)
        return EXIT_FLAGS
    meta = {**_model_meta(params), "K": sp.K}
    runs = [("p0", integrate_from_p0(params, sp.K, opts))]
    # generic starts bracketing the P0 direction, plus below-axis launches
    slope = launch_slope(params)
    for i, (X0, Y0) in enumerate(
        [
            (0.5, 2.0 * slope),
            (0.5, 0.5 * slope),
            (1.0, -0.5),
            (2.0, 1.0),
            (2.0, -2.0 * (params.m - 1.0)),
        ]
    ):
        orbit = integrate(PhasePoint(X=X0, Y=Y0), params, sp.K, opts)
        runs.append((f"start{i}", orbit))
    for name, orbit in runs:
        _write_csv(
            f"{args.out}_{name}.csv",
            {**meta, "tag": orbit.termination.tag.value},
            ["eta", "X", "Y"],
            zip(orbit.eta, orbit.X, orbit.Y),
        )
    return 0


def _cmd_tw(args) -> int:
    params = _model_from_args(args)
    sp = _shooting_from_args(params, args)
    opts = _opts_from_args(args)
    if args.out is None:
        print("tw requires --out (file prefix)", file=sys.stderr)
        return EXIT_FLAGS
    prof = reconstruct(params, sp.K, opts)
    sol = make_solution(prof)
    tw = to_traveling_wave(sol)
    meta = {
        **_model_meta(params),
        "K": sp.K,
        "c": tw.c,
        "support_edge": tw.support_edge,
    }
    _write_csv(args.out + ".csv", meta, ["z", "F"], zip(tw.z_grid, tw.F))
    doc = {
        "schema_version": SCHEMA_VERSION,
        **_model_meta(params),
        "k": sp.K,
        "c": tw.c,
        "support_edge": tw.support_edge,
        "convection_coefficient": convection_coefficient(params),
        "reaction_coefficient": reaction_coefficient(params),
        # residual convention: c*F' + (F^m)'' + a*(F^m)' + b*F^m + F^p = 0
        # for w(y, tau) = F(y - c*tau)
        "wave_form": "F(y - c*tau)",
    }
    _json_dump(doc, args.out + ".json")
    return 0


_COMMANDS = {
    "classify": _cmd_classify,
    "find-kstar": _cmd_find_kstar,
    "sweep": _cmd_sweep,
    "profile": _cmd_profile,
    "portrait": _cmd_portrait,
    "tw": _cmd_tw,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_FLAGS if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FLAGS
    except (BracketError, ReconstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
