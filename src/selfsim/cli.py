"""Command-line front end with deterministic, diff-stable file output.

Each ``_cmd_*`` computes its result and returns its JSON fields (or None),
its CSV tables as ``(suffix, meta, names, columns)`` and a failure message
(or ""); ``main`` alone writes them and picks the exit code. Every output
echoes the model parameters (including the derived weight exponent sigma);
floats are printed with round-trip precision so identical inputs produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from selfsim import shooting
from selfsim.integrator import OrbitTag, integrate, integrate_from_p0
from selfsim.params import (
    DomainError,
    ModelParams,
    Regime,
    ShootingParam,
    alpha_beta_from_k,
    k_from_alpha,
    positive_finite,
    regime,
)
from selfsim.phaseplane import PhasePoint, launch_slope
from selfsim.profile import ReconstructionError, fit_interface, reconstruct
from selfsim.shooting import BracketError, find_k_star, nonexistence_sweep
from selfsim.solution import (
    convection_coefficient,
    make_solution,
    reaction_coefficient,
    to_traveling_wave,
)

SCHEMA_VERSION = 1

EXIT_FLAGS = 2
EXIT_NUMERICAL = 3


#: rows formatted and written at a time by _write_csv
CSV_BLOCK = 1024


def _write_csv(path: str, meta: dict, names: list[str], columns) -> None:
    """Metadata header, column names, then one row per index of the
    equal-length columns; floats in round-trip precision, a column of
    strings verbatim."""
    cells = [col if len(col) and isinstance(col[0], str)
             else np.asarray(col, dtype=float) for col in columns]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, val in meta.items():
            fh.write(f"# {key} = {val}\n")
        fh.write(",".join(names) + "\n")
        for start in range(0, len(cells[0]), CSV_BLOCK):
            # Python floats one block at a time: a whole column of them
            # would raise the peak memory by 24 bytes a cell
            block = [col[start:start + CSV_BLOCK] for col in cells]
            text = [list(map(repr, col.tolist()))
                    if isinstance(col, np.ndarray) else col for col in block]
            fh.write("\n".join(map(",".join, zip(*text))) + "\n")


def _model_meta(params: ModelParams) -> dict:
    return {
        "m": params.m,
        "p": params.p,
        "N": params.N,
        "sigma": params.sigma,
    }


class _Parser(argparse.ArgumentParser):
    """A flag error is a DomainError, so ``main`` reports it as one line."""

    def error(self, message):
        raise DomainError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="selfsim",
        description="Self-similar profiles and phase-plane orbits of the "
        "weighted reaction porous-medium equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(name, summary, with_k=True, files=True):
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("--m", type=float, required=True)
        sp.add_argument("--p", type=float, required=True)
        sp.add_argument("--N", type=int, required=True)
        if with_k:
            group = sp.add_mutually_exclusive_group(required=True)
            group.add_argument("--K", type=float, default=None)
            group.add_argument("--alpha", type=float, default=None)
        sp.add_argument("--out", required=files,
                        help="prefix of the output files")
        return sp

    add_common("classify", "tag of the P0-orbit at one K", files=False)
    sp = add_common("find-kstar", "bracket the Q1/Q3 transition",
                    with_k=False, files=False)
    sp.add_argument("--tol-k", type=float, default=1e-6)
    sp = add_common("sweep", "classify a log-grid of K values", with_k=False)
    sp.add_argument("--k-min", type=float, default=1e-3)
    sp.add_argument("--k-max", type=float, default=1e3)
    sp.add_argument("--k-count", type=int, default=13)
    add_common("profile", "reconstruct f(xi) and fit its interface")
    add_common("portrait", "orbit data files for a phase-plane portrait")
    add_common("tw", "traveling-wave profile of the transformed equation")
    return parser


def _shooting_from_args(params: ModelParams, args) -> ShootingParam:
    if args.K is not None:
        return alpha_beta_from_k(params, args.K)
    return k_from_alpha(params, args.alpha)


def _cmd_classify(params: ModelParams, args):
    sp = _shooting_from_args(params, args)
    end = integrate_from_p0(params, sp.K).termination
    fields = {
        "k": sp.K,
        "alpha": sp.alpha,
        "beta": sp.beta,
        "tag": end.tag.value,
        "final_slope": end.final_slope,
        "diagnostics": end.diagnostics,
    }
    unresolved = end.tag is OrbitTag.UNRESOLVED
    return fields, [], "orbit endpoint unresolved" if unresolved else ""


def _cmd_find_kstar(params: ModelParams, args):
    report = find_k_star(params, tol_K=args.tol_k)
    fields = {
        "regime": report.regime.value,
        "k_star": report.K_star,
        "k_star_bracket": list(report.K_star_bracket),
        "alpha_star": report.alpha_star,
        "k_star_analytic": report.K_star_analytic,
        "k_star_discrepancy": report.K_star_discrepancy,
        "probes": [{"k": k, "tag": tag.value} for k, tag in report.K_grid],
        "notes": report.notes,
    }
    failure = f"bisection stopped early: {report.notes}" if report.notes else ""
    return fields, [], failure


def _k_grid(params: ModelParams, args) -> list[float]:
    k_min = positive_finite("the K grid's --k-min", args.k_min)
    k_max = positive_finite("the K grid's --k-max", args.k_max)
    if args.k_count < 1:
        raise DomainError("the K grid needs --k-count >= 1, "
                          f"got {args.k_count}")
    for K in (k_min, k_max):  # alpha is monotone in K: the ends suffice
        alpha_beta_from_k(params, K)
    return np.geomspace(k_min, k_max, args.k_count).tolist()


def _cmd_sweep(params: ModelParams, args):
    grid = _k_grid(params, args)
    reg = regime(params)
    if reg is Regime.SUBCRITICAL:
        report = nonexistence_sweep(params, grid)
        probes = report.K_grid
        notes = report.notes
    else:
        # looked up at call time, so a patched shooting.classify is seen
        probes = tuple(sorted((K, shooting.classify(params, K)) for K in grid))
        notes = ""
    unresolved = [K for K, t in probes if t is OrbitTag.UNRESOLVED]
    if unresolved:
        notes += ("; " if notes else "") + f"unresolved at K={unresolved}"
    fields = {
        "regime": reg.value,
        "all_to_q3": all(t is OrbitTag.TO_Q3 for _, t in probes),
        "probes": [{"k": k, "tag": t.value} for k, t in probes],
        "notes": notes,
    }
    csv = (".csv", {"regime": reg.value}, ["K", "tag"],
           [[k for k, _ in probes], [t.value for _, t in probes]])
    failure = f"sweep has unresolved probes: {notes}" if unresolved else ""
    return fields, [csv], failure


def _cmd_profile(params: ModelParams, args):
    sp = _shooting_from_args(params, args)
    prof = reconstruct(params, sp.K)
    try:
        fit = fit_interface(prof)
    except DomainError as exc:
        # no fit on a reconstructed tail is a numerical failure, not a flag
        raise ReconstructionError(str(exc)) from exc
    meta = {"K": sp.K, "alpha": prof.alpha, "beta": prof.beta, "xi0": prof.xi0}
    fields = {
        "k": sp.K,
        "alpha": prof.alpha,
        "beta": prof.beta,
        "xi0": fit.xi0,
        "interface_exponent": fit.exponent,
        "interface_constant": fit.constant,
        "interface_type": fit.type_label.value,
    }
    return fields, [(".csv", meta, ["xi", "f"], [prof.xi, prof.f])], ""


def _cmd_portrait(params: ModelParams, args):
    sp = _shooting_from_args(params, args)
    # generic starts bracketing the P0 direction, plus below-axis launches
    slope = launch_slope(params)
    starts = [
        (0.5, 2.0 * slope),
        (0.5, 0.5 * slope),
        (1.0, -0.5),
        (2.0, 1.0),
        (2.0, -2.0 * (params.m - 1.0)),
    ]
    runs = [("p0", integrate_from_p0(params, sp.K))] + [
        (f"start{i}", integrate(PhasePoint(X=X0, Y=Y0), params, sp.K))
        for i, (X0, Y0) in enumerate(starts)
    ]
    csvs = [(f"_{name}.csv", {"K": sp.K, "tag": orbit.termination.tag.value},
             ["eta", "X", "Y"], [orbit.eta, orbit.X, orbit.Y])
            for name, orbit in runs]
    return None, csvs, ""


def _cmd_tw(params: ModelParams, args):
    sp = _shooting_from_args(params, args)
    tw = to_traveling_wave(make_solution(reconstruct(params, sp.K)))
    meta = {"K": sp.K, "c": tw.c, "support_edge": tw.support_edge}
    fields = {
        "k": sp.K,
        "c": tw.c,
        "support_edge": tw.support_edge,
        "convection_coefficient": convection_coefficient(params),
        "reaction_coefficient": reaction_coefficient(params),
        # residual convention: c*F' + (F^m)'' + a*(F^m)' + b*F^m + F^p = 0
        # for w(y, tau) = F(y - c*tau)
        "wave_form": "F(y - c*tau)",
    }
    return fields, [(".csv", meta, ["z", "F"], [tw.z_grid, tw.F])], ""


_COMMANDS = {
    "classify": _cmd_classify,
    "find-kstar": _cmd_find_kstar,
    "sweep": _cmd_sweep,
    "profile": _cmd_profile,
    "portrait": _cmd_portrait,
    "tw": _cmd_tw,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        params = ModelParams(m=args.m, p=args.p, N=args.N)
        fields, csvs, failure = _COMMANDS[args.command](params, args)
    except SystemExit:
        return 0  # -h wrote its help; a flag error raises DomainError
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FLAGS
    except (BracketError, ReconstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    meta = _model_meta(params)
    for suffix, extra, names, columns in csvs:
        _write_csv(args.out + suffix, {**meta, **extra}, names, columns)
    if fields is not None:
        doc = {"schema_version": SCHEMA_VERSION, **meta, **fields}
        text = json.dumps(doc, indent=2) + "\n"
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out + ".json", "w", encoding="utf-8") as fh:
                fh.write(text)
    if failure:
        print(failure, file=sys.stderr)
        return EXIT_NUMERICAL
    return 0


if __name__ == "__main__":
    sys.exit(main())
