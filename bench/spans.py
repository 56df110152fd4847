"""Per-layer spans and counts, recorded from outside the package.

Each public entry point on a workload's path is wrapped in the namespace of
the module that calls it: ``shooting`` calls ``integrate_from_p0`` and
``classify`` through its own globals, ``solution`` calls ``evaluate_f``
through its own, the CLI calls the library names it imported, and the
benchmark calls the rest through the module objects.  The ``solve_ivp``
name that ``integrator`` and ``profile`` call is wrapped too, which gives
nfev, njev, steps and the time of each solver phase.  Nothing under
``src/`` changes; the wrappers are installed for a traced pass and removed
after it.

A span records its name, start, end and the spans it caused.  A layer's
self time is its spans' durations minus the part their child spans cover.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from contextlib import contextmanager
from glob import glob
from os.path import getsize

from selfsim import cli, integrator, profile, shooting, solution
from selfsim.integrator import OrbitTag


class Span:
    __slots__ = ("name", "start", "end", "children", "attrs")

    def __init__(self, name: str) -> None:
        self.name = name
        self.start = self.end = 0.0
        self.children: list[Span] = []
        self.attrs: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def add(self, key: str, n: float) -> None:
        self.attrs[key] = self.attrs.get(key, 0) + n


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _solver(sp, args, kwargs, sol) -> None:
    sp.attrs.update(nfev=sol.nfev, njev=sol.njev, steps=len(sol.t) - 1)


def _orbit(sp, args, kwargs, orbit) -> None:
    sp.attrs.update(samples=len(orbit.eta), tag=orbit.termination.tag)


def _classify(sp, args, kwargs, tag) -> None:
    sp.attrs.update(K=_arg(args, kwargs, 1, "K"), tag=tag)


def _reconstruct(sp, args, kwargs, prof) -> None:
    sp.attrs["samples"] = len(prof.xi)


def _cli_main(sp, args, kwargs, code) -> None:
    argv = list(_arg(args, kwargs, 0, "argv"))
    if "--out" in argv:
        prefix = argv[argv.index("--out") + 1]
        sp.attrs["bytes"] = sum(getsize(p) for p in glob(prefix + "*"))


#: (module, name, span, describe, poll chatter at exit)
TARGETS = [
    (shooting, "integrate_from_p0", "integrator.orbit", _orbit, False),
    (integrator, "solve_ivp", "integrator.solve_ivp", _solver, True),
    (shooting, "classify", "shooting.classify", _classify, False),
    (shooting, "find_k_star", "shooting.find_k_star", None, False),
    (cli, "nonexistence_sweep", "shooting.nonexistence_sweep", None, False),
    (profile, "reconstruct", "profile.reconstruct", _reconstruct, False),
    (cli, "reconstruct", "profile.reconstruct", _reconstruct, False),
    (profile, "solve_ivp", "profile.solve_ivp", _solver, True),
    (profile, "fit_interface", "profile.fit_interface", None, False),
    (cli, "fit_interface", "profile.fit_interface", None, False),
    (profile, "ode_residual", "profile.ode_residual", None, False),
    (solution, "evaluate_f", "profile.evaluate_f", None, False),
    (solution, "pde_residual", "solution.pde_residual", None, False),
    (solution, "mass_growth_rate", "solution.mass_growth_rate", None, False),
    (solution, "to_traveling_wave", "solution.to_traveling_wave", None, False),
    (solution, "tw_residual", "solution.tw_residual", None, False),
    (solution, "tw_residual_scale", "solution.tw_residual", None, False),
    (cli, "main", "cli.main", _cli_main, True),
]

LAYERS = ("integrator", "shooting", "profile", "solution", "cli")
#: sums that the walk over a pass's spans accumulates
SUMS = (
    "integrator.samples", "integrator.unresolved",
    "integrator.xy.nfev", "integrator.xy.steps", "integrator.xy.s",
    "integrator.slope.nfev", "integrator.slope.njev",
    "integrator.slope.steps", "integrator.slope.s",
    "shooting.retry_orbits", "shooting.retry_s",
    "profile.samples", "profile.fallbacks",
    "profile.reconstruct.nfev", "profile.reconstruct.steps",
    "cli.bytes_written",
) + tuple(f"{layer}.warnings" for layer in LAYERS)


class Tracer:
    """Keeps the spans of one pass in memory."""

    def __init__(self, chatter) -> None:
        self.chatter = chatter
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    def _wrap(self, name, fn, describe, poll):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sp = Span(name)
            (stack[-1].children if stack else self.roots).append(sp)
            stack.append(sp)
            sp.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                sp.end = clock()
                stack.pop()
                if poll:
                    sp.add("warnings", self.chatter.poll())
            if describe is not None:
                describe(sp, args, kwargs, result)
            return result

        return traced

    def _on_warning(self) -> None:
        if self._stack:
            self._stack[-1].add("warnings", 1)

    @contextmanager
    def installed(self):
        """Patch every target for the duration of one traced pass."""
        self.roots = []
        saved = []
        try:
            for module, attr, name, describe, poll in TARGETS:
                orig = getattr(module, attr)
                saved.append((module, attr, orig))
                setattr(module, attr, self._wrap(name, orig, describe, poll))
            self.chatter.on_warning = self._on_warning
            yield self
        finally:
            self.chatter.on_warning = None
            for module, attr, orig in reversed(saved):
                setattr(module, attr, orig)

    def metrics(self) -> dict[str, float]:
        return layer_metrics(self.roots)


def _walk(spans):
    todo = list(spans)
    while todo:
        sp = todo.pop()
        todo.extend(sp.children)
        yield sp


def _bracket_bits(probes) -> tuple[float, int]:
    """Bits gained and probes spent once a (Q1, Q3) bracket first existed.

    ``probes`` are one K* search's classify spans in call order.  The bits
    are log2 of how much the bracket width in ln K narrowed.
    """
    lo, hi = -math.inf, math.inf
    width0 = None
    n = 0
    for sp in probes:
        if width0 is not None:
            n += 1
        K, tag = sp.attrs["K"], sp.attrs["tag"]
        if tag is OrbitTag.TO_Q1:
            lo = max(lo, K)
        elif tag is OrbitTag.TO_Q3:
            hi = min(hi, K)
        if width0 is None and hi < math.inf and lo > -math.inf:
            width0 = math.log(hi / lo)
    if width0 is None or not hi > lo:
        return 0.0, n
    return math.log2(width0 / math.log(hi / lo)), n


def layer_metrics(roots: list[Span]) -> dict[str, float]:
    """Per-layer counts and times of one traced pass."""
    total = defaultdict(float)
    own = defaultdict(float)
    count = defaultdict(int)
    v = dict.fromkeys(SUMS, 0.0)
    bits, bisect_probes, first_try = 0.0, 0, 0
    for sp in _walk(roots):
        d = sp.duration
        count[sp.name] += 1
        total[sp.name] += d
        own[sp.name] += d - sum(c.duration for c in sp.children)
        v[sp.name.split(".")[0] + ".warnings"] += sp.attrs.get("warnings", 0)
        kids = sp.children
        if sp.name == "integrator.orbit":
            v["integrator.samples"] += sp.attrs.get("samples", 0)
            v["integrator.unresolved"] += sp.attrs.get("tag") is OrbitTag.UNRESOLVED
            solvers = [c for c in kids if c.name == "integrator.solve_ivp"]
            for i, c in enumerate(solvers):
                phase = "xy" if i == 0 else "slope"
                v[f"integrator.{phase}.nfev"] += c.attrs.get("nfev", 0)
                v[f"integrator.{phase}.steps"] += c.attrs.get("steps", 0)
                v[f"integrator.{phase}.s"] += c.duration
                if phase == "slope":
                    v["integrator.slope.njev"] += c.attrs.get("njev", 0)
        elif sp.name == "shooting.classify":
            orbits = [c for c in kids if c.name == "integrator.orbit"]
            v["shooting.retry_orbits"] += max(0, len(orbits) - 1)
            v["shooting.retry_s"] += sum(c.duration for c in orbits[1:])
            if orbits and orbits[0].attrs.get("tag") is not OrbitTag.UNRESOLVED:
                first_try += 1
        elif sp.name == "shooting.find_k_star":
            b, n = _bracket_bits([c for c in kids if c.name == "shooting.classify"])
            bits += b
            bisect_probes += n
        elif sp.name == "profile.reconstruct":
            v["profile.samples"] += sp.attrs.get("samples", 0)
            solvers = [c for c in kids if c.name == "profile.solve_ivp"]
            v["profile.fallbacks"] += max(0, len(solvers) - 1)
            for c in solvers:
                v["profile.reconstruct.nfev"] += c.attrs.get("nfev", 0)
                v["profile.reconstruct.steps"] += c.attrs.get("steps", 0)
        elif sp.name == "cli.main":
            v["cli.bytes_written"] += sp.attrs.get("bytes", 0)

    probes = count["shooting.classify"]
    xy_nfev = v["integrator.xy.nfev"]
    v.update({
        "integrator.orbits": count["integrator.orbit"],
        "integrator.orbit_s": total["integrator.orbit"],
        "integrator.self_s": own["integrator.orbit"],
        "integrator.xy.us_per_fev":
            1e6 * v["integrator.xy.s"] / xy_nfev if xy_nfev else 0.0,
        "shooting.probes": probes,
        "shooting.classify_s": total["shooting.classify"],
        "shooting.first_try_ratio": first_try / probes if probes else 0.0,
        "shooting.bits_per_probe": bits / bisect_probes if bisect_probes else 0.0,
        "shooting.self_s": sum(own[n] for n in own if n.startswith("shooting.")),
        "profile.reconstruct_s": total["profile.reconstruct"],
        "profile.fit_interface_s": total["profile.fit_interface"],
        "profile.ode_residual_s": total["profile.ode_residual"],
        "profile.evaluate_f_calls": count["profile.evaluate_f"],
        "profile.evaluate_f_s": total["profile.evaluate_f"],
        "solution.pde_residual_s": total["solution.pde_residual"],
        "solution.mass_growth_rate_s": total["solution.mass_growth_rate"],
        "solution.to_traveling_wave_s": total["solution.to_traveling_wave"],
        "solution.tw_residual_s": total["solution.tw_residual"],
        "cli.main_s": total["cli.main"],
        "cli.self_s": own["cli.main"],
    })
    return v
