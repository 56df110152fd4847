"""Benchmark of the selfsim toolkit: one workload per process, one thread.

    python3 bench/run.py --workload kstar --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The library is imported from ``src/`` of
that checkout.  With ``--trace 0`` the run measures the end-to-end metrics
of ``BENCHMARK.json``; with ``--trace 1`` it alternates plain and traced
passes and reports the per-layer metrics, checks that every count repeats
exactly between traced passes, and reports the tracing overhead.
``--workload all`` runs every workload, each in its own process.

A human-readable report comes first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``attempted`` and ``failed`` count answer checks over all
passes.  See ``bench/README.md``.
"""

from __future__ import annotations

import os

# one thread: pin BLAS and OpenMP before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: fresh interpreters whose set-up time is measured
SETUP_REPEATS = 5
#: seconds of one reference set-up (``warmup.py --reference``) on the
#: baseline machine; setup_s is the set-up time in reference set-ups times
#: this, i.e. seconds at that machine's speed
REF_SETUP_S = 0.7
#: units whose values are counts; they must repeat exactly between passes
COUNT_UNITS = {"count", "B"}
#: share of a task's time spent sampling the reference task after it
REF_SHARE = 0.05


def _fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


@dataclass
class PassResult:
    #: wall time of the pass's tasks, seconds
    wall: float = 0.0
    #: the same in reference-task units: each task's time over the mean of
    #: the reference times sampled just before and just after it
    in_refs: float = 0.0
    refs: list = field(default_factory=list)
    checks: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)
    messages: int = 0
    warnings: int = 0
    layers: dict | None = None


def _van_der_pol(t, y):
    x, v = y
    return (v, 5.0 * (1.0 - x * x) * v - x)


def reference() -> float:
    """Wall time of a fixed task that does not use selfsim.

    It integrates a Van der Pol oscillator with LSODA through a Python
    right-hand side, evaluates the dense solution on 20k points and formats
    5k rows as CSV text: the kinds of work the workloads' orbits, profiles
    and CLI output do.  The speed of a shared host drifts by up to 1.6x
    over minutes, and pass times drift with it; in units of this task they
    stay comparable from run to run.
    """
    import numpy as np
    from scipy.integrate import solve_ivp

    t0 = time.perf_counter()
    sol = solve_ivp(_van_der_pol, (0.0, 6.0), [2.0, 0.0], method="LSODA",
                    rtol=1e-9, atol=1e-12, dense_output=True)
    x = np.linspace(0.0, 6.0, 20000)
    y = sol.sol(x)[0]
    "\n".join(f"{a!r},{b!r}" for a, b in zip(x[:5000].tolist(),
                                             y[:5000].tolist()))
    return time.perf_counter() - t0


def sample_reference(budget: float) -> float:
    """Median reference time over as many samples as fit in ``budget``.

    At least one sample and at most five: a long task gets a steadier
    estimate of the host's speed around it, a short one costs little.
    """
    samples = [reference()]
    while (len(samples) < 5
           and (len(samples) + 1) * statistics.median(samples) <= budget):
        samples.append(reference())
    return statistics.median(samples)


def run_pass(tasks, scratch: Path, chatter) -> PassResult:
    """Run a task list once, each task with its output captured."""
    from workloads import Outcome

    res = PassResult(refs=[sample_reference(0.0)])
    m0, w0 = chatter.messages, chatter.warnings
    for task in tasks:
        t0 = time.perf_counter()
        with chatter.capture():
            try:
                outcome = task.run(scratch)
            except Exception:  # a task that raises fails its checks; go on
                outcome = Outcome()
                tb = traceback.format_exc().strip()
                for _ in range(task.n_checks):
                    outcome.check(task.label, False, f"raised: {tb}")
        dt = time.perf_counter() - t0
        res.refs.append(sample_reference(REF_SHARE * dt))
        res.wall += dt
        res.in_refs += dt / (0.5 * (res.refs[-2] + res.refs[-1]))
        res.checks.extend(outcome.checks)
        for name, value in outcome.errors.items():
            res.errors[name] = max(res.errors.get(name, 0.0), value)
    res.messages = chatter.messages - m0
    res.warnings = chatter.warnings - w0
    return res


def _set_up_time(arg: str) -> float:
    """Seconds that ``warmup.py <arg>`` takes in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "warmup.py"), arg],
        capture_output=True, text=True, timeout=60, check=False,
    )
    if proc.returncode != 0:
        _fail(f"set-up failed:\n{proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def measure_setup() -> tuple[list[float], list[float]]:
    """Set-up times of fresh interpreters, and reference set-up times.

    The two alternate, a reference first and last, so that every set-up
    has a reference set-up just before and just after it.
    """
    refs = [_set_up_time("--reference")]
    setups = []
    for _ in range(SETUP_REPEATS):
        setups.append(_set_up_time(str(SRC)))
        refs.append(_set_up_time("--reference"))
    return setups, refs


def setup_in_seconds(setups: list[float], refs: list[float]) -> float:
    """``setup_s``: median set-up time in reference set-ups, in seconds.

    Each set-up is divided by the mean of the reference set-ups just before
    and just after it; ``REF_SETUP_S`` turns the median ratio into seconds.
    """
    return REF_SETUP_S * statistics.median(
        s / (0.5 * (a + b)) for s, a, b in zip(setups, refs, refs[1:]))


def measure(args, tasks, scratch, chatter):
    """Passes for ``args.seconds``; with tracing, plain and traced in turn.

    A traced run makes at least two traced passes, whose counts must agree.
    """
    from spans import Tracer

    plain, traced = [], []
    tracer = Tracer(chatter)
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(run_pass(tasks, scratch, chatter))
        if args.trace:
            with tracer.installed():
                traced.append(run_pass(tasks, scratch, chatter))
            traced[-1].layers = tracer.metrics()
        now = time.perf_counter()
        # stop once another round as long as the last one would overrun
        if (len(traced) >= 2 * args.trace
                and now - start + (now - t0) > args.seconds):
            return plain, traced


def layer_report(spec, plain, traced) -> tuple[dict, list[str]]:
    """Per-layer values and the counts that differ between traced passes."""
    first = traced[0].layers
    values = {"trace.overhead_ref":
              statistics.median(r.in_refs for r in traced)
              - statistics.median(r.in_refs for r in plain)}
    unsteady = []
    for m in spec["per_layer"]:
        name = m["name"]
        if name in values:
            continue
        if name not in first:
            raise KeyError(f"per-layer metric {name} was not measured")
        if m["unit"] in COUNT_UNITS:
            values[name] = int(round(first[name]))
            unsteady += [f"{name}: {first[name]} != {r.layers[name]}"
                         for r in traced[1:] if r.layers[name] != first[name]]
        else:
            values[name] = statistics.median(r.layers[name] for r in traced)
    return values, unsteady


def run_workload(args, spec) -> int:
    sys.path.insert(0, str(SRC))
    import selfsim

    if Path(selfsim.__file__).resolve().parent != SRC / "selfsim":
        _fail(f"imported selfsim from {selfsim.__file__}, not from {SRC}")
    from chatter import Chatter
    from warmup import warm_up
    from workloads import ACCURACY, KNOWN_FAILURES, WORKLOADS

    setups, setup_refs = ([], []) if args.trace else measure_setup()
    warm_up()
    tasks = WORKLOADS[args.workload](args.seed)

    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=build))
    chatter = Chatter(scratch / "chatter.log")
    try:
        if not chatter.self_check():
            _fail("the chatter capture missed a warning or a message")
        plain, traced = measure(args, tasks, scratch, chatter)
    finally:
        chatter.close()
        shutil.rmtree(scratch, ignore_errors=True)

    passes = plain + traced
    checks = [c for r in passes for c in r.checks]
    attempted = len(checks)
    failed = sum(1 for _, ok, _, _ in checks if not ok)
    unexpected = sorted({f"{lab}: {det}" for lab, ok, known, det in checks
                         if not ok and not known})
    known = sorted({f"{lab}: {det}" for lab, ok, known, det in checks
                    if known})
    fixed = sorted(KNOWN_FAILURES.keys()
                   & {lab for lab, ok, _, _ in checks if ok})
    errors = plain[-1].errors
    correct = not unexpected and all(math.isfinite(v) for v in errors.values())

    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
             f"  passes {len(plain)} plain + {len(traced)} traced"]
    walls = [r.wall for r in plain]
    metrics = {}
    if args.trace:
        values, unsteady = layer_report(spec, plain, traced)
        correct = correct and not unsteady
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = {n: {"value": v, "unit": units[n]} for n, v in values.items()}
        lines += [f"pass wall times: plain {[round(r.wall, 3) for r in plain]}"
                  f" s, traced {[round(r.wall, 3) for r in traced]} s",
                  f"in reference units: plain "
                  f"{[round(r.in_refs, 2) for r in plain]}, traced "
                  f"{[round(r.in_refs, 2) for r in traced]}"]
        lines += [f"counts repeat between traced passes: {not unsteady}"]
        lines += [f"  count differs: {u}" for u in unsteady]
    else:
        values = {
            "wall_ref": statistics.median(r.in_refs for r in plain),
            "setup_s": setup_in_seconds(setups, setup_refs),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "pass_frac": 1.0 - failed / attempted,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        metrics = {n: {"value": values[n], "unit": units[n]} for n in units}
        refs = [x for r in plain for x in r.refs]
        lines += [f"pass wall times: {[round(w, 3) for w in walls]} s, "
                  f"median wall_s {statistics.median(walls)!r} s",
                  f"reference task: median {statistics.median(refs)!r} s "
                  f"over {len(refs)} samples",
                  f"set-up times: {[round(s, 3) for s in setups]} s, "
                  f"reference set-ups: {[round(r, 3) for r in setup_refs]} s"]
    for name, m in metrics.items():
        lines.append(f"  {name:32s} {m['value']!r} {m['unit']}")
    lines.append(f"  {'fail_frac':32s} {failed / attempted!r} frac "
                 f"({failed} of {attempted} checks)")
    for name in ACCURACY[args.workload]:
        lines.append(f"  {name:32s} {errors.get(name, math.nan)!r} 1")
    lines.append(f"chatter: {sum(r.messages for r in passes)} messages, "
                 f"{sum(r.warnings for r in passes)} Python warnings")
    lines += [f"known failure: {k}" for k in known]
    lines += [f"known failure now passes: {k}" for k in fixed]
    lines += [f"UNEXPECTED FAILURE: {u}" for u in unexpected]
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}, allow_nan=False))
    return 0


def run_child(workload: str, seed: int, seconds: float,
              trace: int) -> tuple[str, dict]:
    """Run one workload in its own process; its report and its result."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        _fail(f"workload {workload} seed {seed} exited with {proc.returncode}")
    return proc.stdout, json.loads(proc.stdout.splitlines()[-1])


def run_all(args, spec) -> int:
    """Every workload in its own process; the summary prefixes metric names."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        report, result = run_child(w["name"], args.seed, args.seconds,
                                   args.trace)
        sys.stdout.write(report)
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            summary["metrics"][f"{w['name']}.{name}"] = m
    print(json.dumps(summary, allow_nan=False))
    return 0


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "selfsim" / "__init__.py").is_file():
        _fail(f"no selfsim package under {SRC}; run from a selfsim checkout")
    if args.workload == "all":
        return run_all(args, spec)
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
