import json
import math
import re
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import SUPER, alarm

from selfsim import cli
from selfsim.integrator import OrbitEnd, OrbitTag, integrate_from_p0
from selfsim.params import DomainError, ModelParams, Regime
from selfsim.shooting import BracketError, ClassificationReport


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


#: the CLI's contract, one row per pinned run: its argv, its exit code, a
#: pattern its one stderr line matches in full (None: stderr is empty) and
#: the files it writes under the prefix x.  A new CLI regression pin is one
#: more row
CONTRACT = [
    # the X-Y phase once took 6.2M evaluations here
    ("classify --m 7 --p 0.5 --N 3 --K 0.01", 0, None, []),
    # the trap holds from the launch; tested only past X_BIG, it once took
    # 21.1M X-Y evaluations to reach
    ("classify --m 1e5 --p 0.5 --N 3 --K 1", 0, None, []),
    # q rounds to 1, and the stop below the Q4 ray once divided by q - 1 = 0
    ("classify --m 1e16 --p 0.5 --N 3 --K 1", 0, None, []),
    # the probes ride the Q4 ray, which repels at only 1/(m-1); they once
    # met no stop by the ln X cap and the bisection stopped early, exit 3
    ("find-kstar --m 50 --p 0.5 --N 3", 0, None, []),
    # K* is about N*m; the upper search once gave up at K = 1e6, exit 3.  It
    # now runs over every K with an alpha, and at m = 1e300 K* has none
    ("find-kstar --m 1e5 --p 0.5 --N 3", 0, None, []),
    ("find-kstar --m 1e300 --p 0.5 --N 3", 3,
     r"error: no Q3-connection found below K=134217728\.0", []),
    ("find-kstar --m 2 --p 0.5 --N 4 --tol-k 0", 2,
     r"error: tol_K must be positive and finite, got 0\.0", []),
    ("find-kstar --m 1.2 --p 0.5 --N 3", 2,
     r"error: no transition exists for m \+ p < 2", []),
    ("sweep --m 1.2 --p 0.5 --N 3 --out x", 0, None, ["x.csv", "x.json"]),
    # reconstruct once crawled here for minutes
    ("profile --m 5 --p 0.75 --N 1 --K 1.8713153960118027 --out x", 0, None,
     ["x.csv", "x.json"]),
    # the bulk's first step is lost to rounding; f falling to 0 within one
    # step once escaped main as a ValueError from brentq, exit 1
    ("profile --m 2 --p 0.5 --N 4 --K 1e300 --out x", 3,
     r"error: bulk run at K = 1e\+300 failed .*", []),
    # c xi^2 leaves the float range during the tail; it once stepped on to
    # "slope chart tail failed at ln X = 46.8 (nonfinite state)"
    ("profile --m 3 --p 0.9 --N 3 --K 0.001 --out x", 3,
     r"error: interface at K = 0\.001 lies past the float range .*", []),
    # near m = 1 the old xi-form field once raised a raw OverflowError; at
    # m = 1e6 numpy's powers warned; m = 1e155 once did not return within
    # 60 s, and m = 1e8 wrote lsoda's UserWarning as a second stderr line
    ("profile --m 1.001 --p 0.999 --N 1 --K 1 --out x", 3,
     r"error: .*K = 1 .*", []),
    ("profile --m 1e6 --p 0.5 --N 3 --K 0.1 --out x", 3,
     r"error: .*K = 0\.1 .*", []),
    ("profile --m 1e155 --p 0.5 --N 3 --K 1 --out x", 3,
     r"error: .*K = 1 .*", []),
    ("profile --m 1e8 --p 0.5 --N 3 --K 1 --out x", 3,
     r"error: .*K = 1 .*", []),
    # large-m tails that leave the float range; the message once named no K
    ("profile --m 1e6 --p 0.5 --N 3 --K 1 --out x", 3,
     r"error: slope chart tail at K = 1 failed at .*", []),
    ("profile --m 1e10 --p 0.5 --N 3 --K 0.1 --out x", 3,
     r"error: slope chart tail at K = 0\.1 failed at .*", []),
    ("profile --m 1e12 --p 0.5 --N 3 --K 1 --out x", 3,
     r"error: slope chart tail at K = 1 failed at .*", []),
    # the profile is finite here but F is not; this once wrote 649 inf
    # values of F with numpy's overflow warning, and exited 0
    ("tw --m 1.01 --p 0.99 --N 3 --K 6.25e-6 --out x", 3,
     r"error: traveling wave at alpha = 803\.99 lies past the float range "
     r"\(F overflows\)", []),
    # f = (...)^(1/(m-1)) passes the float range; this once wrote inf (and
    # for tw nan) samples and numpy's overflow warnings, and exited 0
    ("profile --m 1.0002 --p 0.9998 --N 3 --K 1e-8 --out x", 3,
     r"error: profile at K = 1e-08 lies past the float range \(f overflows\)",
     []),
    ("tw --m 1.0002 --p 0.9998 --N 3 --K 1e-8 --out x", 3,
     r"error: profile at K = 1e-08 lies past the float range \(f overflows\)",
     []),
    # the interface lies past the float range; this once escaped main as an
    # OverflowError, or wrote overflow warnings to stderr
    ("profile --m 3 --p 0.5 --N 3 --K 0.001 --out x", 3,
     r"error: interface at K = 0\.001 lies past the float range .*", []),
    ("profile --m 5 --p 0.9 --N 3 --K 0.01 --out x", 3,
     r"error: interface at K = 0\.01 lies past the float range .*", []),
    ("profile --m 1.5 --p 0.9 --N 1 --K 0.001 --out x", 3,
     r"error: interface at K = 0\.001 lies past the float range .*", []),
    ("profile --m 2 --p 0.5 --N 4 --K 0.0001 --out x", 3,
     r"error: interface at K = 0\.0001 lies past the float range .*", []),
    # q = (m-p)/(m-1) passes 2500 here, and K X^q in a stage of the X-Y
    # phase once escaped main as an OverflowError
    ("portrait --m 1.0001 --p 0.5 --N 3 --K 1 --out x", 0, None,
     ["x_p0.csv"] + [f"x_start{i}.csv" for i in range(5)]),
    # flag errors: argparse's and those main finds before any solve; -h
    # alone prints usage
    ("-h", 0, None, []),
    ("classify -h", 0, None, []),
    ("", 2, r"error: the following arguments are required: command", []),
    ("nosuch", 2, r"error: argument command: invalid choice: 'nosuch' .*", []),
    ("classify --m x --p 0.5 --N 4 --K 1", 2,
     r"error: argument --m: invalid float value: 'x'", []),
    ("classify --m 2 --p 0.5 --N 4", 2,
     r"error: one of the arguments --K --alpha is required", []),
    ("classify --m 2 --p 0.5 --N 4 --K 0.1 --alpha 4", 2,
     r"error: argument --alpha: not allowed with argument --K", []),
    ("sweep --m 2 --p 0.5 --N 4 --k-count 3", 2,
     r"error: the following arguments are required: --out", []),
    ("profile --m 2 --p 0.5 --N 4 --K 0.5", 2,
     r"error: the following arguments are required: --out", []),
    ("portrait --m 2 --p 0.5 --N 4 --K 0.1", 2,
     r"error: the following arguments are required: --out", []),
    ("tw --m 2 --p 0.5 --N 4 --K 0.5", 2,
     r"error: the following arguments are required: --out", []),
    # the tolerances are fixed, and sigma is derived from m and p: its flag
    # let NaN through
    ("classify --m 2 --p 0.5 --N 4 --K 1 --rel-tol 1e-12", 2,
     r"error: unrecognized arguments: --rel-tol 1e-12", []),
    ("classify --m 2 --p 0.5 --N 4 --K 1 --abs-tol 1e-14", 2,
     r"error: unrecognized arguments: --abs-tol 1e-14", []),
    ("classify --m 2 --p 0.5 --N 4 --K 1 --sigma nan", 2,
     r"error: unrecognized arguments: --sigma nan", []),
    # sigma's flag is refused whatever its value: at the derived value and
    # at one that does not match it
    ("classify --m 2 --p 0.5 --N 4 --K 1 --sigma 1.0", 2,
     r"error: unrecognized arguments: --sigma 1\.0", []),
    ("classify --m 2 --p 0.5 --N 4 --K 0.1 --sigma 0.3", 2,
     r"error: unrecognized arguments: --sigma 0\.3", []),
    ("sweep --m 2 --p 0.5 --N 4 --k-min 0 --out x", 2,
     r"error: the K grid's --k-min must be positive and finite, got 0\.0", []),
    ("sweep --m 2 --p 0.5 --N 4 --k-max -1 --out x", 2,
     r"error: the K grid's --k-max must be positive and finite, got -1\.0",
     []),
    ("sweep --m 2 --p 0.5 --N 4 --k-max inf --out x", 2,
     r"error: the K grid's --k-max must be positive and finite, got inf", []),
    ("sweep --m 2 --p 0.5 --N 4 --k-count -3 --out x", 2,
     r"error: the K grid needs --k-count >= 1, got -3", []),
    ("sweep --m 2 --p 0.5 --N 4 --k-count 0 --out x", 2,
     r"error: the K grid needs --k-count >= 1, got 0", []),
    # K (m-1) of the launch overflows at --k-max; the sweep once shot its
    # orbits and then failed with "Y must be finite, got -inf"
    ("sweep --m 1e300 --p 0.5 --N 3 --k-min 1 --k-max 1e10 --k-count 3 "
     "--out x", 2,
     r"error: K = 10000000000\.0 maps to alpha = 0\.0 at m = 1e\+300, past "
     r"the float range", []),
    # a parameter is rejected by name where it enters; an exception escaping
    # main here would be a traceback at the console
    ("profile --m 2 --p 0.5 --N 4 --K inf --out x", 2,
     r"error: K must be positive and finite, got inf", []),
    ("tw --m 2 --p 0.5 --N 4 --K inf --out x", 2,
     r"error: K must be positive and finite, got inf", []),
    ("classify --m 2 --p 0.5 --N 4 --K inf --out x", 2,
     r"error: K must be positive and finite, got inf", []),
    ("classify --m 2 --p 0.5 --N 4 --alpha inf --out x", 2,
     r"error: alpha must be positive and finite, got inf", []),
    ("classify --m inf --p 0.5 --N 4 --K 1 --out x", 2,
     r"error: m must be finite and > 1, got inf", []),
    ("profile --m 2 --p 0.5 --N 4 --K 1e308 --out x", 2,
     r"error: K = 1e\+308 maps to alpha = 0\.0 at m = 2\.0, past the float "
     r"range", []),
    ("classify --m 100 --p 0.5 --N 4 --K 5e-324 --out x", 2,
     r"error: K = 5e-324 maps to alpha = inf at m = 100\.0, past the float "
     r"range", []),
    ("classify --m 2 --p 0.5 --N 4 --alpha 1e-300 --out x", 2,
     r"error: alpha = 1e-300 maps to K = inf at m = 2\.0, past the float "
     r"range", []),
]


@pytest.mark.parametrize(
    "argv, code, err, files", CONTRACT,
    ids=[row[0].replace(" --", ",").replace(" ", "=") or "no-command"
         for row in CONTRACT])
def test_cli_contract(tmp_path, capsys, monkeypatch, argv, code, err, files):
    # in-process, warnings as errors, with an alarm in place of a timeout;
    # a flag error is found before any orbit is shot or profile rebuilt
    monkeypatch.chdir(tmp_path)
    if code == cli.EXIT_FLAGS:
        def no_solve(*args, **kwargs):
            raise AssertionError(f"{argv!r} solved before its flag error")

        for name in ("cli.integrate_from_p0", "cli.integrate",
                     "cli.reconstruct", "shooting.integrate_from_p0"):
            monkeypatch.setattr("selfsim." + name, no_solve)
    with alarm(60):
        assert cli.main(argv.split()) == code
    stdout, stderr = capsys.readouterr()
    if code == cli.EXIT_FLAGS:
        assert stdout == ""
    if err is None:
        assert stderr == ""
    else:
        assert re.fullmatch(err + "\n", stderr), stderr
    assert sorted(f.name for f in tmp_path.iterdir()) == files


def test_classify_stdout(capsys):
    code, out, _ = run(capsys, "classify", "--m", "2", "--p", "0.5",
                       "--N", "4", "--K", "0.1")
    assert code == 0
    doc = json.loads(out)
    assert doc["tag"] == "ToQ1"
    assert doc["schema_version"] == 1
    assert doc["sigma"] == 1.0


def test_classify_accepts_alpha(capsys):
    code, out, _ = run(capsys, "classify", "--m", "2", "--p", "0.5",
                       "--N", "4", "--alpha", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] == pytest.approx(0.5)


def test_classify_deterministic(capsys):
    args = ("classify", "--m", "2", "--p", "0.5", "--N", "4", "--K", "8")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2
    assert json.loads(out1)["tag"] == "ToQ3"


def test_classify_shoots_one_orbit(capsys, monkeypatch):
    # an unresolved orbit is reported as it is, with its reason: no retry
    calls = []

    def unresolved(params, K):
        calls.append(K)
        orbit = integrate_from_p0(params, K)
        end = OrbitEnd(OrbitTag.UNRESOLVED, math.nan, "no stop fired")
        return replace(orbit, termination=end)

    monkeypatch.setattr(cli, "integrate_from_p0", unresolved)
    code, out, err = run(capsys, "classify", "--m", "2", "--p", "0.5",
                         "--N", "4", "--K", "8")
    assert code == 3
    doc = json.loads(out)
    assert doc["tag"] == "Unresolved"
    assert doc["diagnostics"] == "no stop fired"
    assert "unresolved" in err
    assert calls == [8.0]


def test_find_kstar_json(capsys):
    code, out, _ = run(capsys, "find-kstar", "--m", "1.5", "--p", "0.5",
                       "--N", "3", "--tol-k", "1e-4")
    assert code == 0
    doc = json.loads(out)
    assert doc["k_star"] == pytest.approx(0.0625, rel=1e-3)
    assert doc["alpha_star"] == pytest.approx(9.79796, rel=1e-3)
    assert doc["regime"] == "critical"


def test_sweep_files(tmp_path, capsys):
    prefix = str(tmp_path / "sw")
    code, _, _ = run(capsys, "sweep", "--m", "1.2", "--p", "0.5", "--N", "3",
                     "--k-count", "5", "--out", prefix)
    assert code == 0
    doc = json.loads((tmp_path / "sw.json").read_text())
    assert doc["regime"] == "subcritical"
    assert doc["all_to_q3"] is True
    assert (tmp_path / "sw.csv").read_text() == (
        "# m = 1.2\n"
        "# p = 0.5\n"
        "# N = 3\n"
        "# sigma = 5.000000000000001\n"
        "# regime = subcritical\n"
        "K,tag\n"
        "0.001,ToQ3\n"
        "0.03162277660168379,ToQ3\n"
        "1.0,ToQ3\n"
        "31.622776601683793,ToQ3\n"
        "1000.0,ToQ3\n"
    )


def test_sweep_tags_both_sides_of_k_star(tmp_path, capsys):
    # K* = 2.5488157 at (2, 1/2, 4): the five K below it end ToQ1, the four
    # above it ToQ3
    code, _, _ = run(capsys, "sweep", "--m", "2", "--p", "0.5", "--N", "4",
                     "--k-min", "0.01", "--k-max", "100", "--k-count", "9",
                     "--out", str(tmp_path / "sw"))
    assert code == 0
    probes = json.loads((tmp_path / "sw.json").read_text())["probes"]
    assert [p["tag"] for p in probes] == ["ToQ1"] * 5 + ["ToQ3"] * 4
    assert probes[4]["k"] < 2.5488 < probes[5]["k"]


@pytest.mark.parametrize("m", [2.0, 1.2])
def test_sweep_unresolved_exit_code(tmp_path, capsys, monkeypatch, m):
    # both regimes write their files, name the unresolved K's and exit 3
    def classify(params, K):
        return OrbitTag.UNRESOLVED if K > 0.5 else OrbitTag.TO_Q3

    monkeypatch.setattr("selfsim.shooting.classify", classify)
    prefix = str(tmp_path / "sw")
    code, _, err = run(capsys, "sweep", "--m", str(m), "--p", "0.5", "--N",
                       "3", "--k-min", "0.1", "--k-max", "10", "--k-count",
                       "3", "--out", prefix)
    assert code == 3
    doc = json.loads((tmp_path / "sw.json").read_text())
    assert doc["notes"].endswith("unresolved at K=[1.0, 10.0]")
    assert [p["tag"] for p in doc["probes"]] == ["ToQ3", "Unresolved",
                                                  "Unresolved"]
    assert (tmp_path / "sw.csv").read_text().endswith("10.0,Unresolved\n")
    assert "unresolved" in err


@pytest.mark.parametrize("argv", [
    ("classify", "--m", "2", "--p", "0.5", "--N", "4", "--K", "8"),
    ("find-kstar", "--m", "1.5", "--p", "0.5", "--N", "3", "--tol-k", "1e-4"),
], ids=["classify", "find-kstar"])
def test_out_is_a_prefix(tmp_path, capsys, argv):
    # the JSON that goes to stdout without --out goes to <out>.json with it
    _, stdout_doc, _ = run(capsys, *argv)
    code, out, _ = run(capsys, *argv, "--out", str(tmp_path / "P"))
    assert code == 0
    assert out == ""
    assert sorted(f.name for f in tmp_path.iterdir()) == ["P.json"]
    assert (tmp_path / "P.json").read_text() == stdout_doc


def test_sweep_grid_is_python_floats():
    args = SimpleNamespace(k_min=0.01, k_max=100.0, k_count=5)
    assert [type(k) for k in cli._k_grid(SUPER, args)] == [float] * 5


def test_profile_files(tmp_path, capsys):
    prefix = str(tmp_path / "prof")
    code, _, _ = run(capsys, "profile", "--m", "2", "--p", "0.5", "--N", "4",
                     "--K", "0.5", "--out", prefix)
    assert code == 0
    doc = json.loads((tmp_path / "prof.json").read_text())
    assert doc["interface_type"] == "TypeII"
    lines = (tmp_path / "prof.csv").read_text().splitlines()
    head = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    assert any(line.startswith("# xi0 = ") for line in lines[:head])
    assert lines[head] == "xi,f"
    # the writer formats its rows a block at a time
    rows = np.loadtxt(lines[head + 1:], delimiter=",", ndmin=2)
    assert rows.shape[0] > 0 and rows.shape[1] == 2
    assert np.isfinite(rows).all()


@pytest.mark.parametrize("rows", [0, 1, cli.CSV_BLOCK, 2 * cli.CSV_BLOCK + 3])
def test_write_csv_matches_the_row_by_row_text(tmp_path, rows):
    # reference: one row at a time, every float cell as repr(float(v))
    rng = np.random.default_rng(rows)
    xs = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    ys = rng.random(rows)
    ys[-1:] = np.inf
    tags = [f"t{i}" for i in range(rows)]
    meta = {"m": 2.0, "tag": "ToQ1"}
    expected = "# m = 2.0\n# tag = ToQ1\nx,y,tag\n" + "".join(
        f"{float(x)!r},{float(y)!r},{t}\n" for x, y, t in zip(xs, ys, tags))
    cli._write_csv(str(tmp_path / "t.csv"), meta, ["x", "y", "tag"],
                   [xs, list(ys), tags])
    assert (tmp_path / "t.csv").read_bytes() == expected.encode()


def test_tw_files(tmp_path, capsys):
    prefix = str(tmp_path / "tw")
    code, _, _ = run(capsys, "tw", "--m", "2", "--p", "0.5", "--N", "4",
                     "--K", "0.5", "--out", prefix)
    assert code == 0
    doc = json.loads((tmp_path / "tw.json").read_text())
    assert doc["c"] == pytest.approx(2.0)
    assert doc["convection_coefficient"] == pytest.approx(10.0)
    assert doc["reaction_coefficient"] == pytest.approx(24.0)
    assert (tmp_path / "tw.csv").read_text().splitlines().count("z,F") == 1


def test_portrait_files(tmp_path, capsys):
    prefix = str(tmp_path / "por")
    code, _, _ = run(capsys, "portrait", "--m", "2", "--p", "0.5", "--N", "4",
                     "--K", "0.1", "--out", prefix)
    assert code == 0
    files = sorted(tmp_path.iterdir())
    assert [f.name for f in files] == ["por_p0.csv"] + [
        f"por_start{i}.csv" for i in range(5)]
    assert all("eta,X,Y" in f.read_text() for f in files)


def test_numerical_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(
        cli, "find_k_star",
        lambda *a, **k: (_ for _ in ()).throw(BracketError("no bracket")),
    )
    code, _, err = run(capsys, "find-kstar", "--m", "2", "--p", "0.5", "--N", "4")
    assert code == 3
    assert "no bracket" in err


def test_find_kstar_unresolved_guard_exit_code(capsys, monkeypatch):
    def unresolved_up_to_one(params, K):
        return OrbitTag.UNRESOLVED if K <= 1.0 else OrbitTag.TO_Q3

    monkeypatch.setattr("selfsim.shooting.classify", unresolved_up_to_one)
    code, out, err = run(capsys, "find-kstar", "--m", "2", "--p", "0.5",
                         "--N", "4")
    assert code == 3
    assert out == ""
    assert err == "error: too many unresolved probes (3/3)\n"


@pytest.mark.parametrize("tag, message", [
    (OrbitTag.TO_Q3, "no Q1-connection found above K=5e-324"),
    (OrbitTag.TO_Q1, "no Q3-connection found below K=1.1235582092889474e+307"),
], ids=["all-ToQ3", "all-ToQ1"])
def test_find_kstar_no_bracket_exit_code(capsys, monkeypatch, tag, message):
    monkeypatch.setattr("selfsim.shooting.classify", lambda params, K: tag)
    code, out, err = run(capsys, "find-kstar", "--m", "2", "--p", "0.5",
                         "--N", "4")
    assert code == 3
    assert out == ""
    assert err == f"error: {message}\n"


def test_find_kstar_stall_exit_code(capsys, monkeypatch):
    notes = "stopped at bracket width 5.29e-06 (probe unresolved)"
    stalled = ClassificationReport(
        params=ModelParams(1.5, 0.5, 3),
        regime=Regime.CRITICAL,
        K_grid=((0.0625, OrbitTag.TO_Q1), (0.0625003, OrbitTag.UNRESOLVED)),
        K_star=0.06250015,
        K_star_bracket=(0.0625, 0.0625003),
        alpha_star=9.8,
        notes=notes,
    )
    monkeypatch.setattr(cli, "find_k_star", lambda *a, **k: stalled)
    code, out, err = run(capsys, "find-kstar", "--m", "1.5", "--p", "0.5",
                         "--N", "3")
    assert code == 3
    assert json.loads(out)["notes"] == notes
    assert notes in err


def test_find_kstar_unresolved_probe_exit_code(capsys, monkeypatch):
    # the real bisection, its first midpoint sqrt(8) unresolved: the report
    # is written, and the early stop exits 3
    def unresolved_inside(params, K):
        if 1.0 < K < 8.0:
            return OrbitTag.UNRESOLVED
        return OrbitTag.TO_Q1 if K < 2.5 else OrbitTag.TO_Q3

    monkeypatch.setattr("selfsim.shooting.classify", unresolved_inside)
    code, out, err = run(capsys, "find-kstar", "--m", "2", "--p", "0.5",
                         "--N", "4")
    notes = "stopped at bracket width 7 (probe unresolved)"
    assert code == 3
    assert json.loads(out)["notes"] == notes
    assert err == f"bisection stopped early: {notes}\n"


def test_profile_bulk_failure_exit_code(tmp_path, capsys, monkeypatch):
    def failed(*args, **kwargs):
        return SimpleNamespace(status=-1, message="step size too small")

    monkeypatch.setattr("selfsim.profile.solve_ivp", failed)
    code, out, err = run(capsys, "profile", "--m", "2", "--p", "0.5",
                         "--N", "4", "--K", "0.5", "--out",
                         str(tmp_path / "x"))
    assert code == 3
    assert err == "error: bulk run at K = 0.5 failed: step size too small\n"
    assert list(tmp_path.iterdir()) == []


def test_profile_fit_failure_exit_code(tmp_path, capsys, monkeypatch):
    def no_fit(prof):
        raise DomainError("need at least 20 samples below the fit window")

    monkeypatch.setattr(cli, "fit_interface", no_fit)
    code, _, err = run(capsys, "profile", "--m", "2", "--p", "0.5", "--N", "4",
                       "--K", "0.5", "--out", str(tmp_path / "prof"))
    assert code == 3
    assert "20 samples" in err


def test_near_m_one_exits_0(tmp_path, capsys):
    # q = (m-p)/(m-1) passes 2500 here, and K X^q in a stage of the X-Y
    # phase once escaped main as an OverflowError
    code, _, err = run(capsys, "classify", "--m", "1.0002", "--p", "0.5",
                       "--N", "3", "--K", "1", "--out", str(tmp_path / "x"))
    assert code == 0 and err == ""
    assert [f.name for f in tmp_path.iterdir()] == ["x.json"]
    assert json.loads((tmp_path / "x.json").read_text())["tag"] == "ToQ3"


def test_sweep_near_m_one_is_quiet(tmp_path, capsys):
    # np.geomspace's numpy scalars once ran the X-Y phase in numpy
    # arithmetic, whose overflow warnings reached stderr here
    code, _, err = run(capsys, "sweep", "--m", "1.0002", "--p", "0.5",
                       "--N", "3", "--out", str(tmp_path / "x"))
    assert code == 0 and err == ""
    doc = json.loads((tmp_path / "x.json").read_text())
    assert [p["tag"] for p in doc["probes"]] == ["ToQ3"] * 13


@pytest.mark.parametrize("N", ["1", "3"])
def test_classify_unresolved_near_critical_exit_code(capsys, N):
    # no stop of the slope chart fires by the ln X cap just below m + p = 2
    code, out, err = run(capsys, "classify", "--m", "1.5", "--p",
                         repr(0.5 - 1e-9), "--N", N, "--K", "1e-3")
    assert code == 3
    assert err == "orbit endpoint unresolved\n"
    assert json.loads(out)["diagnostics"] == (
        "no stop fired by the ln X cap 600.0")


def test_readme_library_usage_runs(capsys):
    # the documented entry points keep step with the code: the first python
    # block after "## Library usage" runs as written, warnings as errors
    text = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    block = text.split("## Library usage", 1)[1].split("```python\n", 1)[1]
    with alarm(60):
        exec(compile(block.split("```", 1)[0], "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[0] == "OrbitTag.TO_Q1"
