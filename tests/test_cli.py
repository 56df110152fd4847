import json
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from selfsim import cli
from selfsim.integrator import OrbitEnd, OrbitTag, integrate_from_p0
from selfsim.params import DomainError, ModelParams, Regime
from selfsim.shooting import BracketError, ClassificationReport


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


@pytest.mark.parametrize("command, flags", [
    ("sweep", ("--k-count", "3")),
    ("profile", ("--K", "0.5")),
    ("portrait", ("--K", "0.1")),
    ("tw", ("--K", "0.5")),
], ids=["sweep", "profile", "portrait", "tw"])
def test_without_out_exits_before_shooting(capsys, monkeypatch, command,
                                           flags):
    # argparse requires --out, so no orbit is shot and no profile rebuilt
    def no_solve(*args, **kwargs):
        raise AssertionError(f"{command} solved before checking --out")

    for name in ("integrate_from_p0", "integrate", "reconstruct"):
        monkeypatch.setattr(cli, name, no_solve)
    monkeypatch.setattr("selfsim.shooting.integrate_from_p0", no_solve)
    code, out, err = run(capsys, command, "--m", "2", "--p", "0.5",
                         "--N", "4", *flags)
    assert code == 2
    assert out == ""
    assert "the following arguments are required: --out" in err


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


@pytest.mark.parametrize("flags", [
    ("--k-min", "0"), ("--k-max", "-1"), ("--k-count", "-3"),
    ("--k-count", "0"), ("--k-max", "inf"),
], ids=["k-min-0", "k-max-negative", "k-count-negative", "k-count-0",
        "k-max-inf"])
def test_sweep_rejects_bad_k_grid(tmp_path, capsys, monkeypatch, flags):
    def no_orbits(*args, **kwargs):
        raise AssertionError("sweep shot an orbit on an invalid K grid")

    monkeypatch.setattr("selfsim.shooting.integrate_from_p0", no_orbits)
    code, _, err = run(capsys, "sweep", "--m", "2", "--p", "0.5", "--N", "4",
                       *flags, "--out", str(tmp_path / "sw"))
    assert code == 2
    assert "K grid" in err
    assert list(tmp_path.iterdir()) == []


def test_sweep_grid_is_python_floats():
    args = SimpleNamespace(k_min=0.01, k_max=100.0, k_count=5)
    assert [type(k) for k in cli._k_grid(args)] == [float] * 5


def test_profile_files(tmp_path, capsys):
    prefix = str(tmp_path / "prof")
    code, _, _ = run(capsys, "profile", "--m", "2", "--p", "0.5", "--N", "4",
                     "--K", "0.5", "--out", prefix)
    assert code == 0
    doc = json.loads((tmp_path / "prof.json").read_text())
    assert doc["interface_type"] == "TypeII"
    header = (tmp_path / "prof.csv").read_text().splitlines()[:10]
    assert any(line.startswith("# xi0 = ") for line in header)
    assert "xi,f" in header


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
    files = sorted(tmp_path.glob("por_*.csv"))
    assert len(files) == 6
    body = files[0].read_text()
    assert "eta,X,Y" in body


def test_sigma_mismatch_exit_code(capsys):
    code, _, err = run(capsys, "classify", "--m", "2", "--p", "0.5", "--N", "4",
                       "--K", "0.1", "--sigma", "0.3")
    assert code == 2
    assert "sigma" in err


def test_missing_k_exit_code(capsys):
    code, _, _ = run(capsys, "classify", "--m", "2", "--p", "0.5", "--N", "4")
    assert code == 2


def test_k_and_alpha_mutually_exclusive(capsys):
    code, _, _ = run(capsys, "classify", "--m", "2", "--p", "0.5", "--N", "4",
                     "--K", "0.1", "--alpha", "4")
    assert code == 2


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
    (OrbitTag.TO_Q3, "no Q1-connection found above K=1e-06"),
    (OrbitTag.TO_Q1, "no Q3-connection found below K=1000000.0"),
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


def test_profile_at_huge_k_exit_code(tmp_path, capsys):
    # alpha = 2.5e-200 is finite, but f falls to 0 within one bulk step
    # narrower than the float spacing near xi; this once escaped main as a
    # ValueError from brentq
    code, _, err = run(capsys, "profile", "--m", "2", "--p", "0.5", "--N", "4",
                       "--K", "1e300", "--out", str(tmp_path / "x"))
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "K = 1e+300" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("m, p, N, K", [
    ("3", "0.5", "3", "0.001"),
    ("5", "0.9", "3", "0.01"),
    ("1.5", "0.9", "1", "0.001"),
    ("2", "0.5", "4", "0.0001"),
])
def test_profile_at_small_k_exit_code(tmp_path, capsys, m, p, N, K):
    # the interface lies past the float range; this once escaped main as an
    # OverflowError, or wrote overflow warnings to stderr
    code, _, err = run(capsys, "profile", "--m", m, "--p", p, "--N", N,
                       "--K", K, "--out", str(tmp_path / "x"))
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"K = {float(K):g}" in err
    assert list(tmp_path.iterdir()) == []


def test_subcritical_find_kstar_rejected(capsys):
    code, _, err = run(capsys, "find-kstar", "--m", "1.2", "--p", "0.5",
                       "--N", "3")
    assert code == 2
    assert "transition" in err


@pytest.mark.parametrize("command, flags, name", [
    ("profile", ("--m", "2", "--K", "inf"), "K"),
    ("tw", ("--m", "2", "--K", "inf"), "K"),
    ("classify", ("--m", "2", "--K", "inf"), "K"),
    ("profile", ("--m", "2", "--K", "1e308"), "K"),
    ("classify", ("--m", "100", "--K", "5e-324"), "K"),
    ("classify", ("--m", "2", "--alpha", "1e-300"), "alpha"),
    ("classify", ("--m", "2", "--alpha", "inf"), "alpha"),
    ("classify", ("--m", "inf", "--K", "1"), "m"),
], ids=["profile-K-inf", "tw-K-inf", "classify-K-inf",
        "profile-K-past-alpha-range", "classify-K-past-alpha-range",
        "classify-alpha-past-K-range",
        "classify-alpha-inf", "classify-m-inf"])
def test_nonfinite_parameter_exit_code(tmp_path, capsys, command, flags, name):
    # the parameter is rejected by name where it enters, before any solve;
    # an exception escaping main here would be a traceback at the console
    code, _, err = run(capsys, command, *flags, "--p", "0.5", "--N", "4",
                       "--out", str(tmp_path / "x"))
    assert code == 2
    assert err.startswith(f"error: {name} ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, m, files", [("classify", "1.0002", 1),
                                               ("portrait", "1.0001", 6)])
def test_near_m_one_exits_0(tmp_path, capsys, command, m, files):
    # q = (m-p)/(m-1) passes 2500 here, and K X^q in a stage of the X-Y
    # phase once escaped main as an OverflowError
    code, _, err = run(capsys, command, "--m", m, "--p", "0.5", "--N", "3",
                       "--K", "1", "--out", str(tmp_path / "x"))
    assert code == 0 and err == ""
    assert len(list(tmp_path.iterdir())) == files
    if command == "classify":
        assert json.loads((tmp_path / "x.json").read_text())["tag"] == "ToQ3"


def test_tw_past_the_float_range_exit_code(tmp_path, capsys):
    # the profile is finite here but F is not; this once wrote 649 inf
    # values of F with numpy's overflow warning, and exited 0
    code, _, err = run(capsys, "tw", "--m", "1.01", "--p", "0.99", "--N", "3",
                       "--K", "6.25e-6", "--out", str(tmp_path / "x"))
    assert code == 3
    assert err == ("error: traveling wave at alpha = 803.99 lies past the "
                   "float range (F overflows)\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["profile", "tw"])
def test_near_m_one_overflow_exit_code(tmp_path, capsys, command):
    # f = (...)^(1/(m-1)) passes the float range; this once wrote inf (and
    # for tw nan) samples and numpy's overflow warnings, and exited 0
    code, _, err = run(capsys, command, "--m", "1.0002", "--p", "0.9998",
                       "--N", "3", "--K", "1e-8", "--out", str(tmp_path / "x"))
    assert code == 3
    assert err == ("error: profile at K = 1e-08 lies past the float range "
                   "(f overflows)\n")
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("flag, value", [("--rel-tol", "1e-12"),
                                         ("--abs-tol", "1e-14"),
                                         # sigma is derived from m and p;
                                         # its flag let NaN through
                                         ("--sigma", "1.0"),
                                         ("--sigma", "nan")])
def test_tolerance_flags_are_gone(capsys, flag, value):
    code, _, err = run(capsys, "classify", "--m", "2", "--p", "0.5",
                       "--N", "4", "--K", "1", flag, value)
    assert code == 2
    assert f"unrecognized arguments: {flag} {value}" in err
