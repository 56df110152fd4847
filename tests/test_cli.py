import json

import pytest

from selfsim import cli
from selfsim.shooting import BracketError


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


def test_classify_retries_unresolved_orbit(capsys):
    # just above K* = 1/16 the first orbit is still inconclusive at
    # ln X = 600; the retry with tightened options resolves it, as in sweep
    code, out, _ = run(capsys, "classify", "--m", "1.5", "--p", "0.5",
                       "--N", "3", "--K", "0.06250033051920574")
    assert code == 0
    assert json.loads(out)["tag"] == "ToQ3"


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


def test_sweep_without_out_exits_before_shooting(capsys, monkeypatch):
    def no_orbits(*args, **kwargs):
        raise AssertionError("sweep shot an orbit before checking --out")

    monkeypatch.setattr("selfsim.shooting.integrate_from_p0", no_orbits)
    code, _, err = run(capsys, "sweep", "--m", "2", "--p", "0.5", "--N", "4",
                       "--k-count", "3")
    assert code == 2
    assert "--out" in err


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


def test_subcritical_find_kstar_rejected(capsys):
    code, _, err = run(capsys, "find-kstar", "--m", "1.2", "--p", "0.5",
                       "--N", "3")
    assert code == 2
    assert "transition" in err
