import math
import re

import numpy as np
import pytest
from conftest import CRIT, K_STAR_SUPER, SUB, SUPER

from selfsim import shooting
from selfsim.integrator import (
    OrbitTag,
    integrate_from_p0,
    orbit_monotonicity_check,
)
from selfsim.params import (
    DomainError,
    ModelParams,
    Regime,
    alpha_star_critical,
    k_from_alpha,
)
from selfsim.shooting import (
    BracketError,
    classify,
    find_k_star,
    nonexistence_sweep,
)


def test_classify_reference_cases():
    assert classify(SUPER, 0.1) is OrbitTag.TO_Q1
    assert classify(SUPER, 8.0) is OrbitTag.TO_Q3
    assert classify(SUB, 1.0) is OrbitTag.TO_Q3


def test_find_k_star_critical():
    report = find_k_star(CRIT, tol_K=1e-4)
    assert report.regime is Regime.CRITICAL
    assert report.K_star == pytest.approx(0.0625, rel=1e-3)
    assert report.alpha_star == pytest.approx(9.79796, rel=1e-3)
    assert report.K_star_analytic == pytest.approx(0.0625)
    assert report.K_star_discrepancy < 1e-3


def test_find_k_star_supercritical_regression():
    report = find_k_star(SUPER, tol_K=1e-5)
    assert 0.1 < report.K_star < 8.0
    assert report.K_star == pytest.approx(K_STAR_SUPER, rel=1e-4)
    # alpha_star consistent with K_star through the parameter bridge
    assert k_from_alpha(SUPER, report.alpha_star).K == pytest.approx(
        report.K_star, rel=1e-12
    )


def test_find_k_star_probes_each_k_once():
    # K = 1 starts both the Q1 and the Q3 search; it is shot once
    report = find_k_star(SUPER, tol_K=1e-6)
    ks = [k for k, _ in report.K_grid]
    assert len(ks) == len(set(ks)) == 23
    assert report.K_star_bracket == (2.548814423205133, 2.5488169504960596)


def test_find_k_star_large_m():
    # large m: every Q1-bound probe is tagged by the slope-chart trap
    report = find_k_star(ModelParams(7.0, 0.5, 3), tol_K=1e-6)
    assert report.K_star == pytest.approx(24.33509, rel=1e-6)


@pytest.mark.parametrize("params, K_star, bracket", [
    (ModelParams(50.0, 0.5, 3), 159.2003776, (158.9578, 159.4427)),
    (ModelParams(70.0, 0.2, 1), 78.93469667, (78.8893, 79.0095)),
    (ModelParams(200.0, 0.5, 3), 613.135437, (512.0, 861.08)),
], ids=["50-0.5-3", "70-0.2-1", "200-0.5-3"])
def test_find_k_star_at_large_m_reaches_its_tolerance(params, K_star,
                                                      bracket):
    # near K* the orbit rides the Q4 ray, which repels at only 1/(m-1) per
    # unit of ln X; the probes once met no stop by the ln X cap and the
    # bisection ended early ("probe unresolved") in the bracket given here.
    # The stops below the ray and above its lower root fire as soon as the
    # orbit leaves it
    report = find_k_star(params, tol_K=1e-6)
    assert report.notes == ""
    assert report.K_star == pytest.approx(K_star, rel=1e-6)
    assert bracket[0] < report.K_star < bracket[1]


@pytest.mark.parametrize("params", [
    CRIT, ModelParams(1.2, 0.8, 3), ModelParams(1.3, 0.7, 1),
    ModelParams(1.05, 0.95, 3), ModelParams(1.01, 0.99, 1),
], ids=["1.5-0.5-3", "1.2-0.8-3", "1.3-0.7-1", "1.05-0.95-3", "1.01-0.99-1"])
def test_find_k_star_critical_to_1e_10(params):
    # the trap above y2 and the bound to plunge decide every probe, however
    # close to (m-1)^2/4: the bisection runs to its tolerance
    report = find_k_star(params, tol_K=1e-10)
    assert report.notes == ""
    assert report.K_star_discrepancy < 1e-9


@pytest.mark.parametrize("params, K_star", [
    (SUPER, 2.5488146531), (ModelParams(3.0, 0.5, 3), 8.3447283136),
], ids=["2-0.5-4", "3-0.5-3"])
def test_find_k_star_supercritical_to_1e_10(params, K_star):
    report = find_k_star(params, tol_K=1e-10)
    assert report.notes == ""
    assert report.K_star == pytest.approx(K_star, rel=1e-9)


def _step_at(K_star):
    """A stand-in for ``classify`` with its Q1/Q3 transition at K_star."""
    def tag(params, K):
        return OrbitTag.TO_Q1 if K < K_star else OrbitTag.TO_Q3

    return tag


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_find_k_star_rejects_nonpositive_tol(monkeypatch, tol):
    # at tol inf the report once gave K* = 2.83 from its first bracket
    monkeypatch.setattr(shooting, "classify", _step_at(2.5))
    with pytest.raises(DomainError):
        find_k_star(SUPER, tol_K=tol)


def _unresolved_first_midpoint(params, K):
    """``_step_at(2.5)``, but ``Unresolved`` strictly inside the first
    bracket [1, 8] at (2, 1/2, 4), where the first midpoint sqrt(8) lies."""
    return OrbitTag.UNRESOLVED if 1.0 < K < 8.0 else _step_at(2.5)(params, K)


def test_find_k_star_stops_on_an_unresolved_probe(monkeypatch):
    # one unresolved probe of three is within the guard: the bisection ends
    # there with the bracket it has and a note
    monkeypatch.setattr(shooting, "classify", _unresolved_first_midpoint)
    report = find_k_star(SUPER)
    assert report.K_star_bracket == (1.0, 8.0)
    assert [tag for _, tag in report.K_grid] == [
        OrbitTag.TO_Q1, OrbitTag.UNRESOLVED, OrbitTag.TO_Q3]
    assert report.notes == "stopped at bracket width 7 (probe unresolved)"


def test_find_k_star_stops_at_float_resolution(monkeypatch):
    # below about 1e-16 the geometric midpoint rounds onto an end of the
    # bracket; the bisection ends there with a note instead of spinning
    monkeypatch.setattr(shooting, "classify", _step_at(2.5488146531))
    report = find_k_star(SUPER, tol_K=1e-16)
    lo, hi = report.K_star_bracket
    assert lo < hi
    assert hi - lo < 1e-15 * lo
    assert "float resolution" in report.notes


@pytest.mark.parametrize("K_star, message", [
    (0.0, "no Q1-connection found above K=5e-324"),
    (math.inf, "no Q3-connection found below K=1.1235582092889474e+307"),
], ids=["all-ToQ3", "all-ToQ1"])
def test_find_k_star_bracket_search_gives_up(monkeypatch, K_star, message):
    # the searches run over every K with an alpha, 8^-358 and 8^340 at
    # (2, 1/2, 4); they once gave up at a guessed 1e-6 and 1e6
    monkeypatch.setattr(shooting, "classify", _step_at(K_star))
    with pytest.raises(BracketError, match=f"^{re.escape(message)}$"):
        find_k_star(SUPER)


def _unresolved_up_to_one(params, K):
    return OrbitTag.UNRESOLVED if K <= 1.0 else OrbitTag.TO_Q3


def test_find_k_star_gives_up_on_unresolved_probes(monkeypatch):
    # the search for a Q1 end probes K = 1, 1/8, 1/64: the third unresolved
    # probe is more than the max(2, probes // 10) the guard tolerates
    monkeypatch.setattr(shooting, "classify", _unresolved_up_to_one)
    with pytest.raises(BracketError,
                       match=r"^too many unresolved probes \(3/3\)$"):
        find_k_star(SUPER)


def test_report_tags_are_monotone():
    report = find_k_star(SUPER, tol_K=1e-3)
    tags = [tag for _, tag in report.K_grid if tag is not OrbitTag.UNRESOLVED]
    switched = False
    for tag in tags:
        if tag is OrbitTag.TO_Q3:
            switched = True
        elif switched:
            pytest.fail("ToQ1 seen after ToQ3 on the sorted grid")


def test_bracket_contains_k_star():
    report = find_k_star(CRIT, tol_K=1e-4)
    lo, hi = report.K_star_bracket
    assert lo <= report.K_star <= hi
    assert hi - lo < 1e-4 * lo * 1.5


def test_alpha_star_decreases_in_k_star():
    a = find_k_star(ModelParams(1.25, 0.75, 3), tol_K=1e-4)
    b = find_k_star(ModelParams(1.75, 0.25, 3), tol_K=1e-4)
    assert b.K_star > a.K_star
    assert b.alpha_star < a.alpha_star


def test_find_k_star_rejects_subcritical():
    with pytest.raises(DomainError):
        find_k_star(SUB)


def test_nonexistence_sweep():
    grid = [0.01, 0.1, 1.0, 10.0, 100.0]
    report = nonexistence_sweep(SUB, grid)
    assert report.regime is Regime.SUBCRITICAL
    assert all(tag is OrbitTag.TO_Q3 for _, tag in report.K_grid)
    assert report.notes == ""


def test_nonexistence_sweep_n1():
    report = nonexistence_sweep(ModelParams(1.3, 0.5, 1), [0.01, 1.0, 100.0])
    assert all(tag is OrbitTag.TO_Q3 for _, tag in report.K_grid)


def test_nonexistence_sweep_empty_grid():
    # its empty report once read as "every probe ends at Q3"
    with pytest.raises(DomainError, match="nonempty K grid"):
        nonexistence_sweep(SUB, [])
    with pytest.raises(DomainError, match="nonempty K grid"):
        nonexistence_sweep(SUB, np.array([]))


def test_nonexistence_sweep_takes_an_array_grid():
    # "if not K_grid" once raised numpy's "truth value of an array" error
    report = nonexistence_sweep(SUB, np.array([0.1, 1.0]))
    assert report.K_grid == nonexistence_sweep(SUB, [0.1, 1.0]).K_grid


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m", [1e16, 1e20, 1e100, 1e300])
def test_classify_where_q_rounds_to_one(m):
    # q = (m-p)/(m-1) rounds to 1.0 from about m = 1e16, and the stop below
    # the Q4 ray once divided by q - 1 = 0: ZeroDivisionError
    assert classify(ModelParams(m, 0.5, 3), 1.0) is OrbitTag.TO_Q1


def test_find_k_star_where_q_rounds_to_one():
    # K* is about N*m here; the upper search once gave up at K = 1e6
    report = find_k_star(ModelParams(1e16, 0.5, 3))
    assert report.notes == ""
    assert report.K_star / 3e16 == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("shoot", [
    lambda: integrate_from_p0(ModelParams(1e300, 0.5, 3), 1e10),
    lambda: classify(ModelParams(1e300, 0.5, 3), 1e10),
    lambda: orbit_monotonicity_check(ModelParams(1e300, 0.5, 3), 1e10, 1e11),
], ids=["integrate_from_p0", "classify", "orbit_monotonicity_check"])
def test_p0_orbit_needs_a_k_with_an_alpha(shoot):
    # K(m-1) of the launch overflows here; the error once named Y = -inf
    with pytest.raises(DomainError,
                       match=r"^K = 10000000000\.0 maps to alpha = 0\.0 "):
        shoot()


def test_nonexistence_sweep_checks_its_grid_before_shooting(monkeypatch):
    # m K overflows at the grid's last K; the sweep once shot both orbits
    # and returned a report
    def no_orbit(params, K):
        raise AssertionError(f"orbit shot at K = {K}")

    monkeypatch.setattr(shooting, "classify", no_orbit)
    with pytest.raises(DomainError, match=r"^K = 1\.5e\+308 maps to alpha"):
        nonexistence_sweep(ModelParams(1.5, 0.3, 3), [1.0, 1.5e308])


def test_nonexistence_sweep_rejects_supercritical():
    with pytest.raises(DomainError):
        nonexistence_sweep(SUPER, [1.0])


def test_alpha_star_matches_analytic_formula():
    report = find_k_star(CRIT, tol_K=1e-4)
    assert report.alpha_star == pytest.approx(
        alpha_star_critical(CRIT.m), rel=1e-3
    )
    assert report.alpha_star == pytest.approx(8.0 * math.sqrt(1.5), rel=1e-3)


def _domain_sample(count, seed=7, m_lo=1.001, m_hi=200.0):
    """(m, p, N) with m + p >= 2, m log-uniform in (m_lo, m_hi),
    p uniform in (0.01, 0.99) and N in 1-4, by rejection."""
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < count:
        m = math.exp(rng.uniform(math.log(m_lo), math.log(m_hi)))
        p = rng.uniform(0.01, 0.99)
        N = int(rng.integers(1, 5))
        if m + p >= 2.0:
            points.append((m, p, N))
    return points


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "m, p, N",
    _domain_sample(30) + _domain_sample(15, seed=2026, m_lo=200.0,
                                        m_hi=1e6),
    ids=lambda x: f"{x:.4g}")
def test_find_k_star_converges_across_the_domain(m, p, N):
    # the 15 points with m in (200, 1e6) add about 1.4 s of Tier-1.  K*
    # tends to N*m as m grows; the upper search once gave up at K = 1e6
    report = find_k_star(ModelParams(m, p, N), tol_K=1e-6)
    assert report.notes == ""
    lo, hi = report.K_star_bracket
    assert hi - lo < 1e-6 * lo
    if m >= 1e3:
        assert abs(report.K_star / (N * m) - 1.0) < 0.02


def test_k_star_tends_to_the_critical_value_as_m_plus_p_falls_to_2():
    # off the critical line K* has no closed form, but it tends to the
    # critical (m-1)^2/4 = 1/16 as p -> 1/2 from above at m = 1.5
    gaps = [abs(find_k_star(ModelParams(1.5, 0.5 + delta, 1),
                            tol_K=1e-8).K_star - 0.0625)
            for delta in (1e-1, 1e-2, 1e-3, 1e-4, 1e-6)]
    assert all(a > b for a, b in zip(gaps, gaps[1:])), gaps
    assert gaps[-1] < 2e-5, gaps
