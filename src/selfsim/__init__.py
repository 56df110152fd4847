"""Numerical toolkit for eternal self-similar solutions of the weighted
reaction-diffusion equation u_t = div(grad u^m) + |x|^sigma u^p at the
critical weight sigma = 2(1-p)/(m-1).

The profile ODE is reduced to an autonomous planar system; the toolkit
integrates its orbits, classifies their endpoints at infinity, locates the
critical shooting parameter by bisection, reconstructs profiles with their
free-boundary interfaces, and maps solutions to traveling waves of an
associated reaction-convection-diffusion equation.
"""

from selfsim.params import (
    DomainError,
    ModelParams,
    Regime,
    ShootingParam,
    alpha_beta_from_k,
    alpha_star_critical,
    k_from_alpha,
    regime,
    sigma_critical,
)
from selfsim.phaseplane import (
    CriticalPoint,
    IsoclineBranches,
    PhasePoint,
    PointKind,
    finite_critical_points,
    infinity_critical_points,
    isocline,
    numerical_jacobian,
    planar_field,
)
from selfsim.integrator import (
    Orbit,
    OrbitEnd,
    OrbitTag,
    PhaseStats,
    integrate,
    launch_from_p0,
    orbit_monotonicity_check,
)
from selfsim.shooting import (
    BracketError,
    ClassificationReport,
    classify,
    find_k_star,
    nonexistence_sweep,
)
from selfsim.profile import (
    InterfaceFit,
    InterfaceType,
    Profile,
    evaluate_f,
    fit_interface,
    ode_residual,
    reconstruct,
    rescale,
)
from selfsim.solution import (
    EternalSolution,
    TravelingWave,
    evaluate_u,
    make_solution,
    mass_growth_rate,
    pde_residual,
    to_traveling_wave,
    tw_residual,
)

__all__ = [
    "DomainError",
    "ModelParams",
    "Regime",
    "ShootingParam",
    "alpha_beta_from_k",
    "alpha_star_critical",
    "k_from_alpha",
    "regime",
    "sigma_critical",
    "CriticalPoint",
    "IsoclineBranches",
    "PhasePoint",
    "PointKind",
    "finite_critical_points",
    "infinity_critical_points",
    "isocline",
    "numerical_jacobian",
    "planar_field",
    "Orbit",
    "OrbitEnd",
    "OrbitTag",
    "PhaseStats",
    "integrate",
    "launch_from_p0",
    "orbit_monotonicity_check",
    "BracketError",
    "ClassificationReport",
    "classify",
    "find_k_star",
    "nonexistence_sweep",
    "InterfaceFit",
    "InterfaceType",
    "Profile",
    "evaluate_f",
    "fit_interface",
    "ode_residual",
    "reconstruct",
    "rescale",
    "EternalSolution",
    "TravelingWave",
    "evaluate_u",
    "make_solution",
    "mass_growth_rate",
    "pde_residual",
    "to_traveling_wave",
    "tw_residual",
]

__version__ = "0.1.0"
