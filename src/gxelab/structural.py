"""Structural choice model of outcome production under genetic and
environmental heterogeneity.

An agent picks effort x to maximize F(x, G, E, e) - C(x, G, E, e). The
quadratic-cost linear specialization has production

    F = f_x*x + f_e*E + f_g*G + f_xe*x*E + f_xg*x*G + f_ge*G*E + e_f

and cost C = x^2 / (2*kappa) with inverse marginal cost
kappa = k_0 + k_e*E + k_g*G + e_k, which yields the closed form
x* = kappa * (f_x + f_xe*E + f_xg*G) and a cubic reduced-form polynomial in
(G, E). The generic interface takes user callables F(x, G, E, e) and
C(x, G, E, e), finds the optimum by Brent's method (Brent 1973, ch. 4) on the
bracketed first-order condition and differentiates by central finite
differences.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np
from scipy.optimize import brentq

from .gxe import TERM_MENU, GxeModelSpec, gxe_design
from .util import SimulationError, child_rng

SOLVER_BOUNDS = (-1e3, 1e3)
MAX_ITER = 200


class ModelDomainError(ValueError):
    """Inputs outside the model's admissible region (e.g. 1/c <= 0)."""


class SolverError(RuntimeError):
    """No root of the first-order condition found in SOLVER_BOUNDS within MAX_ITER iterations."""


class ModelError(RuntimeError):
    """The second-order condition fails at the candidate optimum."""


@dataclass(frozen=True)
class StructuralParams:
    f_x: float
    f_e: float
    f_g: float
    f_xe: float
    f_xg: float
    f_ge: float
    k_0: float
    k_e: float
    k_g: float

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "StructuralParams":
        data = json.loads(text)
        expected = set(cls.__dataclass_fields__)
        if set(data) != expected:
            raise ModelDomainError(f"expected exactly fields {sorted(expected)}, got {sorted(data)}")
        return cls(**{k: float(v) for k, v in data.items()})

    def inverse_cost(self, G, E, e_k=0.0):
        return self.k_0 + self.k_e * np.asarray(E) + self.k_g * np.asarray(G) + e_k

    def marginal_product(self, G, E):
        return self.f_x + self.f_xe * np.asarray(E) + self.f_xg * np.asarray(G)


@dataclass(frozen=True)
class AgentState:
    G: float
    E: float
    e_f: float = 0.0
    e_k: float = 0.0

    def __post_init__(self):
        if not all(np.isfinite([self.G, self.E, self.e_f, self.e_k])):
            raise ModelDomainError("agent state must be finite")

    @property
    def shocks(self) -> tuple[float, float]:
        return (self.e_f, self.e_k)


def optimal_effort(p: StructuralParams, s: AgentState) -> float:
    """Closed-form optimum of the quadratic-cost specialization."""
    inv_c = p.inverse_cost(s.G, s.E, s.e_k)
    if inv_c <= 0:
        raise ModelDomainError(f"inverse cost {inv_c} is not positive")
    return float(inv_c * p.marginal_product(s.G, s.E))


def produce(p: StructuralParams, s: AgentState) -> tuple[float, float, float]:
    """(x*, produced outcome Y, realized value V) at the optimum."""
    x = optimal_effort(p, s)
    Y = quadratic_production(p)(x, s.G, s.E, s.shocks)
    return x, float(Y), float(Y - quadratic_cost(p)(x, s.G, s.E, s.shocks))


def quadratic_production(p: StructuralParams):
    """The specialization as a generic-production callable F(x, G, E, e)."""
    def F(x, G, E, e):
        e_f = e[0]
        return (p.f_x * x + p.f_e * E + p.f_g * G
                + p.f_xe * x * E + p.f_xg * x * G + p.f_ge * G * E + e_f)
    return F


def quadratic_cost(p: StructuralParams):
    """The specialization's cost callable C(x, G, E, e)."""
    def C(x, G, E, e):
        inv_c = p.inverse_cost(G, E, e[1])
        return 0.5 * x * x / inv_c
    return C


# ---------------------------------------------------------------------------
# Generic machinery: FOC solver and finite differences
# ---------------------------------------------------------------------------

def _step(h: float, value: float) -> float:
    return h * max(1.0, abs(value))


def _first_diff(f, a: float, ha: float) -> float:
    return (f(a + ha) - f(a - ha)) / (2 * ha)


def _second_diff(f, a: float, ha: float) -> float:
    return (f(a + ha) - 2 * f(a) + f(a - ha)) / (ha * ha)


def _cross_partial(f, a: float, b: float, ha: float, hb: float) -> float:
    return (f(a + ha, b + hb) - f(a + ha, b - hb) - f(a - ha, b + hb) + f(a - ha, b - hb)) / (4 * ha * hb)


def solve_effort(production, cost, G: float, E: float, e, h: float = 1e-4) -> float:
    """Root of F_x - C_x in SOLVER_BOUNDS by Brent's method, checked to be a maximum."""
    def foc(x):
        hx = _step(h, x)
        return (_first_diff(lambda t: production(t, G, E, e), x, hx)
                - _first_diff(lambda t: cost(t, G, E, e), x, hx))

    lo, hi = SOLVER_BOUNDS
    flo, fhi = foc(lo), foc(hi)
    if flo * fhi > 0:
        raise SolverError(f"FOC not bracketed in {SOLVER_BOUNDS}: foc({lo})={flo:.3g}, foc({hi})={fhi:.3g}")
    x, info = brentq(foc, lo, hi, maxiter=MAX_ITER, full_output=True, disp=False)
    if not info.converged:
        raise SolverError(f"Brent's method did not converge in {MAX_ITER} iterations ({info.flag})")
    soc = _first_diff(foc, x, _step(h, x))
    if soc >= 0:
        raise ModelError(f"second-order condition violated at x*={x:.6g} (F_xx - C_xx = {soc:.3g})")
    return float(x)


@dataclass(frozen=True)
class DecompositionReport:
    """The five channels of the outcome cross-partial d2Y*/dGdE."""
    tech_gxe: float
    g_choice_comp: float
    e_choice_comp: float
    choice_gxe: float
    tech_nonlinearities: float

    @property
    def total(self) -> float:
        return (self.tech_gxe + self.g_choice_comp + self.e_choice_comp
                + self.choice_gxe + self.tech_nonlinearities)


def _effort(production, cost, s: AgentState, h: float):
    """x*(G, E) at the agent's shocks, as a function to difference."""
    return lambda g_, e_: solve_effort(production, cost, g_, e_, s.shocks, h)


def gxe_decomposition(production, cost, s: AgentState, h: float = 1e-4) -> DecompositionReport:
    """Split d2Y*/dGdE into its five mechanism terms.

    Terms: interaction inside the production technology at fixed effort;
    gene-choice and environment-choice complementarities; the interaction of
    the optimal choice itself; and curvature (F_xx) times both effort slopes.
    """
    G, E, e = s.G, s.E, s.shocks
    hg, he = _step(h, G), _step(h, E)
    x_star = _effort(production, cost, s, h)
    x0 = x_star(G, E)
    hx = _step(h, x0)
    f_x = _first_diff(lambda x: production(x, G, E, e), x0, hx)
    f_xx = _second_diff(lambda x: production(x, G, E, e), x0, hx)
    f_ge = _cross_partial(lambda g_, e_: production(x0, g_, e_, e), G, E, hg, he)
    f_gx = _cross_partial(lambda x, g_: production(x, g_, E, e), x0, G, hx, hg)
    f_ex = _cross_partial(lambda x, e_: production(x, G, e_, e), x0, E, hx, he)

    x_e = _first_diff(lambda e_: x_star(G, e_), E, he)
    x_g = _first_diff(lambda g_: x_star(g_, E), G, hg)
    x_ge = _cross_partial(x_star, G, E, hg, he)

    return DecompositionReport(
        tech_gxe=float(f_ge),
        g_choice_comp=float(f_gx * x_e),
        e_choice_comp=float(f_ex * x_g),
        choice_gxe=float(f_x * x_ge),
        tech_nonlinearities=float(f_xx * x_e * x_g),
    )


def outcome_cross_partial(production, cost, s: AgentState, h: float = 1e-4) -> float:
    """Direct central finite difference of Y*(G, E) = F(x*(G, E), G, E, e).

    Independent of the decomposition path; used as its oracle.
    """
    x_star = _effort(production, cost, s, h)

    def y_star(g_, e_):
        return production(x_star(g_, e_), g_, e_, s.shocks)

    return _cross_partial(y_star, s.G, s.E, _step(h, s.G), _step(h, s.E))


def effort_slopes(production, cost, s: AgentState, h: float = 1e-4) -> tuple[float, float, float]:
    """(dx*/dE, dx*/dG, d2x*/dGdE).

    First-order slopes are central differences of the solved optimum; the
    cross slope goes through the implicit-FOC derivative, which is the only
    numerically clean way to second-differentiate the optimum.
    """
    x_star = _effort(production, cost, s, h)
    x_e = _first_diff(lambda e_: x_star(s.G, e_), s.E, _step(h, s.E))
    x_g = _first_diff(lambda g_: x_star(g_, s.E), s.G, _step(h, s.G))
    x_ge = _implicit_cross_slope(production, cost, s.G, s.E, s.shocks, h)
    return float(x_e), float(x_g), float(x_ge)


@dataclass(frozen=True)
class MarginalEffects:
    dY_dE: float
    dY_dG: float
    direct_E: float
    direct_G: float
    behavioral_E: float
    behavioral_G: float


def marginal_effects(production, cost, s: AgentState, h: float = 1e-4) -> MarginalEffects:
    """dY*/dE and dY*/dG split into technology and behavioral-response parts."""
    G, E, e = s.G, s.E, s.shocks
    hg, he = _step(h, G), _step(h, E)
    x_star = _effort(production, cost, s, h)
    x0 = x_star(G, E)
    f_x = _first_diff(lambda x: production(x, G, E, e), x0, _step(h, x0))
    f_e = _first_diff(lambda e_: production(x0, G, e_, e), E, he)
    f_g = _first_diff(lambda g_: production(x0, g_, E, e), G, hg)
    x_e = _first_diff(lambda e_: x_star(G, e_), E, he)
    x_g = _first_diff(lambda g_: x_star(g_, E), G, hg)
    return MarginalEffects(
        dY_dE=float(f_e + f_x * x_e),
        dY_dG=float(f_g + f_x * x_g),
        direct_E=float(f_e),
        direct_G=float(f_g),
        behavioral_E=float(f_x * x_e),
        behavioral_G=float(f_x * x_g),
    )


def value_function(production, cost, s: AgentState, h: float = 1e-4) -> tuple[float, float, float]:
    """(x*, Y*, V) for generic callables."""
    x = solve_effort(production, cost, s.G, s.E, s.shocks, h)
    y = production(x, s.G, s.E, s.shocks)
    v = y - cost(x, s.G, s.E, s.shocks)
    return float(x), float(y), float(v)


def _implicit_slope(production, cost, e, x: float, v: float, at) -> float:
    """dx*/dv from the first-order condition's implicit derivative,
    (C_xv - F_xv) / (F_xx - C_xx), evaluated at the solved optimum x, where
    at(v) gives the (G, E) point as v moves (v is G or E).

    Uses a 1e-3-scaled step: second differences at 1e-4 sit at the eps/h^2
    rounding floor, whose jitter would dominate any outer derivative of the
    slope; the larger step trades that for a smooth O(h^2) bias.
    """
    hx, hv = _step(1e-3, x), _step(1e-3, v)

    def along(f):
        return lambda xx, vv: f(xx, *at(vv), e)

    F, C = along(production), along(cost)
    f_xx = _second_diff(lambda xx: F(xx, v), x, hx)
    c_xx = _second_diff(lambda xx: C(xx, v), x, hx)
    return (_cross_partial(C, x, v, hx, hv) - _cross_partial(F, x, v, hx, hv)) / (f_xx - c_xx)


def _implicit_cross_slope(production, cost, G: float, E: float, e, h: float) -> float:
    """d2x*/dGdE: outer central difference (1e-3-scaled step) of the implicit
    environment slope, re-solving the optimum at each G offset."""
    def x_e_at(g_: float) -> float:
        x = solve_effort(production, cost, g_, E, e, h)
        return _implicit_slope(production, cost, e, x, E, lambda v: (g_, v))

    return _first_diff(x_e_at, G, _step(1e-3, G))


def welfare_gap(production, cost, s: AgentState, h: float = 1e-4) -> float:
    """d2V/dGdE - d2Y*/dGdE, which equals -d2C*/dGdE.

    Expanded as -(C_xx*x_G*x_E + C_xG*x_E + C_xE*x_G + C_x*x_GE + C_GE) with
    every ingredient a central finite difference at the solved optimum; the
    effort slopes use the implicit first-order-condition derivatives, which
    keeps solver noise out of the second differences.
    """
    G, E, e = s.G, s.E, s.shocks
    x0 = solve_effort(production, cost, G, E, e, h)
    hg, he = _step(h, G), _step(h, E)
    hx = _step(h, x0)

    x_e = _implicit_slope(production, cost, e, x0, E, lambda v: (G, v))
    x_g = _implicit_slope(production, cost, e, x0, G, lambda v: (v, E))
    x_ge = _implicit_cross_slope(production, cost, G, E, e, h)
    c_x = _first_diff(lambda x: cost(x, G, E, e), x0, hx)
    c_xx = _second_diff(lambda x: cost(x, G, E, e), x0, hx)
    c_xg = _cross_partial(lambda x, g_: cost(x, g_, E, e), x0, G, hx, hg)
    c_xe = _cross_partial(lambda x, e_: cost(x, G, e_, e), x0, E, hx, he)
    c_ge = _cross_partial(lambda g_, e_: cost(x0, g_, e_, e), G, E, hg, he)

    return float(-(c_xx * x_g * x_e + c_xg * x_e + c_xe * x_g + c_x * x_ge + c_ge))


# ---------------------------------------------------------------------------
# Exact reduced form of the quadratic-cost specialization
# ---------------------------------------------------------------------------

REDUCED_FORM_TERMS = ["intercept", *TERM_MENU]


@dataclass(frozen=True)
class ReducedForm:
    """Coefficients of the mean outcome path on the 10-monomial basis."""
    intercept: float
    G: float
    E: float
    GxE: float
    G2: float
    E2: float
    G3: float
    E3: float
    G2E: float
    GE2: float

    def as_dict(self) -> dict[str, float]:
        return {t: getattr(self, t) for t in REDUCED_FORM_TERMS}

    def coefficients(self) -> np.ndarray:
        return np.array([getattr(self, t) for t in REDUCED_FORM_TERMS])


def reduced_form(p: StructuralParams) -> ReducedForm:
    """Collect Y = kappa*phi^2 + f_e*E + f_g*G + f_ge*G*E on the monomial basis.

    kappa = k_0 + k_e*E + k_g*G and phi = f_x + f_xe*E + f_xg*G on the
    e_k = e_f = 0 mean path; the expansion is exact in double precision.
    """
    fx, fxe, fxg = p.f_x, p.f_xe, p.f_xg
    k0, ke, kg = p.k_0, p.k_e, p.k_g
    return ReducedForm(
        intercept=k0 * fx * fx,
        G=p.f_g + 2 * k0 * fx * fxg + kg * fx * fx,
        E=p.f_e + 2 * k0 * fx * fxe + ke * fx * fx,
        GxE=p.f_ge + 2 * (k0 * fxe * fxg + ke * fx * fxg + kg * fx * fxe),
        G2=k0 * fxg * fxg + 2 * kg * fx * fxg,
        E2=k0 * fxe * fxe + 2 * ke * fx * fxe,
        G3=kg * fxg * fxg,
        E3=ke * fxe * fxe,
        G2E=ke * fxg * fxg + 2 * kg * fxe * fxg,
        GE2=kg * fxe * fxe + 2 * ke * fxe * fxg,
    )


def monomial_basis(G: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Design matrix over the 10 reduced-form terms, column order as REDUCED_FORM_TERMS."""
    _, cols = gxe_design(np.asarray(G, dtype=float), np.asarray(E, dtype=float), GxeModelSpec(terms=TERM_MENU))
    return np.column_stack(cols)


# ---------------------------------------------------------------------------
# Vectorized simulation on the quadratic path
# ---------------------------------------------------------------------------

def simulate_outcomes(
    p: StructuralParams,
    G: np.ndarray,
    E: np.ndarray,
    e_f_sd: float = 0.0,
    e_k_sd: float = 0.0,
    seed: int = 0,
    max_reject_rate: float = 0.01,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Draw shocks, resolve optima and outcomes for many agents at once.

    e_k draws that push the inverse cost non-positive are redrawn; the final
    rejection rate is returned and rates above max_reject_rate abort.
    """
    G = np.asarray(G, dtype=float)
    E = np.asarray(E, dtype=float)
    rng = child_rng(seed, 3)
    e_f = rng.standard_normal(G.shape) * e_f_sd if e_f_sd > 0 else np.zeros(G.shape)
    e_k = rng.standard_normal(G.shape) * e_k_sd if e_k_sd > 0 else np.zeros(G.shape)
    base = p.inverse_cost(G, E, 0.0)
    if np.any(base + e_k <= 0) and e_k_sd == 0:
        raise ModelDomainError("inverse cost non-positive on the shock-free path")
    n_redraw = 0
    if e_k_sd > 0:
        for _ in range(100):
            bad = base + e_k <= 0
            if not bad.any():
                break
            n_redraw += int(bad.sum())
            e_k[bad] = rng.standard_normal(int(bad.sum())) * e_k_sd
        else:
            raise SimulationError("inverse-cost rejection did not terminate")
    reject_rate = n_redraw / G.size if G.size else 0.0
    if reject_rate > max_reject_rate:
        raise SimulationError(f"inverse-cost rejection rate {reject_rate:.3%} exceeds {max_reject_rate:.1%}")
    inv_c = base + e_k
    phi = p.marginal_product(G, E)
    x = inv_c * phi
    Y = x * phi + p.f_e * E + p.f_g * G + p.f_ge * G * E + e_f
    V = Y - 0.5 * x * x / inv_c
    return x, Y, V, reject_rate
