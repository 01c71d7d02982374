"""Monte Carlo bias harness for the nine estimation scenarios.

Each cell runs the full pipeline per replicate: simulate a scenario dataset,
derive discovery weights for the cell's index regime, build standardized
indices for the analysis cohort (child plus parents when the regime controls
for family), fit the interaction model, and compare mean estimates with the
generating values.

Discovery weights default to the probability limit of the design's per-SNP
estimand (an infinite discovery cohort): the scenario taxonomy abstracts
from classical index measurement error, and finite-discovery sampling noise
attenuates every cell -- including the ones that should read as unbiased.
discovery="finite" runs the literal GWAS on the simulated discovery cohort
instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .genome import GenotypeMatrix
from .gwas import GwasResult, result_from_stats, run_gwas, run_trio_gwas
from .gxe import GxeModelSpec, fit_gxe, rge_check
from .pgi import build_pgi, incremental_r2
from .phenosim import (CohortSizes, ScenarioDataset, ScenarioSpec,
                       simulate_scenario, treated_indicator)
from .util import (CalibrationError, ConfigError, EstimationError, PedigreeError, SimulationError,
                   child_rng, indexed_map)

DEFAULT_SIZES = CohortSizes(n_discovery=64, n_analysis=2000, n_snps=120)
E_COLUMNS = ("exogenous", "predetermined", "endogenous_correlated")
G_ROWS = ("trio_pgi_family_controls", "regular_pgi_family_controls", "regular_pgi_no_family")


@dataclass
class CoefficientReport:
    true_value: float
    mean_estimate: float
    mc_se: float

    @property
    def bias(self) -> float:
        return self.mean_estimate - self.true_value

    @property
    def verdict(self) -> str:
        if abs(self.bias) >= 3 * self.mc_se:
            return "up" if self.bias > 0 else "down"
        return "unbiased" if self.mc_se <= 0.02 else "ambiguous"


@dataclass
class BiasReport:
    g: CoefficientReport
    e: CoefficientReport
    gxe: CoefficientReport
    reps: int
    n_failed: int
    spec: ScenarioSpec

    def verdicts(self) -> dict[str, str]:
        return {"G": self.g.verdict, "E": self.e.verdict, "GxE": self.gxe.verdict}

    def as_dict(self) -> dict:
        def coef(c: CoefficientReport):
            return {"true": c.true_value, "mean": c.mean_estimate, "bias": c.bias,
                    "mc_se": c.mc_se, "verdict": c.verdict}
        return {"G": coef(self.g), "E": coef(self.e), "GxE": coef(self.gxe),
                "reps": self.reps, "failed": self.n_failed,
                "g_regime": self.spec.g_regime, "e_regime": self.spec.e_regime}


def _dosage_sd(panel) -> np.ndarray:
    p = np.array([s.maf for s in panel])
    return np.sqrt(2 * p * (1 - p))


def _population_plim(ds: ScenarioDataset, arm_scale: float) -> np.ndarray:
    """Infinite-discovery slopes of a population GWAS: the direct effect plus
    half the summed nurture loadings, plus the arm-specific component (present
    only in the gwas-selection regime) at arm_scale times its full size."""
    spec = ds.spec
    sd = _dosage_sd(ds.panel)
    w = (spec.beta_g * ds.direct_weights + 0.5 * (spec.eta_m + spec.eta_f) * ds.nurture_weights) / sd
    if ds.arm_weights is not None:
        w = w + spec.beta_g * spec.arm_share * arm_scale * ds.arm_weights / sd
    return w


def plim_weights(ds: ScenarioDataset) -> GwasResult:
    """Infinite-discovery per-SNP slopes for the dataset's index regime.

    trio designs estimate the direct per-dosage effect; a population GWAS
    additionally picks up half the summed nurture loadings, and an
    arm-restricted discovery picks up the arm-specific component in full.
    """
    spec = ds.spec
    if spec.g_regime == "trio_pgi_family_controls":
        w = spec.beta_g * ds.direct_weights / _dosage_sd(ds.panel)
    else:
        w = _population_plim(ds, 1.0)
    return result_from_stats(ds.panel, w, np.ones_like(w), 0, f"plim_{spec.g_regime}")


def balanced_plim_weights(ds: ScenarioDataset) -> GwasResult:
    """Remedy weights: discovery drawn from both arms, so the arm-specific
    component enters at the treated share instead of fully."""
    w = _population_plim(ds, ds.spec.treated_share)
    return result_from_stats(ds.panel, w, np.ones_like(w), 0, "plim_balanced")


def finite_weights(ds: ScenarioDataset) -> GwasResult:
    disc = ds.discovery
    if ds.spec.g_regime == "trio_pgi_family_controls":
        parents = GenotypeMatrix(disc.mothers.ids + disc.fathers.ids, ds.panel,
                                 np.concatenate([disc.mothers.haplotypes, disc.fathers.haplotypes]))
        return run_trio_gwas(disc.children, parents, disc.pedigree, disc.y)
    return run_gwas(disc.children, disc.y)


def _fit_cell(ds: ScenarioDataset, weights: GwasResult) -> dict[str, float]:
    spec = ds.spec
    ana = ds.analysis
    child = build_pgi(weights, ana.children)
    data = {"Y": ana.y, "G": child.values, "E": ana.e}
    controls: tuple[str, ...] = ()
    if spec.g_regime in ("trio_pgi_family_controls", "regular_pgi_family_controls"):
        data["pgi_m"] = build_pgi(weights, ana.mothers).values
        data["pgi_f"] = build_pgi(weights, ana.fathers).values
        controls = ("pgi_m", "pgi_f")
    fit = fit_gxe(data, GxeModelSpec(controls=controls))
    return {"G": fit.coef("G"), "E": fit.coef("E"), "GxE": fit.coef("GxE")}


_REPLICATE_ERRORS = (ConfigError, PedigreeError, EstimationError, SimulationError, CalibrationError,
                    np.linalg.LinAlgError)


def _run_replicates(reps: int, seed: int, tag: int, threads: int,
                    fit: Callable[[np.random.Generator], dict]) -> list[dict]:
    """fit(child_rng(seed, tag, r)) for every replicate r, in replicate order.

    A replicate that raises a simulation or estimation error counts as
    failed and is left out; more than 1% failures (at least 2) raise
    SimulationError. Any other exception is a bug and propagates.
    """
    rows: list[dict | None] = [None] * reps

    def work(r: int):
        try:
            rows[r] = fit(child_rng(seed, tag, r))
        except _REPLICATE_ERRORS:
            pass  # left as None: counted against the failure cap

    indexed_map(work, reps, threads)
    ok = [r for r in rows if r is not None]
    n_failed = reps - len(ok)
    if n_failed > max(1, int(0.01 * reps)):
        raise SimulationError(f"{n_failed}/{reps} replicates failed")
    return ok


def _bias_report(spec: ScenarioSpec, ok: list[dict], reps: int) -> BiasReport:
    def report(term: str, true_value: float) -> CoefficientReport:
        vals = np.array([r[term] for r in ok])
        return CoefficientReport(true_value=true_value, mean_estimate=float(vals.mean()),
                                 mc_se=float(vals.std(ddof=1) / np.sqrt(len(vals))))

    return BiasReport(g=report("G", spec.beta_g), e=report("E", spec.beta_e), gxe=report("GxE", spec.beta_x),
                      reps=len(ok), n_failed=reps - len(ok), spec=spec)


def run_cell(
    spec: ScenarioSpec,
    reps: int,
    seed: int,
    sizes: CohortSizes = DEFAULT_SIZES,
    discovery: str = "plim",
    threads: int = 1,
) -> BiasReport:
    """Replicated pipeline for one scenario cell."""
    if discovery not in ("plim", "finite"):
        raise ConfigError(f"unknown discovery mode {discovery!r}")
    weights = plim_weights if discovery == "plim" else finite_weights

    def fit(rng: np.random.Generator) -> dict:
        ds = simulate_scenario(spec, sizes, seed=int(rng.integers(2**31)))
        return _fit_cell(ds, weights(ds))

    return _bias_report(spec, _run_replicates(reps, seed, 61, threads, fit), reps)


@dataclass
class TableReport:
    cells: dict[tuple[str, str], BiasReport]

    def sign_matrix(self) -> dict[str, dict[str, str]]:
        out: dict[str, dict[str, str]] = {}
        for (row, col), report in self.cells.items():
            out.setdefault(row, {})[col] = f"G:{report.g.verdict} E:{report.e.verdict}"
        return out

    def as_dict(self) -> dict:
        return {f"{row}|{col}": rep.as_dict() for (row, col), rep in self.cells.items()}

    def to_tsv_rows(self) -> list[list]:
        rows = [["g_regime", "e_regime", "coef", "true", "mean", "bias", "mc_se", "verdict"]]
        for (row, col), rep in self.cells.items():
            for name, c in (("G", rep.g), ("E", rep.e), ("GxE", rep.gxe)):
                rows.append([row, col, name, c.true_value, c.mean_estimate, c.bias, c.mc_se, c.verdict])
        return rows


def run_table(
    base: ScenarioSpec,
    reps: int,
    seed: int,
    sizes: CohortSizes = DEFAULT_SIZES,
    discovery: str = "plim",
    threads: int = 1,
) -> TableReport:
    """All nine cells with shared effect sizes and confound strengths."""
    cells = {}
    for i, row in enumerate(G_ROWS):
        for j, col in enumerate(E_COLUMNS):
            spec = base.with_(g_regime=row, e_regime=col)
            cells[(row, col)] = run_cell(spec, reps, seed + 101 * i + 17 * j, sizes, discovery, threads)
    return TableReport(cells=cells)


def overcontrol_experiment(
    delta: float,
    eta_m: float,
    eta_f: float,
    reps: int,
    seed: int,
    sizes: CohortSizes = DEFAULT_SIZES,
    trio_weights: bool = False,
) -> BiasReport:
    """Parental-index controls with a population-GWAS index: the child
    coefficient reads low when nurture is active, and recovers with
    trio-design weights."""
    g_regime = "trio_pgi_family_controls" if trio_weights else "regular_pgi_family_controls"
    spec = ScenarioSpec(g_regime=g_regime, e_regime="exogenous",
                        beta_g=delta, eta_m=eta_m, eta_f=eta_f)
    return run_cell(spec, reps, seed, sizes)


def noisy_environment_experiment(
    beta_e: float,
    beta_x: float,
    reliability: float,
    n: int,
    reps: int,
    seed: int,
    beta_g: float = 0.259,
) -> tuple[float, float]:
    """Classical measurement error in a continuous environment: returns the
    mean fitted (E, GxE) coefficients, each expected to shrink by the
    reliability factor."""
    if not (0.0 < reliability <= 1.0):
        raise ConfigError("reliability must be in (0, 1]")
    noise_var = (1.0 - reliability) / reliability

    def fit(rng: np.random.Generator) -> dict:
        G = rng.standard_normal(n)
        e_true = rng.standard_normal(n)
        y = beta_g * G + beta_e * e_true + beta_x * G * e_true + rng.standard_normal(n)
        e_obs = e_true + rng.standard_normal(n) * np.sqrt(noise_var)
        return fit_gxe({"Y": y, "G": G, "E": e_obs}, GxeModelSpec()).coefficients

    ok = _run_replicates(reps, seed, 69, 1, fit)
    return float(np.mean([r["E"] for r in ok])), float(np.mean([r["GxE"] for r in ok]))


@dataclass
class SelectionDiagnostics:
    fitted_gxe: float
    fitted_gxe_mc_se: float
    r2_treated: float
    r2_control: float
    rge_corr: float
    rge_significant_share: float
    remedy_gxe: float
    reduction_share: float


def gwas_selection_experiment(
    spec: ScenarioSpec,
    reps: int,
    seed: int,
    sizes: CohortSizes = DEFAULT_SIZES,
    threads: int = 1,
) -> tuple[BiasReport, SelectionDiagnostics]:
    """Arm-restricted discovery: the fitted interaction turns positive with
    no trait-level interaction, the index predicts better in the matched arm,
    the exogenous-environment rGE check stays null, and arm-balanced
    discovery shrinks the interaction."""
    if spec.e_regime != "endogenous_gwas_selection":
        raise ConfigError("experiment requires the endogenous_gwas_selection regime")

    def fit(rng: np.random.Generator) -> dict:
        ds = simulate_scenario(spec, sizes, seed=int(rng.integers(2**31)))
        ana = ds.analysis
        w = plim_weights(ds)
        child = build_pgi(w, ana.children)
        treated = treated_indicator(ana.e)
        r2 = {arm: incremental_r2(child.values[treated == arm], ana.y[treated == arm]) for arm in (0, 1)}
        corr, _, p = rge_check(child.values, ana.e)
        remedy = _fit_cell(ds, balanced_plim_weights(ds))
        return {**_fit_cell(ds, w), "r2_treated": r2[1], "r2_control": r2[0],
                "rge_corr": corr, "rge_sig": p < 0.05, "remedy_gxe": remedy["GxE"]}

    ok = _run_replicates(reps, seed, 67, threads, fit)
    bias = _bias_report(spec, ok, reps)
    fitted = bias.gxe.mean_estimate
    remedy_mean = float(np.mean([r["remedy_gxe"] for r in ok]))
    diag = SelectionDiagnostics(
        fitted_gxe=fitted,
        fitted_gxe_mc_se=bias.gxe.mc_se,
        r2_treated=float(np.mean([r["r2_treated"] for r in ok])),
        r2_control=float(np.mean([r["r2_control"] for r in ok])),
        rge_corr=float(np.mean([r["rge_corr"] for r in ok])),
        rge_significant_share=float(np.mean([r["rge_sig"] for r in ok])),
        remedy_gxe=remedy_mean,
        reduction_share=1.0 - abs(remedy_mean) / max(abs(fitted), 1e-12),
    )
    return bias, diag
