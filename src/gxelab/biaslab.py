"""Monte Carlo bias harness for the nine estimation scenarios.

A cell's data do not depend on its index regime, so the cells of a table
column share one replicate loop (run_cells): each replicate simulates one
dataset, computes each distinct index once, and per cell standardizes the
analysis cohort's index per member (child, plus parents when the regime
controls for family) and builds and fits the interaction design
(regress.ols_beta, coefficients only) inside the draw, so no dataset or
design outlives its replicate. Mean estimates are compared with the
generating values; each cell's replicates are iid, and the cells of a
column are dependent by design.

The index defaults to the probability limit of the design's per-SNP
estimand (an infinite discovery cohort), a combination of the cohort's
genetic values: the scenario taxonomy abstracts from classical index
measurement error, and finite-discovery sampling noise attenuates every
cell -- including the ones that should read as unbiased. discovery="finite"
runs the literal GWAS on the simulated discovery cohort instead; only then
are the discovery genomes drawn.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .gwas import run_gwas, run_trio_gwas
from .gxe import GxeModelSpec, gxe_design, rge_check
from .pgi import incremental_r2
from .phenosim import CohortSizes, ScenarioDataset, ScenarioSpec, simulate_scenario, treated_indicator
from .regress import ols_beta
from .util import (ConfigError, EstimationError, Seed, SimulationError, Stream, check_failures, child_rng, indexed_map,
                   substream)

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


def _population_plim(ds: ScenarioDataset, arm_scale: float) -> np.ndarray:
    """Infinite-discovery index of a population GWAS on the analysis cohort:
    the direct effect plus half the summed nurture loadings, plus the
    arm-specific component (present only in the gwas-selection regime) at
    arm_scale times its full size, as a combination of the genetic values."""
    spec, values = ds.spec, ds.analysis.values
    loadings = [spec.beta_g, 0.5 * (spec.eta_m + spec.eta_f), spec.beta_g * spec.arm_share * arm_scale]
    return values @ np.array(loadings[:values.shape[1]])


def plim_index(ds: ScenarioDataset) -> np.ndarray:
    """Raw infinite-discovery index values (3n,) of the analysis cohort for
    the dataset's index regime.

    trio designs estimate the direct per-dosage effect; a population GWAS
    additionally picks up half the summed nurture loadings, and an
    arm-restricted discovery picks up the arm-specific component in full.
    """
    if ds.spec.g_regime == "trio_pgi_family_controls":
        return ds.spec.beta_g * ds.analysis.values[:, 0]
    return _population_plim(ds, 1.0)


def balanced_plim_index(ds: ScenarioDataset) -> np.ndarray:
    """Remedy index: discovery drawn from both arms, so the arm-specific
    component enters at the treated share instead of fully."""
    return _population_plim(ds, ds.spec.treated_share)


def finite_index(ds: ScenarioDataset) -> np.ndarray:
    """Index from the literal GWAS on the discovery cohort: the analysis
    cohort's dosages weighted by the per-dosage slopes."""
    disc = ds.discovery()
    children, parents = disc.genotypes()
    if ds.spec.g_regime == "trio_pgi_family_controls":
        gwas = run_trio_gwas(children, parents, disc.pedigree, disc.y)
    else:
        gwas = run_gwas(children, disc.y)
    return ds.analysis.dosages @ gwas.beta


def _cell_design(ds: ScenarioDataset, index: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The cell's G×E design from the analysis cohort's index values (3n,)
    standardized per member as build_pgi does: the child's as G, the parents'
    as controls when the regime controls for family."""
    family = ds.spec.g_regime in ("trio_pgi_family_controls", "regular_pgi_family_controls")
    raw = index.reshape(3, -1)[:3 if family else 1]
    sd = raw.std(axis=1, keepdims=True)
    if (sd == 0.0).any():
        raise ConfigError("polygenic index has zero variance on this sample")
    pgi = (raw - raw.mean(axis=1, keepdims=True)) / sd
    controls = dict(zip(("pgi_m", "pgi_f"), pgi[1:]))
    names, cols = gxe_design(pgi[0], ds.analysis.e, GxeModelSpec(controls=tuple(controls)), controls)
    return names, np.column_stack(cols)


def _fit(names: list[str], X: np.ndarray, y: np.ndarray) -> dict[str, float]:
    return dict(zip(names, map(float, ols_beta(y, X, names))))


_REPLICATE_ERRORS = (ConfigError, EstimationError, SimulationError, np.linalg.LinAlgError)


def _outcome(fn: Callable, *args):
    """fn(*args), or the simulation or estimation error it raised: a failed replicate."""
    try:
        return fn(*args)
    except _REPLICATE_ERRORS as e:
        return e


def _run_replicates(reps: int, threads: int, draw: Callable[[int], dict | list], cells: int | None = None) -> list:
    """draw(r) for every replicate r, in replicate order; draw keys its draws
    by r under its own replicate stream. A replicate that raises a simulation
    or estimation error counts as failed and is left out, under
    util.check_failures. Any other exception is a bug and propagates. With
    cells = k, draw(r) returns one _outcome per cell and each cell gets its own
    fitted list and failure rule; a draw that raises fails in every cell.
    """
    if reps < 2:
        raise ConfigError(f"reps must be >= 2 for a Monte Carlo SE, got {reps}")

    def work(r: int) -> list:
        out = _outcome(draw, r)
        return out if cells and not isinstance(out, Exception) else [out] * (cells or 1)

    fitted = []
    for outs in zip(*indexed_map(work, reps, threads)):
        check_failures([f"{type(e).__name__}: {e}" for e in outs if isinstance(e, Exception)], reps)
        fitted.append([o for o in outs if not isinstance(o, Exception)])
    return fitted if cells else fitted[0]


def _bias_report(spec: ScenarioSpec, ok: list[dict], reps: int) -> BiasReport:
    def report(term: str, true_value: float) -> CoefficientReport:
        vals = np.array([r[term] for r in ok])
        return CoefficientReport(true_value=true_value, mean_estimate=float(vals.mean()),
                                 mc_se=float(vals.std(ddof=1) / np.sqrt(len(vals))))

    return BiasReport(g=report("G", spec.beta_g), e=report("E", spec.beta_e), gxe=report("GxE", spec.beta_x),
                      reps=len(ok), n_failed=reps - len(ok), spec=spec)


def run_cells(specs: list[ScenarioSpec], reps: int, seed: Seed, sizes: CohortSizes = DEFAULT_SIZES,
              discovery: str = "plim", threads: int = 1) -> list[BiasReport]:
    """One report per spec, for specs that differ only in g_regime: replicate r
    simulates one dataset under (CELL_REPLICATE, r), computes the trio and the
    population index at most once each, and fits every cell on it."""
    if discovery not in ("plim", "finite"):
        raise ConfigError(f"unknown discovery mode {discovery!r}")
    if len({s.with_(g_regime=G_ROWS[0]) for s in specs}) != 1:
        raise ConfigError("the cells of one replicate loop may differ only in g_regime")
    index = plim_index if discovery == "plim" else finite_index

    def draw(r: int) -> list:
        ds = simulate_scenario(specs[0], sizes, substream(seed, Stream.CELL_REPLICATE, r))
        indexes = {}  # the trio (True) and population (False) index, each computed once

        def fit(cell: ScenarioDataset) -> dict:
            trio = cell.spec.g_regime == "trio_pgi_family_controls"
            if trio not in indexes:
                indexes[trio] = index(cell)
            return _fit(*_cell_design(cell, indexes[trio]), ds.analysis.y)

        return [_outcome(fit, replace(ds, spec=spec)) for spec in specs]

    fitted = _run_replicates(reps, threads, draw, len(specs))
    return [_bias_report(spec, ok, reps) for spec, ok in zip(specs, fitted)]


def run_cell(spec: ScenarioSpec, reps: int, seed: Seed, sizes: CohortSizes = DEFAULT_SIZES,
             discovery: str = "plim", threads: int = 1) -> BiasReport:
    """Replicated pipeline for one scenario cell: run_cells([spec], ...)[0]."""
    return run_cells([spec], reps, seed, sizes, discovery, threads)[0]


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


def run_table(base: ScenarioSpec, reps: int, seed: Seed, sizes: CohortSizes = DEFAULT_SIZES,
              discovery: str = "plim", threads: int = 1) -> TableReport:
    """All nine cells with shared effect sizes and confound strengths, row by
    row. Column j is one run_cells under the substream (BIAS_COLUMN, j): its
    cells' replicates are iid, the cells dependent by design (one dataset per
    replicate for every index regime), and the columns independent."""
    # every cell's spec is built, and so checked, before any replicate runs
    columns = [[base.with_(g_regime=row, e_regime=col) for row in G_ROWS] for col in E_COLUMNS]
    reports = [run_cells(specs, reps, substream(seed, Stream.BIAS_COLUMN, j), sizes, discovery, threads)
               for j, specs in enumerate(columns)]
    return TableReport(cells={(row, col): reports[j][i] for i, row in enumerate(G_ROWS)
                              for j, col in enumerate(E_COLUMNS)})


def overcontrol_experiment(
    delta: float,
    eta_m: float,
    eta_f: float,
    reps: int,
    seed: Seed,
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
    seed: Seed,
    beta_g: float = 0.259,
) -> tuple[float, float]:
    """Classical measurement error in a continuous environment: returns the
    mean fitted (E, GxE) coefficients, each expected to shrink by the
    reliability factor."""
    if not (0.0 < reliability <= 1.0):
        raise ConfigError("reliability must be in (0, 1]")
    noise_var = (1.0 - reliability) / reliability

    def draw(r: int) -> dict:
        rng = child_rng(seed, Stream.NOISE_REPLICATE, r)
        G = rng.standard_normal(n)
        e_true = rng.standard_normal(n)
        y = beta_g * G + beta_e * e_true + beta_x * G * e_true + rng.standard_normal(n)
        e_obs = e_true + rng.standard_normal(n) * np.sqrt(noise_var)
        names, cols = gxe_design(G, e_obs, GxeModelSpec())
        return _fit(names, np.column_stack(cols), y)

    ok = _run_replicates(reps, 1, draw)
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
    seed: Seed,
    sizes: CohortSizes = DEFAULT_SIZES,
    threads: int = 1,
) -> tuple[BiasReport, SelectionDiagnostics]:
    """Arm-restricted discovery: the fitted interaction turns positive with
    no trait-level interaction, the index predicts better in the matched arm,
    the exogenous-environment rGE check stays null, and arm-balanced
    discovery shrinks the interaction."""
    if spec.e_regime != "endogenous_gwas_selection":
        raise ConfigError("experiment requires the endogenous_gwas_selection regime")

    def draw(r: int) -> dict:
        ds = simulate_scenario(spec, sizes, substream(seed, Stream.SELECTION_REPLICATE, r))
        ana = ds.analysis
        names, X = _cell_design(ds, plim_index(ds))
        child = X[:, names.index("G")]
        treated = treated_indicator(ana.e)
        r2 = {arm: incremental_r2(child[treated == arm], ana.y[treated == arm]) for arm in (0, 1)}
        corr, _, p = rge_check(child, ana.e)
        remedy = _fit(*_cell_design(ds, balanced_plim_index(ds)), ana.y)  # when both fits fail, this error counts
        return {"remedy": remedy, "fit": _fit(names, X, ana.y), "r2_treated": r2[1],
                "r2_control": r2[0], "rge_corr": corr, "rge_sig": p < 0.05}

    ok = _run_replicates(reps, threads, draw)
    bias = _bias_report(spec, [r["fit"] for r in ok], reps)
    fitted = bias.gxe.mean_estimate
    remedy_mean = float(np.mean([r["remedy"]["GxE"] for r in ok]))
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
