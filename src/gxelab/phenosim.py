"""Trait and scenario simulation on top of simulated genomes.

Genetic values live in theoretically standardized dosage space
((dosage - 2*maf) / sqrt(2*maf*(1-maf))), which keeps parent and child
values on one scale across generations. A genetic value is computed as one
affine map of the int8 dosages, d @ (w/sd) - (2p) . (w/sd), so no
standardized n x J matrix is formed. The genetic-nurture channel can load
on a weight vector partially distinct from the direct effects (alignment
knob): with identical weightings a population-GWAS index is proportional to
the direct index and several estimation biases cannot materialize at all.

A scenario cohort is one int8 dosage block of children, mothers and fathers,
whose genetic values on all the scenario's weightings come from one matmul.
Pedigrees are cached per cohort size and the panel structure per SNP count.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass, replace
from typing import Callable

import numpy as np

from .genome import GenotypeMatrix, Panel, Pedigree, build_panel, founder_planes, transmit_planes
from .util import ConfigError, Seed, Stream, child_rng, substream, write_tsv

G_REGIMES = ("trio_pgi_family_controls", "regular_pgi_family_controls", "regular_pgi_no_family")
E_REGIMES = ("exogenous", "predetermined", "endogenous_active_rge",
             "endogenous_correlated", "endogenous_gwas_selection")


def theoretical_standardize(g: GenotypeMatrix | Cohort, weights: np.ndarray) -> np.ndarray:
    """Genetic values sum_j w_j (d_ij - 2p_j) / sd_j of g's int8 dosages, with
    the panel's MAF-implied moments (not sample ones), as d @ (w/sd) - (2p) . (w/sd).
    Weights (J,) give (n,) values: einsum casts the dosages in buffered chunks,
    so no n x J float matrix is allocated. Weights (J, K) give (n, K) values
    from one matmul."""
    scaled = (weights.T / g.panel.sd).T
    raw = np.einsum("ij,j->i", g.dosages, scaled) if scaled.ndim == 1 else g.dosages @ scaled
    return raw - 2 * g.panel.maf @ scaled


def empirical_standardize(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    sd = v.std()
    if sd == 0:
        raise ConfigError("cannot standardize a constant vector")
    return (v - v.mean()) / sd


@dataclass(frozen=True)
class TraitArchitecture:
    causal_snp_ids: tuple[str, ...]
    effects: np.ndarray  # aligned with causal_snp_ids
    target_h2: float

    def __post_init__(self):
        if not (0.0 <= self.target_h2 < 1.0):
            raise ConfigError(f"target_h2 {self.target_h2} outside [0, 1)")
        if len(self.causal_snp_ids) != len(self.effects):
            raise ConfigError("causal ids and effects differ in length")

    @classmethod
    def random(cls, panel: Panel, n_causal: int, target_h2: float, seed: Seed) -> "TraitArchitecture":
        if not 0 < n_causal <= len(panel):
            raise ConfigError(f"n_causal {n_causal} outside 1..{len(panel)} (the panel's SNP count)")
        rng = child_rng(seed, Stream.TRAIT_ARCHITECTURE)
        idx = np.sort(rng.choice(len(panel), size=n_causal, replace=False))
        effects = rng.standard_normal(n_causal)
        effects /= np.linalg.norm(effects)
        return cls(tuple(panel.ids[j] for j in idx), effects, target_h2)

    def effect_vector(self, panel: Panel) -> np.ndarray:
        """Effects expanded to panel order; unknown causal ids are an error."""
        vec = np.zeros(len(panel))
        vec[panel.columns(self.causal_snp_ids, "causal SNPs")] = self.effects
        return vec


def genetic_values(g: GenotypeMatrix, arch: TraitArchitecture) -> np.ndarray:
    """Raw genetic value: standardized dosages weighted by the true effects."""
    return theoretical_standardize(g, arch.effect_vector(g.panel))


def simulate_trait(g: GenotypeMatrix, arch: TraitArchitecture, seed: Seed) -> np.ndarray:
    """Additive trait with noise calibrated analytically to the target
    heritability; returned standardized (mean 0, variance 1)."""
    rng = child_rng(seed, Stream.TRAIT_NOISE)
    gv = genetic_values(g, arch)
    h2 = arch.target_h2
    if h2 == 0.0:
        y = rng.standard_normal(g.n_individuals)
    else:
        noise_var = gv.var() * (1.0 - h2) / h2
        y = gv + rng.standard_normal(g.n_individuals) * np.sqrt(noise_var)
    return empirical_standardize(y)


@dataclass(frozen=True)
class NurtureParams:
    delta: float
    eta_m: float = 0.0
    eta_f: float = 0.0
    w: float = 0.0
    gamma: float = 0.0

    def __post_init__(self):
        if not all(np.isfinite([self.delta, self.eta_m, self.eta_f, self.w, self.gamma])):
            raise ConfigError("nurture parameters must be finite")


def simulate_family_outcome(
    children: GenotypeMatrix,
    parents: GenotypeMatrix,
    pedigree: Pedigree,
    arch: TraitArchitecture,
    nurture: NurtureParams,
    seed: Seed,
) -> np.ndarray:
    """Y_i = delta*GV_i + eta_m*GV_m + eta_f*GV_f + w*U_fam + gamma*GV_sib + N(0, 1) noise.

    Genetic values are standardized per cohort; the sibling term requires a
    sibling-pairs pedigree. Y is returned in model units (not standardized).
    """
    if nurture.gamma != 0.0 and pedigree.design != "sibling-pairs":
        raise ConfigError("sibling spillover requested without a sibling-pairs design")
    gv_c = empirical_standardize(genetic_values(children, arch))
    gv_parents = genetic_values(parents, arch)
    scale_mean, scale_sd = gv_parents.mean(), gv_parents.std()
    mi = parents.index_of(pedigree.mother_ids)
    fi = parents.index_of(pedigree.father_ids)
    gv_m = (gv_parents[mi] - scale_mean) / scale_sd
    gv_f = (gv_parents[fi] - scale_mean) / scale_sd

    rng = child_rng(seed, Stream.FAMILY_OUTCOME)
    fam_labels, fam_inv = np.unique(pedigree.family_ids, return_inverse=True)
    u_fam = rng.standard_normal(len(fam_labels))[fam_inv]

    y = (nurture.delta * gv_c + nurture.eta_m * gv_m + nurture.eta_f * gv_f
         + nurture.w * u_fam)
    if nurture.gamma != 0.0:
        pairs = np.argsort(fam_inv, kind="stable").reshape(-1, 2)  # a sibling-pairs family's two rows
        sib_of = np.empty(len(pedigree.child_ids), dtype=np.intp)
        sib_of[pairs] = pairs[:, ::-1]
        y = y + nurture.gamma * gv_c[sib_of]
    return y + rng.standard_normal(len(y))


# ---------------------------------------------------------------------------
# Table-1 scenario datasets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioSpec:
    g_regime: str
    e_regime: str
    beta_g: float = 0.259
    beta_e: float = 0.6
    beta_x: float = 0.15
    eta_m: float = 0.0
    eta_f: float = 0.0
    w: float = 0.0
    nurture_alignment: float = 0.6   # corr between nurture and direct SNP weightings
    corr_e_estar: float = 0.5        # predetermined / endogenous_correlated
    beta_estar: float = 0.3          # effect of the unobserved correlated environment
    a_parent: float = 0.3            # predetermined: loading of E on midparent GV
    rho_active: float = 0.4          # active rGE: loading of E on child GV
    arm_share: float = 0.3           # gwas-selection: arm-specific effect size share
    treated_share: float = 0.5
    noise_sd: float = 1.0

    def __post_init__(self):
        if self.g_regime not in G_REGIMES:
            raise ConfigError(f"unknown g_regime {self.g_regime!r}; expected one of {G_REGIMES}")
        if self.e_regime not in E_REGIMES:
            raise ConfigError(f"unknown e_regime {self.e_regime!r}; expected one of {E_REGIMES}")
        if not (0.0 <= self.nurture_alignment <= 1.0):
            raise ConfigError("nurture_alignment must be in [0, 1]")
        a, b = self.a_parent, self.corr_e_estar
        if self.e_regime == "predetermined" and not a * a + b * b <= 1.0:
            raise ConfigError("a_parent^2 + corr_e_estar^2 must be <= 1")
        name = {"endogenous_active_rge": "rho_active", "endogenous_correlated": "corr_e_estar"}.get(self.e_regime)
        if name is not None and not abs(getattr(self, name)) <= 1.0:
            raise ConfigError(f"{name} must be in [-1, 1] under {self.e_regime}, got {getattr(self, name)}")

    def with_(self, **kw) -> "ScenarioSpec":
        return replace(self, **kw)

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        data = json.loads(text)
        expected = set(cls.__dataclass_fields__)
        if set(data) != expected:
            raise ConfigError(f"scenario spec must have exactly fields {sorted(expected)}")
        return cls(**data)


@dataclass(frozen=True)
class CohortSizes:
    n_discovery: int
    n_analysis: int
    n_snps: int = 300

    def __post_init__(self):
        if min(self.n_discovery, self.n_analysis) < 1 or self.n_snps < 2:
            raise ConfigError(f"cohort sizes need n >= 1 and n_snps >= 2, got {self}")


@dataclass
class Cohort:
    """n trios as one (3n, J) int8 dosage block: children in rows 0..n-1, their
    mothers in n..2n-1 and their fathers in 2n..3n-1, so family i is rows i,
    n+i and 2n+i. values holds every member's genetic values (3n, K) on the
    scenario's weightings: direct, nurture and, under gwas selection, arm."""
    dosages: np.ndarray
    panel: Panel
    pedigree: Pedigree
    values: np.ndarray | None = None
    y: np.ndarray | None = None
    e: np.ndarray | None = None
    estar: np.ndarray | None = None

    @property
    def ids(self) -> list[str]:
        return self.pedigree.child_ids

    def genotypes(self) -> tuple[GenotypeMatrix, GenotypeMatrix]:
        """The children, and the parents (mothers, then fathers), as genotype
        matrices whose planes are rebuilt from the dosages as a genotype file is read."""
        p, n = self.pedigree, len(self.ids)
        return tuple(GenotypeMatrix(ids, self.panel, np.stack([d >= 1, d == 2]))
                     for ids, d in ((p.child_ids, self.dosages[:n]), (p.mother_ids + p.father_ids, self.dosages[n:])))


@dataclass
class ScenarioDataset:
    spec: ScenarioSpec
    direct_weights: np.ndarray    # unit vector, per-SNP direct effects
    arm_weights: np.ndarray | None
    analysis: Cohort
    discovery: Callable[[], Cohort]  # draws the discovery cohort on its first call; only a caller that reads it pays


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


@functools.cache
def _unlinked_panel(n_snps: int) -> Panel:
    """n_snps single-SNP blocks, checked once; each scenario sets its MAFs (Panel.with_maf)."""
    return build_panel([1] * n_snps, 0.5)


@functools.cache
def _trio_pedigree(prefix: str, n: int) -> Pedigree:
    """Trio pedigree of n families: child {prefix}c{i} of mother {prefix}p{i} and
    father {prefix}p{n+i}. Validated once per (prefix, n) and shared by every
    cohort of that size, so it is read-only."""
    parent_ids = [f"{prefix}p{i}" for i in range(2 * n)]
    return Pedigree(child_ids=[f"{prefix}c{i}" for i in range(n)], mother_ids=parent_ids[:n],
                    father_ids=parent_ids[n:], family_ids=[f"{prefix}fam{i}" for i in range(n)], design="trios")


def _trio_dosages(panel: Panel, n: int, seed: Seed) -> np.ndarray:
    """The dosage block of n trios (see Cohort). The 2n founders are the mothers,
    then the fathers, so the parents are a (2, 2, n, J) view of their planes."""
    founders = founder_planes(panel, 0.0, 2 * n, seed)
    children = transmit_planes(founders.reshape(2, 2, n, len(panel)), panel, seed)
    dosages = np.empty((3 * n, len(panel)), dtype=np.int8)
    np.add(children[0], children[1], out=dosages[:n], dtype=np.int8)
    np.add(founders[0], founders[1], out=dosages[n:], dtype=np.int8)
    return dosages


def simulate_scenario(spec: ScenarioSpec, sizes: CohortSizes, seed: Seed) -> ScenarioDataset:
    """One Table-1 cell's data over unlinked SNPs with MAF ~ U(0.2, 0.5): a
    discovery cohort (for GWAS weights) and a disjoint analysis cohort with
    outcome, environment and confounds. Each cohort's genomes come from the
    substream (SCENARIO_COHORT, cohort), the discovery cohort's once, on its first call."""
    rng = child_rng(seed, Stream.SCENARIO)
    panel_rng = child_rng(seed, Stream.SCENARIO_PANEL)
    panel = _unlinked_panel(sizes.n_snps).with_maf(panel_rng.uniform(0.2, 0.5, size=sizes.n_snps))

    d = _unit(panel_rng.standard_normal(sizes.n_snps))
    a_orth = panel_rng.standard_normal(sizes.n_snps)
    a_orth = _unit(a_orth - (a_orth @ d) * d)
    align = spec.nurture_alignment
    m = align * d + np.sqrt(1.0 - align**2) * a_orth
    s_arm = None
    if spec.e_regime == "endogenous_gwas_selection":
        s_raw = panel_rng.standard_normal(sizes.n_snps)
        s_arm = _unit(s_raw - (s_raw @ d) * d)
    weights = np.column_stack([d, m] if s_arm is None else [d, m, s_arm])

    disc_draws = _outcome_draws(spec, sizes.n_discovery, rng)
    ana = _cohort(spec, panel, weights, "a", substream(seed, Stream.SCENARIO_COHORT, 1),
                  _outcome_draws(spec, sizes.n_analysis, rng))

    @functools.cache
    def discovery() -> Cohort:
        disc = _cohort(spec, panel, weights, "d", substream(seed, Stream.SCENARIO_COHORT, 0), disc_draws)
        if spec.e_regime == "endogenous_gwas_selection":
            disc = _subset_cohort(disc, np.nonzero(disc.e == 1.0)[0])
        return disc

    return ScenarioDataset(spec=spec, direct_weights=d, arm_weights=s_arm, analysis=ana, discovery=discovery)


def _outcome_draws(spec: ScenarioSpec, n: int, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """A cohort's draws from the scenario stream, in stream order: family
    effect, outcome noise, E*, then E's own draw (uniform for a binary E)."""
    binary = spec.e_regime in ("exogenous", "endogenous_gwas_selection")
    return (rng.standard_normal(n), rng.standard_normal(n) * spec.noise_sd, rng.standard_normal(n),
            rng.random(n) if binary else rng.standard_normal(n))


def _cohort(spec, panel, weights, prefix, cohort_seed, draws) -> Cohort:
    fam_u, noise, estar, e_draw = draws
    n = len(fam_u)
    cohort = Cohort(_trio_dosages(panel, n, cohort_seed), panel, _trio_pedigree(prefix, n), estar=estar)
    cohort.values = theoretical_standardize(cohort, weights)
    dv_c, dv_m, dv_f = cohort.values[:, 0].reshape(3, n)
    nv_m, nv_f = cohort.values[n:, 1].reshape(2, n)

    if spec.e_regime in ("exogenous", "endogenous_gwas_selection"):
        e = (e_draw < spec.treated_share).astype(float)
    elif spec.e_regime == "predetermined":
        a, b = spec.a_parent, spec.corr_e_estar
        midparent = (dv_m + dv_f) / np.sqrt(2.0)
        e = a * midparent + b * estar + np.sqrt(1.0 - a * a - b * b) * e_draw
    elif spec.e_regime == "endogenous_active_rge":
        rho = spec.rho_active
        e = rho * dv_c + np.sqrt(1.0 - rho * rho) * e_draw
    else:  # endogenous_correlated
        r = spec.corr_e_estar
        e = r * estar + np.sqrt(1.0 - r * r) * e_draw

    y = (spec.beta_g * dv_c + spec.beta_e * e + spec.beta_x * dv_c * e
         + spec.eta_m * nv_m + spec.eta_f * nv_f + spec.w * fam_u + noise)
    if spec.e_regime in ("predetermined", "endogenous_correlated"):
        y = y + spec.beta_estar * estar
    if spec.e_regime == "endogenous_gwas_selection":
        y = y + spec.beta_g * spec.arm_share * cohort.values[:n, 2] * e
    cohort.y, cohort.e = y, e
    return cohort


def _subset_cohort(c: Cohort, idx: np.ndarray) -> Cohort:
    """Families idx of a cohort: rows idx of each member's part of the block."""
    p, n = c.pedigree, len(c.ids)
    rows = np.concatenate([idx, n + idx, 2 * n + idx])
    ped = Pedigree(*([col[i] for i in idx] for col in (p.child_ids, p.mother_ids, p.father_ids, p.family_ids)),
                   design=p.design)
    return Cohort(c.dosages[rows], c.panel, ped, c.values[rows], c.y[idx], c.e[idx], c.estar[idx])


def treated_indicator(e: np.ndarray) -> np.ndarray:
    """Binary arm marker: the environment itself when already 0/1, else e >= 0."""
    vals = np.unique(e)
    if np.all(np.isin(vals, (0.0, 1.0))):
        return e.astype(int)
    return (e >= 0.0).astype(int)


def write_cohort_tsv(path: str, cohort: Cohort) -> None:
    """Cohort export: iid family Y E Estar treated. Dosages are written
    separately (genotype TSV) and referenced by the run manifest."""
    columns = (cohort.y.tolist(), cohort.e.tolist(), cohort.estar.tolist(), treated_indicator(cohort.e).tolist())
    write_tsv(path, ["iid", "family", "Y", "E", "Estar", "treated"], zip(cohort.ids, cohort.pedigree.family_ids, *columns))
