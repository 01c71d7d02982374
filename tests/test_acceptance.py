"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest tests/test_acceptance.py -v -s` to see them all).

The power criteria (1a-2b) are posed under the data-generating process
documented in `gxelab.inference`: Y = beta_g*G + beta_e*E + beta_x*G*E + eps
with G, eps standard normal and E ~ Bernoulli(p). Criteria 1b and 2b assert
the power and MDE that this process implies analytically (`analytic_power`,
`analytic_effect`), each within a band derived from `reps` and `mde`'s
stopping rule that is narrower than the stated one. The stated figures,
0.75 +/- 0.05 and (0.15, 0.175], contradict that process and the rest of the
suite; their docstrings give the arithmetic and the derivation of each band.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from gxelab import biaslab as bl
from gxelab import genome, gwas, inference as inf
from gxelab import phenosim as ps
from gxelab import structural as sm
from gxelab.gxe import GxeModelSpec, RddSpec, fit_gxe, fit_rdd_gxe
from gxelab.pgi import oriv_estimate
from gxelab.regress import ols


def report(cid: str, desc: str, ok: bool, detail: str = "") -> None:
    print(f"\n[criterion {cid}] {desc}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {cid} ({desc}): {detail}"


def _interaction_precision(spec: inf.PowerSpec) -> float:
    """sqrt(n*p*(1-p)): the inverse standard error of the interaction
    estimate under the documented DGP (unit error variance)."""
    p = spec.treated_share
    return float(np.sqrt(spec.n * p * (1 - p)))


def analytic_power(spec: inf.PowerSpec) -> float:
    """Phi(beta_x*sqrt(n*p*(1-p)) - z_{1-alpha/2}); the opposite tail of the
    two-sided test is negligible at the effects asserted here."""
    z = stats.norm.ppf(1 - spec.alpha / 2)
    return float(stats.norm.cdf(spec.beta_x * _interaction_precision(spec) - z))


def analytic_effect(spec: inf.PowerSpec, power: float) -> float:
    """Interaction coefficient at which `analytic_power` equals `power`;
    at power 0.8 this is the analytic MDE."""
    z = stats.norm.ppf(1 - spec.alpha / 2)
    return float((stats.norm.ppf(power) + z) / _interaction_precision(spec))


# -- 1. power replication ----------------------------------------------------

def test_c1a_power_entry_assessment():
    t0 = time.time()
    spec = inf.PowerSpec(beta_g=0.259, beta_e=0.90, beta_x=0.225, n=1000,
                         treated_share=0.5, alpha=0.05, reps=2000)
    power = inf.power_simulate(spec, seed=1001)
    elapsed = time.time() - t0
    report("1a", "power > 0.90 at interaction 0.225, N=1000",
           power > 0.90 and elapsed < 60, f"power={power:.3f}, {elapsed:.1f}s")


def test_c1b_power_key_stage_one():
    """Power at beta_x=0.15, N=3500 matches the analytic power of the DGP.

    Stated target: 0.75 +/- 0.05. The analytic power here is
    Phi(0.15*sqrt(3500)/2 - 1.96) = 0.993; 75% would need beta_x ~= 0.089 or
    N ~= 1234. The rest of the suite contradicts the stated figure at this
    very spec: `test_matches_analytic_power` in test_inference asserts
    0.993 +/- 0.02, and c2a (like `TestMde.test_key_stage_sample_size`)
    asserts an 80%-power MDE <= 0.10, which for any power curve rising in
    beta_x forces power(0.15) > 0.8 up to Monte Carlo noise of order 1/reps.
    No power function passes both the stated c1b and c2a. The repository does
    not record which process produced the stated 0.75.

    Bound: the simulated power is a share of `reps` Bernoulli draws, so it is
    held to four binomial standard errors, 4*sqrt(a(1-a)/reps), of the
    analytic power a: +/-0.0073 against the stated +/-0.05.
    """
    spec = inf.PowerSpec(beta_g=0.259, beta_e=0.60, beta_x=0.15, n=3500,
                         treated_share=0.5, alpha=0.05, reps=2000)
    power = inf.power_simulate(spec, seed=1002)
    expected = analytic_power(spec)
    tol = 4 * np.sqrt(expected * (1 - expected) / spec.reps)
    report("1b", "power = analytic +/- 4 SE at interaction 0.15, N=3500",
           abs(power - expected) <= tol,
           f"power={power:.4f} (analytic {expected:.4f} +/- {tol:.4f})")


# -- 2. minimum detectable effect ---------------------------------------------

def test_c2a_mde_key_stage_sample():
    spec = inf.PowerSpec(beta_g=0.259, beta_e=0.60, beta_x=0.0, n=3500, reps=2000)
    value = inf.mde(spec, target_power=0.8, seed=1003, width_tol=0.005)
    report("2a", "80%-power MDE in (0.08, 0.10] at N=3500",
           0.08 < value <= 0.10, f"mde={value:.4f}")


def test_c2b_mde_entry_assessment_sample():
    """80%-power MDE at N=1000 lies in the band that `mde`'s stopping rule
    allows around the analytic MDE.

    Stated target: (0.15, 0.175]. The analytic MDE under the DGP is
    (z_.975 + z_.80)/sqrt(n*p*(1-p)) = 0.1772, above the stated upper edge
    (the analytic power at 0.175 is 0.790). `mde` returns dyadic bisection
    points; at seed 1004 (0.1758) and seeds 2000-2019 and 4000-4059 it
    returned values from 0.1719 to 0.1836, and only 6 of those 81 runs fell
    inside the stated band, so its failure is set by the DGP, not by seed
    luck. The repository does not record which process produced the stated
    band.

    Bound: `mde` returns the midpoint either once the simulated power there
    is within power_tol of the target, or once the bracket is narrower than
    width_tol. A simulated power lies within 3 SE = 3*sqrt(0.8*0.2/reps) of
    the true one, so the first exit returns an effect whose analytic power is
    within power_tol + 3 SE of 0.8, and the second a point within width_tol/2
    of a bracket straddling the effects at 0.8 -/+ 3 SE. With beta(.) the
    inverse of the analytic power, the MDE lies in
    (beta(0.8 - power_tol - 3 SE) - width_tol/2,
     beta(0.8 + power_tol + 3 SE) + width_tol/2] = (0.1668, 0.1885],
    of width 0.022 against the stated 0.025.
    """
    spec = inf.PowerSpec(beta_g=0.259, beta_e=0.90, beta_x=0.0, n=1000, reps=2000)
    target, power_tol, width_tol = 0.8, 0.01, 0.005
    value = inf.mde(spec, target_power=target, seed=1004,
                    power_tol=power_tol, width_tol=width_tol)
    slack = power_tol + 3 * np.sqrt(target * (1 - target) / spec.reps)
    lo = analytic_effect(spec, target - slack) - width_tol / 2
    hi = analytic_effect(spec, target + slack) + width_tol / 2
    report("2b", "80%-power MDE in the stopping-rule band around the analytic MDE, N=1000",
           lo < value <= hi,
           f"mde={value:.4f}, band ({lo:.4f}, {hi:.4f}], "
           f"analytic {analytic_effect(spec, target):.4f}")


# -- 3. decomposition identity -------------------------------------------------

def _random_smooth_instance(rng):
    p = sm.StructuralParams(
        f_x=rng.uniform(0.5, 2.0), f_e=rng.uniform(-1, 1), f_g=rng.uniform(-1, 1),
        f_xe=rng.uniform(-0.5, 0.5), f_xg=rng.uniform(-0.5, 0.5), f_ge=rng.uniform(-0.5, 0.5),
        k_0=rng.uniform(0.6, 2.0), k_e=rng.uniform(-0.2, 0.2), k_g=rng.uniform(-0.2, 0.2))
    s = sm.AgentState(G=rng.uniform(-1, 1), E=rng.uniform(-1, 1),
                      e_f=rng.uniform(-0.3, 0.3), e_k=rng.uniform(-0.1, 0.1))
    c4, fxx2 = rng.uniform(0.0, 0.3), rng.uniform(-0.3, 0.0)
    bf, bc = sm.quadratic_production(p), sm.quadratic_cost(p)

    def production(x, G, E, e):
        return bf(x, G, E, e) + 0.5 * fxx2 * x * x

    def cost(x, G, E, e):
        return bc(x, G, E, e) + c4 * x**4 / 12.0

    return production, cost, s


def test_c3_decomposition_identity():
    rng = np.random.default_rng(1005)
    worst = 0.0
    for _ in range(100):
        production, cost, s = _random_smooth_instance(rng)
        rep = sm.gxe_decomposition(production, cost, s)
        direct = sm.outcome_cross_partial(production, cost, s)
        worst = max(worst, abs(rep.total - direct) / max(1.0, abs(direct)))
    p = sm.StructuralParams(f_x=1.0, f_e=0.4, f_g=0.5, f_xe=0.4, f_xg=0.3,
                            f_ge=0.0, k_0=1.0, k_e=0.1, k_g=0.1)
    s = sm.AgentState(G=0.3, E=0.2)
    behavioral = sm.gxe_decomposition(sm.quadratic_production(p), sm.quadratic_cost(p), s)
    pure_choice = abs(behavioral.tech_gxe) < 1e-7 and abs(behavioral.total) > 0.05
    report("3", "five-term sum matches direct cross-partial (rel < 1e-5, 100 instances)",
           worst < 1e-5 and pure_choice,
           f"worst rel err={worst:.2e}; behavioral-only total={behavioral.total:+.4f}")


# -- 4. reduced-form exactness --------------------------------------------------

def test_c4_reduced_form_exactness():
    rng = np.random.default_rng(1006)
    worst = 0.0
    for _ in range(20):
        p = sm.StructuralParams(
            f_x=rng.uniform(0.5, 2.0), f_e=rng.uniform(-1, 1), f_g=rng.uniform(-1, 1),
            f_xe=rng.uniform(-0.5, 0.5), f_xg=rng.uniform(-0.5, 0.5), f_ge=rng.uniform(-0.5, 0.5),
            k_0=rng.uniform(0.6, 2.0), k_e=rng.uniform(-0.2, 0.2), k_g=rng.uniform(-0.2, 0.2))
        G = rng.uniform(-2, 2, 5000)
        E = rng.uniform(-2, 2, 5000)
        _, Y, _, _ = sm.simulate_outcomes(p, G, E, seed=1)
        fit = ols(Y, sm.monomial_basis(G, E), se="classical")
        worst = max(worst, np.max(np.abs(fit.beta - sm.reduced_form(p).coefficients())))
    report("4", "noiseless 10-term regression reproduces symbolic coefficients (1e-8, 20 draws)",
           worst < 1e-8, f"worst coefficient error={worst:.2e}")


# -- 5. genetic-nurture decomposition -------------------------------------------

def test_c5_nurture_decomposition():
    panel = genome.random_panel(200, 1, seed=1007, maf_range=(0.2, 0.5))
    n_fam = 20000
    founders = genome.simulate_founders(panel, 0.0, 2 * n_fam, seed=1008)
    ped = genome.Pedigree([f"c{i}" for i in range(n_fam)], founders.ids[:n_fam],
                          founders.ids[n_fam:], [f"f{i}" for i in range(n_fam)])
    children = genome.transmit(founders, ped, seed=1009)
    arch = ps.TraitArchitecture.random(panel, 200, target_h2=0.25, seed=1010)
    nurture = ps.NurtureParams(delta=0.3, eta_m=0.2, eta_f=0.2)
    y = ps.simulate_family_outcome(children, founders, ped, arch, nurture, seed=1011)

    gv_c = ps.empirical_standardize(ps.genetic_values(children, arch))
    gv_all = ps.genetic_values(founders, arch)
    mu, sd = gv_all.mean(), gv_all.std()
    gv_m = (gv_all[founders.index_of(ped.mother_ids)] - mu) / sd
    gv_f = (gv_all[founders.index_of(ped.father_ids)] - mu) / sd

    pop_slope = ols(y, np.column_stack([np.ones(n_fam), gv_c]), se="classical").beta[1]
    trio_slope = ols(y, np.column_stack([np.ones(n_fam), gv_c, gv_m, gv_f]), se="classical").beta[1]

    corr = np.mean([
        np.corrcoef(children.dosages[:, j].astype(float),
                    founders.dosages[founders.index_of(ped.mother_ids), j].astype(float))[0, 1]
        for j in range(0, 200, 10)
    ])
    ok = (abs(pop_slope - 0.5) <= 0.03 and abs(trio_slope - 0.3) <= 0.02 and abs(corr - 0.5) <= 0.03)
    report("5", "population slope = direct + half nurture; trio slope = direct",
           ok, f"pop={pop_slope:.4f} (0.5+-0.03), trio={trio_slope:.4f} (0.3+-0.02), corr={corr:.3f}")


# -- 6. sibling-difference bias --------------------------------------------------

def test_c6_sibling_spillover():
    panel = genome.random_panel(200, 1, seed=1012, maf_range=(0.2, 0.5))
    n_fam = 20000
    founders = genome.simulate_founders(panel, 0.0, 2 * n_fam, seed=1013)
    ids, ms, fs, fams = [], [], [], []
    for i in range(n_fam):
        for s_ in (0, 1):
            ids.append(f"c{i}_{s_}")
            ms.append(founders.ids[i])
            fs.append(founders.ids[n_fam + i])
            fams.append(f"fam{i}")
    ped = genome.Pedigree(ids, ms, fs, fams, design="sibling-pairs")
    children = genome.transmit(founders, ped, seed=1014)
    arch = ps.TraitArchitecture.random(panel, 200, target_h2=0.25, seed=1015)
    y = ps.simulate_family_outcome(children, founders, ped, arch,
                                   ps.NurtureParams(delta=0.3, gamma=0.1), seed=1016)
    gv = ps.empirical_standardize(ps.genetic_values(children, arch))
    dy = y[0::2] - y[1::2]
    dg = gv[0::2] - gv[1::2]
    slope = float(np.cov(dy, dg)[0, 1] / np.var(dg))
    report("6", "within-family estimate = direct - spillover (0.2 +/- 0.02)",
           abs(slope - 0.2) <= 0.02, f"estimate={slope:.4f}")


# -- 7. nine-cell sign matrix ------------------------------------------------------

def test_c7_table_sign_matrix():
    base = ps.ScenarioSpec(g_regime="trio_pgi_family_controls", e_regime="exogenous",
                           beta_g=0.259, beta_e=0.6, beta_x=0.15, eta_m=0.2, eta_f=0.2)
    t0 = time.time()
    table = bl.run_table(base, reps=200, seed=1017)
    elapsed = time.time() - t0
    expected_g = {"trio_pgi_family_controls": "unbiased",
                  "regular_pgi_family_controls": "down",
                  "regular_pgi_no_family": "up"}
    problems = []
    for (row, col), rep in table.cells.items():
        if rep.g.verdict != expected_g[row]:
            problems.append(f"{row}/{col}: G={rep.g.verdict}")
        expected_e = "unbiased" if col == "exogenous" else "up"
        if rep.e.verdict != expected_e:
            problems.append(f"{row}/{col}: E={rep.e.verdict}")
    flipped = bl.run_table(base.with_(beta_estar=-0.3), reps=200, seed=1018)
    for (row, col), rep in flipped.cells.items():
        if col != "exogenous" and rep.e.verdict != "down":
            problems.append(f"flipped {row}/{col}: E={rep.e.verdict}")
    report("7", "all nine cells show the annotated verdicts; confound flips reverse them",
           not problems and elapsed < 600,
           f"{elapsed:.0f}s; deviations: {problems if problems else 'none'}")


# -- 8. attenuation and ORIV ---------------------------------------------------------

def test_c8_attenuation_and_oriv():
    rng = np.random.default_rng(1019)
    n, beta, reps = 20000, 0.3, 200
    lines = []
    ok = True
    for lam in (0.4, 0.6, 0.8):
        ratios = np.empty(reps)
        oriv_wins = 0
        oriv_estimates = np.empty(reps)
        noise_sd = np.sqrt((1 - lam) / lam)
        for r in range(reps):
            gv = rng.standard_normal(n)
            a = gv + rng.standard_normal(n) * noise_sd
            b = gv + rng.standard_normal(n) * noise_sd
            y = beta * gv + rng.standard_normal(n)
            ols_slope = ols(y, np.column_stack([np.ones(n), a]), se="classical").beta[1]
            ratios[r] = ols_slope / beta
            fit = oriv_estimate(a, b, y)
            oriv_estimates[r] = fit.beta_iv
            oriv_wins += abs(fit.beta_iv - beta) < abs(ols_slope - beta)
        mean_ratio = ratios.mean()
        mean_oriv = oriv_estimates.mean()
        lam_ok = abs(mean_ratio - lam) <= 0.03 and abs(mean_oriv - beta) <= 0.03 and oriv_wins / reps >= 0.95
        ok = ok and lam_ok
        lines.append(f"lam={lam}: ratio={mean_ratio:.3f}, oriv={mean_oriv:.3f}, wins={oriv_wins / reps:.2f}")
    report("8", "OLS attenuates by the reliability; stacked IV restores the slope",
           ok, "; ".join(lines))


# -- 9. GWAS size and significance ------------------------------------------------------

def test_c9_null_gwas_calibration():
    panel = genome.random_panel(100000, 1, seed=1020, maf_range=(0.05, 0.5))
    g = genome.simulate_founders(panel, 0.0, 2000, seed=1021)
    y = np.random.default_rng(1022).standard_normal(2000)
    res = gwas.run_gwas(g, y)
    hits = int((res.p < 5e-8).sum())

    passes = 0
    for rep in range(100):
        panel_r = genome.random_panel(10000, 1, seed=2000 + rep, maf_range=(0.05, 0.5))
        g_r = genome.simulate_founders(panel_r, 0.0, 2000, seed=3000 + rep)
        y_r = np.random.default_rng(4000 + rep).standard_normal(2000)
        p = gwas.run_gwas(g_r, y_r).p
        passes += stats.kstest(p, "uniform").statistic < 1.63 / np.sqrt(10000)
    report("9", "0 hits at 5e-8 over 100k null SNPs; p-values uniform in >=95/100 runs",
           hits == 0 and passes >= 95, f"hits={hits}, KS passes={passes}/100")


# -- 10. discontinuity design recovery -----------------------------------------------------

def test_c10_rdd_recovery():
    rng = np.random.default_rng(429)
    n = 1094
    mob = rng.integers(-3, 3, n).astype(float)
    E = (mob >= 0).astype(float)
    G = rng.standard_normal(n)
    male = rng.integers(0, 2, n).astype(float)
    yob92 = rng.integers(0, 2, n).astype(float)
    pcs = {f"pc{k}": rng.standard_normal(n) for k in range(1, 11)}
    Y = (1.133 * E + 0.087 * G * E + 0.024 * G - 0.150 * mob + 0.059 * mob * E
         - 0.080 * mob * G + 0.127 * mob * G * E + 0.1 * male - 0.05 * yob92
         + 0.8 * rng.standard_normal(n))
    data = {"Y": Y, "G": G, "MoB": mob, "male": male, "yob92": yob92, **pcs}
    spec = RddSpec(bandwidth=3, covariates=("male", "yob92"), pcs=tuple(f"pc{k}" for k in range(1, 11)))
    with pytest.warns(UserWarning):
        fit = fit_rdd_gxe(data, spec, model="with_interaction")
    z_jump = abs(fit.coef("E") - 1.133) / fit.se("E")
    z_inter = abs(fit.coef("GxE") - 0.087) / fit.se("GxE")
    report("10", "jump 1.133 and interaction 0.087 recovered within 3 cluster SEs at n=1094",
           z_jump < 3 and z_inter < 3,
           f"E={fit.coef('E'):.3f} (z={z_jump:.2f}), GxE={fit.coef('GxE'):.3f} (z={z_inter:.2f})")


# -- 11. permutation calibration --------------------------------------------------------------

def test_c11_permutation_calibration():
    percentiles = []
    for rep in range(100):
        rng = np.random.default_rng(5000 + rep)
        n = 400
        G = rng.standard_normal(n)
        E = (rng.random(n) < 0.5).astype(float)
        Y = 0.259 * G + 0.9 * E + rng.standard_normal(n)
        res = inf.permutation_test({"Y": Y, "G": G, "E": E}, GxeModelSpec(), n_perm=199, seed=6000 + rep)
        percentiles.append(res.coef_percentile)
    ks = stats.kstest(percentiles, "uniform").statistic
    uniform_ok = ks < 1.63 / np.sqrt(100)

    exits = 0
    for rep in range(100):
        rng = np.random.default_rng(7000 + rep)
        n = 1000
        G = rng.standard_normal(n)
        E = (rng.random(n) < 0.5).astype(float)
        Y = 0.259 * G + 0.9 * E + 0.225 * G * E + rng.standard_normal(n)
        res = inf.permutation_test({"Y": Y, "G": G, "E": E}, GxeModelSpec(), n_perm=199, seed=8000 + rep)
        exits += res.outside_envelope(95)
    report("11", "null percentiles uniform (1% KS); signal exits 95% envelope in >=90% of runs",
           uniform_ok and exits >= 90, f"KS={ks:.3f}, exits={exits}/100")


# -- 12. determinism across thread counts ---------------------------------------------------------

def test_c12_thread_determinism(tmp_path):
    import json
    import os

    from gxelab import cli

    panel = genome.random_panel(60, 5, seed=1023)
    g1 = genome.simulate_founders(panel, 0.6, 500, seed=1024, threads=1)
    g4 = genome.simulate_founders(panel, 0.6, 500, seed=1024, threads=4)
    founders_same = np.array_equal(g1.planes, g4.planes)

    spec = inf.PowerSpec(beta_g=0.259, beta_e=0.9, beta_x=0.2, n=500, reps=600)
    power_same = inf.power_simulate(spec, seed=1025, threads=1) == inf.power_simulate(spec, seed=1025, threads=4)

    rng = np.random.default_rng(1026)
    data = {"Y": rng.standard_normal(500), "G": rng.standard_normal(500),
            "E": (rng.random(500) < 0.5).astype(float)}
    pa = inf.permutation_test(data, GxeModelSpec(), n_perm=200, seed=1027, threads=1)
    pb = inf.permutation_test(data, GxeModelSpec(), n_perm=200, seed=1027, threads=4)
    perm_same = np.array_equal(pa.null_coefs, pb.null_coefs)

    cell_spec = ps.ScenarioSpec(g_regime="regular_pgi_no_family", e_regime="exogenous",
                                beta_g=0.259, beta_e=0.6, beta_x=0.15, eta_m=0.2, eta_f=0.2)
    sizes = ps.CohortSizes(n_discovery=64, n_analysis=600, n_snps=50)
    ca = bl.run_cell(cell_spec, reps=30, seed=1028, sizes=sizes, threads=1)
    cb = bl.run_cell(cell_spec, reps=30, seed=1028, sizes=sizes, threads=4)
    cell_same = ca.g.mean_estimate == cb.g.mean_estimate

    cfg = tmp_path / "power.json"
    cfg.write_text(json.dumps({"beta_e": 0.9, "n": 300, "beta_x_grid": [0.1], "reps": 300}))
    manifests = []
    for threads, tag in ((1, "a"), (4, "b")):
        out = str(tmp_path / tag)
        assert cli.main(["power", "--config", str(cfg), "--seed", "7", "--threads", str(threads), "--out", out]) == 0
        with open(os.path.join(out, "manifest.json")) as f:
            manifests.append(json.load(f)["outputs"])
    cli_same = manifests[0] == manifests[1]

    ok = founders_same and power_same and perm_same and cell_same and cli_same
    report("12", "byte-identical results for 1 vs 4 threads across all pipelines",
           ok, f"founders={founders_same}, power={power_same}, permutation={perm_same}, "
               f"bias-cell={cell_same}, cli-artifacts={cli_same}")
