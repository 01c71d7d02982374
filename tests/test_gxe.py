import numpy as np
import pytest

from gxelab import gxe
from gxelab import structural as sm
from gxelab.util import ConfigError, EstimationError


def simulate_rdd(n, seed, jump=1.133, interaction=0.087, g_main=0.024, mob_slope=-0.150,
                 mob_e=0.059, mob_g=-0.080, mob_g_e=0.127, noise_sd=0.8, months=(-3, 2),
                 n_pcs=10):
    rng = np.random.default_rng(seed)
    mob = rng.integers(months[0], months[1] + 1, n).astype(float)
    E = (mob >= 0).astype(float)
    G = rng.standard_normal(n)
    male = rng.integers(0, 2, n).astype(float)
    yob92 = rng.integers(0, 2, n).astype(float)
    pcs = {f"pc{k}": rng.standard_normal(n) for k in range(1, n_pcs + 1)}
    Y = (jump * E + interaction * G * E + g_main * G + mob_slope * mob + mob_e * mob * E
         + mob_g * mob * G + mob_g_e * mob * G * E + 0.1 * male - 0.05 * yob92
         + noise_sd * rng.standard_normal(n))
    return {"Y": Y, "G": G, "MoB": mob, "male": male, "yob92": yob92, **pcs}


class TestFitGxe:
    def test_size_under_null(self):
        rejections = 0
        reps = 2000
        rng = np.random.default_rng(401)
        for _ in range(reps):
            n = 500
            G = rng.standard_normal(n)
            E = (rng.random(n) < 0.5).astype(float)
            Y = 0.2 * G + 0.3 * E + rng.standard_normal(n)
            fit = gxe.fit_gxe({"Y": Y, "G": G, "E": E}, gxe.GxeModelSpec())
            rejections += fit.pvalue("GxE") < 0.05
        assert rejections / reps == pytest.approx(0.05, abs=0.02)

    def test_control_interactions_remove_confound(self):
        rng = np.random.default_rng(402)
        n = 20000
        plain_coefs, interacted_coefs = [], []
        for _ in range(25):
            G = rng.standard_normal(n)
            Z = 0.7 * G + np.sqrt(1 - 0.49) * rng.standard_normal(n)
            E = (rng.random(n) < 0.5).astype(float)
            Y = 0.2 * G + 0.3 * E + 0.3 * Z * E + rng.standard_normal(n)
            data = {"Y": Y, "G": G, "E": E, "Z": Z}
            plain_coefs.append(gxe.fit_gxe(data, gxe.GxeModelSpec(controls=("Z",))).coef("GxE"))
            interacted_coefs.append(
                gxe.fit_gxe(data, gxe.GxeModelSpec(controls=("Z",), control_interactions=True)).coef("GxE"))
        assert abs(np.mean(plain_coefs)) > 0.05
        assert np.mean(interacted_coefs) == pytest.approx(0.0, abs=0.02)

    def test_structural_reduced_form_recovery(self):
        rng = np.random.default_rng(403)
        p = sm.StructuralParams(f_x=1.1, f_e=0.4, f_g=0.5, f_xe=0.3, f_xg=0.2, f_ge=0.15,
                                k_0=1.2, k_e=0.1, k_g=0.15)
        G = rng.uniform(-2, 2, 5000)
        E = rng.uniform(-2, 2, 5000)
        _, Y, _, _ = sm.simulate_outcomes(p, G, E, seed=404)
        spec = gxe.GxeModelSpec(terms=gxe.TERM_MENU)
        fit = gxe.fit_gxe({"Y": Y, "G": G, "E": E}, spec)
        rf = sm.reduced_form(p).as_dict()
        for term, value in rf.items():
            assert fit.coef(term) == pytest.approx(value, abs=1e-8)

    def test_demeaning_invariance(self):
        rng = np.random.default_rng(405)
        n = 3000
        G = rng.standard_normal(n)
        E = (rng.random(n) < 0.5).astype(float)
        Z = rng.standard_normal(n)
        Y = 0.2 * G + 0.3 * E + 0.1 * G * E + 0.2 * Z + rng.standard_normal(n)
        spec = gxe.GxeModelSpec(controls=("Z",), control_interactions=True)
        a = gxe.fit_gxe({"Y": Y, "G": G, "E": E, "Z": Z}, spec)
        b = gxe.fit_gxe({"Y": Y, "G": G, "E": E, "Z": Z + 57.0}, spec)
        assert a.coef("GxE") == pytest.approx(b.coef("GxE"), abs=1e-10)

    def test_collinear_basis_named(self):
        rng = np.random.default_rng(406)
        n = 200
        G = rng.standard_normal(n)
        E = rng.standard_normal(n)
        data = {"Y": rng.standard_normal(n), "G": G, "E": E, "Zdup": G.copy()}
        with pytest.raises(EstimationError, match="ctrl:Zdup"):
            gxe.fit_gxe(data, gxe.GxeModelSpec(controls=("Zdup",)))

    def test_spec_invariants(self):
        with pytest.raises(ConfigError):
            gxe.GxeModelSpec(terms=("GxE",))
        with pytest.raises(ConfigError):
            gxe.GxeModelSpec(se="cluster")

    def test_cluster_se_sanity(self):
        rng = np.random.default_rng(407)
        n = 4000
        fam = np.repeat(np.arange(n // 4), 4)
        shock = rng.standard_normal(n // 4)[fam]
        G = rng.standard_normal(n)
        E = (rng.random(n) < 0.5).astype(float)
        Y = 0.2 * G + 0.3 * E + shock + rng.standard_normal(n)
        data = {"Y": Y, "G": G, "E": E, "fam": fam}
        hc1 = gxe.fit_gxe(data, gxe.GxeModelSpec())
        cl = gxe.fit_gxe(data, gxe.GxeModelSpec(se="cluster", cluster_on="fam"))
        assert cl.se("GxE") > 0
        assert cl.se("GxE") >= 0.5 * hc1.se("GxE")


class TestRdd:
    def test_recovers_published_design_values(self):
        # 6-cluster CRVE is noisy (the fit warns about it), so this is a
        # fixed-seed recovery check, not a coverage experiment
        data = simulate_rdd(1094, seed=429)
        spec = gxe.RddSpec(bandwidth=3, covariates=("male", "yob92"), pcs=tuple(f"pc{k}" for k in range(1, 11)))
        with pytest.warns(UserWarning, match="clusters"):
            fit = gxe.fit_rdd_gxe(data, spec, model="with_interaction")
        assert abs(fit.coef("E") - 1.133) < 3 * fit.se("E")
        assert abs(fit.coef("GxE") - 0.087) < 3 * fit.se("GxE")
        assert fit.n_clusters == 6

    def test_zero_jump_null(self):
        # 6 running-variable clusters make single-draw CRVE fragile; check the
        # mean estimate over replicates against its Monte Carlo error instead
        coefs = []
        for rep in range(30):
            data = simulate_rdd(4000, seed=4120 + rep, jump=0.0, interaction=0.0)
            with pytest.warns(UserWarning):
                fit = gxe.fit_rdd_gxe(data, gxe.RddSpec(bandwidth=3), model="with_interaction")
            coefs.append(fit.coef("E"))
        mc_se = np.std(coefs) / np.sqrt(len(coefs))
        assert abs(np.mean(coefs)) < 3 * mc_se

    def test_bandwidth_robustness_under_linear_trend(self):
        # at bandwidth 2 the month-trend terms are just-identified and the
        # cluster variance degenerates, so compare point estimates directly
        data = simulate_rdd(20000, seed=413, months=(-4, 3))
        for bw in (2, 3, 4):
            with pytest.warns(UserWarning):
                fit = gxe.fit_rdd_gxe(data, gxe.RddSpec(bandwidth=bw), model="with_interaction")
            assert fit.coef("E") == pytest.approx(1.133, abs=0.1)
            assert fit.coef("GxE") == pytest.approx(0.087, abs=0.1)

    def test_models_agree_without_interaction(self):
        data = simulate_rdd(20000, seed=414, interaction=0.0, mob_g=0.0, mob_g_e=0.0)
        spec = gxe.RddSpec(bandwidth=3)
        with pytest.warns(UserWarning):
            main = gxe.fit_rdd_gxe(data, spec, "main_effects")
        with pytest.warns(UserWarning):
            inter = gxe.fit_rdd_gxe(data, spec, "with_interaction")
        joint = np.hypot(main.se("E"), inter.se("E"))
        assert abs(main.coef("E") - inter.coef("E")) < 2 * joint

    def test_cluster_floor(self):
        data = simulate_rdd(500, seed=415, months=(-1, 0))
        with pytest.raises(EstimationError, match="clusters"):
            gxe.fit_rdd_gxe(data, gxe.RddSpec(bandwidth=2))

    def test_inconsistent_treatment_rejected(self):
        data = simulate_rdd(200, seed=416)
        data["E"] = 1.0 - (data["MoB"] >= 0).astype(float)
        with pytest.raises(ConfigError, match="inconsistent"):
            gxe.fit_rdd_gxe(data, gxe.RddSpec(bandwidth=3))

    def test_report_terms_json(self):
        data = simulate_rdd(1000, seed=417)
        with pytest.warns(UserWarning):
            fit = gxe.fit_rdd_gxe(data, gxe.RddSpec(bandwidth=3, covariates=("male",)), "with_interaction")
        import json
        report = json.loads(fit.to_json())
        for key in ("intercept", "G", "E", "GxE", "MoB", "MoBxE", "MoBxG", "MoBxGxE",
                    "ctrl:male", "ctrlxG:male", "ctrlxE:male"):
            assert key in report["coefficients"]


class TestSlopePlot:
    def test_equal_slopes(self):
        rng = np.random.default_rng(421)
        n = 20000
        G = rng.standard_normal(n)
        E = (rng.random(n) < 0.5).astype(float)
        Y = 0.3 * G + 0.5 * E + 0.3 * rng.standard_normal(n)
        rows = gxe.slope_plot_data({"Y": Y, "G": G, "E": E}, bins=10)
        slopes = {}
        for arm in (0.0, 1.0):
            pts = [(c, m, k) for a, c, m, k in rows if a == arm]
            x = np.array([p[0] for p in pts])
            ym = np.array([p[1] for p in pts])
            w = np.array([p[2] for p in pts], dtype=float)
            xw = x - np.average(x, weights=w)
            slope = np.sum(w * xw * ym) / np.sum(w * xw * xw)
            se = np.sqrt(1.0 / np.sum(w * xw * xw)) * 0.3
            slopes[arm] = (slope, se)
        diff = abs(slopes[0.0][0] - slopes[1.0][0])
        joint = np.hypot(slopes[0.0][1], slopes[1.0][1])
        assert diff < 2 * joint

    def test_slope_difference_detected(self):
        hits = 0
        for rep in range(40):
            rng = np.random.default_rng(430 + rep)
            n = 5000
            G = rng.standard_normal(n)
            E = (rng.random(n) < 0.5).astype(float)
            Y = 0.2 * G + 0.4 * E + 0.1 * G * E + rng.standard_normal(n)
            rows = gxe.slope_plot_data({"Y": Y, "G": G, "E": E}, bins=8)
            slopes = {}
            for arm in (0.0, 1.0):
                pts = np.array([(c, m, k) for a, c, m, k in rows if a == arm])
                w = pts[:, 2]
                xw = pts[:, 0] - np.average(pts[:, 0], weights=w)
                slopes[arm] = np.sum(w * xw * pts[:, 1]) / np.sum(w * xw * xw)
            hits += slopes[1.0] > slopes[0.0]
        assert hits >= 38

    def test_trim_contract(self):
        rng = np.random.default_rng(440)
        G = rng.standard_normal(3000) * 2
        E = (rng.random(3000) < 0.5).astype(float)
        rows = gxe.slope_plot_data({"Y": G.copy(), "G": G, "E": E}, bins=12)
        assert all(-3 <= c <= 3 for _, c, _, _ in rows)

    def test_empty_arm_rejected(self):
        rng = np.random.default_rng(441)
        G = rng.standard_normal(100)
        with pytest.raises(ConfigError, match="two arms of E"):
            gxe.slope_plot_data({"Y": G, "G": G, "E": np.zeros(100)}, bins=10)
        # an arm whose every index lies beyond the trim is empty after trimming
        E = (G > 0).astype(float)
        with pytest.raises(ConfigError, match="two arms of E"):
            gxe.slope_plot_data({"Y": G, "G": np.where(E == 1, 5.0, G), "E": E}, bins=10)
        with pytest.raises(ConfigError, match="at least 3 bins"):
            gxe.slope_plot_data({"Y": G, "G": G, "E": E}, bins=2)


class TestRgeCheck:
    def test_exogenous_null(self):
        rng = np.random.default_rng(451)
        g = rng.standard_normal(5000)
        env = (rng.random(5000) < 0.5).astype(float)
        r, se, p = gxe.rge_check(g, env)
        assert abs(r) < 3 * se

    def test_active_rge_dichotomized(self):
        rng = np.random.default_rng(452)
        n = 5000
        gv = rng.standard_normal(n)
        latent = 0.4 * gv + np.sqrt(1 - 0.16) * rng.standard_normal(n)
        env = (latent > np.median(latent)).astype(float)
        r, se, p = gxe.rge_check(gv, env)
        # dichotomization at the median shrinks the latent correlation by sqrt(2/pi)
        assert r == pytest.approx(0.4 * np.sqrt(2 / np.pi), abs=0.03)
        assert p < 1e-10

    def test_null_verdict_at_published_magnitude(self):
        # a correlation of -0.013 with se 0.019 is indistinguishable from zero
        rng = np.random.default_rng(453)
        n = 2800  # se of r under H0 is about 0.019 at this sample size
        g = rng.standard_normal(n)
        env = (rng.random(n) < 0.5).astype(float)
        r, se, p = gxe.rge_check(g, env)
        assert se == pytest.approx(0.019, abs=0.002)
        assert p > 0.05

    def test_constant_env_rejected(self):
        with pytest.raises(ConfigError):
            gxe.rge_check(np.arange(10.0), np.ones(10))

    def test_nonbinary_env_rejected(self):
        with pytest.raises(ConfigError):
            gxe.rge_check(np.arange(10.0), np.arange(10.0))
