"""Reference checks for the OLS/IV engine: every covariance is compared with
the sandwich written out from the normal equations, and the batched kernel
with one ols fit per replicate, as is the coefficient-only ols_beta."""

import warnings

import numpy as np
import pytest

from gxelab.gxe import GxeModelSpec, gxe_design
from gxelab.regress import batched_ols_hc1, checked_qr, ols, ols_beta, tsls
from gxelab.util import EstimationError


def heteroskedastic_data(n=300, seed=0):
    rng = np.random.default_rng(seed)
    X = np.column_stack([np.ones(n), rng.standard_normal(n), rng.random(n) < 0.4])
    y = X @ [0.5, 1.0, -0.7] + rng.standard_normal(n) * (1 + np.abs(X[:, 1]))
    clusters = rng.integers(0, 25, n)
    return y, X, clusters


def normal_equation_cov(S, resid, bread, clusters=None):
    """bread (sum of outer products of scores) bread' with its HC1/CR1 factor."""
    n, k = S.shape
    if clusters is None:
        meat = sum(np.outer(S[i], S[i]) * resid[i] ** 2 for i in range(n))
        return bread @ meat @ bread.T * n / (n - k)
    groups = np.unique(clusters)
    meat = np.zeros((k, k))
    for g in groups:
        s = S[clusters == g].T @ resid[clusters == g]
        meat += np.outer(s, s)
    G = len(groups)
    return bread @ meat @ bread.T * G / (G - 1) * (n - 1) / (n - k)


class TestOls:
    @pytest.mark.parametrize("se", ["hc1", "cluster", "classical"])
    def test_matches_normal_equations(self, se):
        y, X, clusters = heteroskedastic_data()
        n, k = X.shape
        xtx_inv = np.linalg.inv(X.T @ X)
        beta = xtx_inv @ X.T @ y
        resid = y - X @ beta
        if se == "classical":
            expected = xtx_inv * (resid @ resid) / (n - k)
        else:
            expected = normal_equation_cov(X, resid, xtx_inv, clusters if se == "cluster" else None)
        fit = ols(y, X, se=se, clusters=clusters)
        np.testing.assert_allclose(fit.beta, beta, rtol=1e-10)
        np.testing.assert_allclose(fit.cov, expected, rtol=1e-10)
        assert fit.n_clusters == (25 if se == "cluster" else None)

    def test_one_cluster_raises(self):
        # CR1's G/(G-1) factor divides by zero at one cluster
        y, X, _ = heteroskedastic_data()
        one = np.zeros(len(y))
        with pytest.raises(EstimationError, match=r"cluster SEs need at least two clusters, got 1$"):
            ols(y, X, se="cluster", clusters=one)
        with pytest.raises(EstimationError, match=r"cluster SEs need at least two clusters, got 1$"):
            tsls(y, X[:, 1], X[:, 1] + np.random.default_rng(2).standard_normal(len(y)), exog=X[:, 2:], clusters=one)

    def test_rank_deficient_names_columns(self):
        y, X, _ = heteroskedastic_data()
        X = np.column_stack([X, 2 * X[:, 1]])
        with pytest.raises(EstimationError, match="rank deficient.*'twice_x'"):
            ols(y, X, names=["intercept", "x", "e", "twice_x"])

    @pytest.mark.parametrize("n", [0, 2, 3])
    def test_too_few_rows_names_columns(self, n):
        y, X, _ = heteroskedastic_data()
        with pytest.raises(EstimationError, match=f"{n} rows for 3 columns.*'intercept', 'x', 'e'"):
            ols(y[:n], X[:n], names=["intercept", "x", "e"])


class TestOlsBeta:
    def test_matches_ols(self):
        y, X, _ = heteroskedastic_data()
        np.testing.assert_allclose(ols_beta(y, X), ols(y, X).beta, rtol=1e-12, atol=0)

    def test_matches_ols_on_a_bias_lab_design(self):
        rng = np.random.default_rng(7)
        n = 2000
        controls = {"pgi_m": rng.standard_normal(n), "pgi_f": rng.standard_normal(n)}
        G, E = rng.standard_normal(n), (rng.random(n) < 0.5).astype(float)
        names, cols = gxe_design(G, E, GxeModelSpec(controls=tuple(controls)), controls)
        X = np.column_stack(cols)
        y = X @ np.linspace(0.1, 0.7, X.shape[1]) + rng.standard_normal(n)
        np.testing.assert_allclose(ols_beta(y, X, names), ols(y, X, names).beta, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("case", ["too_few_rows", "dependent_column"])
    def test_raises_checked_qr_message(self, case):
        y, X, _ = heteroskedastic_data()
        names = ["intercept", "x", "e"]
        if case == "too_few_rows":
            y, X = y[:3], X[:3]
            expected = "design has 3 rows for 3 columns ['intercept', 'x', 'e']"
        else:
            X = np.column_stack([X, 2 * X[:, 1]])
            names.append("twice_x")
            expected = "design matrix is rank deficient; dependent columns: ['twice_x']"
        with pytest.raises(EstimationError) as ref:
            checked_qr(X, names)
        with pytest.raises(EstimationError) as info:
            ols_beta(y, X, names)
        assert str(info.value) == str(ref.value) == expected


class TestTsls:
    @pytest.mark.parametrize("clustered", [False, True])
    def test_matches_iv_sandwich(self, clustered):
        rng = np.random.default_rng(1)
        n = 400
        z = rng.standard_normal(n)
        w = rng.standard_normal(n)
        u = rng.standard_normal(n)
        endog = 0.8 * z + 0.3 * w + u
        y = 0.5 * endog - 0.2 * w + 0.6 * u + rng.standard_normal(n) * (1 + np.abs(z))
        clusters = rng.integers(0, 30, n) if clustered else None
        X = np.column_stack([endog, np.ones(n), w])
        Z = np.column_stack([z, np.ones(n), w])
        bread = np.linalg.inv(Z.T @ X)
        beta = bread @ Z.T @ y
        expected = normal_equation_cov(Z, y - X @ beta, bread, clusters)
        fit, _ = tsls(y, endog, z, exog=w[:, None], clusters=clusters)
        np.testing.assert_allclose(fit.beta, beta, rtol=1e-10)
        np.testing.assert_allclose(fit.cov, expected, rtol=1e-10)
        assert fit.se_mode == ("cluster" if clustered else "hc1")
        assert fit.n_clusters == (len(np.unique(clusters)) if clustered else None)

    def test_overflowing_outcome_raises(self):
        """One outcome of 0.9e200 overflows the IV meat: the covariance is not
        finite, an EstimationError as in ols, not NaN SEs and numpy warnings."""
        rng = np.random.default_rng(3)
        z, w = rng.standard_normal(100), rng.standard_normal(100)
        endog = z + rng.standard_normal(100)
        y = endog + rng.standard_normal(100)
        y[0] = 0.9e200
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(EstimationError, match="covariance is not finite"):
                tsls(y, endog, z, exog=w[:, None])

    def test_collinear_instrument_rejected(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal(100)
        with pytest.raises(EstimationError, match="rank deficient.*'w1'"):
            tsls(rng.standard_normal(100), rng.standard_normal(100), 3 * w, exog=w[:, None])


def assert_batched_matches_ols(Y, cols):
    """beta and, asked for coefficient by coefficient, every HC1 SE match ols."""
    refs = [ols(Y[r], np.column_stack([np.broadcast_to(c, Y.shape)[r] for c in cols])) for r in range(Y.shape[0])]
    for j in range(len(cols)):
        beta, se = batched_ols_hc1(Y, cols, j)
        for r, ref in enumerate(refs):
            np.testing.assert_allclose(beta[r], ref.beta, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(se[r], ref.se(ref.names[j]), rtol=1e-10)


class TestBatchedOlsHc1:
    def test_power_design(self):
        rng = np.random.default_rng(3)
        G = rng.standard_normal((12, 150))
        E = (rng.random((12, 150)) < 0.5).astype(float)
        Y = 0.2 * G + 0.5 * E + 0.1 * G * E + rng.standard_normal((12, 150))
        _, cols = gxe_design(G, E, GxeModelSpec())
        assert_batched_matches_ols(Y, cols)

    def test_permutation_design_with_control_interactions(self):
        rng = np.random.default_rng(4)
        n = 200
        data = {"c1": rng.standard_normal(n), "c2": rng.random(n)}
        y = rng.standard_normal(n)
        G = np.stack([rng.permutation(n) / n for _ in range(8)])
        E = (rng.random((8, n)) < 0.3).astype(float)
        spec = GxeModelSpec(terms=("G", "E", "GxE", "G2"), controls=("c1", "c2"), control_interactions=True)
        names, cols = gxe_design(G, E, spec, data)
        assert len(names) == 11
        assert_batched_matches_ols(np.broadcast_to(y, (8, n)), cols)

    def test_trio_column_form(self):
        rng = np.random.default_rng(5)
        n, J = 120, 6
        xm, xf = rng.integers(0, 3, (2, J, n)).astype(float)
        xc = np.clip(np.round(0.5 * (xm + xf) + rng.normal(0, 0.6, (J, n))), 0, 2)
        y = rng.standard_normal(n)
        assert_batched_matches_ols(np.broadcast_to(y, (J, n)), [np.ones(n), xc, xm, xf])

    def test_singular_rows_are_nan_and_others_unchanged(self):
        rng = np.random.default_rng(6)
        n, J = 80, 4
        x = rng.integers(0, 3, (J, n)).astype(float)
        y = np.broadcast_to(rng.standard_normal(n), (J, n))
        full_beta, full_se = batched_ols_hc1(y, [np.ones(n), x], 1)
        x[1] = 0.0   # zero column
        x[3] = 2.0   # collinear with the intercept
        beta, se = batched_ols_hc1(y, [np.ones(n), x], 1)
        assert np.isnan(beta[[1, 3]]).all() and np.isnan(se[[1, 3]]).all()
        np.testing.assert_array_equal(beta[[0, 2]], full_beta[[0, 2]])
        np.testing.assert_array_equal(se[[0, 2]], full_se[[0, 2]])
