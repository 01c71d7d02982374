import numpy as np
import pytest

from gxelab import structural as sm
from gxelab.regress import breusch_pagan, ols


def params(**overrides):
    base = dict(f_x=1.0, f_e=0.4, f_g=0.5, f_xe=0.0, f_xg=0.0, f_ge=0.2,
                k_0=1.0, k_e=0.0, k_g=0.0)
    base.update(overrides)
    return sm.StructuralParams(**base)


def random_quadratic_instance(rng):
    p = sm.StructuralParams(
        f_x=rng.uniform(0.5, 2.0), f_e=rng.uniform(-1, 1), f_g=rng.uniform(-1, 1),
        f_xe=rng.uniform(-0.5, 0.5), f_xg=rng.uniform(-0.5, 0.5), f_ge=rng.uniform(-0.5, 0.5),
        k_0=rng.uniform(0.6, 2.0), k_e=rng.uniform(-0.2, 0.2), k_g=rng.uniform(-0.2, 0.2),
    )
    s = sm.AgentState(G=rng.uniform(-1, 1), E=rng.uniform(-1, 1),
                      e_f=rng.uniform(-0.3, 0.3), e_k=rng.uniform(-0.1, 0.1))
    return p, s


def random_smooth_instance(rng):
    """Quadratic family plus a quartic cost bump and mild production curvature,
    so the generic solver faces a genuinely nonlinear first-order condition."""
    p, s = random_quadratic_instance(rng)
    c4 = rng.uniform(0.0, 0.3)
    fxx2 = rng.uniform(-0.3, 0.0)
    base_f = sm.quadratic_production(p)
    base_c = sm.quadratic_cost(p)

    def production(x, G, E, e):
        return base_f(x, G, E, e) + 0.5 * fxx2 * x * x

    def cost(x, G, E, e):
        return base_c(x, G, E, e) + c4 * x**4 / 12.0

    return production, cost, s, p


class TestOptimalEffort:
    def test_constant_when_no_effort_interactions(self):
        p = params(f_x=0.7, k_0=1.3)
        for G, E in [(-2, 0), (0, 0), (1.5, -1), (3, 3)]:
            assert sm.optimal_effort(p, sm.AgentState(G, E)) == pytest.approx(1.3 * 0.7, abs=1e-12)

    def test_direct_substitution(self):
        p = params(f_x=1.0, f_xe=0.5, f_xg=0.3, k_0=1.0)
        assert sm.optimal_effort(p, sm.AgentState(G=1.0, E=1.0)) == pytest.approx(1.8, abs=1e-12)

    def test_foc_residual(self):
        rng = np.random.default_rng(61)
        for _ in range(25):
            p, s = random_quadratic_instance(rng)
            x = sm.optimal_effort(p, s)
            inv_c = p.inverse_cost(s.G, s.E, s.e_k)
            residual = p.marginal_product(s.G, s.E) - x / inv_c
            assert abs(residual) < 1e-10

    def test_nonpositive_inverse_cost(self):
        p = params(k_0=0.1)
        with pytest.raises(sm.ModelDomainError):
            sm.optimal_effort(p, sm.AgentState(G=0, E=0, e_k=-0.5))


class TestSolveEffort:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(69)
        for _ in range(25):
            p, s = random_quadratic_instance(rng)
            x = sm.solve_effort(sm.quadratic_production(p), sm.quadratic_cost(p), s.G, s.E, s.shocks)
            assert abs(x - sm.optimal_effort(p, s)) <= 1e-10

    def test_minimum_raises(self):
        def production(x, G, E, e):
            return 0.5 * x * x  # convex: the root x = 1 of F_x - C_x minimizes F - C

        def cost(x, G, E, e):
            return x

        with pytest.raises(sm.ModelError):
            sm.solve_effort(production, cost, 0.0, 0.0, (0.0, 0.0))

    def test_iteration_cap_raises(self, monkeypatch):
        p, s = random_quadratic_instance(np.random.default_rng(70))
        monkeypatch.setattr(sm, "MAX_ITER", 1)
        with pytest.raises(sm.SolverError, match="converge"):
            sm.solve_effort(sm.quadratic_production(p), sm.quadratic_cost(p), s.G, s.E, s.shocks)


class TestProduce:
    def test_pure_endowment_outcome(self):
        p = sm.StructuralParams(f_x=0, f_e=0, f_g=1, f_xe=0, f_xg=0, f_ge=0, k_0=1, k_e=0, k_g=0)
        s = sm.AgentState(G=2.0, E=0.3, e_f=0.25)
        x, y, v = sm.produce(p, s)
        assert x == 0.0
        assert y == pytest.approx(2.25, abs=1e-12)
        assert v == pytest.approx(y, abs=1e-12)

    def test_optimum_beats_zero_effort(self):
        rng = np.random.default_rng(62)
        for _ in range(20):
            p, s = random_quadratic_instance(rng)
            x, y, v = sm.produce(p, s)
            F = sm.quadratic_production(p)
            C = sm.quadratic_cost(p)
            at_zero = F(0.0, s.G, s.E, s.shocks) - C(0.0, s.G, s.E, s.shocks)
            assert v >= at_zero - 1e-12

    def test_optimum_beats_grid_probe(self):
        rng = np.random.default_rng(63)
        for _ in range(10):
            p, s = random_quadratic_instance(rng)
            _, _, v = sm.produce(p, s)
            F = sm.quadratic_production(p)
            C = sm.quadratic_cost(p)
            grid = np.linspace(-10, 10, 10001)
            objective = np.array([F(x, s.G, s.E, s.shocks) - C(x, s.G, s.E, s.shocks) for x in grid])
            assert objective.max() <= v + 1e-8


class TestDecomposition:
    def test_constant_effort_kills_choice_channels(self):
        p = params(f_xe=0.0, f_xg=0.0, f_ge=0.3, k_e=0.15, k_g=-0.1)
        s = sm.AgentState(G=0.5, E=-0.2)
        rep = sm.gxe_decomposition(sm.quadratic_production(p), sm.quadratic_cost(p), s)
        # choice_gxe carries the second-difference noise floor of the solver
        assert rep.g_choice_comp == pytest.approx(0.0, abs=1e-7)
        assert rep.e_choice_comp == pytest.approx(0.0, abs=1e-7)
        assert rep.choice_gxe == pytest.approx(0.0, abs=1e-4)
        assert rep.tech_nonlinearities == pytest.approx(0.0, abs=1e-7)
        assert rep.total == pytest.approx(0.3, rel=1e-3)

    def test_behavioral_interaction_without_technological(self):
        p = params(f_ge=0.0, f_xe=0.4, f_xg=0.3, k_e=0.1, k_g=0.1)
        s = sm.AgentState(G=0.3, E=0.2)
        F, C = sm.quadratic_production(p), sm.quadratic_cost(p)
        rep = sm.gxe_decomposition(F, C, s)
        kappa = p.inverse_cost(s.G, s.E)
        phi = p.marginal_product(s.G, s.E)
        analytic_total = 2 * phi * (p.k_e * p.f_xg + p.k_g * p.f_xe) + 2 * kappa * p.f_xe * p.f_xg
        assert rep.tech_gxe == pytest.approx(0.0, abs=1e-8)
        assert rep.total == pytest.approx(analytic_total, rel=1e-3)
        assert rep.total == pytest.approx(sm.outcome_cross_partial(F, C, s), rel=1e-5)
        assert abs(rep.total) > 0.05

    def test_effort_slope_matches_closed_form(self):
        rng = np.random.default_rng(64)
        for _ in range(15):
            p, s = random_quadratic_instance(rng)
            x_e, x_g, x_ge = sm.effort_slopes(sm.quadratic_production(p), sm.quadratic_cost(p), s)
            kappa = p.inverse_cost(s.G, s.E, s.e_k)
            phi = p.marginal_product(s.G, s.E)
            # (C_xE - F_xE) / (F_xx - C_xx) for the quadratic family
            assert x_e == pytest.approx(p.k_e * phi + kappa * p.f_xe, rel=1e-5, abs=1e-7)
            assert x_g == pytest.approx(p.k_g * phi + kappa * p.f_xg, rel=1e-5, abs=1e-7)
            assert x_ge == pytest.approx(p.k_e * p.f_xg + p.k_g * p.f_xe, rel=1e-3, abs=1e-4)

    def test_identity_on_smooth_instances(self):
        rng = np.random.default_rng(65)
        for _ in range(30):
            production, cost, s, _ = random_smooth_instance(rng)
            rep = sm.gxe_decomposition(production, cost, s)
            direct = sm.outcome_cross_partial(production, cost, s)
            scale = max(1.0, abs(direct))
            assert abs(rep.total - direct) / scale < 1e-5

    def test_total_is_sum_of_terms(self):
        rng = np.random.default_rng(66)
        production, cost, s, _ = random_smooth_instance(rng)
        rep = sm.gxe_decomposition(production, cost, s)
        parts = (rep.tech_gxe + rep.g_choice_comp + rep.e_choice_comp
                 + rep.choice_gxe + rep.tech_nonlinearities)
        assert rep.total == pytest.approx(parts, rel=1e-12)

    def test_sign_rule_for_effort_response(self):
        p = params(f_x=1.0, f_xe=0.0, k_0=1.0, k_e=0.3)
        s = sm.AgentState(G=0.0, E=0.0)
        x_e, _, _ = sm.effort_slopes(sm.quadratic_production(p), sm.quadratic_cost(p), s)
        assert x_e > 0  # k_e > 0 and f_x > 0: better environment, cheaper effort

    def test_unbracketed_foc_raises(self):
        def production(x, G, E, e):
            return x  # marginal product 1 forever

        def cost(x, G, E, e):
            return 0.5 * x  # marginal cost 1/2 forever: no interior optimum

        with pytest.raises(sm.SolverError):
            sm.gxe_decomposition(production, cost, sm.AgentState(0, 0))


class TestMarginalEffects:
    def test_no_behavioral_components_without_interactions(self):
        p = params(k_e=0.0, k_g=0.0)
        me = sm.marginal_effects(sm.quadratic_production(p), sm.quadratic_cost(p), sm.AgentState(0.1, 0.2))
        assert me.behavioral_E == pytest.approx(0.0, abs=1e-8)
        assert me.behavioral_G == pytest.approx(0.0, abs=1e-8)

    def test_reinforcement_sign(self):
        p = params(f_x=1.2, k_e=0.2)
        me = sm.marginal_effects(sm.quadratic_production(p), sm.quadratic_cost(p), sm.AgentState(0.0, 0.0))
        assert me.behavioral_E > 0

    def test_channel_sum_matches_direct_derivative(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            production, cost, s, _ = random_smooth_instance(rng)
            me = sm.marginal_effects(production, cost, s)
            h = 1e-4 * max(1.0, abs(s.E))

            def y_star(e_):
                x = sm.solve_effort(production, cost, s.G, e_, s.shocks)
                return production(x, s.G, e_, s.shocks)

            direct = (y_star(s.E + h) - y_star(s.E - h)) / (2 * h)
            assert me.dY_dE == pytest.approx(direct, rel=1e-5, abs=1e-7)


class TestWelfare:
    def test_zero_gap_with_cost_independent_of_g_and_e(self):
        p = params(f_xe=0.0, f_xg=0.0, k_e=0.0, k_g=0.0, f_ge=0.4)
        gap = sm.welfare_gap(sm.quadratic_production(p), sm.quadratic_cost(p), sm.AgentState(0.2, 0.1))
        assert gap == pytest.approx(0.0, abs=1e-8)

    def test_gap_matches_symbolic_expansion(self):
        p = params(f_x=1.0, f_xe=0.3, f_xg=0.2, k_0=1.5, k_e=0.2, k_g=0.1)
        s = sm.AgentState(G=0.4, E=-0.3)
        gap = sm.welfare_gap(sm.quadratic_production(p), sm.quadratic_cost(p), s)
        kappa = p.inverse_cost(s.G, s.E)
        phi = p.marginal_product(s.G, s.E)
        # C*(G,E) = kappa*phi^2/2; -d2C*/dGdE expanded by hand:
        analytic = -(p.k_e * phi * p.f_xg + p.k_g * phi * p.f_xe + kappa * p.f_xe * p.f_xg)
        assert gap == pytest.approx(analytic, rel=1e-5)

    def test_envelope_theorem(self):
        p = params(f_x=1.0, f_xe=0.3, f_xg=0.2, k_0=1.5, k_e=0.2, k_g=0.1)
        s = sm.AgentState(G=0.4, E=-0.3)
        F, C = sm.quadratic_production(p), sm.quadratic_cost(p)
        h = 1e-5

        def v(e_):
            return sm.value_function(F, C, sm.AgentState(s.G, e_, s.e_f, s.e_k))[2]

        dv_de = (v(s.E + h) - v(s.E - h)) / (2 * h)
        x, _, _ = sm.value_function(F, C, s)
        kappa = p.inverse_cost(s.G, s.E, s.e_k)
        f_e = p.f_e + p.f_xe * x + p.f_ge * s.G
        c_e = -0.5 * x * x * p.k_e / kappa**2
        assert dv_de == pytest.approx(f_e - c_e, abs=1e-6)


class TestReducedForm:
    def test_collapses_without_effort_interactions(self):
        p = params(f_x=0.8, f_e=0.4, f_g=0.5, f_ge=0.2, k_0=1.1)
        rf = sm.reduced_form(p)
        assert rf.intercept == pytest.approx(1.1 * 0.64, rel=1e-12)
        assert rf.G == pytest.approx(0.5, rel=1e-12)
        assert rf.E == pytest.approx(0.4, rel=1e-12)
        assert rf.GxE == pytest.approx(0.2, rel=1e-12)
        for term in ["G2", "E2", "G3", "E3", "G2E", "GE2"]:
            assert getattr(rf, term) == 0.0

    def test_behavioral_interaction_term(self):
        p = params(f_ge=0.0, f_xe=0.4, f_xg=0.3, k_e=0.1, k_g=0.2)
        rf = sm.reduced_form(p)
        assert rf.GxE != 0.0

    def test_noiseless_regression_recovery(self):
        rng = np.random.default_rng(68)
        for _ in range(5):
            p, _ = random_quadratic_instance(rng)
            G = rng.uniform(-2, 2, 5000)
            E = rng.uniform(-2, 2, 5000)
            _, Y, _, _ = sm.simulate_outcomes(p, G, E, e_f_sd=0.0, e_k_sd=0.0, seed=1)
            X = sm.monomial_basis(G, E)
            fit = ols(Y, X, names=sm.REDUCED_FORM_TERMS, se="classical")
            assert np.allclose(fit.beta, sm.reduced_form(p).coefficients(), atol=1e-8)

    def test_json_roundtrip(self):
        p = params(f_xe=0.25, k_g=-0.05)
        assert sm.StructuralParams.from_json(p.to_json()) == p
        with pytest.raises(sm.ModelDomainError):
            sm.StructuralParams.from_json('{"f_x": 1.0}')


class TestSimulateOutcomes:
    def test_matches_scalar_path(self):
        p = params(f_xe=0.3, f_xg=0.1, k_e=0.1, k_g=0.05)
        G = np.array([0.2, -0.4, 1.0])
        E = np.array([0.5, 0.0, -0.5])
        x, Y, V, rate = sm.simulate_outcomes(p, G, E, seed=3)
        assert rate == 0.0
        for i in range(3):
            xs, ys, vs = sm.produce(p, sm.AgentState(G[i], E[i]))
            assert x[i] == pytest.approx(xs, rel=1e-12)
            assert Y[i] == pytest.approx(ys, rel=1e-12)
            assert V[i] == pytest.approx(vs, rel=1e-12)

    def test_rejection_cap(self):
        p = params(k_0=0.05)  # nearly all e_k draws push 1/c below zero
        with pytest.raises(Exception, match="rejection"):
            sm.simulate_outcomes(p, np.zeros(2000), np.zeros(2000), e_k_sd=1.0, seed=4)

    def test_heteroskedasticity_structure(self):
        p = params(f_x=1.0, f_xe=0.4, f_xg=0.3, f_ge=0.1, k_0=2.0, k_e=0.1, k_g=0.1)
        n, reps = 20000, 200

        def rejections(e_k_sd: float, seed0: int) -> int:
            count = 0
            for r in range(reps):
                rng = np.random.default_rng(1000 * seed0 + r)
                G = rng.standard_normal(n)
                E = rng.standard_normal(n)
                _, Y, _, _ = sm.simulate_outcomes(p, G, E, e_f_sd=1.0, e_k_sd=e_k_sd, seed=seed0 * reps + r)
                X = sm.monomial_basis(G, E)
                fit = ols(Y, X, se="classical")
                Z = np.column_stack([E, G, G * E, E * E, G * G])
                _, pval = breusch_pagan(fit.residuals, Z)
                count += pval < 0.05
            return int(count)

        assert rejections(0.25, seed0=1) > 0.9 * reps
        # the null rate 0.05 +/- 0.03 as whole rejections: 4..16 of 200
        assert 4 <= rejections(0.0, seed0=2) <= 16
