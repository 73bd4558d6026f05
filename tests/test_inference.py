from statistics import NormalDist

import numpy as np
import pytest

from graphonstat import (K2, K3, C4, DegenerateDensityError, constant_graphon,
                         density_hat_t, empirical_quantile, hom_density,
                         joint_confidence_set, marginal_ci, multiplier_draws,
                         regularity_test,
                         sample_graph, structure_alt_params,
                         structure_null_variance, structure_stat, structure_test)
from graphonstat.counting import Graph
from graphonstat.inference import DEFAULT_REGULARITY_EXPONENT

from conftest import random_graph


class TestRegularityTest:
    def test_complete_graph_statistic_zero(self):
        g = random_graph(12, 1.1, seed=0)
        t = regularity_test(g, K2)
        assert t.statistic == pytest.approx(0.0, abs=1e-10)
        assert not t.reject_regularity

    def test_default_rate_is_valid_sequence(self):
        assert 0.5 <= DEFAULT_REGULARITY_EXPONENT < 1.0

    def test_two_community_decisions(self, w_two_community):
        # K2-regular, K3-irregular; the test should sort them accordingly
        n = 400
        k2_rejects = 0
        k3_rejects = 0
        reps = 200
        for s in range(reps):
            g = sample_graph(w_two_community, n, seed=(64, s))
            k2_rejects += regularity_test(g, K2).reject_regularity
            k3_rejects += regularity_test(g, K3).reject_regularity
        assert k3_rejects >= 0.95 * reps
        assert k2_rejects <= 0.05 * reps

    def test_sqrt_n_exponent_available(self):
        g = random_graph(50, 0.5, seed=3)
        t = regularity_test(g, K2, exponent=0.5)
        assert t.statistic == pytest.approx(np.sqrt(50) * t.r_value)


class TestJointConfidenceSet:
    def test_point_estimate_always_inside(self, w_affine):
        g = sample_graph(w_affine, 150, seed=5)
        rep = joint_confidence_set(g, [K2, K3], 0.05, 300, seed=7)
        assert rep.contains(rep.point_estimates)

    def test_monotone_in_alpha(self, w_affine):
        g = sample_graph(w_affine, 150, seed=9)
        r10 = joint_confidence_set(g, [K2, K3], 0.10, 500, seed=11)
        r01 = joint_confidence_set(g, [K2, K3], 0.01, 500, seed=11)
        assert r10.quantile <= r01.quantile
        # any candidate inside the smaller set is inside the bigger one
        cand = rep = r10.point_estimates * 1.001
        if r10.contains(cand):
            assert r01.contains(cand)

    def test_branch_decision_matches_marginal(self, w_product):
        g = sample_graph(w_product, 200, seed=13)
        rep = joint_confidence_set(g, [K2], 0.05, 200, seed=15)
        ci = marginal_ci(g, K2, 0.05, 200, seed=15)
        joint_irregular = 0 in rep.selected_irregular
        assert joint_irregular == (ci.branch == "irregular")

    def test_scaling_exponents(self, w_affine):
        g = sample_graph(w_affine, 300, seed=17)
        rep = joint_confidence_set(g, [K2, K3], 0.05, 200, seed=19)
        for i, h in enumerate(rep.motifs):
            expected = h.k - 0.5 if i in rep.selected_irregular else h.k - 1.0
            assert rep.scaling_exponents[i] == expected

    def test_record_roundtrip(self, w_affine):
        g = sample_graph(w_affine, 120, seed=21)
        rep = joint_confidence_set(g, [K2], 0.05, 100, seed=23)
        rec = rep.to_record()
        assert rec["n"] == 120 and rec["B"] == 100
        assert len(rec["point_estimates"]) == 1

    def test_alpha_validation(self, w_affine):
        g = sample_graph(w_affine, 50, seed=25)
        with pytest.raises(ValueError):
            joint_confidence_set(g, [K2], 1.5, 100, seed=1)


class TestMarginalCI:
    def test_endpoints_ordered_both_branches(self, w_product, w_bipartite_half):
        for w, seed in ((w_product, 27), (w_bipartite_half, 29)):
            g = sample_graph(w, 300, seed=seed)
            ci = marginal_ci(g, K2, 0.05, 400, seed=seed + 1)
            assert ci.lower <= ci.point_estimate <= ci.upper

    def test_irregular_branch_formula(self, w_product):
        from graphonstat import one_point_density
        from scipy import stats
        g = sample_graph(w_product, 300, seed=31)
        ci = marginal_ci(g, K2, 0.05, 100, seed=33)
        assert ci.branch == "irregular"
        v = one_point_density(K2, g).t_hat
        tau = np.sqrt(np.mean((v - v.mean()) ** 2))
        half = stats.norm.ppf(0.975) * K2.aut * tau / np.sqrt(g.n)
        assert ci.upper - ci.lower == pytest.approx(2 * half, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.001, 0.01, 0.05, 0.1, 0.2, 0.5])
    def test_stdlib_normal_quantile_matches_scipy(self, alpha):
        from scipy import stats
        assert NormalDist().inv_cdf(1 - alpha / 2) == \
            pytest.approx(stats.norm.ppf(1 - alpha / 2), rel=2e-15)

    def test_regular_branch_inverts_quadratic_multiplier_draws(self, w_bipartite_half):
        g = sample_graph(w_bipartite_half, 300, seed=35)
        alpha, B = 0.05, 2000
        ci = marginal_ci(g, K2, alpha, B, seed=37)
        assert ci.branch == "regular"
        draws = multiplier_draws(g, [K2], "quadratic", B, seed=37).marginal(0)
        q_hi = empirical_quantile(draws, 1 - alpha / 2)
        q_lo = empirical_quantile(draws, alpha / 2)
        t_hat = density_hat_t(K2, g)
        assert ci.lower == t_hat - K2.aut * q_hi / g.n
        assert ci.upper == t_hat - K2.aut * q_lo / g.n
        # interval width is O(1/n), far narrower than the sqrt(n) normal one
        assert ci.upper - ci.lower < 0.05


class TestStructureStat:
    def test_plugin_identity(self):
        g = random_graph(30, 0.5, seed=39)
        s = structure_stat(g)
        assert s.f_hat == pytest.approx(
            density_hat_t(K2, g) ** 4 - density_hat_t(C4, g), abs=1e-15)

    def test_complete_graph_degenerate(self):
        g = random_graph(8, 1.1, seed=0)
        with pytest.raises(DegenerateDensityError) as err:
            structure_stat(g)
        assert err.value.f_hat == pytest.approx(0.0)

    def test_empty_graph_degenerate(self):
        g = Graph(np.zeros((8, 8), dtype=np.uint8))
        with pytest.raises(DegenerateDensityError):
            structure_stat(g)

    def test_null_variance_instantiation(self):
        assert structure_null_variance(0.5) == pytest.approx(1 / 8)

    def test_alpha_to_one_always_rejects(self):
        g = sample_graph(constant_graphon(0.4), 100, seed=41)
        res = structure_test(g, 0.999)
        if res.t_n != 0:
            assert res.reject

    def test_power_under_affine(self, w_affine):
        rejects = sum(structure_test(sample_graph(w_affine, 300, seed=(43, s)),
                                     0.05).reject for s in range(50))
        assert rejects == 50


class TestStructureAltParams:
    def test_case_classification(self, w_affine, w_two_community, w_product,
                                 w_bipartite_half, w_six_block,
                                 w_degree_regular_c4_irregular,
                                 w_c4_regular_degree_irregular):
        assert structure_alt_params(w_affine).case == 1
        assert structure_alt_params(w_product).case == 1
        assert structure_alt_params(w_six_block).case == 1
        assert structure_alt_params(w_c4_regular_degree_irregular).case == 2
        assert structure_alt_params(w_degree_regular_c4_irregular).case == 3
        assert structure_alt_params(w_two_community).case == 4
        assert structure_alt_params(w_bipartite_half).case == 4
        assert structure_alt_params(constant_graphon(0.3)).case == 4

    def test_case4_handle(self, w_const_half):
        ap = structure_alt_params(w_const_half)
        assert ap.case == 4 and ap.tau_sq is None
        assert ap.limit_spec is not None
        assert ap.limit_spec.regular == (True, True)
        t2 = hom_density(K2, w_const_half)
        assert ap.coefficients == (8 * t2 ** 3, -8.0)

    def test_case2_formula_from_components(self, w_c4_regular_degree_irregular):
        ap = structure_alt_params(w_c4_regular_degree_irregular)
        assert ap.tau_sq == pytest.approx(16 * ap.edge_density ** 6 * ap.r_k2,
                                          rel=1e-12)

    @pytest.mark.parametrize("fixture_name,entropy", [
        ("w_affine", 11),                        # case 1
        ("w_c4_regular_degree_irregular", 41),   # case 2
        ("w_degree_regular_c4_irregular", 21),   # case 3
    ])
    def test_variance_matches_monte_carlo(self, request, fixture_name, entropy):
        w = request.getfixturevalue(fixture_name)
        ap = structure_alt_params(w)
        assert ap.case in (1, 2, 3)
        n, reps = 800, 300
        vals = []
        for s in range(reps):
            g = sample_graph(w, n, seed=(entropy, s))
            vals.append(np.sqrt(n) * (density_hat_t(K2, g) ** 4
                                      - density_hat_t(C4, g) - ap.f_value))
        mc = np.var(vals, ddof=1)
        assert abs(mc - ap.tau_sq) <= 0.15 * ap.tau_sq
