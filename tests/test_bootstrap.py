import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from graphonstat import (K2, K3, Graph, BootstrapDraws, constant_graphon,
                         empirical_quantile, multiplier_draws,
                         one_point_density, sample_graph, two_point_matrix)

from conftest import random_graph


class TestMultiplierDraws:
    def test_degree_regular_graph_gives_zero_linear_draws(self):
        # 5-cycle: all degrees equal, centered one-point densities vanish
        g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        bd = multiplier_draws(g, [K2], "linear", 200, seed=1)
        assert np.all(bd.samples == 0.0)

    def test_conditional_mean_zero(self):
        g = random_graph(60, 0.5, seed=2)
        bd = multiplier_draws(g, [K2, K3], ("linear", "quadratic"), 100_000, seed=3)
        for j in range(2):
            se = bd.samples[:, j].std() / np.sqrt(bd.B)
            assert abs(bd.samples[:, j].mean()) < 4 * se

    def test_linear_variance_identity(self):
        g = random_graph(80, 0.4, seed=5)
        t_hat = one_point_density(K2, g).t_hat
        target = np.mean((t_hat - t_hat.mean()) ** 2)
        bd = multiplier_draws(g, [K2], "linear", 200_000, seed=7)
        emp = bd.samples.var()
        assert abs(emp - target) < 4 * target * np.sqrt(2 / bd.B)

    def test_quadratic_approximates_limit_law(self):
        from graphonstat import build_limit_spec, sample_limit
        w = constant_graphon(0.5)
        g = sample_graph(w, 400, seed=33)
        boot = multiplier_draws(g, [K2], "quadratic", 10_000, seed=35).samples[:, 0]
        lim = sample_limit(build_limit_spec([K2], w, grid=512), 10_000,
                           seed=37)[:, 0]
        assert stats.ks_2samp(boot, lim).statistic < 0.05

    def test_joint_draws_share_multipliers(self):
        g = random_graph(50, 0.5, seed=15)
        both = multiplier_draws(g, [K2, K3], ("linear", "linear"), 500, seed=17)
        single = multiplier_draws(g, [K2], "linear", 500, seed=17)
        assert np.array_equal(both.samples[:, 0], single.samples[:, 0])
        corr = np.corrcoef(both.samples.T)[0, 1]
        assert abs(corr) > 0.5      # shared Z makes coordinates dependent

    def test_reproducible(self):
        g = random_graph(40, 0.5, seed=19)
        a = multiplier_draws(g, [K2], "quadratic", 1000, seed=21)
        b = multiplier_draws(g, [K2], "quadratic", 1000, seed=21)
        assert np.array_equal(a.samples, b.samples)

    def test_branch_validation(self):
        g = random_graph(20, 0.5, seed=23)
        with pytest.raises(ValueError):
            multiplier_draws(g, [K2], "cubic", 10, seed=1)
        with pytest.raises(ValueError):
            multiplier_draws(g, [K2, K3], ("linear",), 10, seed=1)
        with pytest.raises(ValueError):
            multiplier_draws(g, [K2], "linear", 0, seed=1)

    def test_draws_container_validation(self):
        with pytest.raises(ValueError):
            BootstrapDraws((K2,), ("linear",), np.zeros((3, 2)), 3, 0)

    def test_delta_correction_present(self):
        # E[Z_u Z_v - delta_uv] = 0 exactly; without the correction the
        # quadratic draws would center at -trace(M)/n instead of 0
        g = random_graph(60, 0.5, seed=25)
        vals = two_point_matrix(K2, g).values
        m = vals - vals.mean()
        bd = multiplier_draws(g, [K2], "quadratic", 50_000, seed=27)
        assert abs(bd.samples.mean()) < 0.01
        assert abs(np.trace(m) / g.n) > 0.05    # the correction is not a no-op


class TestStreamContract:
    # Every confidence set at a fixed seed depends on this stream: blocks of
    # default_rng(seed).standard_normal((n, c)) with c <= 4096, in order.
    # B = 5000 crosses a block boundary.
    B = 5000

    def _multipliers(self, n, seed):
        rng = np.random.default_rng(seed)
        return np.hstack([rng.standard_normal((n, min(4096, self.B - s)))
                          for s in range(0, self.B, 4096)])

    def test_multiplier_draws(self):
        g = random_graph(40, 0.5, seed=39)
        bd = multiplier_draws(g, [K2, K3], ("linear", "quadratic"), self.B, seed=41)
        z = self._multipliers(g.n, 41)
        t_hat = one_point_density(K2, g).t_hat
        lin = (t_hat - t_hat.mean()) @ z / np.sqrt(g.n)
        vals = two_point_matrix(K3, g).values
        m = vals - vals.mean()
        quad = (np.einsum("uc,uc->c", z, m @ z) - np.trace(m)) / g.n
        assert_allclose(bd.samples[:, 0], lin, rtol=1e-12)
        assert_allclose(bd.samples[:, 1], quad, rtol=1e-12)


class TestEmpiricalQuantile:
    def test_order_statistic(self):
        samples = np.arange(1, 101)
        assert empirical_quantile(samples, 0.95) == 95.0
        assert empirical_quantile(samples, 0.5) == 50.0

    def test_median_of_symmetric_gaussians(self):
        rng = np.random.default_rng(29)
        x = rng.standard_normal(10_000)
        assert abs(empirical_quantile(x, 0.5)) < 2 / np.sqrt(10_000) * 3

    def test_monotone(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal(777)
        assert empirical_quantile(x, 0.9) <= empirical_quantile(x, 0.99)

    def test_errors(self):
        with pytest.raises(ValueError):
            empirical_quantile([], 0.5)
        with pytest.raises(ValueError):
            empirical_quantile([1.0], 1.0)
