import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from graphonstat import (K2, K3, K12, LimitSpec, build_limit_spec, cycle,
                         empirical_log_mgf, gamma_matrix, graphon_by_name,
                         log_mgf_oracle, marginal_regular_law,
                         sample_limit, sigma_matrix)
from graphonstat.graphon import (QuadratureError, conditional_kernel_2pt, degree_constant,
                                 kernel_bound)
from graphonstat.limitlaw import (_CHUNK, SPECTRAL_CUT, _eta_regular, _law_on_nodes,
                                  _regular_spectrum, _sigma_factor, centered_kernel,
                                  linear_profile, mgf_radius_constant)


def midpoints(m):
    return (np.arange(m) + 0.5) / m


def block_rule(w):
    """The nodes and weights of a block graphon's exact rule."""
    return w.cum - w.sizes / 2, w.sizes


class TestSpecConstruction:
    def test_classification(self, w_two_community):
        spec = build_limit_spec([K2, K3], w_two_community, grid=64)
        assert spec.regular == (True, False)
        assert spec.sigma.r == 1

    def test_flag_mismatch(self, w_const_half):
        with pytest.raises(ValueError):
            LimitSpec((K2,), (True, False), w_const_half)

    def test_sigma_dimension_check(self, w_const_half):
        sig = sigma_matrix([K2, K3], w_const_half)
        with pytest.raises(ValueError):
            LimitSpec((K2,), (True,), w_const_half, 64, sig)


class TestSampleLimit:
    def test_regular_edge_variance_constant_half(self, w_const_half):
        # kernel vanishes for a constant graphon; the law is N(0, p(1-p)/2)
        spec = build_limit_spec([K2], w_const_half, grid=256)
        draws = sample_limit(spec, 100_000, seed=5)[:, 0]
        assert abs(draws.var() - 0.125) < 0.05 * 0.125
        assert abs(draws.mean()) < 4 * draws.std() / np.sqrt(len(draws))

    def test_irregular_marginals_match_gamma(self, w_affine):
        spec = build_limit_spec([K2, K3], w_affine, grid=256)
        assert spec.regular == (False, False)
        draws = sample_limit(spec, 100_000, seed=7)
        gam = gamma_matrix([K2, K3], w_affine).entries
        emp = np.cov(draws.T)
        se = gam[0, 0] * np.sqrt(2 / len(draws))
        assert abs(emp[0, 0] - gam[0, 0]) < 3 * np.sqrt(2 / len(draws)) * gam[0, 0]
        assert abs(emp[1, 1] - gam[1, 1]) < 3 * np.sqrt(2 / len(draws)) * gam[1, 1]
        assert abs(emp[0, 1] - gam[0, 1]) < 5 * np.sqrt(2 / len(draws)) * np.sqrt(
            gam[0, 0] * gam[1, 1])
        # marginal is exactly Gaussian
        assert stats.kstest(draws[:, 0] / np.sqrt(gam[0, 0]), "norm").statistic < 0.01

    def test_shared_brownian_path(self, w_two_community):
        spec = build_limit_spec([K2, K3], w_two_community, grid=64)
        both = sample_limit(spec, 500, seed=11)
        only_irregular = sample_limit(
            LimitSpec((K3,), (False,), w_two_community, 64, None), 500, seed=11)
        assert np.array_equal(both[:, 1], only_irregular[:, 0])

    def test_regular_variance_decomposition(self, w_const_half):
        # total variance = sigma^2 (Gaussian) + 2 sum lambda^2 (chi-squared)
        spec = build_limit_spec([K3], w_const_half, grid=256)
        draws = sample_limit(spec, 100_000, seed=13)[:, 0]
        law = marginal_regular_law(K3, w_const_half, grid=256)
        assert abs(draws.var() - law.variance()) < 0.05 * law.variance()

    def test_mean_zero_all_marginals(self, w_six_block):
        spec = build_limit_spec([K2, K3], w_six_block, grid=128)
        draws = sample_limit(spec, 100_000, seed=17)
        for j in range(2):
            se = draws[:, j].std() / np.sqrt(len(draws))
            assert abs(draws[:, j].mean()) < 4 * se

    def test_block_law_ignores_grid_cap(self, w_two_community, w_affine):
        # a block graphon's law is exact on its blocks, so even a cap of 16
        # nodes draws the same rows as the default; a Gauss-Legendre rule
        # needs room for one doubling from 4 nodes, or raises
        motifs = [K2, K3, cycle(4)]
        a = sample_limit(build_limit_spec(motifs, w_two_community, grid=16), 10, seed=1)
        b = sample_limit(build_limit_spec(motifs, w_two_community), 10, seed=1)
        assert np.array_equal(a, b)
        with pytest.raises(QuadratureError):
            sample_limit(build_limit_spec([K2], w_affine, grid=4), 10, seed=1)

    def test_non_psd_sigma_rejected(self, w_const_half):
        from graphonstat import CovMatrix
        bad = CovMatrix((K2, K3), np.array([[1.0, 2.0], [2.0, 1.0]]))
        spec = LimitSpec((K2, K3), (True, True), w_const_half, 64, bad)
        with pytest.raises(ValueError, match="positive semidefinite"):
            sample_limit(spec, 10, seed=1)

    def test_grid_refinement_invariance(self, w_const_half):
        a = sample_limit(build_limit_spec([K3], w_const_half, grid=256),
                         20_000, seed=19)[:, 0]
        b = sample_limit(build_limit_spec([K3], w_const_half, grid=512),
                         20_000, seed=23)[:, 0]
        assert stats.ks_2samp(a, b).statistic < 0.02

    @pytest.mark.parametrize("wname", ["paper-w2", "paper-w3"])
    def test_spectral_columns_match_dense_forms(self, wname):
        # Rebuild a path z over the block midpoints x (weights D = block
        # sizes) from the substreams the sampler documents:
        # z = Q1 u1 + (I - Q1 Q1') P V' u2 with rest = P diag(s) V' (SVD), so
        # that Q1'z = u1 and rest'z = V diag(s) V' u2 = S u2.  The columns are
        # then the dense quadratic form z'Az - tr(A), A = D^1/2 K D^1/2, plus
        # the sum of the cut eigenvalues, and the linear form (D^1/2 g)'z
        m, draws, seed = 256, 5000, 53
        w = graphon_by_name(wname)
        x, root = block_rule(w)[0], np.sqrt(block_rule(w)[1])
        spec = build_limit_spec([K2, K3], w, grid=m)
        assert sorted(spec.regular) == [False, True]
        got = sample_limit(spec, draws, seed)
        eta_rng, g_rng, rest_rng = (np.random.default_rng(s)
                                    for s in np.random.SeedSequence(seed).spawn(3))

        def stream(rng, dim):
            return np.hstack([rng.standard_normal((dim, min(_CHUNK, draws - s)))
                              for s in range(0, draws, _CHUNK)])

        (h_irr,) = [h for h, reg in zip(spec.motifs, spec.regular) if not reg]
        (h_reg,) = [h for h, reg in zip(spec.motifs, spec.regular) if reg]
        q1 = np.linalg.qr((root * linear_profile(h_irr, w, x))[:, None])[0]
        a = root[:, None] * centered_kernel(h_reg, w, x) * root
        lam, phi = np.linalg.eigh(a)
        keep = np.abs(lam) > SPECTRAL_CUT * kernel_bound(h_reg)
        rest = phi[:, keep] - q1 @ (q1.T @ phi[:, keep])
        p, _, vt = np.linalg.svd(rest, full_matrices=False)
        z = q1 @ stream(eta_rng, 1) + (p - q1 @ (q1.T @ p)) @ vt @ stream(rest_rng, keep.sum())
        gauss = _sigma_factor(spec.sigma, 1) @ stream(g_rng, 1)
        for j, (h, reg) in enumerate(zip(spec.motifs, spec.regular)):
            if reg:
                want = (np.einsum("xc,xc->c", z, a @ z) - np.trace(a) + lam[~keep].sum()
                        + gauss[0])
            else:
                want = (root * linear_profile(h, w, x)) @ z
            assert np.abs(got[:, j] - want).max() <= 1e-12 * got[:, j].std()

    def test_regular_motifs_sharing_eigenvectors(self, w_two_community):
        # On the three-block graphon K2 and C4 keep the same block
        # eigenvectors, and K3's profile lies in their span, so the kept
        # eigenvectors less their part along Q1 are linearly dependent.  Each
        # regular column must still have the law's variance, and the pair the
        # covariance 2 tr(A_K2 A_C4) + sigma_12
        m, c4, w = 252, cycle(4), w_two_community
        spec = build_limit_spec([K2, K3, c4], w, grid=m)
        assert spec.regular == (True, False, True)
        x = sample_limit(spec, 200_000, seed=59)
        x -= x.mean(axis=0)
        for j, h in ((0, K2), (2, c4)):
            sq = x[:, j] ** 2
            want = marginal_regular_law(h, w, m).variance()
            assert abs(sq.mean() - want) < 5 * sq.std() / np.sqrt(len(sq))
        nodes, root = block_rule(w)[0], np.sqrt(block_rule(w)[1])
        a_k2, a_c4 = (root[:, None] * centered_kernel(h, w, nodes) * root for h in (K2, c4))
        want = 2 * np.trace(a_k2 @ a_c4) + spec.sigma.entries[0, 1]
        prod = x[:, 0] * x[:, 2]
        assert abs(prod.mean() - want) < 5 * prod.std() / np.sqrt(len(prod))


class TestMarginalRegularLaw:
    def test_constant_edge_reduces_to_gaussian(self, w_const_half):
        law = marginal_regular_law(K2, w_const_half, grid=128)
        assert law.sigma == pytest.approx(np.sqrt(0.125), abs=1e-10)
        assert law.spectrum.size == 0

    def test_aligned_three_block_spectrum(self, w_two_community):
        # the law is read on the three blocks, exact at any grid: W_H = W/2
        # has eigenvalues {1/6, 1/6, -1/6}, and the constant direction (d_WH = 1/6)
        # is the one the centering removes
        law = marginal_regular_law(K2, w_two_community, grid=252)
        assert_allclose(np.sort(law.spectrum), [-1 / 6, 1 / 6], atol=1e-12)
        assert law.sigma ** 2 == pytest.approx(0.0, abs=1e-12)
        assert law.variance() == pytest.approx(1 / 9, abs=1e-12)

    def test_degree_eigenvalue_present_with_constant_eigenvector(self, w_const_half):
        m = 128
        kern = conditional_kernel_2pt(K3, w_const_half, midpoints(m)).values
        lam, vecs = np.linalg.eigh(kern / m)
        d = degree_constant(K3, w_const_half)
        idx = np.argmin(np.abs(lam - d))
        assert lam[idx] == pytest.approx(d, abs=1e-9)
        top = np.abs(vecs[:, idx])
        assert top.std() / top.mean() < 1e-6

    def test_eigenvalue_sum_of_squares_converges(self, w_affine):
        # sum lambda^2 -> double integral of W_H^2 under grid doubling
        # (smooth kernel, so the discretization converges quadratically)
        vals = []
        for m in (256, 512):
            kern = conditional_kernel_2pt(K3, w_affine, midpoints(m)).values
            lam = np.linalg.eigvalsh(kern / m)
            vals.append((lam ** 2).sum())
        assert abs(vals[1] - vals[0]) < 1e-3 * abs(vals[1])

    def test_eigenvalue_sum_matches_kernel_norm(self, w_affine):
        m = 256
        kern = conditional_kernel_2pt(K3, w_affine, midpoints(m)).values
        lam = np.linalg.eigvalsh(kern / m)
        assert (lam ** 2).sum() == pytest.approx((kern ** 2).mean(), rel=1e-10)

    def test_degeneracy_warning_for_irregular_input(self):
        # one dense half-block: the degree of W_H = W/2 is 1/4 on the block
        # and 0 off it, while d_WH = t/2 = 1/8, so K2 is irregular
        from graphonstat import BlockGraphon
        w = BlockGraphon([0.5, 0.5], [[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="not regular"):
            marginal_regular_law(K2, w, grid=128)

    @pytest.mark.parametrize("wname,motif,irregular", [
        ("paper-w2", "k3", True), ("paper-w3", "k2", True), ("paper-w3", "c4", True),
        ("paper-w1", "k3", True), ("half-block", "k2", True), ("near-const", "k2", True),
        ("const:0.5", "k2", False), ("const:0.5", "k3", False), ("const:0.5", "c4", False),
        ("paper-w2", "k2", False), ("paper-w2", "c4", False), ("paper-w3", "k3", False),
        ("bipartite:0.5", "k3", False),
    ])
    def test_degeneracy_warning_follows_degree_residual(self, wname, motif, irregular):
        # the law raises exactly when build_limit_spec finds the motif
        # irregular.  On near-const R(K2) = 1.0e-4: K2 is irregular, with a
        # degree residual of only 0.0099 |d_WH| and a limit variance of 2.5e-5,
        # not the 0.125 of a regular K2
        from graphonstat import BlockGraphon, parse_motif
        w = {"half-block": BlockGraphon([0.5, 0.5], [[1.0, 0.0], [0.0, 0.0]]),
             "near-const": BlockGraphon([0.5, 0.5], [[0.5, 0.5], [0.5, 0.52]]),
             }.get(wname) or graphon_by_name(wname)
        h = parse_motif(motif)
        assert build_limit_spec([h], w).regular == (not irregular,)
        if irregular:
            with pytest.raises(ValueError, match="not regular"):
                marginal_regular_law(h, w, grid=256)
        else:
            assert marginal_regular_law(h, w, grid=256).motif == h

    def test_constant_graphon_decomposes_one_by_one_matrix(self, w_const_half, monkeypatch):
        # const:0.5 has one block: the law reads one node, and the centered
        # kernel of K2 and K3 is the 1 x 1 zero matrix, so the spectrum is empty
        eigh, calls = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
        x, weights = block_rule(w_const_half)
        for h in (K2, K3):
            lam, phi = _regular_spectrum(h, w_const_half, x, weights)
            assert lam.shape == (0,) and phi.shape == (1, 0)
            assert np.abs(centered_kernel(h, w_const_half, x) @ weights).max() == 0.0
        assert calls == [(1, 1), (1, 1)]
        lam, phi = _regular_spectrum(K2, graphon_by_name("paper-w2"),
                                     *block_rule(graphon_by_name("paper-w2")))
        assert len(lam) > 0 and phi.shape == (3, len(lam))

    @pytest.mark.parametrize("grid", [64, 256, 512])
    def test_exact_law_on_misaligned_blocks(self, w_two_community, grid):
        # paper-w2's blocks of 1/3 meet no grid of m = 2^j cells; the law read
        # on the blocks is exact at every cap
        for h, want in ((K2, 1 / 9), (cycle(4), 0.0017146776406035645)):
            assert marginal_regular_law(h, w_two_community, grid).variance() == \
                pytest.approx(want, rel=1e-12)
            x, weights = block_rule(w_two_community)
            assert np.abs(centered_kernel(h, w_two_community, x) @ weights).max() <= 1e-15

    @pytest.mark.parametrize("wname", ["paper-w2", "paper-w3", "bipartite:0.5"])
    def test_regular_variance_matches_join_densities(self, wname):
        # sigma^2 + 2 sum lambda^2 is the regular variance eta~ of the
        # log-MGF, which `_eta_regular` sums from weak edge joins
        w = graphon_by_name(wname)
        pairs = [h for h in (K2, K3, cycle(4), K12)
                 if build_limit_spec([h], w).regular == (True,)]
        assert pairs
        for h in pairs:
            want = _eta_regular(build_limit_spec([h], w), [1.0])
            assert marginal_regular_law(h, w).variance() == pytest.approx(
                want, rel=1e-12, abs=1e-300)


class TestLogMgfOracle:
    def test_zero_at_origin(self, w_const_half):
        spec = build_limit_spec([K2, K3], w_const_half, grid=64)
        assert log_mgf_oracle(spec, [1.0, 1.0], 0.0) == 0.0

    def test_pure_irregular_is_gaussian(self, w_affine):
        spec = build_limit_spec([K2], w_affine, grid=64)
        eta = gamma_matrix([K2], w_affine).entries[0, 0]
        for theta in (-0.7, 0.2, 1.3):
            assert log_mgf_oracle(spec, [1.0], theta) == pytest.approx(
                theta ** 2 * eta / 2, abs=1e-12)

    def test_radius_enforced(self, w_const_half):
        spec = build_limit_spec([K2], w_const_half, grid=64)
        c = mgf_radius_constant(spec, [1.0])
        assert c == 1.0
        with pytest.raises(ValueError):
            log_mgf_oracle(spec, [1.0], 1 / (32 * c))
        log_mgf_oracle(spec, [1.0], 1 / (33 * c))   # inside the radius

    def test_matches_empirical_regular_pair(self, w_const_half):
        spec = build_limit_spec([K2, K3], w_const_half, grid=256)
        alpha = np.array([1.0, 1.0])
        c = mgf_radius_constant(spec, alpha)
        theta = 1 / (64 * c)
        series = log_mgf_oracle(spec, alpha, theta)
        draws = sample_limit(spec, 400_000, seed=43) @ alpha
        assert abs(series - empirical_log_mgf(draws, theta)) < 0.01

    def test_matches_empirical_mixed(self, w_two_community):
        spec = build_limit_spec([K2, K3], w_two_community, grid=256)
        alpha = np.array([0.8, 1.5])
        c = mgf_radius_constant(spec, alpha)
        theta = -1 / (64 * c)
        series = log_mgf_oracle(spec, alpha, theta)
        draws = sample_limit(spec, 400_000, seed=47) @ alpha
        assert abs(series - empirical_log_mgf(draws, theta)) < 0.01

    def test_empirical_log_mgf_large_exponent(self):
        # exp(800) overflows binary64; shifting by the largest exponent does not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert empirical_log_mgf(np.array([800.0, 800.0]), 1.0) == 800.0

    def test_series_terms_use_kernel_paths(self, w_const_half):
        # second-order coefficient equals eta~/2 for a pure regular combo:
        # differentiate numerically and compare against sigma + 2||U||^2
        spec = build_limit_spec([K3], w_const_half, grid=128)
        sig = sigma_matrix([K3], w_const_half).entries[0, 0]
        u = centered_kernel(K3, w_const_half, midpoints(128))
        total_var = sig + 2 * (u ** 2).mean()
        h = 1e-4
        second = (log_mgf_oracle(spec, [1.0], h) + log_mgf_oracle(spec, [1.0], -h)) / h ** 2
        assert second == pytest.approx(total_var, rel=1e-4)

    def test_six_vertex_regular_motif(self, w_const_half):
        # the weak edge joins of two 6-cycles have up to 10 vertices
        spec = build_limit_spec([cycle(6)], w_const_half, grid=16)
        assert spec.regular == (True,)
        assert np.isfinite(log_mgf_oracle(spec, [1.0], 0.01))


def test_linear_profile_variance_identity(w_affine):
    # integral of the profile squared equals the gamma variance
    prof = linear_profile(K2, w_affine, midpoints(512))
    gam = gamma_matrix([K2], w_affine).entries[0, 0]
    assert (prof ** 2).mean() == pytest.approx(gam, rel=1e-3)


@pytest.mark.parametrize("wname,motifs", [
    ("paper-w1", (K2, K3)), ("product", (K2, K3)), ("paper-w3", (K2,))])
def test_profile_gram_matches_gamma(wname, motifs):
    # the scaled profiles sqrt(w_i) g(x_i) are exact on blocks, and on a
    # Gauss-Legendre rule for these polynomial profiles
    w = graphon_by_name(wname)
    profiles, _ = _law_on_nodes(motifs, [False] * len(motifs), w, 512)
    assert_allclose(profiles @ profiles.T, gamma_matrix(motifs, w).entries, rtol=1e-12)
