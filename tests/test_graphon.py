import json

import numpy as np
import pytest

from graphonstat import (K2, K3, C4, K12, BlockGraphon, ExpressionGraphon,
                         clique, conditional_1pt, conditional_kernel_2pt,
                         constant_graphon, gamma_matrix,
                         graphon_by_name, hom_density, load_block_graphon, path,
                         regularity_R_graphon, sample_graph, sigma_matrix,
                         tbar_1pt)
from graphonstat.graphon import QuadratureError, degree_constant, kernel_bound
from oracles import edge_join, riemann_density


class TestGraphonTypes:
    def test_block_sizes_must_sum_to_one(self):
        with pytest.raises(ValueError):
            BlockGraphon([0.5, 0.4], [[0, 1], [1, 0]])

    def test_block_symmetry(self):
        with pytest.raises(ValueError):
            BlockGraphon([0.5, 0.5], [[0, 1], [0.5, 0]])

    def test_block_range(self):
        with pytest.raises(ValueError):
            BlockGraphon([1.0], [[1.5]])

    def test_expression_symmetry_check(self):
        with pytest.raises(ValueError):
            ExpressionGraphon(lambda x, y: np.asarray(x) * 0 + np.minimum(x, 1) * 0.5
                              + 0.1 * (np.asarray(x) > np.asarray(y)))

    def test_expression_range_check(self):
        with pytest.raises(ValueError):
            ExpressionGraphon(lambda x, y: np.asarray(x) + np.asarray(y))

    def test_block_lookup_uses_ceiling_convention(self):
        w = graphon_by_name("paper-w2")
        assert w.eval(1 / 3, 1 / 3) == 0.0      # boundary belongs to block 1
        assert w.eval(0.5, 0.5) == 1.0

    def test_json_roundtrip(self, tmp_path):
        w = graphon_by_name("paper-w3")
        p = str(tmp_path / "w.json")
        with open(p, "w") as fh:
            json.dump({"sizes": w.sizes.tolist(), "values": w.values.tolist()}, fh)
        w2 = load_block_graphon(p)
        assert np.allclose(w2.sizes, w.sizes)
        assert np.allclose(w2.values, w.values)

    def test_bad_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("[1,2,3]")
        with pytest.raises(ValueError):
            load_block_graphon(str(p))


class TestHomDensity:
    def test_edge_density_affine(self, w_affine):
        assert hom_density(K2, w_affine) == pytest.approx(0.5, abs=1e-10)

    def test_triangle_density_affine(self, w_affine):
        assert hom_density(K3, w_affine) == pytest.approx(5 / 32, abs=1e-10)

    def test_two_community_densities(self, w_two_community):
        assert hom_density(K2, w_two_community) == pytest.approx(1 / 3, abs=1e-12)
        assert hom_density(K3, w_two_community) == pytest.approx(1 / 27, abs=1e-12)

    def test_six_block_densities(self, w_six_block):
        assert hom_density(K2, w_six_block) == pytest.approx(13 / 36, abs=1e-12)
        assert hom_density(K3, w_six_block) == pytest.approx(1 / 18, abs=1e-12)

    def test_constant_graphon_counts_multiplicity(self):
        w = constant_graphon(0.7)
        assert hom_density(C4, w) == pytest.approx(0.7 ** 4, abs=1e-12)
        doubled = edge_join(K2, (1, 2), K2, (1, 2), "strong")
        assert hom_density(doubled, w) == pytest.approx(0.7 ** 2, abs=1e-12)

    def test_multigraph_density(self, w_affine):
        strong = edge_join(K3, (1, 2), K3, (1, 2), "strong")
        weak = edge_join(K3, (1, 2), K3, (1, 2), "weak")
        assert hom_density(strong, w_affine) < hom_density(weak, w_affine)

    def test_agrees_with_riemann_oracle(self, w_product):
        # every vertex of the triangle meets two edges, so the product kernel
        # factorizes: t(K3, xy) = (int x^2 dx)^3 = 1/27
        assert hom_density(K3, w_product) == pytest.approx(1 / 27, abs=1e-9)
        coarse = riemann_density(K3, lambda x, y: x * y, m=24)
        assert hom_density(K3, w_product) == pytest.approx(coarse, abs=2e-3)

    def test_isolated_vertices_integrate_out(self, w_affine, w_two_community):
        from graphonstat import parse_motif
        edge_plus_isolated = parse_motif("n=3;edges=1-2")
        for w in (w_affine, w_two_community):
            assert hom_density(edge_plus_isolated, w) == pytest.approx(
                hom_density(K2, w), abs=1e-10)
            # pinning the isolated vertex gives the plain density at every x
            got = conditional_1pt(edge_plus_isolated, 3, np.array([0.2, 0.9]), w)
            assert np.allclose(got, hom_density(K2, w), atol=1e-10)

    def test_block_matches_expression_for_aligned_steps(self, w_bipartite_half):
        # same step function, quadrature path: boundaries align with the cells
        expr = ExpressionGraphon(
            lambda x, y: 0.5 * (((np.asarray(x) < 0.5) & (np.asarray(y) >= 0.5))
                                | ((np.asarray(x) >= 0.5) & (np.asarray(y) < 0.5))),
            name="bipartite-expr")
        for h in (K2, K3, C4, K12):
            assert hom_density(h, expr) == pytest.approx(
                hom_density(h, w_bipartite_half), abs=1e-8)

    @pytest.mark.parametrize("integral", [
        lambda w: hom_density(K3, w),
        lambda w: conditional_1pt(K3, 1, 0.3001, w),
        lambda w: tbar_1pt(K3, 0.3001, w),
        lambda w: conditional_kernel_2pt(K3, w, [0.3001, 0.7]),
    ], ids=["hom_density", "conditional_1pt", "tbar_1pt", "conditional_kernel_2pt"])
    def test_quadrature_convergence_error_for_misaligned_step(self, integral):
        # a jump off the cell grid never meets the refinement tolerance, so
        # every graphon integral raises rather than return an unchecked value
        expr = ExpressionGraphon(
            lambda x, y: np.where((np.asarray(x) < 0.3) == (np.asarray(y) < 0.3), 0.8, 0.2),
            name="misaligned")
        with pytest.raises(QuadratureError):
            integral(expr)

    def test_hom_sum_is_called_only_from_integrate(self):
        # one checked path: no graphon integral bypasses the convergence check
        import ast
        import inspect
        import graphonstat.graphon as mod
        callers = set()
        for fn in ast.walk(ast.parse(inspect.getsource(mod))):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_hom_sum":
                        callers.add(fn.name)
        assert callers == {"_integrate"}


class TestConditionalDensities:
    def test_degree_function_affine(self, w_affine):
        x = np.array([0.0, 0.25, 0.8])
        got = conditional_1pt(K2, 1, x, w_affine)
        assert np.allclose(got, 0.5 * (x + 0.5), atol=1e-10)

    def test_triangle_one_point_affine(self, w_affine):
        x = np.array([0.1, 0.5, 0.9])
        got = conditional_1pt(K3, 2, x, w_affine)
        assert np.allclose(got, (x ** 2 + 7 * x / 6 + 1 / 3) / 8, atol=1e-10)

    def test_constant_graphon(self):
        w = constant_graphon(0.4)
        for a in (1, 2, 3):
            assert conditional_1pt(K3, a, 0.37, w) == pytest.approx(0.4 ** 3, abs=1e-12)

    def test_two_star_center_vs_leaf(self, w_affine):
        x = np.array([0.3])
        center = conditional_1pt(K12, 1, x, w_affine)[0]
        d = 0.5 * (0.3 + 0.5)
        assert center == pytest.approx(d ** 2, abs=1e-10)

    def test_tbar_integrates_to_density(self, w_affine, w_two_community):
        for w in (w_affine, w_two_community):
            for h in (K2, K3, K12):
                grid = (np.arange(400) + 0.5) / 400
                integral = tbar_1pt(h, grid, w).mean()
                assert integral == pytest.approx(hom_density(h, w), abs=5e-4)

    def test_invalid_vertex(self, w_affine):
        with pytest.raises(ValueError):
            conditional_1pt(K3, 4, 0.5, w_affine)


class TestTwoPointKernel:
    def test_edge_kernel_is_half_graphon(self, w_affine):
        m = 16
        g = (np.arange(m) + 0.5) / m
        kern = conditional_kernel_2pt(K2, w_affine, g)
        assert np.allclose(kern.values, w_affine.eval(g[:, None], g[None, :]) / 2,
                           atol=1e-12)

    def test_triangle_kernel_closed_form(self, w_affine):
        m = 12
        g = (np.arange(m) + 0.5) / m
        kern = conditional_kernel_2pt(K3, w_affine, g)
        # (1/2) W(x,y) int W(x,z) W(z,y) dz with W = (x+y)/2
        xx, yy = np.meshgrid(g, g, indexing="ij")
        inner = (xx * yy / 4 + (xx + yy) / 8 + 1 / 12)
        expected = 0.5 * (xx + yy) / 2 * inner
        assert np.allclose(kern.values, expected, atol=1e-9)

    def test_two_star_kernel_closed_form(self, w_affine):
        m = 10
        g = (np.arange(m) + 0.5) / m
        kern = conditional_kernel_2pt(K12, w_affine, g)
        xx, yy = np.meshgrid(g, g, indexing="ij")
        inner = (xx * yy / 4 + (xx + yy) / 8 + 1 / 12)
        d = lambda v: 0.5 * (v + 0.5)
        expected = 0.5 * (inner + (xx + yy) / 2 * (d(xx) + d(yy)))
        assert np.allclose(kern.values, expected, atol=1e-9)

    def test_symmetry_and_bounds(self, w_two_community):
        for h in (K2, K3, C4, K12):
            kern = conditional_kernel_2pt(h, w_two_community, (np.arange(24) + 0.5) / 24)
            assert np.allclose(kern.values, kern.values.T, atol=1e-12)
            assert kern.values.min() >= -1e-12
            assert kern.values.max() <= kernel_bound(h) + 1e-12

    @pytest.mark.parametrize("name", ["paper-w1", "paper-w2", "paper-w3", "product"])
    @pytest.mark.parametrize("h", [K2, K3, C4, path(4)], ids=["k2", "k3", "c4", "p4"])
    def test_exactly_symmetric(self, h, name):
        # each pin orbit adds tab + tab.T, so no symmetrizing pass is needed
        v = conditional_kernel_2pt(h, graphon_by_name(name),
                                  (np.arange(64) + 0.5) / 64).values
        assert np.array_equal(v, v.T)

    def test_degree_identity(self, w_affine):
        # row means of W_H equal ((k-1)/(2|Aut|)) sum_a t_a(x) at grid points
        m = 64
        g = (np.arange(m) + 0.5) / m
        for h in (K2, K3, K12):
            kern = conditional_kernel_2pt(h, w_affine, g)
            rows = kern.values.mean(axis=1)
            target = (h.k - 1) / (2 * h.aut) * sum(
                conditional_1pt(h, a, g, w_affine) for a in range(1, h.k + 1))
            assert np.allclose(rows, target, atol=2.0 / m)

    def test_regular_kernel_has_constant_degree(self, w_const_half):
        m = 32
        kern = conditional_kernel_2pt(K3, w_const_half, (np.arange(m) + 0.5) / m)
        d = degree_constant(K3, w_const_half)
        assert np.allclose(kern.values.mean(axis=1), d, atol=1e-10)


class TestRegularity:
    def test_constant_is_regular_for_everything(self):
        w = constant_graphon(0.37)
        for h in (K2, K3, K12, C4, clique(4)):
            assert regularity_R_graphon(h, w) < 1e-12

    def test_two_community_edge_regular(self, w_two_community):
        assert regularity_R_graphon(K2, w_two_community) < 1e-12

    def test_affine_edge_value(self, w_affine):
        assert regularity_R_graphon(K2, w_affine) == pytest.approx(1 / 12, abs=1e-8)

    def test_sum_of_squares(self, w_const_half):
        # R is |Aut|^2 times a Gram diagonal: non-negative with no clamp
        raw = K2.aut ** 2 * gamma_matrix([K2], w_const_half).entries[0, 0]
        assert abs(raw) < 1e-12
        assert regularity_R_graphon(K2, w_const_half) == raw >= 0.0


class TestCovariances:
    def test_erdos_renyi_closed_form(self):
        p = 0.5
        w = constant_graphon(p)
        motifs = (K2, K3, C4)
        sig = sigma_matrix(motifs, w)
        for i, hi in enumerate(motifs):
            for j, hj in enumerate(motifs):
                expected = (2 * hi.n_edges * hj.n_edges / (hi.aut * hj.aut)
                            * p ** (hi.n_edges + hj.n_edges - 1) * (1 - p))
                assert sig.entries[i, j] == pytest.approx(expected, abs=1e-12)

    def test_erdos_renyi_rank_one(self):
        sig = sigma_matrix((K2, K3, C4, K12), constant_graphon(0.3))
        sv = np.linalg.svd(sig.entries, compute_uv=False)
        assert sv[1] < 1e-9 * sv[0]

    def test_zero_one_graphon_kills_sigma(self, w_two_community):
        # 0/1-valued kernels make weak and strong joins coincide
        sig = sigma_matrix([K2], w_two_community)
        assert sig.entries[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_gamma_diagonal_is_scaled_regularity(self, w_affine):
        gam = gamma_matrix((K2, K3), w_affine)
        assert gam.entries[0, 0] == pytest.approx(
            regularity_R_graphon(K2, w_affine) / K2.aut ** 2, abs=1e-10)
        assert gam.entries[1, 1] == pytest.approx(
            regularity_R_graphon(K3, w_affine) / K3.aut ** 2, abs=1e-10)

    def test_gamma_affine_edge(self, w_affine):
        gam = gamma_matrix([K2], w_affine)
        assert gam.entries[0, 0] == pytest.approx(1 / 48, abs=1e-9)

    def test_gamma_constant_vanishes(self):
        gam = gamma_matrix((K2, K3), constant_graphon(0.6))
        assert np.abs(gam.entries).max() < 1e-12

    def test_gamma_positive_semidefinite(self, w_affine, w_six_block):
        for w in (w_affine, w_six_block):
            gam = gamma_matrix((K2, K3, C4), w)
            assert np.linalg.eigvalsh(gam.entries).min() > -1e-9

    def test_empty_motif_list(self, w_affine):
        with pytest.raises(ValueError):
            sigma_matrix([], w_affine)
        with pytest.raises(ValueError):
            gamma_matrix([], w_affine)


class TestSampling:
    def test_empty_and_complete(self):
        g0 = sample_graph(constant_graphon(0.0), 10, seed=0)
        assert g0.n_edges == 0
        g1 = sample_graph(constant_graphon(1.0), 10, seed=0)
        assert g1.n_edges == 45

    def test_edge_density_concentrates(self):
        g = sample_graph(constant_graphon(0.5), 2000, seed=42)
        density = 2 * g.n_edges / (2000 * 1999)
        assert abs(density - 0.5) < 0.03

    def test_deterministic_given_seed(self, w_affine):
        a = sample_graph(w_affine, 50, seed=7)
        b = sample_graph(w_affine, 50, seed=7)
        assert np.array_equal(a.adj, b.adj)

    def test_rejects_bad_n(self, w_affine):
        with pytest.raises(ValueError):
            sample_graph(w_affine, 0, seed=1)


def test_builtin_registry_names():
    for name in ("const:0.25", "bipartite:0.5", "product", "affine",
                 "paper-w1", "paper-w2", "paper-w3", "wminus", "wplus"):
        w = graphon_by_name(name)
        assert 0.0 <= hom_density(K2, w) <= 1.0
    with pytest.raises(ValueError):
        graphon_by_name("nonsense")
