import itertools
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from graphonstat import (K2, K3, C4, K12, Graph, GraphSizeError, Motif, clique,
                         constant_graphon, cycle, count_copies, density_hat_t,
                         empirical_graphon, graphon_by_name, hom_density,
                         injective_hom_count, one_point_density, parse_edge_list,
                         path, regularity_R_empirical, regularity_test, sample_graph,
                         star, two_point_matrix)
import graphonstat.counting as counting
import graphonstat.motifs as motif_module
from graphonstat._elim import contract
from graphonstat.counting import (_BOWTIE, _mobius_injective, edge_list_lines,
                                  falling_factorial, load_edge_list)
from graphonstat.motifs import MotifSizeError, parse_motif, vertex_join

from conftest import random_graph
from oracles import _backtrack_count, all_motifs_up_to, oracle_copies, \
    pinned_pair_counts, quotient_class_key, reference_spasm, subset_copy_census, \
    canonical_edge_key


class TestGraphType:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            Graph(np.array([[0, 1], [0, 0]]))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(np.array([[1, 0], [0, 0]]))

    @pytest.mark.parametrize("value", [2, -1, 0.5])
    def test_rejects_entries_other_than_0_and_1(self, value):
        with pytest.raises(ValueError, match="0 or 1"):
            Graph(np.array([[0, value], [value, 0]]))

    def test_degrees_consistent(self, small_graph):
        assert small_graph.degrees.tolist() == [3, 2, 2, 1, 1, 1]
        assert small_graph.n_edges == 5

    def test_edge_list_roundtrip(self, small_graph):
        for g in (small_graph, sample_graph(graphon_by_name("paper-w1"), 400, seed=2)):
            text = "\n".join(edge_list_lines(g))
            g2 = parse_edge_list(text)
            assert np.array_equal(g2.adj, g.adj)

    def test_loader_validates(self):
        with pytest.raises(ValueError):
            parse_edge_list("0 0\n")
        with pytest.raises(ValueError):
            parse_edge_list("# n=3\n0 5\n")
        with pytest.raises(ValueError):
            parse_edge_list("0 1 2\n")
        # a negative index, a token that is not an integer, a line of one or
        # three tokens among pairs, a comment after an edge on its line
        for text in ["0 1\n-1 2\n", "0 x\n", "0 1.5\n", "0 1\n2\n", "0 1\n1 2 3\n",
                     "0 1 # c\n"]:
            with pytest.raises(ValueError, match=r"\b(row|line|edge)\b"):
                parse_edge_list(text)
        # a non-integer pair is refused, not truncated to an index
        with pytest.raises(ValueError, match="integer"):
            Graph.from_edges(3, [(0, 1.5)])

    def test_loader_comments_and_n(self):
        g = parse_edge_list("# n=5\n# comment\n0 1\n\n2 3\n")
        assert g.n == 5 and g.n_edges == 2
        # the first pin holds wherever it stands
        g = parse_edge_list("0 1\n#  n=6\n2 3\n# n=9\n")
        assert g.n == 6 and g.n_edges == 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for text in ["", "# only a comment\n"]:
                g = parse_edge_list(text)
                assert g.n == 0 and g.n_edges == 0

    def test_load_edge_list_file(self, tmp_path, small_graph):
        p = tmp_path / "g.txt"
        p.write_text("\n".join(edge_list_lines(small_graph)) + "\n")
        g2 = load_edge_list(str(p))
        assert np.array_equal(g2.adj, small_graph.adj)


class TestCachedProducts:
    """`Graph.codegrees` (A @ A, an sgemm) and `Graph.triangle_row` against int64."""

    @staticmethod
    def check(g, a2, tri):
        for got, want in ((g.codegrees, a2), (g.triangle_row, tri)):
            assert got.dtype == np.float64 and not got.flags.writeable
            assert np.array_equal(got.astype(np.int64), want)
            with pytest.raises(ValueError):
                got[0] = 0

    @pytest.mark.parametrize("n", [9, 60, 301])
    def test_random_graphs_match_int64(self, n):
        g = random_graph(n, 0.4, seed=n)
        a = g.adj.astype(np.int64)
        a2 = a @ a
        self.check(g, a2, (a * a2).sum(axis=1))

    def test_complete_graph(self):
        # every off-diagonal codegree is n - 2, every triangle row (n - 1)(n - 2)
        n = 300
        a2 = np.full((n, n), n - 2)
        np.fill_diagonal(a2, n - 1)
        self.check(complete_graph(n), a2, np.full(n, (n - 1) * (n - 2)))


def test_closed_forms_build_no_n_by_n_temporaries():
    # numpy reports its buffers to tracemalloc; with A, A @ A and the triangle
    # row cached, each closed form is one fused reduction over them
    n = 600
    g = sample_graph(graphon_by_name("paper-w1"), n, seed=[20240422, 0, n])
    g.adj_float(), g.codegrees, g.triangle_row, g.degrees
    calls = {"k3": lambda: count_copies(K3, g), "c4": lambda: count_copies(C4, g),
             "bowtie": lambda: count_copies(_BOWTIE, g),
             "k3-row": lambda: one_point_density(K3, g),
             "c4-row": lambda: one_point_density(C4, g)}
    for name, call in calls.items():
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * 8 * n * n, f"{name} peaked at {peak / (8 * n * n):.2f} x 8n^2"


class TestCountCopies:
    def test_triangles_in_k4(self):
        g = random_graph(4, 1.1, seed=0)      # complete graph
        assert count_copies(K3, g) == 4

    def test_edges(self, small_graph):
        assert count_copies(K2, small_graph) == small_graph.n_edges

    def test_c4_against_subset_oracle(self):
        g = random_graph(8, 0.6, seed=3)
        assert count_copies(C4, g) == oracle_copies(C4, g)

    def test_k4_against_itertools_at_40(self):
        g = random_graph(40, 0.5, seed=3)
        nbrs = [set(np.flatnonzero(row)) for row in g.adj]
        brute = sum(all(v in nbrs[u] for u, v in itertools.combinations(quad, 2))
                    for quad in itertools.combinations(range(g.n), 4))
        assert brute > 0
        assert count_copies(clique(4), g) == brute

    def test_k5_against_itertools_at_30(self):
        # slicing K5 leaves a K4 in each slice, which is sliced again: both
        # slices count each clique once, from its lowest vertex
        g = random_graph(30, 0.6, seed=11)
        nbrs = [set(np.flatnonzero(row)) for row in g.adj]
        brute = sum(all(v in nbrs[u] for u, v in itertools.combinations(five, 2))
                    for five in itertools.combinations(range(g.n), 5))
        assert brute > 0
        assert count_copies(clique(5), g) == brute

    def test_triangle_free_cycle(self):
        c5 = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        assert count_copies(K3, c5) == 0
        assert density_hat_t(K3, c5) == 0.0

    def test_graph_too_small(self):
        g = random_graph(3, 0.5, seed=1)
        with pytest.raises(GraphSizeError):
            count_copies(C4, g)

    def test_strategies_agree(self):
        for seed in range(6):
            g = random_graph(9, 0.5, seed=seed)
            for h in (K2, K12, K3, C4, clique(4)):
                inj = injective_hom_count(h, g)
                assert inj == _backtrack_count(h, g, {})
                assert inj == _mobius_injective(h, g)

    def test_relabeling_invariance(self):
        g = random_graph(10, 0.4, seed=5)
        perm = np.random.default_rng(1).permutation(10)
        g2 = Graph(g.adj[np.ix_(perm, perm)])
        for h in (K3, C4, K12):
            assert count_copies(h, g) == count_copies(h, g2)

    def test_census_oracle_full_corpus(self):
        motifs = all_motifs_up_to(4)
        assert len(motifs) >= 11
        for seed in range(8):
            g = random_graph(int(5 + seed % 4), 0.5, seed=seed)
            census = subset_copy_census(g, max_k=4)
            for h in motifs:
                key = canonical_edge_key(h.k, tuple(sorted(h.edges)))
                assert count_copies(h, g) == census[key]


class TestDensityHat:
    def test_complete_graph(self):
        g = random_graph(7, 1.1, seed=0)
        assert density_hat_t(K2, g) == 1.0
        assert density_hat_t(C4, g) == 1.0

    def test_unbiasedness_monte_carlo(self):
        w = constant_graphon(0.5)
        vals = [density_hat_t(K2, sample_graph(w, 50, seed=(99, s)))
                for s in range(2000)]
        assert abs(np.mean(vals) - 0.5) < 0.01

    def test_range(self):
        g = random_graph(12, 0.5, seed=7)
        for h in (K2, K3, C4, K12):
            assert 0.0 <= density_hat_t(h, g) <= 1.0


class TestOnePoint:
    def test_edge_is_degree_over_n(self, small_graph):
        op = one_point_density(K2, small_graph)
        assert np.allclose(op.t_hat, small_graph.degrees / small_graph.n)

    def test_triangle_formula(self):
        g = random_graph(15, 0.5, seed=11)
        a = g.adj_float()
        closed3 = np.diag(a @ a @ a)
        op = one_point_density(K3, g)
        assert np.allclose(op.t_hat, closed3 / (2 * g.n ** 2))

    def test_partition_identity(self):
        g = random_graph(12, 0.5, seed=13)
        for h in (K2, K12, K3, C4):
            op = one_point_density(h, g)
            x = count_copies(h, g)
            for a in range(h.k):
                assert op.x_a[a].sum() == pytest.approx(h.aut * x, abs=1e-6)

    def test_mean_identity(self):
        g = random_graph(14, 0.4, seed=17)
        for h in (K2, K3, K12):
            op = one_point_density(h, g)
            expected = h.k * count_copies(h, g) / g.n ** h.k
            assert op.t_hat.mean() == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("h,p", [(vertex_join(K2, 1, K3, 1), 0.5), (path(4), 0.5),
                                     (star(3), 0.5), (cycle(5), 0.5), (clique(4), 0.5),
                                     (clique(5), 0.8), (vertex_join(clique(4), 1, K2, 1), 0.5)],
                             ids=["pan", "p4", "s3", "c5", "k4", "k5", "k4-pendant"])
    def test_general_motif_matches_backtracking(self, h, p):
        # no closed form registered: one Moebius sum per Aut(h) vertex orbit,
        # copied to every member; p leaves copies of h in the graph
        g = random_graph(12, p, seed=19)
        op = one_point_density(h, g)
        assert op.x_a.any()
        for a in range(1, h.k + 1):
            for v in (0, 5, 11):
                assert op.x_a[a - 1, v] == _backtrack_count(h, g, {a: v})


class TestTwoPoint:
    def test_edge_matrix_is_half_adjacency(self, small_graph):
        tp = two_point_matrix(K2, small_graph)
        expected = small_graph.adj_float() / 2
        np.fill_diagonal(expected, 0.0)
        assert np.allclose(tp.values, expected)

    def test_triangle_matrix_formula(self):
        g = random_graph(20, 0.5, seed=23)
        a = g.adj_float()
        expected = a * (a @ a) / (2 * g.n)
        np.fill_diagonal(expected, 0.0)
        assert np.allclose(two_point_matrix(K3, g).values, expected)

    def test_two_star_matrix_formula(self):
        g = random_graph(18, 0.5, seed=29)
        a = g.adj_float()
        d = g.degrees.astype(float)
        expected = (a * (d[:, None] + d[None, :] - 2) + a @ a) / (2 * g.n)
        np.fill_diagonal(expected, 0.0)
        assert np.allclose(two_point_matrix(K12, g).values, expected)

    def test_symmetric_zero_diagonal_bounded(self):
        g = random_graph(16, 0.6, seed=31)
        for h in (K2, K3, C4, K12):
            tp = two_point_matrix(h, g)
            assert np.allclose(tp.values, tp.values.T)
            assert np.all(np.diag(tp.values) == 0.0)
            bound = h.k * (h.k - 1) / (2 * h.aut)
            assert tp.values.max() <= bound + 1e-12
            assert tp.values.min() >= 0.0

    def test_partition_identity_ordered_pairs(self):
        g = random_graph(12, 0.5, seed=37)
        for h in (K3, C4):
            tp = two_point_matrix(h, g)
            total = tp.values.sum() * 2 * h.aut * float(g.n) ** (h.k - 2)
            # sum over ordered pairs (a,b) of sum_{u != v} X_{a,b} equals
            # k(k-1) |Aut| X
            assert total == pytest.approx(h.k * (h.k - 1) * h.aut * count_copies(h, g),
                                          rel=1e-12)

    @pytest.mark.parametrize("h,p", [(path(4), 0.35), (star(3), 0.35),
                                     (Motif.from_edges(4, [(1, 2), (2, 3), (1, 3), (3, 4)]), 0.35),
                                     (clique(4), 0.7)],
                             ids=["p4", "s3", "paw", "k4"])
    def test_mobius_branch_matches_injective_maps(self, h, p):
        # no closed form: each unordered pin pair is contracted once and
        # its transpose supplies the reversed pair; p leaves a copy of h in
        # the second graph
        for g in (random_graph(9, 0.5, seed=43), random_graph(8, p, seed=47)):
            want = pinned_pair_counts(h, g) / (2 * h.aut * float(g.n) ** (h.k - 2))
            assert want.any()
            np.testing.assert_allclose(two_point_matrix(h, g).values, want,
                                       rtol=1e-12, atol=0)


@pytest.mark.parametrize("op,h,most", [(two_point_matrix, path(4), 17),
                                        (one_point_density, path(4), 10),
                                        (two_point_matrix, cycle(5), 13),
                                        (one_point_density, cycle(5), 5),
                                        (two_point_matrix, star(3), 5)],
                         ids=["2pt-p4", "1pt-p4", "2pt-c5", "1pt-c5", "2pt-s3"])
def test_moebius_contracts_each_orbit_and_class_once(op, h, most, monkeypatch):
    # one contraction per pin orbit and quotient class with the pins coloured
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return contract(*args, **kwargs)

    monkeypatch.setattr(counting, "contract", counted)
    op(h, random_graph(12, 0.5, seed=53))
    assert 0 < len(calls) <= most


# every closed form of the counting dispatch: (motif, first pin tuple of its orbit)
ORBIT_FORMS = [(K2, ()), (K12, ()), (K3, ()), (C4, ()), (_BOWTIE, ()),
               (K2, (1,)), (K12, (1,)), (K12, (2,)), (K3, (1,)), (C4, (1,)),
               (K2, (1, 2)), (K12, (1, 2)), (K12, (2, 3)), (K3, (1, 2)), (C4, (1, 2)),
               (C4, (1, 3))]


def orbit_key(h, pins):
    return next(key for key, orbit in motif_module._pin_orbits(h, len(pins)).items()
                if pins in orbit)


class TestOrbitDispatch:
    def test_registry_is_the_sixteen_forms(self):
        assert set(counting._ORBIT_FORMS) == {orbit_key(h, pins) for h, pins in ORBIT_FORMS}
        assert len(counting._ORBIT_FORMS) == 16

    @pytest.mark.parametrize("fixture", ["w_affine", "w_six_block", "w_const_half"])
    @pytest.mark.parametrize("h,pins", ORBIT_FORMS, ids=[
        {K2: "k2", K12: "k12", K3: "k3", C4: "c4", _BOWTIE: "bowtie"}[h]
        + "-" + ("".join(map(str, pins)) or "total") for h, pins in ORBIT_FORMS])
    def test_form_equals_moebius(self, h, pins, fixture, request):
        form = counting._ORBIT_FORMS[orbit_key(h, pins)]
        for n in (9, 60):
            g = sample_graph(request.getfixturevalue(fixture), n, seed=61)
            want = _mobius_injective(h, g, pins)
            if len(pins) == 2:
                want = np.asarray(want, dtype=float)
                want = want + want.T
            got = form(g)
            if len(pins) == 2:
                assert got.dtype == np.float64
            if pins:
                assert got.shape == want.shape
                assert np.array_equal(got, want)
            else:
                assert got == int(want)

    @pytest.mark.parametrize("h,perm", [(K12, {1: 3, 2: 1, 3: 2}),
                                        (C4, {1: 1, 2: 3, 3: 2, 4: 4})],
                             ids=["k12-centre-3", "c4-relabelled"])
    def test_relabelled_motif_reads_the_same_forms(self, h, perm, monkeypatch):
        # a lookup miss would fall back to Moebius silently: count contractions
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return contract(*args, **kwargs)

        monkeypatch.setattr(counting, "contract", counted)
        other = h.relabel(perm)
        assert other != h
        g = sample_graph(graphon_by_name("paper-w1"), 60, seed=67)
        op, op_other = one_point_density(h, g), one_point_density(other, g)
        rows = [perm[a] - 1 for a in range(1, h.k + 1)]
        assert op_other.x_a[rows].tobytes() == op.x_a.tobytes()
        assert op_other.t_hat.tobytes() == op.t_hat.tobytes()
        assert two_point_matrix(other, g).values.tobytes() == \
            two_point_matrix(h, g).values.tobytes()
        assert injective_hom_count(other, g) == injective_hom_count(h, g)
        assert calls == []


class TestSpasm:
    @pytest.mark.parametrize("h", all_motifs_up_to(5), ids=lambda h: f"{h.k}:" + ",".join(
        f"{u}{v}" for u, v in sorted(h.edges)))
    def test_matches_all_partitions_reference(self, h):
        vertices = range(1, h.k + 1)
        for pins in [()] + [(a,) for a in vertices] + list(itertools.combinations(vertices, 2)):
            got = {}
            for edges, k, pin_blocks, mu in counting._spasm(h, pins):
                assert all(a != b for a, b in edges)
                assert len(set(pin_blocks)) == len(pins)
                key = quotient_class_key(k, edges, pin_blocks)
                assert key not in got
                got[key] = mu
            assert got == reference_spasm(h, pins), pins

    def test_spasm_build_leaves_canonical_form_cache_alone(self):
        # the labelled quotients of one spasm are keyed once, uncached
        h = vertex_join(cycle(5), 1, path(4), 2)
        size = motif_module._canonical_form.cache_info().currsize
        assert counting._spasm.__wrapped__(h, (1, 3))
        assert motif_module._canonical_form.cache_info().currsize == size

    def test_second_graph_builds_no_spasm(self):
        code = ("from graphonstat import (C4, graphon_by_name, one_point_density, path, "
                "regularity_R_empirical, sample_graph); "
                "g = sample_graph(graphon_by_name('paper-w1'), 20, seed=2); "
                "print(one_point_density(path(4), g).x_a.tobytes().hex(), "
                "regularity_R_empirical(C4, g).hex())")
        w = graphon_by_name("paper-w1")
        g1, g2 = sample_graph(w, 20, seed=1), sample_graph(w, 20, seed=2)
        one_point_density(path(4), g1)
        regularity_R_empirical(C4, g1)
        misses = counting._spasm.cache_info().misses
        x_a = one_point_density(path(4), g2).x_a
        r = regularity_R_empirical(C4, g2)
        assert counting._spasm.cache_info().misses == misses
        src = os.path.dirname(os.path.dirname(os.path.abspath(counting.__file__)))
        fresh = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                               capture_output=True, text=True, check=True, timeout=120)
        assert fresh.stdout.split() == [x_a.tobytes().hex(), r.hex()]


class TestEmpiricalGraphon:
    def test_empty_graph(self):
        g = Graph(np.zeros((4, 4), dtype=np.uint8))
        w = empirical_graphon(g)
        assert hom_density(K2, w) == 0.0

    def test_density_identity(self):
        g = random_graph(11, 0.5, seed=41)
        w = empirical_graphon(g)
        a = g.adj_float()
        n = g.n
        # all-maps homomorphism densities computed directly
        assert hom_density(K2, w) == pytest.approx(a.sum() / n ** 2, abs=1e-12)
        assert hom_density(K3, w) == pytest.approx(np.trace(a @ a @ a) / n ** 3,
                                                   abs=1e-12)

    def test_injective_vs_all_maps_gap_shrinks(self):
        w0 = graphon_by_name("paper-w1")
        gaps = []
        for n in (40, 80, 160):
            g = sample_graph(w0, n, seed=43)
            gap = abs(density_hat_t(K3, g) - hom_density(K3, empirical_graphon(g)))
            gaps.append(gap * n)
        # gap = O(1/n): n * gap stays bounded (ratio test across doublings)
        assert gaps[2] < 3 * gaps[0] + 1e-9


class TestRegularityStatistic:
    def test_complete_graph_zero(self):
        g = random_graph(9, 1.1, seed=0)
        assert regularity_R_empirical(K2, g) == pytest.approx(0.0, abs=1e-12)

    def test_too_small(self):
        g = random_graph(4, 0.5, seed=1)
        with pytest.raises(GraphSizeError):
            regularity_R_empirical(K3, g)

    def test_matches_definition_directly(self):
        g = random_graph(14, 0.5, seed=47)
        joins = [vertex_join(K2, a, K2, b) for a in (1, 2) for b in (1, 2)]
        expected = sum(density_hat_t(j, g) for j in joins) \
            - 4 * density_hat_t(K2, g) ** 2
        assert regularity_R_empirical(K2, g) == pytest.approx(expected, rel=1e-10)

    def test_c5_value_under_partition_cap(self):
        # the value computed before the partition cap existed, bit for bit
        g = sample_graph(graphon_by_name("paper-w1"), 14, seed=3)
        assert regularity_R_empirical(parse_motif("c5"), g) == -0.0011022850683190346

    @pytest.mark.parametrize("name", ["c7", "p7", "c8", "k8"])
    def test_joins_past_partition_cap_raise_at_once(self, name):
        g = sample_graph(graphon_by_name("paper-w1"), 20, seed=1)
        t = time.perf_counter()
        with pytest.raises(MotifSizeError, match="partitions"):
            regularity_R_empirical(parse_motif(name), g)
        assert time.perf_counter() - t < 1.0

    def test_sqrt_n_statistic_separates_at_400(self):
        # Monte Carlo of the raw sqrt(n) R indicator for a strongly irregular
        # and an exactly regular graphon
        w_irr = graphon_by_name("paper-w1")
        w_reg = constant_graphon(0.5)
        n = 400
        fire_irr = sum(
            math.sqrt(n) * regularity_R_empirical(K2, sample_graph(w_irr, n, seed=(53, s))) > 1
            for s in range(200))
        fire_reg = sum(
            math.sqrt(n) * regularity_R_empirical(K2, sample_graph(w_reg, n, seed=(59, s))) > 1
            for s in range(200))
        assert fire_irr >= 0.95 * 200
        assert fire_reg <= 0.05 * 200


def complete_graph(n):
    return random_graph(n, 1.1, seed=0)


class TestExactAtEveryN:
    """Exact counts past the sizes where 64-bit arithmetic runs out.

    Complete graphs are the oracle: a k-vertex motif has exactly
    falling_factorial(n, k) injective copies in K_n.
    """

    def test_python_int_path_past_int64(self):
        g = complete_graph(600)
        h = star(7)                       # centre 1, 8 vertices: 600^8 > 2^63
        inj = injective_hom_count(h, g)
        assert inj == falling_factorial(600, 8) and inj > 2 ** 63
        assert count_copies(h, g) == falling_factorial(600, 8) // h.aut
        # pinned at the centre: every vertex is the centre of (599)_7 stars,
        # and the Moebius bound of the running total passes 2^63
        x = _mobius_injective(h, g, pins=(1,))
        assert x.shape == (600,)
        assert all(int(v) == falling_factorial(599, 7) for v in x)

    def test_seven_vertex_count_near_int64_limit(self):
        # (500)_7 / 2 copies of P7: steps run in int64 up to 500^7 ~ 0.85 * 2^63
        g = complete_graph(500)
        assert count_copies(path(7), g) == falling_factorial(500, 7) // 2

    def test_closed_forms_past_1500(self):
        g = complete_graph(1600)
        for h in (K3, _BOWTIE):
            inj = injective_hom_count(h, g)             # closed form
            assert inj == falling_factorial(1600, h.k)
            assert inj == _mobius_injective(h, g)

    def test_k4_by_slicing_at_600(self):
        g = sample_graph(graphon_by_name("paper-w1"), 600, seed=[20240422, 0, 600])
        a = g.adj_float()
        # each K4 is a triangle inside the neighbourhood of each of its 4 vertices
        walks = 0
        for c in range(g.n):
            nb = np.flatnonzero(g.adj[c])
            b = a[np.ix_(nb, nb)]
            walks += int(round(((b @ b) * b).sum()))    # 6 closed walks per triangle
        assert walks % 24 == 0
        assert count_copies(clique(4), g) == walks // 24

    def test_c4_regularity_test_at_500(self):
        g = sample_graph(graphon_by_name("paper-w1"), 500, seed=[20240422, 0, 500])
        assert np.isfinite(regularity_test(g, C4).r_value)
