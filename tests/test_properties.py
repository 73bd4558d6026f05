"""Deterministic property suites: exact identities with no stochastic component.

Every graph here is either a fixed structure or a seeded (hence reproducible)
sample used purely as an arbitrary deterministic input; the assertions are
algebraic identities, not Monte-Carlo statements.
"""

import numpy as np
import pytest

from graphonstat import (K2, K3, C4, K12, clique, conditional_1pt,
                         conditional_kernel_2pt, constant_graphon, count_copies, cycle,
                         empirical_graphon, graphon_by_name,
                         hom_density, one_point_density, path, two_point_matrix)
from graphonstat.graphon import kernel_bound, sample_graph
from graphonstat.motifs import parse_motif

from conftest import random_graph
from oracles import edge_join

MOTIFS = (K2, K12, K3, C4)
GRAPHS = [random_graph(12, 0.5, seed=0), random_graph(9, 0.3, seed=1),
          random_graph(15, 0.7, seed=2)]
GRAPHONS = [graphon_by_name(n) for n in
            ("paper-w1", "paper-w2", "paper-w3", "wminus", "wplus", "const:0.5")]


@pytest.mark.parametrize("g", GRAPHS, ids=["g12", "g9", "g15"])
@pytest.mark.parametrize("h", MOTIFS, ids=["k2", "k12", "k3", "c4"])
def test_one_point_partition_identity(g, h):
    # sum_v X_a(v) = |Aut| X for every pinned vertex a
    op = one_point_density(h, g)
    x = count_copies(h, g)
    for a in range(h.k):
        assert int(round(op.x_a[a].sum())) == h.aut * x


@pytest.mark.parametrize("g", GRAPHS, ids=["g12", "g9", "g15"])
@pytest.mark.parametrize("h", MOTIFS, ids=["k2", "k12", "k3", "c4"])
def test_two_point_partition_identity(g, h):
    # sum_{u != v} X_{a,b}(u,v) over all ordered (a,b) equals k(k-1)|Aut| X
    tp = two_point_matrix(h, g)
    total = tp.values.sum() * 2 * h.aut * float(g.n) ** (h.k - 2)
    assert total == pytest.approx(h.k * (h.k - 1) * h.aut * count_copies(h, g),
                                  rel=1e-10)


@pytest.mark.parametrize("g", GRAPHS, ids=["g12", "g9", "g15"])
@pytest.mark.parametrize("h", MOTIFS, ids=["k2", "k12", "k3", "c4"])
def test_two_point_symmetry_zero_diagonal_bounds(g, h):
    tp = two_point_matrix(h, g)
    assert np.array_equal(np.diag(tp.values), np.zeros(g.n))
    assert np.allclose(tp.values, tp.values.T, atol=1e-12)
    assert tp.values.min() >= 0.0
    assert tp.values.max() <= kernel_bound(h) + 1e-12


@pytest.mark.parametrize("w", GRAPHONS, ids=lambda w: w.name)
def test_weak_join_density_dominates_strong(w):
    for h in (K2, K3, C4):
        for pa in h.ordered_edges()[:2]:
            for pb in h.ordered_edges()[:2]:
                weak = hom_density(edge_join(h, pa, h, pb, "weak"), w)
                strong = hom_density(edge_join(h, pa, h, pb, "strong"), w)
                assert weak >= strong - 1e-12


def test_weak_equals_strong_on_zero_one_graphons():
    # W^2 = W pointwise for 0/1-valued kernels
    zero_one = [graphon_by_name("paper-w2"),
                empirical_graphon(random_graph(10, 0.5, seed=3))]
    for w in zero_one:
        for h in (K2, K3):
            for pa in h.ordered_edges()[:2]:
                weak = hom_density(edge_join(h, pa, h, pa, "weak"), w)
                strong = hom_density(edge_join(h, pa, h, pa, "strong"), w)
                assert weak == pytest.approx(strong, abs=1e-12)


@pytest.mark.parametrize("w", GRAPHONS, ids=lambda w: w.name)
@pytest.mark.parametrize("h", (K2, K3, K12), ids=["k2", "k3", "k12"])
def test_degree_identity_on_grid(w, h):
    # row means of the 2-point kernel equal ((k-1)/(2|Aut|)) sum_a t_a(x)
    m = 48
    grid = (np.arange(m) + 0.5) / m
    kern = conditional_kernel_2pt(h, w, grid)
    rows = kern.values.mean(axis=1)
    target = (h.k - 1) / (2 * h.aut) * sum(
        conditional_1pt(h, a, grid, w) for a in range(1, h.k + 1))
    assert np.allclose(rows, target, atol=3.0 / m)


def test_constant_graphon_kernel_is_flat():
    w = constant_graphon(0.42)
    for h in (K2, K3, C4):
        kern = conditional_kernel_2pt(h, w, (np.arange(16) + 0.5) / 16)
        d = h.k * (h.k - 1) / (2 * h.aut) * hom_density(h, w)
        assert np.allclose(kern.values.mean(axis=1), d, atol=1e-12)


def test_empirical_graphon_reproduces_all_maps_density():
    g = random_graph(11, 0.5, seed=4)
    w = empirical_graphon(g)
    a = g.adj_float()
    n = g.n
    assert hom_density(K2, w) == pytest.approx(a.sum() / n ** 2, abs=1e-12)
    assert hom_density(K12, w) == pytest.approx((a @ a).sum() / n ** 3, abs=1e-12)
    assert hom_density(K3, w) == pytest.approx(np.trace(a @ a @ a) / n ** 3, abs=1e-12)
    assert hom_density(C4, w) == pytest.approx(np.trace(a @ a @ a @ a) / n ** 4,
                                               abs=1e-12)


# -- contraction engine ----------------------------------------------------------

from hypothesis import given, settings, strategies as st

import graphonstat._elim as _elim
from graphonstat._elim import ExactSum, _exact_dtype, _exact_total, _result_dtype, contract
from graphonstat.counting import _mobius_injective

_VARS = "abcde"


@st.composite
def factor_lists(draw, entries):
    """Small factor lists on 3-5 variables: random pairs and unary factors,
    sometimes every pair (a K4 or K5 factor graph, which forces slicing),
    plus 0-2 kept variables."""
    k = draw(st.integers(3, 5))
    names = _VARS[:k]
    domains = {v: draw(st.integers(1, 4)) for v in names}
    pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1:]]
    if draw(st.booleans()):
        chosen = pairs
    else:
        chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs)))
    unary = draw(st.lists(st.sampled_from(names), max_size=3))
    factors = []
    for vs in [p if draw(st.booleans()) else p[::-1] for p in chosen] + [(u,) for u in unary]:
        shape = tuple(domains[v] for v in vs)
        values = draw(st.lists(entries, min_size=int(np.prod(shape)),
                               max_size=int(np.prod(shape))))
        factors.append((vs, values, shape))
    keep = tuple(draw(st.permutations(names))[:draw(st.integers(0, 2))])
    return factors, domains, keep


def _einsum_reference(factors, domains, keep, dtype):
    """The whole expression as one direct np.einsum, with no elimination order."""
    names = list(domains)
    subs = [("".join(vs), np.array(values, dtype=dtype).reshape(shape))
            for vs, values, shape in factors]
    subs += [(v, np.ones(domains[v], dtype=dtype)) for v in names]   # untouched variables
    expr = ",".join(s for s, _ in subs) + "->" + "".join(keep)
    return np.einsum(expr, *(a for _, a in subs), optimize=False)


def _run(factors, domains, keep, dtype):
    return contract([(vs, np.array(values, dtype=dtype).reshape(shape))
                     for vs, values, shape in factors], domains, keep=keep)


@settings(max_examples=300, deadline=None)
@given(factor_lists(st.integers(-3, 3)))
def test_contract_integer_matches_einsum_exactly(case):
    factors, domains, keep = case
    got = _run(factors, domains, keep, np.int64)
    # entries of at most 3 keep every bound below 2^53; steps bounded by 2^24 run
    # in float32, but the result never leaves in it
    assert got.dtype == np.float64
    assert np.array_equal(got, _einsum_reference(factors, domains, keep, np.int64))


@pytest.mark.parametrize("h", [clique(4), path(4), cycle(5)], ids=["k4", "p4", "c5"])
def test_no_public_result_is_float32(h):
    # every step of these contractions is bounded by 2^24, so each runs in float32
    g = GRAPHS[2]
    op = one_point_density(h, g)
    results = [_mobius_injective(h, g), _mobius_injective(h, g, pins=(1,)),
               _mobius_injective(h, g, pins=(1, 2)), op.x_a, op.t_hat,
               two_point_matrix(h, g).values,
               contract([(e, g.adj) for e in ((0, 1), (1, 2))], {0: g.n, 1: g.n, 2: g.n})]
    assert [np.asarray(r).dtype for r in results] == [np.dtype(np.float64)] * len(results)
    assert type(count_copies(h, g)) is int


def test_exact_dtype_tiers():
    assert np.float32(2 ** 24) + np.float32(1) == 2 ** 24   # 2^24 + 1 is no float32
    assert _exact_dtype(2 ** 24) == np.float32
    assert _exact_dtype(2 ** 24 + 1) == np.float64
    assert _exact_dtype(2 ** 53) == np.float64
    assert _exact_dtype(2 ** 53 + 1) == np.int64
    assert _exact_dtype(2 ** 63) == object
    assert _result_dtype(0) == _result_dtype(2 ** 24) == np.float64
    assert _result_dtype(2 ** 53 + 1) == np.int64


@settings(max_examples=200, deadline=None)
@given(factor_lists(st.integers(-2 ** 8, 2 ** 8)))
def test_contract_exact_across_the_float32_limit(case):
    # Entries up to 2^8 put step bounds on both sides of 2^24.
    factors, domains, keep = case
    got = _run(factors, domains, keep, np.int64)
    want = _einsum_reference(factors, domains, keep, object)
    assert got.dtype != np.float32
    assert np.array_equal(np.asarray(got, dtype=object), np.asarray(want, dtype=object))


def test_contract_steps_go_from_float32_to_float64(monkeypatch):
    # K4 factor graph, entries in [-64, 64], domains of 8: the first step of each
    # slice is bounded by 64^3 * 8 = 2^21 (float32), the next by 2^21 * 64^2 * 8
    # = 2^36 (float64); the result is checked against Python ints.
    rng = np.random.default_rng(5)
    names = "abcd"
    factors = [((u, v), rng.integers(-64, 65, size=(8, 8)))
               for i, u in enumerate(names) for v in names[i + 1:]]
    domains = dict.fromkeys(names, 8)
    seen, step = [], _elim._step_dtype

    def spy(group, summed):
        dtype, bound = step(group, summed)
        seen.append(dtype)
        return dtype, bound

    monkeypatch.setattr(_elim, "_step_dtype", spy)
    got = contract(factors, domains)
    assert {np.dtype(np.float32), np.dtype(np.float64)} <= set(seen)
    want = _einsum_reference([(vs, a.ravel().tolist(), a.shape) for vs, a in factors],
                             domains, (), object)
    assert got.dtype == np.float64 and int(got) == int(want)


@settings(max_examples=150, deadline=None)
@given(factor_lists(st.integers(-2 ** 40, 2 ** 40)))
def test_contract_large_integers_exact_past_int64(case):
    # Entries up to 2^40 push steps through float64, int64 and Python ints.
    factors, domains, keep = case
    got = _run(factors, domains, keep, np.int64)
    want = _einsum_reference(factors, domains, keep, object)
    assert np.array_equal(np.asarray(got, dtype=object), np.asarray(want, dtype=object))


def test_exact_sum_moves_up_through_float64_int64_object():
    # totals 2^53 - 1, 2^53 + 1, 2^62 + 2^53 + 1, 2^63 + 2^53 + 1, 2^53 + 1
    total, want = ExactSum((2,)), [0, 0]
    for part, dtype in [(2 ** 53 - 1, np.float64), (2, np.int64), (2 ** 62, np.int64),
                        (2 ** 62, object), (-(2 ** 63), object)]:
        total.add(np.array([part, 1], dtype=object), abs(part))
        want = [want[0] + part, want[1] + 1]
        assert total.value.dtype == dtype
        assert [int(v) for v in total.value] == want


def test_exact_total_takes_its_dtype_from_the_bound():
    x = np.array([2 ** 53, 1, 1])
    assert int(x.astype(np.float64).sum()) == 2 ** 53
    assert _exact_total(2 ** 53 + 2, x) == 2 ** 53 + 2
    assert _exact_total(2 ** 53, x.astype(np.float64)) == 2 ** 53   # bound <= 2^53: float64


@pytest.mark.parametrize("big,tier", [(2 ** 52, np.float64), (2 ** 53, np.int64),
                                      (2 ** 63, object)],
                         ids=["float64", "past-float64", "past-int64"])
def test_fused_exact_total_sums_products_exactly_at_each_tier(big, tier, monkeypatch):
    # three 2-D operands whose products sum to big + 1: a is 0/1, b * c is big
    # on one entry and 1 on another; past 2^53, big + 1 is not a float64, and
    # past 2^63 it wraps in int64
    a = np.array([[0, 1, 1], [1, 0, 0]])
    b = np.array([[5, 2 ** 31, 1], [0, 7, 3]], dtype=object)
    c = np.array([[9, big // 2 ** 31, 1], [4, 0, 8]], dtype=object)
    want = big + 1
    tiers = [np.float64, np.int64, object]
    for dtype in tiers[:tiers.index(tier)]:    # each lower tier gets it wrong
        assert int(np.einsum("ij,ij,ij->", *(x.astype(dtype) for x in (a, b, c)))) != want
    seen = []
    einsum = np.einsum
    monkeypatch.setattr(np, "einsum", lambda *args: seen.append(args[0].dtype) or einsum(*args))
    assert _exact_total(want, a, b.astype(tier), c.astype(tier)) == want
    assert seen == [np.dtype(tier)]


@settings(max_examples=300, deadline=None)
@given(factor_lists(st.floats(-2.0, 2.0, allow_nan=False)))
def test_contract_float_matches_einsum(case):
    factors, domains, keep = case
    got = _run(factors, domains, keep, np.float64)
    want = _einsum_reference(factors, domains, keep, np.float64)
    scale = _einsum_reference([(vs, np.abs(values), shape) for vs, values, shape in factors],
                              domains, keep, np.float64)
    # Relative to the sum of absolute terms: cancellation cannot hide an error.
    assert np.all(np.abs(got - want) <= 1e-12 * scale + 1e-300)


@st.composite
def clique_factor_lists(draw, entries, flaw=None):
    """K4 or K5 factor graphs whose pairs all share one symmetric zero-diagonal
    integer array (so slicing counts each clique once), sometimes with one
    unary array on every variable, plus 0-2 kept variables.

    flaw breaks the symmetry the rule needs: "diagonal" puts a nonzero entry
    on the shared diagonal, "asymmetric" makes the shared array asymmetric,
    "unary" gives the last variable a unary array of its own, and "lone"
    gives it the only unary array.
    """
    k = draw(st.integers(4, 5))
    names = _VARS[:k]
    d = draw(st.integers(2, 5))
    nonzero = entries.filter(bool)
    link = np.zeros((d, d), dtype=object)
    link[np.triu_indices(d, 1)] = draw(st.lists(entries, min_size=d * (d - 1) // 2,
                                                max_size=d * (d - 1) // 2))
    link = link + link.T
    if flaw == "diagonal":
        link[0, 0] = draw(nonzero)
    elif flaw == "asymmetric":
        link[0, 1] += draw(nonzero)
    pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1:]]
    factors = [(p if draw(st.booleans()) else p[::-1], link) for p in pairs]

    def vector():
        return np.array(draw(st.lists(entries, min_size=d, max_size=d)), dtype=object)

    if flaw == "lone":
        factors.append(((names[-1],), vector()))
    elif flaw == "unary" or draw(st.booleans()):
        unary = vector()
        factors += [((v,), unary) for v in names[:-1]]
        factors.append(((names[-1],), vector() if flaw == "unary" else unary))
    keep = tuple(draw(st.permutations(names))[:draw(st.integers(0, 2))])
    return factors, dict.fromkeys(names, d), keep


_CLIQUE_ENTRIES = [st.integers(-3, 3), st.integers(-2 ** 8, 2 ** 8),
                   st.integers(-2 ** 40, 2 ** 40)]


@pytest.mark.parametrize("flaw", [None, "diagonal", "asymmetric", "unary", "lone"])
@pytest.mark.parametrize("entries", _CLIQUE_ENTRIES, ids=["small", "2^8", "2^40"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_clique_slices_count_each_clique_once_exactly(entries, flaw, data):
    # Entries up to 2^8 put step bounds on both sides of 2^24 and 2^53, entries
    # up to 2^40 past int64.  The factors share their arrays, as counting's do;
    # each distinct array goes in as one int64 array.
    factors, domains, keep = data.draw(clique_factor_lists(entries, flaw))
    shared = {id(a): a.astype(np.int64) for _, a in factors}
    got = contract([(vs, shared[id(a)]) for vs, a in factors], domains, keep=keep)
    want = _einsum_reference([(vs, a.ravel().tolist(), a.shape) for vs, a in factors],
                             domains, keep, object)
    assert np.array_equal(np.asarray(got, dtype=object), np.asarray(want, dtype=object))


@pytest.mark.parametrize("call,weight", [
    (lambda: count_copies(clique(4), GRAPHS[2]), 4),
    (lambda: one_point_density(clique(4), GRAPHS[2]), 3),
    # a float list never uses the rule, though this node matrix is symmetric
    # with a zero diagonal
    (lambda: hom_density(clique(4), graphon_by_name("bipartite:0.5")), 1),
    # K4 with a pendant: its own class slices at a clique vertex without the
    # pendant's unary factor (weight 3), its K4 quotient with weight 4
    (lambda: count_copies(parse_motif("n=5;edges=1-2,1-3,1-4,2-3,2-4,3-4,4-5"),
                          random_graph(40, 0.6, seed=3)), {4, 3}),
], ids=["count-k4", "1pt-k4", "float-k4", "count-k4-pendant"])
def test_slice_weights(call, weight, monkeypatch):
    # every slice of the one K4 class adds with the number of interchangeable
    # variables as its weight: all four unless one is kept as a result axis
    weights = []

    class Spy(ExactSum):
        def add(self, part, bound, weight=1, index=...):
            weights.append(weight)
            super().add(part, bound, weight, index)

    monkeypatch.setattr(_elim, "ExactSum", Spy)
    call()
    assert weights and set(weights) == (weight if isinstance(weight, set) else {weight})


def test_slice_plan_chooses_each_order_once_per_size_tuple(monkeypatch):
    # count_copies(K4) on a paper-w1 graph at n = 200 slices into sub-lists of
    # 67 distinct restricted sizes, each eliminated in three steps: one
    # `_cheapest` call per step and size tuple, not one per step of each slice
    g = sample_graph(graphon_by_name("paper-w1"), 200, seed=7)
    calls, cheapest = [], _elim._cheapest

    def spy(factors, domains, elim):
        calls.append(tuple(domains[v] for v in elim))
        return cheapest(factors, domains, elim)

    monkeypatch.setattr(_elim, "_cheapest", spy)
    assert count_copies(clique(4), g) == _k4_by_triangles(g.adj.astype(np.int64))
    assert 0 < len(calls) <= 300


def _k4_by_triangles(a):
    # each K4 counted once from its lowest vertex: triangles among the higher neighbours
    total = 0
    for v in range(len(a)):
        up = np.flatnonzero(a[v, v + 1:]) + v + 1
        sub = a[np.ix_(up, up)]
        total += int(np.trace(sub @ sub @ sub)) // 6
    return total


@st.composite
def varied_support_lists(draw):
    """K5 factor graphs (sliced twice) on one shared integer array whose rows
    have from none to all of their entries nonzero, so the slice supports range
    from empty to the whole domain; sometimes symmetric with a zero diagonal
    (the clique rule fires), sometimes a unary factor, and 0-2 kept variables."""
    d = draw(st.integers(1, 6))
    arr = np.zeros((d, d), dtype=np.int64)
    for i in range(d):
        cols = draw(st.permutations(range(d)))[:draw(st.integers(0, d))]
        arr[i, cols] = draw(st.lists(st.integers(1, 3), min_size=len(cols), max_size=len(cols)))
    if draw(st.booleans()):
        arr = np.triu(arr, 1) + np.triu(arr, 1).T
    names = _VARS
    factors = [((u, v) if draw(st.booleans()) else (v, u), arr)
               for i, u in enumerate(names) for v in names[i + 1:]]
    if draw(st.booleans()):
        factors.append(((draw(st.sampled_from(names)),), (arr != 0).sum(axis=0)))
    keep = tuple(draw(st.permutations(names))[:draw(st.integers(0, 2))])
    return factors, dict.fromkeys(names, d), keep


@settings(max_examples=150, deadline=None)
@given(varied_support_lists())
def test_varied_slice_supports_match_einsum_exactly(case):
    factors, domains, keep = case
    got = contract(factors, domains, keep=keep)
    want = _einsum_reference([(vs, a.ravel().tolist(), a.shape) for vs, a in factors],
                             domains, keep, object)
    assert np.array_equal(np.asarray(got, dtype=object), np.asarray(want, dtype=object))
