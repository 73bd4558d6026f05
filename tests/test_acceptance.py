"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Every stochastic check runs on frozen seeds, so the whole suite is
deterministic.  Tolerances are pinned here and nowhere Monte-Carlo-calibrated:
they come straight from the criteria.
"""

import math
import time

import numpy as np
from scipy import stats

from graphonstat import (K2, K3, C4, K12, build_limit_spec,
                         conditional_1pt, conditional_kernel_2pt,
                         constant_graphon, count_copies, density_hat_t,
                         empirical_log_mgf,
                         graphon_by_name, hom_density, joint_confidence_set,
                         log_mgf_oracle, marginal_ci, multiplier_draws,
                         one_point_density, regularity_R_graphon, sample_graph,
                         sample_limit, sigma_matrix, structure_test,
                         two_point_matrix)
from graphonstat.limitlaw import mgf_radius_constant

from conftest import random_graph
from oracles import all_motifs_up_to, canonical_edge_key, edge_join, subset_copy_census


def report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {criterion}" + (f" -- {detail}" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def test_criterion_01_exact_density_fixtures():
    t0 = time.monotonic()
    w1 = graphon_by_name("paper-w1")
    w2 = graphon_by_name("paper-w2")
    w3 = graphon_by_name("paper-w3")
    wm = graphon_by_name("wminus")
    wp = graphon_by_name("wplus")
    block_checks = [
        (hom_density(K2, w2), 1 / 3), (hom_density(K3, w2), 1 / 27),
        (hom_density(K2, w3), 13 / 36), (hom_density(K3, w3), 1 / 18),
        (hom_density(K2, wp), 1 / 4),
    ]
    expr_checks = [
        (hom_density(K2, w1), 1 / 2), (hom_density(K3, w1), 5 / 32),
        (hom_density(K2, wm), 1 / 4),
    ]
    elapsed = time.monotonic() - t0
    ok_block = all(abs(a - b) < 1e-12 for a, b in block_checks)
    ok_expr = all(abs(a - b) < 1e-8 for a, b in expr_checks)
    report("criterion 1: exact density fixtures",
           ok_block and ok_expr and elapsed < 1.0,
           f"block max err {max(abs(a - b) for a, b in block_checks):.2e}, "
           f"expression max err {max(abs(a - b) for a, b in expr_checks):.2e}, "
           f"{elapsed:.2f}s")


def test_criterion_02_counting_oracle():
    t0 = time.monotonic()
    motifs = all_motifs_up_to(4)
    keys = {m: canonical_edge_key(m.k, tuple(sorted(m.edges))) for m in motifs}
    rng = np.random.default_rng(20200)
    mismatches = 0
    for trial in range(200):
        n = int(rng.integers(4, 9))
        g = random_graph(n, float(rng.uniform(0.15, 0.85)), seed=rng.integers(2**31))
        census = subset_copy_census(g, max_k=4)
        for m in motifs:
            if m.k <= n and count_copies(m, g) != census[keys[m]]:
                mismatches += 1
    elapsed = time.monotonic() - t0
    report("criterion 2: counting oracle",
           mismatches == 0 and elapsed < 10.0,
           f"{len(motifs)} motifs x 200 graphs, {mismatches} mismatches, "
           f"{elapsed:.1f}s")


def test_criterion_03_regularity_classification():
    t0 = time.monotonic()
    w2 = graphon_by_name("paper-w2")
    w3 = graphon_by_name("paper-w3")
    tol = 1e-9
    checks = [
        regularity_R_graphon(K2, w2) < tol,
        regularity_R_graphon(K3, w2) >= tol,
        regularity_R_graphon(K2, w3) >= tol,
        regularity_R_graphon(K3, w3) < tol,
    ]
    wc = constant_graphon(0.37)
    checks += [regularity_R_graphon(h, wc) < tol for h in (K2, K3, K12, C4)]
    elapsed = time.monotonic() - t0
    report("criterion 3: regularity classification",
           all(checks) and elapsed < 5.0, f"{elapsed:.2f}s")


def test_criterion_04_erdos_renyi_covariance():
    p = 0.5
    motifs = (K2, K3, C4)
    sig = sigma_matrix(motifs, constant_graphon(p))
    expected = np.array(
        [[2 * hi.n_edges * hj.n_edges / (hi.aut * hj.aut)
          * p ** (hi.n_edges + hj.n_edges - 1) * (1 - p)
          for hj in motifs] for hi in motifs])
    err = np.abs(sig.entries - expected).max()
    sv = np.linalg.svd(sig.entries, compute_uv=False)
    report("criterion 4: Erdos-Renyi covariance",
           err < 1e-10 and sv[1] < 1e-9 * sv[0],
           f"entrywise err {err:.2e}, second/first singular {sv[1]/sv[0]:.2e}")


def test_criterion_05_clt_validation():
    t0 = time.monotonic()
    p, n, reps = 0.5, 300, 2000
    w = constant_graphon(p)
    sig11 = sigma_matrix([K2], w).entries[0, 0]
    # the centered count over its exact scale: n(t_hat - p)/(|Aut(K2)| sqrt(sig11))
    vals = np.empty(reps)
    for s in range(reps):
        g = sample_graph(w, n, seed=(515, s))
        vals[s] = n * (density_hat_t(K2, g) - p) / (2 * math.sqrt(sig11))
    ks = stats.kstest(vals, "norm").statistic
    elapsed = time.monotonic() - t0
    report("criterion 5: CLT validation",
           ks < 0.04 and elapsed < 120.0, f"KS {ks:.4f}, {elapsed:.0f}s")


def test_criterion_06_bootstrap_consistency():
    t0 = time.monotonic()
    n, draws = 400, 10_000
    results = []
    for wname, branch in (("paper-w1", "linear"), ("const:0.5", "quadratic")):
        w = graphon_by_name(wname)
        spec = build_limit_spec([K2, K3], w, grid=512)
        lim = sample_limit(spec, draws, seed=606)
        g = sample_graph(w, n, seed=607)
        boot = multiplier_draws(g, [K2, K3], branch, draws, seed=608)
        for j, h in enumerate((K2, K3)):
            ks = stats.ks_2samp(boot.samples[:, j], lim[:, j]).statistic
            results.append((wname, f"K{h.k}", ks))
    elapsed = time.monotonic() - t0
    detail = ", ".join(f"{w}/{m} KS {k:.3f}" for w, m, k in results)
    report("criterion 6: bootstrap consistency",
           all(k < 0.08 for _, _, k in results) and elapsed < 300.0,
           detail + f", {elapsed:.0f}s")


def test_criterion_07_coverage():
    t0 = time.monotonic()
    n, B, reps, alpha, root = 400, 1000, 100, 0.05, 101
    results = {}
    for wname in ("paper-w1", "paper-w2", "paper-w3", "const:0.5"):
        w = graphon_by_name(wname)
        truth = [hom_density(K2, w), hom_density(K3, w)]
        inside = 0
        for rep in range(reps):
            ss = np.random.SeedSequence(entropy=root, spawn_key=(rep,))
            gs, bs = ss.spawn(2)
            g = sample_graph(w, n, seed=gs)
            inside += joint_confidence_set(g, [K2, K3], alpha, B,
                                           seed=bs).contains(truth)
        results[wname] = inside / reps
    for wname in ("wminus", "wplus"):
        w = graphon_by_name(wname)
        truth = hom_density(K2, w)
        inside = 0
        for rep in range(reps):
            ss = np.random.SeedSequence(entropy=root, spawn_key=(rep,))
            gs, bs = ss.spawn(2)
            g = sample_graph(w, n, seed=gs)
            inside += marginal_ci(g, K2, alpha, B, seed=bs).contains(truth)
        results[wname + "/marginal"] = inside / reps
    elapsed = time.monotonic() - t0
    ok = all(0.89 <= c <= 0.99 for c in results.values()) and elapsed < 1800.0
    report("criterion 7: coverage",
           ok, ", ".join(f"{k} {v:.2f}" for k, v in results.items())
                + f", {elapsed:.0f}s")


def test_criterion_08_structure_test():
    t0 = time.monotonic()
    rates = {}
    for p in (0.3, 0.5):
        w = constant_graphon(p)
        rej = sum(structure_test(sample_graph(w, 300, seed=(818, s, int(p * 10))),
                                 0.05).reject for s in range(500))
        rates[f"p={p}"] = rej / 500
    w1 = graphon_by_name("paper-w1")
    power = sum(structure_test(sample_graph(w1, 300, seed=(819, s)), 0.05).reject
                for s in range(200)) / 200
    elapsed = time.monotonic() - t0
    ok = all(0.02 <= r <= 0.09 for r in rates.values()) and power >= 0.95 \
        and elapsed < 600.0
    report("criterion 8: structure test",
           ok, ", ".join(f"{k} rate {v:.3f}" for k, v in rates.items())
                + f", affine power {power:.2f}, {elapsed:.0f}s")


def test_criterion_09_mgf_oracle():
    t0 = time.monotonic()
    draws = 1_000_000
    errors = {}
    # affine graphon, edge marginal: no regular motif, so the series radius is
    # unbounded; the probe point reuses the same |alpha| V(V-1)/|Aut| constant
    w1 = graphon_by_name("paper-w1")
    spec1 = build_limit_spec([K2], w1, grid=512)
    theta1 = 1 / 64
    d1 = sample_limit(spec1, draws, seed=909)[:, 0]
    for th in (theta1, -theta1):
        errors[f"affine/K2@{th:+.4f}"] = abs(
            log_mgf_oracle(spec1, [1.0], th) - empirical_log_mgf(d1, th))
    wc = constant_graphon(0.5)
    spec2 = build_limit_spec([K2, K3], wc, grid=512)
    alpha = np.array([1.0, 1.0])
    c = mgf_radius_constant(spec2, alpha)
    theta2 = 1 / (64 * c)
    d2 = sample_limit(spec2, draws, seed=910) @ alpha
    for th in (theta2, -theta2):
        errors[f"const/K2K3@{th:+.4f}"] = abs(
            log_mgf_oracle(spec2, alpha, th) - empirical_log_mgf(d2, th))
    elapsed = time.monotonic() - t0
    report("criterion 9: MGF oracle",
           all(e < 0.01 for e in errors.values()),
           ", ".join(f"{k} err {v:.5f}" for k, v in errors.items())
           + f", {elapsed:.0f}s")


def test_criterion_10_property_suites():
    failures = []
    graphs = [random_graph(12, 0.5, seed=0), random_graph(9, 0.3, seed=1)]
    for g in graphs:
        for h in (K2, K12, K3, C4):
            op = one_point_density(h, g)
            x = count_copies(h, g)
            if any(int(round(op.x_a[a].sum())) != h.aut * x for a in range(h.k)):
                failures.append(f"partition identity {h} n={g.n}")
            tp = two_point_matrix(h, g)
            if not np.allclose(tp.values, tp.values.T) or \
                    np.any(np.diag(tp.values) != 0.0):
                failures.append(f"two-point shape {h} n={g.n}")
    w01 = graphon_by_name("paper-w2")
    for w in (graphon_by_name("paper-w1"), w01, graphon_by_name("wplus")):
        for h in (K2, K3):
            for pa in h.ordered_edges()[:2]:
                weak = hom_density(edge_join(h, pa, h, pa, "weak"), w)
                strong = hom_density(edge_join(h, pa, h, pa, "strong"), w)
                if weak < strong - 1e-12:
                    failures.append(f"weak<strong {h} {w.name}")
    for h in (K2, K3):
        pa = h.ordered_edges()[0]
        weak = hom_density(edge_join(h, pa, h, pa, "weak"), w01)
        strong = hom_density(edge_join(h, pa, h, pa, "strong"), w01)
        if abs(weak - strong) > 1e-12:
            failures.append(f"0/1 weak!=strong {h}")
    m = 48
    grid = (np.arange(m) + 0.5) / m
    for h in (K2, K3, K12):
        kern = conditional_kernel_2pt(h, graphon_by_name("paper-w1"), grid)
        rows = kern.values.mean(axis=1)
        target = (h.k - 1) / (2 * h.aut) * sum(
            conditional_1pt(h, a, grid, graphon_by_name("paper-w1"))
            for a in range(1, h.k + 1))
        if not np.allclose(rows, target, atol=3.0 / m):
            failures.append(f"degree identity {h}")
    report("criterion 10: deterministic property suites",
           not failures, "; ".join(failures) or "all identities hold")
