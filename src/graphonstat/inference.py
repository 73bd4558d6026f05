"""Decision procedures: regularity test, confidence sets, global-structure test.

The testimation pipeline first tests each motif for regularity of the
underlying graphon (a scaled plug-in statistic n^e R(H,G_n) exceeding 1
declares irregularity), then runs the matching multiplier-bootstrap branch to
estimate quantiles, and reports confidence sets in the per-motif rescaled
coordinates.  The global-structure test studentizes
f_hat = t_hat(K2)^4 - t_hat(C4), which vanishes in the limit exactly for
constant graphons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bootstrap import empirical_quantile, multiplier_draws
from .counting import (Graph, count_copies, density_hat_t, falling_factorial,
                       one_point_density, regularity_R_empirical)
from .graphon import Graphon, hom_density
from .limitlaw import LimitSpec, build_limit_spec, gamma_matrix, regularity_R_graphon
from .motifs import C4, K2, Motif


class DegenerateDensityError(ValueError):
    """Edge density is 0 or 1; the studentized structure statistic is undefined."""

    def __init__(self, message, f_hat):
        super().__init__(message)
        self.f_hat = f_hat


# Exponent of the scaling sequence a_n = n^e in the regularity test.  Any
# e in (0, 1) gives a consistent test (a_n -> infinity, a_n/n -> 0, and the
# statistic is O_P(1/n) under regularity).  The canonical choice e = 1/2 has
# essentially no finite-sample power against weakly irregular graphons
# (n = 400 gives sqrt(n) R = 0.12 for the 6-block two-tripartite fixture, so
# irregularity would never be declared); e = 0.93 separates the bundled
# fixtures at n = 400; the testimation pipeline always uses it.
DEFAULT_REGULARITY_EXPONENT = 0.93


@dataclass(frozen=True)
class RegularityTest:
    motif: Motif
    statistic: float            # n^exponent * R(H, G_n)
    r_value: float              # raw R(H, G_n)
    threshold: float
    exponent: float
    reject_regularity: bool


def regularity_test(g: Graph, h: Motif, threshold: float = 1.0,
                    exponent: float = DEFAULT_REGULARITY_EXPONENT) -> RegularityTest:
    """Consistent test of H-regularity: reject when n^exponent R(H,G_n) > threshold.

    The threshold is exactly 1; exponent=0.5 recovers the sqrt(n) R form of
    the indicator test, any exponent in (0,1) is asymptotically valid.
    ValueError for an exponent outside (0, 1) or a threshold not in (0, inf).
    """
    if not (0 < exponent < 1 and 0 < threshold < math.inf):
        raise ValueError(f"need exponent in (0, 1) and threshold in (0, inf), "
                         f"got {exponent} and {threshold}")
    r = regularity_R_empirical(h, g)
    stat = g.n ** exponent * r
    return RegularityTest(h, stat, r, threshold, exponent, stat > threshold)


@dataclass(frozen=True)
class ConfidenceReport:
    """Joint confidence set in the rescaled coordinates of the count vector.

    Membership of a candidate density vector c: the statistic vector
    Z~_i = (X_i - (n)_k c_i/|Aut_i|) / n^(k - e_i), with exponent e_i = 1/2
    for motifs declared irregular and 1 otherwise, must satisfy
    ||Z~||_2 <= quantile.
    """

    motifs: tuple[Motif, ...]
    alpha: float
    n: int
    selected_irregular: tuple[int, ...]      # indices where regularity was rejected
    point_estimates: np.ndarray              # t_hat per motif
    counts: tuple[int, ...]                  # X(H_i, G_n)
    quantile: float
    scaling_exponents: np.ndarray            # k_i - 1/2 or k_i - 1
    regularity_stats: np.ndarray
    branches: tuple[str, ...]
    B: int
    seed: object

    def __post_init__(self):
        if not all(0 <= i < len(self.motifs) for i in self.selected_irregular):
            raise ValueError("selected indices outside the motif list")
        if self.quantile < 0:
            raise ValueError("negative quantile")

    def rescaled_statistic(self, candidate) -> np.ndarray:
        c = np.asarray(candidate, dtype=float)
        if c.shape != (len(self.motifs),):
            raise ValueError(f"candidate must have length {len(self.motifs)}")
        out = np.empty(len(self.motifs))
        for i, h in enumerate(self.motifs):
            centered = self.counts[i] - falling_factorial(self.n, h.k) * c[i] / h.aut
            out[i] = centered / self.n ** self.scaling_exponents[i]
        return out

    def contains(self, candidate) -> bool:
        return bool(np.linalg.norm(self.rescaled_statistic(candidate)) <= self.quantile)

    def to_record(self) -> dict:
        return {
            "alpha": self.alpha,
            "n": self.n,
            "quantile": self.quantile,
            "selected_irregular": list(self.selected_irregular),
            "point_estimates": self.point_estimates.tolist(),
            "counts": list(self.counts),
            "scaling_exponents": self.scaling_exponents.tolist(),
            "regularity_stats": self.regularity_stats.tolist(),
            "branches": list(self.branches),
            "B": self.B,
        }


def joint_confidence_set(g: Graph, motifs, alpha: float, B: int, seed) -> ConfidenceReport:
    """Level 1-alpha joint confidence set for the motif density vector.

    Per motif, the regularity test picks the bootstrap branch (linear when
    irregularity is declared, quadratic otherwise); the quantile is the
    empirical (1-alpha)-quantile of the Euclidean norm of the joint draws.
    """
    if not (0 < alpha < 1):
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    motifs = tuple(motifs)
    tests = [regularity_test(g, h) for h in motifs]
    selected = tuple(i for i, t in enumerate(tests) if t.reject_regularity)
    branches = tuple("linear" if t.reject_regularity else "quadratic" for t in tests)
    draws = multiplier_draws(g, motifs, branches, B, seed)
    quantile = empirical_quantile(draws.norms(), 1 - alpha)
    counts = tuple(count_copies(h, g) for h in motifs)
    t_hat = np.array([h.aut * x / falling_factorial(g.n, h.k)
                      for h, x in zip(motifs, counts)])
    exponents = np.array([h.k - 0.5 if i in selected else h.k - 1.0
                          for i, h in enumerate(motifs)])
    return ConfidenceReport(
        motifs=motifs, alpha=alpha, n=g.n, selected_irregular=selected,
        point_estimates=t_hat, counts=counts, quantile=quantile,
        scaling_exponents=exponents,
        regularity_stats=np.array([t.statistic for t in tests]),
        branches=branches, B=B, seed=seed)


@dataclass(frozen=True)
class ConfidenceInterval:
    motif: Motif
    alpha: float
    lower: float
    upper: float
    point_estimate: float
    branch: str                  # "irregular" (normal) or "regular" (chi-squared)
    regularity_stat: float

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper


def marginal_ci(g: Graph, h: Motif, alpha: float, B: int, seed) -> ConfidenceInterval:
    """Marginal confidence interval for t(h, W) via the testimation branch.

    Irregular branch: normal interval with the empirical 1-point variance.
    Regular branch: pivot inversion against the quadratic multiplier draws
    of `multiplier_draws`, (Z'MZ - tr M)/n with M the centered 2-point
    matrix, so lower = t_hat - (|Aut|/n) q_hi.
    """
    if not (0 < alpha < 1):
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    test = regularity_test(g, h)
    t_hat = density_hat_t(h, g)
    n = g.n
    if test.reject_regularity:
        v = one_point_density(h, g).t_hat
        tau_hat = float(np.sqrt(np.mean((v - v.mean()) ** 2)))
        from statistics import NormalDist     # imported where used: a faster start-up
        z = NormalDist().inv_cdf(1 - alpha / 2)
        half = z * h.aut * tau_hat / math.sqrt(n)
        return ConfidenceInterval(h, alpha, t_hat - half, t_hat + half, t_hat,
                                  "irregular", test.statistic)
    draws = multiplier_draws(g, [h], "quadratic", B, seed).marginal(0)
    q_hi = empirical_quantile(draws, 1 - alpha / 2)
    q_lo = empirical_quantile(draws, alpha / 2)
    return ConfidenceInterval(h, alpha, t_hat - h.aut * q_hi / n,
                              t_hat - h.aut * q_lo / n, t_hat,
                              "regular", test.statistic)


# -- global structure test ------------------------------------------------------

@dataclass(frozen=True)
class StructureStat:
    f_hat: float
    t_n: float
    edge_density: float
    c4_density: float


def structure_stat(g: Graph) -> StructureStat:
    """f_hat = t_hat(K2)^4 - t_hat(C4) and its studentized version t_n.

    t_n = n^(3/2) f_hat / (4 sqrt(2) t_hat(K2)^3 (1 - t_hat(K2))); an empty or
    complete graph makes the studentizer vanish and raises.
    """
    t2 = density_hat_t(K2, g)
    t4 = density_hat_t(C4, g)
    f_hat = t2 ** 4 - t4
    if t2 in (0.0, 1.0):
        raise DegenerateDensityError(
            f"edge density is {t2:g} (empty or complete graph); the studentized "
            f"statistic is undefined", f_hat)
    t_n = g.n ** 1.5 * f_hat / (4 * math.sqrt(2) * t2 ** 3 * (1 - t2))
    return StructureStat(f_hat, t_n, t2, t4)


@dataclass(frozen=True)
class StructureTestResult:
    f_hat: float
    t_n: float
    z_crit: float
    reject: bool
    n: int

    def __post_init__(self):
        if self.reject != (abs(self.t_n) > self.z_crit):
            raise ValueError("inconsistent rejection flag")


def structure_test(g: Graph, alpha: float) -> StructureTestResult:
    """Two-sided level-alpha test of constancy: reject when |t_n| > z_{alpha/2}."""
    if not (0 < alpha < 1):
        raise ValueError(f"alpha must be in (0,1), got {alpha}")
    s = structure_stat(g)
    from statistics import NormalDist
    z_crit = NormalDist().inv_cdf(1 - alpha / 2)
    return StructureTestResult(s.f_hat, s.t_n, z_crit, abs(s.t_n) > z_crit, g.n)


def structure_null_variance(p: float) -> float:
    """Variance of n^(3/2) f_hat under the constant-p null: 32 p^6 (1-p)^2."""
    return 32 * p ** 6 * (1 - p) ** 2


@dataclass(frozen=True)
class StructureAltParams:
    """Limit of f_hat under a non-constant graphon, by regularity case.

    Cases 1-3 give sqrt(n)(f_hat - f(W)) -> N(0, tau_sq), where tau_sq is the
    delta-method variance of t_hat(K2)^4 - t_hat(C4): with A the asymptotic
    covariance of sqrt(n)(t_hat - t) (entries |Aut_i||Aut_j| gamma_ij) and
    gradient (4 t2^3, -1), tau_sq = grad' A grad, dropping coordinates whose
    marginal degenerates.  Case 4 (both regular) returns the joint limit spec
    of (K2, C4) plus coefficients c with n(f_hat - f(W)) -> c' Z.
    """

    case: int
    f_value: float
    tau_sq: float | None
    r_k2: float
    r_c4: float
    cross_cov: float             # asymptotic Cov(sqrt(n) t_hat(K2), sqrt(n) t_hat(C4))
    edge_density: float
    c4_density: float
    limit_spec: LimitSpec | None = None
    coefficients: tuple[float, float] | None = None


def structure_alt_params(w: Graphon) -> StructureAltParams:
    """Classify w by K2/C4 regularity and return the matching f_hat limit.

    Case 1: both irregular; case 2: K2-irregular, C4-regular; case 3: K2-regular,
    C4-irregular; case 4: both regular (non-Gaussian limit, sampler handle).
    The verdicts are those of `build_limit_spec([K2, C4], w)`.
    """
    spec = build_limit_spec([K2, C4], w)
    irr = [i for i, reg in enumerate(spec.regular) if not reg]
    aut = np.array([K2.aut, C4.aut])
    cov = np.outer(aut, aut) * gamma_matrix([K2, C4], w).entries
    t2, t4 = hom_density(K2, w), hom_density(C4, w)
    grad = np.array([4 * t2 ** 3, -1.0])
    return StructureAltParams(
        case=1 + spec.regular[1] + 2 * spec.regular[0], f_value=t2 ** 4 - t4,
        tau_sq=float(grad[irr] @ cov[np.ix_(irr, irr)] @ grad[irr]) if irr else None,
        r_k2=regularity_R_graphon(K2, w), r_c4=regularity_R_graphon(C4, w),
        cross_cov=cov[0, 1], edge_density=t2, c4_density=t4,
        limit_spec=None if irr else spec, coefficients=None if irr else tuple(grad * aut))
