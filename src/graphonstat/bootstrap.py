"""Gaussian-multiplier bootstrap for motif count limit laws.

Conditional on the observed graph, one resample draws iid standard normals
Z_1..Z_n and evaluates, per motif, either the centered linear form in the
empirical 1-point densities (scaled by 1/sqrt(n)) or the centered quadratic
form in the empirical 2-point matrix with the diagonal delta correction
(scaled by 1/n).  All motifs of one resample share the same multiplier
vector, so the draws are joint.  The forms are evaluated by the limit law's
sampler core, `limitlaw._chaos_draws`, on seeded blocks of n x 4096 standard
normals.  The quadratic branch is the dense form z'Mz - tr(M), for joint
sets and marginal intervals alike: an eigendecomposition of the full-rank
n x n matrix costs more than the products it saves unless B is many times
n (at n = 400 they cross between B = 2000 and B = 4000).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .counting import Graph, one_point_density, two_point_matrix
from .limitlaw import _chaos_draws
from .motifs import Motif

BRANCHES = ("linear", "quadratic")


@dataclass(frozen=True)
class BootstrapDraws:
    """Joint multiplier-bootstrap draws: one row per resample, column per motif."""

    motifs: tuple[Motif, ...]
    branches: tuple[str, ...]
    samples: np.ndarray
    B: int
    seed: object

    def __post_init__(self):
        if self.samples.shape != (self.B, len(self.motifs)):
            raise ValueError(f"samples shape {self.samples.shape} != "
                             f"({self.B}, {len(self.motifs)})")
        if not np.isfinite(self.samples).all():
            raise ValueError("bootstrap samples contain non-finite values")

    def marginal(self, i: int) -> np.ndarray:
        return self.samples[:, i]

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.samples, axis=1)


def _normalize_branches(branches, r: int) -> tuple[str, ...]:
    if isinstance(branches, str):
        branches = (branches,) * r
    branches = tuple(branches)
    if len(branches) != r:
        raise ValueError(f"{len(branches)} branches for {r} motifs")
    for b in branches:
        if b not in BRANCHES:
            raise ValueError(f"branch must be one of {BRANCHES}, got {b!r}")
    return branches


def multiplier_draws(g: Graph, motifs, branches, B: int, seed) -> BootstrapDraws:
    """B joint multiplier-bootstrap draws for the given motifs.

    branches: "linear"/"quadratic" per motif (a single string broadcasts).
    The linear branch uses the centered 1-point density vector, the quadratic
    branch the centered 2-point matrix including the delta_{u,v} correction.
    Centering statistics are computed once per motif and shared across
    resamples; the multiplier stream is blocked deterministically.
    """
    if B < 1:
        raise ValueError(f"need B >= 1, got {B}")
    motifs = tuple(motifs)
    branches = _normalize_branches(branches, len(motifs))
    n = g.n
    forms = []
    for h, br in zip(motifs, branches):
        if br == "linear":
            t_hat = one_point_density(h, g).t_hat
            forms.append(("linear", t_hat - t_hat.mean()))
        else:
            vals = two_point_matrix(h, g).values
            forms.append(("dense", vals - vals.mean()))
    out = _chaos_draws([(np.random.default_rng(seed), n)], B, forms)
    out /= [math.sqrt(n) if br == "linear" else n for br in branches]
    return BootstrapDraws(motifs, branches, out, B, seed)


def empirical_quantile(samples, level: float) -> float:
    """Order-statistic quantile: the ceil(B * level)-th smallest value."""
    x = np.asarray(samples, dtype=float).ravel()
    if x.size == 0:
        raise ValueError("empty sample")
    if not (0.0 < level < 1.0):
        raise ValueError(f"level must be in (0,1), got {level}")
    k = math.ceil(x.size * level)
    return float(np.partition(x, k - 1)[k - 1])
