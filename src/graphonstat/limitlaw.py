"""Sampler and oracles for the joint limit law of centered motif counts.

The limit of the count vector (after per-motif scaling) couples linear and
bilinear Wiener-Ito integrals driven by one Brownian motion with an
independent Gaussian block.  On a grid of m cells the Brownian increments
become z_i / sqrt(m) with z iid N(0, 1); an irregular motif contributes the
linear form g'z / sqrt(m) and a regular motif the quadratic form
z'(K/m)z - tr(K/m) plus its Gaussian coordinate.  Subtracting the trace
implements the Wiener-Ito exclusion of diagonal squares on the grid.

One core, `_chaos_draws`, evaluates linear, spectral and dense quadratic
forms on shared blocks of standard normals; the limit-law samplers here and
the multiplier bootstrap are setup around it.  `sample_limit` evaluates a
regular coordinate in the spectral form sum_l lambda_l ((phi_l'z)^2 - 1) of
K/m (the weighted chi-squared form of Bhattacharya, Chatterjee & Janson);
eigenvalues below SPECTRAL_CUT relative to the kernel bound are cut, with the
bound on the cut part stated at `sample_limit`.  Every coordinate reads z
only through the irregular profiles g and the kept eigenvectors phi_l, so a
draw costs d = (irregular motifs) + (kept ranks) normals, not m, on three
substreams of the seed (listed at `sample_limit`); the irregular columns stay
bit-identical whatever regular motifs ride along.

A closed-form log moment generating function of any linear combination of the
limit coordinates is provided as an independent numeric oracle: an absolutely
convergent series in path compositions of the combined quadratic kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphon import (CovMatrix, Graphon, _join_density_cached, conditional_kernel_2pt,
                      degree_constant, gamma_matrix, hom_density, kernel_bound,
                      regularity_R_graphon, sigma_matrix, tbar_1pt)
from .motifs import Motif, edge_join

DEFAULT_SAMPLE_GRID = 512
DEFAULT_SPECTRUM_GRID = 256
REGULARITY_TOL = 1e-9
_PSD_TOL = 1e-8
SPECTRAL_CUT = 1e-12
_CHUNK = 4096


@dataclass(frozen=True)
class LimitSpec:
    """Everything needed to sample the joint limit of a motif collection.

    regular[i] says whether the graphon is H_i-regular (quadratic marginal);
    sigma is the Gaussian-block covariance over the regular motifs.
    """

    motifs: tuple[Motif, ...]
    regular: tuple[bool, ...]
    graphon: Graphon
    grid: int = DEFAULT_SAMPLE_GRID
    sigma: CovMatrix | None = None

    def __post_init__(self):
        if len(self.motifs) != len(self.regular):
            raise ValueError("motifs and regular flags must align")
        n_reg = sum(self.regular)
        if self.sigma is not None and self.sigma.r != n_reg:
            raise ValueError(f"sigma has dimension {self.sigma.r}, expected {n_reg}")

    @property
    def r(self) -> int:
        return len(self.motifs)

    @property
    def regular_motifs(self) -> tuple[Motif, ...]:
        return tuple(h for h, reg in zip(self.motifs, self.regular) if reg)


def build_limit_spec(motifs, w: Graphon, grid: int = DEFAULT_SAMPLE_GRID,
                     tol: float = REGULARITY_TOL) -> LimitSpec:
    """Classify each motif by the regularity functional and fill in sigma."""
    motifs = tuple(motifs)
    regular = tuple(regularity_R_graphon(h, w) < tol for h in motifs)
    reg_motifs = tuple(h for h, r in zip(motifs, regular) if r)
    sigma = sigma_matrix(reg_motifs, w) if reg_motifs else None
    return LimitSpec(motifs, regular, w, grid, sigma)


def linear_profile(h: Motif, w: Graphon, grid: int) -> np.ndarray:
    """Integrand of the irregular marginal on grid midpoints.

    g(x) = (1/|Aut|) sum_a t_a(x,h,w) - (|V|/|Aut|) t(h,w); integral of g^2 is
    the Gaussian limit variance of the scaled centered count.
    """
    x = (np.arange(grid) + 0.5) / grid
    return h.k * (tbar_1pt(h, x, w) - hom_density(h, w)) / h.aut


def centered_kernel(h: Motif, w: Graphon, grid: int) -> np.ndarray:
    """W_H on the grid minus the constant |V|(|V|-1) t(h,w) / (2|Aut|)."""
    return conditional_kernel_2pt(h, w, grid).values - degree_constant(h, w)


def _sigma_factor(sigma: CovMatrix | None, n_reg: int) -> np.ndarray:
    if n_reg == 0:
        return np.zeros((0, 0))
    ent = sigma.entries
    vals, vecs = np.linalg.eigh(ent)
    scale = max(1.0, float(np.abs(vals).max()))
    if vals.min() < -_PSD_TOL * scale:
        raise ValueError(f"sigma is not positive semidefinite: min eigenvalue {vals.min()}")
    return vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))


def _chaos_draws(streams, draws: int, forms) -> np.ndarray:
    """Evaluate Gaussian-chaos forms on shared standard normal vectors.

    Each block z, c <= _CHUNK columns, stacks rng.standard_normal((dim, c))
    of the (rng, dim) streams in order, so a seed fixes every z whatever the
    forms.  A form reads the leading rows of z that its array spans, so its
    values do not depend on the streams after those rows.  One output column
    per form, one row per draw:
      ("linear", v)            v @ z
      ("spectral", lam, phi)   lam @ ((phi' z)^2 - 1); phi None is the identity
      ("dense", a)             z' a z - tr(a)
    """
    rows = np.cumsum([0] + [dim for _, dim in streams])
    out = np.empty((draws, len(forms)))
    for start in range(0, draws, _CHUNK):
        z = np.empty((rows[-1], min(_CHUNK, draws - start)))
        for (rng, _), lo, hi in zip(streams, rows, rows[1:]):
            rng.standard_normal(out=z[lo:hi])
        for j, (kind, *arrays) in enumerate(forms):
            if kind == "linear":
                vals = arrays[0] @ z[:len(arrays[0])]
            elif kind == "spectral":
                lam, phi = arrays
                y = z if phi is None else phi.T @ z[:len(phi)]
                vals = lam @ (y ** 2 - 1)
            else:
                a = arrays[0]
                vals = np.einsum("uc,uc->c", z, a @ z) - np.trace(a)
            out[start:start + z.shape[1], j] = vals
    return out


def _regular_spectrum(h: Motif, w: Graphon, m: int):
    """The one spectral decomposition of a regular motif on an m-cell grid.

    Returns the eigenpairs (lam, phi) of K/m, K = centered_kernel(h, w, m),
    with |lam| above SPECTRAL_CUT * kernel_bound(h), and the degree residual
    max_x |(W_H 1)(x)/m - d_WH| = max |row sums of K/m|, which is 0 when w is
    h-regular (then K/m has the spectrum of W_H/m less its eigenvalue d_WH).
    By Gershgorin no |lam| exceeds the largest absolute row sum: within the cut, no `eigh`.
    """
    a = centered_kernel(h, w, m) / m
    cut = SPECTRAL_CUT * kernel_bound(h)
    lam, phi = (np.linalg.eigh(a) if np.abs(a).sum(axis=1).max() > cut
                else (np.zeros(0), np.zeros((m, 0))))
    keep = np.abs(lam) > cut
    return lam[keep], phi[:, keep], float(np.abs(a.sum(axis=1)).max())


def sample_limit(spec: LimitSpec, draws: int, seed) -> np.ndarray:
    """Joint draws of the limit vector; one row per draw, one column per motif.

    All coordinates of a draw read one Brownian path z ~ N(0, I_m), but only
    through d = (irregular motifs) + (kept ranks) directions, so a draw
    costs d standard normals, on three substreams of the seed:
      0: u1 = Q1'z, Q1 from the Householder QR of the irregular profiles;
         an irregular column with profile v is (Q1'v)'u1, so removing a
         regular motif from the spec leaves it bit-identical;
      1: the Gaussian block of the regular motifs;
      2: u2, read as rest'z = S u2, where rest = phi - Q1 Q1'phi over all
         kept eigenvectors phi and S = V diag(s) V' (thin SVD of rest) is the
         symmetric square root of rest'rest, exact to rounding also when
         regular motifs share eigenvectors; phi'z = (Q1'phi)'u1 + S u2.
    A regular coordinate keeps the eigenpairs of K/m with |lambda| above
    SPECTRAL_CUT * kernel_bound(h); the dropped part has standard deviation
    at most sqrt(2m) * SPECTRAL_CUT * kernel_bound(h).
    """
    m = spec.grid
    if m < 32:
        raise ValueError(f"grid must be >= 32, got {m}")
    w, reg = spec.graphon, np.asarray(spec.regular, dtype=bool)
    profiles = [linear_profile(h, w, m) / np.sqrt(m)
                for h, r in zip(spec.motifs, reg) if not r]
    q1, r1 = np.linalg.qr(np.reshape(profiles, (len(profiles), m)).T)
    spectra = [_regular_spectrum(h, w, m)[:2] for h in spec.regular_motifs]
    phi = np.hstack([np.zeros((m, 0))] + [vecs for _, vecs in spectra])
    proj = q1.T @ phi
    rest = phi - q1 @ proj
    _, sv, vt = np.linalg.svd(rest, full_matrices=False)
    coef = np.vstack([proj, (vt.T * sv) @ vt])
    cols = np.cumsum([0] + [len(lam) for lam, _ in spectra])
    forms = [("linear", v) for v in r1.T] + [
        ("spectral", lam, coef[:, lo:hi]) for (lam, _), lo, hi in zip(spectra, cols, cols[1:])]
    eta_rng, g_rng, rest_rng = (np.random.default_rng(s)
                                for s in np.random.SeedSequence(seed).spawn(3))
    chaos = _chaos_draws([(eta_rng, len(profiles)), (rest_rng, cols[-1])], draws, forms)
    out = np.empty_like(chaos)
    out[:, ~reg] = chaos[:, :len(profiles)]
    out[:, reg] = chaos[:, len(profiles):]
    sigma_fac = _sigma_factor(spec.sigma, len(spectra))
    if len(sigma_fac):
        out[:, reg] += _chaos_draws([(g_rng, len(sigma_fac))], draws,
                                    [("linear", row) for row in sigma_fac])
    return out


@dataclass(frozen=True)
class RegularMarginalLaw:
    """Parameters of the marginal limit sigma*Z + sum_l lambda_l (Z_l^2 - 1)."""

    motif: Motif
    sigma: float                  # standard deviation of the Gaussian part
    spectrum: np.ndarray          # kept eigenvalues of the centered kernel K/m
    d_wh: float
    degeneracy_warning: bool
    grid: int

    def variance(self) -> float:
        return self.sigma ** 2 + 2 * float((self.spectrum ** 2).sum())


def marginal_regular_law(h: Motif, w: Graphon,
                         grid: int = DEFAULT_SPECTRUM_GRID) -> RegularMarginalLaw:
    """Marginal law of a regular motif: Gaussian std plus the kept spectrum.

    The spectrum is the one `sample_limit` draws from (`_regular_spectrum`).
    The warning flag is set when the degree residual exceeds 0.05 |d_WH|: W_H
    is then far from having constant degree d_WH, so h is not regular in w.
    """
    spectrum, _, residual = _regular_spectrum(h, w, grid)
    d = degree_constant(h, w)
    var = sigma_matrix([h], w).entries[0, 0]
    sigma = float(np.sqrt(max(var, 0.0)))
    return RegularMarginalLaw(h, sigma, spectrum, d, residual > 0.05 * abs(d), grid)


def sample_marginal_regular(law: RegularMarginalLaw, draws: int, seed) -> np.ndarray:
    """Draws of sigma*Z + sum_l lambda_l (Z_l^2 - 1), one Z_l per kept eigenvalue.

    The chi-squared part and the Gaussian part use two substreams of the seed.
    """
    chi_rng, g_rng = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    chi = _chaos_draws([(chi_rng, len(law.spectrum))], draws,
                       [("spectral", law.spectrum, None)])
    gauss = _chaos_draws([(g_rng, 1)], draws, [("linear", np.array([law.sigma]))])
    return (chi + gauss)[:, 0]


# -- log moment generating function oracle -------------------------------------

def mgf_radius_constant(spec: LimitSpec, alpha) -> float:
    """C = sum over regular motifs of |alpha_i| |V|(|V|-1)/|Aut|.

    The series for the log-MGF converges absolutely for |theta| < 1/(32 C);
    with no regular motifs (C = 0) the combination is Gaussian and the MGF is
    entire.
    """
    alpha = np.asarray(alpha, dtype=float)
    c = 0.0
    for i, (h, reg) in enumerate(zip(spec.motifs, spec.regular)):
        if reg:
            c += abs(alpha[i]) * h.k * (h.k - 1) / h.aut
    return c


def _eta_irregular(spec: LimitSpec, alpha) -> float:
    idx = [i for i, reg in enumerate(spec.regular) if not reg]
    if not idx:
        return 0.0
    motifs = [spec.motifs[i] for i in idx]
    a = np.asarray(alpha, dtype=float)[idx]
    gam = gamma_matrix(motifs, spec.graphon).entries
    return float(a @ gam @ a)


def _eta_regular(spec: LimitSpec, alpha) -> float:
    idx = [i for i, reg in enumerate(spec.regular) if reg]
    if not idx:
        return 0.0
    a = np.asarray(alpha, dtype=float)
    w = spec.graphon
    cache: dict = {}
    total = 0.0
    c_sum = 0.0
    for i in idx:
        hi = spec.motifs[i]
        c_sum += a[i] * degree_constant(hi, w)
        for j in idx:
            hj = spec.motifs[j]
            s = 0.0
            for pa in ((x, y) for x in range(1, hi.k + 1) for y in range(1, hi.k + 1) if x != y):
                for pb in ((x, y) for x in range(1, hj.k + 1) for y in range(1, hj.k + 1) if x != y):
                    join = edge_join(hi, pa, hj, pb, "weak", strict=False)
                    s += _join_density_cached(join, w, cache)
            total += a[i] * a[j] * s / (2 * hi.aut * hj.aut)
    return total - 2 * c_sum ** 2


def log_mgf_oracle(spec: LimitSpec, alpha, theta: float,
                   series_tol: float = 1e-12, max_terms: int = 200) -> float:
    """log E[exp(theta alpha' Z)] via the absolutely convergent series.

    Quadratic term (eta + eta~) theta^2/2 from join densities, then for L >= 1
    the V' U^(L) V terms (path compositions of the combined kernel evaluated
    by iterated grid matrix products) and for L >= 3 the cycle-trace terms.
    Requires |theta| < 1/(32 C); any theta is allowed when C = 0.
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (spec.r,):
        raise ValueError(f"alpha must have length {spec.r}")
    c_const = mgf_radius_constant(spec, alpha)
    if c_const > 0 and abs(theta) >= 1 / (32 * c_const):
        raise ValueError(
            f"theta={theta} outside the convergence radius 1/(32C)={1 / (32 * c_const)}")
    if theta == 0:
        return 0.0

    total = (_eta_irregular(spec, alpha) + _eta_regular(spec, alpha)) * theta ** 2 / 2

    reg_idx = [i for i, reg in enumerate(spec.regular) if reg]
    if not reg_idx:
        return float(total)

    m = spec.grid
    u = np.zeros((m, m))
    for i in reg_idx:
        u += alpha[i] * centered_kernel(spec.motifs[i], spec.graphon, m)
    v = np.zeros(m)
    for i, reg in enumerate(spec.regular):
        if not reg and alpha[i] != 0:
            v += alpha[i] * linear_profile(spec.motifs[i], spec.graphon, m)

    a_op = u / m
    lam = np.linalg.eigvalsh(a_op)
    w_l = v.copy()
    for ell in range(1, max_terms + 1):
        w_l = a_op @ w_l
        term_v = 2.0 ** (ell - 1) * theta ** (ell + 2) * float(v @ w_l) / m
        term_t = 0.0
        if ell >= 3:
            term_t = 0.5 * (2 * theta) ** ell / ell * float((lam ** ell).sum())
        total += term_v + term_t
        if ell >= 3 and abs(term_v) < series_tol and abs(term_t) < series_tol:
            return float(total)
    raise RuntimeError(f"log-MGF series did not reach {series_tol} in {max_terms} terms")


def empirical_log_mgf(samples: np.ndarray, theta: float) -> float:
    """log of the empirical moment generating function at theta.

    Computed as max + log(mean(exp(theta x - max))), max the largest theta x,
    so no exponent overflows.
    """
    x = theta * np.asarray(samples, dtype=float)
    top = x.max()
    return float(top + np.log(np.mean(np.exp(x - top))))
