"""Sampler and oracles for the joint limit law of centered motif counts.

The limit of the count vector (after per-motif scaling) couples linear and
bilinear Wiener-Ito integrals driven by one Brownian motion with an
independent Gaussian block.  The law is read on the nodes x_i and weights w_i
that `graphon._discretize` picks for every graphon integral: exact on the
blocks of a step graphon, a settled Gauss-Legendre rule (Nystrom method)
otherwise.  With z iid N(0, 1) over the nodes, an irregular motif gives the
linear form g'z, g_i = sqrt(w_i) g(x_i), and a regular motif the quadratic
form z'Az - tr(A), A = D^1/2 K D^1/2 for its centered kernel K at the nodes
and D = diag(w), plus its Gaussian coordinate; subtracting the trace is the
Wiener-Ito exclusion of diagonal squares.

One core, `_chaos_draws`, evaluates linear, spectral and dense quadratic
forms on shared blocks of standard normals; `sample_limit` and the multiplier
bootstrap are setup around it.  `sample_limit` is the one sampler of the law:
it draws a regular coordinate in the spectral form of A (the weighted
chi-squared form of Bhattacharya, Chatterjee & Janson) and reads z only
through d = (irregular motifs) + (kept ranks) directions, listed at
`sample_limit`.  The marginal of a regular motif h is the column of
`sample_limit(build_limit_spec([h], w), ...)`; `marginal_regular_law` holds
its parameters (Gaussian std, kept spectrum) and raises when h is irregular.

The population covariances read the same nodes: Gamma (`gamma_matrix`) is the
Gram matrix of the scaled irregular profiles, R(H, W) = |Aut(H)|^2 Gamma_HH,
and the log moment generating function of any linear combination of the limit
coordinates (`log_mgf_oracle`) is the closed form of a Gaussian plus a
Gaussian quadratic form on the nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphon import (_MAX_CELLS, QUAD_DEGREE, CovMatrix, Graphon, _discretize,
                      conditional_kernel_2pt, degree_constant, hom_density, kernel_bound,
                      sigma_matrix, tbar_1pt)
from .motifs import Motif

DEFAULT_GRID = _MAX_CELLS * QUAD_DEGREE   # cap on quadrature nodes per axis
REGULARITY_TOL = 1e-9
_PSD_TOL = 1e-8
SPECTRAL_CUT = 1e-12
_CHUNK = 4096


@dataclass(frozen=True)
class LimitSpec:
    """Everything needed to sample the joint limit of a motif collection.

    regular[i] says whether the graphon is H_i-regular (quadratic marginal);
    sigma is the Gaussian-block covariance over the regular motifs; grid caps
    the Gauss-Legendre nodes per axis (a block graphon's law ignores it).
    """

    motifs: tuple[Motif, ...]
    regular: tuple[bool, ...]
    graphon: Graphon
    grid: int = DEFAULT_GRID
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


def build_limit_spec(motifs, w: Graphon, grid: int = DEFAULT_GRID) -> LimitSpec:
    """The one regularity verdict, R(h, w) < REGULARITY_TOL per motif; fills in sigma."""
    motifs = tuple(motifs)
    gamma = np.diag(gamma_matrix(motifs, w).entries).tolist() if motifs else []
    regular = tuple(h.aut ** 2 * g < REGULARITY_TOL for h, g in zip(motifs, gamma))
    reg_motifs = tuple(h for h, r in zip(motifs, regular) if r)
    sigma = sigma_matrix(reg_motifs, w) if reg_motifs else None
    return LimitSpec(motifs, regular, w, grid, sigma)


def linear_profile(h: Motif, w: Graphon, x) -> np.ndarray:
    """Integrand of the irregular marginal at the points x.

    g(x) = (1/|Aut|) sum_a t_a(x,h,w) - (|V|/|Aut|) t(h,w); integral of g^2 is
    the Gaussian limit variance of the scaled centered count.
    """
    return h.k * (tbar_1pt(h, x, w) - hom_density(h, w)) / h.aut


def centered_kernel(h: Motif, w: Graphon, x) -> np.ndarray:
    """W_H at the points x minus the constant |V|(|V|-1) t(h,w) / (2|Aut|)."""
    return conditional_kernel_2pt(h, w, x).values - degree_constant(h, w)


def _regular_spectrum(h: Motif, w: Graphon, x, weights):
    """The eigenpairs (lam, phi) of A = D^1/2 K D^1/2, K = centered_kernel(h, w, x),
    with |lam| above SPECTRAL_CUT * kernel_bound(h); when w is h-regular, A has
    the spectrum of W_H less its eigenvalue d_WH."""
    root = np.sqrt(weights)
    lam, phi = np.linalg.eigh(root[:, None] * centered_kernel(h, w, x) * root)
    keep = np.abs(lam) > SPECTRAL_CUT * kernel_bound(h)
    return lam[keep], phi[:, keep]


def _law_on_nodes(motifs, regular, w: Graphon, grid: int):
    """(profiles, spectra) on the nodes `_discretize` picks, at most `grid` per axis:
    a row sqrt(w_i) g(x_i) per irregular motif, `_regular_spectrum` per regular
    one; a Gauss-Legendre rule refines until the Gram matrix of the profiles and
    every kept spectrum (zero-padded and sorted, so lengths may differ) settle."""
    irregular = [h for h, r in zip(motifs, regular) if not r]
    regulars = [h for h, r in zip(motifs, regular) if r]

    def evaluate(x, weights):
        profiles = np.reshape([np.sqrt(weights) * linear_profile(h, w, x) for h in irregular],
                              (len(irregular), len(x)))
        return profiles, [_regular_spectrum(h, w, x, weights) for h in regulars]

    def params(law):
        profiles, spectra = law
        return np.concatenate([(profiles @ profiles.T).ravel()] + [
            np.sort(np.concatenate([lam, np.zeros(grid - len(lam))])) for lam, _ in spectra])

    return _discretize(w, evaluate, params, grid, lambda: f"limit law of {len(motifs)} motifs")[2]


def gamma_matrix(motifs, w: Graphon) -> CovMatrix:
    """Gaussian covariance of irregular motifs: the Gram matrix of the scaled
    profiles sqrt(w_i) g(x_i) of `_law_on_nodes`, at the default node cap."""
    motifs = tuple(motifs)
    if not motifs:
        raise ValueError("empty motif list")
    profiles, _ = _law_on_nodes(motifs, [False] * len(motifs), w, DEFAULT_GRID)
    return CovMatrix(motifs, profiles @ profiles.T)


def regularity_R_graphon(h: Motif, w: Graphon) -> float:
    """R(h,w) = |Aut(h)|^2 gamma_hh, a sum of squares; zero iff w is h-regular."""
    return float(h.aut ** 2 * gamma_matrix([h], w).entries[0, 0])


def _sigma_factor(sigma: CovMatrix | None, n_reg: int) -> np.ndarray:
    if n_reg == 0:
        return np.zeros((0, 0))
    vals, vecs = np.linalg.eigh(sigma.entries)
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
      ("spectral", lam, phi)   lam @ ((phi' z)^2 - 1)
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
                vals = lam @ ((phi.T @ z[:len(phi)]) ** 2 - 1)
            else:
                a = arrays[0]
                vals = np.einsum("uc,uc->c", z, a @ z) - np.trace(a)
            out[start:start + z.shape[1], j] = vals
    return out


def sample_limit(spec: LimitSpec, draws: int, seed) -> np.ndarray:
    """Joint draws of the limit vector; one row per draw, one column per motif.

    All coordinates of a draw read one Brownian path z ~ N(0, I_q) over the
    q nodes of `_law_on_nodes`, but only through d = (irregular motifs) +
    (kept ranks) directions, so a draw costs d standard normals, on three
    substreams of the seed:
      0: u1 = Q1'z, Q1 from the Householder QR of the scaled irregular
         profiles; an irregular column with profile v is (Q1'v)'u1, so
         removing a regular motif from the spec leaves it bit-identical;
      1: the Gaussian block of the regular motifs;
      2: u2, read as rest'z = S u2, where rest = phi - Q1 Q1'phi over all
         kept eigenvectors phi and S = V diag(s) V' (thin SVD of rest) is the
         symmetric square root of rest'rest, exact to rounding also when
         regular motifs share eigenvectors; phi'z = (Q1'phi)'u1 + S u2.
    A regular coordinate keeps the eigenpairs of A = D^1/2 K D^1/2 with
    |lambda| above SPECTRAL_CUT * kernel_bound(h); the dropped part has
    standard deviation at most sqrt(2q) * SPECTRAL_CUT * kernel_bound(h).
    """
    reg = np.asarray(spec.regular, dtype=bool)
    profiles, spectra = _law_on_nodes(spec.motifs, reg, spec.graphon, spec.grid)
    q1, r1 = np.linalg.qr(profiles.T)
    phi = np.hstack([np.zeros((len(q1), 0))] + [vecs for _, vecs in spectra])
    proj = q1.T @ phi
    rest = phi - q1 @ proj
    _, sv, vt = np.linalg.svd(rest, full_matrices=False)
    coef = np.vstack([proj, (vt.T * sv) @ vt])
    cols = np.cumsum([0] + [len(lam) for lam, _ in spectra])
    forms = [("linear", v) for v in r1.T] + [
        ("spectral", lam, coef[:, lo:hi]) for (lam, _), lo, hi in zip(spectra, cols, cols[1:])]
    eta_rng, g_rng, rest_rng = (np.random.default_rng(s)
                                for s in np.random.SeedSequence(seed).spawn(3))
    chaos = _chaos_draws([(eta_rng, q1.shape[1]), (rest_rng, cols[-1])], draws, forms)
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
    spectrum: np.ndarray          # kept eigenvalues of A = D^1/2 K D^1/2

    def variance(self) -> float:
        return self.sigma ** 2 + 2 * float((self.spectrum ** 2).sum())


def marginal_regular_law(h: Motif, w: Graphon, grid: int = DEFAULT_GRID) -> RegularMarginalLaw:
    """Marginal law of a regular motif: Gaussian std plus the kept spectrum.

    The law is that of `spec = build_limit_spec([h], w, grid)`, whose draws are
    `sample_limit(spec, draws, seed)[:, 0]`; ValueError when the spec finds h
    irregular in w, as the law is then the Gaussian of `gamma_matrix`.
    """
    spec = build_limit_spec([h], w, grid)
    if not spec.regular[0]:
        raise ValueError(f"{h!r} is not regular in {w.name!r}: R(h, w) >= {REGULARITY_TOL:g}")
    _, [(spectrum, _)] = _law_on_nodes(spec.motifs, spec.regular, w, grid)
    return RegularMarginalLaw(h, float(np.sqrt(spec.sigma.entries[0, 0])), spectrum)


# -- log moment generating function oracle -------------------------------------

def mgf_radius_constant(spec: LimitSpec, alpha) -> float:
    """C = sum over regular motifs of |alpha_i| |V|(|V|-1)/|Aut|.

    `log_mgf_oracle` takes |theta| < 1/(32 C), where every eigenvalue x of
    2 theta A lies in (-1/32, 1/32); with no regular motifs (C = 0) the
    combination is Gaussian and any theta is allowed.
    """
    alpha = np.asarray(alpha, dtype=float)
    c = 0.0
    for i, (h, reg) in enumerate(zip(spec.motifs, spec.regular)):
        if reg:
            c += abs(alpha[i]) * h.k * (h.k - 1) / h.aut
    return c


def log_mgf_oracle(spec: LimitSpec, alpha, theta: float) -> float:
    """log E[exp(theta alpha' Z)] in closed form on the nodes of `_law_on_nodes`.

    alpha' Z = v'z + z'Az - tr(A) + G, with v = sum_i alpha_i g_i over the
    irregular profiles, A = sum_i alpha_i A_i over the kept eigenpairs of the
    regular motifs and G ~ N(0, alpha_r' Sigma alpha_r).  With (lam, U) the
    eigenpairs of A, u = U'v and x = 2 theta lam, the value is
      (theta^2/2)(eta + eta~ + sum u^2 x/(1-x)) - 1/2 sum [log1p(-x) + x + x^2/2],
    eta = v'v and eta~ = alpha_r' Sigma alpha_r + 2 ||A||_F^2 the variances of
    the linear and regular parts.  Requires finite alpha and theta with
    |theta| < 1/(32 C); any finite theta is allowed when C = 0.
    """
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (spec.r,):
        raise ValueError(f"alpha must have length {spec.r}")
    if not (np.isfinite(theta) and np.isfinite(alpha).all()):
        raise ValueError(f"theta and alpha must be finite, got {theta} and {alpha}")
    c_const = mgf_radius_constant(spec, alpha)
    if c_const > 0 and abs(theta) >= 1 / (32 * c_const):
        raise ValueError(
            f"theta={theta} outside the convergence radius 1/(32C)={1 / (32 * c_const)}")
    if theta == 0:
        return 0.0

    reg = np.asarray(spec.regular, dtype=bool)
    profiles, spectra = _law_on_nodes(spec.motifs, reg, spec.graphon, spec.grid)
    v = alpha[~reg] @ profiles
    a_op = np.zeros((len(v), len(v)))
    for a, (lam, phi) in zip(alpha[reg], spectra):
        a_op += a * (phi * lam) @ phi.T
    eta_tilde = 2 * float((a_op ** 2).sum())
    if reg.any():
        eta_tilde += float(alpha[reg] @ spec.sigma.entries @ alpha[reg])
    lam, vecs = np.linalg.eigh(a_op)
    u, x = vecs.T @ v, 2 * theta * lam
    return float(theta ** 2 / 2 * (v @ v + eta_tilde + (u ** 2 * x / (1 - x)).sum())
                 - 0.5 * (np.log1p(-x) + x + x ** 2 / 2).sum())


def empirical_log_mgf(samples: np.ndarray, theta: float) -> float:
    """log of the empirical moment generating function at theta.

    Computed as max + log(mean(exp(theta x - max))), max the largest theta x,
    so no exponent overflows.
    """
    x = theta * np.asarray(samples, dtype=float)
    top = x.max()
    return float(top + np.log(np.mean(np.exp(x - top))))
