"""Graphon representations and the homomorphism-density calculus.

A graphon is a symmetric kernel W on [0,1]^2 with values in [0,1].  Two
concrete forms are supported: step functions (BlockGraphon, evaluated by
exact summation over block assignments) and smooth expressions
(ExpressionGraphon, integrated by composite Gauss-Legendre quadrature).
Empirical graphons of observed graphs are BlockGraphons with n equal blocks.
Every graphon integral, plain or with pinned vertices, goes through one
path, `_integrate`, on the nodes and weights `_discretize` picks: it sums a
BlockGraphon exactly and checks the quadrature of any other graphon by cell
doubling, or raises.  The limit law reads the same nodes and weights.

On top of plain densities t(F,W) this module provides the pinned-vertex
conditional densities, the 2-point conditional kernel, and the Gaussian-block
covariance of regular motifs, read on the same nodes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ._elim import contract
from .motifs import Motif, MultiMotif, as_multimotif, _pin_orbits

QUAD_CELLS = 16
QUAD_DEGREE = 4
QUAD_TOL = 1e-6
_MAX_CELLS = 128


class QuadratureError(RuntimeError):
    """Quadrature failed to converge; register step-like kernels as Block."""


class Graphon:
    """Base class; subclasses supply pointwise evaluation."""

    name: str = "graphon"

    def eval(self, x, y):
        raise NotImplementedError


class BlockGraphon(Graphon):
    """Step graphon: B blocks with given sizes and a symmetric value matrix."""

    def __init__(self, sizes, values, name: str | None = None):
        sizes = np.asarray(sizes, dtype=float)
        values = np.asarray(values, dtype=float)
        if sizes.ndim != 1 or np.any(sizes <= 0):
            raise ValueError("block sizes must be a vector of positive reals")
        if abs(sizes.sum() - 1.0) > 1e-12:
            raise ValueError(f"block sizes sum to {sizes.sum()!r}, not 1")
        b = len(sizes)
        if values.shape != (b, b):
            raise ValueError(f"value matrix shape {values.shape} != ({b},{b})")
        if not np.allclose(values, values.T, atol=1e-12):
            raise ValueError("value matrix is not symmetric")
        if values.min() < -1e-12 or values.max() > 1 + 1e-12:
            raise ValueError("values outside [0,1]")
        self.sizes = sizes
        self.values = np.clip(values, 0.0, 1.0)
        self.cum = np.cumsum(sizes)
        self.name = name or f"block[{b}]"

    @property
    def n_blocks(self) -> int:
        return len(self.sizes)

    def block_of(self, x):
        """Block index of x in [0,1] with the ceiling convention of step graphons."""
        idx = np.searchsorted(self.cum, np.asarray(x), side="left")
        return np.clip(idx, 0, self.n_blocks - 1)

    def eval(self, x, y):
        bi = self.block_of(x)
        bj = self.block_of(y)
        return self.values[bi, bj]


class ExpressionGraphon(Graphon):
    """Graphon given by a vectorized expression W(x,y), integrated by `_integrate`."""

    def __init__(self, fn, name: str | None = None):
        self.fn = fn
        self.name = name or getattr(fn, "__name__", "expression")
        self._spot_check()

    def _spot_check(self):
        rng = np.random.default_rng(202306)
        x = rng.random(64)
        y = rng.random(64)
        wxy = np.asarray(self.fn(x, y), dtype=float)
        wyx = np.asarray(self.fn(y, x), dtype=float)
        if not np.allclose(wxy, wyx, atol=1e-9):
            raise ValueError(f"graphon {self.name!r} is not symmetric")
        if wxy.min() < -1e-9 or wxy.max() > 1 + 1e-9:
            raise ValueError(f"graphon {self.name!r} takes values outside [0,1]")

    def eval(self, x, y):
        return np.clip(np.asarray(self.fn(x, y), dtype=float), 0.0, 1.0)


# -- sampling -----------------------------------------------------------------

def sample_graph(w: Graphon, n: int, seed):
    """W-random graph on n vertices: U_i iid uniform, then independent edge flips.

    Deterministic given the seed (numpy PCG64 stream; uniforms for the latent
    positions first, then one uniform per vertex pair in row-major order).
    """
    from .counting import Graph

    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    p = np.asarray(w.eval(u[:, None], u[None, :]), dtype=float)
    coins = rng.random((n, n))
    upper = np.triu(coins < p, k=1)
    adj = (upper | upper.T).astype(np.uint8)
    return Graph(adj)


# -- homomorphism densities ---------------------------------------------------

def _hom_sum(mm: MultiMotif, w: Graphon, nodes, weights, pins=None):
    """Weighted homomorphism sum of mm in w; pinned vertices become result axes.

    pins: dict vertex -> 1-D array of evaluation points; the result is indexed
    by the pinned vertices in dict order (scalar when pins is empty).
    """
    pins = pins or {}
    q = len(nodes)
    domains = {}
    for v in range(1, mm.k + 1):
        domains[v] = len(pins[v]) if v in pins else q
    factors = []
    for v in range(1, mm.k + 1):
        if v not in pins:
            factors.append(((v,), weights))
    for (u, v), mult in mm.edges:
        xu = pins[u] if u in pins else nodes
        xv = pins[v] if v in pins else nodes
        mat = np.asarray(w.eval(xu[:, None], xv[None, :]), dtype=float)
        factors.append(((u, v), mat ** mult if mult > 1 else mat))
    keep = tuple(pins.keys())
    out = contract(factors, domains, keep=keep)
    return out if keep else float(out)


def _discretize(w: Graphon, evaluate, params=np.asarray,
                cap: int = _MAX_CELLS * QUAD_DEGREE, what=lambda: "integral"):
    """The one choice of nodes and weights: (nodes, weights, evaluate(nodes, weights)).

    A BlockGraphon gets its block midpoints and sizes: exact for step functions.
    Any other graphon gets composite Gauss-Legendre rules, QUAD_DEGREE nodes
    per equal cell (exact to degree 2*QUAD_DEGREE-1 per cell), cells doubling from
    QUAD_CELLS (fewer if `cap` nodes per axis leave no room to double) until
    params(value) moves by at most QUAD_TOL * max(max|cur|, 1e-12); the finer
    rule is returned.  Past `cap` nodes, QuadratureError naming what().
    """
    if isinstance(w, BlockGraphon):
        nodes, weights = w.cum - w.sizes / 2, w.sizes
        return nodes, weights, evaluate(nodes, weights)
    gx, gw = np.polynomial.legendre.leggauss(QUAD_DEGREE)
    cells, prev = min(QUAD_CELLS, cap // (2 * QUAD_DEGREE)), None
    while 0 < cells * QUAD_DEGREE <= cap:
        width = 1.0 / cells
        nodes = (np.arange(cells)[:, None] * width + (gx + 1)[None, :] / 2 * width).ravel()
        weights = np.tile(gw / 2 * width, cells)
        value = evaluate(nodes, weights)
        cur = params(value)
        if prev is not None and np.max(np.abs(cur - prev), initial=0.0) <= \
                QUAD_TOL * max(np.max(np.abs(cur), initial=0.0), 1e-12):
            return nodes, weights, value
        prev, cells = cur, 2 * cells
    raise QuadratureError(
        f"{what()} in {w.name!r} did not converge within {cap} points per axis; "
        f"use a BlockGraphon for step-like kernels")


def _integrate(mm: MultiMotif, w: Graphon, pins=None):
    """The one checked path for graphon integrals: _hom_sum over all free vertices,
    on the nodes and weights `_discretize` picks."""
    pinned = f" with vertices {tuple(pins)} pinned" if pins else ""
    return _discretize(w, lambda nodes, weights: _hom_sum(mm, w, nodes, weights, pins),
                       what=lambda: f"integral of {mm!r}{pinned}")[2]


def hom_density(f: Motif | MultiMotif, w: Graphon) -> float:
    """Homomorphism density t(f, w); multigraph edges multiply repeated kernels."""
    return _integrate(as_multimotif(f), w)


def conditional_1pt(h: Motif | MultiMotif, a: int, x, w: Graphon):
    """1-point conditional density t_a(x, h, w) with vertex a pinned at x."""
    mm = as_multimotif(h)
    if not (1 <= a <= mm.k):
        raise ValueError(f"vertex {a} not in 1..{mm.k}")
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = _integrate(mm, w, pins={a: xs})
    return out[0] if np.isscalar(x) or np.asarray(x).ndim == 0 else out


def tbar_1pt(h: Motif | MultiMotif, x, w: Graphon):
    """Vertex-averaged conditional density: mean of t_a(x,h,w) over a."""
    mm = as_multimotif(h)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    total = np.zeros(len(xs))
    for orbit in _pin_orbits(mm, 1).values():   # automorphic vertices give equal t_a
        total += len(orbit) * _integrate(mm, w, pins=dict.fromkeys(orbit[0], xs))
    total /= mm.k
    return total[0] if np.isscalar(x) or np.asarray(x).ndim == 0 else total


@dataclass(frozen=True)
class KernelMatrix:
    """Symmetric kernel matrix: W_H at pairs of points, or a graph's 2-point matrix."""

    values: np.ndarray
    motif: Motif

    def __post_init__(self):
        v = self.values
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"kernel matrix must be square, got {v.shape}")


def kernel_bound(h: Motif) -> float:
    """Upper bound k(k-1)/(2|Aut|) for the 2-point conditional kernel of h."""
    return h.k * (h.k - 1) / (2 * h.aut)


def degree_constant(h: Motif, w: Graphon) -> float:
    """d_{W_H} = |V|(|V|-1)/(2|Aut|) t(h,w): the kernel's degree when w is h-regular."""
    return kernel_bound(h) * hom_density(h, w)


def conditional_kernel_2pt(h: Motif, w: Graphon, x) -> KernelMatrix:
    """2-point conditional kernel W_H(x_i, x_j) at the evaluation points x.

    W_H(x,y) = (1/(2|Aut(h)|)) sum over ordered vertex pairs a != b of
    t_{a,b}(x,y,h,w); entries lie in [0, k(k-1)/(2|Aut|)].
    """
    mm = as_multimotif(h)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    total = np.zeros((len(xs), len(xs)))
    for orbit in _pin_orbits(mm, 2).values():
        # an automorphism maps the first pair onto each member, in one order or
        # the other, and t_{b,a}(x,y) = t_{a,b}(y,x): each adds tab + tab.T,
        # so the total is exactly symmetric
        tab = _integrate(mm, w, pins=dict.fromkeys(orbit[0], xs))
        total += len(orbit) * (tab + tab.T)
    return KernelMatrix(total / (2 * h.aut), h)


# -- the Gaussian-block covariance ---------------------------------------------

@dataclass(frozen=True)
class CovMatrix:
    """Covariance matrix over a motif list."""

    labels: tuple[Motif, ...]
    entries: np.ndarray

    def __post_init__(self):
        e = self.entries
        if e.shape != (len(self.labels), len(self.labels)):
            raise ValueError(f"entries shape {e.shape} != motif count {len(self.labels)}")
        if not np.allclose(e, e.T, atol=1e-9):
            raise ValueError("covariance matrix is not symmetric")
        if np.any(np.diag(e) < -1e-9):
            raise ValueError("covariance matrix has a negative diagonal entry")

    @property
    def r(self) -> int:
        return len(self.labels)


def _edge_profile(h: Motif, w: Graphon, x) -> np.ndarray:
    """D(x_i, x_j) = (1/|Aut|) sum over ordered edges (a,b) of h of the density
    of h less the edge ab, with a pinned at x_i and b at x_j."""
    total = np.zeros((len(x), len(x)))
    for orbit in _pin_orbits(h, 2).values():
        if h.has_edge(*orbit[0]):
            # as in conditional_kernel_2pt, each member of the orbit adds t + t.T
            t = _integrate(as_multimotif(Motif(h.k, h.edges - {orbit[0]})), w,
                           pins=dict.fromkeys(orbit[0], x))
            total += len(orbit) * (t + t.T)
    return total / h.aut


def sigma_matrix(motifs, w: Graphon) -> CovMatrix:
    """Gaussian-block covariance of regular motifs on the nodes `_discretize` picks.

    sigma_ij = 1/2 sum_{x,y} w_x w_y W(x,y)(1 - W(x,y)) D_i(x,y) D_j(x,y), with D_i
    the `_edge_profile` of H_i (each pinned density checked by `_integrate`): the
    Gram matrix of sqrt(w_x w_y W(1 - W)/2) D_i, so every diagonal entry is >= 0.
    """
    motifs = tuple(motifs)
    if not motifs:
        raise ValueError("empty motif list")

    def evaluate(x, weights):
        wxy = np.asarray(w.eval(x[:, None], x[None, :]), dtype=float)
        root = np.sqrt(np.outer(weights, weights) * wxy * (1 - wxy) / 2)
        rows = np.reshape([root * _edge_profile(h, w, x) for h in motifs], (len(motifs), -1))
        return rows @ rows.T

    return CovMatrix(motifs, _discretize(w, evaluate,
                                         what=lambda: f"sigma of {len(motifs)} motifs")[2])


# -- builtin graphons and file I/O --------------------------------------------

def _w_affine(x, y):
    return (np.asarray(x) + np.asarray(y)) / 2


def _w_product(x, y):
    return np.asarray(x) * np.asarray(y)


def _paper_w2() -> BlockGraphon:
    values = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=float)
    return BlockGraphon(np.full(3, 1 / 3), values, name="paper-w2")


def _paper_w3() -> BlockGraphon:
    # Two complete tripartite groups {1,2,3} and {4,5,6} plus a half-density
    # bipartite link between blocks 3 and 4; gives (t(K2), t(K3)) = (13/36, 1/18).
    v = np.zeros((6, 6))
    for grp in ((0, 1, 2), (3, 4, 5)):
        for i in grp:
            for j in grp:
                if i != j:
                    v[i, j] = 1.0
    v[2, 3] = v[3, 2] = 0.5
    return BlockGraphon(np.full(6, 1 / 6), v, name="paper-w3")


def bipartite_graphon(p: float) -> BlockGraphon:
    return BlockGraphon([0.5, 0.5], [[0.0, p], [p, 0.0]], name=f"bipartite:{p:g}")


def constant_graphon(p: float) -> BlockGraphon:
    if not (0 <= p <= 1):
        raise ValueError(f"edge probability {p} outside [0,1]")
    return BlockGraphon([1.0], [[p]], name=f"const:{p:g}")


def graphon_by_name(spec: str) -> Graphon:
    """Resolve a graphon spec: builtin name, "const:p"/"bipartite:p", or JSON path."""
    s = spec.strip()
    low = s.lower()
    if low.startswith("const:"):
        return constant_graphon(float(low.split(":", 1)[1]))
    if low.startswith("bipartite:"):
        return bipartite_graphon(float(low.split(":", 1)[1]))
    if low in ("product", "wminus", "w-"):
        return ExpressionGraphon(_w_product, name="product")
    if low in ("affine", "paper-w1", "w1"):
        return ExpressionGraphon(_w_affine, name="affine")
    if low in ("wplus", "w+"):
        return bipartite_graphon(0.5)
    if low in ("paper-w2", "w2"):
        return _paper_w2()
    if low in ("paper-w3", "w3"):
        return _paper_w3()
    if s.endswith(".json"):
        return load_block_graphon(s)
    raise ValueError(f"unknown graphon spec {spec!r}")


def load_block_graphon(path: str) -> BlockGraphon:
    """Load a block graphon from JSON: {"sizes": [...], "values": [[...]]}."""
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "sizes" not in data or "values" not in data:
        raise ValueError(f"{path}: expected a JSON object with 'sizes' and 'values'")
    return BlockGraphon(data["sizes"], data["values"], name=path)
