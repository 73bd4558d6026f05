"""Exact subgraph statistics on an observed graph.

Counts are injective-homomorphism based and exact at every n.  The total, the
1-point rows and the 2-point matrix of a motif h each sum one exact count per
Aut(h) orbit of pinned vertex tuples (none, one vertex, or a pair), and one
dispatch, `_orbit_counts`, decides how each is computed.  It looks the
orbit's key (h with the pins coloured) up in `_ORBIT_FORMS`: sixteen closed
forms from degree sums and matrix powers, per pin orbit of the edge, 2-star,
triangle and 4-cycle, plus the bowtie total.  They read what `Graph` caches
once: the adjacency, its degrees, the codegrees A @ A (an sgemm, exact below
n = 2^24) and the triangle row; each total is one `_elim._exact_total`
reduction and no total or 1-point row builds an n x n temporary.  Every
other orbit goes to Moebius inversion over vertex partitions, which turns
injective counts into all-maps homomorphism counts evaluated by exact integer
contraction (`_elim.contract`).
Its quotient classes and weights (the spasm) depend on the motif and its pins
alone, so `_spasm` builds them once, from loop-free partitions, and each
quotient class is contracted once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._elim import ExactSum, _exact_dtype, _exact_total, contract
from .graphon import BlockGraphon, KernelMatrix
from .motifs import (C4, K2, K3, K12, Motif, MotifSizeError, _canonical_form, _pin_orbits,
                     vertex_join)


class GraphSizeError(ValueError):
    """Graph too small for the requested motif statistic."""


class Graph:
    """Simple undirected graph as a symmetric 0/1 adjacency matrix."""

    def __init__(self, adjacency):
        a = np.asarray(adjacency)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {a.shape}")
        if not np.array_equal(a, a.T):
            raise ValueError("adjacency is not symmetric")
        if np.any(np.diag(a) != 0):
            raise ValueError("adjacency has a self-loop")
        if not ((a == 0) | (a == 1)).all():
            raise ValueError("adjacency entries must be 0 or 1")
        self.adj = a.astype(np.uint8)
        self.adj.flags.writeable = False
        self._deg = None
        self._adj_float = None
        self._codeg = None
        self._tri = None

    @property
    def n(self) -> int:
        return self.adj.shape[0]

    @property
    def degrees(self) -> np.ndarray:
        if self._deg is None:
            self._deg = self.adj.sum(axis=1).astype(np.int64)
        return self._deg

    @property
    def n_edges(self) -> int:
        return int(self.degrees.sum()) // 2

    def adj_float(self) -> np.ndarray:
        """The adjacency in float64.  Computed once, read-only."""
        if self._adj_float is None:
            self._adj_float = self.adj.astype(np.float64)
            self._adj_float.flags.writeable = False
        return self._adj_float

    @property
    def codegrees(self) -> np.ndarray:
        """A @ A: common neighbours of each vertex pair, degrees on the
        diagonal.  The product runs in `_elim._exact_dtype(n)`, float32 (sgemm)
        below n = 2^24, exact because its entries are at most n; it is stored
        in float64.  Computed once, read-only."""
        if self._codeg is None:
            a = self.adj.astype(_exact_dtype(self.n))
            a = a @ a       # drop the float32 input before the float64 copy
            self._codeg = a.astype(np.float64)
            self._codeg.flags.writeable = False
        return self._codeg

    @property
    def triangle_row(self) -> np.ndarray:
        """The K3 1-point row t(v) = sum_u A_vu (A @ A)_vu, twice the triangles
        at v, in float64 (exact, entries are at most n^2).  Computed once,
        read-only."""
        if self._tri is None:
            self._tri = np.einsum("ij,ij->i", self.adj_float(), self.codegrees)
            self._tri.flags.writeable = False
        return self._tri

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        a = np.zeros((n, n), dtype=np.uint8)
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            a[u, v] = a[v, u] = 1
        return cls(a)

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.n_edges})"


def parse_edge_list(text: str) -> Graph:
    """Edge list: one "u v" pair per line, 0-indexed, comments start with '#'.

    A comment of the form "# n=N" pins the vertex count; otherwise n is the
    largest index plus one.
    """
    edges = []
    n = None
    max_idx = -1
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("n=") and n is None:
                n = int(body[2:])
            continue
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {raw!r}")
        u, v = int(parts[0]), int(parts[1])
        edges.append((u, v))
        max_idx = max(max_idx, u, v)
    if n is None:
        n = max_idx + 1
    return Graph.from_edges(n, edges)


def load_edge_list(path: str) -> Graph:
    with open(path) as fh:
        return parse_edge_list(fh.read())


def edge_list_lines(g: Graph) -> list[str]:
    lines = [f"# n={g.n}"]
    ii, jj = np.nonzero(np.triu(g.adj, k=1))
    lines.extend(f"{u} {v}" for u, v in zip(ii.tolist(), jj.tolist()))
    return lines


def empirical_graphon(g: Graph) -> BlockGraphon:
    """Step graphon of g: W(x,y) = 1 iff (ceil(nx), ceil(ny)) is an edge."""
    return BlockGraphon(np.full(g.n, 1.0 / g.n), g.adj_float(), name=f"empirical[n={g.n}]")


# -- Moebius inversion over vertex partitions ----------------------------------

# Vertices `_spasm` may partition: Bell(12) = 4,213,597 partitions, so the
# 11-vertex joins of 6-vertex motifs still count; larger motifs raise.
_VERTEX_CAP = 12


@lru_cache(maxsize=1 << 10)
def _spasm(h: Motif, pins: tuple[int, ...] = ()):
    """The Moebius expansion of h with pins: one (quotient edges, blocks, pin
    blocks, summed weight) entry per class with a nonzero weight.

    Quotient vertices are blocks 0..blocks-1; pin_blocks[i] holds pins[i].
    Vertices are placed in order, each opening a block or joining one with
    none of its neighbours (a loop has no image in a simple graph) and, for a
    pin, no other pin (merged pins only add to the diagonal the callers zero).
    Joining a block of size s multiplies the weight by -s, which gives each
    partition its Moebius weight prod (-1)^(|b|-1) (|b|-1)!.  Classes are
    canonical keys with pinned blocks coloured; past _VERTEX_CAP vertices
    it raises MotifSizeError.
    """
    if h.k > _VERTEX_CAP:
        raise MotifSizeError(f"Moebius inversion of a {h.k}-vertex motif runs over its vertex "
                             f"partitions, cap is {_VERTEX_CAP} vertices")
    edges = [(u - 1, v - 1) for u, v in h.edges]
    pinned = [p - 1 for p in pins]
    # the earlier vertices that vertex v may not share a block with
    avoid = [[u for u, w in edges if w == v] + [p for p in pinned if p < v and v in pinned]
             for v in range(h.k)]
    block_of = [0] * h.k
    labelled: dict = {}                     # (blocks, edges, pin blocks) -> summed weight

    def place(v, blocks, weight):
        if v == h.k:
            quotient = {(a, b) if a < b else (b, a)
                        for a, b in ((block_of[u], block_of[w]) for u, w in edges)}
            key = (blocks, tuple(sorted(quotient)), tuple(block_of[p] for p in pinned))
            labelled[key] = labelled.get(key, 0) + weight
            return
        taken = {block_of[u] for u in avoid[v]}
        for b in range(blocks):
            if b not in taken:
                block_of[v] = b
                place(v + 1, blocks, -block_of[:v].count(b) * weight)
        block_of[v] = blocks
        place(v + 1, blocks + 1, weight)

    place(0, 0, 1)
    classes: dict = {}
    for (k, quotient, pin_blocks), mu in labelled.items():
        colours = tuple(pin_blocks.index(b) if b in pin_blocks else -1 for b in range(k))
        # uncached: these labelled quotients are keyed once, while `_spasm` is cached
        key = _canonical_form.__wrapped__(k, tuple(((a + 1, b + 1), 1) for a, b in quotient),
                                          colours)[0]
        classes.setdefault(key, [quotient, k, pin_blocks, 0])[3] += mu
    return tuple(tuple(c) for c in classes.values() if c[3])


def _mobius_injective(h: Motif, g: Graph, pins: tuple[int, ...] = ()):
    """Injective homomorphism count: the classes of `_spasm(h, pins)`, each
    contracted once, summed with their weights.

    pins are motif vertices whose images stay free output axes (a 0-d array
    when there are none); entries where two pins share an image are not
    counts, and the callers zero them.  Totals are exact, in the dtype
    `_elim._result_dtype` gives their bound: float64, int64 or Python ints.
    """
    total = ExactSum((g.n,) * len(pins))
    for edges, k, pin_blocks, mu in _spasm(h, pins):
        # 0/1 adjacency: at most n choices for each unpinned block
        total.add(contract([(e, g.adj) for e in edges], dict.fromkeys(range(k), g.n), pin_blocks),
                  g.n ** (k - len(pins)), weight=mu)
    return total.value


# -- the counting dispatch -----------------------------------------------------

_BOWTIE = vertex_join(K3, 1, K3, 1)


def _c4_total(g: Graph) -> int:
    """The sum of c(c - 1) over codegrees c off the diagonal: sum c^2 less the
    diagonal's sum d(d - 1) and sum c, which is sum d^2."""
    c, d = g.codegrees, g.degrees
    return _exact_total(g.n ** 4, c, c) - 2 * _exact_total(g.n ** 3, d, d) + 2 * g.n_edges


def _bowtie_total(g: Graph) -> int:
    """Pairs of triangles at a vertex, less those that share an edge (a pair
    at both its ends), which the ordered-edge sum of c(c - 1), that is
    sum A c^2 - sum t, counts four times each."""
    a, c, t = g.adj_float(), g.codegrees, g.triangle_row
    tri = t // 2                                  # triangles at each vertex
    per_vertex = _exact_total(g.n ** 5, tri, tri - 1) // 2
    per_edge = (_exact_total(g.n ** 4, a, c, c) - _exact_total(g.n ** 3, t)) // 4
    return (per_vertex - 2 * per_edge) * _BOWTIE.aut


def _c4_vertex(g: Graph) -> np.ndarray:
    a, a2, d = g.adj_float(), g.codegrees, g.degrees
    return np.einsum("ij,ij->i", a2, a2) - d ** 2 - a @ d + d


def _k12_centre_leaf(g: Graph) -> np.ndarray:
    d = g.degrees.astype(np.float64)
    return g.adj_float() * (d[:, None] + d[None, :] - 2)


def _c4_adjacent(g: Graph) -> np.ndarray:
    a, a2, d = g.adj_float(), g.codegrees, g.degrees.astype(np.float64)
    p3 = a @ a2 - a * (d[:, None] + d[None, :] - 1)     # 3-edge paths u-x-y-v
    return 2 * a * p3


# Closed forms, one per Aut(h) orbit of pins, under the orbit's key from
# `_pin_orbits`, built from the adjacency A, the codegrees A2 = A @ A, the
# triangle row t and the degrees d, with entries exact in float64.  A total is
# an int (each reduction is `_elim._exact_total`, one pass over its operands
# with a static bound n^3, n^4 or n^5 on its sum), a 1-point entry is X_a(v)
# for v in g, and a pair entry is the symmetric X_{a,b}(u, v) + X_{a,b}(v, u),
# a fresh array the caller scales in place.
_ORBIT_FORMS = {key: form for h, pins, form in (
    (K2, (), lambda g: 2 * g.n_edges),
    (K12, (), lambda g: _exact_total(g.n ** 3, g.degrees, g.degrees - 1)),
    (K3, (), lambda g: _exact_total(g.n ** 3, g.triangle_row)),
    (C4, (), _c4_total),
    (_BOWTIE, (), _bowtie_total),
    (K2, (1,), lambda g: g.degrees),
    (K12, (1,), lambda g: g.degrees * (g.degrees - 1)),
    (K12, (2,), lambda g: g.adj_float() @ g.degrees - g.degrees),
    (K3, (1,), lambda g: g.triangle_row),
    (C4, (1,), _c4_vertex),
    (K2, (1, 2), lambda g: 2 * g.adj_float()),
    (K12, (1, 2), _k12_centre_leaf),
    (K12, (2, 3), lambda g: 2 * g.codegrees),
    (K3, (1, 2), lambda g: 2 * g.adj_float() * g.codegrees),
    (C4, (1, 2), _c4_adjacent),
    (C4, (1, 3), lambda g: 2 * g.codegrees * (g.codegrees - 1)),
) for key, orbit in _pin_orbits(h, len(pins)).items() if pins in orbit}


def _orbit_counts(h: Motif, g: Graph, size: int):
    """(orbit, injective count with the orbit's first member pinned) for each
    Aut(h) orbit of pin tuples of length size (0, 1 or 2): the closed form
    registered under the orbit's key, else `_mobius_injective`.  A pair count
    is X_{a,b}(u, v) + X_{a,b}(v, u), a fresh float array whose diagonal the
    caller zeroes."""
    if g.n < h.k:
        raise GraphSizeError(f"graph has {g.n} vertices, motif needs {h.k}")
    for key, orbit in _pin_orbits(h, size).items():
        form = _ORBIT_FORMS.get(key)
        if form is not None:
            yield orbit, form(g)
        elif size < 2:
            yield orbit, _mobius_injective(h, g, orbit[0])
        else:
            x = np.asarray(_mobius_injective(h, g, orbit[0]), dtype=float)
            yield orbit, x + x.T                # X_{b,a}(u, v) = X_{a,b}(v, u)


# -- public operations ----------------------------------------------------------

def injective_hom_count(h: Motif, g: Graph) -> int:
    """Number of injective homomorphisms of h into g (equals |Aut(h)| X(h,g))."""
    return sum(int(x) for _, x in _orbit_counts(h, g, 0))


def count_copies(h: Motif, g: Graph) -> int:
    """X(h,g): unlabeled copies of h in g = injective homomorphisms / |Aut(h)|."""
    inj = injective_hom_count(h, g)
    aut = h.aut
    if inj % aut != 0:
        raise AssertionError(f"injective count {inj} not divisible by |Aut|={aut}")
    return inj // aut


def falling_factorial(n: int, k: int) -> int:
    out = 1
    for i in range(k):
        out *= n - i
    return out


def density_hat_t(h: Motif, g: Graph) -> float:
    """Unbiased density estimate |Aut(h)| X(h,g) / (n)_k, in [0,1]."""
    return h.aut * count_copies(h, g) / falling_factorial(g.n, h.k)


@dataclass(frozen=True)
class OnePointDensity:
    """Empirical 1-point subgraph densities: t_hat[v] plus the raw X_a rows."""

    motif: Motif
    t_hat: np.ndarray            # length n
    x_a: np.ndarray              # shape (k, n); row a-1 is X_a(., h, g)


def one_point_density(h: Motif, g: Graph) -> OnePointDensity:
    """t_hat(v,h,g) = (1/|Aut|) sum_a X_a(v,h,g) / n^(k-1) for every vertex v."""
    x_a = np.empty((h.k, g.n))
    for orbit, x in _orbit_counts(h, g, 1):     # automorphic pins give equal rows
        x_a[[a - 1 for (a,) in orbit]] = x
    t_hat = x_a.sum(axis=0) / (h.aut * float(g.n) ** (h.k - 1))
    return OnePointDensity(h, t_hat, x_a)


def two_point_matrix(h: Motif, g: Graph) -> KernelMatrix:
    """Empirical 2-point density matrix W_hat(u,v) with zero diagonal.

    W_hat(u,v) = (1/(2|Aut|)) sum over ordered pairs a != b of
    X_{a,b}(u,v,h,g) / n^(k-2).
    """
    total = None
    for orbit, x in _orbit_counts(h, g, 2):
        # an automorphism maps the first pair onto each member, in one order or
        # the other, so each member adds the symmetric entry x
        x *= len(orbit)
        if total is None:
            total = x
        else:
            total += x
    np.fill_diagonal(total, 0.0)
    vals = total / (2 * h.aut * float(g.n) ** (h.k - 2))
    return KernelMatrix(vals, h)


def regularity_R_empirical(h: Motif, g: Graph) -> float:
    """Plug-in regularity statistic R(h, g); negative finite-sample values kept.

    R = sum_{a,b} t_hat(h (+)_{a,b} h, g) - |V(h)|^2 t_hat(h,g)^2.
    """
    groups: dict = {}
    for a in range(1, h.k + 1):
        for b in range(1, h.k + 1):
            join = vertex_join(h, a, h, b)
            groups.setdefault(join.canonical_key(), [0, join])[0] += 1
    s = 0.0
    for count, join in groups.values():
        s += count * density_hat_t(join, g)
    return s - h.k ** 2 * density_hat_t(h, g) ** 2
