"""Small-graph algebra: motifs, canonical forms, automorphisms and joins.

Motifs are simple labeled graphs on vertex set {1..k}; user-facing motifs
(`parse_motif`) are capped at K_MAX vertices, and a vertex join, which glues
two motifs at one vertex, may produce graphs up to 2*K_MAX-1 vertices: the
empirical regularity functional R(H, G_n) counts them.  A loopless multigraph
(`MultiMotif`) carries edge multiplicities, which multiply repeated kernels
in a homomorphism density.

Every isomorphism question (canonical keys, |Aut|, isomorphism tests and the
Aut orbits of pinned vertices) is answered by one individualization-refinement
routine, `_canonical_form`, which is exact or raises `MotifSizeError`.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from functools import lru_cache

K_MAX = 8

# Joins of two K_MAX-vertex motifs are the largest graphs we ever build.
_HARD_VERTEX_CAP = 2 * K_MAX - 1

Edge = tuple[int, int]


class MotifSizeError(ValueError):
    """Motif exceeds a vertex cap or the canonical form's search budget."""


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Motif:
    """Simple labeled graph on vertices {1..k}."""

    k: int
    edges: frozenset[Edge]

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"motif needs at least 2 vertices, got k={self.k}")
        if self.k > _HARD_VERTEX_CAP:
            raise MotifSizeError(f"graph has {self.k} vertices, hard cap is {_HARD_VERTEX_CAP}")
        for (u, v) in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (1 <= u < v <= self.k):
                raise ValueError(f"edge {(u, v)} not a sorted pair in 1..{self.k}")

    @classmethod
    def from_edges(cls, k: int, edges) -> "Motif":
        return cls(k, frozenset(_norm_edge(u, v) for u, v in edges))

    @property
    def aut(self) -> int:
        """|Aut|: number of permutations of {1..k} preserving the edge set."""
        return self._form()[2]

    def _form(self):
        return _canonical_form(self.k, tuple(((u, v), 1) for u, v in sorted(self.edges)))

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return _norm_edge(u, v) in self.edges

    def ordered_edges(self) -> list[Edge]:
        """E+: both orientations of every edge, sorted for determinism."""
        out = []
        for (u, v) in self.edges:
            out.append((u, v))
            out.append((v, u))
        return sorted(out)

    def neighbors(self, v: int) -> list[int]:
        return sorted(u for e in self.edges for u in e if v in e and u != v)

    def relabel(self, perm: dict[int, int]) -> "Motif":
        """Apply a bijection {1..k}->{1..k} to the vertex labels."""
        return Motif.from_edges(self.k, ((perm[u], perm[v]) for u, v in self.edges))

    def canonical_key(self):
        """Equal for two graphs exactly when they are isomorphic (see `_canonical_form`)."""
        return self._form()[0]

    def __repr__(self):
        es = ",".join(f"{u}-{v}" for u, v in sorted(self.edges))
        return f"Motif(k={self.k}, edges=[{es}])"


@dataclass(frozen=True)
class MultiMotif:
    """Loopless multigraph on {1..k}: unordered pairs with multiplicities >= 1."""

    k: int
    edges: tuple[tuple[Edge, int], ...]

    def __post_init__(self):
        if self.k > _HARD_VERTEX_CAP:
            raise MotifSizeError(f"graph has {self.k} vertices, hard cap is {_HARD_VERTEX_CAP}")
        seen = set()
        for (u, v), m in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (1 <= u < v <= self.k):
                raise ValueError(f"edge {(u, v)} not a sorted pair in 1..{self.k}")
            if m < 1:
                raise ValueError(f"multiplicity {m} < 1 on edge {(u, v)}")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge entry {(u, v)}")
            seen.add((u, v))

    @classmethod
    def from_multiplicities(cls, k: int, mult: dict[Edge, int]) -> "MultiMotif":
        items = tuple(sorted((_norm_edge(u, v), m) for (u, v), m in mult.items()))
        return cls(k, items)

    @property
    def multiplicities(self) -> dict[Edge, int]:
        return dict(self.edges)

    def canonical_key(self):
        """Equal for two graphs exactly when they are isomorphic (see `_canonical_form`)."""
        return _canonical_form(self.k, self.edges)[0]

    def __repr__(self):
        es = ",".join(f"{u}-{v}x{m}" if m > 1 else f"{u}-{v}" for (u, v), m in self.edges)
        return f"MultiMotif(k={self.k}, edges=[{es}])"


def as_multimotif(h: Motif | MultiMotif) -> MultiMotif:
    if isinstance(h, MultiMotif):
        return h
    return MultiMotif.from_multiplicities(h.k, {e: 1 for e in h.edges})


@lru_cache(maxsize=1 << 16)
def _canonical_form(k: int, edges: tuple[tuple[Edge, int], ...], colours=None):
    """(key, labelling, aut) of a loopless multigraph on {1..k}.

    edges: sorted ((u, v), multiplicity) pairs with u < v; colours, if given,
    colours[v - 1] for vertex v, must be preserved.  key is (k, the smallest
    relabelled edge list over the leaves of the search below), plus the sorted
    colours if given, so two graphs share a key exactly when they are
    isomorphic; labelling[v - 1] is the label of vertex v in a relabelling that
    gives the key; aut counts the (colour-preserving) automorphisms.

    Individualization-refinement (McKay & Piperno, "Practical graph
    isomorphism, II", 2014): colour refinement splits every cell of an ordered
    partition by the multiset of (neighbour's cell, edge multiplicity) until
    nothing splits; the search then individualizes each vertex of the first
    non-singleton cell in turn and recurses.  A cell of twins (the same
    multiplicity to every vertex outside it, one multiplicity on every pair
    inside it) is split in index order without branching: every permutation
    of it is an automorphism, so it contributes |cell|!.  Two leaves with the
    same relabelled graph give an automorphism; the search skips a vertex in
    the orbit of one already tried under the automorphisms found that keep
    the node's cells, and leaves the subtree where the automorphism was found
    (the part already searched maps onto it); the first cells are the colour
    classes in sorted order.  By orbit-stabilizer, aut is the product over the
    first path of the twin factors and of the orbit sizes of the vertices it
    individualizes.  A search past K_MAX! leaves raises
    MotifSizeError; graphs with at most K_MAX vertices never reach it.
    """
    adj = [[0] * k for _ in range(k)]
    for (u, v), m in edges:
        adj[u - 1][v - 1] = adj[v - 1][u - 1] = m
    nbrs = [[(w, m) for w, m in enumerate(row) if m] for row in adj]
    leaf_cap = math.factorial(K_MAX)
    leaves = 0
    first = best = None                 # (key, labelling, path) of a leaf
    gens = []                           # automorphisms found, as vertex maps
    first_path = []                     # (cells, vertex) branched on, first path
    twin_factor = 1                     # product of twin factors, first path

    def refine(cells):
        while True:
            colour = {v: i for i, cell in enumerate(cells) for v in cell}
            out = []
            for cell in cells:
                if len(cell) == 1:
                    out.append(cell)
                    continue
                sig = {v: tuple(sorted((colour[w], m) for w, m in nbrs[v])) for v in cell}
                out += [[v for v in cell if sig[v] == s] for s in sorted(set(sig.values()))]
            if len(out) == len(cells):
                return cells
            cells = out

    def twins(cell):
        inside = {adj[u][v] for u, v in itertools.combinations(cell, 2)}
        outside = [w for w in range(k) if w not in cell]
        return len(inside) == 1 and all(adj[v][w] == adj[cell[0]][w]
                                        for v in cell[1:] for w in outside)

    def orbits(cells):
        """Orbit representatives under the automorphisms found that keep every cell."""
        cell_of = {v: i for i, cell in enumerate(cells) for v in cell}
        rep = list(range(k))

        def find(v):
            while rep[v] != v:
                v = rep[v]
            return v

        for g in gens:
            if all(cell_of[g[v]] == cell_of[v] for v in range(k)):
                for v in range(k):
                    rep[find(v)] = find(g[v])
        return [find(v) for v in range(k)]

    def search(cells, path):
        """Search below the node reached by path; returns the depth to resume
        at after finding an automorphism, else None."""
        nonlocal leaves, first, best, twin_factor
        i = next((i for i, cell in enumerate(cells) if len(cell) > 1), None)
        if i is None:
            leaves += 1
            if leaves > leaf_cap:
                raise MotifSizeError(f"canonical form of a {k}-vertex graph needs more "
                                     f"than {leaf_cap} search leaves")
            label = [0] * k                 # cells are singletons here
            for pos, (v,) in enumerate(cells, 1):
                label[v] = pos
            key = tuple(sorted((_norm_edge(label[u - 1], label[v - 1]), m) for (u, v), m in edges))
            if first is None:
                first = best = (key, label, path)
                return None
            for ref_key, ref_label, ref_path in (first, best):
                if key == ref_key:
                    at = {pos: v for v, pos in enumerate(label)}
                    gens.append([at[ref_label[v]] for v in range(k)])
                    return next(d for d, (a, b) in enumerate(zip(path, ref_path)) if a != b)
            if key < best[0]:
                best = (key, label, path)
            return None
        cell, rest = cells[i], cells[i + 1:]
        if twins(cell):
            if first is None:
                twin_factor *= math.factorial(len(cell))
            return search(refine(cells[:i] + [[v] for v in cell] + rest), path + (None,))
        if first is None:
            first_path.append((cells, cell[0]))
        tried = []
        for v in cell:
            orbit = orbits(cells)
            if any(orbit[v] == orbit[u] for u in tried):
                continue
            tried.append(v)
            back = search(refine(cells[:i] + [[v], [w for w in cell if w != v]] + rest),
                          path + (v,))
            if back is not None and back < len(path):
                return back
        return None

    palette = colours or (0,) * k
    search(refine([[v for v in range(k) if palette[v] == c] for c in sorted(set(palette))]), ())
    aut = twin_factor
    for cells, v in first_path:
        orbit = orbits(cells)
        aut *= orbit.count(orbit[v])
    key, labelling, _ = best
    key = (k, key) if colours is None else (k, key, tuple(sorted(colours)))
    return key, tuple(labelling), aut


def _pin_orbits(h: Motif | MultiMotif, size: int) -> dict[tuple, list[tuple[int, ...]]]:
    """Aut(h) orbits on sorted vertex tuples of length size (0, 1 or 2), as
    sorted lists in sorted order, each under its key: the key of h with the
    tuple's vertices coloured 1 and the rest 0."""
    mm = as_multimotif(h)
    orbits: dict = {}
    for pins in itertools.combinations(range(1, mm.k + 1), size):
        colours = tuple(int(v in pins) for v in range(1, mm.k + 1))
        orbits.setdefault(_canonical_form(mm.k, mm.edges, colours)[0], []).append(pins)
    return orbits


def vertex_join(h1: Motif, a: int, h2: Motif, b: int) -> Motif:
    """Identify vertex a of h1 with vertex b of h2.

    The result keeps h1's labels 1..k1 (the merged vertex is a) and h2's
    remaining vertices follow as k1+1, k1+2, ... in their original order,
    so joins are deterministic and fixtures stable.
    """
    if not (1 <= a <= h1.k):
        raise ValueError(f"vertex {a} not in 1..{h1.k}")
    if not (1 <= b <= h2.k):
        raise ValueError(f"vertex {b} not in 1..{h2.k}")
    relabel = {}
    nxt = h1.k + 1
    for v in range(1, h2.k + 1):
        if v == b:
            relabel[v] = a
        else:
            relabel[v] = nxt
            nxt += 1
    edges = set(h1.edges)
    edges.update(_norm_edge(relabel[u], relabel[v]) for u, v in h2.edges)
    return Motif(h1.k + h2.k - 1, frozenset(edges))


# -- common motifs and the literal format ------------------------------------

def clique(k: int) -> Motif:
    return Motif.from_edges(k, itertools.combinations(range(1, k + 1), 2))


def cycle(k: int) -> Motif:
    if k < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Motif.from_edges(k, [(i, i + 1) for i in range(1, k)] + [(1, k)])


def path(k: int) -> Motif:
    """Path on k vertices (k-1 edges)."""
    return Motif.from_edges(k, [(i, i + 1) for i in range(1, k)])


def star(leaves: int) -> Motif:
    """K_{1,leaves} with the center labeled 1."""
    return Motif.from_edges(leaves + 1, [(1, j) for j in range(2, leaves + 2)])


_EXPLICIT_RE = re.compile(r"^n=(\d+);edges=(.*)$")


def parse_motif(text: str) -> Motif:
    """Parse a motif literal: "k3", "c4", "p3", "k12", or "n=4;edges=1-2,2-3,...".

    "kN" is the N-clique, "cN" the N-cycle, "pN" the path on N vertices, and
    "k1M" the star K_{1,M}.  Parsed motifs respect the K_MAX cap.
    """
    s = text.strip().lower()
    mo = _EXPLICIT_RE.match(s)
    if mo:
        k = int(mo.group(1))
        edges = []
        body = mo.group(2).strip()
        if body:
            for tok in body.split(","):
                u, _, v = tok.strip().partition("-")
                edges.append((int(u), int(v)))
        result = Motif.from_edges(k, edges)
    else:
        mo = re.match(r"^k1(\d)$", s)
        if mo:
            result = star(int(mo.group(1)))
        elif (mo := re.match(r"^k(\d+)$", s)):
            result = clique(int(mo.group(1)))
        elif (mo := re.match(r"^c(\d+)$", s)):
            result = cycle(int(mo.group(1)))
        elif (mo := re.match(r"^p(\d+)$", s)):
            result = path(int(mo.group(1)))
        else:
            raise ValueError(f"unrecognized motif literal {text!r}")
    if result.k > K_MAX:
        raise MotifSizeError(f"motif {text!r} has {result.k} vertices, cap is {K_MAX}")
    return result


K2 = clique(2)
K3 = clique(3)
C4 = cycle(4)
K12 = star(2)
