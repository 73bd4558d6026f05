"""Independent brute-force oracles used to pin expected test values.

Nothing here but the join-sum formulas shares code with the package's counting
or density engines: copies are counted by enumerating vertex subsets and their
spanning edge subsets, injective maps or ordered backtracking, canonical keys
by trying every vertex permutation, Moebius expansions by enumerating every set
partition, and densities are integrated by plain Riemann sums over vertex
assignments.

The join-sum formulas (`join_gamma`, `join_sigma`, `join_eta_regular`) write
the population covariances as sums of densities of vertex joins and weak or
strong edge joins (`edge_join`), where the package reads them on the nodes of
its limit law.  They integrate each join with `graphonstat.hom_density`, once
per `canonical_key`: the formula is the independent part, not the engine.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from functools import lru_cache

import numpy as np

from graphonstat import Graph, Motif, MultiMotif, hom_density, vertex_join


def canonical_multigraph_key(k: int, edges: tuple, colours: tuple | None = None) -> tuple:
    """Smallest relabeled ((u, v), multiplicity) list over all k! relabelings,
    paired with the relabeled colour vector (colours[v - 1] is the colour of
    vertex v) when colours are given; tiny graphs only."""
    best = None
    for p in itertools.permutations(range(1, k + 1)):
        cand = tuple(sorted(((p[u - 1], p[v - 1]) if p[u - 1] < p[v - 1]
                             else (p[v - 1], p[u - 1]), m) for (u, v), m in edges))
        if colours is not None:
            recoloured = [None] * k
            for v, c in enumerate(colours, 1):
                recoloured[p[v - 1] - 1] = c
            cand = (tuple(recoloured), cand)
        if best is None or cand < best:
            best = cand
    return (k, best)


def canonical_edge_key(k: int, edges: tuple) -> tuple:
    """`canonical_multigraph_key` of a simple graph given as (u, v) pairs."""
    return canonical_multigraph_key(k, tuple((e, 1) for e in edges))


def brute_pin_orbits(h: Motif, size: int) -> list[list[tuple[int, ...]]]:
    """Orbits of sorted vertex tuples of length size under every edge-preserving
    vertex permutation of h; members sorted, orbits by first member."""
    auts = [p for p in itertools.permutations(range(1, h.k + 1))
            if all(tuple(sorted((p[u - 1], p[v - 1]))) in h.edges for u, v in h.edges)]
    orbits, seen = [], set()
    for pins in itertools.combinations(range(1, h.k + 1), size):
        if pins not in seen:
            orbit = sorted({tuple(sorted(p[v - 1] for v in pins)) for p in auts})
            seen.update(orbit)
            orbits.append(orbit)
    return orbits


def _set_partitions(items: tuple[int, ...]):
    """All set partitions of items, as lists of tuples."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + (first,)] + part[i + 1:]
        yield part + [(first,)]


def _mobius(blocks) -> int:
    """Moebius weight of a partition over the finest one: prod (-1)^(|b|-1) (|b|-1)!."""
    return math.prod((-1) ** (len(b) - 1) * math.factorial(len(b) - 1) for b in blocks)


@lru_cache(maxsize=None)
def quotient_class_key(k: int, edges: tuple, pin_blocks: tuple) -> tuple:
    """`canonical_multigraph_key` of a quotient on blocks 0..k-1 whose block
    pin_blocks[i] carries colour i (the others colour -1)."""
    colours = [-1] * k
    for i, b in enumerate(pin_blocks):
        colours[b] = i
    return canonical_multigraph_key(k, tuple(((a + 1, b + 1), 1) for a, b in edges),
                                    tuple(colours))


def reference_spasm(h: Motif, pins: tuple[int, ...] = ()) -> dict:
    """Moebius expansion of h from every set partition of its vertices.

    Partitions whose quotient has a loop or holds two pins in one block are
    dropped; the others are keyed by `quotient_class_key` and their weights
    summed.  Only classes with a nonzero sum are returned.
    """
    weights: Counter = Counter()
    for blocks in _set_partitions(tuple(range(1, h.k + 1))):
        rep = {v: i for i, b in enumerate(blocks) for v in b}
        edges = {tuple(sorted((rep[u], rep[v]))) for u, v in h.edges}
        pin_blocks = tuple(rep[p] for p in pins)
        if any(a == b for a, b in edges) or len(set(pin_blocks)) < len(pins):
            continue
        weights[quotient_class_key(len(blocks), tuple(sorted(edges)), pin_blocks)] += \
            _mobius(blocks)
    return {key: w for key, w in weights.items() if w}


def subset_copy_census(g: Graph, max_k: int = 4) -> Counter:
    """Copies of every motif with <= max_k vertices, keyed by canonical form.

    For each vertex subset S and each edge subset of the induced graph on S,
    the pair (|S|, edges) is one copy of the corresponding motif.
    """
    census: Counter = Counter()
    cache: dict = {}
    for k in range(2, max_k + 1):
        for subset in itertools.combinations(range(g.n), k):
            present = [(i + 1, j + 1)
                       for i, j in itertools.combinations(range(k), 2)
                       if g.adj[subset[i], subset[j]]]
            for r in range(len(present) + 1):
                for chosen in itertools.combinations(present, r):
                    if (k, chosen) not in cache:
                        cache[(k, chosen)] = canonical_edge_key(k, chosen)
                    census[cache[(k, chosen)]] += 1
    return census


def oracle_copies(h: Motif, g: Graph) -> int:
    """Copies of h in g by subset enumeration (independent of the package)."""
    target = canonical_edge_key(h.k, tuple(sorted(h.edges)))
    return subset_copy_census(g, max_k=h.k)[target]


def all_motifs_up_to(k_max: int):
    """All motifs with 2..k_max vertices and at least one edge, up to isomorphism.

    Isolated vertices are allowed, so this is a superset of the 11 classical
    4-vertex graphs with an edge.  Deleting a vertex from a k-vertex graph
    leaves a (k-1)-vertex graph, so adding a vertex k with every possible
    neighbour set to one graph of each (k-1)-vertex class reaches every
    k-vertex class; `canonical_edge_key` removes the repeats.
    """
    found = []
    level = [()]                      # one edge list per class on k - 1 vertices
    for k in range(2, k_max + 1):
        seen = {}
        for edges in level:
            for r in range(k):
                for nbrs in itertools.combinations(range(1, k), r):
                    cand = edges + tuple((u, k) for u in nbrs)
                    seen.setdefault(canonical_edge_key(k, cand), cand)
        level = list(seen.values())
        found.extend(Motif.from_edges(k, edges) for edges in level if edges)
    return found


def riemann_density(h, weights_fn, m: int = 40) -> float:
    """t(h, W) by a plain midpoint Riemann sum over all vertex assignments.

    Exponential in |V(h)|; only for small motifs as an independent check.
    """
    from graphonstat.motifs import as_multimotif
    mm = as_multimotif(h)
    grid = (np.arange(m) + 0.5) / m
    total = 0.0
    for assign in itertools.product(range(m), repeat=mm.k):
        prod = 1.0
        for (u, v), mult in mm.edges:
            prod *= weights_fn(grid[assign[u - 1]], grid[assign[v - 1]]) ** mult
        total += prod
    return total / m ** mm.k


def pinned_pair_counts(h: Motif, g: Graph) -> np.ndarray:
    """sum over ordered vertex pairs a != b of h of X_{a,b}(u, v, h, g).

    Entry (u, v) counts the injective homomorphisms of h into g with a -> u
    and b -> v, found by trying every injective vertex map; n <= 9 only.
    """
    if g.n > 9:
        raise ValueError(f"brute force over injective maps needs n <= 9, got {g.n}")
    total = np.zeros((g.n, g.n), dtype=np.int64)
    for phi in itertools.permutations(range(g.n), h.k):
        if all(g.adj[phi[u - 1], phi[v - 1]] for u, v in h.edges):
            for a, b in itertools.permutations(phi, 2):
                total[a, b] += 1
    return total


def _backtrack_order(h: Motif, pinned: tuple[int, ...]) -> list[int]:
    """Vertex order: pinned first, then greedily maximizing placed neighbors."""
    order = list(pinned)
    rest = [v for v in range(1, h.k + 1) if v not in order]
    while rest:
        best = max(rest, key=lambda v: (sum(1 for u in h.neighbors(v) if u in order),
                                        len(h.neighbors(v)), -v))
        order.append(best)
        rest.remove(best)
    return order


def _backtrack_count(h: Motif, g: Graph, assignment: dict[int, int]) -> int:
    """Injective homomorphisms of h into g extending the partial assignment,
    by ordered backtracking with adjacency pruning."""
    nbrs = [frozenset(np.flatnonzero(row)) for row in g.adj]
    order = _backtrack_order(h, tuple(assignment))
    for a, v in assignment.items():
        for b in h.neighbors(a):
            if b in assignment and assignment[b] not in nbrs[v]:
                return 0
    used = set(assignment.values())
    if len(used) < len(assignment):
        return 0

    def extend(idx: int) -> int:
        if idx == len(order):
            return 1
        a = order[idx]
        placed = [b for b in h.neighbors(a) if b in assignment]
        if placed:
            cands = set(nbrs[assignment[placed[0]]])
            for b in placed[1:]:
                cands &= nbrs[assignment[b]]
            cands -= used
        else:
            cands = set(range(g.n)) - used
        total = 0
        for v in sorted(cands):
            assignment[a] = v
            used.add(v)
            total += extend(idx + 1)
            used.remove(v)
            del assignment[a]
        return total

    return extend(len(assignment))


# -- join-sum formulas for the population covariances -------------------------

def edge_join(h1: Motif, pair1: tuple, h2: Motif, pair2: tuple,
              mode: str, strict: bool = True) -> MultiMotif:
    """Identify pair1 of h1 with pair2 of h2 (first with first, second with second).

    mode="weak" keeps a single edge between the identified vertices; "strong"
    keeps both.  With strict=True both pairs must be ordered edges (members of
    E+); strict=False extends the operation to arbitrary ordered vertex pairs,
    where the merged pair simply carries however many edges the operands
    contribute (so weak and strong coincide when either pair is a non-edge).
    """
    if mode not in ("weak", "strong"):
        raise ValueError(f"mode must be 'weak' or 'strong', got {mode!r}")
    a, b = pair1
    c, d = pair2
    for (u, v, h) in ((a, b, h1), (c, d, h2)):
        if u == v or not (1 <= u <= h.k) or not (1 <= v <= h.k):
            raise ValueError(f"pair {(u, v)} is not a pair of distinct vertices of {h!r}")
    if strict:
        if not h1.has_edge(a, b):
            raise ValueError(f"pair {pair1} is not an edge of {h1!r}")
        if not h2.has_edge(c, d):
            raise ValueError(f"pair {pair2} is not an edge of {h2!r}")
    relabel = {c: a, d: b}
    nxt = h1.k + 1
    for v in range(1, h2.k + 1):
        if v not in (c, d):
            relabel[v] = nxt
            nxt += 1
    mult = {e: 1 for e in h1.edges}
    for u, v in h2.edges:
        e = tuple(sorted((relabel[u], relabel[v])))
        mult[e] = mult.get(e, 0) + 1
    if mode == "weak":
        merged = tuple(sorted((a, b)))
        if merged in mult:
            mult[merged] = 1
    return MultiMotif.from_multiplicities(h1.k + h2.k - 2, mult)


def _join_matrix(motifs, w, entry) -> np.ndarray:
    """The symmetric matrix of entry(H_i, H_j, density) over the motifs, with
    density(join) = t(join, w) integrated once per canonical key."""
    cache: dict = {}

    def density(join):
        key = join.canonical_key()
        if key not in cache:
            cache[key] = hom_density(join, w)
        return cache[key]

    out = np.zeros((len(motifs), len(motifs)))
    for i, hi in enumerate(motifs):
        for j in range(i, len(motifs)):
            out[i, j] = out[j, i] = entry(hi, motifs[j], density)
    return out


def join_gamma(motifs, w) -> np.ndarray:
    """gamma_ij = (1/(|Aut_i||Aut_j|)) [sum_{a,b} t(H_i (+)_{a,b} H_j, w)
    - |V_i||V_j| t(H_i,w) t(H_j,w)], from the vertex joins; R(H_i, w) is
    |Aut_i|^2 gamma_ii."""
    dens = {h: hom_density(h, w) for h in motifs}

    def entry(hi, hj, density):
        s = sum(density(vertex_join(hi, a, hj, b))
                for a, b in itertools.product(range(1, hi.k + 1), range(1, hj.k + 1)))
        return (s - hi.k * hj.k * dens[hi] * dens[hj]) / (hi.aut * hj.aut)

    return _join_matrix(motifs, w, entry)


def join_sigma(motifs, w) -> np.ndarray:
    """sigma_ij = (1/(2|Aut_i||Aut_j|)) sum over ordered edges (a,b) of H_i and
    (c,d) of H_j of [t(weak join) - t(strong join)]."""
    def entry(hi, hj, density):
        s = sum(density(edge_join(hi, pa, hj, pb, "weak"))
                - density(edge_join(hi, pa, hj, pb, "strong"))
                for pa, pb in itertools.product(hi.ordered_edges(), hj.ordered_edges()))
        return s / (2 * hi.aut * hj.aut)

    return _join_matrix(motifs, w, entry)


def join_eta_regular(motifs, w, alpha) -> float:
    """Variance eta~ of sum_i alpha_i Z_i over regular motifs: the weak
    non-strict edge joins over all ordered vertex pairs, less 2 (sum_i alpha_i d_i)^2
    with d_i = |V_i|(|V_i|-1) t(H_i,w)/(2|Aut_i|) the degree of W_{H_i}."""
    def entry(hi, hj, density):
        s = sum(density(edge_join(hi, pa, hj, pb, "weak", strict=False))
                for pa, pb in itertools.product(itertools.permutations(range(1, hi.k + 1), 2),
                                                itertools.permutations(range(1, hj.k + 1), 2)))
        return s / (2 * hi.aut * hj.aut)

    alpha = np.asarray(alpha, dtype=float)
    degrees = np.array([h.k * (h.k - 1) * hom_density(h, w) / (2 * h.aut) for h in motifs])
    return float(alpha @ _join_matrix(motifs, w, entry) @ alpha - 2 * (alpha @ degrees) ** 2)
