"""Sum-product contraction over factor lists (variable elimination).

Homomorphism sums over small template graphs are products of edge factors
summed over all vertex assignments.  Eliminating one vertex at a time keeps
the cost at B^(treewidth+1) instead of B^k, which is what makes exact block
densities and large-n homomorphism counts feasible.  The same engine serves
float-weighted graphon sums and exact integer counting.

No step builds a tensor with three or more free axes.  The engine eliminates
the variable whose merged factor is smallest among those that leave at most
two axes.  When every remaining elimination would leave three or more (a
treewidth-3 pattern such as K4), it slices instead: it conditions on the
eliminated variable that appears in the most factors and, for each of its
values, restricts every other variable to the nonzero support of the unary
factors that the slice leaves on it.  The restriction is exact for any
factors, because a zero factor zeroes the whole term.  Each slice is
contracted the same way (down to matrix products, slicing again if needed)
and the slices are added up exactly.  For K4 on a graph of density p, a slice
is one matrix product of size about (pn)^3.  Apart from the result itself,
whose axes are the `keep` variables, every tensor is at most as large as the
largest input factor or the product of two domains, so there is no size cap.

An integer list sums a clique of interchangeable variables once.  The mates
of the slice variable s are the eliminated t that share a symmetric
zero-diagonal factor with s and whose swap with s maps the factor list onto
itself (a multiset of variables and array identities).  Any two of O = {s} +
mates then share a zero-diagonal factor, so in a nonzero term exactly one of
them is lowest in a fixed order of the domain, and the swaps make each one
lowest equally often.  So slice x cuts the mates to the values ranked above x
(by the row support of the shared factor, the degree for an adjacency, then
by index) and adds with weight |O|; a K5 slice leaves a K4, sliced again.
Float lists keep the plain slices, and so every bit of their sums.

Integer sums are exact by one rule, `_exact_dtype(bound)`: a sum whose
entries are bounded by `bound` before it runs is taken in float32 (sgemm) up
to 2^24, in float64 (dgemm) up to 2^53, in int64 below 2^63, and in Python
ints (object arrays; by then these are small vectors) beyond; each float
type holds every integer up to its limit.  A contraction step bounds its
output by the product of its input entry bounds times the size of the
domain it sums over; a running total (`ExactSum`) by the summed bounds of
its parts; a reduction of an array (`_exact_total`) by the sum of its entry
magnitudes.  float32 stays inside the steps: the result of `contract`,
`ExactSum` totals and `_exact_total` take `_result_dtype`, whose lowest tier
is float64.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np

_FLOAT32_EXACT = 2 ** 24   # float32 holds every integer up to here
_FLOAT_EXACT = 2 ** 53     # float64 holds every integer up to here
_INT64_END = 2 ** 63       # int64 holds every integer below here


def contract(factors, domains, keep=()):
    """Sum the product of factors over every variable not listed in `keep`.

    factors: iterable of (vars, array) with at most two distinct vars and
    array.shape matching their domain sizes; domains: dict var -> domain
    size; keep: ordered variables of the result.  Returns an ndarray indexed
    by `keep` (0-d if empty).  When every array has an integer dtype the sum
    is exact, in the dtype `_result_dtype` gives its bound: float64 holding
    integers, int64, or an object array of Python ints.
    """
    factors = [(tuple(vs), np.asarray(arr)) for vs, arr in factors]
    keep = tuple(keep)
    for vs, arr in factors:
        if len(vs) > 2 or len(set(vs)) < len(vs):
            raise ValueError(f"factor on {vs}: factors take at most two distinct variables")
        if arr.shape != tuple(domains[v] for v in vs):
            raise ValueError(f"factor on {vs} has shape {arr.shape}, "
                             f"expected {tuple(domains[v] for v in vs)}")
    integer = bool(factors) and all(np.issubdtype(a.dtype, np.integer) for _, a in factors)
    if integer:
        # Convert each distinct array once; slices and steps then share it.
        converted = {}
        for vs, arr in factors:
            if id(arr) not in converted:
                bound = _max_abs(arr)
                converted[id(arr)] = (_as_dtype(arr, _exact_dtype(bound)), bound)
        items = [(vs, *converted[id(arr)]) for vs, arr in factors]
    else:
        items = [(vs, arr, None) for vs, arr in factors]
    touched = {v for vs, _ in factors for v in vs}
    for v in domains:
        if v not in touched:
            items.append(((v,), np.ones(domains[v]), 1 if integer else None))
    _, out, bound = _contract(items, domains, keep)
    return out if bound is None else _as_dtype(out, _result_dtype(bound))


class ExactSum:
    """Running exact sum of integer arrays of one shape.

    The total is held in `_result_dtype` of the summed bounds of its parts,
    moved there before each part is added: every intermediate total is an
    integer no larger than that bound.  Parts may arrive as floats holding
    exact integers, int64 or object.
    """

    def __init__(self, shape):
        self.value = np.zeros(shape)
        self.bound = 0

    def add(self, part, bound: int, weight: int = 1, index=...):
        """Add weight * part (entries at most `bound` in magnitude) at `index`."""
        self.bound += abs(weight) * bound
        self.value = _as_dtype(self.value, _result_dtype(self.bound))
        self.value[index] += weight * _as_dtype(np.asarray(part), self.value.dtype)


def _exact_total(x, bound: int) -> int:
    """Exact sum of an integer-valued array whose entry magnitudes sum to at
    most `bound`; every partial sum is then an integer of at most `bound`."""
    return int(_as_dtype(x, _result_dtype(bound)).sum())


def _max_abs(arr) -> int:
    """Largest entry magnitude of an integer-valued array, as a Python int."""
    if arr.size == 0:
        return 0
    return max(int(arr.max()), -int(arr.min()))


def _exact_dtype(bound: int):
    """Cheapest dtype holding integers up to `bound` exactly; floats get BLAS."""
    return np.dtype(np.float32) if bound <= _FLOAT32_EXACT else _result_dtype(bound)


def _result_dtype(bound: int):
    """`_exact_dtype` with float64 as its lowest tier: the dtype of what leaves `_elim`."""
    if bound <= _FLOAT_EXACT:
        return np.dtype(np.float64)
    if bound < _INT64_END:
        return np.dtype(np.int64)
    return np.dtype(object)


def _as_dtype(arr, dtype):
    """Integer-valued arr in dtype; object arrays hold Python ints, never floats."""
    if arr.dtype == dtype:
        return arr
    if dtype == object and arr.dtype.kind == "f":
        arr = arr.astype(np.int64)
    return arr.astype(dtype)


def _contract(factors, domains, keep):
    """Eliminate every non-keep variable; factors are (vars, array, bound).

    bound is the entry bound of an integer list and None for float lists.
    Returns one factor (keep, array, bound).
    """
    elim = [v for v in domains if v not in keep]
    while elim:
        v = _cheapest(factors, domains, elim)
        if v is None:
            return _sliced(factors, domains, keep, elim)
        elim.remove(v)
        group = [f for f in factors if v in f[0]]
        factors = [f for f in factors if v not in f[0]] + [_eliminate(group, v, domains)]
    return _product(factors, keep, domains)


def _cheapest(factors, domains, elim):
    """The variable whose elimination leaves the smallest tensor of <= 2 axes."""
    best_v, best_cost = None, None
    for v in elim:
        merged = set()
        for vs, _, _ in factors:
            if v in vs:
                merged.update(vs)
        merged.discard(v)
        if len(merged) > 2:
            continue
        cost = math.prod(domains[u] for u in merged)
        if best_cost is None or cost < best_cost or \
                (cost == best_cost and str(v) < str(best_v)):
            best_v, best_cost = v, cost
    return best_v


def _eliminate(group, v, domains):
    """Sum the product of the factors on v over v: one matrix product.

    Every factor of the group holds v and at most one other variable, and
    at most two other variables occur in all, so the sum is sum_v u_v M_vx
    N_vy with u the unary factors and M, N the pairwise factors multiplied
    together.
    """
    group, bound = _step_dtype(group, (domains[v],))
    unary, pairs = None, {}
    for vs, arr, _ in group:
        if len(vs) == 1:
            unary = arr if unary is None else unary * arr
            continue
        u, m = (vs[1], arr) if vs[0] == v else (vs[0], arr.T)
        pairs[u] = m * pairs[u] if u in pairs else m
    out_vars = tuple(sorted(pairs, key=str))
    mats = [pairs[u] for u in out_vars]
    if not mats:
        out = unary.sum()
    elif len(mats) == 1:
        out = mats[0].sum(axis=0) if unary is None else unary @ mats[0]
    else:
        left = mats[0] if unary is None else mats[0] * unary[:, None]
        out = left.T @ mats[1]
    return out_vars, np.asarray(out), bound


def _product(factors, keep, domains):
    """Product of factors as a tensor indexed by keep; each keep variable has a factor."""
    factors, bound = _step_dtype(factors, ())
    out = None
    for vs, arr, _ in factors:
        order = sorted(range(len(vs)), key=lambda i: keep.index(vs[i]))
        arr = arr.transpose(order).reshape([domains[u] if u in vs else 1 for u in keep])
        out = arr if out is None else out * arr
    return keep, np.ones(()) if out is None else np.asarray(out), bound


def _step_dtype(group, summed):
    """Convert an integer group to the dtype its output bound allows.

    The bound is the product of the input bounds (at least 1 each) times the
    sizes of the summed domains; float groups pass through unchanged.
    """
    if not group or group[0][2] is None:
        return group, None
    bound = math.prod(max(b, 1) for _, _, b in group) * math.prod(max(d, 1) for d in summed)
    dtype = _exact_dtype(bound)
    return [(vs, _as_dtype(arr, dtype), b) for vs, arr, b in group], bound


def _sliced(factors, domains, keep, elim):
    """Condition on the eliminated variable in the most factors; sum the slices."""
    s = min(elim, key=lambda v: (-sum(v in f[0] for f in factors), str(v)))
    on_s = [f for f in factors if s in f[0]]
    rest = [f for f in factors if s not in f[0]]
    integer = factors[0][2] is not None
    mates, rank = _mates(factors, s, elim) if integer else ((), None)
    total = ExactSum(tuple(domains[u] for u in keep))  # real parts add bound 0: float64
    for x in range(domains[s]):
        # Factors that share an array share its slices and restrictions.
        memo = {}
        sliced = list(rest)
        for vs, arr, b in on_s:
            axis = vs.index(s)
            key = ("take", id(arr), axis)
            if key not in memo:
                memo[key] = arr[(slice(None),) * axis + (x, ...)]
            sliced.append((vs[:axis] + vs[axis + 1:], memo[key], b))
        unary = {}
        for vs, arr, _ in sliced:
            if len(vs) == 1:
                unary.setdefault(vs[0], []).append(arr)
        support = {}
        for u, arrs in unary.items():
            key = ("support",) + tuple(map(id, arrs))
            if key not in memo:
                memo[key] = np.flatnonzero(np.logical_and.reduce([a != 0 for a in arrs]))
            support[u] = memo[key]
        for t in mates:     # one cut support per slice value, shared by the mates
            key = ("above", id(support[t]))
            if key not in memo:
                memo[key] = support[t][rank[support[t]] > rank[x]]
            support[t] = memo[key]
        if any(idx.size == 0 for idx in support.values()) or \
                any(vs == () and arr == 0 for vs, arr, _ in sliced):
            continue        # a zero factor zeroes every term of this slice
        support = {u: idx for u, idx in support.items() if idx.size < domains[u]}
        restricted = []
        for vs, arr, b in sliced:
            key = ("restrict", id(arr)) + tuple(id(support.get(u)) for u in vs)
            if key not in memo:
                memo[key] = _restrict(arr, vs, support)
            restricted.append((vs, memo[key], b))
        sub_domains = {u: support[u].size if u in support else domains[u]
                       for u in keep + tuple(elim) if u != s}
        _, part, bound = _contract(restricted, sub_domains, keep)
        total.add(part, bound if integer else 0, weight=len(mates) + 1,
                  index=_restrict_index(keep, domains, support))
    return keep, total.value, total.bound if integer else None


def _mates(factors, s, elim):
    """(mates of s, rank of its domain) as the module docstring defines them,
    or ((), None)."""
    symmetric = {}

    def key(vs, arr):       # a symmetric pair factor has unordered variables
        if len(vs) == 2 and id(arr) not in symmetric:
            symmetric[id(arr)] = arr.shape[0] == arr.shape[1] and np.array_equal(arr, arr.T)
        return frozenset(vs) if len(vs) == 2 and symmetric[id(arr)] else vs, id(arr)

    links = {}
    for vs, arr, _ in factors:
        if s in vs and len(vs) == 2 and vs[0] in elim and vs[1] in elim and \
                isinstance(key(vs, arr)[0], frozenset) and not arr.diagonal().any():
            links.setdefault(vs[1 - vs.index(s)], arr)
    if not links:
        return (), None
    base = Counter(key(vs, arr) for vs, arr, _ in factors)
    mates = [t for t in links if base == Counter(
        key(tuple({s: t, t: s}.get(u, u) for u in vs), arr) for vs, arr, _ in factors)]
    if not mates:
        return (), None
    degree = np.count_nonzero(links[mates[0]], axis=1)
    return mates, np.argsort(np.argsort(degree, kind="stable"))    # ties by index


def _restrict(arr, vs, support):
    """arr cut down to the support of each of its variables that has one."""
    for axis, u in enumerate(vs):
        if u in support:
            arr = arr.take(support[u], axis=axis)
    return arr


def _restrict_index(vs, domains, support):
    """Index selecting the supports of vs (all of an axis without a support)."""
    if not any(u in support for u in vs):
        return ...
    return np.ix_(*(support[u] if u in support else np.arange(domains[u]) for u in vs))
