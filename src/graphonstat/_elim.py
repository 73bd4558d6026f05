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
eliminated variable that appears in the most factors (pair factors, for an
integer list) and, for each of its values, restricts every other variable to
the nonzero support of the unary factors that the slice leaves on it.  The
restriction is exact for any factors, because a zero factor zeroes the whole
term.  Each slice is contracted the same way (down to matrix products,
slicing again if needed) and the slices are added up exactly.  For K4 on a
graph of density p, a slice is one matrix product of size about (pn)^3.
Apart from the result itself, whose axes are the `keep` variables, every
tensor is at most as large as the largest input factor or the product of two
domains, so there is no size cap.

A contraction is planned once (`_Plan`, `_SlicePlan`).  How to slice depends
on the factor structure alone, the elimination order and step dtypes on it
and the domain sizes, memoized by the tuple of restricted sizes: each slice
takes the order and dtype it would take alone, and each slice value only
gathers and multiplies.  A nested slice (a K5 slice leaves a K4) reuses its
plan.

An integer list sums a clique of interchangeable variables once.  The mates
of the slice variable s are the eliminated t that share a symmetric
zero-diagonal factor with s and whose swap with s maps the factor list onto
itself (a multiset of variables and array identities).  Any two of O = {s} +
mates then share a zero-diagonal factor, so in a nonzero term exactly one of
them is lowest in a fixed order of the domain, and the swaps make each one
lowest equally often.  So slice x cuts the mates to the values ranked above x
(by the row support of the shared factor, the degree for an adjacency, then
by index) and adds with weight |O|; among variables in equally many pair
factors, s is one with the most mates.  Symmetry and a zero diagonal are read
off each input array once; a restriction keeps them when both its axes share
a support.  A 0/1 unary factor is 1 on its variable's support and is dropped
where a pair factor remains there.  Float lists keep the plain slices, and so
every bit of their sums.

Integer sums are exact by one rule, `_exact_dtype(bound)`: a sum whose
entries are bounded by `bound` before it runs is taken in float32 (sgemm) up
to 2^24, in float64 (dgemm) up to 2^53, in int64 below 2^63, and in Python
ints (object arrays; by then these are small vectors) beyond; each float
type holds every integer up to its limit.  A contraction step bounds its
output by the product of its input entry bounds times the size of the
domain it sums over; a running total (`ExactSum`) by the summed bounds of
its parts; a reduction (`_exact_total`, the sum of an elementwise product)
by the sum of its term magnitudes.  float32 stays inside the steps: the
result of `contract`, `ExactSum` totals and `_exact_total` take
`_result_dtype`, whose lowest tier is float64.
"""

from __future__ import annotations

import functools
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
    touched = {v for vs, _ in factors for v in vs}
    factors += [((v,), np.ones(domains[v])) for v in domains if v not in touched]
    # Each distinct array is one node, converted once; slices and steps share it.
    arrays, bounds, node = [], [], {}
    for vs, arr in factors:
        if id(arr) not in node:
            node[id(arr)] = len(arrays)
            bounds.append(_max_abs(arr) if integer else None)
            arrays.append(_as_dtype(arr, _exact_dtype(bounds[-1])) if integer else arr)
    slots = [(vs, node[id(arr)], bounds[node[id(arr)]]) for vs, arr in factors]
    plan = _Plan(slots, tuple(domains), keep, _input_facts(arrays, bounds))
    out, bound = plan.run(arrays, tuple(domains.values()))
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


def _exact_total(bound: int, *operands) -> int:
    """Exact sum of the elementwise product of integer-valued arrays of one
    shape whose term magnitudes sum to at most `bound`: one einsum in
    `_result_dtype(bound)`, so every partial sum is an integer of at most
    `bound` and no product array is built."""
    dtype, axes = _result_dtype(bound), list(range(np.ndim(operands[0])))
    args = [a for x in operands for a in (_as_dtype(np.asarray(x), dtype), axes)]
    return int(np.einsum(*args, []))


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


class _Plan:
    """The contraction of one factor structure, planned once per size tuple.

    slots are (vars, node, bound), nodes indexing the value list; names are
    the variables in domain order; facts is `_input_facts` of the inputs.
    """

    def __init__(self, slots, names, keep, facts):
        self.slots, self.names, self.keep, self.facts = slots, names, keep, facts
        self.inputs = 1 + max((n for _, n, _ in slots), default=-1)
        self.schedules, self.slices = {}, {}

    def fact(self, n):
        return self.facts(n) if n < self.inputs else (False, False, False)   # a step output

    def run(self, vals, sizes):
        """(result indexed by keep, its bound); vals is appended to."""
        schedule = self.schedules.get(sizes)
        if schedule is None:
            schedule = self.schedules[sizes] = self._schedule(dict(zip(self.names, sizes)))
        steps, tail = schedule
        for step in steps:
            vals.append(_eliminate(vals, *step))
        return tail.run(vals, sizes) if isinstance(tail, _SlicePlan) else _product(vals, *tail)

    def _schedule(self, domains):
        """Eliminate the cheapest variable while one leaves <= 2 axes, then
        multiply out or slice: (steps, product recipe or slice plan)."""
        factors, steps = list(self.slots), []
        elim = [v for v in self.names if v not in self.keep]
        while elim:
            v = _cheapest(factors, domains, elim)
            if v is None:
                key = (tuple(factors), tuple(elim))
                if key not in self.slices:
                    self.slices[key] = _SlicePlan(factors, self, elim, self.inputs + len(steps))
                return steps, self.slices[key]
            elim.remove(v)
            group = [f for f in factors if v in f[0]]
            dtype, bound = _step_dtype(group, (domains[v],))
            pairs = {}
            for vs, n, _ in group:
                if len(vs) == 2:
                    pairs.setdefault(vs[1 - vs.index(v)], []).append((n, vs[0] != v))
            out_vars = tuple(sorted(pairs, key=str))
            steps.append((dtype, [[(n, False) for vs, n, _ in group if len(vs) == 1]] +
                          [pairs[u] for u in out_vars]))
            factors = [f for f in factors if v not in f[0]] + \
                [(out_vars, self.inputs + len(steps) - 1, bound)]
        dtype, bound = _step_dtype(factors, ())
        keep = self.keep
        return steps, (dtype, bound, [
            (n, sorted(range(len(vs)), key=lambda i: keep.index(vs[i])),
             [domains[u] if u in vs else 1 for u in keep]) for vs, n, _ in factors])


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


def _eliminate(vals, dtype, nodes):
    """Sum the product of a step's factors over its variable: one matrix product.

    nodes lists the step's unary factors, then the pair factors on each other
    variable, as (node, transposed); at most two others occur, so the sum is
    sum_v u_v M_vx N_vy, each factor first moved to the step's dtype.
    """
    def product(group):
        out = None
        for n, transposed in group:
            arr = vals[n] if dtype is None else _as_dtype(vals[n], dtype)
            arr = arr.T if transposed else arr
            out = arr if out is None else out * arr
        return out

    unary, *mats = map(product, nodes)
    if not mats:
        out = unary.sum()
    elif len(mats) == 1:
        out = mats[0].sum(axis=0) if unary is None else unary @ mats[0]
    else:
        left = mats[0] if unary is None else mats[0] * unary[:, None]
        out = left.T @ mats[1]
    return np.asarray(out)


def _product(vals, dtype, bound, recipe):
    """(product of the remaining nodes as a tensor indexed by keep, its bound);
    each keep variable has a factor."""
    out = None
    for n, order, shape in recipe:
        arr = (vals[n] if dtype is None else _as_dtype(vals[n], dtype)).transpose(order)
        out = arr.reshape(shape) if out is None else out * arr.reshape(shape)
    return np.ones(()) if out is None else np.asarray(out), bound


def _step_dtype(group, summed):
    """(dtype, bound) of an integer step, (None, None) for a float group: the
    product of the input bounds (at least 1 each) times the summed sizes."""
    if not group or group[0][2] is None:
        return None, None
    bound = math.prod(max(b, 1) for _, _, b in group) * math.prod(max(d, 1) for d in summed)
    return _exact_dtype(bound), bound


class _SlicePlan:
    """Slicing of one factor structure on one variable s, planned once (see
    the module docstring); each slice value only gathers and multiplies."""

    def __init__(self, factors, level, elim, width):
        keep, pos = level.keep, {u: i for i, u in enumerate(level.names)}
        self.integer = factors[0][2] is not None
        mates = {v: _mates(factors, v, elim, level.fact) for v in elim}
        s = min(elim, key=lambda v: (-sum(v in vs and len(vs) > self.integer for vs, _, _ in factors),
                                     -len(mates[v][0]), str(v)))   # (pair) factors, mates
        self.s, (self.mates, self.link) = pos[s], mates[s]
        takes, sliced = {}, []
        for vs, n, b in factors:
            if s in vs:
                axis = vs.index(s)
                sliced.append((vs[:axis] + vs[axis + 1:], takes.setdefault((n, axis), width + len(takes)), b))
        self.takes = list(takes)
        sliced = [f for f in factors if s not in f[0]] + sliced
        def fact(n):        # a slice is 0/1 if its array is
            return level.fact(n) if n < width else (False, False, level.fact(self.takes[n - width][0])[2])
        self.scalars = [n for vs, n, _ in sliced if not vs]
        unary = {u: tuple(n for ws, n, _ in sliced if ws == (u,)) for vs, _, _ in sliced
                 if len(vs) == 1 for u in vs}
        supports = {}       # variables whose unary nodes agree share a support
        support = {u: supports.setdefault(ns, len(supports)) for u, ns in unary.items()}
        self.supports, cuts = list(supports), {}
        for t in self.mates:    # one cut per support, shared by the mates
            support[t] = cuts.setdefault(support[t], len(supports) + len(cuts))
        self.cuts = list(cuts)
        paired = {u for vs, _, _ in sliced if len(vs) == 2 for u in vs}
        restricts, slots = {}, []
        for vs, n, b in sliced:
            if len(vs) == 1 and vs[0] in paired and fact(n)[2]:
                continue
            ks = tuple(support.get(u) for u in vs)
            slots.append((vs, restricts.setdefault((n, ks), len(restricts)), b))
        self.restricts = list(restricts)
        # a restriction keeps symmetry and a zero diagonal when both axes share a support
        facts = [fact(n) if len(ks) == 2 and ks[0] == ks[1] else (False, False, fact(n)[2])
                 for n, ks in self.restricts]
        sub_names = keep + tuple(v for v in elim if v != s)
        self.sub_sizes = [(support.get(u), pos[u]) for u in sub_names]
        self.keep_sizes = [(support.get(u), pos[u]) for u in keep]
        self.sub = _Plan(slots, sub_names, keep, facts.__getitem__)

    def run(self, vals, sizes):
        """(sum of the slices indexed by keep, its bound or None for floats)."""
        total = ExactSum(tuple(sizes[i] for _, i in self.keep_sizes))  # real parts: float64
        if self.mates:
            degree = np.count_nonzero(vals[self.link], axis=1)
            rank = np.argsort(np.argsort(degree, kind="stable"))   # ties by index
        weight, sub_run = len(self.mates) + 1, self.sub.run
        for x in range(sizes[self.s]):
            cur = vals + [vals[n][x, ...] if axis == 0 else vals[n][:, x] for n, axis in self.takes]
            if self.scalars and any(cur[n] == 0 for n in self.scalars):
                continue        # a zero factor zeroes every term of this slice
            sup = [(cur[ns[0]] if len(ns) == 1 else
                    np.logical_and.reduce([cur[n] != 0 for n in ns])).nonzero()[0]
                   for ns in self.supports]
            sup += [sup[k][rank[sup[k]] > rank[x]] for k in self.cuts]
            if not all([idx.size for idx in sup]):
                continue        # an empty support (or its cut) empties the slice
            sub = []
            for n, ks in self.restricts:
                arr = cur[n]
                for axis, k in enumerate(ks):
                    if k is not None and sup[k].size < arr.shape[axis]:
                        arr = arr.take(sup[k], axis=axis)
                sub.append(arr)
            part, bound = sub_run(sub, tuple([sizes[i] if k is None else sup[k].size
                                              for k, i in self.sub_sizes]))
            cut = [k is not None and sup[k].size < sizes[i] for k, i in self.keep_sizes]
            index = np.ix_(*[sup[k] if c else np.arange(sizes[i]) for (k, i), c in
                             zip(self.keep_sizes, cut)]) if any(cut) else ...
            total.add(part, bound or 0, weight, index)
        return total.value, total.bound if self.integer else None


def _input_facts(arrays, bounds):
    """node -> (symmetric, zero diagonal, 0/1) of an input array of an
    integer list, checked when first asked; all False in a float list."""
    @functools.cache
    def facts(n):
        a, square = arrays[n], arrays[n].ndim == 2 and arrays[n].shape[0] == arrays[n].shape[1]
        return (square and np.array_equal(a, a.T), square and not a.diagonal().any(),
                bounds[n] == 1 and a.min() >= 0) if bounds[n] is not None else (False,) * 3
    return facts


def _mates(factors, s, elim, fact):
    """(mates of s, node of the factor whose row supports rank the domain) as
    the module docstring defines them, or ((), None)."""
    def key(vs, n):         # a symmetric pair factor has unordered variables
        return frozenset(vs) if len(vs) == 2 and fact(n)[0] else vs, n

    links = {}
    for vs, n, _ in factors:
        if s in vs and len(vs) == 2 and vs[0] in elim and vs[1] in elim and \
                fact(n)[0] and fact(n)[1]:
            links.setdefault(vs[1 - vs.index(s)], n)
    if not links:
        return (), None
    base = Counter(key(vs, n) for vs, n, _ in factors)
    mates = [t for t in links if base == Counter(
        key(tuple({s: t, t: s}.get(u, u) for u in vs), n) for vs, n, _ in factors)]
    return (mates, links[mates[0]]) if mates else ((), None)
