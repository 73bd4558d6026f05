"""Span and counter collector that wraps graphonstat's public functions from outside.

The library itself carries no tracing.  `instrument` replaces every public
function of the layer modules (and the `Motif.aut` / `canonical_key` methods)
with a wrapper that records a span: name, start, end, parent span and the id
of the root operation it belongs to.  The wrapper is installed wherever the
original function object is bound in a graphonstat module, so calls made
through `from .x import f` names are seen as well.  Spans stay in memory;
`layer_metrics` turns them into per-layer self times, inclusive times and
call counts.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field

import numpy as np

# Layer modules in the order they are reported.
LAYERS = ("cli", "graphon", "counting", "_elim", "motifs", "bootstrap", "limitlaw",
          "inference")


@dataclass
class Span:
    id: int
    parent: int | None
    root: int                 # id of the outermost span of the same call tree
    name: str                 # "<layer>.<function>"
    start: float
    end: float = 0.0
    tag: str | None = None    # dtype, branch or motif class, set by a tagger
    size: int = 0             # entries or draws, set by a tagger
    children_s: float = 0.0

    @property
    def layer(self) -> str | None:
        head = self.name.split(".", 1)[0]
        return head if head in LAYERS else None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


@dataclass
class Collector:
    spans: list[Span] = field(default_factory=list)
    _stack: list[Span] = field(default_factory=list)

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent.id if parent else None,
                    parent.root if parent else len(self.spans), name,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if self._stack:
            self._stack[-1].children_s += span.duration

    def wrap(self, name: str, fn, tagger=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tagger is not None:
                args, kwargs, tag, size = tagger(args, kwargs)
            span = self.open(name)
            if tagger is not None:
                span.tag, span.size = tag, size
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        return traced


# -- taggers: classify a call from its arguments ------------------------------

def _tag_contract(args, kwargs):
    given = args[0] if args else kwargs["factors"]
    factors = [(vs, np.asarray(arr)) for vs, arr in given]
    if args:
        args = (factors,) + tuple(args[1:])
    else:
        kwargs = dict(kwargs, factors=factors)
    integer = bool(factors) and all(np.issubdtype(a.dtype, np.integer) for _, a in factors)
    entries = max((a.size for _, a in factors), default=0)
    return args, kwargs, "int64" if integer else "float64", entries


def _motif_tag(h) -> str:
    from graphonstat.motifs import C4, K2, K3
    for name, ref in (("k2", K2), ("k3", K3), ("c4", C4)):
        if h == ref:
            return name
    return "other"


def _tag_regularity_r(args, kwargs):
    h = args[0] if args else kwargs["h"]
    return args, kwargs, _motif_tag(h), 0


def _tag_multiplier_draws(args, kwargs):
    branches = args[2] if len(args) > 2 else kwargs["branches"]
    kinds = {branches} if isinstance(branches, str) else set(branches)
    return args, kwargs, kinds.pop() if len(kinds) == 1 else "mixed", 0


def _tag_sample_limit(args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    draws = args[1] if len(args) > 1 else kwargs["draws"]
    kind = "regular" if all(spec.regular) else "gaussian" if not any(spec.regular) \
        else "mixed"
    return args, kwargs, kind, int(draws)


TAGGERS = {
    "_elim.contract": _tag_contract,
    "counting.regularity_R_empirical": _tag_regularity_r,
    "bootstrap.multiplier_draws": _tag_multiplier_draws,
    "limitlaw.sample_limit": _tag_sample_limit,
}


def instrument(collector: Collector):
    """Wrap the public functions of every layer; returns a function that undoes it."""
    modules = {layer: importlib.import_module(f"graphonstat.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, mod in modules.items():
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj) \
                    or obj.__module__ != mod.__name__:
                continue
            qual = f"{layer}.{name}"
            wrappers[id(obj)] = (obj, collector.wrap(qual, obj, TAGGERS.get(qual)))

    undo = []
    for modname, mod in list(sys.modules.items()):
        if modname != "graphonstat" and not modname.startswith("graphonstat."):
            continue
        for name, obj in list(vars(mod).items()):
            if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                setattr(mod, name, wrappers[id(obj)][1])
                undo.append((mod, name, obj))

    motifs = modules["motifs"]
    for cls in (motifs.Motif, motifs.MultiMotif):
        orig = cls.__dict__["canonical_key"]
        cls.canonical_key = collector.wrap("motifs.canonical_key", orig)
        undo.append((cls, "canonical_key", orig))
    aut = motifs.Motif.__dict__["aut"]
    motifs.Motif.aut = property(collector.wrap("motifs.aut", aut.fget))
    undo.append((motifs.Motif, "aut", aut))

    def restore():
        for owner, name, obj in reversed(undo):
            setattr(owner, name, obj)

    return restore


# -- reduction -----------------------------------------------------------------

def _outermost(spans: list[Span], name: str) -> list[Span]:
    """Spans called `name` with no ancestor of the same name (no double counting)."""
    by_id = {s.id: s for s in spans}
    out = []
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p is not None and by_id[p].name != name:
            p = by_id[p].parent
        if p is None:
            out.append(s)
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer numbers of the traced run, keyed by metric name."""
    def incl(name, tag=None):
        return sum(s.duration for s in _outermost(spans, name)
                   if tag is None or s.tag == tag)

    def calls(name, tag=None):
        return sum(1 for s in spans if s.name == name and (tag is None or s.tag == tag))

    def self_of(name):
        return sum(s.self_s for s in spans if s.name == name)

    contracts = [s for s in spans if s.name == "_elim.contract"]
    m = {
        "cli.write_csv_s": incl("cli.write_csv"),
        "cli.version_string_calls": calls("cli.version_string"),
        "cli.version_string_s": incl("cli.version_string"),
        "graphon.sample_graph_s": incl("graphon.sample_graph"),
        "graphon.sample_graph_calls": calls("graphon.sample_graph"),
        "graphon.hom_density_s": incl("graphon.hom_density"),
        "graphon.hom_density_calls": calls("graphon.hom_density"),
        "graphon.conditional_kernel_2pt_s": incl("graphon.conditional_kernel_2pt"),
        "graphon.conditional_1pt_s": incl("graphon.conditional_1pt"),
        "counting.count_copies_s": incl("counting.count_copies"),
        "counting.one_point_density_s": incl("counting.one_point_density"),
        "counting.two_point_matrix_s": incl("counting.two_point_matrix"),
        "elim.max_factor_entries": max((s.size for s in contracts), default=0),
        "motifs.canonical_key_calls": calls("motifs.canonical_key"),
        "motifs.canonical_key_s": incl("motifs.canonical_key"),
        "motifs.aut_s": incl("motifs.aut"),
        "bootstrap.quadratic_spectral_draws_s": incl("bootstrap.quadratic_spectral_draws"),
        "bootstrap.empirical_quantile_s": incl("bootstrap.empirical_quantile"),
        "limitlaw.build_limit_spec_s": incl("limitlaw.build_limit_spec"),
        "limitlaw.draws": sum(s.size for s in spans if s.name == "limitlaw.sample_limit"),
        "inference.regularity_test_self_s": self_of("inference.regularity_test"),
        "inference.joint_confidence_set_self_s": self_of("inference.joint_confidence_set"),
        "inference.marginal_ci_self_s": self_of("inference.marginal_ci"),
    }
    for motif in ("k2", "k3", "c4"):
        m[f"counting.regularity_R_empirical_s.{motif}"] = \
            incl("counting.regularity_R_empirical", motif)
    for dtype in ("int64", "float64"):
        m[f"elim.contract_calls.{dtype}"] = calls("_elim.contract", dtype)
        m[f"elim.contract_s.{dtype}"] = incl("_elim.contract", dtype)
    for branch in ("linear", "quadratic"):
        m[f"bootstrap.multiplier_draws_s.{branch}"] = \
            incl("bootstrap.multiplier_draws", branch)
    for kind in ("regular", "gaussian"):
        m[f"limitlaw.sample_limit_s.{kind}"] = incl("limitlaw.sample_limit", kind)
    for layer in LAYERS:
        # Metric names may not start with an underscore: `_elim` reports as `elim`.
        m[f"self_s.{layer.lstrip('_')}"] = \
            sum(s.self_s for s in spans if s.layer == layer)
    return m
