"""Batch command-line front end: seeded experiments with CSV/JSON reports.

Every stochastic subcommand requires --seed and produces byte-identical CSV
for identical configuration; replication streams are spawned from the root
seed by counter splitting so any single replication can be reproduced in
isolation.  CSV files carry the resolved configuration as '#' comment lines;
a JSON summary (config echo, version, wall time) goes to stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time

import numpy as np

from . import __version__
from .bootstrap import multiplier_draws
from .counting import count_copies, density_hat_t, edge_list_lines, load_edge_list
from .graphon import QuadratureError, graphon_by_name, hom_density, sample_graph
from .inference import (DEFAULT_REGULARITY_EXPONENT, joint_confidence_set, marginal_ci,
                        regularity_test, structure_test)
from .limitlaw import DEFAULT_GRID, build_limit_spec, sample_limit
from .motifs import Motif, parse_motif

# exit codes past argparse, which exits 2 on a bad option
EXIT_IO = 3
EXIT_NUMERIC = 4


def version_string() -> str:
    """Package version plus `git describe --always --dirty`, looked up once
    per process (every CSV and summary asks for it)."""
    # A plain function in front of the cache: perfbench's tracer wraps plain
    # functions only, and counts these calls.
    return _version_string()


@functools.lru_cache(maxsize=1)
def _version_string() -> str:
    import subprocess       # imported where used: a faster start-up
    base = f"graphonstat {__version__}"
    try:
        desc = subprocess.run(["git", "describe", "--always", "--dirty"],
                              capture_output=True, text=True, timeout=5,
                              cwd=os.path.dirname(os.path.abspath(__file__)))
        if desc.returncode == 0:
            return f"{base}+{desc.stdout.strip()}"
    except Exception:
        pass
    return base


def _fmt(x) -> str:
    if type(x) is float:                # most cells; bool and int are not float
        return f"{x:.17g}"
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def write_csv(path: str, config: dict, header: list[str], rows,
              footer_comments: list[str] | None = None) -> None:
    lines = [f"# config: {json.dumps(config, sort_keys=True)}",
             f"# version: {version_string()}",
             # a motif literal's edge list has commas: quote that cell
             ",".join(f'"{h}"' if "," in h else h for h in header)]
    if isinstance(rows, np.ndarray) and rows.dtype.kind == "f" and rows.size:
        # one %-format over every cell: the bytes of `_fmt`, in about half the time
        template = "\n".join([",".join(["%.17g"] * rows.shape[1])] * len(rows))
        lines.append(template % tuple(rows.ravel().tolist()))
    else:
        lines.extend(",".join([_fmt(x) for x in row]) for row in rows)
    for c in footer_comments or []:
        lines.append(f"# {c}")
    _write_lines(path, lines)


def _write_lines(path: str, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _summary(config: dict, t0: float, **extra) -> dict:
    """JSON summary of a command.  `wall_time_s` is measured from the first line
    of `main`, so it covers argument parsing and the command but not
    interpreter start-up or imports."""
    out = {"config": config, "version": version_string(),
           "wall_time_s": round(time.perf_counter() - t0, 3)}
    out.update(extra)
    return out


def _motif_names(text: str) -> list[str]:
    # a comma before a digit goes on with the edges of an "n=...;edges=..." literal
    return [tok.strip() for tok in re.split(r",(?!\s*\d)", text) if tok.strip()]


def _parse_motifs(text: str) -> tuple[Motif, ...]:
    return tuple(parse_motif(tok) for tok in _motif_names(text))


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _seed(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _open_interval(lo: float, hi: float, what: str):
    """Parser of a float strictly between lo and hi; NaN and non-numbers fail."""
    def parse(text: str) -> float:
        try:
            if lo < float(text) < hi:
                return float(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return parse


_level = _open_interval(0, 1, "a level in (0, 1)")


# -- subcommand implementations -------------------------------------------------

def _cmd_sample(args, config, t0):
    w = graphon_by_name(args.graphon)
    g = sample_graph(w, args.n, seed=args.seed)
    _write_lines(args.out, [f"# config: {json.dumps(config, sort_keys=True)}"] + edge_list_lines(g))
    return _summary(config, t0, n=g.n, edges=g.n_edges, out=args.out)


def _cmd_count(args, config, t0):
    g = load_edge_list(args.graph)
    h = parse_motif(args.motif)
    x = count_copies(h, g)
    return _summary(config, t0, count=x, hat_t=density_hat_t(h, g), n=g.n)


def _cmd_limit_sample(args, config, t0):
    w = graphon_by_name(args.graphon)
    motifs = _parse_motifs(args.motifs)
    spec = build_limit_spec(motifs, w, grid=args.grid)
    draws = sample_limit(spec, args.draws, seed=args.seed)
    header = [f"z_{m}" for m in _motif_names(args.motifs)]
    write_csv(args.out, config, header, draws)
    return _summary(config, t0, draws=args.draws,
                    regular=[bool(b) for b in spec.regular], out=args.out)


def _cmd_bootstrap(args, config, t0):
    g = load_edge_list(args.graph)
    motifs = _parse_motifs(args.motifs)
    if args.branch == "auto":
        branches = tuple("linear" if regularity_test(g, h).reject_regularity
                         else "quadratic" for h in motifs)
    elif "," in args.branch:
        branches = tuple(args.branch.split(","))
    else:
        branches = args.branch
    draws = multiplier_draws(g, motifs, branches, args.B, seed=args.seed)
    header = [f"zhat_{m}" for m in _motif_names(args.motifs)]
    write_csv(args.out, config, header, draws.samples)
    return _summary(config, t0, B=args.B, branches=list(draws.branches), out=args.out)


def _cmd_regtest(args, config, t0):
    g = load_edge_list(args.graph)
    h = parse_motif(args.motif)
    t = regularity_test(g, h, threshold=args.threshold, exponent=args.exponent)
    return _summary(config, t0, statistic=t.statistic, r_value=t.r_value,
                    threshold=t.threshold, exponent=t.exponent,
                    reject_regularity=t.reject_regularity, n=g.n)


def _cmd_ci(args, config, t0):
    g = load_edge_list(args.graph)
    h = parse_motif(args.motif)
    ci = marginal_ci(g, h, args.alpha, args.B, seed=args.seed)
    return _summary(config, t0, lower=ci.lower, upper=ci.upper,
                    point_estimate=ci.point_estimate, branch=ci.branch,
                    regularity_stat=ci.regularity_stat)


def _cmd_joint_ci(args, config, t0):
    g = load_edge_list(args.graph)
    motifs = _parse_motifs(args.motifs)
    report = joint_confidence_set(g, motifs, args.alpha, args.B, seed=args.seed)
    return _summary(config, t0, **report.to_record())


def _cmd_structure(args, config, t0):
    g = load_edge_list(args.graph)
    res = structure_test(g, args.alpha)
    return _summary(config, t0, f_hat=res.f_hat, t_n=res.t_n, z_crit=res.z_crit,
                    reject=res.reject, n=res.n)


def _coverage_rep(task):
    """One coverage replication: its CSV row and the branch tuple it chose.

    Module-level so worker pools can pickle it."""
    (rep, seed_entropy, w, motifs, truth, n, B, alpha, mode) = task
    root = np.random.SeedSequence(entropy=seed_entropy, spawn_key=(rep,))
    graph_seed, boot_seed = root.spawn(2)
    g = sample_graph(w, n, seed=graph_seed)
    if mode == "marginal":
        ci = marginal_ci(g, motifs[0], alpha, B, seed=boot_seed)
        inside = ci.contains(truth[0])
        return [rep, inside, ci.lower, ci.upper,
                1 if ci.branch == "irregular" else 0], ci.branch
    report = joint_confidence_set(g, motifs, alpha, B, seed=boot_seed)
    inside = report.contains(truth)
    row = [rep, inside, report.quantile]
    row.extend(report.regularity_stats.tolist())
    return row, ",".join(report.branches)


def _cmd_coverage_sim(args, config, t0):
    motifs = _parse_motifs(args.motifs)
    if args.mode == "marginal" and len(motifs) != 1:
        raise ValueError("--mode marginal needs exactly one motif")
    w = graphon_by_name(args.graphon)
    truth = [hom_density(h, w) for h in motifs]
    tasks = [(rep, args.seed, w, motifs, truth, args.n, args.B, args.alpha, args.mode)
             for rep in range(args.reps)]
    if args.workers > 1:
        import multiprocessing
        with multiprocessing.Pool(args.workers) as pool:
            results = pool.map(_coverage_rep, tasks)
    else:
        results = [_coverage_rep(t) for t in tasks]
    results.sort(key=lambda r: r[0][0])
    rows = [row for row, _ in results]
    if args.mode == "marginal":
        header = ["rep", "inside", "lower", "upper", "irregular_branch"]
    else:
        header = ["rep", "inside", "quantile"] + \
            [f"reg_stat_{m}" for m in _motif_names(args.motifs)]
    coverage = float(np.mean([r[1] for r in rows]))
    write_csv(args.out, config, header, rows,
              footer_comments=[f"coverage={coverage:.17g}"])
    inside_by_branch: dict[str, list] = {}
    for row, branch in results:
        inside_by_branch.setdefault(branch, []).append(row[1])
    by_branch = {b: {"reps": len(v), "coverage": float(np.mean(v))}
                 for b, v in inside_by_branch.items()}
    return _summary(config, t0, coverage=coverage, coverage_by_branch=by_branch,
                    reps=args.reps, out=args.out)


# -- parser ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="graphonstat",
        description="Motif statistics and bootstrap inference for graphon random graphs")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn)
        return sp

    sp = add("sample", _cmd_sample, help="sample a W-random graph to an edge list")
    sp.add_argument("--graphon", required=True)
    sp.add_argument("--n", type=_positive_int, required=True)
    sp.add_argument("--seed", type=_seed, required=True)
    sp.add_argument("--out", default="-")

    sp = add("count", _cmd_count, help="count copies of a motif in a graph")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--motif", required=True)

    sp = add("limit-sample", _cmd_limit_sample,
             help="draw from the joint limit law of motif counts")
    sp.add_argument("--graphon", required=True)
    sp.add_argument("--motifs", required=True)
    sp.add_argument("--draws", type=_positive_int, required=True)
    sp.add_argument("--grid", type=_positive_int, default=DEFAULT_GRID, help="cap on quadrature "
                    "nodes per axis (default %(default)s); a block graphon's law ignores it")
    sp.add_argument("--seed", type=_seed, required=True)
    sp.add_argument("--out", default="-")

    sp = add("bootstrap", _cmd_bootstrap, help="multiplier-bootstrap draws")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--motifs", required=True)
    sp.add_argument("--branch", default="auto",
                    help="auto, linear, quadratic, or per-motif comma list")
    sp.add_argument("--B", type=_positive_int, required=True)
    sp.add_argument("--seed", type=_seed, required=True)
    sp.add_argument("--out", default="-")

    sp = add("regtest", _cmd_regtest, help="test H-regularity of the graphon")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--motif", required=True)
    sp.add_argument("--threshold", type=_open_interval(0, np.inf, "a finite threshold > 0"),
                    default=1.0)
    sp.add_argument("--exponent", type=_open_interval(0, 1, "an exponent in (0, 1)"),
                    default=DEFAULT_REGULARITY_EXPONENT,
                    help="rate exponent e of the statistic n^e R (0.5 = sqrt(n) form)")

    sp = add("ci", _cmd_ci, help="marginal confidence interval for a motif density")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--motif", required=True)
    sp.add_argument("--alpha", type=_level, default=0.05)
    sp.add_argument("--B", type=_positive_int, required=True)
    sp.add_argument("--seed", type=_seed, required=True)

    sp = add("joint-ci", _cmd_joint_ci, help="joint confidence set for motif densities")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--motifs", required=True)
    sp.add_argument("--alpha", type=_level, default=0.05)
    sp.add_argument("--B", type=_positive_int, required=True)
    sp.add_argument("--seed", type=_seed, required=True)

    sp = add("structure", _cmd_structure, help="edge/4-cycle global structure test")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--alpha", type=_level, default=0.05)

    sp = add("coverage-sim", _cmd_coverage_sim,
             help="replicated coverage simulation for confidence sets")
    sp.add_argument("--graphon", required=True)
    sp.add_argument("--motifs", required=True)
    sp.add_argument("--n", type=_positive_int, required=True)
    sp.add_argument("--B", type=_positive_int, required=True)
    sp.add_argument("--reps", type=_positive_int, required=True)
    sp.add_argument("--alpha", type=_level, default=0.05)
    sp.add_argument("--seed", type=_seed, required=True)
    sp.add_argument("--mode", choices=("joint", "marginal"), default="joint")
    sp.add_argument("--workers", type=_positive_int, default=1,
                    help="worker processes (default: 1, serial)")
    sp.add_argument("--out", required=True)

    return p


def main(argv=None) -> int:
    t0 = time.perf_counter()
    parser = build_parser()
    args = parser.parse_args(argv)
    config = {k: v for k, v in vars(args).items() if k not in ("fn",)}
    try:
        summary = args.fn(args, config, t0)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"graphonstat: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, QuadratureError, ArithmeticError) as exc:
        print(f"graphonstat: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
