#!/usr/bin/env python3
"""Benchmark of graphonstat's desk-scale simulation study.

Run from the repository root:

    python3 perfbench/run.py --workload coverage --seed 1 --seconds 50 --trace 0

One closed-loop caller runs three families of operations; the next operation
starts only when the previous one has returned, and BLAS is capped at one
thread per available CPU.

* coverage:  the `graphonstat coverage-sim` CLI in a subprocess (n=400,
  B=1000, --workers 1) on paper-w1 (joint k2,k3, linear bootstrap branch),
  paper-w3 (joint k2,k3, quadratic branch) and const:0.5 (marginal k2,
  spectral draws).
* counting:  in-process library calls on paper-w1 graphs at n=400 and
  n=1536: regularity_test(C4), count_copies(K4), two_point_matrix(P4) and
  joint_confidence_set([K2, K3]) at both sizes.
* limit-law: the `graphonstat limit-sample` CLI in a subprocess (k2,k3,
  grid 512) on const:0.5 (regular: quadratic forms) and paper-w1 (irregular:
  linear profiles).

Every run reports every end-to-end metric, so every run executes all three
families.  Operations run in whole rounds, each slow operation followed by the
fast counting calls.  The first two rounds run every slow operation once,
families interleaved, so every metric has at least two samples; later rounds
run only the workload's own family (coverage or counting), as many as are
expected to end within --seconds.

With --trace 1 one full round runs in-process three times: without tracing,
with the span collector of spans.py wrapped around the library's public
functions, and without again; the run reports per-layer numbers instead.

The last line of standard output is the result object; the line before it
holds sample counts, percentiles, the coverage accuracy report and the
environment.  Inputs depend only on --seed.  Exit code 2 means the library
sources are missing or an argument is invalid.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from functools import partial
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"
REFS = ROOT / "perfbench" / "refs.json"
BENCHMARK = ROOT / "BENCHMARK.json"

NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else os.cpu_count() or 1
BLAS_ENV = {var: str(NPROC) for var in
            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
# Must be in place before numpy is first imported, here and in every child.
os.environ.update(BLAS_ENV)
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))

FAMILIES = ("coverage", "counting", "limit-law")
# A workload names the family that runs on after the full rounds.
WORKLOADS = ("coverage", "counting")
CHILD_TIMEOUT_S = 150

# -- inputs -------------------------------------------------------------------

COVERAGE = (  # metric, coverage-sim arguments
    ("reps_per_s_linear", ("--graphon", "paper-w1", "--motifs", "k2,k3")),
    ("reps_per_s_quadratic", ("--graphon", "paper-w3", "--motifs", "k2,k3")),
    ("reps_per_s_marginal",
     ("--graphon", "const:0.5", "--motifs", "k2", "--mode", "marginal")),
)
# Enough replications that they, not interpreter start-up, take most of an
# invocation's wall time.
COVERAGE_REPS = 60
COVERAGE_COMMON = ("--n", "400", "--B", "1000", "--alpha", "0.05",
                   "--reps", str(COVERAGE_REPS))

LIMIT = (  # metric, graphon
    ("draws_per_s_regular", "const:0.5"),
    ("draws_per_s_gaussian", "paper-w1"),
)
# Enough draws that sampling and the CSV write, not interpreter start-up, take
# about half of an invocation's wall time or more.
LIMIT_DRAWS = 50_000
LIMIT_GRID = 512
MGF_SIGMAS = 6.0     # log-MGF check tolerance in standard errors of the estimate

COUNTING_SLOW = ("regtest_c4_ms", "count_k4_ms", "joint_ci_n1536_ms")
COUNTING_FAST = ("two_point_p4_ms", "joint_ci_n400_ms", "joint_ci_n400_ms")
COUNTING = COUNTING_SLOW + COUNTING_FAST[:2]
# The first call of these in a process runs 0.4-1.4 s slower (memory is mapped
# for the first time), so each runs once untimed before the rounds.
WARM_UP = ("regtest_c4_ms", "joint_ci_n1536_ms")
COUNTING_SIZES = (400, 1536)
# Counting graphs come from one of GRAPH_STREAMS fixed streams (seed mod
# GRAPH_STREAMS), so that exact counts recorded once in refs.json can check
# every run.  The held-out seed, on which claimed gains are confirmed, has a
# stream of its own that no development seed reaches.  The bootstrap seed of
# the joint confidence sets is --seed itself.
GRAPH_STREAMS = 16
HELD_OUT_SEED = 90210
SWEEP_SIZES = (400, 800, 1200, 1500, 1536)
SETUP_REPEATS = 5
FULL_ROUNDS = 2


def graph_stream(seed: int) -> int:
    return seed if seed == HELD_OUT_SEED else seed % GRAPH_STREAMS


def graph_seed(seed: int, n: int) -> list[int]:
    return [20240422, graph_stream(seed), n]


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_library():
    """Import graphonstat from this checkout's sources, or exit with code 2."""
    if not (SRC / "graphonstat" / "__init__.py").is_file():
        fail(f"no graphonstat sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import graphonstat
    if Path(graphonstat.__file__).resolve().parent != (SRC / "graphonstat").resolve():
        fail(f"imported graphonstat from {graphonstat.__file__}, not {SRC}")
    import graphonstat.cli
    return graphonstat


def setup_code(workload: str, seed: int) -> str:
    """What a fresh interpreter runs to import the library and build the inputs."""
    if workload == "counting":
        return ("import graphonstat as gs\n"
                "w = gs.graphon_by_name('paper-w1')\n"
                + "".join(f"gs.sample_graph(w, {n}, seed={graph_seed(seed, n)})\n"
                          for n in COUNTING_SIZES))
    return ("import graphonstat.cli as cli\n"
            f"[cli.graphon_by_name(s) for s in {[a[1] for _, a in COVERAGE]!r}]\n"
            "cli.build_parser()\n")


# -- bookkeeping ----------------------------------------------------------------

class Run:
    """Samples, failures and check state of one benchmark run."""

    def __init__(self, gs, seed: int, refs: dict, cli_mode: str):
        self.gs = gs
        self.seed = seed
        self.refs = refs
        self.cli_mode = cli_mode            # "subprocess" or "inprocess"
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.csv_seen: dict[str, list[str]] = {}
        self.accuracy: dict[str, dict] = {}
        w = gs.graphon_by_name("paper-w1")
        self.graphs = {n: gs.sample_graph(w, n, seed=graph_seed(seed, n))
                       for n in COUNTING_SIZES}

    def record(self, metric: str, seconds: float, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(f"{metric}: {p}" for p in problems)
        self.samples.setdefault(metric, []).append(seconds)

    def cli(self, argv: list[str]) -> tuple[float, str | None]:
        """Run the CLI once; returns (wall seconds, error text or None)."""
        if self.cli_mode == "subprocess":
            t = time.perf_counter()
            p = subprocess.run([sys.executable, "-m", "graphonstat.cli", *argv],
                               env=CHILD_ENV, cwd=ROOT, capture_output=True, text=True,
                               timeout=CHILD_TIMEOUT_S)
            dt = time.perf_counter() - t
            return dt, None if p.returncode == 0 else \
                f"exit {p.returncode}: {p.stderr.strip()[-300:]}"
        cli = self.gs.cli
        with contextlib.redirect_stdout(io.StringIO()):
            t = time.perf_counter()
            rc = cli.main(argv)
            dt = time.perf_counter() - t
        return dt, None if rc == 0 else f"exit {rc}"


def csv_rows(path: Path) -> tuple[list[str], list[list[float]]]:
    """Lines other than the `# version` line, and the numeric data rows."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("# version:")]
    data = [ln for ln in lines if ln and not ln.startswith("#")][1:]
    return lines, [[float(x) for x in ln.split(",")] for ln in data]


def wilson(k: int, n: int, z: float = 1.959963984540054) -> tuple[float, float]:
    p = k / n
    centre = (p + z * z / (2 * n)) / (1 + z * z / n)
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / (1 + z * z / n)
    return centre - half, centre + half


# -- families -------------------------------------------------------------------

def coverage_op(run: Run, metric: str, args: tuple[str, ...]) -> None:
    out = WORK / f"{metric}.csv"
    argv = ["coverage-sim", *args, *COVERAGE_COMMON, "--workers", "1",
            "--seed", str(run.seed), "--out", str(out)]
    out.unlink(missing_ok=True)
    dt, err = run.cli(argv)
    problems = [err] if err else check_coverage(run, metric, out)
    run.record(metric, dt, problems)


def check_coverage(run: Run, metric: str, out: Path) -> list[str]:
    lines, rows = csv_rows(out)
    problems = []
    if len(rows) != COVERAGE_REPS:
        problems.append(f"{len(rows)} rows, expected {COVERAGE_REPS}")
    bounds = (2, 3) if metric == "reps_per_s_marginal" else (2,)
    if not all(math.isfinite(r[c]) for r in rows for c in bounds):
        problems.append("non-finite quantile or interval bound")
    previous = run.csv_seen.setdefault(metric, lines)
    if previous != lines:
        problems.append("CSV differs from the earlier invocation with the same seed")
    inside = int(sum(r[1] for r in rows))
    lo, hi = wilson(inside, len(rows)) if rows else (math.nan, math.nan)
    label = " ".join(a for a in dict(COVERAGE)[metric] if not a.startswith("--"))
    run.accuracy.setdefault(label, {"coverage": inside / max(len(rows), 1),
                                    "reps": len(rows), "wilson95": [lo, hi]})
    return problems


def limit_op(run: Run, metric: str, graphon: str) -> None:
    out = WORK / f"{metric}.csv"
    argv = ["limit-sample", "--graphon", graphon, "--motifs", "k2,k3",
            "--grid", str(LIMIT_GRID), "--draws", str(LIMIT_DRAWS),
            "--seed", str(run.seed), "--out", str(out)]
    out.unlink(missing_ok=True)
    dt, err = run.cli(argv)
    problems = [err] if err else check_limit(run, graphon, out)
    run.record(metric, dt, problems)


def mgf_pair(x, theta: float):
    """Symmetric and antisymmetric parts of the empirical log-MGF at +-theta.

    S = log M(theta) + log M(-theta) carries the variance, D = log M(theta) -
    log M(-theta) the mean and skew; both come with delta-method standard
    errors, so the check does not depend on the random stream.
    """
    import numpy as np
    ep, em = np.exp(theta * x), np.exp(-theta * x)
    mp, mm = ep.mean(), em.mean()
    up, um = ep / mp - 1, em / mm - 1
    root_n = math.sqrt(len(x))
    return (math.log(mp) + math.log(mm), float(np.std(up + um)) / root_n,
            math.log(mp) - math.log(mm), float(np.std(up - um)) / root_n)


def check_limit(run: Run, graphon: str, out: Path) -> list[str]:
    import numpy as np
    _, rows = csv_rows(out)
    z = np.asarray(rows)
    if z.shape != (LIMIT_DRAWS, 2) or not np.isfinite(z).all():
        return [f"draws have shape {z.shape} or are not finite"]
    ref = run.refs["log_mgf"][graphon]
    s, s_se, d, d_se = mgf_pair(z.sum(axis=1), ref["theta"])
    problems = []
    if abs(s - ref["sym"]) > MGF_SIGMAS * s_se:
        problems.append(f"log-MGF symmetric part {s:.6g} vs oracle {ref['sym']:.6g} "
                        f"(se {s_se:.2g})")
    if abs(d - ref["anti"]) > MGF_SIGMAS * d_se:
        problems.append(f"log-MGF antisymmetric part {d:.6g} vs oracle {ref['anti']:.6g} "
                        f"(se {d_se:.2g})")
    return problems


def counting_call(gs, metric: str, graphs: dict, boot_seed: int) -> dict:
    """One counting operation; returns the exact values that refs.json records."""
    g = graphs[400]
    if metric == "regtest_c4_ms":
        return {"r_c4": gs.regularity_test(g, gs.C4).r_value}
    if metric == "count_k4_ms":
        return {"k4": gs.count_copies(gs.clique(4), g)}
    if metric == "two_point_p4_ms":
        h = gs.path(4)
        total = float(gs.two_point_matrix(h, g).values.sum()) * 2 * h.aut * g.n ** 2
        return {"p4_total": int(round(total))}
    n = 400 if metric == "joint_ci_n400_ms" else 1536
    rep = gs.joint_confidence_set(graphs[n], [gs.K2, gs.K3], 0.05, 1000, seed=boot_seed)
    if not (math.isfinite(rep.quantile) and rep.quantile > 0):
        raise ValueError(f"joint quantile {rep.quantile}")
    return {f"counts_n{n}": [int(c) for c in rep.counts],
            f"regstats_n{n}": rep.regularity_stats.tolist()}


def check_counting(expected: dict, got: dict) -> list[str]:
    """Integers must be equal; floats (R values) equal up to summation order."""
    problems = []
    for key, value in got.items():
        ref = expected[key]
        pairs = list(zip(value, ref)) if isinstance(ref, list) else [(value, ref)]
        same = all(math.isclose(a, b, rel_tol=1e-9) if isinstance(b, float) else a == b
                   for a, b in pairs)
        if not same or (isinstance(ref, list) and len(value) != len(ref)):
            problems.append(f"{key} = {value}, reference {ref}")
    return problems


def counting_op(run: Run, metric: str) -> None:
    expected = run.refs["counting"][str(graph_stream(run.seed))]
    t = time.perf_counter()
    try:
        got, err = counting_call(run.gs, metric, run.graphs, run.seed), None
    except Exception as exc:      # a raising operation counts as failed
        got, err = {}, f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t
    run.record(metric, dt, [err] if err else check_counting(expected, got))


def warm_up(run: Run) -> None:
    """Run the WARM_UP operations once; their outputs are checked, their times
    dropped."""
    for metric in WARM_UP:
        counting_op(run, metric)
    run.samples.clear()


def round_ops(families: tuple[str, ...]) -> list:
    """One round of the given families' slow operations, families interleaved,
    each followed by the fast counting calls."""
    ops = {
        "coverage": [partial(coverage_op, metric=m, args=a) for m, a in COVERAGE],
        "counting": [partial(counting_op, metric=m) for m in COUNTING_SLOW],
        "limit-law": [partial(limit_op, metric=m, graphon=g) for m, g in LIMIT],
    }
    fast = [partial(counting_op, metric=m) for m in COUNTING_FAST]
    return [op for group in zip_longest(*(ops[f] for f in families))
            for slow in group if slow is not None for op in (slow, *fast)]


def run_rounds(run: Run, focus: str, full: int, seconds: float) -> float:
    """`full` rounds of every family, then rounds of the `focus` family alone,
    as many as are expected, from the median time of each operation so far, to
    end within `seconds`.  The deadline is checked only between rounds, so
    every operation of a round runs.  Returns the wall time."""
    every, own = round_ops(FAMILIES), round_ops((focus,))
    t0 = time.perf_counter()
    for _ in range(full):
        for op in every:
            op(run)

    def own_round_fits() -> bool:
        expected = sum(statistics.median(run.samples[op.keywords["metric"]]) for op in own)
        return time.perf_counter() - t0 + expected <= seconds

    while own_round_fits():
        for op in own:
            op(run)
    return time.perf_counter() - t0


# -- measurements outside the closed loop ----------------------------------------

def child_wall(*argv: str) -> float:
    """Wall seconds of a fresh interpreter run with `argv`."""
    t = time.perf_counter()
    subprocess.run([sys.executable, *argv], env=CHILD_ENV, cwd=ROOT, check=True,
                   capture_output=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t


def child_import_s() -> float:
    """Seconds a fresh interpreter spends in `import graphonstat.cli`."""
    code = ("import time; t = time.perf_counter(); import graphonstat.cli; "
            "print(time.perf_counter() - t)")
    p = subprocess.run([sys.executable, "-c", code], env=CHILD_ENV, cwd=ROOT, check=True,
                       capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    return float(p.stdout.strip().splitlines()[-1])


def percentile_summary(values: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples beyond it."""
    v = sorted(values)
    out = {"n": len(v), "median": statistics.median(v)}
    if len(v) >= 11:
        out["p_hi"] = {"percentile": round(100 * (len(v) - 10) / len(v), 1),
                       "value": v[len(v) - 11]}
    return out


def environment() -> dict:
    import ctypes
    import glob
    import platform

    import numpy as np
    import scipy
    env = {"nproc": NPROC, "python": platform.python_version(), "numpy": np.__version__,
           "scipy": scipy.__version__, "openblas": None, "blas_threads": None,
           "blas_env": BLAS_ENV, "git_commit": None}
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*"))
    if libs:
        try:
            lib = ctypes.CDLL(libs[0])
            lib.scipy_openblas_get_config64_.restype = ctypes.c_char_p
            lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
            env["openblas"] = lib.scipy_openblas_get_config64_().decode()
            env["blas_threads"] = lib.scipy_openblas_get_num_threads64_()
        except (OSError, AttributeError):
            pass
    try:
        p = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
        if p.returncode == 0:
            env["git_commit"] = p.stdout.strip()
    except OSError:
        pass
    return env


# -- the two kinds of run ---------------------------------------------------------

def end_to_end(gs, args, refs) -> tuple[dict, Run, dict]:
    setup = [child_wall("-c", setup_code(args.workload, args.seed))
             for _ in range(SETUP_REPEATS)]
    run = Run(gs, args.seed, refs, "subprocess")
    warm_up(run)
    run_rounds(run, args.workload, FULL_ROUNDS, args.seconds)
    metrics = {"setup_s": statistics.median(setup)}
    for metric, work in [(m, COVERAGE_REPS) for m, _ in COVERAGE] + \
            [(m, LIMIT_DRAWS) for m, _ in LIMIT]:
        metrics[metric] = work * len(run.samples[metric]) / sum(run.samples[metric])
    for metric in COUNTING:
        metrics[metric] = 1e3 * statistics.median(run.samples[metric])
    metrics["ok_frac"] = 1 - run.failed / run.attempted
    detail = {name: percentile_summary([1e3 * s for s in run.samples[name]])
              for name in COUNTING}
    detail.update({name: {"n": len(run.samples[name]), "total_s": sum(run.samples[name])}
                   for name, _ in COVERAGE + LIMIT})
    detail["setup_s"] = {"n": len(setup), "values": setup}
    return metrics, run, detail


def traced(gs, args, refs) -> tuple[dict, Run, dict]:
    import spans

    metrics = {"cli.import_s": statistics.median(child_import_s()
                                                 for _ in range(SETUP_REPEATS))}

    # Subprocess against in-process wall time of the same CLI call, on small
    # inputs: the difference is interpreter start-up and teardown, which does
    # not depend on the input size.  The in-process calls also warm the CLI's
    # code paths for the rounds below.
    probe = Run(gs, args.seed, refs, "subprocess")
    seed_out = ("--seed", str(args.seed), "--out", str(WORK / "probe.csv"))
    argvs = [["coverage-sim", *a, "--n", "400", "--B", "1000", "--alpha", "0.05",
              "--reps", "2", "--workers", "1", *seed_out] for _, a in COVERAGE] + \
        [["limit-sample", "--graphon", g, "--motifs", "k2,k3", "--grid", str(LIMIT_GRID),
          "--draws", "2000", *seed_out] for _, g in LIMIT]
    for argv in argvs:
        for mode in ("subprocess", "inprocess"):
            probe.cli_mode = mode
            dt, err = probe.cli(argv)
            probe.record(f"cli.{mode}", dt, [err] if err else [])
    metrics["cli.overhead_s"] = statistics.mean(
        a - b for a, b in zip(probe.samples["cli.subprocess"], probe.samples["cli.inprocess"]))

    # Default worker pool against --workers 1 for the first coverage configuration.
    base = ["-m", "graphonstat.cli", "coverage-sim", *COVERAGE[0][1], *COVERAGE_COMMON,
            "--seed", str(args.seed), "--out", str(WORK / "pool.csv")]
    pool = child_wall(*base)
    serial = child_wall(*base, "--workers", "1")
    metrics["cli.pool_vs_serial"] = pool / serial

    # n-sweep across the closed-form cut-off, untraced.
    w = gs.graphon_by_name("paper-w1")
    for n in SWEEP_SIZES:
        g = gs.sample_graph(w, n, seed=graph_seed(args.seed, n))
        t = time.perf_counter()
        gs.joint_confidence_set(g, [gs.K2, gs.K3], 0.05, 1000, seed=args.seed)
        metrics[f"sweep.joint_ci_ms.n{n}"] = 1e3 * (time.perf_counter() - t)

    # The warm-up keeps first-call costs out of all rounds; then the same full
    # round runs untraced, traced and untraced again, so that a drift of the
    # machine's speed during the run cancels from the comparison.
    warm = Run(gs, args.seed, refs, "inprocess")
    warm_up(warm)
    before = Run(gs, args.seed, refs, "inprocess")
    before_s = run_rounds(before, args.workload, 1, 0)
    collector = spans.Collector()
    run = Run(gs, args.seed, refs, "inprocess")
    restore = spans.instrument(collector)
    try:
        traced_s = run_rounds(run, args.workload, 1, 0)
    finally:
        restore()
    after = Run(gs, args.seed, refs, "inprocess")
    after_s = run_rounds(after, args.workload, 1, 0)
    plain_s = (before_s + after_s) / 2
    for other in (before, after, probe, warm):
        run.attempted += other.attempted
        run.failed += other.failed
        run.failures += other.failures
    metrics.update(spans.layer_metrics(collector.spans))
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1
    detail = {"spans": len(collector.spans), "traced_s": traced_s,
              "untraced_s": [before_s, after_s], "pool_s": pool, "serial_s": serial}
    return metrics, run, detail


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    gs = load_library()
    refs = json.loads(REFS.read_text())
    WORK.mkdir(parents=True, exist_ok=True)

    kind = "per_layer" if args.trace else "end_to_end"
    declared = json.loads(BENCHMARK.read_text())[kind]
    units = {m["name"]: m["unit"] for m in declared}
    metrics, run, detail = (traced if args.trace else end_to_end)(gs, args, refs)
    if set(metrics) != set(units):
        fail(f"metrics {sorted(set(metrics) ^ set(units))} do not match {BENCHMARK.name}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "samples": detail, "coverage_accuracy": run.accuracy,
                      "failures": run.failures[:20], "environment": environment()}))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": {k: {"value": metrics[k], "unit": units[k]}
                                  for k in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
