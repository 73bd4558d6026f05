#!/usr/bin/env python3
"""Record the reference values that run.py checks outputs against.

    python3 perfbench/record_refs.py      # rewrites perfbench/refs.json

Counting references are the exact counts and regularity statistics of the
GRAPH_STREAMS fixed counting graph streams and of the held-out seed's own.  Limit-law references are
log_mgf_oracle values of k2+k3 at +-theta, with theta chosen as acceptance
criterion 9 does (1/(64 C), or 1/64 when no motif is regular).  Record them
on a commit whose outputs are trusted; a later change that alters them is a
change of results, not of speed.
"""

from __future__ import annotations

import json

import run


def main() -> None:
    gs = run.load_library()
    counting = {}
    for stream in [*range(run.GRAPH_STREAMS), run.HELD_OUT_SEED]:
        w = gs.graphon_by_name("paper-w1")
        graphs = {n: gs.sample_graph(w, n, seed=run.graph_seed(stream, n))
                  for n in run.COUNTING_SIZES}
        values = {}
        for metric in run.COUNTING:
            values.update(run.counting_call(gs, metric, graphs, stream))
        counting[str(stream)] = values
        print(stream, values, flush=True)

    log_mgf = {}
    alpha = [1.0, 1.0]
    for _, graphon in run.LIMIT:
        spec = gs.build_limit_spec([gs.K2, gs.K3], gs.graphon_by_name(graphon),
                                   grid=run.LIMIT_GRID)
        c = gs.limitlaw.mgf_radius_constant(spec, alpha)
        theta = 1 / (64 * c) if c > 0 else 1 / 64
        up = gs.log_mgf_oracle(spec, alpha, theta)
        down = gs.log_mgf_oracle(spec, alpha, -theta)
        log_mgf[graphon] = {"theta": theta, "sym": up + down, "anti": up - down}
        print(graphon, log_mgf[graphon], flush=True)

    run.REFS.write_text(json.dumps({"counting": counting, "log_mgf": log_mgf},
                                   indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
