#!/usr/bin/env python3
"""Count the benchmark's traced layer calls over a fixed number of ops.

Runs ops 0..N-1 of a perfbench workload at a seed with perfbench's call
tracer over every layer in workloads.LAYERS, and prints one sorted-key JSON
document: each layer's calls, raised count and observed counts, and each
op's digest. `perfbench/run.py --trace 1` runs ops until a time budget is
spent, so its per-op call figures follow machine speed; here the op count is
fixed and no time is printed, so two commits that make the same calls print
the same document.

Usage:
    python3 scripts/layer_calls.py --workload ablation --seed 20260816 --ops 12

Run it from any directory; berrypick is imported from this checkout's src/.
Exit status is 0 when every op ran and passed its workload's check, 1 when
one did not (its message is in the document's "failures"), and 2 on bad
arguments.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from perfbench_setup import ROOT, load_workload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ops", type=int, required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.ops < 1:
        parser.error("--seed must be >= 0 and --ops >= 1")

    harness, workloads, workload = load_workload(parser, args.workload)

    tracer = harness.Tracer(workloads.LAYERS)
    log = harness.OpLog()
    digests = []
    with tempfile.TemporaryDirectory() as work:
        state = workload.setup(ROOT, args.seed, Path(work))
        for index in range(args.ops):
            outcome = harness.run_op(
                log,
                index,
                lambda i: workload.op(state, i),
                lambda i, outcome: workload.check(state, i, outcome),
                lambda i: workload.prepare(state, i),
                around=lambda: tracer,
            )
            digests.append(None if outcome is None else workload.digest(index, outcome))

    layers = {
        name: {"calls": s.calls, "raised": s.raised, "counts": s.counts}
        for name, s in tracer.stats.items()
    }
    print(json.dumps(
        {
            "workload": workload.name,
            "seed": args.seed,
            "ops": args.ops,
            "absent_layers": tracer.absent,
            "layers": layers,
            "digests": digests,
            "failures": log.failures,
        },
        sort_keys=True,
    ))
    return 1 if log.failures else 0


if __name__ == "__main__":
    sys.exit(main())
