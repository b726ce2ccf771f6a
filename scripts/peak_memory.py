#!/usr/bin/env python3
"""Credit each rise in the process's peak memory to the op phase it came in.

Runs ops 0..N-1 of a perfbench workload, as `perfbench/run.py` runs them,
and reads the peak resident set (`ru_maxrss`, which only ever rises) each
time a phase starts or ends. A rise is credited to the innermost phase
running when it came:

    setup    the workload's set-up (prior and template)
    prepare  an op's set-up; on scene_dir_plan, rendering its scene
    save, load, plan
             scene_dir_plan's save_artifacts, load_artifacts and plan_scene
             calls inside its op
    op       the rest of an op; on ablation, the whole op
    check    the workload's check of an op's outcome

It prints one sorted-key JSON document: the peak after imports and at the
end, in MB, and for each phase the MB its rises add up to and the ops in
which it rose (null for set-up). perfbench's `peak_rss_mb` is the peak of a
longer run that also holds the reference kernel and the golden batch, so the
figures here say where a peak grows, not what a benchmark run reports.

Usage:
    python3 scripts/peak_memory.py --workload scene_dir_plan --ops 300

Run it from any directory; berrypick is imported from this checkout's src/.
--seed defaults to the workload's development seed. Exit status is 0 when
every op ran and passed its workload's check, 1 when one did not (its
message is in the document's "failures"), and 2 on bad arguments.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from perfbench_setup import ROOT, load_workload

# phases inside a workload's op: (phase, module, function the op calls)
INNER = {
    "scene_dir_plan": (
        ("save", "berrypick.io_formats", "save_artifacts"),
        ("load", "berrypick.io_formats", "load_artifacts"),
        ("plan", "berrypick.pipeline", "plan_scene"),
    ),
}


class Ledger:
    """Credits each rise in the peak to the innermost phase running, and to
    the op `index` names (None during set-up)."""

    def __init__(self, peak_mb):
        self.peak_mb = peak_mb
        self.last = self.start = peak_mb()
        self.index: int | None = None
        self.stack: list[str] = []
        self.phases: dict[str, dict] = {}

    def _settle(self) -> None:
        now = self.peak_mb()
        if now > self.last and self.stack:
            entry = self.phases.setdefault(self.stack[-1], {"rise_mb": 0.0, "ops": []})
            entry["rise_mb"] += now - self.last
            if not entry["ops"] or entry["ops"][-1] != self.index:
                entry["ops"].append(self.index)
        self.last = now

    def run(self, phase: str, fn, *args, **kwargs):
        self._settle()
        self.stack.append(phase)
        try:
            return fn(*args, **kwargs)
        finally:
            self._settle()
            self.stack.pop()

    def wrap(self, phase: str, fn):
        return lambda *args, **kwargs: self.run(phase, fn, *args, **kwargs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--ops", type=int, required=True)
    parser.add_argument("--seed", type=int)
    args = parser.parse_args(argv)
    if args.ops < 1 or (args.seed is not None and args.seed < 0):
        parser.error("--ops must be >= 1 and --seed >= 0")

    harness, _, workload = load_workload(parser, args.workload)
    seed = workload.dev_seed if args.seed is None else args.seed

    ledger = Ledger(harness.peak_rss_mb)
    log = harness.OpLog()
    saved = []
    try:
        for phase, module_name, attr in INNER.get(workload.name, ()):
            module = importlib.import_module(module_name)
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, ledger.wrap(phase, saved[-1][2]))
        with tempfile.TemporaryDirectory() as work:
            state = ledger.run("setup", workload.setup, ROOT, seed, Path(work))
            for index in range(args.ops):
                ledger.index = index
                harness.run_op(
                    log,
                    index,
                    ledger.wrap("op", lambda i: workload.op(state, i)),
                    ledger.wrap("check", lambda i, outcome: workload.check(state, i, outcome)),
                    ledger.wrap("prepare", lambda i: workload.prepare(state, i)),
                )
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    phases = {
        name: {"rise_mb": round(entry["rise_mb"], 3), "ops": entry["ops"]}
        for name, entry in ledger.phases.items()
    }
    print(json.dumps(
        {
            "workload": workload.name,
            "seed": seed,
            "ops": args.ops,
            "start_mb": round(ledger.start, 3),
            "peak_mb": round(ledger.last, 3),
            "phases": phases,
            "failures": log.failures,
        },
        sort_keys=True,
    ))
    return 1 if log.failures else 0


if __name__ == "__main__":
    sys.exit(main())
