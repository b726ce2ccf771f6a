"""Recompute the golden digests in pins.json.

    python3 perfbench/pin.py            # print the digests, compare with pins.json
    python3 perfbench/pin.py --write    # overwrite pins.json

Covers the first `golden_ops` ops of each workload's development seed and of
its held-out seed. Rewrite the pins only for an intended behaviour change.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
from harness import pin_threads


def digests(workloads, work) -> dict:
    pins = {}
    for w in workloads.WORKLOADS.values():
        for seed in (w.dev_seed, w.heldout_seed):
            log, outcomes = run.golden_batch(w, work, seed)
            if log.failures:
                raise SystemExit(f"{w.name} seed {seed}: {log.failures}")
            pins.setdefault(w.name, {})[str(seed)] = [
                w.digest(i, outcome) for i, outcome in enumerate(outcomes)
            ]
    return pins


def main() -> int:
    p = argparse.ArgumentParser(description="recompute golden digests")
    p.add_argument("--write", action="store_true", help="overwrite pins.json")
    args = p.parse_args()
    pin_threads()
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads

    with run.work_dir() as work:
        pins = digests(workloads, work)
    path = run.HERE / "pins.json"
    if args.write:
        path.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return 0
    current = json.loads(path.read_text(encoding="utf-8"))
    print(json.dumps(pins, indent=2, sort_keys=True))
    return 0 if current == pins else 1


if __name__ == "__main__":
    sys.exit(main())
