"""Run one workload under several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --workload ablation --seeds 1-10 --seconds 30

Runs perfbench/run.py once per seed, one run at a time, and prints per
metric the median, the inter-quartile distance as a share of the median
(statistics.quantiles, n=4) and, from BENCHMARK.json, the metric's bound.
The runs' result lines go to --out as JSON lines when given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from harness import spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    p = argparse.ArgumentParser(description="per-metric spread over seeds")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="append result lines here")
    args = p.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    values: dict[str, list[float]] = {}
    failed = 0
    for seed in args.seeds:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failed += result["failed"]
        if args.out:
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps({"seed": seed, **result}) + "\n")
        for name, metric in result["metrics"].items():
            if metric["value"] is not None:
                values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}", flush=True)

    print(f"{'metric':44s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        med = statistics.median(vals)
        sp = spread(vals) if len(vals) >= 2 and med else float("nan")
        bound = bounds.get(name)
        print(f"{name:44s} {med:12.6g} {sp:8.4f} {bound if bound is not None else '':>6}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
