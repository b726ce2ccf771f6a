#!/usr/bin/env python3
"""Shape-completion accuracy over freshly generated synthetic berries.

Reports the chamfer metric (mm) between each completed surface and the true
sampled surface, for every berry rendered at or above the visibility floor.
A berry whose completion fails counts as an infinite distance; a statistic
that is not finite is written as null and printed as n/a.

Usage:
    python scripts/completion_benchmark.py [--n 100] [--seed 7] [--out stats.json]

Exit codes are the CLI's: 0 success, 1 input error (one `error:` line), 2 when
writing the output fails.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from berrypick import (
    PipelineConfig,
    RenderParams,
    SceneConfig,
    StrawberryPrior,
    run_completion_benchmark,
)
from berrypick.cli import _Parser, _seed, run
from berrypick.io_formats import read_json, write_json

TEMPLATES = Path(__file__).resolve().parents[1] / "templates"


def _mm(value) -> str:
    return "n/a" if value is None else f"{value:.3f} mm"


def _finite(value) -> float | None:
    return float(value) if np.isfinite(value) else None


def main() -> int:
    return run(_run)


def _run() -> int:
    parser = _Parser(description=__doc__)
    parser.add_argument("--template", default=str(TEMPLATES / "single_berry.json"))
    parser.add_argument("--n", type=int, default=100, help="number of berries")
    parser.add_argument("--seed", type=_seed, default=7)
    parser.add_argument("--sigma-mm", type=float, default=2.0)
    parser.add_argument("--dropout", type=float, default=0.05)
    parser.add_argument("--min-visibility", type=float, default=0.4)
    parser.add_argument("--out", default=None, help="optional JSON stats path")
    args = parser.parse_args()

    template = read_json(args.template, SceneConfig.from_json)
    start = time.perf_counter()
    cds = run_completion_benchmark(
        template,
        args.n,
        PipelineConfig(),
        seed=args.seed,
        render_params=RenderParams(args.sigma_mm, args.dropout),
        min_visibility=args.min_visibility,
        prior=StrawberryPrior.builtin(),
    )
    elapsed = time.perf_counter() - start

    arr = np.asarray(cds)
    finite = arr[np.isfinite(arr)]
    stats = {
        "n": len(cds),
        "n_failed": int(np.sum(~np.isfinite(arr))),
        "median_mm": _finite(np.median(arr)),
        "mean_mm": _finite(np.mean(arr)),
        "p95_mm": float(np.percentile(finite, 95)) if len(finite) else None,
        "max_mm": float(finite.max()) if len(finite) else None,
        "seconds": elapsed,
    }
    print(
        f"{stats['n']} berries in {elapsed:.1f} s: "
        f"median {_mm(stats['median_mm'])}, mean {_mm(stats['mean_mm'])}, "
        f"p95 {_mm(stats['p95_mm'])}, max {_mm(stats['max_mm'])}, {stats['n_failed']} failed"
    )
    if args.out:
        write_json(args.out, stats)
        print(f"stats written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
