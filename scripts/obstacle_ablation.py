#!/usr/bin/env python3
"""Three-way pipeline ablation over identical cluttered scenes.

Runs the full pipeline, the no-obstacle variant (plans through an empty
occupancy map) and the no-completion variant (plans on raw partial clouds),
then prints the grasp ratios side by side.

Usage:
    python scripts/obstacle_ablation.py [--n 100] [--seed 20260816] [--out results/]

Exit codes are the CLI's: 0 success, 1 input error (one `error:` line), 2 when
writing the output fails.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

from berrypick import (
    PipelineConfig,
    RenderParams,
    StrawberryPrior,
    compute_metrics,
    emit_report,
    run_ablation,
)
from berrypick.cli import _Parser, _load_template, _seed
from berrypick.errors import BerrypickError, StorageError

TEMPLATES = Path(__file__).resolve().parents[1] / "templates"


def main() -> int:
    try:
        return _run()
    except BerrypickError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, StorageError) else 1


def _run() -> int:
    parser = _Parser(description=__doc__)
    parser.add_argument("--template", default=str(TEMPLATES / "cluttered.json"))
    parser.add_argument("--n", type=int, default=100, help="number of scenes")
    parser.add_argument("--seed", type=_seed, default=20260816)
    parser.add_argument("--sigma-mm", type=float, default=2.0)
    parser.add_argument("--dropout", type=float, default=0.05)
    parser.add_argument("--inflation", type=float, default=0.018)
    parser.add_argument("--out", default=None, help="optional report directory")
    args = parser.parse_args()

    template = _load_template(args.template)
    cfg = PipelineConfig(inflation=args.inflation)

    start = time.perf_counter()
    runs = run_ablation(
        template,
        args.n,
        cfg,
        seed=args.seed,
        render_params=RenderParams(args.sigma_mm, args.dropout),
        prior=StrawberryPrior.builtin(),
    )
    elapsed = time.perf_counter() - start
    reports = {name: compute_metrics(results) for name, results in runs.items()}

    print(f"{args.n} scenes x 3 variants in {elapsed:.1f} s")
    header = f"{'variant':<16}{'rho_a':>8}{'rho_s':>8}{'rho_s/a':>9}{'rho_h':>8}"
    print(header)
    for name in ("full", "no_obstacles", "no_completion"):
        r = reports[name]
        print(f"{name:<16}{r.rho_a:>8.2f}{r.rho_s:>8.2f}{r.rho_s_over_a:>9.2f}{r.rho_h:>8.2f}")

    full, blind = reports["full"], reports["no_obstacles"]
    ratio = full.rho_h / blind.rho_h if blind.rho_h else float("nan")
    gap = full.rho_s_over_a - reports["no_completion"].rho_s_over_a
    print(f"hit-rate ratio (full / no_obstacles): {ratio:.2f}")
    print(f"rho_s/rho_a gap over no_completion: {gap:+.1f} pp")

    if args.out:
        for name, results in runs.items():
            emit_report(reports[name], results, os.path.join(args.out, name))
        emit_report(reports["full"], runs["full"], args.out, baseline=blind)
        print(f"reports written under {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
