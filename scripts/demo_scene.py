#!/usr/bin/env python3
"""Generate one scene, render it, plan a grasp, and dump every artifact.

Usage:
    python scripts/demo_scene.py --out /tmp/demo [--template templates/cluttered.json] [--seed 3]

Exit codes are the CLI's: 0 success, 1 input error (one `error:` line) or no
ripe target, 2 when writing the output fails.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from berrypick import (
    NoRipeTargetError,
    PipelineConfig,
    RenderParams,
    StrawberryPrior,
    generate_scene,
    plan_and_run,
    render_scene_artifacts,
)
from berrypick.cli import _Parser, _load_template, _seed, run
from berrypick.io_formats import _write_text, save_artifacts

TEMPLATES = Path(__file__).resolve().parents[1] / "templates"


def main() -> int:
    return run(_run)


def _run() -> int:
    parser = _Parser(description=__doc__)
    parser.add_argument("--template", default=str(TEMPLATES / "cluttered.json"))
    parser.add_argument("--seed", type=_seed, default=3)
    parser.add_argument("--sigma-mm", type=float, default=2.0)
    parser.add_argument("--dropout", type=float, default=0.05)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    template = _load_template(args.template)
    prior = StrawberryPrior.builtin()

    gen_ss, render_ss, truth_ss = np.random.SeedSequence(args.seed).spawn(3)
    scene = generate_scene(template, prior, np.random.Generator(np.random.Philox(gen_ss)))
    artifacts = render_scene_artifacts(
        scene, prior, RenderParams(args.sigma_mm, args.dropout), render_ss, truth_ss
    )
    save_artifacts(args.out, artifacts)

    try:
        plan, trial = plan_and_run(artifacts, PipelineConfig(), prior)
    except NoRipeTargetError as exc:
        print(f"no plan: {exc}")
        return 1
    plan_path = os.path.join(args.out, "plan.json")
    _write_text(plan_path, json.dumps(plan, indent=2, sort_keys=True) + "\n")

    print(f"artifacts: {args.out}")
    print(f"berries: {len(scene.berries)}, occluders: {len(scene.occluders)}")
    print(f"detections: {plan['detections']}, target: instance {plan['target_id']}")
    print(f"feasible: {plan['feasible']}, waypoints: {len(plan['waypoints'])}")
    if plan["cd_mm"]:
        print("completion error (mm): " + ", ".join(f"{cd:.2f}" for cd in plan["cd_mm"]))
    verdict = "success" if trial.success else (
        trial.failure_reason.value if trial.failure_reason else "failure"
    )
    print(f"simulated execution: {verdict}, brushed {len(trial.hit_ids)} other berries")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
