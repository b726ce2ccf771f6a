"""Command-line harness.

Subcommands: gen-scene, render, complete, plan, bench, eval-cd, report.
Exit codes: 0 success, 1 input error (bad arguments, malformed files,
unregistrable inputs), 2 I/O error while writing outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable

import numpy as np

from .chamfer import chamfer_figures
from .completion import complete_cloud
from .errors import BerrypickError, InputError, InsufficientDataError, RegistrationError
from .io_formats import (
    load_artifacts,
    read_json,
    read_ply,
    save_artifacts,
    write_json,
    write_ply,
    _write_text,
)
from .metrics import (
    MetricsReport,
    comparison_csv,
    compute_metrics,
    emit_ablation_report,
    emit_report,
)
from .pipeline import (
    PipelineConfig,
    plan_scene,
    render_scene_artifacts,
    run_ablation,
    run_benchmark,
)
from .prior import StrawberryPrior
from .render import RenderParams
from .scene import SceneConfig, SceneTemplate, generate_scene
from .types import PointCloud


class _Parser(argparse.ArgumentParser):
    """argparse normally exits(2) on bad usage; route that to exit code 1."""

    def error(self, message):
        raise InputError(message)


def _load_config(path: str | None) -> PipelineConfig:
    return PipelineConfig() if path is None else read_json(path, PipelineConfig.from_json)


def _load_prior(spec: str) -> StrawberryPrior:
    if spec == "builtin":
        return StrawberryPrior.builtin()
    if not os.path.exists(spec):
        raise InputError(f"prior mesh {spec} not found (use 'builtin' or an OBJ path)")
    return StrawberryPrior.from_obj(spec)


def _seed(text: str) -> int:
    """argparse type for --seed: SeedSequence takes non-negative integers only."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _render_params(args) -> RenderParams:
    return RenderParams(noise_sigma_mm=args.sigma_mm, dropout_rate=args.dropout)


def _cmd_gen_scene(args) -> int:
    template = read_json(args.template, SceneConfig.from_json)
    prior = StrawberryPrior.builtin()
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(args.seed)))
    scene = generate_scene(template, prior, rng)
    os.makedirs(args.out, exist_ok=True)
    write_json(os.path.join(args.out, "scene.json"), scene.to_json())
    print(os.path.join(args.out, "scene.json"))
    return 0


def _cmd_render(args) -> int:
    scene = read_json(args.scene, SceneTemplate.from_json)
    prior = StrawberryPrior.builtin()
    render_ss, truth_ss = np.random.SeedSequence(args.seed).spawn(2)
    artifacts = render_scene_artifacts(scene, prior, _render_params(args), render_ss, truth_ss)
    save_artifacts(args.out, artifacts)
    print(args.out)
    return 0


def _cmd_complete(args) -> int:
    cloud = read_ply(args.partial)
    prior = _load_prior(args.prior)
    cfg = _load_config(args.config)
    try:
        result = complete_cloud(cloud, prior, cfg.icp)
    except (InsufficientDataError, RegistrationError) as exc:
        raise InputError(f"{args.partial}: {exc}") from exc
    os.makedirs(args.out, exist_ok=True)
    write_ply(os.path.join(args.out, "completed.ply"), result.cloud)
    fitness = {"fitness_mm": result.icp.fitness_mm}
    write_json(os.path.join(args.out, "completion.json"), {**result.icp.pose.to_json(), **fitness})
    print(json.dumps(fitness))
    return 0


def _cmd_plan(args) -> int:
    artifacts = load_artifacts(args.scene_dir)
    cfg = _load_config(args.config)
    plan = plan_scene(artifacts, cfg)
    write_json(args.out, plan)
    print(args.out)
    return 0


def _cmd_bench(args) -> int:
    template = read_json(args.template, SceneConfig.from_json)
    cfg = _load_config(args.config)
    params = _render_params(args)
    if args.ablation:
        runs = run_ablation(template, args.n, cfg, args.seed, params)
        reports = emit_ablation_report(runs, args.out)
        summary = {name: reports[name].to_json() for name in reports}
    else:
        results = run_benchmark(template, args.n, cfg, args.seed, params)
        report = compute_metrics(results)
        emit_report(report, results, args.out)
        summary = report.to_json()
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def _nonempty_ply(path: str) -> PointCloud:
    cloud = read_ply(path)
    if len(cloud) == 0:
        raise InputError(f"{path}: chamfer distance needs a non-empty cloud")
    return cloud


def _cmd_eval_cd(args) -> int:
    pred, truth = (_nonempty_ply(path) for path in (args.pred, args.truth))
    loss, metric_mm = chamfer_figures(pred, truth)
    out = {"chamfer_loss": loss, "chamfer_metric_mm": metric_mm}
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def _cmd_report(args) -> int:
    if args.out and not args.baseline:
        raise InputError("report --out writes comparison.csv, which needs --baseline")
    ours = read_json(os.path.join(args.results, "metrics.json"), MetricsReport.from_json)
    lines = [json.dumps(ours.to_json(), indent=2, sort_keys=True)]
    if args.baseline:
        baseline = read_json(os.path.join(args.baseline, "metrics.json"), MetricsReport.from_json)
        table = comparison_csv(ours, baseline)
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            _write_text(os.path.join(args.out, "comparison.csv"), table)
        lines.append(table.rstrip("\n"))
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="berrypick", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-scene", help="instantiate a random scene from a template")
    p.add_argument("--template", required=True, help="SceneConfig JSON file")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=_cmd_gen_scene)

    p = sub.add_parser("render", help="render RGB-D artifacts for a scene")
    p.add_argument("--scene", required=True, help="scene.json path")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--sigma-mm", type=float, default=1.0, help="depth noise sigma")
    p.add_argument("--dropout", type=float, default=0.02, help="depth dropout rate")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_render)

    p = sub.add_parser("complete", help="complete a partial cloud against the prior")
    p.add_argument("--partial", required=True, help="input PLY")
    p.add_argument("--prior", default="builtin", help="'builtin' or OBJ mesh path")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_complete)

    p = sub.add_parser("plan", help="plan a grasp for rendered scene artifacts")
    p.add_argument("--scene-dir", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True, help="plan.json path")
    p.set_defaults(fn=_cmd_plan)

    p = sub.add_parser("bench", help="run a multi-scene benchmark")
    p.add_argument("--template", required=True)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--config", default=None)
    p.add_argument("--sigma-mm", type=float, default=1.0)
    p.add_argument("--dropout", type=float, default=0.02)
    p.add_argument("--ablation", action="store_true", help="run full/no-obstacle/no-completion variants")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("eval-cd", help="chamfer distance between two PLY clouds")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.set_defaults(fn=_cmd_eval_cd)

    p = sub.add_parser("report", help="print metrics, optionally against a baseline")
    p.add_argument("--results", required=True, help="directory holding metrics.json")
    p.add_argument("--baseline", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_report)

    return parser


def run(command: Callable[[], int]) -> int:
    """command()'s exit code, under the contract of every entry point: an
    I/O error (StorageError or any OSError) exits 2 and any other library
    error exits 1, each with one `error:` line on stderr."""
    try:
        return command()
    except (BerrypickError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, OSError) else 1


def main(argv=None) -> int:
    def command() -> int:
        args = build_parser().parse_args(argv)
        return args.fn(args)

    return run(command)


if __name__ == "__main__":
    sys.exit(main())
