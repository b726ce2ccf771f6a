"""The benchmark workloads, their output checks and the traced layers.

Every workload runs the paper's closed loop on synthetic scenes rendered with
2 mm depth noise and 5 % dropout. An op's inputs derive from the run's seed
as the entropy [seed, workload key, op index], so the streams of different
workloads never share a scene.

ablation        criterion-2 setup; one op is one cluttered scene through all
                three pipeline variants. The only workload that runs the
                ground-truth execution check.
scene_dir_plan  the CLI path `render --out` then `plan --scene-dir` on
                cluttered scenes: each op's scene is rendered as set-up
                (`prepare`), then the op saves its artifacts, loads them back
                and plans. The only workload that exercises io_formats;
                render shows only in its set-up time.

A criterion-1 completion workload is left out: about 3 of 4 of its scenes
miss the visibility floor, so an op's cost follows a seed-dependent count of
rejected renders, and its figures spread too far between seeds to gate on.

Each workload also runs a golden batch, the first `golden_ops` ops of its
development seed, whose per-op digests are pinned in pins.json. A changed
digest is a changed behaviour and fails that op.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from berrypick import (
    NoRipeTargetError,
    PipelineConfig,
    RenderParams,
    Ripeness,
    SceneConfig,
    StrawberryPrior,
    compute_metrics,
    generate_scene,
    io_formats,
    pipeline,
    render_scene_artifacts,
)
from harness import Layer

RENDER = RenderParams(noise_sigma_mm=2.0, dropout_rate=0.05)
VARIANTS = ("full", "no_obstacles", "no_completion")


def op_entropy(seed: int, key: int, index: int) -> list[int]:
    return [seed, key, index]


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _round(values) -> list[float]:
    return [round(float(v), 6) for v in values]


def _new_prior() -> StrawberryPrior:
    """Build the prior and fill its lazy sampling caches, as set-up."""
    prior = StrawberryPrior.builtin()
    for n in prior.densities:
        prior.canonical_samples(n)
    prior.registration_surface()
    prior.registration_normals()
    return prior


def _cluttered(root: Path) -> SceneConfig:
    text = (root / "templates" / "cluttered.json").read_text(encoding="utf-8")
    return SceneConfig.from_json(json.loads(text))


class Workload:
    """What every workload provides; see the module docstring."""

    name: str
    key: int  # keeps op seeds of different workloads apart
    dev_seed: int  # seed of the pinned golden batch, used while developing
    heldout_seed: int  # seed for confirming a claim, not used while developing
    golden_ops: int
    min_ops: int  # latency samples every run collects; sets the tail percentile

    def setup(self, root: Path, seed: int, work: Path):
        raise NotImplementedError

    def prepare(self, state, index: int) -> None:
        """Per-op set-up, timed into setup_s rather than into the op."""

    def op(self, state, index: int):
        raise NotImplementedError

    def check(self, state, index: int, outcome) -> str | None:
        """Invariants any op's outcome must hold; a message when one fails."""
        raise NotImplementedError

    def reference_problem(self, state, index: int, outcome) -> str | None:
        """A costlier cross-check, run on golden ops only."""
        return None

    def digest(self, index: int, outcome) -> str:
        raise NotImplementedError

    def quality(self, outcomes) -> dict:
        raise NotImplementedError


# ------------------------------------------------------------------ ablation


@dataclass
class AblationState:
    prior: StrawberryPrior
    template: SceneConfig
    cfg: PipelineConfig
    seed: int


class Ablation(Workload):
    name = "ablation"
    key = 1
    dev_seed = 20260816
    heldout_seed = 9127
    golden_ops = 8
    min_ops = 50

    def setup(self, root: Path, seed: int, work: Path) -> AblationState:
        return AblationState(_new_prior(), _cluttered(root), PipelineConfig(inflation=0.018), seed)

    def op(self, st: AblationState, index: int):
        return pipeline.run_ablation(
            st.template,
            1,
            st.cfg,
            seed=op_entropy(st.seed, self.key, index),
            render_params=RENDER,
            prior=st.prior,
        )

    def check(self, st: AblationState, index: int, runs) -> str | None:
        if sorted(runs) != sorted(VARIANTS) or any(len(runs[v]) != 1 for v in VARIANTS):
            return f"op {index}: expected one trial per variant, got {runs!r}"
        full, no_obs, no_comp = (runs[v][0] for v in VARIANTS)
        if not full.detections == no_obs.detections == no_comp.detections:
            return f"op {index}: variants saw different detections"
        if full.cd_mm != no_obs.cd_mm or no_comp.cd_mm:
            return f"op {index}: completion distances differ between variants"
        for name, trial in zip(VARIANTS, (full, no_obs, no_comp)):
            if (trial.failure_reason is None) != trial.success:
                return f"op {index} {name}: {trial.failure_reason} with success={trial.success}"
            if trial.hit_ids and not trial.attempted:
                return f"op {index} {name}: hits recorded without an attempt"
            if not all(np.isfinite(cd) and cd >= 0 for cd in trial.cd_mm):
                return f"op {index} {name}: invalid completion distance {trial.cd_mm}"
        return None

    def digest(self, index: int, runs) -> str:
        return _digest(
            {
                name: [
                    index,
                    t.detections,
                    t.attempted,
                    t.success,
                    sorted(t.hit_ids),
                    t.failure_reason.value if t.failure_reason else None,
                    _round(t.cd_mm),
                ]
                for name in VARIANTS
                for t in runs[name]
            }
        )

    def quality(self, outcomes) -> dict:
        by_variant = {v: [t for runs in outcomes for t in runs[v]] for v in VARIANTS}
        full = compute_metrics(by_variant["full"])
        no_comp = compute_metrics(by_variant["no_completion"])
        return {
            "cd_median_mm": full.cd_median_mm,
            "rho_s_over_a_pct": full.rho_s_over_a,
            "rho_h_pct": full.rho_h,
            "rho_s_over_a_gap_pp": full.rho_s_over_a - no_comp.rho_s_over_a,
            "trials": full.n_trials,
        }


# ------------------------------------------------------------ scene_dir_plan


@dataclass
class SceneDirState:
    prior: StrawberryPrior
    template: SceneConfig
    cfg: PipelineConfig
    seed: int
    work: Path
    scene: object = None  # artifacts prepared for the current op
    digests: dict = field(default_factory=dict)


class SceneDirPlan(Workload):
    name = "scene_dir_plan"
    key = 3
    dev_seed = 11
    heldout_seed = 5309
    golden_ops = 4
    min_ops = 70

    def setup(self, root: Path, seed: int, work: Path) -> SceneDirState:
        return SceneDirState(_new_prior(), _cluttered(root), PipelineConfig(), seed, work)

    def prepare(self, st: SceneDirState, index: int) -> None:
        """Render op `index`'s scene, as `berrypick render` would."""
        gen_ss, render_ss, truth_ss = np.random.SeedSequence(
            op_entropy(st.seed, self.key, index)
        ).spawn(3)
        scene = generate_scene(st.template, st.prior, np.random.Generator(np.random.Philox(gen_ss)))
        st.scene = render_scene_artifacts(scene, st.prior, RENDER, render_ss, truth_ss)

    def op(self, st: SceneDirState, index: int):
        scene_dir = str(st.work / f"scene_{index:05d}")
        io_formats.save_artifacts(scene_dir, st.scene)
        loaded = io_formats.load_artifacts(scene_dir)
        try:
            plan = pipeline.plan_scene(loaded, st.cfg, st.prior)
        except NoRipeTargetError:
            plan = "no_ripe"  # the CLI's clean error for a scene with no target
        return scene_dir, loaded, plan

    def check(self, st: SceneDirState, index: int, outcome) -> str | None:
        scene_dir, loaded, plan = outcome
        shutil.rmtree(scene_dir)
        problem = _artifact_mismatch(st.scene, loaded) or _plan_problem(loaded, plan)
        if problem:
            return f"op {index}: {problem}"
        digest = self.digest(index, outcome)
        if st.digests.setdefault(index, digest) != digest:  # a traced rerun
            return f"op {index}: plan differs from the first plan of this scene"
        return None

    def reference_problem(self, st: SceneDirState, index: int, outcome) -> str | None:
        """Compare the plan made from loaded artifacts with the in-memory plan."""
        try:
            expected = pipeline.plan_scene(st.scene, st.cfg, st.prior)
        except NoRipeTargetError:
            expected = "no_ripe"
        if _canonical_plan(expected) != _canonical_plan(outcome[2]):
            return f"op {index}: plan from loaded artifacts differs from the in-memory plan"
        return None

    def digest(self, index: int, outcome) -> str:
        return _digest(_canonical_plan(outcome[2]))

    def quality(self, outcomes) -> dict:
        plans = [plan for _, _, plan in outcomes if plan != "no_ripe"]
        cds = [cd for plan in plans for cd in plan["cd_mm"]]
        return {
            "cd_median_mm": statistics.median(cds) if cds else None,
            "plannable": len(plans),
            "no_ripe": len(outcomes) - len(plans),
        }


def _canonical_plan(plan):
    """Plan dict with every float rounded to 1e-6, or the no-ripe marker."""
    if plan == "no_ripe":
        return plan

    def walk(value):
        if isinstance(value, float):
            return round(value, 6)
        if isinstance(value, dict):
            return {k: walk(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [walk(v) for v in value]
        return value

    return walk(plan)


def _artifact_mismatch(saved, loaded) -> str | None:
    if saved.scene.to_json() != loaded.scene.to_json():
        return "scene document changed in the round trip"
    if not np.array_equal(saved.rgb.values, loaded.rgb.values):
        return "rgb image changed in the round trip"
    if not np.array_equal(saved.depth.values, loaded.depth.values):
        return "depth image changed in the round trip"
    if [(m.instance_id, m.ripeness) for m in saved.masks] != [
        (m.instance_id, m.ripeness) for m in loaded.masks
    ] or not all(np.array_equal(a.bits, b.bits) for a, b in zip(saved.masks, loaded.masks)):
        return "masks changed in the round trip"
    for a, b in zip(saved.truth.instances, loaded.truth.instances, strict=True):
        if a.instance_id != b.instance_id or not all(
            np.array_equal(x.xyz, y.xyz) for x, y in zip(a.surfaces, b.surfaces)
        ):
            return f"ground truth of berry {a.instance_id} changed in the round trip"
    return None


def _plan_problem(artifacts, plan) -> str | None:
    ripe = {b.instance_id for b in artifacts.scene.berries if b.ripeness is Ripeness.RIPE}
    if plan == "no_ripe":
        return None
    if plan["target_id"] not in ripe:
        return f"target {plan['target_id']} is not a ripe berry"
    waypoints = np.asarray(plan["waypoints"], dtype=float)
    if plan["feasible"] and (waypoints.ndim != 2 or waypoints.shape[1] != 3 or len(waypoints) < 2):
        return "feasible plan without a path"
    if plan["feasible"] and not np.allclose(waypoints[-1], plan["grasp"]["grasp_point"]):
        return "path does not end at the grasp point"
    return None


WORKLOADS = {w.name: w for w in (Ablation(), SceneDirPlan())}


# -------------------------------------------------------------- traced layers


def _observe_median(stats, args, kwargs, result):
    stats.add("px_in", args[0].values.size)


def _observe_points_out(stats, args, kwargs, result):
    stats.add("points_out", len(result))


def _observe_in_out(stats, args, kwargs, result):
    stats.add("points_in", len(args[0]))
    stats.add("points_out", len(result))


def _observe_icp(stats, args, kwargs, result):
    stats.add("restart_index", result.restart_index)
    stats.add("converged", bool(result.converged))
    stats.sample("fitness_mm", result.fitness_mm)


def _observe_occupancy(stats, args, kwargs, result):
    stats.add("cells", int(np.prod(result.dims)))
    stats.add("occupied", result.occupied_count)


def _observe_astar(stats, args, kwargs, result):
    if result is not None:
        stats.add("found", 1)
        stats.add("path_cells", len(result[0]))


def _observe_trajectory(stats, args, kwargs, result):
    stats.add("feasible", bool(result.feasible))


def _observe_execution(stats, args, kwargs, result):
    stats.add("segments", max(len(args[0].waypoints) - 1, 1))


def _observe_dir(stats, args, kwargs, result):
    stats.add("bytes", sum(e.stat().st_size for e in os.scandir(args[0]) if e.is_file()))


# Wrapped where callers look the names up: pipeline imports most stage
# functions into its own namespace, while rasterize, icp_refine and
# astar_grid are called from inside their own modules.
LAYERS = (
    Layer("scene.generate_scene", "berrypick.pipeline", "generate_scene"),
    Layer("render.render_rgbd", "berrypick.pipeline", "render_rgbd"),
    Layer("render.rasterize", "berrypick.render", "rasterize"),
    Layer("render.sample_ground_truth", "berrypick.pipeline", "sample_ground_truth"),
    Layer("preprocess.median_filter", "berrypick.pipeline", "median_filter", _observe_median),
    Layer(
        "preprocess.project_point_cloud",
        "berrypick.pipeline",
        "project_point_cloud",
        _observe_points_out,
    ),
    Layer("preprocess.extract_masked", "berrypick.pipeline", "extract_masked"),
    Layer("preprocess.voxel_downsample", "berrypick.pipeline", "voxel_downsample", _observe_in_out),
    Layer("preprocess.remove_outliers", "berrypick.pipeline", "remove_outliers", _observe_in_out),
    Layer("completion.complete_cloud", "berrypick.pipeline", "complete_cloud"),
    Layer("completion.icp_refine", "berrypick.completion", "icp_refine", _observe_icp),
    Layer("chamfer.chamfer_metric_mm", "berrypick.pipeline", "chamfer_metric_mm"),
    Layer("occupancy.build_occupancy", "berrypick.pipeline", "build_occupancy", _observe_occupancy),
    Layer("occupancy.build_obstacles", "berrypick.pipeline", "build_obstacles"),
    Layer("planning.astar_grid", "berrypick.planning", "astar_grid", _observe_astar),
    Layer("planning.plan_trajectory", "berrypick.pipeline", "plan_trajectory", _observe_trajectory),
    Layer(
        "planning.simulate_execution",
        "berrypick.pipeline",
        "simulate_execution",
        _observe_execution,
    ),
    Layer("planning.select_target", "berrypick.pipeline", "select_target"),
    Layer("planning.estimate_grasp", "berrypick.pipeline", "estimate_grasp"),
    Layer("io_formats.save_artifacts", "berrypick.io_formats", "save_artifacts", _observe_dir),
    Layer("io_formats.load_artifacts", "berrypick.io_formats", "load_artifacts", _observe_dir),
)

# Layers that call other wrapped layers report self time under `.self_s`.
SELF_TIMED = {"render.render_rgbd", "completion.complete_cloud", "planning.plan_trajectory"}


def layer_metrics(tracer, n_ops: int, traced_s: float, plain_s: float) -> dict:
    """Per-op figures for every traced layer, plus pipeline glue and overhead.

    Times are self times, so the layer times plus pipeline.self_s add up to
    trace.op_s. A ratio whose base count is zero reads 0. Every metric of a
    layer that could not be wrapped reads None.
    """
    st = tracer.stats
    out: dict[str, tuple[float | None, str]] = {}

    def ratio(a, b):
        return a / b if b else 0.0

    for layer in LAYERS:
        s = st[layer.name]
        suffix = "self_s" if layer.name in SELF_TIMED else "s"
        out[f"{layer.name}.{suffix}"] = (s.self_s / n_ops, "s/op")
        out[f"{layer.name}.calls"] = (s.calls / n_ops, "calls/op")

    def count(layer, key):
        return st[layer].counts.get(key, 0.0)

    out["preprocess.median_filter.px_in"] = (
        count("preprocess.median_filter", "px_in") / n_ops,
        "px/op",
    )
    out["preprocess.project_point_cloud.points_out"] = (
        count("preprocess.project_point_cloud", "points_out") / n_ops,
        "points/op",
    )
    for key in ("points_in", "points_out"):
        out[f"preprocess.voxel_downsample.{key}"] = (
            count("preprocess.voxel_downsample", key) / n_ops,
            "points/op",
        )
    outliers = "preprocess.remove_outliers"
    out[f"{outliers}.kept_ratio"] = (
        ratio(count(outliers, "points_out"), count(outliers, "points_in")),
        "ratio",
    )
    cc = st["completion.complete_cloud"]
    out["completion.complete_cloud.failed_ratio"] = (ratio(cc.raised, cc.calls), "ratio")
    icp = st["completion.icp_refine"]
    out["completion.icp_refine.restart_index_mean"] = (
        ratio(count("completion.icp_refine", "restart_index"), icp.calls - icp.raised),
        "index",
    )
    out["completion.icp_refine.converged_ratio"] = (
        ratio(count("completion.icp_refine", "converged"), icp.calls - icp.raised),
        "ratio",
    )
    fitness = icp.samples.get("fitness_mm", [])
    out["completion.icp_refine.fitness_mm_median"] = (
        statistics.median(fitness) if fitness else 0.0,
        "mm",
    )
    occ = "occupancy.build_occupancy"
    out[f"{occ}.cells"] = (ratio(count(occ, "cells"), st[occ].calls), "cells/call")
    out[f"{occ}.occupied_ratio"] = (ratio(count(occ, "occupied"), count(occ, "cells")), "ratio")
    astar = "planning.astar_grid"
    out[f"{astar}.found_ratio"] = (ratio(count(astar, "found"), st[astar].calls), "ratio")
    out[f"{astar}.path_cells"] = (
        ratio(count(astar, "path_cells"), count(astar, "found")),
        "cells/path",
    )
    traj = "planning.plan_trajectory"
    out[f"{traj}.feasible_ratio"] = (ratio(count(traj, "feasible"), st[traj].calls), "ratio")
    execution = "planning.simulate_execution"
    out[f"{execution}.segments"] = (
        ratio(count(execution, "segments"), st[execution].calls),
        "segments/call",
    )
    save, load = "io_formats.save_artifacts", "io_formats.load_artifacts"
    out[f"{save}.bytes"] = (count(save, "bytes") / n_ops, "B/op")
    out[f"{save}.write_MBps"] = (ratio(count(save, "bytes") / 1e6, st[save].total_s), "MB/s")
    out[f"{load}.read_MBps"] = (ratio(count(load, "bytes") / 1e6, st[load].total_s), "MB/s")

    out["pipeline.self_s"] = ((traced_s - tracer.covered_s) / n_ops, "s/op")
    out["trace.op_s"] = (traced_s / n_ops, "s/op")
    out["trace.overhead_pct"] = (100.0 * (traced_s / plain_s - 1.0), "%")

    absent = tuple(f"{name}." for name in tracer.absent)
    return {
        name: {"value": None if name.startswith(absent) else value, "unit": unit}
        for name, (value, unit) in out.items()
    }
