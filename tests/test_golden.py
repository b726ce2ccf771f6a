"""Pinned behaviour digests: a fixed seed gives the same trial outcomes in
every version of the code, not only within one process.

Each digest is a sha256 over per-trial tuples (scene id, detections,
attempted, success, sorted hit ids, failure reason, completion distances
rounded to 1e-6 mm). The render digest covers every output of
``render_rgbd`` bit for bit, and the partials digest every denoised partial
cloud that ``extract_partials`` hands to completion. The command-line digest
covers what a fixed chain of commands prints and every file it writes.
Change a pin only for an intended behaviour change and record why in
CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
from conftest import CLUTTERED, SINGLE_BERRY, TEMPLATES

from berrypick import (
    PipelineConfig,
    RenderParams,
    generate_scene,
    render_rgbd,
    run_ablation,
    run_benchmark,
    run_completion_benchmark,
)
from berrypick.cli import main
from berrypick.io_formats import load_artifacts, write_ply
from berrypick.pipeline import _generated, extract_partials

RENDER = RenderParams(noise_sigma_mm=2.0, dropout_rate=0.05)

ABLATION_PIN = "aee9bce6d7efc05f960ee7545f46a1562d88562e29a64dbeb91c478f1f496b27"
COMPLETION_PIN = "50ca39c8e5440f4e809ed313fafc6617f9553d9cd901855657df32338c72cad9"
RENDER_PIN = "3ead8cbe809fc14a8b92c461864d9cb87f7def1928c914d550d0ae659d763283"
BENCHMARK_PIN = "0c1567971661a2dade95f0ea277c462cabb36045877582174a3ca8e791906fad"
PARTIALS_PIN = "2ff51aa66ccc141f43008c66a261944b0cd63edf1cbd2c43e6028d85f727999a"
CLI_PIN = "2ccee8b41482550ea9f6ae10388566d833a3ec72b38faf9405c8f93c4f8382f1"

# The command-line chain, run from inside an empty temporary directory so
# that every path it names, and so every line it prints, is relative. "partial.ply" and
# "truth.ply" are written between `plan` and `complete` from the rendered
# scene, see cli_digest.
CLI_CHAIN = [
    ["gen-scene", "--template", "template.json", "--seed", "3", "--out", "scene"],
    ["render", "--scene", "scene/scene.json", "--seed", "0", "--out", "art"],
    ["plan", "--scene-dir", "art", "--out", "plan.json"],
    ["complete", "--partial", "partial.ply", "--out", "completed"],
    ["eval-cd", "--pred", "completed/completed.ply", "--truth", "truth.ply"],
    ["bench", "--template", "template.json", "--n", "2", "--seed", "3", "--out", "bench"],
    ["bench", "--template", "template.json", "--n", "2", "--seed", "3", "--ablation",
     "--out", "ablation"],
    ["report", "--results", "bench", "--baseline", "ablation/no_obstacles", "--out", "report"],
]
CLI_FILES = [
    "scene/scene.json",
    *(f"art/{name}" for name in
      ("scene.json", "rgb.ppm", "depth.pgm", "masks.pgm", "ground_truth.f64")),
    "plan.json",
    "partial.ply",
    "truth.ply",
    "completed/completed.ply",
    "completed/completion.json",
    *(f"{run}/{name}" for run in ("bench", "ablation", "ablation/full",
                                  "ablation/no_obstacles", "ablation/no_completion")
      for name in ("metrics.json", "trials.csv")),
    "ablation/comparison.csv",
    "report/comparison.csv",
]


def _sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _trial_tuple(t) -> list:
    return [
        t.scene_id,
        t.detections,
        t.attempted,
        t.success,
        sorted(t.hit_ids),
        t.failure_reason.value if t.failure_reason else None,
        [round(cd, 6) for cd in t.cd_mm],
    ]


def ablation_digest(prior) -> str:
    runs = run_ablation(
        CLUTTERED, 20, PipelineConfig(inflation=0.018), seed=20260816,
        render_params=RENDER, prior=prior,
    )
    return _sha256({name: [_trial_tuple(t) for t in trials] for name, trials in sorted(runs.items())})


def benchmark_digest(prior) -> str:
    """run_benchmark on the ablation template, with and without obstacles."""
    runs = {
        name: run_benchmark(
            CLUTTERED, 10, cfg, seed=20260816, render_params=RENDER, prior=prior
        )
        for name, cfg in (
            ("full", PipelineConfig(inflation=0.018)),
            ("no_obstacles", PipelineConfig(inflation=0.018, use_obstacles=False)),
        )
    }
    return _sha256({name: [_trial_tuple(t) for t in trials] for name, trials in sorted(runs.items())})


def completion_digest(prior) -> str:
    cds = run_completion_benchmark(
        SINGLE_BERRY, 20, PipelineConfig(), seed=7, render_params=RENDER,
        min_visibility=0.4, prior=prior,
    )
    return _sha256([round(cd, 6) for cd in cds])


def render_digest(prior) -> str:
    """rgb, noisy and clean depth, mask ids and bits, and visibility of ten
    scenes per shipped template, with and without sensor noise."""
    h = hashlib.sha256()
    for template in (CLUTTERED, SINGLE_BERRY):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(4242)))
        for i in range(10):
            scene = generate_scene(template, prior, rng)
            for params in (RENDER, RenderParams(noise_sigma_mm=0.0, dropout_rate=0.0)):
                # a fresh SeedSequence per render: spawn() advances its state
                out = render_rgbd(scene, prior, params, np.random.SeedSequence([i, 31]))
                for image in (out.rgb, out.depth, out.clean_depth):
                    h.update(image.values.tobytes())
                for mask in out.masks:
                    h.update(str(mask.instance_id).encode())
                    h.update(mask.bits.tobytes())
                h.update(
                    json.dumps({k: float.hex(v) for k, v in sorted(out.visibility.items())}).encode()
                )
    return h.hexdigest()


def partials_digest(prior) -> str:
    """Mask id and point coordinates of every partial cloud of the first ten
    ablation-template scenes."""
    h = hashlib.sha256()
    cfg = PipelineConfig()
    for i in range(10):
        scene, render_ss, _ = _generated(CLUTTERED, 20260816, i, prior)
        out = render_rgbd(scene, prior, RENDER, render_ss)
        for mask, cloud in extract_partials(out.depth, scene.intrinsics, out.masks, cfg):
            h.update(str(mask.instance_id).encode())
            h.update(cloud.xyz.tobytes())
    return h.hexdigest()


def _write_chain_clouds() -> None:
    """The first berry's partial cloud and true surface of the scene that
    `render` wrote to art/, as the PLY inputs of `complete` and `eval-cd`."""
    artifacts = load_artifacts("art")
    mask, cloud = extract_partials(
        artifacts.depth, artifacts.scene.intrinsics, artifacts.masks, PipelineConfig()
    )[0]
    write_ply("partial.ply", cloud)
    write_ply("truth.ply", artifacts.truth.instance(mask.instance_id).surface)


def cli_digest(capsys) -> str:
    """Each CLI_CHAIN command's argv, exit code and stdout, then each
    CLI_FILES path and its bytes, in list order, run in the current
    directory."""
    Path("template.json").write_bytes((TEMPLATES / "cluttered.json").read_bytes())
    h = hashlib.sha256()
    for argv in CLI_CHAIN:
        if argv[0] == "complete":
            _write_chain_clouds()
        code = main(argv)
        out = capsys.readouterr()
        assert code == 0, out.err
        h.update(json.dumps([argv, code, out.out]).encode())
    for name in CLI_FILES:
        path = Path(name)
        assert path.is_file(), f"{name} was not written"
        data = path.read_bytes()
        h.update(json.dumps([name, len(data)]).encode())
        h.update(data)
    return h.hexdigest()


def test_ablation_outcomes_are_pinned(prior):
    assert ablation_digest(prior) == ABLATION_PIN


def test_benchmark_outcomes_are_pinned(prior):
    assert benchmark_digest(prior) == BENCHMARK_PIN


def test_completion_distances_are_pinned(prior):
    assert completion_digest(prior) == COMPLETION_PIN


def test_render_outputs_are_pinned(prior):
    assert render_digest(prior) == RENDER_PIN


def test_partial_clouds_are_pinned(prior):
    assert partials_digest(prior) == PARTIALS_PIN


def test_cli_outputs_are_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli_digest(capsys) == CLI_PIN
