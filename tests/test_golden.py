"""Pinned behaviour digests: a fixed seed gives the same trial outcomes in
every version of the code, not only within one process.

Each digest is a sha256 over per-trial tuples (scene id, detections,
attempted, success, sorted hit ids, failure reason, completion distances
rounded to 1e-6 mm). Change a pin only for an intended behaviour change and
record why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json

from berrypick import (
    PipelineConfig,
    RenderParams,
    SceneConfig,
    run_ablation,
    run_completion_benchmark,
)

RENDER = RenderParams(noise_sigma_mm=2.0, dropout_rate=0.05)

ABLATION_PIN = "aee9bce6d7efc05f960ee7545f46a1562d88562e29a64dbeb91c478f1f496b27"
COMPLETION_PIN = "50ca39c8e5440f4e809ed313fafc6617f9553d9cd901855657df32338c72cad9"


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
    template = SceneConfig(
        n_ripe=2,
        n_unripe=3,
        n_occluders=3,
        clutter_spacing=0.002,
        workspace_lo=(-0.05, -0.04, 0.31),
        workspace_hi=(0.05, 0.04, 0.40),
    )
    runs = run_ablation(
        template, 20, PipelineConfig(inflation=0.018), seed=20260816,
        render_params=RENDER, prior=prior,
    )
    return _sha256({name: [_trial_tuple(t) for t in trials] for name, trials in sorted(runs.items())})


def completion_digest(prior) -> str:
    template = SceneConfig(n_ripe=1, n_unripe=0, n_occluders=1, clutter_spacing=0.002)
    cds = run_completion_benchmark(
        template, 20, PipelineConfig(), seed=7, render_params=RENDER,
        min_visibility=0.4, prior=prior,
    )
    return _sha256([round(cd, 6) for cd in cds])


def test_ablation_outcomes_are_pinned(prior):
    assert ablation_digest(prior) == ABLATION_PIN


def test_completion_distances_are_pinned(prior):
    assert completion_digest(prior) == COMPLETION_PIN
