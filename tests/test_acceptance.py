"""Release gate: seven end-to-end criteria with pinned thresholds.

Each test prints exactly one verdict line (visible under pytest -s, and in
the captured output on failure) and then asserts it. Thresholds, seeds and
time budgets are fixed; editing them weakens the gate.
"""

from __future__ import annotations

import math
import time

import numpy as np
from conftest import CLUTTERED, MOVES, SINGLE_BERRY, chamfer_loss_brute, dijkstra_cost, rodrigues

from berrypick import (
    FailureReason,
    OccupancyGrid,
    PipelineConfig,
    PointCloud,
    RenderParams,
    SceneConfig,
    astar_grid,
    chamfer_loss,
    compute_metrics,
    emit_report,
    icp_refine,
    median_filter,
    project_point_cloud,
    render_rgbd,
    run_ablation,
    run_benchmark,
    run_completion_benchmark,
    select_target,
    voxel_downsample,
)
from berrypick.planning import Candidate
from berrypick.scene import generate_scene
from berrypick.types import DepthImage, Pose, Ripeness, VoxelParams


def _verdict(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {name}: {status} ({detail})", flush=True)
    assert ok, f"criterion {number} ({name}): {detail}"


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_completion_accuracy(prior):
    start = time.perf_counter()
    cds = run_completion_benchmark(
        SINGLE_BERRY,
        100,
        PipelineConfig(),
        seed=7,
        render_params=RenderParams(noise_sigma_mm=2.0, dropout_rate=0.05),
        min_visibility=0.4,
        prior=prior,
    )
    elapsed = time.perf_counter() - start
    median = float(np.median(cds))
    mean = float(np.mean(cds))
    ok = len(cds) == 100 and median <= 2.0 and mean <= 3.0 and elapsed <= 60.0
    _verdict(
        1,
        "completion accuracy",
        ok,
        f"median {median:.3f} mm (<= 2.0), mean {mean:.3f} mm (<= 3.0), "
        f"{elapsed:.1f} s (<= 60)",
    )


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_obstacle_ablation(prior):
    cfg = PipelineConfig(inflation=0.018)
    start = time.perf_counter()
    runs = run_ablation(
        CLUTTERED,
        100,
        cfg,
        seed=20260816,
        render_params=RenderParams(noise_sigma_mm=2.0, dropout_rate=0.05),
        prior=prior,
    )
    elapsed = time.perf_counter() - start
    full = compute_metrics(runs["full"])
    no_obstacles = compute_metrics(runs["no_obstacles"])
    no_completion = compute_metrics(runs["no_completion"])

    halved = full.rho_h <= 0.5 * no_obstacles.rho_h
    gap = full.rho_s_over_a - no_completion.rho_s_over_a
    ok = halved and gap >= 10.0 and elapsed <= 300.0
    _verdict(
        2,
        "obstacle ablation",
        ok,
        f"rho_h {full.rho_h:.2f} vs {no_obstacles.rho_h:.2f} without obstacles "
        f"(need <= half), rho_s/rho_a gap {gap:+.1f} pp (need >= +10), "
        f"{elapsed:.1f} s (<= 300)",
    )


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_chamfer_oracle():
    rng = np.random.default_rng(123)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n, m = rng.integers(10, 2001, size=2)
        a = PointCloud(xyz=rng.normal(scale=0.1, size=(n, 3)))
        b = PointCloud(xyz=rng.normal(scale=0.1, size=(m, 3)))
        fast = chamfer_loss(a, b)
        brute = chamfer_loss_brute(a, b)
        if not math.isclose(fast, brute, rel_tol=1e-9, abs_tol=1e-12):
            _verdict(3, "chamfer oracle", False, f"fast {fast!r} vs brute {brute!r}")
        if brute:
            worst = max(worst, abs(fast - brute) / brute)
    elapsed = time.perf_counter() - start
    ok = elapsed <= 30.0
    _verdict(
        3,
        "chamfer oracle",
        ok,
        f"200 pairs within 1e-9 relative (worst {worst:.2e}), {elapsed:.1f} s (<= 30)",
    )


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_planner_optimality():
    rng = np.random.default_rng(2024)
    start_time = time.perf_counter()
    solved = 0
    disconnected = 0
    for _ in range(50):
        occupied = rng.random((32, 32, 32)) < 0.2
        free = np.argwhere(~occupied)
        pick = rng.choice(len(free), size=2, replace=False)
        start, goal = tuple(free[pick[0]]), tuple(free[pick[1]])
        grid = OccupancyGrid(
            origin=np.zeros(3), resolution=1.0, occupied=occupied
        )
        outcome = astar_grid(grid, start, goal)
        reference = dijkstra_cost(occupied, start, goal)
        if outcome is None:
            if not math.isinf(reference):
                _verdict(4, "planner optimality", False,
                         f"A* found no path but Dijkstra cost is {reference}")
            disconnected += 1
            continue
        path, cost = outcome
        if not math.isclose(cost, reference, rel_tol=1e-9, abs_tol=1e-9):
            _verdict(4, "planner optimality", False,
                     f"cost {cost!r} vs Dijkstra {reference!r}")
        # independent re-check: endpoints, connectivity, freedom, cost re-sum
        assert path[0] == start and path[-1] == goal
        total = 0.0
        for a, b in zip(path, path[1:]):
            step = tuple(y - x for x, y in zip(a, b))
            assert step in MOVES
            assert not occupied[b]
            total += math.sqrt(sum(s * s for s in step))
        assert not occupied[path[0]]
        assert math.isclose(total, cost, rel_tol=1e-12)
        solved += 1
    elapsed = time.perf_counter() - start_time
    ok = elapsed <= 30.0
    _verdict(
        4,
        "planner optimality",
        ok,
        f"50 grids ({solved} solved, {disconnected} disconnected, all matching "
        f"Dijkstra, paths re-checked), {elapsed:.1f} s (<= 30)",
    )


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_registration_recovery(prior):
    base = np.array([0.0, 0.0, 0.36])
    recovered = 0
    monotone = True
    for i in range(100):
        rng = np.random.default_rng(500 + i)
        rotation = rodrigues(rng.normal(size=3), rng.uniform(0.0, 20.0))
        offset = rng.normal(size=3)
        offset *= rng.uniform(0.0, 0.01) / np.linalg.norm(offset)
        true = Pose(rotation=rotation, translation=base + offset)

        sample = true.apply(prior.sample_surface(2500, rng))
        keep = int(rng.uniform(0.4, 0.7) * len(sample))
        partial = PointCloud(xyz=sample[np.argsort(sample[:, 2])[:keep]])

        init = Pose(rotation=np.eye(3), translation=base)
        result = icp_refine(partial, prior, init)

        history = result.residual_history_mm
        if any(b > a for a, b in zip(history, history[1:])):
            monotone = False

        # the prior is rotationally symmetric about its axis and mirror
        # symmetric along it, so compare axes up to sign
        dot = abs(float(result.pose.rotation[:, 2] @ true.rotation[:, 2]))
        angle = math.degrees(math.acos(min(1.0, dot)))
        terr = float(np.linalg.norm(result.pose.translation - true.translation))
        if angle <= 2.0 and terr <= 0.001:
            recovered += 1

    ok = recovered >= 95 and monotone
    _verdict(
        5,
        "registration recovery",
        ok,
        f"{recovered}/100 within 2 deg / 1 mm (need >= 95), residual histories "
        f"{'all non-increasing' if monotone else 'NOT monotone'}",
    )


# ---------------------------------------------------------------- criterion 6


def _check_voxel_centroid_bounds() -> str | None:
    rng = np.random.default_rng(60)
    xyz = rng.uniform(-0.05, 0.05, size=(500, 3))
    size = 0.01
    out = voxel_downsample(PointCloud(xyz=xyz), VoxelParams(voxel_size=size, min_points=1))
    occupied = {tuple(b) for b in np.floor(xyz / size).astype(int)}
    if len(out) > len(occupied):
        return f"{len(out)} voxels out of {len(occupied)} occupied bins"
    out_bins = np.floor(out.xyz / size).astype(int)
    if any(tuple(b) not in occupied for b in out_bins):
        return "a centroid escaped its voxel cube"
    return None


def _check_median_value_containment() -> str | None:
    rng = np.random.default_rng(61)
    values = rng.integers(0, 2000, size=(24, 30)).astype(np.uint16)
    out = median_filter(DepthImage(values=values)).values
    invented = sorted(set(np.unique(out).tolist()) - set(np.unique(values).tolist()))
    if invented:
        return f"filter invented values not present in the input: {invented[:5]}"
    for v in range(values.shape[0]):
        for u in range(values.shape[1]):
            window = values[max(0, v - 2) : v + 3, max(0, u - 2) : u + 3]
            if out[v, u] not in window:
                return f"pixel ({v},{u}) got {out[v, u]}, outside its clamped window"
    return None


def _check_mask_partition(prior) -> str | None:
    cfg = SceneConfig(n_ripe=2, n_unripe=2, n_occluders=1)
    scene = generate_scene(cfg, prior, np.random.Generator(np.random.Philox(62)))
    rendered = render_rgbd(scene, prior, RenderParams(0.0, 0.0))
    stack = np.stack([m.bits for m in rendered.masks])
    if (stack.sum(axis=0) > 1).any():
        return "instance masks overlap"
    filtered = median_filter(rendered.clean_depth)
    from berrypick import extract_masked

    sizes = [
        len(project_point_cloud(extract_masked(filtered, m.bits), scene.intrinsics))
        for m in rendered.masks
    ]
    union = stack.any(axis=0) & (median_filter(rendered.clean_depth).values > 0)
    if sum(sizes) != int(union.sum()):
        return f"per-mask extraction sizes {sizes} do not partition the union"
    return None


def _check_select_target_determinism() -> str | None:
    rng = np.random.default_rng(63)
    candidates = [
        Candidate(
            instance_id=i,
            ripeness=Ripeness.RIPE,
            cloud=PointCloud(xyz=np.array([x, 0.0, 0.3]) + np.zeros((4, 3))),
        )
        for i, x in ((4, 0.03), (1, -0.03), (9, 0.03))
    ]
    p_ee = np.array([0.0, 0.0, 0.05])
    picks = set()
    for _ in range(100):
        order = list(candidates)
        rng.shuffle(order)
        picks.add(select_target(order, p_ee))
    if picks != {1}:
        return f"tie-break produced {sorted(picks)}"
    return None


def _check_rho_identities() -> str | None:
    from types import SimpleNamespace

    rng = np.random.default_rng(64)
    for _ in range(50):
        n_det = int(rng.integers(1, 60))
        n_att = int(rng.integers(0, n_det + 1))
        n_suc = int(rng.integers(0, n_att + 1))
        trials = [
            SimpleNamespace(
                detections=1,
                attempted=i < n_att,
                success=i < n_suc,
                hit_ids=frozenset(),
                cd_mm=(),
            )
            for i in range(n_det)
        ]
        report = compute_metrics(trials)
        if abs(report.rho_s - report.rho_s_over_a * report.rho_a / 100.0) > 1e-9:
            return "rho_s != rho_s_over_a * rho_a / 100"
        if not (0 <= report.rho_s <= report.rho_a <= 100):
            return "rho ordering violated"
    return None


def _check_benchmark_byte_determinism(prior, tmp_path) -> str | None:
    template = SceneConfig(n_ripe=1, n_unripe=1, n_occluders=1)
    payloads = []
    for run in range(2):
        results = run_benchmark(
            template, 4, PipelineConfig(), seed=11,
            render_params=RenderParams(2.0, 0.05), prior=prior,
        )
        out = tmp_path / f"run{run}"
        paths = emit_report(compute_metrics(results), results, str(out))
        payloads.append(
            tuple(open(paths[k], "rb").read() for k in ("metrics", "trials"))
        )
    if payloads[0] != payloads[1]:
        return "repeated benchmark runs produced different report bytes"
    return None


def test_criterion_6_invariant_suite(prior, tmp_path):
    failures = []
    for name, problem in (
        ("voxel centroid bounds", _check_voxel_centroid_bounds()),
        ("median value containment", _check_median_value_containment()),
        ("mask partition", _check_mask_partition(prior)),
        ("select_target determinism", _check_select_target_determinism()),
        ("rho identities", _check_rho_identities()),
        ("byte determinism", _check_benchmark_byte_determinism(prior, tmp_path)),
    ):
        if problem is not None:
            failures.append(f"{name}: {problem}")
    _verdict(
        6,
        "invariant suite",
        not failures,
        "; ".join(failures) if failures else "all six invariants hold",
    )


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_terminal_outcomes(prior, success_scene, no_ripe_scene, caged_scene):
    from berrypick import render_scene_artifacts, run_pipeline

    params = RenderParams(0.5, 0.01)
    cfg = PipelineConfig()

    success = run_pipeline(render_scene_artifacts(success_scene, prior, params), cfg, prior)
    no_ripe = run_pipeline(render_scene_artifacts(no_ripe_scene, prior, params), cfg, prior)
    caged = run_pipeline(render_scene_artifacts(caged_scene, prior, params), cfg, prior)

    ok = (
        success.success
        and success.failure_reason is None
        and not no_ripe.attempted
        and no_ripe.failure_reason is FailureReason.NO_RIPE
        and not caged.attempted
        and caged.failure_reason is FailureReason.INFEASIBLE_PATH
    )
    _verdict(
        7,
        "terminal outcomes",
        ok,
        f"clear scene -> {('success' if success.success else success.failure_reason)}, "
        f"unripe scene -> {no_ripe.failure_reason.value}, "
        f"caged scene -> {caged.failure_reason.value}",
    )
