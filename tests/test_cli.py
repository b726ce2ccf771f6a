"""Drive the CLI end to end through main() with real files."""

from __future__ import annotations

import base64
import json
from pathlib import Path

import numpy as np
import pytest

from berrypick import PointCloud, SceneConfig
from berrypick.cli import main, run
from berrypick.io_formats import write_ply
from berrypick.types import Pose

TEMPLATES = Path(__file__).resolve().parent.parent / "templates"


@pytest.fixture()
def template_path(tmp_path):
    cfg = SceneConfig(n_ripe=1, n_unripe=0, n_occluders=0)
    path = tmp_path / "template.json"
    path.write_text(json.dumps(cfg.to_json()) + "\n")
    return str(path)


def _partial_ply(tmp_path, prior, n=1500):
    pose = Pose(rotation=np.eye(3), translation=np.array([0.0, 0.0, 0.36]))
    rng = np.random.Generator(np.random.Philox(0))
    cloud = PointCloud(xyz=pose.apply(prior.sample_surface(n, rng)))
    path = tmp_path / "partial.ply"
    write_ply(str(path), cloud)
    return str(path)


def test_scene_render_plan_chain(tmp_path, template_path, capsys):
    scene_dir = tmp_path / "scene"
    assert main(["gen-scene", "--template", template_path, "--seed", "1",
                 "--out", str(scene_dir)]) == 0
    assert (scene_dir / "scene.json").exists()

    art_dir = tmp_path / "artifacts"
    assert main(["render", "--scene", str(scene_dir / "scene.json"), "--seed", "2",
                 "--sigma-mm", "1.0", "--dropout", "0.02", "--out", str(art_dir)]) == 0
    assert sorted(p.name for p in art_dir.iterdir()) == [
        "depth.pgm", "ground_truth.f64", "masks.pgm", "rgb.ppm", "scene.json"
    ]

    plan_path = tmp_path / "plan.json"
    assert main(["plan", "--scene-dir", str(art_dir), "--out", str(plan_path)]) == 0
    capsys.readouterr()
    plan = json.loads(plan_path.read_text())
    assert plan["feasible"] is True
    assert plan["detections"] == 1
    assert len(plan["waypoints"]) >= 2


def test_plan_reads_the_scene_rendered_last_into_a_directory(tmp_path, template_path, capsys):
    # Regression: a 1-berry scene rendered over a 5-berry one left the older
    # scene's extra mask files behind, and plan read them and exited 1 with
    # "mask_001.json: instance 1 is not a berry in scene.json".
    art_dir = tmp_path / "art"
    for template, seed in ((TEMPLATES / "cluttered.json", "3"), (template_path, "1")):
        scene_dir = tmp_path / f"scene_{seed}"
        assert main(["gen-scene", "--template", str(template), "--seed", seed,
                     "--out", str(scene_dir)]) == 0
        assert main(["render", "--scene", str(scene_dir / "scene.json"),
                     "--out", str(art_dir)]) == 0
    assert main(["plan", "--scene-dir", str(art_dir), "--out", str(tmp_path / "plan.json")]) == 0
    capsys.readouterr()
    assert json.loads((tmp_path / "plan.json").read_text())["detections"] == 1


def test_complete_and_eval_cd(tmp_path, prior, capsys):
    partial = _partial_ply(tmp_path, prior)
    out_dir = tmp_path / "completed"
    assert main(["complete", "--partial", partial, "--out", str(out_dir)]) == 0
    for name in ("completed.ply", "completion.json"):
        assert (out_dir / name).exists()
    stdout = capsys.readouterr().out
    assert json.loads(stdout.strip().splitlines()[-1])["fitness_mm"] < 2.0

    rc = main(["eval-cd", "--pred", str(out_dir / "completed.ply"),
               "--truth", str(out_dir / "completed.ply")])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["chamfer_loss"] == 0.0
    assert report["chamfer_metric_mm"] == 0.0


def test_bench_and_report(tmp_path, template_path, capsys):
    bench_dir = tmp_path / "bench"
    assert main(["bench", "--template", template_path, "--n", "2", "--seed", "3",
                 "--out", str(bench_dir)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["n_trials"] == 2
    assert (bench_dir / "metrics.json").exists()
    assert (bench_dir / "trials.csv").exists()

    report_dir = tmp_path / "report"
    assert main(["report", "--results", str(bench_dir),
                 "--baseline", str(bench_dir), "--out", str(report_dir)]) == 0
    out = capsys.readouterr().out
    assert "metric,baseline,ours,delta" in out
    table = (report_dir / "comparison.csv").read_text().splitlines()
    assert all(row.endswith(",0.0000") for row in table[1:])


def test_bench_ablation_layout(tmp_path, template_path, capsys):
    out_dir = tmp_path / "ablation"
    assert main(["bench", "--template", template_path, "--n", "1", "--seed", "5",
                 "--ablation", "--out", str(out_dir)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert set(summary) == {"full", "no_obstacles", "no_completion"}
    for variant in summary:
        assert (out_dir / variant / "metrics.json").exists()
    assert (out_dir / "comparison.csv").exists()


def test_plan_without_ripe_berries_fails(tmp_path, capsys):
    template = tmp_path / "unripe.json"
    template.write_text(
        json.dumps(SceneConfig(n_ripe=0, n_unripe=1, n_occluders=0).to_json())
    )
    scene_dir = tmp_path / "scene"
    art_dir = tmp_path / "art"
    assert main(["gen-scene", "--template", str(template), "--out", str(scene_dir)]) == 0
    assert main(["render", "--scene", str(scene_dir / "scene.json"),
                 "--out", str(art_dir)]) == 0
    rc = main(["plan", "--scene-dir", str(art_dir), "--out", str(tmp_path / "p.json")])
    capsys.readouterr()
    assert rc == 1


def test_cli_error_codes(tmp_path, template_path, prior, capsys):
    # bad usage
    assert main(["no-such-command"]) == 1
    assert main(["gen-scene", "--bogus"]) == 1
    # missing and malformed inputs
    assert main(["gen-scene", "--template", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "o")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["gen-scene", "--template", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert main(["eval-cd", "--pred", str(tmp_path / "a.ply"),
                 "--truth", str(tmp_path / "b.ply")]) == 1
    # registration that cannot start
    tiny = tmp_path / "tiny.ply"
    write_ply(str(tiny), PointCloud(xyz=np.zeros((3, 3)) + [0, 0, 0.3]))
    assert main(["complete", "--partial", str(tiny), "--out", str(tmp_path / "c")]) == 1
    assert main(["complete", "--partial", _partial_ply(tmp_path, prior),
                 "--prior", str(tmp_path / "missing.obj"),
                 "--out", str(tmp_path / "c2")]) == 1
    # unwritable output
    blocker = tmp_path / "blocker"
    blocker.write_text("x")
    scene_dir = tmp_path / "scene"
    assert main(["gen-scene", "--template", template_path, "--out", str(scene_dir)]) == 0
    rc = main(["render", "--scene", str(scene_dir / "scene.json"),
               "--out", str(blocker / "sub")])
    capsys.readouterr()
    assert rc == 2


def _single_error_line(capsys) -> str:
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err
    return err[0]


def test_a_plain_os_error_is_one_clean_error(capsys):
    """The runner the CLI and every script share: an OSError that no reader
    wrapped as a StorageError still exits 2 with one line."""

    def command():
        raise OSError("disk gone")

    assert run(command) == 2
    assert _single_error_line(capsys) == "error: disk gone"


@pytest.mark.parametrize(
    "config, message",
    [
        ({"voxel": 3}, "config.voxel must be a JSON object"),
        ({"icp": "fast"}, "config.icp must be a JSON object"),
        ({"voxel": {"voxel_size": "small"}}, "config.voxel.voxel_size must be a number"),
        ({"icp": {"restart_count": 1.5}}, "config.icp.restart_count must be an integer"),
        ({"use_obstacles": "no"}, "config.use_obstacles must be true or false"),
        ({"p_ee": [0, 0]}, "config.p_ee must be a list of 3 numbers"),
        ({"grid_resolution": float("nan")}, "config.grid_resolution must be finite"),
        ({"inflation": float("inf")}, "config.inflation must be finite"),
        ({"p_ee": [0, 0, float("nan")]}, "config.p_ee must be finite"),
        ({"gripper_radius": float("nan")}, "config.gripper_radius must be finite"),
        ({"icp": {"convergence_tol": float("nan")}}, "config.icp.convergence_tol must be finite"),
        ({"weights": {"lambda0": 1.0}}, "unknown config keys: ['weights']"),
        # Regression: a JSON integer beyond float range ended in an
        # OverflowError traceback.
        ({"p_ee": [0, 0, 10**400]}, "config.p_ee must be finite, got 1000"),
    ],
)
def test_mistyped_config_is_one_clean_error(tmp_path, template_path, capsys, config, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    rc = main(["bench", "--template", template_path, "--config", str(path),
               "--n", "1", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert message in _single_error_line(capsys)


def _negative_seed_flag(tmp_path):
    return ["--seed", "-1"]


def _negative_seed_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"rng_seed": -1}))
    # a config holds no seed: only --seed sets bench's seed
    return ["--config", str(path), "--seed", "3"]


_NEGATIVE_FLAG = "argument --seed: must be a non-negative integer, got '-1'"


@pytest.mark.parametrize(
    "command, extra, message",
    [
        ("gen-scene", _negative_seed_flag, _NEGATIVE_FLAG),
        ("render", _negative_seed_flag, _NEGATIVE_FLAG),
        ("bench", _negative_seed_flag, _NEGATIVE_FLAG),
        ("bench", _negative_seed_config, "cfg.json: unknown config keys: ['rng_seed']"),
    ],
    ids=["gen-scene", "render", "bench", "bench-config"],
)
def test_negative_seed_is_one_clean_error(tmp_path, template_path, capsys, command, extra, message):
    inputs = {
        "gen-scene": ["--template", template_path],
        "render": ["--scene", str(tmp_path / "scene.json")],
        "bench": ["--template", template_path, "--n", "1"],
    }[command]
    rc = main([command, *inputs, *extra(tmp_path), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert message in _single_error_line(capsys)
    assert not (tmp_path / "out").exists()


def test_config_holding_rng_seed_is_an_unknown_key_naming_it(tmp_path, template_path, capsys):
    # Regression: bench read a second seed from the config, which the
    # runners ignored whenever --seed was given.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"rng_seed": 0}))
    rc = main(["bench", "--template", template_path, "--config", str(path), "--n", "1",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    assert _single_error_line(capsys) == f"error: {path}: unknown config keys: ['rng_seed']"
    assert not (tmp_path / "out").exists()


def test_report_out_without_baseline_is_one_clean_error(tmp_path, template_path, capsys):
    # Regression: --out was read only with --baseline, so this exited 0 and
    # wrote nothing.
    bench_dir = tmp_path / "bench"
    assert main(["bench", "--template", template_path, "--n", "1", "--out", str(bench_dir)]) == 0
    capsys.readouterr()
    rc = main(["report", "--results", str(bench_dir), "--out", str(tmp_path / "rep")])
    assert rc == 1
    assert _single_error_line(capsys) == (
        "error: report --out writes comparison.csv, which needs --baseline"
    )
    assert not (tmp_path / "rep").exists()


_METRICS = dict(
    rho_a=50.0, rho_s=40.0, rho_s_over_a=80.0, rho_h=10.0, cd_mean_mm=1.0, cd_median_mm=1.0,
    n_trials=2, n_detections=2, n_attempts=1, n_successes=1, n_hit_trials=0,
)


@pytest.mark.parametrize(
    "text, message",
    [
        (None, "cannot read"),
        ("{bad", "is not valid JSON"),
        ('{"x": 1}', "unknown metrics keys: ['x']"),
        ("[1]", "must be a JSON object"),
        (json.dumps({**_METRICS, "rho_a": "high"}), "metrics.rho_a must be a number, got 'high'"),
        (json.dumps({**_METRICS, "rho_h": float("nan")}), "metrics.rho_h must be finite, got nan"),
        (json.dumps({**_METRICS, "n_trials": 2.5}), "metrics.n_trials must be an integer, got 2.5"),
        # Regression: a JSON integer beyond float range ended in an
        # OverflowError traceback.
        (json.dumps({**_METRICS, "rho_a": 10**400}), "metrics.rho_a must be finite, got 1000"),
    ],
    ids=["missing", "invalid-json", "unknown-key", "not-an-object", "string-ratio", "nan-ratio",
         "float-count", "huge-int-ratio"],
)
def test_malformed_metrics_is_one_clean_error(tmp_path, capsys, text, message):
    results = tmp_path / "results"
    results.mkdir()
    if text is not None:
        (results / "metrics.json").write_text(text)
    assert main(["report", "--results", str(results)]) == 1
    line = _single_error_line(capsys)
    assert message in line and str(results / "metrics.json") in line


@pytest.mark.parametrize(
    "document, content, message",
    [
        ("config", {"voxel": {"voxel_size": "x"}}, "config.voxel.voxel_size must be a number"),
        ("config", {"icp": {"restart_count": 0}},
         "invalid config value: all registration parameters must be positive"),
        ("template", {"n_ripe": 2.5}, "template.n_ripe must be an integer, got 2.5"),
        ("template", {"n_occluders": 10**9}, "object counts must lie in [0, 1000]"),
        ("template", {"n_ripe": 1001}, "object counts must lie in [0, 1000]"),
        ("scene", {"width": "640"}, "scene.width must be an integer, got '640'"),
        ("scene-dir", {"height": 1.5}, "scene.height must be an integer, got 1.5"),
        ("metrics", {**_METRICS, "n_trials": -1}, "invalid metrics report: n_trials = -1 is negative"),
        ("template", {"n_ripe": 1, "colour": "red"}, "unknown template keys: ['colour']"),
        ("scene", {"camera_model": "pinhole"}, "unknown scene keys: ['camera_model']"),
        ("scene-dir", {"camera_model": "pinhole"}, "unknown scene keys: ['camera_model']"),
        ("metrics", {**_METRICS, "rho_x": 1.0}, "unknown metrics keys: ['rho_x']"),
    ],
    ids=["config-schema", "config-value", "template", "template-n_occluders", "template-n_ripe",
         "render-scene", "plan-scene-dir", "metrics", "template-unknown-key",
         "render-scene-unknown-key", "plan-scene-dir-unknown-key", "metrics-unknown-key"],
)
def test_malformed_document_error_starts_with_its_path(
    tmp_path, rendered_dir, capsys, document, content, message
):
    folder = tmp_path / "bad"
    folder.mkdir()
    bad = folder / ("metrics.json" if document == "metrics" else f"{document}.json")
    if document.startswith("scene"):
        real = json.loads((rendered_dir / "scene.json").read_text())
        content = {**real, **content}
        if document == "scene-dir":
            bad = rendered_dir / "scene.json"
    bad.write_text(json.dumps(content))
    out = str(tmp_path / "out")
    args = {
        "config": ["plan", "--scene-dir", str(rendered_dir), "--config", str(bad), "--out", out],
        "template": ["gen-scene", "--template", str(bad), "--out", out],
        "scene": ["render", "--scene", str(bad), "--out", out],
        "scene-dir": ["plan", "--scene-dir", str(rendered_dir), "--out", out],
        "metrics": ["report", "--results", str(folder)],
    }[document]
    capsys.readouterr()
    assert main(args) == 1
    assert _single_error_line(capsys).startswith(f"error: {bad}: {message}")


@pytest.mark.parametrize(
    "body, message",
    [
        # Regression: a grid too fine for its extent overflowed the int cast
        # of its cell counts and ended in "ValueError: negative dimensions".
        ('{"grid_resolution": 1e-300}', "cells, more than 1e+08"),
        # Regression: voxel keys this fine wrapped in the int64 cast with a
        # RuntimeWarning, and every berry fell into one voxel.
        ('{"voxel": {"voxel_size": 1e-300}}', "voxel_size 1e-300 m is too small"),
        # Regression: an end-effector this far out overflowed np.linalg.norm
        # in estimate_grasp, with a RuntimeWarning above the error line.
        ('{"p_ee": [1e300, 0, 0]}', "p_ee coordinates must be finite and within 1000 m"),
    ],
    ids=["grid-resolution", "voxel-size", "p-ee-huge"],
)
@pytest.mark.filterwarnings("error")
def test_degenerate_grid_resolution_is_one_clean_error(tmp_path, rendered_dir, capsys, body, message):
    config = tmp_path / "tiny.json"
    config.write_text(body)
    capsys.readouterr()
    rc = main(["plan", "--scene-dir", str(rendered_dir), "--config", str(config),
               "--out", str(tmp_path / "p.json")])
    assert rc == 1
    assert message in _single_error_line(capsys)
    assert not (tmp_path / "p.json").exists()


@pytest.mark.parametrize(
    "header", ["ply\nformat\n", "ply\nformat ascii 1.0\nelement vertex x\nend_header\n"]
)
def test_malformed_ply_header_is_one_clean_error(tmp_path, capsys, header):
    bad = tmp_path / "bad.ply"
    bad.write_text(header)
    good = tmp_path / "good.ply"
    write_ply(str(good), PointCloud(xyz=np.zeros((1, 3))))
    assert main(["eval-cd", "--pred", str(bad), "--truth", str(good)]) == 1
    assert "malformed PLY header line" in _single_error_line(capsys)


@pytest.mark.parametrize("empty_side", ["--pred", "--truth"])
def test_eval_cd_names_an_empty_cloud(tmp_path, capsys, empty_side):
    empty = tmp_path / "empty.ply"
    write_ply(str(empty), PointCloud.empty())
    good = tmp_path / "good.ply"
    write_ply(str(good), PointCloud(xyz=np.zeros((1, 3))))
    paths = {"--pred": str(good), "--truth": str(good), empty_side: str(empty)}
    assert main(["eval-cd", *(item for pair in paths.items() for item in pair)]) == 1
    assert _single_error_line(capsys) == f"error: {empty}: chamfer distance needs a non-empty cloud"


@pytest.mark.parametrize("n", [0, 3])
def test_complete_names_a_cloud_too_small_to_register(tmp_path, capsys, n):
    # Regression: the error line gave the point count but not the file.
    small = tmp_path / "small.ply"
    write_ply(str(small), PointCloud(xyz=np.arange(3 * n, dtype=float).reshape(n, 3)))
    assert main(["complete", "--partial", str(small), "--out", str(tmp_path / "c")]) == 1
    assert _single_error_line(capsys) == (
        f"error: {small}: pose initialization needs at least 10 points, got {n}"
    )
    assert not (tmp_path / "c").exists()


@pytest.fixture()
def rendered_dir(tmp_path, template_path):
    scene_dir = tmp_path / "scene"
    art_dir = tmp_path / "artifacts"
    assert main(["gen-scene", "--template", template_path, "--seed", "1",
                 "--out", str(scene_dir)]) == 0
    assert main(["render", "--scene", str(scene_dir / "scene.json"), "--out", str(art_dir)]) == 0
    return art_dir


def _small_mask(art_dir):
    (art_dir / "masks.pgm").write_bytes(b"P5\n320 240\n65535\n" + bytes(2 * 320 * 240))


def _label_above_the_berries(art_dir):
    path = art_dir / "masks.pgm"
    data = bytearray(path.read_bytes())
    data[-2:] = (2).to_bytes(2, "big")  # the 1-berry scene's last pixel names berry 2
    path.write_bytes(bytes(data))


def _older_masks(art_dir):
    """Masks as an older version wrote them: a mask_NNN.pgm and .json per
    berry, and no masks.pgm."""
    (art_dir / "masks.pgm").unlink()
    (art_dir / "mask_000.pgm").write_bytes(b"P5\n640 480\n255\n" + bytes(640 * 480))
    (art_dir / "mask_000.json").write_text(json.dumps({"instance_id": 0, "ripeness": "ripe"}))


def _berry_missing_from_truth(art_dir):
    (art_dir / "ground_truth.f64").write_bytes(b"")


def _older_form(key, surface):
    """Ground truth as an older version wrote it: each berry's base64
    surface in ground_truth.json, under `key`, and no ground_truth.f64."""
    def corrupt(art_dir):
        raw = (art_dir / "ground_truth.f64").read_bytes()
        scene = json.loads((art_dir / "scene.json").read_text())
        doc = {"instances": [
            {**berry, key: surface(base64.b64encode(raw[24 * 4096 * k : 24 * 4096 * (k + 1)])
                                   .decode("ascii"))}
            for k, berry in enumerate(scene["berries"])
        ]}
        (art_dir / "ground_truth.json").write_text(json.dumps(doc))
        (art_dir / "ground_truth.f64").unlink()
    return corrupt


def _missing_surface_file(art_dir):
    (art_dir / "ground_truth.f64").unlink()


def _short_surface_file(art_dir):
    path = art_dir / "ground_truth.f64"
    path.write_bytes(path.read_bytes()[:-24])


def _non_finite_surface(art_dir):
    path = art_dir / "ground_truth.f64"
    xyz = np.frombuffer(path.read_bytes(), dtype="<f8").copy()
    xyz[7] = np.nan
    path.write_bytes(xyz.tobytes())


def _duplicate_mask_id(art_dir):
    """A mask's id is its berry's, so two masks share an id only when
    scene.json lists a berry twice."""
    _edit_json(art_dir / "scene.json", lambda doc: doc["berries"].append(doc["berries"][0]))


def _small_rgb(art_dir):
    (art_dir / "rgb.ppm").write_bytes(b"P6\n320 240\n255\n" + bytes(320 * 240 * 3))


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_small_mask, "masks.pgm: 320x240 image does not match the scene's 640x480"),
        (_small_rgb, "rgb.ppm: 320x240 image does not match the scene's 640x480"),
        (_label_above_the_berries, "{art_dir}/masks.pgm: label 2 names no berry, as scene.json "
                                   "has 1"),
        (_berry_missing_from_truth, "{art_dir}/ground_truth.f64 holds 0 bytes, but scene.json's "
                                    "1 berries take 98304"),
        (_older_form("surfaces", lambda text: [text] * 3),
         "scene artifacts missing ground_truth.f64 in {art_dir}"),
        (_older_form("surface", lambda text: text),
         "scene artifacts missing ground_truth.f64 in {art_dir}"),
        (_missing_surface_file, "scene artifacts missing ground_truth.f64 in {art_dir}"),
        (_short_surface_file, "{art_dir}/ground_truth.f64 holds 98280 bytes, but scene.json's 1 "
                              "berries take 98304"),
        (_non_finite_surface, "{art_dir}/ground_truth.f64: non-finite coordinate in row 2"),
        (_duplicate_mask_id, "{art_dir}/scene.json: duplicate berry instance ids"),
        (_older_masks, "scene artifacts missing masks.pgm in {art_dir}; scene directories "
                       "written before it keep a mask_NNN.pgm per berry: re-render the scene"),
    ],
    ids=["mask-size", "rgb-size", "mask-id-not-in-scene", "mask-id-not-in-truth", "three-surfaces",
         "base64-surface", "missing-surface-file", "short-surface-file", "non-finite-surface",
         "duplicate-mask-id", "missing-masks"],
)
def test_disagreeing_scene_files_are_one_clean_error(tmp_path, rendered_dir, capsys, corrupt, message):
    corrupt(rendered_dir)
    capsys.readouterr()
    rc = main(["plan", "--scene-dir", str(rendered_dir), "--out", str(tmp_path / "p.json")])
    assert rc == 1
    assert message.format(art_dir=rendered_dir) in _single_error_line(capsys)


def _edit_json(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def _set_first(name, key, field, value):
    def corrupt(art_dir):
        _edit_json(art_dir / name, lambda doc: doc[key][0].update({field: value}))
    return corrupt


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_set_first("scene.json", "berries", "instance_id", "0"),
         "scene.json: scene.berries.instance_id must be an integer, got '0'"),
        (_set_first("scene.json", "berries", "instance_id", False),
         "scene.json: scene.berries.instance_id must be an integer, got False"),
    ],
    ids=["scene-id-string", "scene-id-bool"],
)
def test_malformed_scene_documents_are_one_clean_error(tmp_path, rendered_dir, capsys, corrupt, message):
    corrupt(rendered_dir)
    capsys.readouterr()
    rc = main(["plan", "--scene-dir", str(rendered_dir), "--out", str(tmp_path / "p.json")])
    assert rc == 1
    assert message in _single_error_line(capsys)


_NOT_UTF8 = b'{"instance_id": 0, "ripeness": "ripe\xff"}'


@pytest.mark.parametrize("reader", ["template", "config"])
def test_non_utf8_json_is_one_clean_error(tmp_path, rendered_dir, template_path, capsys, reader):
    # Regression: a byte that is not UTF-8 in either of these JSON files
    # stopped in a UnicodeDecodeError traceback.
    bad = tmp_path / "bad.json"
    bad.write_bytes(_NOT_UTF8)
    plan = ["plan", "--scene-dir", str(rendered_dir), "--out", str(tmp_path / "p.json")]
    args = {
        "template": ["gen-scene", "--template", str(bad), "--out", str(tmp_path / "scene")],
        "config": [*plan, "--config", str(bad)],
    }[reader]
    capsys.readouterr()
    assert main(args) == 1
    line = _single_error_line(capsys)
    assert str(bad) in line and "can't decode byte 0xff" in line


@pytest.mark.parametrize("reader", ["render-scene", "bench-template", "bench-config",
                                    "plan-scene-dir", "report-results"])
def test_deeply_nested_json_is_one_clean_error(tmp_path, rendered_dir, template_path, capsys,
                                               reader):
    # Regression: JSON nested deeper than the parser's recursion limit
    # stopped in a RecursionError traceback.
    deep = "[" * 100_000 + "]" * 100_000
    bad = tmp_path / "deep.json"
    bad.write_text(deep)
    bench = ["bench", "--n", "1", "--out", str(tmp_path / "bench")]
    if reader == "plan-scene-dir":
        bad = rendered_dir / "scene.json"
        bad.write_text(deep)
    elif reader == "report-results":
        bad = tmp_path / "metrics.json"
        bad.write_text(deep)
    args = {
        "render-scene": ["render", "--scene", str(bad), "--out", str(tmp_path / "art")],
        "bench-template": [*bench, "--template", str(bad)],
        "bench-config": [*bench, "--template", template_path, "--config", str(bad)],
        "plan-scene-dir": ["plan", "--scene-dir", str(rendered_dir),
                           "--out", str(tmp_path / "p.json")],
        "report-results": ["report", "--results", str(tmp_path)],
    }[reader]
    capsys.readouterr()
    assert main(args) == 1
    line = _single_error_line(capsys)
    assert f"{bad} is not valid JSON: nested too deeply" in line


@pytest.mark.parametrize("header", [b"P5 0 0 65535", b"P6 0 0 255"], ids=["pgm", "ppm"])
def test_zero_size_netpbm_header_is_one_clean_error(tmp_path, rendered_dir, capsys, header):
    # Regression: with no byte after maxval, the payload offset passed the
    # end of the file and np.frombuffer ended in a ValueError traceback.
    path = rendered_dir / ("depth.pgm" if header.startswith(b"P5") else "rgb.ppm")
    path.write_bytes(header)
    capsys.readouterr()
    rc = main(["plan", "--scene-dir", str(rendered_dir), "--out", str(tmp_path / "p.json")])
    assert rc == 1
    assert _single_error_line(capsys) == (
        f"error: {path}: header ends without the whitespace byte after maxval"
    )


@pytest.mark.parametrize("name", ["depth.pgm", "masks.pgm", "rgb.ppm"])
def test_netpbm_bytes_after_the_payload_are_one_clean_error(tmp_path, rendered_dir, capsys, name):
    # Regression: a netpbm file read only the payload its header announced,
    # so bytes after it loaded without a word.
    path = rendered_dir / name
    path.write_bytes(path.read_bytes() + b"GARBAGE")
    payload = {"depth.pgm": 2, "masks.pgm": 2, "rgb.ppm": 3}[name] * 640 * 480
    capsys.readouterr()
    rc = main(["plan", "--scene-dir", str(rendered_dir), "--out", str(tmp_path / "p.json")])
    assert rc == 1
    assert (f"{path}: {payload + 7} payload bytes, but the 640x480 header gives "
            f"{payload}") in _single_error_line(capsys)


def test_duplicate_truth_id_is_one_clean_error(tmp_path, capsys):
    # Regression: a copy of berry 1's ground truth, relabelled 0 and put
    # first, used to be the truth berry 0 was scored against, so plan
    # exited 0 with a cd_mm of 109.2 for berry 0 instead of 0.378. Berry k's
    # truth is now the k-th surface of ground_truth.f64, so the copy makes one
    # surface more than scene.json has berries.
    scene_dir, art_dir = tmp_path / "scene", tmp_path / "artifacts"
    assert main(["gen-scene", "--template", str(TEMPLATES / "cluttered.json"), "--seed", "3",
                 "--out", str(scene_dir)]) == 0
    assert main(["render", "--scene", str(scene_dir / "scene.json"), "--seed", "0",
                 "--sigma-mm", "1.0", "--dropout", "0.02", "--out", str(art_dir)]) == 0
    surfaces = art_dir / "ground_truth.f64"
    raw = surfaces.read_bytes()
    berry_1 = raw[24 * 4096 : 2 * 24 * 4096]
    surfaces.write_bytes(berry_1 + raw)
    capsys.readouterr()
    rc = main(["plan", "--scene-dir", str(art_dir), "--out", str(tmp_path / "p.json")])
    assert rc == 1
    assert (f"{surfaces} holds {len(berry_1 + raw)} bytes, but scene.json's 5 berries take "
            f"{len(raw)}") in _single_error_line(capsys)


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("berries", "translation", [float("nan"), 0.0, 0.36],
         "scene.json: scene.berries.translation must be finite, got nan"),
        ("occluders", "center", [0.0, float("inf"), 0.2],
         "scene.json: scene.occluders.center must be finite, got inf"),
        ("occluders", "normal", [0.0, 0.0, float("nan")],
         "scene.json: scene.occluders.normal must be finite, got nan"),
        ("occluders", "semi_major", float("inf"),
         "scene.json: scene.occluders.semi_major must be finite, got inf"),
        ("intrinsics", "fx", float("inf"), "scene.json: scene.intrinsics.fx must be finite, got inf"),
        # Regression: int() and float() used to take fractions, strings and
        # bools, so "width": 640.9 rendered a 640-wide frame and "0.36" read
        # as 0.36. A section of None edits the top level of scene.json.
        (None, "width", 640.9, "scene.json: scene.width must be an integer, got 640.9"),
        (None, "width", "640", "scene.json: scene.width must be an integer, got '640'"),
        (None, "height", True, "scene.json: scene.height must be an integer, got True"),
        ("intrinsics", "fx", True, "scene.json: scene.intrinsics.fx must be a number, got True"),
        ("berries", "translation", ["0.0", "0.0", "0.36"],
         "scene.json: scene.berries.translation must be a number, got '0.0'"),
        ("berries", "rotation", [[True, 0, 0], [0, 1, 0], [0, 0, 1]],
         "scene.json: scene.berries.rotation must be a number, got True"),
        # Regression: an infinite entry reached the orthonormality check's
        # matmul, which printed a RuntimeWarning above the error line.
        ("berries", "rotation", [[float("inf"), 0, 0], [0, 1, 0], [0, 0, 1]],
         "scene.json: scene.berries.rotation must be finite, got inf"),
        # Regression: a JSON integer beyond float range ended in an
        # OverflowError traceback, and an entry of 1e308 overflowed the
        # orthonormality check's matmul with a RuntimeWarning.
        ("intrinsics", "fx", 10**400, "scene.json: scene.intrinsics.fx must be finite, got 1000"),
        ("berries", "translation", [0, 0, -(10**400)],
         "scene.json: scene.berries.translation must be finite, got -1000"),
        ("berries", "rotation", [[1e308, 0, 0], [0, 1, 0], [0, 0, 1]],
         "scene.json: rotation must be orthonormal"),
        ("occluders", "center", [0.0, 0.0, "0.2"],
         "scene.json: scene.occluders.center must be a number, got '0.2'"),
        ("occluders", "normal", [0, 0, "1"],
         "scene.json: scene.occluders.normal must be a number, got '1'"),
        ("occluders", "semi_major", "0.02",
         "scene.json: scene.occluders.semi_major must be a number, got '0.02'"),
        ("occluders", "roll_rad", False,
         "scene.json: scene.occluders.roll_rad must be a number, got False"),
        # Regression: a frame too large for numpy ended in a traceback from
        # np.zeros, and a merely absurd one tried to allocate gigabytes.
        (None, "width", 10**30, f"scene.json: a {10**30}x480 frame has more than 16777216 pixels"),
        # Regression: a finite but huge focal length overflowed the
        # rasterizer's screen areas.
        ("intrinsics", "fx", 1e200, "scene.json: focal lengths must be positive and at most 1e+06"),
        ("intrinsics", "fy", 1e200, "scene.json: focal lengths must be positive and at most 1e+06"),
    ],
    ids=["berry-nan", "occluder-center-inf", "occluder-normal-nan", "semi-major-inf", "fx-inf",
         "width-fraction", "width-string", "height-bool", "fx-bool", "translation-strings",
         "rotation-bool", "rotation-inf", "fx-huge-int", "translation-huge-int",
         "rotation-1e308", "occluder-center-string", "occluder-normal-string",
         "semi-major-string", "roll-bool", "width-huge", "fx-1e200", "fy-1e200"],
)
@pytest.mark.filterwarnings("error")
def test_non_finite_scene_coordinates_are_one_clean_error(tmp_path, capsys, section, key, value, message):
    template = tmp_path / "template.json"
    template.write_text(json.dumps(SceneConfig(n_ripe=1, n_unripe=0, n_occluders=1).to_json()))
    scene_dir = tmp_path / "scene"
    assert main(["gen-scene", "--template", str(template), "--out", str(scene_dir)]) == 0
    path = scene_dir / "scene.json"
    doc = json.loads(path.read_text())
    part = doc if section is None else doc[section]
    (part[0] if isinstance(part, list) else part)[key] = value
    path.write_text(json.dumps(doc))  # json writes NaN and Infinity, and reads them back
    capsys.readouterr()
    rc = main(["render", "--scene", str(path), "--out", str(tmp_path / "art")])
    assert rc == 1
    assert message in _single_error_line(capsys)


@pytest.mark.parametrize(
    "body, message",
    [
        ("v 0 0 0\nv 1 0 x\nv 0 1 0\nf 1 2 3\n", "bad.obj:2: malformed 'v' line"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\n\nf 1 2 4\n", "bad.obj:5: face index out of range 1..3"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2\n", "bad.obj:4: malformed 'f' line"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 b 3\n", "bad.obj:4: malformed 'f' line"),
    ],
    ids=["bad-vertex", "face-index-past-end", "short-face", "bad-face-index"],
)
def test_malformed_obj_prior_is_one_clean_error(tmp_path, prior, capsys, body, message):
    bad = tmp_path / "bad.obj"
    bad.write_text(body)
    rc = main(["complete", "--partial", _partial_ply(tmp_path, prior), "--prior", str(bad),
               "--out", str(tmp_path / "c")])
    assert rc == 1
    assert message in _single_error_line(capsys)


_TETRAHEDRON_FACES = "f 1 2 3\nf 1 3 4\nf 1 4 2\nf 2 4 3\n"


@pytest.mark.parametrize(
    "body, message",
    [
        ("v 0 0 0\n" * 4 + _TETRAHEDRON_FACES,
         "prior surface area must be finite and positive, got 0.0"),
        ("v 1e308 1e308 1e308\nv -1e308 -1e308 1e308\nv -1e308 1e308 -1e308\n"
         "v 1e308 -1e308 -1e308\n" + _TETRAHEDRON_FACES,
         "prior surface area must be finite and positive, got nan"),
        ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n", "prior mesh must be watertight"),
    ],
    ids=["zero-area", "overflowing-area", "open"],
)
@pytest.mark.filterwarnings("error")
def test_degenerate_obj_prior_is_one_clean_error_naming_it(
    tmp_path, prior, capsys, body, message
):
    # Regression: a zero-area or overflowing prior divided by its area with
    # a RuntimeWarning and ended in a cKDTree ValueError traceback; an open
    # one's error did not name the file.
    bad = tmp_path / "bad.obj"
    bad.write_text(body)
    rc = main(["complete", "--partial", _partial_ply(tmp_path, prior), "--prior", str(bad),
               "--out", str(tmp_path / "c")])
    assert rc == 1
    assert _single_error_line(capsys) == f"error: {bad}: {message}"


@pytest.mark.parametrize(
    "template, message",
    [
        ('{"workspace_lo": [NaN, -0.06, 0.3]}', "template.workspace_lo must be finite, got nan"),
        ('{"occluder_lateral_sigma": -1}', "must be nonnegative"),
        ('{"occluder_semi_axis_range": [0.03, -0.01]}', "occluder semi-axis range"),
        # Regression: counts and lists went to SceneConfig unchecked, so 2.5
        # ended in a TypeError traceback, true made one ripe berry and a
        # two-number workspace corner ended in an IndexError traceback.
        ('{"n_ripe": 2.5}', "template.n_ripe must be an integer, got 2.5"),
        ('{"n_ripe": true}', "template.n_ripe must be an integer, got True"),
        ('{"workspace_lo": [0, 0]}', "template.workspace_lo must be a list of 3 numbers"),
    ],
    ids=["workspace-nan", "negative-sigma", "reversed-semi-axes", "fractional-count",
         "bool-count", "short-workspace-corner"],
)
def test_malformed_template_values_are_one_clean_error(tmp_path, capsys, template, message):
    path = tmp_path / "template.json"
    path.write_text(template)
    rc = main(["gen-scene", "--template", str(path), "--out", str(tmp_path / "scene")])
    assert rc == 1
    assert message in _single_error_line(capsys)


def test_non_finite_noise_sigma_is_one_clean_error(tmp_path, rendered_dir, capsys):
    capsys.readouterr()
    rc = main(["render", "--scene", str(rendered_dir / "scene.json"), "--sigma-mm", "nan",
               "--out", str(tmp_path / "again")])
    assert rc == 1
    assert "noise sigma must be finite and nonnegative" in _single_error_line(capsys)
