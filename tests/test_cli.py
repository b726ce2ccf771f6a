"""Drive the CLI end to end through main() with real files."""

from __future__ import annotations

import json

import numpy as np
import pytest

from berrypick import PointCloud, SceneConfig
from berrypick.cli import main
from berrypick.io_formats import write_ply
from berrypick.types import Pose


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
    for name in ("rgb.ppm", "depth.pgm", "ground_truth.json", "scene.json"):
        assert (art_dir / name).exists()
    assert list(art_dir.glob("mask_*.pgm"))

    plan_path = tmp_path / "plan.json"
    assert main(["plan", "--scene-dir", str(art_dir), "--out", str(plan_path)]) == 0
    capsys.readouterr()
    plan = json.loads(plan_path.read_text())
    assert plan["feasible"] is True
    assert plan["detections"] == 1
    assert len(plan["waypoints"]) >= 2


def test_complete_and_eval_cd(tmp_path, prior, capsys):
    partial = _partial_ply(tmp_path, prior)
    out_dir = tmp_path / "completed"
    assert main(["complete", "--partial", partial, "--out", str(out_dir)]) == 0
    for name in ("p0.ply", "p1.ply", "p2.ply", "completion.json"):
        assert (out_dir / name).exists()
    stdout = capsys.readouterr().out
    assert json.loads(stdout.strip().splitlines()[-1])["fitness_mm"] < 2.0

    rc = main(["eval-cd", "--pred", str(out_dir / "p2.ply"),
               "--truth", str(out_dir / "p2.ply")])
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


@pytest.mark.parametrize(
    "config, message",
    [
        ({"voxel": 3}, "config.voxel must be a JSON object"),
        ({"icp": "fast"}, "config.icp must be a JSON object"),
        ({"voxel": {"voxel_size": "small"}}, "config.voxel.voxel_size must be a number"),
        ({"icp": {"restart_count": 1.5}}, "config.icp.restart_count must be an integer"),
        ({"use_obstacles": "no"}, "config.use_obstacles must be true or false"),
        ({"p_ee": [0, 0]}, "config.p_ee must be a list of 3 numbers"),
    ],
)
def test_mistyped_config_is_one_clean_error(tmp_path, template_path, capsys, config, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    rc = main(["bench", "--template", template_path, "--config", str(path),
               "--n", "1", "--out", str(tmp_path / "out")])
    assert rc == 1
    assert message in _single_error_line(capsys)


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
