"""Ratio definitions, report files, and their round trips."""

from __future__ import annotations

import hashlib
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berrypick import (
    FailureReason,
    MetricsReport,
    InputError,
    ParameterError,
    StorageError,
    compute_metrics,
    emit_report,
)
from berrypick.io_formats import read_json
from berrypick.metrics import TRIALS_CSV_HEADER


def _trial(
    scene_id=0,
    detections=1,
    attempted=True,
    success=True,
    hit_ids=(),
    cd_mm=(),
    failure_reason=None,
):
    mean = sum(cd_mm) / len(cd_mm) if cd_mm else None
    return SimpleNamespace(
        scene_id=scene_id,
        detections=detections,
        attempted=attempted,
        success=success,
        hit_ids=frozenset(hit_ids),
        cd_mm=tuple(cd_mm),
        cd_mm_mean=mean,
        failure_reason=failure_reason,
    )


def _trials_from_counts(n_detections, n_attempts, n_successes, n_hits):
    """One trial per detection: attempts, successes and hits assigned greedily."""
    trials = []
    for i in range(n_detections):
        attempted = i < n_attempts
        trials.append(
            _trial(
                scene_id=i,
                detections=1,
                attempted=attempted,
                success=attempted and i < n_successes,
                hit_ids=(99,) if attempted and i < n_hits else (),
            )
        )
    return trials


# ---------------------------------------------------------------- ratios


def test_ratios_pinned_by_hand():
    report = compute_metrics(_trials_from_counts(48, 43, 35, 5))
    assert report.rho_a == pytest.approx(100.0 * 43 / 48)
    assert report.rho_s == pytest.approx(100.0 * 35 / 48)
    assert report.rho_s_over_a == pytest.approx(100.0 * 35 / 43)
    assert report.rho_h == pytest.approx(100.0 * 5 / 43)
    assert report.n_trials == 48
    assert (report.n_detections, report.n_attempts) == (48, 43)
    assert (report.n_successes, report.n_hit_trials) == (35, 5)


def test_thirteen_of_thirty():
    report = compute_metrics(_trials_from_counts(30, 30, 13, 0))
    assert report.rho_s == pytest.approx(43.3333, abs=1e-4)
    assert report.rho_h == 0.0


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=200),
    st.data(),
)
def test_ratio_identity_holds(n_detections, data):
    n_attempts = data.draw(st.integers(min_value=0, max_value=n_detections))
    n_successes = data.draw(st.integers(min_value=0, max_value=n_attempts))
    n_hits = data.draw(st.integers(min_value=0, max_value=n_attempts))
    report = compute_metrics(
        _trials_from_counts(n_detections, n_attempts, n_successes, n_hits)
    )
    assert report.rho_s == pytest.approx(
        report.rho_s_over_a * report.rho_a / 100.0, abs=1e-9
    )
    for value in (report.rho_a, report.rho_s, report.rho_s_over_a, report.rho_h):
        assert 0.0 <= value <= 100.0


def test_metrics_zero_activity():
    report = compute_metrics([_trial(detections=1, attempted=False, success=False)])
    assert report.rho_a == 0.0
    assert report.rho_s == 0.0
    assert report.rho_s_over_a == 0.0
    assert report.rho_h == 0.0


def test_metrics_cd_statistics():
    trials = [
        _trial(cd_mm=(1.0, 2.0)),
        _trial(scene_id=1, cd_mm=(3.0,)),
    ]
    report = compute_metrics(trials)
    assert report.cd_mean_mm == pytest.approx(2.0)
    assert report.cd_median_mm == pytest.approx(2.0)
    empty = compute_metrics([_trial(cd_mm=())])
    assert empty.cd_mean_mm is None
    assert empty.cd_median_mm is None


def test_metrics_validation():
    with pytest.raises(ParameterError):
        compute_metrics([])
    base = dict(
        rho_a=50.0, rho_s=25.0, rho_s_over_a=50.0, rho_h=0.0,
        cd_mean_mm=None, cd_median_mm=None,
        n_trials=4, n_detections=4, n_attempts=2, n_successes=1, n_hit_trials=0,
    )
    MetricsReport(**base)
    with pytest.raises(ParameterError):
        MetricsReport(**{**base, "rho_a": 101.0})
    with pytest.raises(ParameterError):
        MetricsReport(**{**base, "rho_s": 60.0})


# ---------------------------------------------------------------- report files


def test_emit_report_writes_expected_files(tmp_path):
    trials = [
        _trial(scene_id=0, cd_mm=(1.5,)),
        _trial(
            scene_id=1,
            attempted=False,
            success=False,
            failure_reason=FailureReason.NO_RIPE,
        ),
    ]
    report = compute_metrics(trials)
    paths = emit_report(report, trials, str(tmp_path / "out"))
    assert set(paths) == {"metrics", "trials"}

    lines = open(paths["trials"], encoding="utf-8").read().splitlines()
    assert lines[0] == TRIALS_CSV_HEADER
    assert lines[0] == "scene_id,detections,attempted,success,n_hits,failure_reason,cd_mm_mean"
    assert lines[1].startswith("0,1,true,true,0,,")
    assert lines[2] == "1,1,false,false,0,no_ripe,"

    loaded = read_json(paths["metrics"], MetricsReport.from_json)
    assert loaded == report


def test_emit_report_comparison(tmp_path):
    ours = compute_metrics(_trials_from_counts(10, 9, 8, 1))
    base = compute_metrics(_trials_from_counts(10, 8, 4, 4))
    paths = emit_report(ours, [], str(tmp_path / "cmp"), baseline=base)
    lines = open(paths["comparison"], encoding="utf-8").read().splitlines()
    assert lines[0] == "metric,baseline,ours,delta"
    assert len(lines) == 5
    row = dict(line.split(",", 1) for line in lines[1:])
    assert row["rho_s"] == "40.0000,80.0000,40.0000"


def test_emit_report_unwritable_path(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    report = compute_metrics([_trial()])
    with pytest.raises(StorageError):
        emit_report(report, [], str(blocker / "sub"))


def test_load_metrics_missing_file(tmp_path):
    with pytest.raises(InputError):
        read_json(str(tmp_path / "absent.json"), MetricsReport.from_json)


def _golden_trials():
    """Every failure reason, hits, and empty and non-empty cd_mm with
    shortest-repr floats that need all 17 digits."""
    return [
        _trial(scene_id=0, cd_mm=(0.1 + 0.2, 1.0 / 3.0)),
        _trial(scene_id=1, detections=3, hit_ids=(4, 7), cd_mm=(2.5,)),
        _trial(
            scene_id=2, attempted=False, success=False, failure_reason=FailureReason.NO_RIPE
        ),
        _trial(
            scene_id=3,
            detections=2,
            attempted=False,
            success=False,
            failure_reason=FailureReason.REGISTRATION_FAILURE,
        ),
        _trial(
            scene_id=4,
            attempted=False,
            success=False,
            cd_mm=(0.7071067811865476,),
            failure_reason=FailureReason.INFEASIBLE_PATH,
        ),
        _trial(
            scene_id=5,
            success=False,
            hit_ids=(2,),
            cd_mm=(1e-5, 12345.678),
            failure_reason=FailureReason.MISSED_GRASP,
        ),
    ]


EMIT_REPORT_PINS = {
    "metrics": "a9c8c11048fc24cd72421e741b7ec8ee5167102d30b37772cac65777b1211021",
    "trials": "4b9406f25d1550731b704d759f77ee553389bdbb0d335ddf7a5b3d7391e90c94",
    "comparison": "8c26051231029e79374f368fd5768617908611978a9c0b36a7bbf7d80d74e56f",
}


def test_emit_report_bytes_pinned(tmp_path):
    """metrics.json, trials.csv and comparison.csv, byte for byte."""
    trials = _golden_trials()
    baseline = compute_metrics(_trials_from_counts(10, 8, 4, 4))
    paths = emit_report(compute_metrics(trials), trials, str(tmp_path), baseline=baseline)
    digests = {
        name: hashlib.sha256(Path(path).read_bytes()).hexdigest() for name, path in paths.items()
    }
    assert digests == EMIT_REPORT_PINS
