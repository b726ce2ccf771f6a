"""Benchmark metrics and report files.

Ratios follow the evaluation convention of dividing by detections: an
attempt is a trial that produced and executed a feasible trajectory, a
success additionally landed within tolerance of the true target center, and
a hit incident is a trial that touched at least one non-target berry (a
trial counts once no matter how many berries it brushed). Raw counts ride
along so any alternative convention can be recomputed from the report.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass

import numpy as np

from .errors import InputError, ParameterError, StorageError
from .io_formats import _write_text, write_json
from .types import check_like


@dataclass(frozen=True)
class MetricsReport:
    rho_a: float
    rho_s: float
    rho_s_over_a: float
    rho_h: float
    cd_mean_mm: float | None
    cd_median_mm: float | None
    n_trials: int
    n_detections: int
    n_attempts: int
    n_successes: int
    n_hit_trials: int

    def __post_init__(self):
        for name in ("rho_a", "rho_s", "rho_s_over_a", "rho_h"):
            value = getattr(self, name)
            if not 0.0 <= value <= 100.0 + 1e-9:
                raise ParameterError(f"{name} = {value} outside [0, 100]")
        if self.rho_s > self.rho_a + 1e-9:
            raise ParameterError("success rate cannot exceed attempt rate")
        for name in ("n_trials", "n_detections", "n_attempts", "n_successes", "n_hit_trials"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} = {getattr(self, name)} is negative")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj) -> "MetricsReport":
        """Strict parse against _METRICS_SHAPE: exactly the report's keys,
        counts as integers, the ratios as finite numbers and the CD
        statistics as finite numbers or null."""
        check_like(obj, _METRICS_SHAPE, "metrics")
        missing = set(_METRICS_SHAPE) - set(obj)
        if missing:
            raise InputError(f"metrics keys missing: {sorted(missing)}")
        try:
            return cls(**obj)
        except ParameterError as exc:
            raise InputError(f"invalid metrics report: {exc}") from exc


# The document compute_metrics writes, with no CD statistics: the shape
# MetricsReport.from_json checks every metrics.json against.
_METRICS_SHAPE = MetricsReport(0.0, 0.0, 0.0, 0.0, None, None, 0, 0, 0, 0, 0).to_json()


def compute_metrics(results) -> MetricsReport:
    """Fold a list of trial results into the four ratios plus CD statistics."""
    results = list(results)
    if not results:
        raise ParameterError("cannot compute metrics over zero trials")
    n_detections = sum(r.detections for r in results)
    n_attempts = sum(1 for r in results if r.attempted)
    n_successes = sum(1 for r in results if r.success)
    n_hit_trials = sum(1 for r in results if r.attempted and r.hit_ids)

    rho_a = 100.0 * n_attempts / n_detections if n_detections else 0.0
    rho_s = 100.0 * n_successes / n_detections if n_detections else 0.0
    rho_h = 100.0 * n_hit_trials / n_attempts if n_attempts else 0.0
    rho_s_over_a = 100.0 * n_successes / n_attempts if n_attempts else 0.0

    cds = [cd for r in results for cd in r.cd_mm]
    return MetricsReport(
        rho_a=rho_a,
        rho_s=rho_s,
        rho_s_over_a=rho_s_over_a,
        rho_h=rho_h,
        cd_mean_mm=float(np.mean(cds)) if cds else None,
        cd_median_mm=float(np.median(cds)) if cds else None,
        n_trials=len(results),
        n_detections=n_detections,
        n_attempts=n_attempts,
        n_successes=n_successes,
        n_hit_trials=n_hit_trials,
    )


TRIALS_CSV_HEADER = "scene_id,detections,attempted,success,n_hits,failure_reason,cd_mm_mean"


def _trial_row(r) -> list[str]:
    return [
        str(r.scene_id),
        str(r.detections),
        "true" if r.attempted else "false",
        "true" if r.success else "false",
        str(len(r.hit_ids)),
        r.failure_reason.value if r.failure_reason is not None else "",
        repr(r.cd_mm_mean) if r.cd_mm_mean is not None else "",
    ]


def emit_report(
    report: MetricsReport,
    results,
    out_dir: str,
    baseline: MetricsReport | None = None,
) -> dict[str, str]:
    """Write metrics.json through write_json and trials.csv, one row per
    trial under TRIALS_CSV_HEADER; with a baseline report, also
    comparison_csv's side-by-side comparison.csv. Returns the paths written,
    keyed "metrics", "trials" and "comparison". A failed write raises
    StorageError."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise StorageError(f"cannot create {out_dir}: {exc}") from exc
    paths = {
        "metrics": os.path.join(out_dir, "metrics.json"),
        "trials": os.path.join(out_dir, "trials.csv"),
    }
    write_json(paths["metrics"], report.to_json())
    rows = [TRIALS_CSV_HEADER, *(",".join(_trial_row(r)) for r in results)]
    _write_text(paths["trials"], "\n".join(rows) + "\n")
    if baseline is not None:
        paths["comparison"] = os.path.join(out_dir, "comparison.csv")
        _write_text(paths["comparison"], comparison_csv(report, baseline))
    return paths


def emit_ablation_report(reports: dict[str, MetricsReport], runs: dict, out_dir: str) -> None:
    """One report directory per variant under out_dir, plus a root report of
    the full variant compared with no_obstacles as its baseline."""
    for name, results in runs.items():
        emit_report(reports[name], results, os.path.join(out_dir, name))
    emit_report(reports["full"], runs["full"], out_dir, baseline=reports["no_obstacles"])


def comparison_csv(report: MetricsReport, baseline: MetricsReport) -> str:
    """The four ratios side by side with their deltas, as CSV text."""
    rows = ["metric,baseline,ours,delta"]
    for name in ("rho_a", "rho_s", "rho_s_over_a", "rho_h"):
        b = getattr(baseline, name)
        o = getattr(report, name)
        rows.append(f"{name},{b:.4f},{o:.4f},{o - b:.4f}")
    return "\n".join(rows) + "\n"
