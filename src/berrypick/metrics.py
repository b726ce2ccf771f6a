"""Benchmark metrics and report files.

Ratios follow the evaluation convention of dividing by detections: an
attempt is a trial that produced and executed a feasible trajectory, a
success additionally landed within tolerance of the true target center, and
a hit incident is a trial that touched at least one non-target berry (a
trial counts once no matter how many berries it brushed). Raw counts ride
along so any alternative convention can be recomputed from the report.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import InputError, ParameterError, StorageError


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

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj) -> "MetricsReport":
        """Strict parse: exactly the report's keys, counts as integers, the
        ratios as finite numbers and the CD statistics as numbers or null."""
        if not isinstance(obj, dict):
            raise InputError("a metrics report must be a JSON object")
        names = {f.name for f in fields(cls)}
        if set(obj) != names:
            raise InputError(
                f"metrics keys missing: {sorted(names - set(obj))}, "
                f"unknown: {sorted(set(obj) - names)}"
            )
        for name, value in obj.items():
            number = isinstance(value, (int, float)) and not isinstance(value, bool)
            if name.startswith("n_"):
                ok = number and isinstance(value, int) and value >= 0
            else:
                ok = (number and math.isfinite(value)) or (name.startswith("cd_") and value is None)
            if not ok:
                raise InputError(f"metrics field {name} has invalid value {value!r}")
        try:
            return cls(**obj)
        except ParameterError as exc:
            raise InputError(f"invalid metrics report: {exc}") from exc


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
    """Write metrics.json and trials.csv; with a baseline report, also a
    side-by-side comparison.csv including the rho deltas. Returns the paths."""
    try:
        os.makedirs(out_dir, exist_ok=True)
        paths = {}

        metrics_path = os.path.join(out_dir, "metrics.json")
        with open(metrics_path, "w", encoding="utf-8") as fh:
            json.dump(report.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths["metrics"] = metrics_path

        trials_path = os.path.join(out_dir, "trials.csv")
        with open(trials_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(TRIALS_CSV_HEADER.split(","))
            for r in results:
                writer.writerow(_trial_row(r))
        paths["trials"] = trials_path

        if baseline is not None:
            comparison_path = os.path.join(out_dir, "comparison.csv")
            with open(comparison_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(comparison_csv(report, baseline))
            paths["comparison"] = comparison_path

        return paths
    except OSError as exc:
        raise StorageError(f"failed writing report to {out_dir}: {exc}") from exc


def comparison_csv(report: MetricsReport, baseline: MetricsReport) -> str:
    """The four ratios side by side with their deltas, as CSV text."""
    rows = ["metric,baseline,ours,delta"]
    for name in ("rho_a", "rho_s", "rho_s_over_a", "rho_h"):
        b = getattr(baseline, name)
        o = getattr(report, name)
        rows.append(f"{name},{b:.4f},{o:.4f},{o - b:.4f}")
    return "\n".join(rows) + "\n"


def load_metrics(path: str) -> MetricsReport:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read metrics {path}: {exc}") from exc
    except ValueError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    try:
        return MetricsReport.from_json(obj)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc
