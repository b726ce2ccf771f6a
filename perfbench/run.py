"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ablation --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
./src, never from an installed copy. One run:

1. sets the workload up several times and reports the median (setup_s);
2. runs the workload's golden batch and compares each op's digest with
   pins.json; a mismatch fails that op;
3. with --trace 0, runs ops derived from --seed, one after another, until
   their summed wall time reaches --seconds and at least the workload's
   min_ops have run, and reports the end-to-end metrics; no wrappers are
   installed. The tail latency is the highest percentile with at least ten
   samples beyond it at min_ops samples, so it is the same percentile in
   every run of a workload;
4. with --trace 1, runs each op twice, once plain and once with every layer
   wrapped (alternating which goes first), and reports per-layer figures per
   op plus the tracing overhead.

End-to-end times are normalized: each is scaled by how long a fixed
reference kernel timed next to it took, against the kernel's nominal time
(harness.Reference). That takes out the machine's drift in speed and keeps
the program's. Per-layer times are raw.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The line before it holds the details: environment, sample counts, the
chosen tail percentile, the raw timings and the golden batch's quality
figures.

Exit status is 2, with no result, when the source tree is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from harness import (
    OpLog,
    Reference,
    Tracer,
    environment,
    nearest_rank,
    normalized,
    peak_rss_mb,
    pin_threads,
    run_for,
    run_op,
    tail_percentile,
)

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
# Set-up repeats at least SETUP_REPS times and until SETUP_BUDGET_S of wall
# time has passed, so a cheap set-up still gets a steady median.
SETUP_REPS = 3
SETUP_BUDGET_S = 2.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def timed_setup(workload, seed, work, reference):
    """Set up from scratch repeatedly, timing the reference between set-ups.
    Keeps the last state; returns it with the raw and the normalized median."""
    times, refs = [], [reference.time()]
    began = time.perf_counter()
    while len(times) < SETUP_REPS or time.perf_counter() - began < SETUP_BUDGET_S:
        start = time.perf_counter()
        state = workload.setup(ROOT, seed, work)
        times.append(time.perf_counter() - start)
        refs.append(reference.time())
    return state, (statistics.median(times), statistics.median(normalized(times, refs)))


@contextlib.contextmanager
def work_dir():
    """A private directory under the checkout's .perfbench_work, removed after."""
    parent = ROOT / ".perfbench_work"
    parent.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run_", dir=parent))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            parent.rmdir()  # fails while another run still uses it


def bind(workload, state):
    """The workload's op, prepare and check as functions of the op index."""
    return (
        lambda i: workload.op(state, i),
        lambda i: workload.prepare(state, i),
        lambda i, outcome: workload.check(state, i, outcome),
    )


def golden_batch(workload, work, seed, pinned=None):
    """Run the first golden_ops ops of `seed` with every check; with `pinned`
    digests, an op whose digest differs fails. Returns the log and the
    outcomes."""
    state = workload.setup(ROOT, seed, work)
    op, prepare, _ = bind(workload, state)

    def check(index, outcome):
        problem = workload.check(state, index, outcome) or workload.reference_problem(
            state, index, outcome
        )
        got = workload.digest(index, outcome)
        if problem is None and pinned is not None and got != pinned[index]:
            problem = f"golden op {index}: digest {got} differs from pinned {pinned[index]}"
        return problem

    log = OpLog()
    outcomes = [run_op(log, index, op, check, prepare) for index in range(workload.golden_ops)]
    return log, outcomes


def latency_figures(latencies_s: list[float], tail: int) -> dict:
    ms = [t * 1000.0 for t in latencies_s]
    return {
        "throughput_per_s": len(ms) / sum(latencies_s),
        "latency_p50_ms": nearest_rank(ms, 50),
        "latency_tail_ms": nearest_rank(ms, tail),
    }


def plain_metrics(log: OpLog, setup: tuple[float, float], quality: dict, min_ops: int):
    """End-to-end metrics from normalized times, and details with the raw ones.

    setup_s is the median shared set-up plus the median per-op preparation.
    """
    tail = tail_percentile(min_ops)
    figures = latency_figures(normalized(log.latencies_s, log.reference_s), tail)
    units = {"throughput_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms"}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in figures.items()}
    raw_setup_s, setup_s = setup
    prepare_s = normalized(log.prepare_s, log.reference_s)
    metrics.update(
        setup_s={"value": setup_s + statistics.median(prepare_s), "unit": "s"},
        peak_rss_mb={"value": peak_rss_mb(), "unit": "MB"},
        cd_median_mm={"value": quality["cd_median_mm"], "unit": "mm"},
    )
    details = {
        "tail_percentile": tail,
        "ops": log.attempted,
        "raw": {
            **latency_figures(log.latencies_s, tail),
            "setup_s": raw_setup_s + statistics.median(log.prepare_s),
        },
        "reference_median_s": statistics.median(log.reference_s),
    }
    return metrics, details


def traced_run(workload, state, seconds, layers, layer_metrics):
    """Run each op plain and traced, alternating which goes first."""
    tracer = Tracer(layers)
    plain, traced = OpLog(), OpLog()
    op, prepare, check = bind(workload, state)
    index = 0
    while plain.busy_s + traced.busy_s < seconds:
        first = prepare  # once per index, outside the tracer
        for wrapped in (False, True) if index % 2 == 0 else (True, False):
            if wrapped:
                run_op(traced, index, op, check, first, around=lambda: tracer)
            else:
                run_op(plain, index, op, check, first)
            first = None
        index += 1
    metrics = layer_metrics(tracer, index, traced.busy_s, plain.busy_s)
    details = {"ops": index, "absent_layers": tracer.absent}
    return [plain, traced], metrics, details


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    if not (ROOT / "src" / "berrypick" / "__init__.py").is_file():
        print(f"error: no berrypick source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))

    reference = Reference()
    with work_dir() as work:
        state, setup = timed_setup(workload, args.seed, work, reference)
        pinned = pins[workload.name][str(workload.dev_seed)]
        golden, outcomes = golden_batch(workload, work, workload.dev_seed, pinned)
        quality = workload.quality([o for o in outcomes if o is not None])
        if args.trace:
            logs, metrics, details = traced_run(
                workload, state, args.seconds, workloads.LAYERS, workloads.layer_metrics
            )
        else:
            op, prepare, check = bind(workload, state)
            log = run_for(args.seconds, op, check, prepare, workload.min_ops, reference)
            logs = [log]
            metrics, details = plain_metrics(log, setup, quality, workload.min_ops)

    logs.append(golden)
    failures = [f for log in logs for f in log.failures]
    attempted = sum(log.attempted for log in logs)
    for failure in failures:
        print(f"FAILED {failure}")
    details.update(
        workload=workload.name,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        failed_op_ratio=len(failures) / attempted,
        golden={"seed": workload.dev_seed, "ops": golden.attempted, **quality},
        heldout_seed=workload.heldout_seed,
        environment=environment(ROOT),
    )
    print(json.dumps(details, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
