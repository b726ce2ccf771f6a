"""Workload-independent parts of the benchmark: the closed-loop op runner,
percentile selection, the call tracer and the environment record.

Nothing here imports berrypick; `workloads.py` supplies what to run.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> None:
    """One BLAS/OpenMP thread: a plain single-threaded baseline. Thread pools
    read these when numpy first loads, so call this before importing it."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


MIN_BEYOND = 10


def tail_percentile(n: int) -> int:
    """Highest whole percentile from 50 to 99 with at least MIN_BEYOND of n
    samples beyond it; 50 when even the median has fewer.

    Uses the nearest-rank definition: the p-th percentile of n sorted samples
    is the ceil(p/100 * n)-th, so n - ceil(p/100 * n) samples lie beyond it.
    """
    for p in range(99, 49, -1):
        if n - math.ceil(p * n / 100) >= MIN_BEYOND:
            return p
    return 50


def nearest_rank(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(p * len(ordered) / 100), 1) - 1]


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# ----------------------------------------------------------- machine speed


class Reference:
    """A fixed CPU kernel, independent of berrypick, timed between ops.

    Shared machines slow down and speed up by as much as a third for a
    minute at a time as neighbours come and go; a reference timed next to
    each op slows with it. Dividing op times by it (relative to NOMINAL_S) leaves the
    program's own speed. It mixes what the program spends its time on: a
    scipy median filter, numpy scatter and arithmetic, k-d tree queries and
    a pure-Python heap loop. Change nothing here without re-baselining.
    """

    NOMINAL_S = 0.025  # about its time on a quiet core of a 2.1 GHz Xeon

    def __init__(self):
        # imported late: numpy must load after pin_threads()
        import numpy as np
        from scipy.spatial import cKDTree

        rng = np.random.default_rng(0)
        self._np = np
        self._tree = cKDTree
        self._image = rng.integers(0, 1000, (80, 320)).astype(np.uint16)
        self._points = rng.random((8192, 3))
        self._queries = rng.random((2000, 3))
        self._values = rng.random(200_000)
        self._slots = rng.integers(0, 50_000, 200_000)

    def _run(self) -> None:
        import heapq

        from scipy import ndimage

        np = self._np
        ndimage.median_filter(self._image, size=5, mode="nearest")
        buf = np.full(50_000, np.inf)
        np.minimum.at(buf, self._slots, self._values * 2.0 + 1.0)
        self._tree(self._points).query(self._queries)
        heap: list = []
        seen = {}
        for i in range(5_000):
            heapq.heappush(heap, ((i * 7919) % 10007, i))
            seen[i] = i * 0.5
        while heap:
            heapq.heappop(heap)

    def time(self) -> float:
        start = time.perf_counter()
        self._run()
        return time.perf_counter() - start


# ----------------------------------------------------------------- op runner


@dataclass
class OpLog:
    """Outcome of a closed loop: one caller, each op starts when the last ends."""

    latencies_s: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    prepare_s: list[float] = field(default_factory=list)
    reference_s: list[float] = field(default_factory=list)  # before op 0 and after each op

    @property
    def attempted(self) -> int:
        return len(self.latencies_s)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies_s)


def run_op(log: OpLog, index: int, op, check, prepare=None, around=contextlib.nullcontext):
    """Time prepare(index) and op(index) apart, then check the outcome
    outside both timed spans. Only the op runs inside the `around()` context.

    An op fails when either raises or when check(index, outcome) returns a
    message; the failure is recorded rather than raised so the loop goes on.
    Returns the outcome, None when the op raised.
    """
    elapsed = 0.0
    try:
        if prepare is not None:
            start = time.perf_counter()
            prepare(index)
            log.prepare_s.append(time.perf_counter() - start)
        with around():
            start = time.perf_counter()
            try:
                outcome = op(index)
            finally:
                elapsed = time.perf_counter() - start
    except Exception as exc:  # a failed op is a result to report, not a crash
        outcome, problem = None, f"op {index} raised {type(exc).__name__}: {exc}"
    else:
        problem = check(index, outcome)
    log.latencies_s.append(elapsed)
    if problem:
        log.failures.append(problem)
    return outcome


def run_for(seconds: float, op, check, prepare, min_ops: int, reference: Reference) -> OpLog:
    """Run ops 0, 1, 2, ... until their summed wall time reaches `seconds`
    and at least `min_ops` have run; time `reference` before the first op
    and after each op.

    Checking happens between ops and is not counted, so the number of ops
    measured depends on the program's speed only.
    """
    log = OpLog(reference_s=[reference.time()])
    while log.busy_s < seconds or log.attempted < min_ops:
        run_op(log, log.attempted, op, check, prepare)
        log.reference_s.append(reference.time())
    return log


def normalized(times: list[float], reference_s: list[float], half: int = 4) -> list[float]:
    """Scale each time to the reference's nominal speed.

    times[i] ran between reference_s[i] and reference_s[i + 1]; it is divided
    by the median of the 2 * half reference times around it, which follows
    the machine's slow drifts without its millisecond jitter.
    """
    out = []
    for i, t in enumerate(times):
        window = reference_s[max(i + 1 - half, 0) : i + 1 + half]
        out.append(t * Reference.NOMINAL_S / statistics.median(window))
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


# -------------------------------------------------------------------- tracer


@dataclass(frozen=True)
class Layer:
    """A public function to time, named module.function, wrapped where its
    callers look it up (`module`.`attr`).

    observe(stats, args, kwargs, result) adds the layer's counts after each
    call that returned.
    """

    name: str
    module: str
    attr: str
    observe: Callable | None = None


@dataclass
class LayerStats:
    calls: int = 0
    raised: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + value

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)


class Tracer:
    """Times calls into the listed layers as nested spans.

    Each wrapper pushes a child-time accumulator, so a layer's self time is
    its span minus the spans of wrapped layers it called. Time in spans with
    no wrapped parent is `covered_s`; op time minus that is pipeline glue.
    A layer whose module or function no longer exists is recorded in
    `absent` and left unwrapped.
    """

    def __init__(self, layers, clock: Callable[[], float] = time.perf_counter):
        self.layers = tuple(layers)
        self.clock = clock
        self.stats = {layer.name: LayerStats() for layer in self.layers}
        self.absent: list[str] = []
        self.covered_s = 0.0
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.absent = []
        for layer in self.layers:
            try:
                module = importlib.import_module(layer.module)
            except ImportError:
                module = None
            original = getattr(module, layer.attr, None)
            if not callable(original):
                self.absent.append(layer.name)
                continue
            self._saved.append((module, layer.attr, original))
            setattr(module, layer.attr, self._wrap(layer, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, layer: Layer, fn):
        stats = self.stats[layer.name]
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats.raised += 1
                raise
            finally:
                span = clock() - start
                stats.calls += 1
                stats.total_s += span
                stats.self_s += span - stack.pop()
                if stack:
                    stack[-1] += span
                else:
                    self.covered_s += span
            if layer.observe is not None:
                layer.observe(stats, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer.attr)
        return traced


# --------------------------------------------------------------- environment


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_version(module) -> str:
    try:
        deps = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name', '?')} {deps.get('version', '?')}"
    except Exception:  # show_config's layout varies across releases
        return "unknown"


def _git_commit(root: Path) -> str:
    """Read HEAD from the checkout's own .git only; never search parents."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = git / ref
            if ref_file.exists():
                return ref_file.read_text(encoding="utf-8").strip()
            for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def environment(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_version(numpy),
        "scipy_blas": _blas_version(scipy),
        "git_commit": _git_commit(root),
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "platform": sys.platform,
    }
