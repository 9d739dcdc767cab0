"""The closed loop, the statistics and the result line.

``run_workload`` sets a workload up, runs passes over its units back to
back until the time budget is spent (and at least the workload's
minimum passes are done), checks every unit's output outside the timed
region, and returns the full report whose ``result`` entry is the
one-line JSON object the benchmark prints last.
"""

from __future__ import annotations

import bisect
import gc
import heapq
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Any, Dict, List, Optional, Sequence, Tuple

from perfbench.workloads import PAPER, WORKLOADS, Scale, UnitRecord

perf_counter = time.perf_counter

#: end-to-end metric -> unit; every untraced run reports all of them
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "run_p50_s": "s",
    "run_p90_s": "s",
    "episodes_per_s": "1/s",
    "activations_per_s": "1/s",
    "peak_rss_mb": "MB",
    "plan_makespan_s": "s",
    "job_p99_s": "s",
}

#: candidate tail percentiles of run_p90_s, highest first
TAIL_CANDIDATES = (90, 75, 50)


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100] of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(
    values: Sequence[float], candidates: Sequence[int] = TAIL_CANDIDATES
) -> Dict[str, Any]:
    """The highest candidate percentile with at least 10 samples beyond it.

    Falls back to the median when the sample is too small for any
    candidate.  The returned dict records the percentile, the sample
    count and how many samples lie beyond it.
    """
    n = len(values)
    for q in sorted(candidates, reverse=True):
        if n - math.ceil(q / 100.0 * n) >= 10:
            return {"percentile": q, "value": nearest_rank(values, q), "samples": n,
                    "beyond": n - math.ceil(q / 100.0 * n)}
    # too few samples for any candidate: the (interpolated) median
    return {"percentile": 50, "value": statistics.median(values), "samples": n, "beyond": n // 2}


#: seconds one :func:`speed_probe` takes on the reference host (the
#: 2-core container the benchmark was defined on); host times are
#: reported in seconds at that speed
REFERENCE_PROBE_S = 0.004
#: a set-up sample has one probe of its own, so it gets a longer one
SETUP_PROBE_REPEATS = 7


def _probe_body(n: int = 3000) -> float:
    """Fixed interpreter-bound work (heap, dict, float and list ops).

    Never change it: its time on the reference host defines the unit of
    every reported host time.
    """
    heap: List[Tuple[float, int]] = []
    table: Dict[int, float] = {}
    acc = 0.0
    for i in range(n):
        heapq.heappush(heap, ((i * 7919) % 1000 * 0.5, i))
        table[i % 257] = table.get(i % 257, 0.0) + i * 0.25
        if len(heap) > 64:
            t, j = heapq.heappop(heap)
            acc += t * 1.0001 - j * 1e-9
    values = [x * 1.5 for x in range(n)]
    return acc + sum(values) / n + max(table.values())


def speed_probe(repeats: int = 3) -> float:
    """Seconds of the fixed probe work right now (best of ``repeats``).

    The host's speed drifts by tens of percent within seconds (shared
    cores); dividing a unit's seconds by the probe times measured right
    before and after it removes much of that drift from its time.
    """
    best = math.inf
    for _ in range(repeats):
        t0 = perf_counter()
        _probe_body()
        best = min(best, perf_counter() - t0)
    return best


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def provenance(root: str, workload: Any, seed: int) -> Dict[str, Any]:
    """Where and on what the numbers were measured."""
    import hashlib

    import numpy

    try:
        probe = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = probe.stdout.strip() if probe.returncode == 0 else "unknown"
    except OSError:  # no git on this host
        commit = "unknown"
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "repro")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    try:
        from repro.core.distributed import host_cores

        cores: Any = host_cores()
    except ImportError:
        cores = "unavailable"
    import multiprocessing as mp

    start_method = os.environ.get("REPRO_MP_CONTEXT", "").strip() or (
        "fork" if "fork" in mp.get_all_start_methods() else "spawn"
    )
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "host_cores": cores,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pool_start_method": start_method,
        "workers": workload.workers,
        "seed": seed,
    }


def setup_samples(root: str, name: str, seed: int, smoke: bool, count: int) -> List[float]:
    """Set-up times of ``count`` fresh interpreters (each waited for)."""
    samples = []
    for k in range(count):
        cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", name,
               "--seed", str(seed), "--setup-only"]
        if smoke:
            cmd.append("--smoke")
        done = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up sample {k} failed: {done.stderr.strip()[-500:]}")
        samples.append(float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]))
    return samples


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end(
    first: List[UnitRecord], best: List[float], setup: List[float], rss_mb: float
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """End-to-end metrics and the sample counts behind them.

    ``first`` holds the first pass's record of every unit, ``best`` each
    unit's time over the passes (see :func:`per_unit`).
    """
    busy = sum(best)
    tail = tail_percentile(best)
    latencies = [x for r in first for x in r.latencies]
    values = {
        "setup_s": statistics.median(setup),
        "run_p50_s": statistics.median(best),
        "run_p90_s": tail["value"],
        "episodes_per_s": sum(r.episodes for r in first) / busy,
        "activations_per_s": sum(r.activations for r in first) / busy,
        "peak_rss_mb": rss_mb,
        "plan_makespan_s": statistics.fmean(r.plan_makespan for r in first),
        "job_p99_s": nearest_rank(latencies, 99) if latencies else 0.0,
    }
    samples = {
        "setup_s": {"samples": len(setup), "statistic": "median", "values": setup},
        "run_p50_s": {"samples": len(best), "statistic": "median over units of each unit's lower-quartile pass"},
        "run_p90_s": {k: v for k, v in tail.items() if k != "value"},
        "episodes_per_s": {"units": len(best), "busy_s": busy},
        "activations_per_s": {"units": len(best), "busy_s": busy},
        "plan_makespan_s": {"units": len(first), "statistic": "mean"},
        "job_p99_s": {"samples": len(latencies), "units": len(first), "statistic": "nearest-rank p99"},
    }
    return {k: _metric(values[k], END_TO_END[k]) for k in END_TO_END}, samples


def rescale(records: List[UnitRecord], probes: List[Tuple[float, float]]) -> List[float]:
    """Rescale each unit's seconds to the reference host speed.

    ``probes`` holds (time, seconds) of every speed probe of the run, in
    time order: one between any two units and, in units that run several
    runner tasks, one between tasks (whose own time is left out of the
    unit's).  Each stretch of a unit between probes is multiplied by the
    reference probe time times the mean speed (1 / seconds) of the probe
    right before it and the probe right after it.  Returns each unit's
    overall factor.
    """
    times = [t for t, _ in probes]
    factors = []
    for record in records:
        raw = record.seconds
        total = 0.0
        for start, end in record.segments:
            before = probes[bisect.bisect_right(times, start) - 1][1]
            after = probes[bisect.bisect_left(times, end)][1]
            total += (end - start) * REFERENCE_PROBE_S * 0.5 * (1.0 / before + 1.0 / after)
        record.seconds = total
        factors.append(total / raw if raw > 0 else 1.0)
    return factors


def lower_quartile(values: Sequence[float]) -> float:
    """The linearly interpolated lower quartile of a non-empty sample."""
    ordered = sorted(values)
    k = (len(ordered) - 1) / 4.0
    lo = math.floor(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def per_unit(records: List[UnitRecord], n_units: int) -> List[float]:
    """Each unit's lower-quartile time over its passes (NaN if it never ran).

    Other tenants of the host only ever slow a unit down, so the low end
    of its passes is closest to the unit's own cost; the lower quartile
    rather than the fastest pass keeps one lucky pass from setting it.
    """
    times: List[List[float]] = [[] for _ in range(n_units)]
    for r in records:
        times[r.index].append(r.seconds)
    return [lower_quartile(t) if t else math.nan for t in times]


def check_passes(records: List[UnitRecord], first: List[UnitRecord]) -> None:
    """A repeated unit must reproduce its first pass's output digest."""
    for r in records:
        base = first[r.index]
        if r.pass_index and r.error is None and r.sample != base.sample:
            r.error = f"output differs from pass 0 (pass {r.pass_index})"


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    root: str,
    scale: Scale = PAPER,
    started: Optional[float] = None,
    out_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one workload; return the report (``report["result"]`` is the line).

    The timed phase runs passes over the workload's ``scale.inputs[name]``
    units, at least ``scale.min_passes[name]`` of them and then until
    ``seconds`` have passed (the last pass may stop part-way).  Every pass
    repeats the same units with the same outputs, and a unit's time is
    the lower quartile of its passes, which drops the passes other tenants
    of the host slowed down.
    """
    if started is None:
        started = perf_counter()
    workload = WORKLOADS[name](seed, scale)
    workload.setup()
    setup_s = perf_counter() - started

    tracer = None
    if trace:
        from perfbench.tracing import Tracer

        tracer = Tracer()
    n_units = scale.inputs[name]
    if n_units % workload.cycle:
        raise ValueError(f"{name}: {n_units} units is not a whole number of {workload.cycle}-unit rotations")
    min_passes = scale.min_passes[name]
    records: List[UnitRecord] = []
    setup_ref = setup_s * REFERENCE_PROBE_S / speed_probe(SETUP_PROBE_REPEATS)
    #: (time, seconds) of every speed probe
    probes: List[Tuple[float, float]] = [(perf_counter(), speed_probe())]
    #: (entry, exit) of each probe callback inside the current unit
    marks: List[Tuple[float, float]] = []

    def mark(*_: Any) -> None:
        entered = perf_counter()
        probes.append((entered, speed_probe()))
        marks.append((entered, perf_counter()))

    if tracer is None:
        workload.progress = mark
    loop_started = perf_counter()

    def finished(p: int) -> bool:
        return p >= min_passes and perf_counter() - loop_started >= seconds

    p = 0
    while not finished(p):
        workload.begin_pass(p)
        # traced runs alternate untraced and traced passes, so the tracing
        # overhead is measured on the same units in the same process
        traced = tracer is not None and p % 2 == 1
        for i in range(n_units):
            if finished(p):
                break
            # a unit starts on a collected heap, so the collections its own
            # allocations trigger, and their cost, are the same every pass
            gc.collect()
            root_span = -1
            if traced:
                tracer.install()
                root_span = tracer.begin_unit(len(records))
            error = None
            marks.clear()
            t0 = perf_counter()
            try:
                output = workload.run_unit(i)
            except Exception:  # noqa: BLE001 - a raising unit counts as failed
                output = None
                error = traceback.format_exc(limit=5)
            t1 = perf_counter()
            if traced:
                t1 = t0 + tracer.end_unit(root_span)
                tracer.uninstall()
            probes.append((perf_counter(), speed_probe()))
            segments = []
            start = t0
            for entered, left in marks:
                segments.append((start, entered))
                start = left
            segments.append((start, t1))
            if output is not None:
                try:
                    record = workload.record(i, output)
                except Exception:  # noqa: BLE001
                    record = UnitRecord(index=i, error=traceback.format_exc(limit=5))
            else:
                record = UnitRecord(index=i, error=error)
            record.pass_index = p
            record.segments = segments
            record.seconds = sum(end - start for start, end in segments)
            records.append(record)
        p += 1
    timed_wall = perf_counter() - loop_started
    rss = peak_rss_mb()
    raw_seconds = [r.seconds for r in records]
    raw_best = per_unit(records, n_units)
    factors = rescale(records, probes)

    first = [r for r in records if r.pass_index == 0]
    check_passes(records, first)
    workload.check(first)
    failures = [(r.index, r.pass_index, r.error) for r in records if r.error is not None]
    report: Dict[str, Any] = {
        "workload": name,
        "trace": bool(trace),
        "provenance": provenance(root, workload, seed),
        "units": n_units,
        "passes": p,
        "measurements": len(records),
        "timed_wall_s": timed_wall,
        "peak_rss_mb_timed": rss,
        "failed_frac": len(failures) / len(records),
        "failures": failures[:10],
        # index, pass, raw seconds, rescaled seconds, (start, end) stretches
        "unit_seconds": [
            [r.index, r.pass_index, raw, r.seconds, r.segments] for r, raw in zip(records, raw_seconds)
        ],
        "probes": probes,
    }
    correct = not failures
    if tracer is None:
        setup = [setup_ref] + setup_samples(root, name, seed, scale is not PAPER, scale.setup_samples - 1)
        best = per_unit(records, n_units)
        metrics, samples = end_to_end(first, best, setup, rss)
        samples["passes"] = p
        report["samples"] = samples
        report["raw_host_seconds"] = {
            "setup_s": setup_s,
            "run_p50_s": statistics.median(raw_best),
            "units_s": sum(raw_best),
        }
    else:
        from perfbench.tracing import LAYER_METRICS, layer_report

        traced_units = [k for k, r in enumerate(records) if r.pass_index % 2 == 1]
        layers = layer_report(tracer, traced_units)
        plain = per_unit([r for r in records if r.pass_index % 2 == 0], n_units)
        traced_s = per_unit([r for r in records if r.pass_index % 2 == 1], n_units)
        pairs = [(a, b) for a, b in zip(plain, traced_s) if math.isfinite(a) and math.isfinite(b)]
        overhead = (
            statistics.median(b for _, b in pairs) / statistics.median(a for a, _ in pairs) - 1.0
            if pairs else 0.0
        )
        layers["metrics"]["trace.overhead_frac"] = overhead
        metrics = {k: _metric(layers["metrics"][k], LAYER_METRICS[k]) for k in LAYER_METRICS}
        # self times plus ``other`` must account for each traced unit's wall
        accounted = layers["residual_s"] <= 1e-6 * max(1.0, layers["unit_wall_s"])
        correct = correct and accounted
        report["trace_detail"] = {
            "traced_units": len(traced_units),
            "untraced_units": len(records) - len(traced_units),
            "unit_wall_s": layers["unit_wall_s"],
            "accounting_residual_s": layers["residual_s"],
            "accounted": accounted,
            "spans": layers["spans"],
            "span_count": layers["span_count"],
            "missing_hooks": layers["missing_hooks"],
        }
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(out_dir, f"spans-{name}-seed{seed}.npz")
            tracer.save(path)
            report["trace_detail"]["spans_file"] = os.path.relpath(path, root)
    probe_s = [probe for _, probe in probes]
    report["speed_factor"] = {
        "reference_probe_s": REFERENCE_PROBE_S,
        "probes": len(probes),
        "probe_median_s": statistics.median(probe_s),
        "probe_min_s": min(probe_s),
        "probe_max_s": max(probe_s),
        "median": statistics.median(factors),
        "min": min(factors),
        "max": max(factors),
    }
    report["result"] = {
        "correct": correct,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": metrics,
    }
    return report


def setup_only(name: str, seed: int, scale: Scale, started: float) -> Dict[str, float]:
    """One set-up sample, in reference seconds (probed right after)."""
    WORKLOADS[name](seed, scale).setup()
    raw = perf_counter() - started
    return {"setup_s": raw * REFERENCE_PROBE_S / speed_probe(SETUP_PROBE_REPEATS), "raw_s": raw}
