"""In-memory span tracer for the traced run, installed from outside ``src/``.

The traced run wraps each layer's public callables by patching the
attribute its caller looks up (a module global such as
``repro.core.batch._drive_episode`` or a class method such as
``EpisodeKernel.run_episode``).  Every wrapped call records one span —
name, start, end, parent span and unit id — into flat arrays kept in
memory and written out when the run ends.

Self time is a span's duration minus the durations of its direct
children, so the self times of every span under a unit's root span add
up to that root span's duration exactly: the root's own self time is
the explicit ``other`` remainder.  Every declared workload runs in this
one process (``sweep`` uses the runner serially), so no span is lost to
a pool worker.
"""

from __future__ import annotations

import functools
import gc
import pickle
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

perf_counter = time.perf_counter

#: name of the harness-owned root span around each traced unit
UNIT_SPAN = "unit"

PostHook = Callable[["Tracer", int, tuple, dict, Any], None]


class Tracer:
    """Flat span arrays plus per-unit counters for one benchmark process."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._clear()
        self.unit_id = -1
        #: (unit id, counter name) -> value
        self.counts: Dict[Tuple[int, str], float] = defaultdict(float)
        #: (unit id, tasks, results) captured by the runner hook; pickled
        #: sizes are measured after the timed phase
        self.runner_batches: List[Tuple[int, list, list]] = []
        self.missing: List[str] = []
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        self._first_result_at: Optional[float] = None
        self._gc_started = 0.0

    def _clear(self) -> None:
        self.name_id = array("i")
        self.parent = array("i")
        self.unit = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = []

    def name_index(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, name: str, value: float = 1.0) -> None:
        if self.unit_id >= 0:
            self.counts[(self.unit_id, name)] += value

    # -- spans -----------------------------------------------------------

    def open(self, nid: int) -> int:
        idx = len(self.start)
        stack = self.stack
        self.name_id.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.unit.append(self.unit_id)
        self.end.append(0.0)
        self.start.append(0.0)
        stack.append(idx)
        self.start[idx] = perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def begin_unit(self, unit_id: int) -> int:
        self.unit_id = unit_id
        return self.open(self.name_index(UNIT_SPAN))

    def end_unit(self, idx: int) -> float:
        self.close(idx)
        self.unit_id = -1
        return self.end[idx] - self.start[idx]

    def wrap(self, fn: Callable, name: str, post: Optional[PostHook] = None) -> Callable:
        """A span-recording stand-in for ``fn`` (same name, module, doc)."""
        nid = self.name_index(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = tracer.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if post is not None:
                post(tracer, idx, args, kwargs, out)
            return out

        return traced

    # -- installation ----------------------------------------------------

    def patch(self, owner: Any, attr: str, name: str, post: Optional[PostHook] = None,
              make: Optional[Callable[[Callable], Callable]] = None) -> None:
        """Replace ``owner.attr`` with a traced wrapper (undone by uninstall)."""
        own = attr in vars(owner)
        original = vars(owner)[attr] if own else getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        wrapper = make(original) if make is not None else self.wrap(original, name, post)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, own))

    def install(self) -> None:
        self.missing = []
        _install_layers(self)
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches = []
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_started = perf_counter()
        else:
            self.count("gc.collections")
            self.count("gc.pause_s", perf_counter() - self._gc_started)

    # -- analysis --------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "unit": np.frombuffer(self.unit, dtype=np.int32),
            "parent": parent,
            "start": start,
            "end": end,
            "dur": dur,
            "self": dur - child,
        }

    def save(self, path: str) -> None:
        a = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            **{k: a[k] for k in ("name_id", "unit", "parent", "start", "end")},
        )


# -- layer hooks -----------------------------------------------------------
#
# Post hooks run after a span closes, so their (tiny) cost lands in the
# caller's self time, never in the measured layer.


def _post_lane(tracer: Tracer, idx: int, args: tuple, kwargs: dict, out: Any) -> None:
    from repro.sim.metrics import SimulationResult

    tracer.count("lane.decisions", args[1].steps)
    if not isinstance(out, SimulationResult):  # a lite outcome
        tracer.count("lane.lite")


def _post_episode(tracer: Tracer, idx: int, args: tuple, kwargs: dict, out: Any) -> None:
    tracer.count("sim.decisions", len(out.records))


def _post_select(tracer: Tracer, idx: int, args: tuple, kwargs: dict, out: Any) -> None:
    if out is None:
        tracer.count("service.holds")


def _post_prior(tracer: Tracer, idx: int, args: tuple, kwargs: dict, out: Any) -> None:
    if out is not None:
        tracer.count("scicumulus.prior_hits")


def _post_timeline(tracer: Tracer, idx: int, args: tuple, kwargs: dict, out: Any) -> None:
    if out.end_time > 0:
        busy = sum(r.completion_time - r.admit_time for r in out.jobs)
        tracer.count("service.in_flight_sum", busy / out.end_time)
        tracer.count("service.runs")


def _post_runner(tracer: Tracer, idx: int, args: tuple, kwargs: dict, out: Any) -> None:
    runner, tasks = args[0], list(args[1])
    wall = tracer.end[idx] - tracer.start[idx]
    busy: Dict[int, float] = defaultdict(float)
    for result in out:
        busy[result.worker] += result.duration
    per_worker = list(busy.values()) + [0.0] * max(0, runner.workers - len(busy))
    tracer.count("runner.calls")
    tracer.count("runner.tasks", len(tasks))
    tracer.count("runner.errors", sum(1 for r in out if not r.ok))
    tracer.count("runner.workers_used", len(busy))
    tracer.count("runner.task_busy_s", sum(per_worker))
    tracer.count("runner.capacity_s", runner.workers * wall)
    tracer.count("runner.straggler_s", max(per_worker) - min(per_worker))
    if tracer._first_result_at is not None:
        tracer.count("runner.first_result_lag_s", tracer._first_result_at - tracer.start[idx])
        tracer._first_result_at = None
    tracer.runner_batches.append((tracer.unit_id, tasks, list(out)))


def _make_imap(tracer: Tracer) -> Callable[[Callable], Callable]:
    def make(original: Callable) -> Callable:
        @functools.wraps(original)
        def imap(*args: Any, **kwargs: Any) -> Any:
            first = True
            for item in original(*args, **kwargs):
                if first:
                    tracer._first_result_at = perf_counter()
                    first = False
                yield item

        return imap

    return make


def _install_layers(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    import repro.core.batch as batch
    import repro.core.reassign as reassign
    import repro.core.sweep as sweep
    import repro.rl.qtable as qtable
    import repro.rl.reward as reward
    import repro.runner.parallel as parallel
    import repro.scicumulus.provenance as provenance
    import repro.scicumulus.swfms as swfms
    import repro.service.arrivals as arrivals
    import repro.service.policies as policies
    import repro.service.timeline as timeline
    import repro.sim.kernel as kernel
    import repro.workflows.registry as registry

    p = tracer.patch
    p(registry, "make_workflow", "workflows.build")
    p(kernel.EpisodeKernel, "__init__", "sim.kernel_build")
    p(kernel.EpisodeKernel, "run_episode", "sim.episode", _post_episode)
    p(batch, "_drive_episode", "lane.episode", _post_lane)
    p(batch, "learn_batch", "batch.learn_batch")
    p(sweep, "learn_batch", "batch.learn_batch")
    p(batch, "_final_plan", "batch.plan")
    p(reassign.ReassignScheduler, "select", "reassign.select")
    p(reassign.ReassignScheduler, "on_dispatched", "reassign.update")
    p(reassign.ReassignLearner, "learn", "reassign.learn")
    p(reward.PerformanceReward, "step", "rl.reward")
    for op in ("value", "max_value", "best_action", "add", "set"):
        p(qtable.QTable, op, "rl.qtable")
    p(swfms, "workflow_to_xml", "scicumulus.spec")
    p(swfms, "workflow_from_xml", "scicumulus.spec")
    p(swfms.SciCumulusRL, "execute_plan", "scicumulus.execute")
    for op in ("record_execution", "record_learning_run", "executions",
               "execution_history", "learning_runs", "activation_rows"):
        p(provenance.ProvenanceStore, op, "scicumulus.provenance")
    p(provenance.ProvenanceStore, "latest_qtable", "scicumulus.provenance", _post_prior)
    p(parallel.ParallelRunner, "run", "runner.run", _post_runner)
    p(parallel.ParallelRunner, "imap", "runner.imap", make=_make_imap(tracer))
    p(timeline.FleetTimeline, "run", "service.run", _post_timeline)
    p(arrivals.PoissonArrivals, "schedule", "service.arrivals")
    for cls in [policies.SchedulingPolicy] + policies.SchedulingPolicy.__subclasses__():
        for op, name, post in (("select", "service.select", _post_select),
                               ("admit_index", "service.admit", None)):
            fn = vars(cls).get(op)
            if fn is not None and not getattr(fn, "__isabstractmethod__", False):
                p(cls, op, name, post)


# -- per-layer metrics -----------------------------------------------------

#: per-layer metric -> unit; every traced run reports all of them
LAYER_METRICS: Dict[str, str] = {
    "workflows.builds": "count",
    "workflows.build_s": "s",
    "sim.kernel_builds": "count",
    "sim.kernel_build_s": "s",
    "sim.episodes_ref": "count",
    "sim.episode_self_s": "s",
    "sim.decision_ns_ref": "ns",
    "lane.episodes": "count",
    "lane.episode_s": "s",
    "lane.decision_ns": "ns",
    "lane.lite_frac": "ratio",
    "batch.self_s": "s",
    "batch.plan_s": "s",
    "reassign.selects": "count",
    "reassign.select_us": "us",
    "reassign.updates": "count",
    "reassign.update_us": "us",
    "rl.reward_us": "us",
    "rl.qtable_ops": "count",
    "rl.qtable_s": "s",
    "reassign.learn_self_s": "s",
    "reassign.hooks_frac": "ratio",
    "scicumulus.spec_s": "s",
    "scicumulus.execute_s": "s",
    "scicumulus.provenance_calls": "count",
    "scicumulus.provenance_s": "s",
    "scicumulus.prior_hits": "count",
    "runner.tasks": "count",
    "runner.workers_used": "count",
    "runner.task_busy_s": "s",
    "runner.idle_frac": "ratio",
    "runner.straggler_s": "s",
    "runner.first_result_lag_s": "s",
    "runner.errors": "count",
    "runner.payload_bytes": "bytes",
    "runner.result_bytes": "bytes",
    "service.run_s": "s",
    "service.selects": "count",
    "service.select_us": "us",
    "service.hold_frac": "ratio",
    "service.admits": "count",
    "service.admit_us": "us",
    "service.in_flight_mean": "count",
    "service.arrivals_s": "s",
    "gc.collections": "count",
    "gc.pause_s": "s",
    "other.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_report(tracer: Tracer, units: List[int]) -> Dict[str, Any]:
    """Per-layer metrics over the traced units, plus the accounting check.

    Counts and seconds are per traced unit (mean); ``*_us``/``*_ns``
    figures are per call or per decision; ``*_frac`` are ratios.  All
    seconds are self times.
    """
    a = tracer.arrays()
    n_units = len(units)
    unit_set = set(units)
    in_units = np.isin(a["unit"], np.asarray(units, dtype=np.int32))
    n_names = len(tracer.names)
    nid = a["name_id"][in_units]
    calls = np.bincount(nid, minlength=n_names)
    self_s = np.bincount(nid, weights=a["self"][in_units], minlength=n_names)
    incl_s = np.bincount(nid, weights=a["dur"][in_units], minlength=n_names)

    def span(name: str) -> Tuple[float, float, float]:
        i = tracer._ids.get(name)
        if i is None:
            return 0.0, 0.0, 0.0
        return float(calls[i]), float(self_s[i]), float(incl_s[i])

    counts: Dict[str, float] = defaultdict(float)
    for (unit, key), value in tracer.counts.items():
        if unit in unit_set:
            counts[key] += value

    # accounting: the self times of every span in a unit's tree sum to
    # the unit's wall time
    residual = 0.0
    unit_wall = 0.0
    root = tracer._ids.get(UNIT_SPAN)
    for u in units:
        mask = a["unit"] == u
        roots = np.flatnonzero(mask & (a["name_id"] == root))
        wall = float(a["dur"][roots].sum())
        unit_wall += wall
        residual = max(residual, abs(float(a["self"][mask].sum()) - wall))

    per = 1.0 / n_units if n_units else 0.0
    builds, build_s, _ = span("workflows.build")
    kbuilds, kbuild_s, _ = span("sim.kernel_build")
    eps_ref, ep_self, ep_incl = span("sim.episode")
    lane_eps, lane_s, _ = span("lane.episode")
    _, batch_s, _ = span("batch.learn_batch")
    _, plan_s, _ = span("batch.plan")
    selects, select_s, select_incl = span("reassign.select")
    updates, update_s, update_incl = span("reassign.update")
    rewards, reward_s, _ = span("rl.reward")
    q_ops, q_s, _ = span("rl.qtable")
    _, learn_self, _ = span("reassign.learn")
    _, spec_s, _ = span("scicumulus.spec")
    _, exec_s, _ = span("scicumulus.execute")
    prov_calls, prov_s, _ = span("scicumulus.provenance")
    _, svc_s, _ = span("service.run")
    svc_selects, svc_select_s, _ = span("service.select")
    admits, admit_s, _ = span("service.admit")
    _, arrivals_s, _ = span("service.arrivals")
    _, other_s, _ = span(UNIT_SPAN)

    payload_bytes = result_bytes = 0
    for unit, tasks, results in tracer.runner_batches:
        if unit in unit_set:
            payload_bytes += sum(len(pickle.dumps(t.payload)) for t in tasks)
            result_bytes += sum(len(pickle.dumps(r.value)) for r in results)

    metrics = {
        "workflows.builds": builds * per,
        "workflows.build_s": build_s * per,
        "sim.kernel_builds": kbuilds * per,
        "sim.kernel_build_s": kbuild_s * per,
        "sim.episodes_ref": eps_ref * per,
        "sim.episode_self_s": ep_self * per,
        "sim.decision_ns_ref": _ratio(ep_self, counts["sim.decisions"], 1e9),
        "lane.episodes": lane_eps * per,
        "lane.episode_s": lane_s * per,
        "lane.decision_ns": _ratio(lane_s, counts["lane.decisions"], 1e9),
        "lane.lite_frac": _ratio(counts["lane.lite"], lane_eps),
        "batch.self_s": batch_s * per,
        "batch.plan_s": plan_s * per,
        "reassign.selects": selects * per,
        "reassign.select_us": _ratio(select_s, selects, 1e6),
        "reassign.updates": updates * per,
        "reassign.update_us": _ratio(update_s, updates, 1e6),
        "rl.reward_us": _ratio(reward_s, rewards, 1e6),
        "rl.qtable_ops": q_ops * per,
        "rl.qtable_s": q_s * per,
        "reassign.learn_self_s": learn_self * per,
        "reassign.hooks_frac": _ratio(select_incl + update_incl, ep_incl),
        "scicumulus.spec_s": spec_s * per,
        "scicumulus.execute_s": exec_s * per,
        "scicumulus.provenance_calls": prov_calls * per,
        "scicumulus.provenance_s": prov_s * per,
        "scicumulus.prior_hits": counts["scicumulus.prior_hits"] * per,
        "runner.tasks": counts["runner.tasks"] * per,
        "runner.workers_used": _ratio(counts["runner.workers_used"], counts["runner.calls"]),
        "runner.task_busy_s": counts["runner.task_busy_s"] * per,
        "runner.idle_frac": (
            1.0 - _ratio(counts["runner.task_busy_s"], counts["runner.capacity_s"])
            if counts["runner.capacity_s"] else 0.0
        ),
        "runner.straggler_s": counts["runner.straggler_s"] * per,
        "runner.first_result_lag_s": counts["runner.first_result_lag_s"] * per,
        "runner.errors": counts["runner.errors"] * per,
        "runner.payload_bytes": payload_bytes * per,
        "runner.result_bytes": result_bytes * per,
        "service.run_s": svc_s * per,
        "service.selects": svc_selects * per,
        "service.select_us": _ratio(svc_select_s, svc_selects, 1e6),
        "service.hold_frac": _ratio(counts["service.holds"], svc_selects),
        "service.admits": admits * per,
        "service.admit_us": _ratio(admit_s, admits, 1e6),
        "service.in_flight_mean": _ratio(counts["service.in_flight_sum"], counts["service.runs"]),
        "service.arrivals_s": arrivals_s * per,
        "gc.collections": counts["gc.collections"] * per,
        "gc.pause_s": counts["gc.pause_s"] * per,
        "other.self_s": other_s * per,
    }
    by_span = {
        name: {
            "calls_per_unit": float(calls[i]) * per,
            "self_s_per_unit": float(self_s[i]) * per,
        }
        for i, name in enumerate(tracer.names)
        if calls[i]
    }
    return {
        "metrics": metrics,
        "spans": by_span,
        "unit_wall_s": unit_wall * per,
        "residual_s": residual,
        "span_count": int(in_units.sum()),
        "missing_hooks": list(tracer.missing),
    }
