"""The four closed-loop workloads: learn, pipeline, sweep and serve.

Each workload builds its inputs from the workload seed in ``setup()``,
runs one *unit* per ``run_unit(i)`` call through a public library entry
point, summarizes each unit outside the timed region in ``record()``
and runs the sampled reference checks in ``check()``, also outside the
timed region.  A unit's output depends only on the seed and its index
``i``, so the passes the harness repeats give byte-identical outputs.
The harness (:mod:`perfbench.harness`) owns the loop and the clock.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

SUCCEEDED = "successfully finished"


def derive(seed: int, *labels: Any) -> int:
    """A 63-bit seed from the workload seed and a label path (sha256)."""
    text = ":".join([str(int(seed))] + [str(x) for x in labels])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


@dataclass(frozen=True)
class Scale:
    """Input sizes; ``PAPER`` is the benchmark, ``SMOKE`` a toy for tests."""

    montage_size: int = 50
    episodes: int = 100
    #: generator seeds of the Montage instances the learning workloads
    #: rotate over (fixed, so quality metrics measure the scheduler)
    workflow_seeds: Tuple[int, ...] = (0, 1, 2)
    fleets: Tuple[int, ...] = (16, 32, 64)
    grid: Tuple[float, ...] = (0.1, 0.5, 1.0)
    serve_jobs: int = 50
    serve_size: int = 20
    serve_rate: float = 0.05
    serve_tenants: int = 4
    serve_vcpus: int = 32
    #: distinct units of one pass, a whole number of input rotations.
    #: Every pass runs the same units again; a unit's time is the lower
    #: quartile of its passes, and the first pass's outputs feed
    #: plan_makespan_s/job_p99_s.  The count also fixes the percentile
    #: run_p90_s reports (p75 for serve, the median for the others)
    inputs: Dict[str, int] = field(default_factory=lambda: {
        "learn": 27, "pipeline": 9, "sweep": 3, "serve": 40,
    })
    #: passes every run completes, however long they take; the lower
    #: quartile of three passes lies halfway between the fastest and the
    #: median, so one pass slowed by the host does not move it
    min_passes: Dict[str, int] = field(default_factory=lambda: {
        "learn": 3, "pipeline": 3, "sweep": 3, "serve": 3,
    })
    #: units (cells, for sweep) compared against the reference learner
    #: or re-run for byte identity (pipeline validates every unit instead)
    reference_checks: Dict[str, int] = field(default_factory=lambda: {
        "learn": 4, "sweep": 3, "serve": 3,
    })
    #: set-up samples per run (the first in-process, the rest in fresh
    #: interpreters); setup_s is their median
    setup_samples: int = 5


PAPER = Scale()
SMOKE = replace(
    PAPER,
    montage_size=25,
    episodes=3,
    workflow_seeds=(0,),
    fleets=(16, 32),
    grid=(0.5, 1.0),
    serve_jobs=6,
    inputs={"learn": 2, "pipeline": 2, "sweep": 2, "serve": 2},
    min_passes={"learn": 2, "pipeline": 2, "sweep": 2, "serve": 2},
    reference_checks={"learn": 2, "sweep": 2, "serve": 1},
    setup_samples=2,
)


@dataclass
class UnitRecord:
    """What the harness keeps of one unit (the output itself is dropped)."""

    index: int
    pass_index: int = 0
    seconds: float = 0.0
    episodes: int = 0  #: simulated workflow executions (episodes or jobs)
    activations: int = 0  #: activation dispatches simulated
    plan_makespan: float = 0.0
    latencies: List[float] = field(default_factory=list)
    error: Optional[str] = None
    #: data the sampled reference checks need
    sample: Any = None
    #: (start, end) of each stretch of the unit between speed probes;
    #: the harness fills it
    segments: List[Tuple[float, float]] = field(default_factory=list)


def learning_fingerprint(result: Any) -> Tuple[Any, ...]:
    """Deterministic content of a LearningResult (everything but wall time).

    The same tuple as ``learning_fingerprint`` in ``benchmarks/conftest.py``,
    kept here so the benchmark needs nothing outside its own directory.
    """
    return (
        result.qtable_json,
        result.plan.to_json(),
        result.simulated_makespan,
        result.simulated_learning_time,
        [e.to_dict() for e in result.episodes],
    )


def fingerprint_digest(result: Any) -> str:
    return hashlib.sha256(repr(learning_fingerprint(result)).encode()).hexdigest()


def check_learning_result(result: Any, workflow: Any, vms: Sequence[Any], episodes: int) -> Optional[str]:
    """Structural checks every learning unit must pass; None when sound."""
    if result.n_episodes != episodes:
        return f"{result.n_episodes} episodes, expected {episodes}"
    failed = [e.episode for e in result.episodes if e.final_state != SUCCEEDED]
    if failed:
        return f"episodes did not finish: {failed[:5]}"
    n = len(workflow.activation_ids)
    steps = sum(e.steps for e in result.episodes)
    if steps != episodes * n:
        return f"{steps} decisions, expected {episodes * n}"
    assignment = result.plan.assignment
    if sorted(assignment) != sorted(workflow.activation_ids):
        return "plan does not cover every activation exactly once"
    vm_ids = {vm.id for vm in vms}
    if not set(assignment.values()) <= vm_ids:
        return "plan assigns an activation to an unknown VM"
    if result.simulated_makespan != result.episodes[-1].makespan:
        return "plan makespan differs from the final episode's makespan"
    if not (math.isfinite(result.simulated_makespan) and result.simulated_makespan > 0):
        return f"bad plan makespan {result.simulated_makespan!r}"
    return None


def evenly_spaced(n_items: int, k: int) -> List[int]:
    """Up to ``k`` distinct indices spread evenly over ``range(n_items)``."""
    if n_items <= 0 or k <= 0:
        return []
    k = min(k, n_items)
    return sorted({(j * n_items) // k + (n_items // k) // 2 for j in range(k)})


class Workload:
    """Base class: the harness calls setup, run_unit, record, check."""

    name = ""
    workers = 1

    def __init__(self, seed: int, scale: Scale) -> None:
        self.seed = int(seed)
        self.scale = scale
        #: a ``progress(done, total, result)`` callback the harness may set;
        #: units that run runner tasks pass it to the runner, so the
        #: harness can probe the host's speed after each task
        self.progress: Optional[Any] = None

    @property
    def cycle(self) -> int:
        """The timed loop ends on a multiple of this many units, so every
        input combination is equally represented in the statistics."""
        return 1

    def setup(self) -> None:
        raise NotImplementedError

    def begin_pass(self, p: int) -> None:
        """Reset any state units share, so pass ``p`` repeats pass 0."""

    def run_unit(self, i: int) -> Any:
        raise NotImplementedError

    def record(self, i: int, output: Any) -> UnitRecord:
        raise NotImplementedError

    def check(self, records: List[UnitRecord]) -> None:
        """Run the sampled reference checks; set ``error`` on failures."""

    def _params(self, **overrides: Any) -> Any:
        from repro.core.reassign import ReassignParams

        values = dict(alpha=0.5, gamma=1.0, epsilon=0.1, mu=0.5, episodes=self.scale.episodes)
        values.update(overrides)
        return ReassignParams(**values)

    def _workflows(self) -> List[Any]:
        from repro.workflows import registry

        return [
            registry.make_workflow("montage", self.scale.montage_size, seed=s)
            for s in self.scale.workflow_seeds
        ]


class RotatingWorkload(Workload):
    """Units rotate over every (Montage instance, Table-I fleet) pair."""

    @property
    def cycle(self) -> int:
        return len(self.scale.workflow_seeds) * len(self.scale.fleets)

    def _combo(self, i: int) -> Tuple[int, int]:
        """(workflow index, fleet vCPUs) of unit ``i``."""
        n_wf = len(self.scale.workflow_seeds)
        return i % n_wf, self.scale.fleets[(i // n_wf) % len(self.scale.fleets)]


class LearnWorkload(RotatingWorkload):
    """One ``repro learn`` run per unit: ``learn_batch([BatchSpec])[0]``."""

    name = "learn"

    def setup(self) -> None:
        from repro.core.reassign import ReassignLearner
        from repro.experiments.environments import fleet_for

        self.params = self._params()
        self.workflows = self._workflows()
        self.fleets = {v: fleet_for(v) for v in self.scale.fleets}
        # the first kernel build (the workload's own units build theirs)
        ReassignLearner(self.workflows[0], self.fleets[self.scale.fleets[0]], self.params).kernel

    def _spec(self, i: int) -> Tuple[Any, Any, int]:
        w, v = self._combo(i)
        return self.workflows[w], self.fleets[v], derive(self.seed, "learn", i)

    def run_unit(self, i: int) -> Any:
        import repro.core.batch as batch

        workflow, vms, seed = self._spec(i)
        spec = batch.BatchSpec(workflow=workflow, vms=vms, params=self.params, seed=seed)
        return batch.learn_batch([spec])[0]

    def record(self, i: int, output: Any) -> UnitRecord:
        workflow, vms, _ = self._spec(i)
        return UnitRecord(
            index=i,
            episodes=output.n_episodes,
            activations=sum(e.steps for e in output.episodes),
            plan_makespan=output.simulated_makespan,
            latencies=output.makespan_curve(),
            error=check_learning_result(output, workflow, vms, self.params.episodes),
            sample=fingerprint_digest(output),
        )

    def check(self, records: List[UnitRecord]) -> None:
        from repro.core.reassign import ReassignLearner

        for j in evenly_spaced(len(records), self.scale.reference_checks[self.name]):
            rec = records[j]
            if rec.error is not None or rec.sample is None:
                continue
            workflow, vms, seed = self._spec(rec.index)
            reference = ReassignLearner(workflow, vms, self.params, seed=seed).learn()
            if fingerprint_digest(reference) != rec.sample:
                rec.error = "learning fingerprint differs from ReassignLearner.learn()"


class PipelineWorkload(RotatingWorkload):
    """One ``SciCumulusRL.run_workflow(..., "reassign")`` per unit.

    All units of a pass share one instance with in-memory provenance, so
    later units load the Q-table and execution history earlier units
    wrote.  Each pass starts from a fresh instance.
    """

    name = "pipeline"

    def setup(self) -> None:
        from repro.core.reassign import ReassignLearner
        from repro.experiments.environments import fleet_for, fleet_spec_for

        self.params = self._params()
        self.workflows = self._workflows()
        self.specs = {v: fleet_spec_for(v) for v in self.scale.fleets}
        self.begin_pass(0)
        v0 = self.scale.fleets[0]
        ReassignLearner(self.workflows[0], fleet_for(v0), self.params).kernel

    def begin_pass(self, p: int) -> None:
        from repro.scicumulus.swfms import SciCumulusRL

        self.swfms = SciCumulusRL(seed=derive(self.seed, "pipeline"))
        self.runs_seen = 0

    def run_unit(self, i: int) -> Any:
        w, v = self._combo(i)
        return self.swfms.run_workflow(self.workflows[w], self.specs[v], "reassign", params=self.params)

    def record(self, i: int, output: Any) -> UnitRecord:
        from repro.sim.validate import validate_result
        from repro.util.validate import ValidationError

        workflow = self.workflows[self._combo(i)[0]]
        n = len(workflow.activation_ids)
        error = None
        try:
            validate_result(workflow, output.execution)
        except ValidationError as exc:
            error = f"execution stage invalid: {exc}"
        if error is None and sorted(output.plan.assignment) != sorted(workflow.activation_ids):
            error = "plan does not cover every activation exactly once"
        runs = len(self.swfms.provenance.learning_runs())
        if error is None and runs != self.runs_seen + 1:
            error = f"unit recorded {runs - self.runs_seen} learning runs, expected 1"
        self.runs_seen = runs
        return UnitRecord(
            index=i,
            # no failure models: every learning episode dispatches each
            # activation once, plus the execution stage's dispatches
            episodes=self.params.episodes,
            activations=self.params.episodes * n + len(output.execution.records),
            plan_makespan=output.simulated_makespan,
            latencies=[output.deploy_time + output.total_execution_time],
            error=error,
            sample=hashlib.sha256(
                repr((output.plan.to_json(), output.simulated_makespan, output.deploy_time,
                      output.total_execution_time)).encode()
            ).hexdigest(),
        )


class SweepWorkload(Workload):
    """One ``run_paper_sweep`` per unit: one Table-I fleet over a sub-grid.

    A unit sweeps alpha, gamma and epsilon over ``VALUES`` of the paper's
    grid values (8 cells, one 8-lane runner task, about 1 s).
    Units rotate over the fleets and over the sub-grids, in step, so one
    rotation covers every fleet and every grid value.  The runner works
    serially (``workers=1``): on the reference host a two-worker pool made
    the run-to-run spread of every host time 17–28%, beyond any bound the
    benchmark may set.
    """

    name = "sweep"
    #: grid values per parameter in one unit; one fleet's whole grid (all
    #: 3 values, 27 cells) takes 2.5–7 s, too long to repeat in a run
    VALUES = 2

    @property
    def subgrids(self) -> List[Tuple[float, ...]]:
        return list(itertools.combinations(self.scale.grid, self.VALUES))

    @property
    def cycle(self) -> int:
        return math.lcm(len(self.scale.fleets), len(self.subgrids))

    def setup(self) -> None:
        from repro.core.reassign import ReassignLearner
        from repro.experiments.environments import fleet_for

        self.params = self._params()
        self.workflows = self._workflows()
        self.fleets = {v: fleet_for(v) for v in self.scale.fleets}
        ReassignLearner(self.workflows[0], self.fleets[self.scale.fleets[0]], self.params).kernel

    def _unit_inputs(self, i: int) -> Tuple[Any, int, Tuple[float, ...], int]:
        """(workflow, fleet vCPUs, grid values, sweep seed) of unit ``i``."""
        fleets, subgrids = self.scale.fleets, self.subgrids
        workflow = self.workflows[(i // self.cycle) % len(self.workflows)]
        return workflow, fleets[i % len(fleets)], subgrids[i % len(subgrids)], derive(self.seed, "sweep", i)

    def run_unit(self, i: int) -> Any:
        from repro.experiments.sweeps import run_paper_sweep

        workflow, v, grid, seed = self._unit_inputs(i)
        return run_paper_sweep(
            workflow,
            vcpu_fleets=(v,),
            episodes=self.scale.episodes,
            seed=seed,
            grid=grid,
            workers=self.workers,
            timing="simulated",
            progress=self.progress,
        )

    def record(self, i: int, output: Any) -> UnitRecord:
        workflow, v, grid, _ = self._unit_inputs(i)
        rec = UnitRecord(index=i)
        n_cells = len(grid) ** 3
        cells = output.records.get(v, [])
        if len(cells) != n_cells:
            rec.error = f"{len(cells)} cells for {v} vCPUs, expected {n_cells}"
            return rec
        errors = []
        for cell in cells:
            result = cell.result
            rec.episodes += result.n_episodes
            rec.activations += sum(e.steps for e in result.episodes)
            rec.latencies.extend(result.makespan_curve())
            problem = check_learning_result(result, workflow, self.fleets[v], self.scale.episodes)
            if problem is None and cell.learning_time != result.simulated_learning_time:
                problem = "simulated learning time differs from the episode sum"
            if problem is not None:
                errors.append(f"cell {cell.params}: {problem}")
        if errors:
            rec.error = "; ".join(errors[:3])
            return rec
        rec.plan_makespan = output.best_cells()[v].simulated_makespan
        # one candidate cell for the sampled reference check
        cell = cells[derive(self.seed, "sweep-cell", i) % n_cells]
        rec.sample = (cell.params, fingerprint_digest(cell.result))
        return rec

    def check(self, records: List[UnitRecord]) -> None:
        from repro.core.reassign import ReassignLearner, SimulatedLearningClock

        candidates = [rec for rec in records if rec.error is None and rec.sample is not None]
        for j in evenly_spaced(len(candidates), self.scale.reference_checks[self.name]):
            rec = candidates[j]
            (alpha, gamma, epsilon), digest = rec.sample
            workflow, v, _, seed = self._unit_inputs(rec.index)
            params = self._params(alpha=alpha, gamma=gamma, epsilon=epsilon)
            reference = ReassignLearner(
                workflow, self.fleets[v], params, seed=seed, clock=SimulatedLearningClock()
            ).learn()
            if fingerprint_digest(reference) != digest:
                rec.error = f"cell {v}/{(alpha, gamma, epsilon)} differs from ReassignLearner.learn()"


class ServeWorkload(Workload):
    """One ``SchedulerService(reference_scenario(...)).run()`` per unit."""

    name = "serve"

    def setup(self) -> None:
        from repro.experiments.environments import fleet_for
        from repro.service.service import ServiceConfig
        from repro.workflows import registry

        self.config = ServiceConfig(vcpus=self.scale.serve_vcpus, policy="fair")
        fleet_for(self.config.vcpus)  # warm: each unit builds its own fleet
        jobs = self._arrivals(0).schedule()
        registry.make_workflow(jobs[0].workflow, jobs[0].size, seed=jobs[0].workflow_seed)

    def _arrivals(self, i: int) -> Any:
        from repro.service.service import reference_scenario

        return reference_scenario(
            seed=derive(self.seed, "serve", i),
            n_tenants=self.scale.serve_tenants,
            n_jobs=self.scale.serve_jobs,
            rate=self.scale.serve_rate,
            size=self.scale.serve_size,
        )

    def run_unit(self, i: int) -> Any:
        from repro.service.service import SchedulerService

        return SchedulerService(self._arrivals(i), self.config, seed=derive(self.seed, "serve-fleet", i)).run()

    def record(self, i: int, output: Any) -> UnitRecord:
        jobs = self._arrivals(i).schedule()
        error = None
        if output.n_failed:
            error = f"{output.n_failed} jobs failed"
        elif sorted(r.job_id for r in output.jobs) != sorted(j.job_id for j in jobs):
            error = "the completed jobs differ from the generated jobs"
        elif output.n_activations != sum(j.size for j in jobs):
            error = "scheduled activations differ from the generated job sizes"
        return UnitRecord(
            index=i,
            episodes=output.n_jobs,
            activations=output.n_activations,
            plan_makespan=sum(r.completion_time - r.first_dispatch_time for r in output.jobs)
            / max(1, output.n_jobs),
            latencies=[r.latency for r in output.jobs],
            error=error,
            sample=hashlib.sha256(output.to_json(include_jobs=True).encode()).hexdigest(),
        )

    def check(self, records: List[UnitRecord]) -> None:
        for j in evenly_spaced(len(records), self.scale.reference_checks[self.name]):
            rec = records[j]
            if rec.error is not None or rec.sample is None:
                continue
            again = self.run_unit(rec.index).to_json(include_jobs=True)
            if hashlib.sha256(again.encode()).hexdigest() != rec.sample:
                rec.error = "metrics JSON differs on a same-seed re-run"


WORKLOADS = {
    w.name: w for w in (LearnWorkload, PipelineWorkload, SweepWorkload, ServeWorkload)
}
