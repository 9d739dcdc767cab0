"""SciCumulus-RL — the SCSetup / SCStarter / SCCore pipeline (Fig. 1).

:class:`SciCumulusRL` wires the paper's architecture together:

1. **SCSetup** loads the workflow specification (XML) and — in the RL
   mode — invokes the WorkflowSim substitute to learn a scheduling plan
   (ReASSIgN episodes on the fused lane stepper,
   :func:`repro.core.batch.learn_batch`), optionally bootstrapped from
   the provenance database;
2. **SCStarter** deploys the VMs the plan requires on the simulated AWS
   cloud (boot latency, billing);
3. **SCCore** executes the plan with the simulated MPI master/slave
   engine on the noisy cloud;
4. everything lands in the **provenance database** for future runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

from repro.core import batch
from repro.core.reassign import ReassignParams
from repro.dag.graph import Workflow
from repro.schedulers.base import SchedulingPlan, StaticScheduler
from repro.scicumulus.cloud import CloudProfile, SimulatedCloud
from repro.scicumulus.mpi_sim import MpiConfig, MpiExecutionEngine
from repro.scicumulus.provenance import ProvenanceStore
from repro.scicumulus.xml_spec import workflow_from_xml, workflow_to_xml
from repro.sim.metrics import SimulationResult
from repro.sim.vm import VM_TYPES, Vm, fleet_vcpus
from repro.util.rng import RngService
from repro.util.validate import ValidationError

__all__ = ["ExecutionReport", "SciCumulusRL", "fleet_label"]


def fleet_label(fleet_spec: Dict[str, int]) -> str:
    """Human label for a fleet spec, e.g. ``8x t2.micro + 1x t2.2xlarge``."""
    parts = [
        f"{count}x {name}"
        for name, count in sorted(fleet_spec.items(), key=lambda kv: VM_TYPES[kv[0]].vcpus)
        if count
    ]
    vcpus = sum(VM_TYPES[name].vcpus * count for name, count in fleet_spec.items())
    return f"{' + '.join(parts)} ({vcpus} vCPUs)"


@dataclass
class ExecutionReport:
    """Outcome of one SciCumulus-RL run (the paper's Table IV row)."""

    workflow: str
    scheduler: str
    fleet: str
    vcpus: int
    plan: SchedulingPlan
    deploy_time: float  #: SCStarter provisioning latency (slowest boot)
    execution: SimulationResult  #: SCCore's run
    cost: float  #: the cloud bill (USD)
    learning_time: float = 0.0  #: WorkflowSim stage (0 for non-RL schedulers)
    simulated_makespan: float = 0.0  #: plan's makespan in the learning sim

    @property
    def total_execution_time(self) -> float:
        """The Table-IV metric: SCCore wall time on the cloud."""
        return self.execution.makespan


class SciCumulusRL:
    """The SWfMS facade.

    Parameters
    ----------
    provenance:
        Shared provenance store; an in-memory one is created if omitted.
    cloud_profile:
        Noise profile of the execution region.
    mpi:
        MPI latency/overhead configuration.
    seed:
        Root seed; each run derives independent streams from it.
    """

    def __init__(
        self,
        provenance: Optional[ProvenanceStore] = None,
        cloud_profile: CloudProfile = CloudProfile(),
        mpi: MpiConfig = MpiConfig(),
        seed: int = 0,
    ) -> None:
        self.provenance = provenance if provenance is not None else ProvenanceStore()
        self.cloud_profile = cloud_profile
        self.mpi = mpi
        self.seed = int(seed)
        self._run_counter = 0

    # -- SCSetup -----------------------------------------------------------

    @staticmethod
    def load_specification(xml_text: str) -> Workflow:
        """SCSetup: parse a SciCumulus workflow specification."""
        return workflow_from_xml(xml_text)

    @staticmethod
    def dump_specification(workflow: Workflow) -> str:
        """Serialize a workflow to the specification format."""
        return workflow_to_xml(workflow)

    def _learning_fleet(self, fleet_spec: Dict[str, int]) -> list:
        """A fleet with the same ids SCStarter will deploy (micros first)."""
        vms = []
        next_id = 0
        for name in sorted(fleet_spec, key=lambda t: VM_TYPES[t].vcpus):
            for _ in range(fleet_spec[name]):
                vms.append(Vm(next_id, VM_TYPES[name]))
                next_id += 1
        if not vms:
            raise ValidationError("fleet_spec must provision at least one VM")
        return vms

    # -- the full pipeline ---------------------------------------------------

    def run_workflow(
        self,
        workflow: Workflow,
        fleet_spec: Dict[str, int],
        scheduler: Union[str, StaticScheduler] = "reassign",
        params: Optional[ReassignParams] = None,
        use_provenance: bool = True,
    ) -> ExecutionReport:
        """Learn (or plan) a schedule, execute it on the cloud, record it.

        ``scheduler`` is either the string ``"reassign"`` (the RL mode:
        SCSetup invokes the WorkflowSim substitute and runs Algorithm 2)
        or any :class:`~repro.schedulers.base.StaticScheduler` (e.g.
        :class:`~repro.schedulers.heft.HeftScheduler` — the paper's
        baseline mode).
        """
        self._run_counter += 1
        run_seed = RngService(self.seed).spawn_seed(f"run:{self._run_counter}")
        # SCSetup: validate the spec by round-tripping through the XML format
        spec_workflow = workflow_from_xml(workflow_to_xml(workflow))
        label = fleet_label(fleet_spec)
        learning_fleet = self._learning_fleet(fleet_spec)

        learning_time = 0.0
        simulated_makespan = 0.0
        if isinstance(scheduler, str):
            if scheduler != "reassign":
                raise ValidationError(
                    f"unknown scheduler {scheduler!r}; pass 'reassign' or a "
                    "StaticScheduler instance"
                )
            params = params if params is not None else ReassignParams()
            prior_qtable = None
            prior_history = None
            if use_provenance:
                prior_qtable = self.provenance.latest_qtable(
                    spec_workflow.name, label, params.label()
                )
                history = self.provenance.execution_history(
                    spec_workflow.name, label
                )
                prior_history = history or None
            # the fused lane stepper, byte-identical to
            # ReassignLearner(...).learn() with the same priors
            learning = batch.learn_batch([
                batch.BatchSpec(
                    workflow=spec_workflow,
                    vms=learning_fleet,
                    params=params,
                    seed=run_seed,
                    prior_qtable_json=prior_qtable,
                    prior_history=prior_history,
                )
            ])[0]
            plan = learning.plan
            learning_time = learning.learning_time
            simulated_makespan = learning.simulated_makespan
            # created_at = simulated learning-stage duration: deterministic
            # for a given seed, unlike the wall clock (rule RL002).
            self.provenance.record_learning_run(
                spec_workflow.name,
                label,
                params.label(),
                learning,
                timestamp=learning.simulated_makespan,
            )
            scheduler_name = plan.name
        else:
            plan = scheduler.plan(spec_workflow, learning_fleet)
            scheduler_name = scheduler.name

        return self.execute_plan(
            spec_workflow,
            fleet_spec,
            plan,
            scheduler_name=scheduler_name,
            learning_time=learning_time,
            simulated_makespan=simulated_makespan,
            run_seed=run_seed,
        )

    def execute_plan(
        self,
        workflow: Workflow,
        fleet_spec: Dict[str, int],
        plan: SchedulingPlan,
        scheduler_name: str = "",
        learning_time: float = 0.0,
        simulated_makespan: float = 0.0,
        run_seed: Optional[int] = None,
    ) -> ExecutionReport:
        """SCStarter + SCCore: deploy the fleet and execute a given plan."""
        if run_seed is None:
            self._run_counter += 1
            run_seed = RngService(self.seed).spawn_seed(f"run:{self._run_counter}")
        label = fleet_label(fleet_spec)
        cloud = SimulatedCloud(self.cloud_profile, seed=run_seed)
        fleet = cloud.deploy(fleet_spec)  # SCStarter
        deploy_time = max((vm.type.boot_time for vm in fleet), default=0.0)

        engine = MpiExecutionEngine(workflow, fleet, plan, cloud, self.mpi)
        execution = engine.run()  # SCCore
        cost = cloud.teardown(deploy_time + execution.makespan)

        report = ExecutionReport(
            workflow=workflow.name,
            scheduler=scheduler_name or plan.name,
            fleet=label,
            vcpus=fleet_vcpus(fleet),
            plan=plan,
            deploy_time=deploy_time,
            execution=execution,
            cost=cost,
            learning_time=learning_time,
            simulated_makespan=simulated_makespan,
        )
        # created_at = simulated completion time (deploy + makespan), so
        # same-seed runs produce byte-identical provenance (rule RL002).
        self.provenance.record_execution(
            execution,
            report.scheduler,
            label,
            cost=cost,
            timestamp=deploy_time + execution.makespan,
        )
        return report
