"""Tests for repro.scicumulus — XML spec, cloud, MPI engine, provenance,
and the SWfMS facade."""

import pytest

from repro.core import LearningResult, ReassignLearner, ReassignParams
from repro.schedulers import HeftScheduler, SchedulingPlan
from repro.scicumulus import (
    CloudProfile,
    MpiConfig,
    MpiExecutionEngine,
    ProvenanceStore,
    SciCumulusRL,
    SimulatedCloud,
    workflow_from_xml,
    workflow_to_xml,
)
from repro.scicumulus.swfms import fleet_label
from repro.sim.metrics import ActivationRecord, SimulationResult
from repro.util.rng import RngService
from repro.util.validate import ValidationError
from repro.workflows import montage


def _learning_fingerprint(result):
    """A LearningResult's deterministic content (no wall clock)."""
    return (
        result.qtable_json,
        result.plan.to_json(),
        result.simulated_makespan,
        result.simulated_learning_time,
        [e.to_dict() for e in result.episodes],
    )


class TestXmlSpec:
    def test_round_trip(self, montage25):
        back = workflow_from_xml(workflow_to_xml(montage25))
        assert len(back) == len(montage25)
        assert back.edges == montage25.edges
        assert back.name == montage25.name
        for i in montage25.activation_ids:
            assert back.activation(i).runtime == pytest.approx(
                montage25.activation(i).runtime, rel=1e-5
            )

    def test_file_sizes_survive(self, data_diamond):
        data_diamond.infer_data_dependencies()
        back = workflow_from_xml(workflow_to_xml(data_diamond))
        assert back.activation(1).inputs[0].size_bytes == pytest.approx(1e6)

    def test_malformed(self):
        with pytest.raises(ValidationError):
            workflow_from_xml("<SciCumulus")
        with pytest.raises(ValidationError):
            workflow_from_xml("<Other/>")

    def test_file_write(self, montage25, tmp_path):
        path = tmp_path / "spec.xml"
        workflow_to_xml(montage25, path)
        assert workflow_from_xml(path.read_text()).name == montage25.name


class TestCloud:
    def test_deploy_ids_micros_first(self):
        cloud = SimulatedCloud(seed=1)
        fleet = cloud.deploy({"t2.2xlarge": 1, "t2.micro": 2})
        assert [vm.type.name for vm in fleet] == [
            "t2.micro", "t2.micro", "t2.2xlarge"
        ]

    def test_unknown_type_rejected(self):
        with pytest.raises(ValidationError):
            SimulatedCloud().deploy({"m5.large": 1})

    def test_execution_time_noisy_but_positive(self, montage25):
        cloud = SimulatedCloud(seed=1)
        fleet = cloud.deploy({"t2.micro": 1})
        ac = montage25.activation(0)
        times = [cloud.execution_time(ac, fleet[0], 0.0) for _ in range(20)]
        assert all(t > 0 for t in times)
        assert len(set(times)) > 1  # jitter

    def test_busy_time_accrues_and_throttles(self, montage25):
        profile = CloudProfile(jitter_sigma=0.0,
                               throttle_credit_seconds=10.0,
                               throttle_factor=3.0,
                               interference_probability=0.0)
        cloud = SimulatedCloud(profile, seed=1)
        fleet = cloud.deploy({"t2.micro": 1})
        ac = montage25.activation(0)
        first = cloud.execution_time(ac, fleet[0], 0.0)
        # push busy time over the credit budget
        while cloud.busy_time(0) < 10.0:
            cloud.execution_time(ac, fleet[0], 0.0)
        throttled = cloud.execution_time(ac, fleet[0], 0.0)
        assert throttled == pytest.approx(first * 3.0, rel=1e-6)

    def test_teardown_bills(self):
        cloud = SimulatedCloud(seed=1)
        cloud.deploy({"t2.micro": 2})
        assert cloud.teardown(at=100.0) > 0

    def test_profiles(self):
        assert CloudProfile.calm().interference_probability == 0.0
        assert (CloudProfile.stormy().jitter_sigma
                > CloudProfile().jitter_sigma)

    def test_transfer_time(self):
        cloud = SimulatedCloud(seed=1)
        fleet = cloud.deploy({"t2.micro": 1})
        t = cloud.transfer_time(2, 37.5e6, fleet[0])
        assert t == pytest.approx(2 * cloud.profile.storage_latency + 1.0)
        with pytest.raises(ValidationError):
            cloud.transfer_time(-1, 0, fleet[0])


class TestMpiEngine:
    def _setup(self, wf, spec, plan=None, profile=None):
        cloud = SimulatedCloud(profile or CloudProfile.calm(), seed=3)
        fleet = cloud.deploy(spec)
        plan = plan or HeftScheduler().plan(wf, fleet)
        return MpiExecutionEngine(wf, fleet, plan, cloud), plan

    def test_executes_whole_workflow(self, montage25):
        engine, plan = self._setup(montage25, {"t2.micro": 2, "t2.2xlarge": 1})
        result = engine.run()
        assert result.succeeded
        assert len(result.records) == 25
        assert result.assignment == plan.assignment

    def test_dependencies_respected(self, montage25):
        engine, _ = self._setup(montage25, {"t2.micro": 2, "t2.2xlarge": 1})
        result = engine.run()
        finish = {r.activation_id: r.finish_time for r in result.records}
        start = {r.activation_id: r.start_time for r in result.records}
        for p, c in montage25.edges:
            assert start[c] >= finish[p] - 1e-9

    def test_slave_count_is_vcpus(self, montage25):
        engine, _ = self._setup(montage25, {"t2.micro": 8, "t2.2xlarge": 1})
        assert len(engine.slaves) == 16
        assert {s.rank for s in engine.slaves} == set(range(1, 17))

    def test_mpi_overheads_add_time(self, montage25):
        fast, _ = self._setup(montage25, {"t2.micro": 2, "t2.2xlarge": 1})
        t_fast = fast.run().makespan
        cloud = SimulatedCloud(CloudProfile.calm(), seed=3)
        fleet = cloud.deploy({"t2.micro": 2, "t2.2xlarge": 1})
        plan = HeftScheduler().plan(montage25, fleet)
        slow = MpiExecutionEngine(
            montage25, fleet, plan, cloud,
            MpiConfig(message_latency=1.0, master_overhead=0.5),
        )
        assert slow.run().makespan > t_fast

    def test_plan_mismatch_rejected(self, montage25):
        cloud = SimulatedCloud(seed=1)
        fleet = cloud.deploy({"t2.micro": 1})
        bad = SchedulingPlan(assignment={0: 0})
        with pytest.raises(ValidationError):
            MpiExecutionEngine(montage25, fleet, bad, cloud)

    def test_deterministic_given_seed(self, montage25):
        a, _ = self._setup(montage25, {"t2.micro": 2, "t2.2xlarge": 1})
        b, _ = self._setup(montage25, {"t2.micro": 2, "t2.2xlarge": 1})
        assert a.run().makespan == b.run().makespan


class TestProvenance:
    def _result(self):
        return SimulationResult(
            workflow_name="wf",
            records=[
                ActivationRecord(0, "a", 3, 0.0, 1.0, 5.0),
                ActivationRecord(1, "b", 4, 1.0, 2.0, 8.0),
            ],
            makespan=8.0,
            final_state="successfully finished",
        )

    def test_record_and_query_executions(self):
        store = ProvenanceStore()
        eid = store.record_execution(self._result(), "HEFT", "fleetA", cost=1.5)
        rows = store.executions()
        assert len(rows) == 1
        assert rows[0].id == eid and rows[0].cost == 1.5
        assert store.executions("wf")[0].scheduler == "HEFT"
        assert store.executions("other") == []

    def test_history_shape(self):
        store = ProvenanceStore()
        store.record_execution(self._result(), "HEFT", "fleetA")
        history = store.execution_history("wf")
        assert history == [(3, 4.0, 1.0), (4, 6.0, 1.0)]

    def test_history_excludes_failures(self):
        result = self._result()
        result.records[0].failed = True
        store = ProvenanceStore()
        store.record_execution(result, "HEFT", "fleetA")
        assert len(store.execution_history("wf")) == 1

    def test_learning_run_round_trip(self, montage25, fleet16):
        from repro.core import ReassignLearner

        params = ReassignParams(episodes=3)
        learning = ReassignLearner(montage25, fleet16, params, seed=1).learn()
        store = ProvenanceStore()
        store.record_learning_run("wf", "fleetA", params.label(), learning)
        qjson = store.latest_qtable("wf", "fleetA", params.label())
        assert qjson is not None
        from repro.rl.qtable import QTable

        assert len(QTable.from_json(qjson)) > 0
        assert store.latest_qtable("wf", "other") is None

    def test_activation_rows(self):
        store = ProvenanceStore()
        eid = store.record_execution(self._result(), "HEFT", "f")
        assert len(store.activation_rows(eid)) == 2
        with pytest.raises(ValidationError):
            store.activation_rows(999)

    def test_file_persistence(self, tmp_path):
        path = tmp_path / "prov.db"
        with ProvenanceStore(path) as store:
            store.record_execution(self._result(), "HEFT", "f")
        with ProvenanceStore(path) as store:
            assert len(store.executions()) == 1


class TestSwfms:
    def test_fleet_label(self):
        label = fleet_label({"t2.micro": 8, "t2.2xlarge": 1})
        assert label == "8x t2.micro + 1x t2.2xlarge (16 vCPUs)"

    def test_heft_pipeline(self, montage25):
        swfms = SciCumulusRL(seed=1)
        report = swfms.run_workflow(
            montage25, {"t2.micro": 2, "t2.2xlarge": 1}, HeftScheduler()
        )
        assert report.scheduler == "HEFT"
        assert report.vcpus == 10
        assert report.total_execution_time > 0
        assert report.cost > 0
        assert report.deploy_time > 0
        assert len(swfms.provenance.executions(montage25.name)) == 1

    def test_reassign_pipeline_records_learning(self, montage25):
        swfms = SciCumulusRL(seed=1)
        report = swfms.run_workflow(
            montage25, {"t2.micro": 2, "t2.2xlarge": 1},
            "reassign", ReassignParams(episodes=3),
        )
        assert "ReASSIgN" in report.scheduler
        assert report.learning_time > 0
        assert len(swfms.provenance.learning_runs(montage25.name)) == 1

    def test_provenance_warm_start_used(self, montage25):
        swfms = SciCumulusRL(seed=1)
        params = ReassignParams(episodes=3)
        spec = {"t2.micro": 2, "t2.2xlarge": 1}
        swfms.run_workflow(montage25, spec, "reassign", params)
        # the second run must find a prior Q-table in provenance
        label = fleet_label(spec)
        assert swfms.provenance.latest_qtable(
            montage25.name, label, params.label()
        ) is not None
        report2 = swfms.run_workflow(montage25, spec, "reassign", params)
        assert report2.total_execution_time > 0

    def test_warm_runs_match_the_reference_learner(self, montage25):
        """Cold, warm, warm on one store: each recorded learning run is
        what ``ReassignLearner.learn()`` gives for the same priors."""
        swfms = SciCumulusRL(seed=4)
        params = ReassignParams(episodes=4)
        spec = {"t2.micro": 2, "t2.2xlarge": 1}
        label = fleet_label(spec)
        fleet = swfms._learning_fleet(spec)
        # SCSetup learns on the XML round trip of the workflow
        spec_workflow = workflow_from_xml(workflow_to_xml(montage25))
        for run in (1, 2, 3):
            store = swfms.provenance
            prior_qtable = store.latest_qtable(
                montage25.name, label, params.label()
            )
            prior_history = store.execution_history(montage25.name, label)
            assert (prior_qtable is None) == (run == 1)
            assert bool(prior_history) == (run > 1)
            swfms.run_workflow(montage25, spec, "reassign", params)
            (payload,) = store._conn.execute(
                "SELECT payload FROM learning_runs ORDER BY id DESC LIMIT 1"
            ).fetchone()
            recorded = LearningResult.from_json(payload)
            expected = ReassignLearner(
                spec_workflow,
                fleet,
                params,
                seed=RngService(4).spawn_seed(f"run:{run}"),
                prior_qtable_json=prior_qtable,
                prior_history=prior_history or None,
            ).learn()
            assert _learning_fingerprint(recorded) == _learning_fingerprint(
                expected
            )

    def test_unknown_scheduler_string(self, montage25):
        with pytest.raises(ValidationError):
            SciCumulusRL(seed=1).run_workflow(
                montage25, {"t2.micro": 1}, "dqn"
            )

    def test_empty_fleet_rejected(self, montage25):
        with pytest.raises(ValidationError):
            SciCumulusRL(seed=1).run_workflow(montage25, {}, HeftScheduler())

    def test_execute_plan_direct(self, montage25):
        swfms = SciCumulusRL(seed=1)
        spec = {"t2.micro": 2, "t2.2xlarge": 1}
        fleet = swfms._learning_fleet(spec)
        plan = HeftScheduler().plan(montage25, fleet)
        report = swfms.execute_plan(montage25, spec, plan, "HEFT")
        assert report.total_execution_time > 0
