"""Tests for the extension modules: LocalityScheduler, random_layered_dag
and the characterization/robustness experiments."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.dag import random_layered_dag
from repro.experiments.ablations import run_noise_robustness, run_revocation_ablation
from repro.experiments.characterization import (
    render_characterization,
    run_characterization,
)
from repro.schedulers import GreedyOnlineScheduler, LocalityScheduler
from repro.sim import SharedStorageNetwork, WorkflowSimulator, t2_fleet
from repro.util.validate import ValidationError
from repro.workflows import cybershake, montage


class TestLocalityScheduler:
    def test_completes_workflow(self, montage25, fleet16):
        result = WorkflowSimulator(
            montage25, fleet16, LocalityScheduler(),
            network=SharedStorageNetwork(),
        ).run()
        assert result.succeeded
        assert len(result.records) == 25

    def test_moves_fewer_bytes_than_greedy(self, fleet16):
        # CyberShake is the data-heavy workload; locality should cut the
        # time spent staging relative to the compute-oriented greedy.
        wf = cybershake(30, seed=2)

        def total_staging(scheduler):
            result = WorkflowSimulator(
                wf, fleet16, scheduler, network=SharedStorageNetwork(),
            ).run()
            return sum(r.stage_in_time for r in result.records)

        local = total_staging(LocalityScheduler(locality_weight=1.0))
        greedy = total_staging(GreedyOnlineScheduler())
        assert local <= greedy

    def test_zero_weight_is_valid(self, montage25, fleet16):
        result = WorkflowSimulator(
            montage25, fleet16, LocalityScheduler(locality_weight=0.0),
            network=SharedStorageNetwork(),
        ).run()
        assert result.succeeded

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            LocalityScheduler(locality_weight=-1.0)


class TestRandomDag:
    def test_exact_size_and_validity(self):
        wf = random_layered_dag(37, seed=5)
        assert len(wf) == 37
        wf.validate()

    def test_deterministic(self):
        a = random_layered_dag(30, seed=9)
        b = random_layered_dag(30, seed=9)
        assert a.edges == b.edges
        assert [x.runtime for x in a.activations] == [
            x.runtime for x in b.activations
        ]

    def test_layer_connectivity(self):
        wf = random_layered_dag(40, n_layers=5, seed=1)
        levels = wf.levels()
        # every non-entry node has at least one parent
        entries = set(wf.entries())
        for ac in wf:
            if ac.id not in entries:
                assert wf.parents(ac.id)

    def test_single_node(self):
        wf = random_layered_dag(1, seed=0)
        assert len(wf) == 1 and wf.edge_count == 0

    def test_validation(self):
        with pytest.raises(ValidationError):
            random_layered_dag(0)
        with pytest.raises(ValidationError):
            random_layered_dag(10, edge_density=1.5)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(min_value=1, max_value=60),
           density=st.floats(min_value=0.0, max_value=1.0),
           seed=st.integers(min_value=0, max_value=999))
    def test_property_valid_dags(self, n, density, seed):
        wf = random_layered_dag(n, edge_density=density, seed=seed)
        assert len(wf) == n
        wf.validate()

    def test_simulatable(self, fleet_small):
        wf = random_layered_dag(30, seed=2)
        result = WorkflowSimulator(
            wf, fleet_small, GreedyOnlineScheduler()
        ).run()
        assert result.succeeded


class TestCharacterization:
    def test_default_rows(self):
        rows = run_characterization(seed=0)
        assert len(rows) == 7
        assert rows[0][0] == "montage-25"

    def test_render(self):
        text = render_characterization(run_characterization(seed=0))
        assert "characterization" in text.lower()
        assert "montage-50" in text

    def test_custom_sizes(self):
        rows = run_characterization(seed=1, sizes=(("sipht", 20),))
        assert rows[0][0] == "sipht-20"


class TestRobustnessAblations:
    def test_noise_rows(self):
        rows = run_noise_robustness(episodes=3, seed=2)
        assert [r[0] for r in rows] == ["calm", "default", "stormy"]
        assert all(r[1] > 0 and r[2] > 0 for r in rows)

    def test_revocation_outcomes(self):
        rows = run_revocation_ablation(seed=2)
        outcomes = {s: o for s, o, _ in rows}
        assert outcomes["HEFT (static plan)"] == "deadlocked"
        assert outcomes["Greedy online"] == "successfully finished"
        makespans = {s: m for s, _, m in rows}
        assert math.isinf(makespans["HEFT (static plan)"])
