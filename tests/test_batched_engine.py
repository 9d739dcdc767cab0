"""Batched engine: bit-identical to the serial decision loop.

``repro.core.batch.learn_batch`` drives B learning lanes over one
shared simulation kernel — pure performance work, so the contract is
byte-equality against ``ReassignLearner.learn()``:

- a Hypothesis property learns random layered DAGs batched and serial
  and demands identical ``LearningResult.to_json()``;
- directed tests sweep the batch width over B ∈ {1, 2, 7, 32}, cover
  ineligible-lane fallbacks (SARSA / Double-Q / bucketed states / a
  booting fleet) mixed into one batch, and the sweep fingerprint
  across worker counts and batch sizes;
- provenance warm starts (a prior Q-table and reward history) match
  the reference learner built from the same priors, on the fused body
  (each prior alone, both, per-episode reward memory), on a SARSA
  fallback lane and with cold and warm lanes sharing one kernel;
  malformed priors raise the same ``ValidationError`` on both paths;
- ``adopt_kernel``'s safety rails reject double adoption and
  mismatched kernel configurations.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.lane as lane
from repro.core.batch import BatchSpec, fast_lane_eligible, learn_batch
from repro.core.reassign import (
    ReassignLearner,
    ReassignParams,
    SimulatedLearningClock,
)
from repro.dag.activation import Activation
from repro.dag.graph import Workflow
from repro.experiments.environments import fleet_for
from repro.sim.kernel import EpisodeKernel
from repro.sim.vm import Vm
from repro.util.validate import ValidationError
from repro.workflows.montage import montage


def random_dag(seed: int, n_min: int = 4, n_max: int = 10) -> Workflow:
    """A random layered DAG — deterministic in ``seed``."""
    rng = random.Random(seed)
    n = rng.randint(n_min, n_max)
    wf = Workflow(f"random-{seed}-{n}")
    for i in range(n):
        wf.add_activation(
            Activation(id=i, activity=f"a{i}",
                       runtime=round(rng.uniform(1.0, 60.0), 3))
        )
    for child in range(1, n):
        for parent in range(child):
            if rng.random() < 0.3:
                wf.add_dependency(parent, child)
    wf.validate()
    return wf


def _spec(wf, seed, vms=None, **params):
    return BatchSpec(
        workflow=wf,
        vms=fleet_for(16) if vms is None else vms,
        params=ReassignParams(episodes=params.pop("episodes", 3), **params),
        seed=seed,
    )


def _serial(spec: BatchSpec):
    return ReassignLearner(
        spec.workflow, spec.vms, spec.params, seed=spec.seed
    ).learn()


def _count(monkeypatch, owner, name):
    """Count calls to ``owner.name`` for the rest of the test."""
    calls = []
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


def _fp(result):
    """Everything in ``to_json()`` except the wall-clock learning time."""
    import json

    data = json.loads(result.to_json())
    data.pop("learning_time", None)
    return data


class TestBatchedVsSerial:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_random_dags_bitwise_equal(self, seed):
        wf = random_dag(seed)
        specs = [
            _spec(wf, seed, alpha=0.5, epsilon=0.1),
            _spec(wf, seed + 1, alpha=0.9, epsilon=0.5),
            _spec(random_dag(seed + 7), seed, alpha=0.1, epsilon=0.1),
        ]
        batched = learn_batch(specs)
        for spec, got in zip(specs, batched):
            assert _fp(got) == _fp(_serial(spec))

    @pytest.mark.parametrize("width", [1, 2, 7, 32])
    def test_batch_widths_bitwise_equal(self, width):
        pool = [random_dag(100 + k, n_min=4, n_max=7) for k in range(4)]
        grid = [(0.1, 0.1), (0.5, 0.1), (0.9, 0.5), (1.0, 0.9)]
        specs = [
            _spec(pool[k % 4], seed=k % 3, episodes=2,
                  alpha=grid[k % 4][0], epsilon=grid[k % 4][1])
            for k in range(width)
        ]
        batched = learn_batch(specs)
        assert len(batched) == width
        for spec, got in zip(specs, batched):
            assert _fp(got) == _fp(_serial(spec))

    def test_ineligible_lanes_fall_back_and_still_match(self, monkeypatch):
        wf = random_dag(42, n_min=5, n_max=8)
        # the 2xlarge boots for 30 s: the fused body has no boot events
        booting = [
            Vm(vm.id, replace(vm.type, boot_time=30.0))
            if vm.type.name == "t2.2xlarge" else vm
            for vm in fleet_for(16)
        ]
        specs = [
            _spec(wf, 1),  # fast lane
            _spec(wf, 1, rule="sarsa"),
            _spec(wf, 1, rule="doubleq"),
            _spec(wf, 1, state_buckets=4),
            _spec(wf, 1, vms=booting),
        ]

        def eligible(spec):
            learner = ReassignLearner(spec.workflow, spec.vms, spec.params)
            return fast_lane_eligible(spec.params, learner.kernel)

        assert eligible(specs[0])
        for spec in specs[1:]:
            assert not eligible(spec)
            fused = _count(monkeypatch, lane, "_drive_lean")
            reference = _count(monkeypatch, ReassignLearner, "learn")
            got = learn_batch([spec])[0]
            assert (len(fused), len(reference)) == (0, 1)
            monkeypatch.undo()
            assert _fp(got) == _fp(_serial(spec))
        batched = learn_batch(specs)
        for spec, got in zip(specs, batched):
            assert _fp(got) == _fp(_serial(spec))
        # the boot delay is real: the booting lane learns another run
        assert _fp(batched[4]) != _fp(batched[0])

    def test_simulated_timing_matches_serial_clock(self):
        wf = montage(25, seed=3)
        spec = _spec(wf, 9)
        batched = learn_batch([spec], timing="simulated")[0]
        serial = ReassignLearner(
            wf, spec.vms, spec.params, seed=9,
            clock=SimulatedLearningClock(),
        ).learn()
        assert batched.to_json() == serial.to_json()
        assert batched.learning_time == batched.simulated_learning_time

    def test_invalid_timing_rejected(self):
        with pytest.raises(ValidationError, match="timing"):
            learn_batch([_spec(montage(25, seed=0), 0)], timing="cpu")

    def test_empty_batch_is_empty(self):
        assert learn_batch([]) == []


def _priors(wf, vms, seed=77):
    """A provenance-style warm start: an earlier run's table + history.

    The history covers every VM of the fleet (50 triples) plus one VM id
    outside it, which still takes part in the §III-B std scan.
    """
    earlier = ReassignLearner(
        wf, vms, ReassignParams(episodes=4), seed=seed
    ).learn()
    ids = [vm.id for vm in vms] + [999]
    history = [
        (ids[k % len(ids)], 4.0 + 7.5 * (k % 5), 0.25 * (k % 7))
        for k in range(50)
    ]
    return earlier.qtable_json, history


def _warm_serial(spec: BatchSpec):
    return ReassignLearner(
        spec.workflow,
        spec.vms,
        spec.params,
        seed=spec.seed,
        prior_qtable_json=spec.prior_qtable_json,
        prior_history=spec.prior_history,
        clock=SimulatedLearningClock(),
    ).learn()


class TestWarmStarts:
    """``learn_batch`` with provenance priors vs the reference learner."""

    @pytest.mark.parametrize(
        "priors, memory",
        [("both", "full"), ("qtable", "full"), ("history", "full"),
         ("both", "episode")],
    )
    def test_lean_body_matches_reference(self, monkeypatch, priors, memory):
        wf = montage(25, seed=3)
        qjson, history = _priors(wf, fleet_for(16))
        spec = BatchSpec(
            workflow=wf, vms=fleet_for(16),
            params=ReassignParams(episodes=6, reward_memory=memory), seed=5,
            prior_qtable_json=None if priors == "history" else qjson,
            prior_history=None if priors == "qtable" else history,
        )
        lean = _count(monkeypatch, lane, "_drive_lean")
        got = learn_batch([spec], timing="simulated")[0]
        assert len(lean) == 6
        assert got.to_json() == _warm_serial(spec).to_json()
        # the priors really steer the run
        cold = replace(spec, prior_qtable_json=None, prior_history=None)
        assert learn_batch([cold], timing="simulated")[0].to_json() != got.to_json()

    def test_fast_lane_mirrors_the_bootstrapped_reward(self):
        # the §III-B std scan walks per-VM indexes in the reward's
        # insertion order; the flattened lane must keep that order
        params = ReassignParams()
        learner = ReassignLearner(
            random_dag(3), fleet_for(16), params, seed=2,
            prior_history=[(5, 3.0, 1.0), (0, 9.0, 0.5), (999, 4.0, 2.0),
                           (5, 6.0, 0.0)],
        )
        reward = learner.scheduler.reward
        fast = lane._FastLane(params, 2, learner.scheduler.qtable, reward)
        assert fast.qtable is learner.scheduler.qtable
        assert list(fast.pos) == [5, 0, 999]
        assert list(fast.pos.values()) == [0, 1, 2]
        assert fast.index == [reward.vm_index(v) for v in (5, 0, 999)]
        assert fast.exec_n == fast.queue_n == [2, 1, 1]
        assert (fast.g_exec_n, fast.g_queue_n) == (4, 4)
        assert (
            fast.g_exec_mean * fast.mu + (1.0 - fast.mu) * fast.g_queue_mean
            == reward.global_index()
        )

    def test_sarsa_fallback_lane_keeps_priors(self):
        wf = random_dag(42, n_min=5, n_max=8)
        qjson, history = _priors(wf, fleet_for(16))
        spec = BatchSpec(
            workflow=wf, vms=fleet_for(16),
            params=ReassignParams(episodes=4, rule="sarsa"),
            seed=8, prior_qtable_json=qjson, prior_history=history,
        )
        assert not fast_lane_eligible(
            spec.params, ReassignLearner(wf, spec.vms).kernel
        )
        got = learn_batch([spec], timing="simulated")[0]
        assert got.to_json() == _warm_serial(spec).to_json()
        cold = learn_batch(
            [_spec(wf, 8, episodes=4, rule="sarsa")], timing="simulated"
        )[0]
        assert cold.qtable_json != got.qtable_json

    @pytest.mark.parametrize("width", [1, 3])
    def test_mixed_cold_and_warm_lanes_share_one_kernel(
        self, monkeypatch, width
    ):
        wf = montage(25, seed=3)
        qjson, history = _priors(wf, fleet_for(16))
        specs = [
            BatchSpec(
                workflow=wf, vms=fleet_for(16),
                params=ReassignParams(episodes=4, alpha=0.5 + 0.2 * (k % 2)),
                seed=20 + k,
                # lane 0 warm, lane 1 cold, lane 2 warm from history only
                prior_qtable_json=qjson if k == 0 else None,
                prior_history=history if k in (0, 2) else None,
            )
            for k in range(width)
        ]
        builds = _count(monkeypatch, EpisodeKernel, "__init__")
        batched = learn_batch(specs, timing="simulated")
        assert len(builds) == 1
        for spec, got in zip(specs, batched):
            assert got.to_json() == _warm_serial(spec).to_json()

    @pytest.mark.parametrize(
        "prior",
        [
            {"prior_qtable_json": "[]"},
            {"prior_qtable_json": '{"entries": [["s", "a", NaN]]}'},
            {"prior_history": [(0, 1.0)]},
            {"prior_history": [(0, float("nan"), 1.0)]},
        ],
    )
    def test_malformed_priors_rejected_alike(self, prior):
        wf = random_dag(5)
        spec = BatchSpec(
            workflow=wf, vms=fleet_for(16),
            params=ReassignParams(episodes=2), seed=1, **prior,
        )
        with pytest.raises(ValidationError) as fused:
            learn_batch([spec])
        with pytest.raises(ValidationError) as reference:
            _warm_serial(spec)
        assert str(fused.value) == str(reference.value)


class TestSweepFingerprints:
    def _sweep(self, workers, batch):
        from repro.experiments.sweeps import run_paper_sweep

        return run_paper_sweep(
            montage(25, seed=1),
            vcpu_fleets=(16,),
            episodes=2,
            seed=1,
            grid=(0.1, 1.0),
            workers=workers,
            timing="simulated",
            batch=batch,
        )

    def test_workers_and_batch_invariant(self):
        def fingerprint(sweep):
            return [
                (r.params, r.learning_time, r.simulated_makespan,
                 r.result.qtable_json, r.result.plan.to_json())
                for r in sweep.records[16]
            ]

        base = fingerprint(self._sweep(workers=1, batch=1))
        assert fingerprint(self._sweep(workers=1, batch=8)) == base
        assert fingerprint(self._sweep(workers=4, batch=8)) == base
        assert fingerprint(self._sweep(workers=4, batch=3)) == base


class TestAdoptKernel:
    def test_adopting_over_a_built_kernel_is_rejected(self):
        wf = montage(25, seed=0)
        donor = ReassignLearner(wf, fleet_for(16))
        recipient = ReassignLearner(wf, fleet_for(16))
        recipient.kernel  # builds
        with pytest.raises(ValidationError, match="already has a kernel"):
            recipient.adopt_kernel(donor.kernel, donor.kernel_fingerprint())

    def test_fingerprint_mismatch_is_rejected(self):
        donor = ReassignLearner(montage(25, seed=0), fleet_for(16))
        other = ReassignLearner(montage(25, seed=0), fleet_for(32))
        with pytest.raises(ValidationError, match="fingerprint mismatch"):
            other.adopt_kernel(donor.kernel, donor.kernel_fingerprint())

    def test_adopted_kernel_is_shared(self):
        wf = montage(25, seed=0)
        donor = ReassignLearner(wf, fleet_for(16))
        recipient = ReassignLearner(wf, fleet_for(16))
        recipient.adopt_kernel(donor.kernel, donor.kernel_fingerprint())
        assert recipient.kernel is donor.kernel


class TestBatchSpecValidation:
    def test_pack_payloads_rejects_zero(self):
        from repro.runner import pack_payloads

        with pytest.raises(ValidationError, match="batch size"):
            pack_payloads([1, 2, 3], 0)

    def test_pack_payloads_chunks_consecutively(self):
        from repro.runner import pack_payloads

        assert pack_payloads([1, 2, 3, 4, 5], 2) == [(1, 2), (3, 4), (5,)]
        assert pack_payloads([], 3) == []


class TestCliBatchFlag:
    def test_batch_zero_is_a_clean_parser_error(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--batch", "0"])
        assert exc.value.code == 2
        assert "batch must be >= 1" in capsys.readouterr().err

    def test_batch_non_integer_is_a_clean_parser_error(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exc:
            main(["ensemble", "--batch", "many"])
        assert exc.value.code == 2
        assert "batch must be an integer" in capsys.readouterr().err

    def test_help_describes_batched_execution(self, capsys):
        from repro.cli import build_parser

        for command in ("sweep", "ensemble"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--help"])
            out = capsys.readouterr().out
            assert "--batch" in out
            assert "lane" in out
        # a single learn run is always one lane: no --batch to tune
        with pytest.raises(SystemExit):
            build_parser().parse_args(["learn", "--help"])
        assert "--batch" not in capsys.readouterr().out
