"""Tests for repro.core — the ReASSIgN algorithm (Algorithm 2)."""

import math

import pytest

from repro.core import (
    EpisodeRecord,
    LearningResult,
    ReassignLearner,
    ReassignParams,
    ReassignScheduler,
)
from repro.core.batch import BatchSpec, learn_batch
from repro.core.sweep import best_record, sweep_parameters
from repro.rl.qtable import QTable
from repro.sim import NoFluctuation, WorkflowSimulator, t2_fleet
from repro.util.validate import ValidationError
from repro.workflows import montage


@pytest.fixture
def params():
    return ReassignParams(alpha=0.5, gamma=1.0, epsilon=0.1, episodes=15)


class TestParams:
    def test_paper_defaults(self):
        p = ReassignParams()
        assert p.mu == 0.5 and p.episodes == 100

    def test_validation(self):
        with pytest.raises(ValidationError):
            ReassignParams(alpha=0.0)
        with pytest.raises(ValidationError):
            ReassignParams(gamma=1.5)
        with pytest.raises(ValidationError):
            ReassignParams(episodes=0)
        with pytest.raises(ValidationError):
            ReassignParams(rule="dqn")

    @pytest.mark.parametrize("scale", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("entry", ["learn", "learn_batch"])
    def test_bad_init_scale_is_a_validation_error(
        self, montage25, fleet16, entry, scale
    ):
        # rejected with the params, before a non-finite scale can reach
        # the first Q draw (where numpy raises OverflowError)
        with pytest.raises(ValidationError, match="qtable_init_scale"):
            params = ReassignParams(episodes=2, qtable_init_scale=scale)
            if entry == "learn":
                ReassignLearner(montage25, fleet16, params).learn()
            else:
                learn_batch([BatchSpec(montage25, fleet16, params)])

    def test_label(self):
        assert ReassignParams(0.1, 1.0, 0.5).label() == "a=0.1 g=1 e=0.5"

    def test_frozen(self, params):
        with pytest.raises(AttributeError):
            params.alpha = 0.9  # type: ignore[misc]


class TestSchedulerEpisode:
    def test_single_episode_completes(self, montage25, fleet16, params):
        sched = ReassignScheduler(params, seed=1)
        result = WorkflowSimulator(montage25, fleet16, sched, seed=0).run()
        assert result.succeeded
        assert sched.episode_steps == 25
        assert -1.0 <= sched.episode_mean_reward <= 1.0

    def test_qtable_grows(self, montage25, fleet16, params):
        sched = ReassignScheduler(params, seed=1)
        WorkflowSimulator(montage25, fleet16, sched, seed=0).run()
        assert len(sched.qtable) > 0

    def test_learning_off_freezes_qtable(self, montage25, fleet16, params):
        table = QTable(init_scale=0.0, seed=1)
        table.set("available", (0, 0), 5.0)
        before = table.to_json()
        sched = ReassignScheduler(params, qtable=table, seed=1, learning=False)
        WorkflowSimulator(montage25, fleet16, sched, seed=0).run()
        # greedy replay reads but never writes persisted values
        assert {k: v for _, k, v in []} is not None
        after_items = dict(((s, a), v) for s, a, v in table.items())
        assert after_items[("available", (0, 0))] == 5.0

    def test_greedy_mode_uses_epsilon_one(self, params):
        sched = ReassignScheduler(params, seed=1, learning=False)
        assert sched.policy.epsilon == 1.0


class TestLearner:
    def test_learning_improves_over_first_episode(self, fleet16):
        wf = montage(50, seed=1)
        p = ReassignParams(alpha=0.5, gamma=1.0, epsilon=0.1, episodes=60)
        result = ReassignLearner(wf, fleet16, p, seed=11).learn()
        assert result.simulated_makespan < result.episodes[0].makespan

    def test_result_shape(self, montage25, fleet16, params):
        result = ReassignLearner(montage25, fleet16, params, seed=2).learn()
        assert result.n_episodes == params.episodes
        assert result.learning_time > 0
        assert result.simulated_makespan > 0
        result.plan.validate_against(montage25, fleet16)

    def test_plan_executable(self, montage25, fleet16, params):
        from repro.schedulers import PlanFollowingScheduler

        result = ReassignLearner(montage25, fleet16, params, seed=2).learn()
        replay = WorkflowSimulator(
            montage25, fleet16, PlanFollowingScheduler(result.plan), seed=0
        ).run()
        assert replay.succeeded

    def test_deterministic_given_seed(self, montage25, fleet16, params):
        a = ReassignLearner(montage25, fleet16, params, seed=3).learn()
        b = ReassignLearner(montage25, fleet16, params, seed=3).learn()
        assert a.plan.assignment == b.plan.assignment
        assert a.makespan_curve() == b.makespan_curve()

    def test_seed_changes_learning(self, montage25, fleet16, params):
        a = ReassignLearner(montage25, fleet16, params, seed=3).learn()
        b = ReassignLearner(montage25, fleet16, params, seed=4).learn()
        assert a.makespan_curve() != b.makespan_curve()

    def test_prior_qtable_resumes(self, montage25, fleet16, params):
        first = ReassignLearner(montage25, fleet16, params, seed=5).learn()
        resumed = ReassignLearner(
            montage25, fleet16, params, seed=5,
            prior_qtable_json=first.qtable_json,
            prior_history=[(0, 10.0, 1.0)],
        )
        # the resumed learner starts from the previous table
        assert len(resumed.scheduler.qtable) > 0
        assert resumed.scheduler.reward.vm_index(0) > 0
        result = resumed.learn()
        assert result.n_episodes == params.episodes

    @pytest.mark.parametrize("rule", ["qlearning", "sarsa", "doubleq"])
    def test_all_rules_learn(self, montage25, fleet16, rule):
        p = ReassignParams(alpha=0.5, gamma=1.0, epsilon=0.1,
                           episodes=10, rule=rule)
        result = ReassignLearner(montage25, fleet16, p, seed=6).learn()
        assert result.simulated_makespan > 0
        QTable.from_json(result.qtable_json)  # persisted table re-loadable

    def test_custom_fluctuation_accepted(self, montage25, fleet16, params):
        result = ReassignLearner(
            montage25, fleet16, params, seed=7, fluctuation=NoFluctuation()
        ).learn()
        assert result.simulated_makespan > 0


class TestEpisodeRecords:
    def test_round_trip(self):
        rec = EpisodeRecord(
            episode=3, makespan=120.5, final_state="successfully finished",
            steps=25, mean_reward=0.4, final_reward=0.8,
            assignment={0: 8, 1: 2},
        )
        back = EpisodeRecord.from_dict(rec.to_dict())
        assert back == rec

    def test_learning_result_round_trip(self, montage25, fleet16, params):
        result = ReassignLearner(montage25, fleet16, params, seed=2).learn()
        back = LearningResult.from_json(result.to_json())
        assert back.plan.assignment == result.plan.assignment
        assert back.makespan_curve() == result.makespan_curve()
        assert back.learning_time == result.learning_time

    def test_best_episode_prefers_success(self):
        episodes = [
            EpisodeRecord(0, 100.0, "finished with failure", 10, 0.0, 0.0),
            EpisodeRecord(1, 200.0, "successfully finished", 10, 0.0, 0.0),
        ]
        result = LearningResult(
            plan=__import__("repro.schedulers", fromlist=["SchedulingPlan"])
            .SchedulingPlan(assignment={0: 0}),
            episodes=episodes,
            learning_time=1.0,
            simulated_makespan=200.0,
            qtable_json=QTable().to_json(),
        )
        assert result.best_episode.episode == 1

    def test_empty_episodes_rejected(self):
        from repro.schedulers import SchedulingPlan

        with pytest.raises(ValidationError):
            LearningResult(
                plan=SchedulingPlan(assignment={0: 0}),
                episodes=[],
                learning_time=1.0,
                simulated_makespan=1.0,
                qtable_json="{}",
            )


class TestSweep:
    def test_grid_covers_combinations(self, montage25, fleet_small):
        records = sweep_parameters(
            montage25, fleet_small,
            alphas=(0.5,), gammas=(0.1, 1.0), epsilons=(0.1, 1.0),
            episodes=3, seed=1,
        )
        assert len(records) == 4
        assert {(r.gamma, r.epsilon) for r in records} == {
            (0.1, 0.1), (0.1, 1.0), (1.0, 0.1), (1.0, 1.0)
        }

    def test_best_record(self, montage25, fleet_small):
        records = sweep_parameters(
            montage25, fleet_small,
            alphas=(0.5,), gammas=(1.0,), epsilons=(0.1, 1.0),
            episodes=3, seed=1,
        )
        best = best_record(records)
        assert best.simulated_makespan == min(
            r.simulated_makespan for r in records
        )

    def test_empty_grid_rejected(self, montage25, fleet_small):
        with pytest.raises(ValidationError):
            sweep_parameters(montage25, fleet_small, alphas=())

    def test_best_record_empty_rejected(self):
        with pytest.raises(ValidationError):
            best_record([])


class TestStateBuckets:
    def test_bucket_labels_used(self, montage25, fleet16):
        params = ReassignParams(alpha=0.5, gamma=1.0, epsilon=0.1,
                                episodes=3, state_buckets=4)
        learner = ReassignLearner(montage25, fleet16, params, seed=2)
        learner.learn()
        states = {s for s, _, _ in learner.scheduler.qtable.items()}
        assert any(str(s).startswith("available:p") for s in states)

    def test_single_bucket_is_paper_state(self, montage25, fleet16):
        params = ReassignParams(alpha=0.5, gamma=1.0, epsilon=0.1,
                                episodes=3, state_buckets=1)
        learner = ReassignLearner(montage25, fleet16, params, seed=2)
        learner.learn()
        states = {s for s, _, _ in learner.scheduler.qtable.items()}
        assert states == {"available"}

    def test_bucket_count_validated(self):
        with pytest.raises(ValidationError):
            ReassignParams(state_buckets=0)

    def test_buckets_learn_successfully(self, montage25, fleet16):
        params = ReassignParams(alpha=0.5, gamma=1.0, epsilon=0.1,
                                episodes=5, state_buckets=8)
        result = ReassignLearner(montage25, fleet16, params, seed=2).learn()
        assert result.simulated_makespan > 0
        result.plan.validate_against(montage25, fleet16)


class TestRewardMemory:
    def test_full_is_default(self):
        assert ReassignParams().reward_memory == "full"

    def test_invalid_rejected(self):
        with pytest.raises(ValidationError):
            ReassignParams(reward_memory="sliding")

    def test_episode_memory_resets_history(self, montage25, fleet16):
        params = ReassignParams(episodes=3, reward_memory="episode")
        learner = ReassignLearner(montage25, fleet16, params, seed=2)
        learner.learn()
        # after the final episode, each VM's history holds at most one
        # episode's worth of observations
        reward = learner.scheduler.reward
        total = sum(n for _, n, _ in reward.snapshot())
        assert total <= len(montage25)

    def test_full_memory_accumulates(self, montage25, fleet16):
        params = ReassignParams(episodes=3, reward_memory="full")
        learner = ReassignLearner(montage25, fleet16, params, seed=2)
        learner.learn()
        reward = learner.scheduler.reward
        total = sum(n for _, n, _ in reward.snapshot())
        assert total == 3 * len(montage25)


class TestExtractPlan:
    def test_greedy_extraction_valid(self, montage25, fleet16, params):
        learner = ReassignLearner(montage25, fleet16, params, seed=2)
        learner.learn()
        plan, makespan = learner.extract_plan()
        plan.validate_against(montage25, fleet16)
        assert makespan > 0

    def test_greedy_extraction_deterministic(self, montage25, fleet16, params):
        learner = ReassignLearner(montage25, fleet16, params, seed=2)
        learner.learn()
        a = learner.extract_plan()
        b = learner.extract_plan()
        assert a[0].assignment == b[0].assignment
        assert a[1] == b[1]

    def test_reward_curve_length(self, montage25, fleet16, params):
        result = ReassignLearner(montage25, fleet16, params, seed=2).learn()
        curve = result.reward_curve()
        assert len(curve) == params.episodes
        assert all(-1.0 <= r <= 1.0 for r in curve)
