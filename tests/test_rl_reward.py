"""Tests for repro.rl.reward — the paper's §III-B reward function."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.rl import PerformanceReward, VmPerformanceTracker
from repro.util.validate import ValidationError

times = st.floats(min_value=0.0, max_value=1e4, allow_nan=False)


class TestSingleIndex:
    def test_formula(self):
        # Pi = tt*mu + (1-mu)*tf with tt = te + tf
        r = PerformanceReward(mu=0.5)
        assert r.single_index(te=10.0, tf=4.0) == pytest.approx(
            (10 + 4) * 0.5 + 0.5 * 4
        )

    def test_mu_one_ignores_queue_weighting(self):
        r = PerformanceReward(mu=1.0)
        assert r.single_index(10.0, 4.0) == pytest.approx(14.0)

    def test_mu_zero_is_pure_queue(self):
        r = PerformanceReward(mu=0.0)
        assert r.single_index(10.0, 4.0) == pytest.approx(4.0)


class TestVmTracker:
    def test_mean_index(self):
        t = VmPerformanceTracker(mu=0.5)
        t.observe(10.0, 2.0)
        t.observe(20.0, 4.0)
        # P̄i = mean(te)*mu + (1-mu)*mean(tf)
        assert t.mean_index == pytest.approx(15.0 * 0.5 + 0.5 * 3.0)

    def test_empty_is_zero(self):
        assert VmPerformanceTracker(mu=0.5).mean_index == 0.0

    def test_negative_times_rejected(self):
        with pytest.raises(ValidationError):
            VmPerformanceTracker(mu=0.5).observe(-1.0, 0.0)


class TestCrispReward:
    def test_fast_vm_rewarded(self):
        r = PerformanceReward(mu=0.5)
        # vm 0 fast, vm 1 slow
        for _ in range(5):
            r.observe(0, 5.0, 1.0)
            r.observe(1, 50.0, 10.0)
        assert r.partial_reward(0) == 1.0

    def test_outlier_slow_vm_punished(self):
        r = PerformanceReward(mu=0.5)
        for vm in range(4):
            for _ in range(5):
                r.observe(vm, 5.0, 1.0)
        for _ in range(5):
            r.observe(9, 500.0, 100.0)
        assert r.partial_reward(9) == -1.0
        assert r.partial_reward(0) == 1.0

    def test_homogeneous_fleet_all_rewarded(self):
        r = PerformanceReward(mu=0.5)
        for vm in range(3):
            r.observe(vm, 10.0, 2.0)
        for vm in range(3):
            assert r.partial_reward(vm) == 1.0

    def test_stdv_uses_per_vm_dispersion(self):
        r = PerformanceReward(mu=0.5)
        r.observe(0, 10.0, 0.0)
        r.observe(1, 20.0, 0.0)
        r.observe(2, 30.0, 0.0)
        # indices 5, 10, 15 -> global mean Pw=10, stdv over {5,10,15}
        assert r.index_std() == pytest.approx(
            (((5 - 10) ** 2 + 0 + (15 - 10) ** 2) / 3) ** 0.5
        )

    def test_stdv_zero_with_single_vm(self):
        r = PerformanceReward()
        r.observe(0, 10.0, 1.0)
        assert r.index_std() == 0.0


class TestSmoothedReward:
    def test_update_rule(self):
        r = PerformanceReward(mu=0.5, rho=0.5)
        # single vm: always +1 crisp reward
        assert r.step(0, 10.0, 1.0) == pytest.approx(0.5)   # 0 + 0.5*(1-0)
        assert r.step(0, 10.0, 1.0) == pytest.approx(0.75)  # 0.5 + 0.5*(1-0.5)

    def test_converges_to_crisp_value(self):
        r = PerformanceReward(rho=0.5)
        for _ in range(30):
            value = r.step(0, 10.0, 1.0)
        assert value == pytest.approx(1.0, abs=1e-6)

    def test_episode_reset_keeps_history(self):
        r = PerformanceReward()
        r.step(0, 10.0, 1.0)
        r.start_episode(keep_history=True)
        assert r.reward == 0.0
        assert r.vm_index(0) > 0.0  # history survived

    def test_episode_reset_can_clear(self):
        r = PerformanceReward()
        r.step(0, 10.0, 1.0)
        r.start_episode(keep_history=False)
        assert r.vm_index(0) == 0.0

    def test_bootstrap(self):
        r = PerformanceReward()
        r.bootstrap([(0, 10.0, 1.0), (1, 20.0, 2.0)])
        assert r.vm_ids() == [0, 1]
        assert r.global_index() > 0

    @pytest.mark.parametrize(
        "history",
        [
            [(0, 1.0)],  # too short to unpack
            [(0, 1.0, 1.0, 1.0)],
            [("x", 1.0, 1.0)],  # vm id not an int
            [(1.5, 1.0, 1.0)],
            [(None, 1.0, 1.0)],
            [(0, "fast", 1.0)],
            [(0, None, 1.0)],
            [(0, float("nan"), 1.0)],
            [(0, 1.0, float("nan"))],
            [(0, float("inf"), 1.0)],
            [(0, -1.0, 1.0)],
            [(0, 1.0, 1.0), 7],  # a non-triple after a good one
            5,  # not iterable
        ],
    )
    def test_bootstrap_rejects_bad_triples(self, history):
        with pytest.raises(ValidationError):
            PerformanceReward().bootstrap(history)

    @pytest.mark.parametrize(
        "te, tf",
        [(float("nan"), 1.0), (1.0, float("nan")), (float("inf"), 1.0),
         ("x", 1.0), (None, 1.0)],
    )
    def test_observe_rejects_bad_times(self, te, tf):
        r = PerformanceReward()
        with pytest.raises(ValidationError):
            r.observe(0, te, tf)
        with pytest.raises(ValidationError):
            r.step(1, te, tf)
        # a rejected first observation registers no VM
        assert r.vm_ids() == []

    def test_snapshot(self):
        r = PerformanceReward(mu=0.5)
        r.observe(3, 10.0, 2.0)
        snap = r.snapshot()
        assert snap == [(3, 1, pytest.approx(10 * 0.5 + 0.5 * 2))]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 4), times, times),
                    min_size=1, max_size=60))
    def test_reward_bounded(self, observations):
        """r^t must stay within [-1, 1] and crisp rewards within {-1, +1}."""
        r = PerformanceReward(mu=0.5, rho=0.7)
        for vm, te, tf in observations:
            value = r.step(vm, te, tf)
            assert -1.0 <= value <= 1.0
            assert r.partial_reward(vm) in (-1.0, 1.0)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), times, times),
                    min_size=2, max_size=40),
           st.floats(min_value=0.0, max_value=1.0))
    def test_global_index_is_weighted_mean(self, observations, mu):
        r = PerformanceReward(mu=mu)
        for vm, te, tf in observations:
            r.observe(vm, te, tf)
        tes = [te for _, te, _ in observations]
        tfs = [tf for _, _, tf in observations]
        expected = mu * sum(tes) / len(tes) + (1 - mu) * sum(tfs) / len(tfs)
        assert r.global_index() == pytest.approx(expected, rel=1e-9, abs=1e-9)
