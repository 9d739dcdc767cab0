"""Tests for repro.rl.policy — including the paper's inverted ε convention."""

import pytest

from repro.rl import EpsilonGreedyPolicy, QTable
from repro.util.rng import RngService
from repro.util.validate import ValidationError


@pytest.fixture
def table():
    t = QTable(init_scale=0.0)
    t.set("s", "best", 10.0)
    t.set("s", "worse", 1.0)
    t.set("s", "worst", 0.0)
    return t


@pytest.fixture
def rng():
    return RngService(3).stream("policy-test")


def exploit_fraction(policy, table, rng, n=3000):
    hits = sum(
        1 for _ in range(n)
        if policy.choose(table, "s", ["best", "worse", "worst"], rng) == "best"
    )
    return hits / n


class TestPaperEpsilonConvention:
    def test_epsilon_is_exploit_probability(self, table, rng):
        """ε = 0.9 must mean 'exploit 90% of the time' (paper §II/III-C)."""
        frac = exploit_fraction(EpsilonGreedyPolicy(0.9), table, rng)
        # exploit 90% + random hits best 1/3 of the remaining 10%
        assert frac == pytest.approx(0.9 + 0.1 / 3, abs=0.03)

    def test_low_epsilon_mostly_random(self, table, rng):
        frac = exploit_fraction(EpsilonGreedyPolicy(0.1), table, rng)
        assert frac == pytest.approx(0.1 + 0.9 / 3, abs=0.03)

    def test_epsilon_one_always_best(self, table, rng):
        assert exploit_fraction(EpsilonGreedyPolicy(1.0), table, rng, n=200) == 1.0

    def test_epsilon_zero_uniform(self, table, rng):
        frac = exploit_fraction(EpsilonGreedyPolicy(0.0), table, rng)
        assert frac == pytest.approx(1 / 3, abs=0.04)

    def test_textbook_convention_flag(self, table, rng):
        policy = EpsilonGreedyPolicy(0.1, epsilon_is_exploration=True)
        frac = exploit_fraction(policy, table, rng)
        assert frac == pytest.approx(0.9 + 0.1 / 3, abs=0.03)

    def test_empty_actions_rejected(self, table, rng):
        with pytest.raises(ValidationError):
            EpsilonGreedyPolicy(0.5).choose(table, "s", [], rng)

    def test_epsilon_validated(self):
        with pytest.raises(ValidationError):
            EpsilonGreedyPolicy(1.5)
