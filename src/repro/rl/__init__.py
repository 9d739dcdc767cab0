"""Reinforcement-learning core: the Q-table, ε-greedy policy and rewards.

Implements the paper's §II machinery — the tabular Q: S × A with random
lazy initialization (Algorithm 1) and its ε-greedy policy — plus the
Costa-et-al.-derived reward function of §III-B.  The learning rule
itself (Eq. 3, and the SARSA / Double-Q variants of ablation A2) lives
in :class:`repro.core.reassign.ReassignScheduler`.

ε convention: :class:`EpsilonGreedyPolicy` defaults to the paper's text
(ε is the probability of *exploiting*), while
:class:`~repro.core.reassign.ReassignParams` defaults
``epsilon_is_exploration=True`` (ε explores), the reading the paper's
Table III data supports — see :mod:`repro.rl.policy`.
"""

from repro.rl.qtable import QTable
from repro.rl.policy import EpsilonGreedyPolicy
from repro.rl.reward import PerformanceReward, VmPerformanceTracker
from repro.rl.cost_reward import CostAwarePerformanceReward
from repro.rl.environment import WORKFLOW_STATES

__all__ = [
    "QTable",
    "EpsilonGreedyPolicy",
    "PerformanceReward",
    "CostAwarePerformanceReward",
    "VmPerformanceTracker",
    "WORKFLOW_STATES",
]
