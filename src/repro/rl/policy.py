"""The ε-greedy action-selection policy.

**Two conventions, two defaults.** The paper states (twice — §II and
§III-C) that "with probability ε the best action is taken ... otherwise
an action is selected at random".  That is the *inverse* of the
textbook ε-greedy (where ε is the exploration probability): in the
paper's text ε is the **exploitation probability**.

- :class:`EpsilonGreedyPolicy` on its own follows the paper's text:
  ``epsilon_is_exploration`` defaults to False (exploit with
  probability ε).
- ReASSIgN follows the paper's *data* instead:
  :class:`~repro.core.reassign.ReassignParams` defaults
  ``epsilon_is_exploration`` to True (the textbook reading, which is
  the only one Table III's monotone degradation in ε supports; see
  :mod:`repro.core.reassign`) and passes it through to this policy.
"""

from __future__ import annotations

from repro.util.validate import ValidationError, check_probability

__all__ = ["EpsilonGreedyPolicy"]


class EpsilonGreedyPolicy:
    """ε-greedy over a Q-table: exploit with probability ε, else random.

    Parameters
    ----------
    epsilon:
        Probability in [0, 1].
    epsilon_is_exploration:
        When True, use the textbook convention instead (explore with
        probability ε).  False by default (the paper's text);
        ``ReassignParams`` defaults it to True.
    """

    def __init__(self, epsilon: float, epsilon_is_exploration: bool = False) -> None:
        self.epsilon = check_probability("epsilon", epsilon)
        self.epsilon_is_exploration = bool(epsilon_is_exploration)

    def _exploit_probability(self) -> float:
        if self.epsilon_is_exploration:
            return 1.0 - self.epsilon
        return self.epsilon

    def choose(self, qtable, state, actions, rng):
        """One of ``actions`` in ``state``: ``qtable``'s greedy pick
        (ties drawn from ``rng``) or a uniform draw from ``rng``."""
        if not actions:
            raise ValidationError("cannot choose from an empty action set")
        if rng.random() < self._exploit_probability():
            return qtable.best_action(state, actions, rng)
        return actions[int(rng.integers(len(actions)))]
