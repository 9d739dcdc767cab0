"""The ReASSIgN reward function (paper §III-B, after Costa et al.).

Per executed activation *i* on VM *j* the paper defines

- ``Pi_j  = tt_i * mu + (1 - mu) * tf_i``       (single-execution index)
- ``P̄i_j = t̄e * mu + (1 - mu) * t̄f``  over vm_j's history   (Eq. 4)
- ``P̄w   = t̄e * mu + (1 - mu) * t̄f``  over all activations  (Eq. 5)
- crisp partial reward ``r_i = -1 if P̄i_j > P̄w + stdv else +1``  (Eq. 6)
- smoothed reward ``r^t = r^{t-1} + rho * (r_i - r^{t-1})``

Smaller performance indices are better (they are time-valued), so a VM
whose average index exceeds the global average by more than one standard
deviation is punished.

The paper does not pin down *which* standard deviation ``stdv`` is; the
reading that makes Eq. 6 dimensionally and statistically coherent — and
the one we implement — is the dispersion of the per-VM average indices
``{P̄i_j}`` across VMs (how much VMs deviate from the fleet mean).  With
fewer than two VMs observed the stdv is 0 and Eq. 6 degenerates to a
straight mean comparison.

All aggregates use O(1) online accumulators (Welford) so a reward step is
constant-time regardless of history length.
"""

from __future__ import annotations

import math
import operator
from typing import Dict, Iterable, List, Tuple

from repro.util.stats import RunningStats
from repro.util.validate import ValidationError, check_probability

__all__ = ["VmPerformanceTracker", "PerformanceReward"]


class VmPerformanceTracker:
    """Execution/queue time history of one VM."""

    def __init__(self, mu: float) -> None:
        self.mu = check_probability("mu", mu)
        self.exec_times = RunningStats()
        self.queue_times = RunningStats()

    def observe(self, te: float, tf: float) -> None:
        """Record one activation's execution (te) and queue (tf) times."""
        # one chained test: NaN fails every comparison, so it lands here
        # too instead of reaching RunningStats.push as a bare ValueError
        try:
            ok = 0.0 <= te < math.inf and 0.0 <= tf < math.inf
        except TypeError:
            ok = False
        if not ok:
            raise ValidationError(
                f"times must be finite and >= 0, got te={te}, tf={tf}"
            )
        self.exec_times.push(te)
        self.queue_times.push(tf)

    @property
    def count(self) -> int:
        return self.exec_times.count

    @property
    def mean_index(self) -> float:
        """``P̄i_j`` (Eq. 4) — 0.0 when the VM has no history."""
        return (
            self.exec_times.mean * self.mu
            + (1.0 - self.mu) * self.queue_times.mean
        )


class PerformanceReward:
    """Stateful reward model shared across an entire learning run.

    The paper carries "all relevant learning and analysis information"
    across episodes, so by default the performance history persists across
    :meth:`start_episode` calls and only the smoothed reward ``r^t``
    resets to 0 (Algorithm 2 line ``r^t <- 0``).

    Parameters
    ----------
    mu:
        Balance between total/execution time and queue time (paper uses
        0.5 in all experiments).
    rho:
        Smoothing weight of the crisp partial reward against the previous
        reward.
    """

    def __init__(self, mu: float = 0.5, rho: float = 0.5) -> None:
        self.mu = check_probability("mu", mu)
        self.rho = check_probability("rho", rho)
        self._vms: Dict[int, VmPerformanceTracker] = {}
        self._global_exec = RunningStats()
        self._global_queue = RunningStats()
        self._reward = 0.0

    # -- episode control ----------------------------------------------------

    def start_episode(self, keep_history: bool = True) -> None:
        """Begin a new episode: r^t resets; history persists by default."""
        self._reward = 0.0
        if not keep_history:
            self._vms.clear()
            self._global_exec = RunningStats()
            self._global_queue = RunningStats()

    # -- observations -------------------------------------------------------

    def observe(self, vm_id: int, te: float, tf: float) -> None:
        """Record one execution without computing a reward (replay/bootstrap)."""
        tracker = self._vms.get(vm_id)
        if tracker is None:
            tracker = VmPerformanceTracker(self.mu)
            # register the VM only once its first observation is valid:
            # every tracker in _vms has history (repro.core.lane relies
            # on that when it flattens this model)
            tracker.observe(te, tf)
            self._vms[vm_id] = tracker
        else:
            tracker.observe(te, tf)
        self._global_exec.push(te)
        self._global_queue.push(tf)

    # -- the paper's quantities ----------------------------------------------

    def single_index(self, te: float, tf: float) -> float:
        """``Pi = tt * mu + (1 - mu) * tf`` for one execution."""
        return (te + tf) * self.mu + (1.0 - self.mu) * tf

    def vm_index(self, vm_id: int) -> float:
        """``P̄i_j`` of one VM (Eq. 4); 0.0 for an unobserved VM."""
        tracker = self._vms.get(vm_id)
        return tracker.mean_index if tracker is not None else 0.0

    def global_index(self) -> float:
        """``P̄w`` over all activations (Eq. 5)."""
        return (
            self._global_exec.mean * self.mu
            + (1.0 - self.mu) * self._global_queue.mean
        )

    def index_std(self) -> float:
        """``stdv`` — dispersion of per-VM average indices across VMs.

        Inlined Welford recurrence (the exact float-op order of
        :meth:`repro.util.stats.RunningStats.push`, so the result is
        bit-identical to pushing through a fresh accumulator): this runs
        once per reward step, i.e. once per dispatched activation, and
        is the hottest pure-Python loop in the learning path.
        """
        n = 0
        mean = 0.0
        m2 = 0.0
        for tracker in self._vms.values():
            if tracker.count:
                x = tracker.mean_index
                n += 1
                delta = x - mean
                mean += delta / n
                m2 += delta * (x - mean)
        return math.sqrt(m2 / n) if n >= 2 else 0.0

    def partial_reward(self, vm_id: int) -> float:
        """Crisp ``r_i`` (Eq. 6) for the VM's current history."""
        if self.vm_index(vm_id) > self.global_index() + self.index_std():
            return -1.0
        return 1.0

    # -- the reward step -----------------------------------------------------

    @property
    def reward(self) -> float:
        """Current smoothed reward ``r^t``."""
        return self._reward

    def step(self, vm_id: int, te: float, tf: float) -> float:
        """Observe one execution and return the updated smoothed reward.

        Implements the full §III-B sequence: update vm_j's and the global
        history with (te, tf), compute the crisp ``r_i`` and fold it into
        ``r^t = r^{t-1} + rho * (r_i - r^{t-1})``.
        """
        self.observe(vm_id, te, tf)
        r_i = self.partial_reward(vm_id)
        self._reward = self._reward + self.rho * (r_i - self._reward)
        return self._reward

    # -- introspection -------------------------------------------------------

    def vm_ids(self) -> List[int]:
        """VMs with at least one observation."""
        return sorted(self._vms)

    def snapshot(self) -> List[Tuple[int, int, float]]:
        """(vm_id, n_observations, P̄i_j) per VM — for provenance dumps."""
        return [
            (vm_id, self._vms[vm_id].count, self._vms[vm_id].mean_index)
            for vm_id in self.vm_ids()
        ]

    def bootstrap(self, history: Iterable[Tuple[int, float, float]]) -> None:
        """Seed the model from prior provenance: (vm_id, te, tf) triples.

        A malformed triple raises :class:`~repro.util.validate.ValidationError`.
        """
        try:
            items = iter(history)
        except TypeError as exc:
            raise ValidationError(
                f"prior history must be an iterable of triples: {exc}"
            ) from exc
        for k, item in enumerate(items):
            self.observe(*_history_triple(k, item))


def _history_triple(k: int, item: object) -> Tuple[int, float, float]:
    """One prior-history item as ``(vm_id, te, tf)``, else ValidationError.

    Only the shape and types are checked here; :meth:`PerformanceReward
    .observe` rejects negative and non-finite times.
    """
    if not isinstance(item, (tuple, list)) or len(item) != 3:
        raise ValidationError(
            f"prior history item {k} must be a (vm_id, te, tf) triple, "
            f"got {item!r}"
        )
    vm_id, te, tf = item
    try:
        return operator.index(vm_id), float(te), float(tf)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(
            f"prior history item {k} is not (int, float, float): {item!r}"
        ) from exc
