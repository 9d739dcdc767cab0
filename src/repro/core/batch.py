"""The batched learning engine: one shared kernel, lanes in sequence.

Sweeps and ensembles run many *identically-shaped* learning runs: same
workflow, same fleet, same environment — only the hyper-parameters and
seeds differ.  :func:`learn_batch` exploits that by driving B such runs
("lanes") over **one** shared :class:`~repro.sim.kernel.EpisodeKernel`:

- the kernel (frozen DAG indexes, nominal estimate caches, interned
  action-pair pool) is built once per fingerprint group and amortized
  across all lanes instead of once per run;
- each lane runs its episodes to completion before the next lane
  starts — Algorithm 2's episodes are sequential (each reads the
  Q-table the previous one wrote), and interleaving lanes measured no
  faster (``docs/performance.md``, "Batched execution");
- eligible lanes take the fused fast path (:func:`_drive_episode`) that
  inlines the ε-greedy selection, the §III-B reward and the Eq.-3
  Q-update straight into the event loop.

**Bit-identity contract (non-negotiable).**  For every lane, the
returned :class:`~repro.core.episode.LearningResult` — every episode
record, every Q-table float, the plan, the serialized JSON — is byte
for byte what ``ReassignLearner(...).learn()`` returns for the same
spec, for any batch size B (including B=1).  Three properties make
this possible:

1. per-lane RNG streams: each lane derives its policy stream and
   Q-init stream from its *own* root seed, exactly as the serial
   learner does — no draw in lane b depends on B (a fast lane's
   kernel draws nothing, so it needs no per-episode seed);
2. the shared kernel is reset per episode and scrubbed on exceptions
   (the existing single-tenancy contract), and the only cross-lane
   shared mutable structures — the action-pair interner and the
   nominal estimate memos — are content-addressed caches whose hits
   return identical objects/values regardless of who warmed them;
3. the fused fast path replicates ``ReassignScheduler``'s float
   arithmetic operation for operation (pinned by
   ``tests/test_batched_engine.py`` across B ∈ {1, 2, 7, 32} and random
   DAGs, and by the frozen A/B benchmarks
   ``results/BENCH_batched_engine.json`` and
   ``results/BENCH_fused_learning.json``).

**Fallback rule.**  :func:`~repro.core.lane.fast_lane_eligible` looks at
a lane's params and its kernel once, before the lane's first episode.
The fast path takes plain Q-learning with one state bucket on a
draw-free kernel with shared staging and no booting VM.  Every other
lane (sarsa/doubleq rules, state buckets, VMs with ``boot_time > 0``)
runs the real ``ReassignLearner.learn()`` — trivially bit-identical,
just not faster.  A spec carries no failure, migration, network or
fluctuation model; learning under those runs through
``ReassignLearner`` directly, which keeps every parameter.

Provenance warm starts (``BatchSpec.prior_qtable_json`` /
``prior_history``) go through the same ``ReassignLearner`` constructor
on every lane: it parses and validates the prior table and bootstraps
the reward, and a fast lane adopts that scheduler state (see
:class:`~repro.core.lane._FastLane`).  There is one parsing path, so
a malformed prior raises the same ``ValidationError`` on both paths.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.episode import EpisodeRecord, LearningResult
from repro.core.lane import _drive_episode, _FastLane, fast_lane_eligible
from repro.core.reassign import (
    ReassignLearner,
    ReassignParams,
    SimulatedLearningClock,
)
from repro.dag.graph import Workflow
from repro.schedulers.base import SchedulingPlan
from repro.sim.kernel import EpisodeKernel
from repro.sim.metrics import SimulationResult
from repro.sim.vm import Vm
from repro.util.validate import ValidationError

__all__ = ["BatchSpec", "fast_lane_eligible", "learn_batch"]


@dataclass(frozen=True)
class BatchSpec:
    """One lane of a batched learning run.

    Mirrors the ``ReassignLearner`` constructor for the default
    environment (shared storage, the burst-throttle fluctuation
    default, no failures or migrations): the same workflow / fleet /
    params / seed / priors produce a bit-identical
    :class:`~repro.core.episode.LearningResult`.
    """

    workflow: Workflow
    vms: Sequence[Vm]
    params: Optional[ReassignParams] = None
    seed: int = 0
    #: provenance warm start (§III-C): a serialized Q-table and past
    #: ``(vm_id, te, tf)`` observations, exactly as ``ReassignLearner``
    #: takes them
    prior_qtable_json: Optional[str] = None
    prior_history: Optional[Sequence[Tuple[int, float, float]]] = None


@dataclass
class _Lane:
    """Engine-internal per-lane bookkeeping."""

    learner: ReassignLearner
    last_result: Optional[SimulationResult] = None


def _final_plan(lane: _Lane) -> Tuple[SchedulingPlan, float]:
    """The paper's final plan for a fast lane.

    The fast lane learned into the learner's own scheduler table, and a
    greedy replay reads nothing else (it never touches the reward), so
    this is exactly ``learn()``'s plan extraction.
    """
    return lane.learner.final_plan(lane.last_result)


def learn_batch(
    specs: Sequence[BatchSpec], *, timing: str = "wall"
) -> List[LearningResult]:
    """Run B learning lanes over shared kernels; results match serial learning.

    Lanes are grouped by kernel fingerprint — each group shares one
    :class:`~repro.sim.kernel.EpisodeKernel` (and hence its frozen DAG
    indexes, estimate memos and action-pair interner).  Each lane then
    runs all of its episodes before the next lane starts.
    ``timing="wall"`` accumulates wall-clock seconds per lane;
    ``timing="simulated"`` accumulates each lane's makespans, matching
    ``SimulatedLearningClock`` bit for bit.

    Returns one :class:`~repro.core.episode.LearningResult` per spec,
    in spec order, each byte-identical to
    ``ReassignLearner(spec...).learn()``.
    """
    if timing not in ("wall", "simulated"):
        raise ValidationError(
            f"timing must be 'wall' or 'simulated', got {timing!r}"
        )
    wall = timing == "wall"
    lanes = [
        _Lane(
            ReassignLearner(
                spec.workflow,
                spec.vms,
                spec.params,
                seed=spec.seed,
                prior_qtable_json=spec.prior_qtable_json,
                prior_history=spec.prior_history,
                clock=None if wall else SimulatedLearningClock(),
            )
        )
        for spec in specs
    ]

    # Kernel sharing: lanes with the same fingerprint adopt one kernel.
    # The first lane of each group builds it (or pulls it from the
    # parallel runner's per-worker cache via ReassignLearner.kernel).
    kernels: Dict[str, EpisodeKernel] = {}
    for lane in lanes:
        fp = lane.learner.kernel_fingerprint()
        if fp is None:
            continue
        shared = kernels.get(fp)
        if shared is None:
            kernels[fp] = lane.learner.kernel
        else:
            lane.learner.adopt_kernel(shared, fp)

    # One lane at a time, in spec order; lanes the fused body does not
    # cover run the serial learner.
    results: List[LearningResult] = []
    for lane in lanes:
        learner = lane.learner
        params = learner.params
        kernel = learner.kernel
        if not fast_lane_eligible(params, kernel):
            results.append(learner.learn())
            continue
        # the learner parsed the prior table and bootstrapped the
        # reward; the fast lane takes over that state instead of
        # rebuilding it (the learner's own scheduler then never runs)
        fast = _FastLane(
            params,
            learner.seed,
            learner.scheduler.qtable,
            learner.scheduler.reward,
        )
        episodes = params.episodes
        records: List[EpisodeRecord] = []
        elapsed = 0.0
        for ep_idx in range(episodes):
            t0 = time.perf_counter() if wall else 0.0
            result = _drive_episode(kernel, fast, lite=ep_idx + 1 < episodes)
            if wall:
                elapsed += time.perf_counter() - t0
            else:
                elapsed += result.makespan
            if isinstance(result, SimulationResult):
                lane.last_result = result
            records.append(
                EpisodeRecord(
                    episode=ep_idx,
                    makespan=result.makespan,
                    final_state=result.final_state,
                    steps=fast.steps,
                    mean_reward=(
                        fast.reward_sum / fast.steps if fast.steps else 0.0
                    ),
                    final_reward=fast.reward,
                    assignment=result.assignment,
                )
            )
        plan, simulated_makespan = _final_plan(lane)
        results.append(
            LearningResult(
                plan=plan,
                episodes=records,
                learning_time=elapsed,
                simulated_makespan=simulated_makespan,
                qtable_json=fast.qtable.to_json(),
            )
        )
    return results
