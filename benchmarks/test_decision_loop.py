"""Decision-loop benchmark — fast path vs legacy loop vs PR 3 baseline.

Times the ReASSIgN learning hot path on Montage-50 (16-vCPU Table-I
fleet, burst-throttle fluctuation) three ways, all driving the same
kernel-reuse episode loop with the same per-episode seeds:

- **fast path**: the current tree as shipped — interned dense
  :class:`~repro.rl.QTable`, version-cached ``ctx.action_pairs``
  cross product, incremental ``ctx.n_finished`` progress label, Welford
  reward inlined;
- **legacy loop**: an in-tree replica of the PR 3-era decision loop —
  dict-backed Q-table, per-decision ``[(ac.id, vm.id) for ... for ...]``
  rebuild, per-reward ``RunningStats`` round trip, per-label record
  scan — on today's simulator;
- **pre-refactor engine** (the PR 3 baseline): commit ``01b95de``
  checked out into a throwaway git worktree and driven in a
  subprocess, one ``WorkflowSimulator`` per episode — the exact engine
  whose 129.1 eps/s is recorded as ``pre_refactor_reference`` in
  ``results/BENCH_episode_throughput.json``.

Equivalence gates every number: all arms must produce bit-identical
per-episode makespans, and the fast and legacy arms byte-identical
Q-table JSON, before any throughput counts.

Read the two live ratios honestly.  Fast-vs-legacy isolates the
decision-loop micro-costs and lands near 1.0x on Montage-50 — at ~3
ready x idle pairs per decision the simulator dominates, and the dense
backend's wins (6-7x on wide action sets) vanish into noise.  The
headline >=2x is fast-vs-pre-refactor: the decision-loop fast path
*plus* the kernel/state split it rides on, measured against the same
baseline commit PR 3 froze, re-run on this machine in this run.  The
pre-refactor arm needs commit ``01b95de`` in the local object store;
shallow CI clones skip it and assert on the in-tree arms only.

Results go to ``results/decision_loop.md`` (prose) and
``results/BENCH_decision_loop.json`` (machine-readable, with commit
provenance for both HEAD and the baseline).
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from repro.core.reassign import ReassignParams, ReassignScheduler
from repro.experiments import default_episodes
from repro.experiments.environments import fleet_for
from repro.rl.reward import PerformanceReward
from repro.sim.fluctuation import BurstThrottleFluctuation
from repro.sim.kernel import EpisodeKernel
from repro.util.rng import RngService
from repro.util.stats import RunningStats
from repro.workflows.montage import montage

from conftest import (
    best_of,
    gc_paused,
    git_head,
    host_provenance,
    save_artifact,
)

_REPO_ROOT = Path(__file__).resolve().parents[1]
_BASELINE_COMMIT = "01b95de"
_FLUCTUATION = dict(credit_seconds=60.0, throttle_factor=2.0)

#: What PR 3 froze for the same protocol (montage(50, seed=1), 16 vCPUs,
#: 30 episodes, best of 3) in ``results/BENCH_episode_throughput.json``.
_PR3_REFERENCE = {
    "source": "results/BENCH_episode_throughput.json",
    "commit": _BASELINE_COMMIT,
    "pre_refactor_eps_per_sec": 129.1,
    "kernel_eps_per_sec": 313.8,
}


def _episode_seeds(seed, n):
    rng = RngService(seed)
    return [rng.spawn_seed(f"episode:{i}") for i in range(n)]


def _params():
    return ReassignParams(alpha=0.5, gamma=1.0, epsilon=0.1)


class _LegacyDictQTable:
    """PR 3-era Q-table: one sparse dict, per-action ``value()`` scans.

    Draws each entry's random initial value on first touch from the
    same ``qtable-init`` stream as :class:`~repro.rl.QTable`, so both
    tables hold the same floats.
    """

    def __init__(self, init_scale, seed):
        self._init_scale = float(init_scale)
        self._rng = RngService(seed).stream("qtable-init")
        self._values = {}

    def value(self, state, action):
        key = (state, action)
        v = self._values.get(key)
        if v is None:
            v = float(self._rng.uniform(0.0, self._init_scale))
            self._values[key] = v
        return v

    def add(self, state, action, delta):
        new = self.value(state, action) + float(delta)
        self._values[(state, action)] = new
        return new

    def max_value(self, state, actions):
        best = None
        for action in actions:
            v = self.value(state, action)
            if best is None or v > best:
                best = v
        return best if best is not None else 0.0

    def best_action(self, state, actions, rng=None):
        actions = list(actions)
        values = [self.value(state, a) for a in actions]
        top = max(values)
        ties = [a for a, v in zip(actions, values) if v >= top - 1e-15]
        if len(ties) == 1 or rng is None:
            return ties[0]
        return ties[int(rng.integers(len(ties)))]

    def to_json(self):
        """Same entry order and encoding as ``QTable.to_json``."""
        triples = sorted(
            ((s, a, v) for (s, a), v in self._values.items()),
            key=lambda t: (repr(t[0]), repr(t[1])),
        )
        entries = [
            [s, list(a) if isinstance(a, tuple) else a, v]
            for s, a, v in triples
        ]
        return json.dumps(
            {"init_scale": self._init_scale, "entries": entries},
            sort_keys=True,
        )


class _LegacyReward(PerformanceReward):
    """PR 3-era reward: a RunningStats round trip per index_std call."""

    def index_std(self):
        spread = RunningStats()
        for tracker in self._vms.values():
            if tracker.count:
                spread.push(tracker.mean_index)
        return spread.std if spread.count >= 2 else 0.0


class _LegacyLoopScheduler(ReassignScheduler):
    """PR 3-era decision loop on today's simulator.

    Rebuilds the ready x idle product per decision and rescans the
    record list per label, exactly as ``c707881^`` did.  Same float
    operations in the same order as the fast path, so makespans and the
    Q-table must match bit for bit.
    """

    @staticmethod
    def _enumerate_actions(ctx):
        ready = ctx.ready_activations
        idle = ctx.idle_vms
        return [(ac.id, vm.id) for ac in ready for vm in idle]

    def _available_label(self, ctx):
        buckets = self.params.state_buckets
        if buckets <= 1:
            return "available"
        total = len(ctx.workflow)
        done = sum(1 for r in ctx.records if not r.failed)
        bucket = min(buckets - 1, int(buckets * done / max(total, 1)))
        return f"available:p{bucket}"


def _run_arm(wf, fleet, seeds, scheduler_cls):
    """One fresh scheduler + kernel-reuse loop; returns (mks, s, qjson)."""
    params = _params()
    if scheduler_cls is _LegacyLoopScheduler:
        scheduler = scheduler_cls(
            params,
            qtable=_LegacyDictQTable(params.qtable_init_scale, seed=1),
            reward=_LegacyReward(mu=params.mu, rho=params.rho),
            seed=1,
            learning=True,
        )
    else:
        scheduler = scheduler_cls(params, seed=1, learning=True)
    kernel = EpisodeKernel(
        wf, fleet, fluctuation=BurstThrottleFluctuation(**_FLUCTUATION)
    )
    makespans = []
    with gc_paused():
        started = time.perf_counter()
        for seed in seeds:
            makespans.append(kernel.run_episode(scheduler, seed).makespan)
        elapsed = time.perf_counter() - started
    return makespans, elapsed, scheduler.qtable.to_json()


#: Runs inside the baseline worktree's interpreter (its own src/ on
#: PYTHONPATH, nothing from this tree).  Mirrors the protocol above with
#: the only engine the baseline has: one WorkflowSimulator per episode.
_PRE_REFACTOR_SCRIPT = """\
import json, os, sys, time
from repro.core.reassign import ReassignParams, ReassignScheduler
from repro.experiments.environments import fleet_for
from repro.sim.fluctuation import BurstThrottleFluctuation
from repro.sim.simulator import WorkflowSimulator
from repro.util.rng import RngService
from repro.workflows.montage import montage

episodes = int(os.environ["DECISION_LOOP_EPISODES"])
reps = int(os.environ["DECISION_LOOP_REPS"])
wf = montage(50, seed=1)
fleet = fleet_for(16)
rng = RngService(1)
seeds = [rng.spawn_seed("episode:%d" % i) for i in range(episodes)]

def run():
    params = ReassignParams(alpha=0.5, gamma=1.0, epsilon=0.1)
    scheduler = ReassignScheduler(params, seed=1, learning=True)
    makespans = []
    started = time.perf_counter()
    for seed in seeds:
        sim = WorkflowSimulator(
            wf, fleet, scheduler,
            fluctuation=BurstThrottleFluctuation(
                credit_seconds=60.0, throttle_factor=2.0),
            seed=seed,
        )
        makespans.append(sim.run().makespan)
    return makespans, time.perf_counter() - started

run()  # warmup
best = None
for _ in range(reps):
    makespans, elapsed = run()
    if best is None or elapsed < best[1]:
        best = (makespans, elapsed)
json.dump({"makespans": best[0], "seconds": best[1]}, sys.stdout)
"""


def _baseline_commit_available():
    probe = subprocess.run(
        ["git", "-C", str(_REPO_ROOT), "rev-parse", "--verify", "--quiet",
         _BASELINE_COMMIT + "^{commit}"],
        capture_output=True,
        text=True,
    )
    return probe.returncode == 0


def _pre_refactor_arm(episodes, reps):
    """Baseline engine in a throwaway worktree; None when unavailable.

    The worktree is created and removed inside this call — shallow
    clones (CI) without the baseline commit skip the arm entirely.
    """
    if not _baseline_commit_available():
        return None
    worktree = tempfile.mkdtemp(prefix="decision-loop-baseline-")
    try:
        subprocess.run(
            ["git", "-C", str(_REPO_ROOT), "worktree", "add", "--detach",
             worktree, _BASELINE_COMMIT],
            check=True,
            capture_output=True,
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(worktree) / "src")
        env["DECISION_LOOP_EPISODES"] = str(episodes)
        env["DECISION_LOOP_REPS"] = str(reps)
        proc = subprocess.run(
            [sys.executable, "-"],
            input=_PRE_REFACTOR_SCRIPT,
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        return json.loads(proc.stdout)
    finally:
        subprocess.run(
            ["git", "-C", str(_REPO_ROOT), "worktree", "remove", "--force",
             worktree],
            capture_output=True,
        )
        shutil.rmtree(worktree, ignore_errors=True)


def _bench_json(episodes, reps, fast_s, legacy_s, pre):
    payload = {
        "benchmark": "decision_loop",
        "workflow": "montage-50",
        "vcpus": 16,
        "episodes": episodes,
        "reps_best_of": reps,
        **host_provenance(),
        "commit": git_head(),
        "baseline_commit": _BASELINE_COMMIT,
        "fast_seconds": fast_s,
        "fast_eps_per_sec": episodes / fast_s,
        "legacy_loop_seconds": legacy_s,
        "legacy_loop_eps_per_sec": episodes / legacy_s,
        "fast_vs_legacy_ratio": legacy_s / fast_s,
        "pre_refactor_seconds": pre["seconds"] if pre else None,
        "pre_refactor_eps_per_sec": episodes / pre["seconds"] if pre else None,
        "fast_vs_pre_refactor_speedup": (
            pre["seconds"] / fast_s if pre else None
        ),
        "pr3_reference": _PR3_REFERENCE,
    }
    return json.dumps(payload, indent=1, sort_keys=True)


def _render_note(episodes, reps, fast_s, legacy_s, pre):
    fast_eps = episodes / fast_s
    legacy_eps = episodes / legacy_s
    lines = [
        "# Decision-loop throughput (fast path A/B)",
        "",
        f"- host cores: {os.cpu_count() or 1}",
        f"- commit: {git_head()} (baseline {_BASELINE_COMMIT})",
        "- workflow: Montage-50, 16-vCPU Table-I fleet, burst-throttle",
        f"- episodes per arm: {episodes} (best of {reps})",
        f"- fast path (array Q-table, cached pairs): {fast_s:.3f} s "
        f"({fast_eps:.1f} eps/s)",
        f"- legacy loop replica (dict Q-table, per-call rebuild): "
        f"{legacy_s:.3f} s ({legacy_eps:.1f} eps/s)",
        f"- fast vs legacy loop: {legacy_s / fast_s:.2f}x",
    ]
    if pre is not None:
        pre_eps = episodes / pre["seconds"]
        lines += [
            f"- pre-refactor engine (commit {_BASELINE_COMMIT}, worktree): "
            f"{pre['seconds']:.3f} s ({pre_eps:.1f} eps/s)",
            f"- fast vs pre-refactor (the PR 3 baseline): "
            f"{pre['seconds'] / fast_s:.2f}x",
        ]
    else:
        lines += [
            f"- pre-refactor arm skipped: commit {_BASELINE_COMMIT} not in "
            "the local object store (shallow clone)",
        ]
    lines += [
        "",
        "All arms ran the same scheduler configuration over the same",
        "episode seeds; per-episode makespans were bit-identical across",
        "arms and the fast/legacy Q-table JSON byte-identical before any",
        "throughput counted.  Fast-vs-legacy isolates the decision-loop",
        "micro-costs and sits near 1.0x here: Montage-50 decisions",
        "median ~3 ready x idle pairs, so the simulator dominates and the",
        "dense backend's large-action-set wins do not move end-to-end",
        "time.  The >=2x headline is fast vs the pre-refactor engine —",
        "the decision-loop fast path plus the kernel/state split,",
        "measured against the same commit PR 3 froze as its baseline",
        f"({_PR3_REFERENCE['pre_refactor_eps_per_sec']:.1f} eps/s in "
        "results/BENCH_episode_throughput.json), re-run on this machine",
        "in this run.",
    ]
    return "\n".join(lines)


def _run_and_record(results_dir, episodes, reps, with_baseline):
    wf = montage(50, seed=1)
    fleet = fleet_for(16)
    seeds = _episode_seeds(1, episodes)
    # warmup outside the timed reps
    _run_arm(wf, fleet, seeds, ReassignScheduler)
    fast_mk, fast_s, fast_q = best_of(
        reps, lambda: _run_arm(wf, fleet, seeds, ReassignScheduler)
    )
    legacy_mk, legacy_s, legacy_q = best_of(
        reps, lambda: _run_arm(wf, fleet, seeds, _LegacyLoopScheduler)
    )
    assert fast_mk == legacy_mk, (
        "fast and legacy decision loops diverged — throughput numbers void"
    )
    assert fast_q == legacy_q, (
        "fast and legacy Q-table JSON differ — throughput numbers void"
    )
    pre = _pre_refactor_arm(episodes, reps) if with_baseline else None
    if pre is not None:
        assert pre["makespans"] == fast_mk, (
            "pre-refactor engine diverged from the fast path — "
            "throughput numbers void"
        )
    save_artifact(
        results_dir,
        "decision_loop.md",
        _render_note(episodes, reps, fast_s, legacy_s, pre),
    )
    save_artifact(
        results_dir,
        "BENCH_decision_loop.json",
        _bench_json(episodes, reps, fast_s, legacy_s, pre),
    )
    return fast_s, legacy_s, pre


@pytest.mark.fast
def test_decision_loop_fast(results_dir):
    """CI-sized A/B: equivalence gates plus a generous no-regression floor.

    Skips the pre-refactor worktree arm (shallow clones lack the
    baseline commit) and tolerates wide timing noise — the strict >=2x
    assertion lives in the full variant, which re-measures the baseline
    engine in the same run.
    """
    episodes = default_episodes(10)
    fast_s, legacy_s, _ = _run_and_record(
        results_dir, episodes, reps=1, with_baseline=False
    )
    assert fast_s <= 2.0 * legacy_s, (
        f"fast decision loop grossly slower than the legacy replica: "
        f"{fast_s:.3f}s vs {legacy_s:.3f}s"
    )


def test_decision_loop_full(results_dir):
    """Full A/B including the PR 3 baseline engine, >=2x enforced."""
    episodes = default_episodes(30)
    fast_s, legacy_s, pre = _run_and_record(
        results_dir, episodes, reps=3, with_baseline=True
    )
    if pre is None:
        pytest.skip(
            f"baseline commit {_BASELINE_COMMIT} not available "
            "(shallow clone); in-tree arms recorded"
        )
    speedup = pre["seconds"] / fast_s
    assert speedup >= 2.0, (
        f"expected >=2x over the PR 3 baseline engine: "
        f"pre-refactor {pre['seconds']:.3f}s, fast {fast_s:.3f}s "
        f"({speedup:.2f}x)"
    )
