"""Batched-engine benchmark — shared-kernel lanes vs the per-cell sweep path.

Times one fleet's Montage-50 (α, ε) sweep column two ways, both through
the real consumer (:func:`repro.core.sweep.sweep_tasks` +
:class:`repro.runner.ParallelRunner`, ``workers=1``), so the measured
gap is exactly what ``repro sweep`` users get:

- **serial**: ``batch=1`` — one :func:`run_sweep_cell` task per cell,
  each driving ``ReassignLearner.learn()`` through the kernel-reuse
  episode loop (the PR 4 decision-loop fast path, with the per-worker
  kernel cache sharing one kernel build across cells);
- **batched**: ``batch=len(cells)`` — one :func:`run_sweep_batch` task
  packing every cell as a lane of :func:`repro.core.batch.learn_batch`:
  the lanes share one kernel and its content-addressed caches, and
  each runs its episodes through the fused lane stepper instead of the
  scheduler-hook episode loop.

Equivalence gates every number: both arms run ``timing="simulated"``,
so each cell's full record — Q-table JSON, per-episode makespans,
plan, simulated learning time — is deterministic, and the arms must be
**bit-identical per cell** before any throughput counts.

Results go to ``results/batched_engine.md`` (prose) and
``results/BENCH_batched_engine.json`` (machine-readable; the
``batched_vs_serial_speedup`` ratio is frozen and guarded by
``tools/bench_guard.py``).
"""

import json
import os
import time

import pytest

from repro.core.sweep import flatten_sweep_values, sweep_tasks
from repro.experiments.environments import fleet_for
from repro.runner import ParallelRunner
from repro.runner.parallel import clear_kernel_cache
from repro.workflows.montage import montage

from conftest import (
    best_of,
    gc_paused,
    git_head,
    host_provenance,
    learning_fingerprint,
    save_artifact,
)

_GRID = (0.1, 0.5, 1.0)  # alphas x epsilons, gamma fixed at the paper's 1.0
# The paper protocol: 100 learning episodes per sweep cell (the
# run_paper_sweep default).  Deliberately NOT scaled by REPRO_EPISODES:
# the guarded speedup is amortization-dependent (the batched arm's
# shared caches pay off over the episode count), so fresh CI values are
# only comparable to the frozen baseline when both run the same episode
# count.  The fast variant economizes via reps, not episodes.
_EPISODES = 100


def _run_arm(wf, episodes, batch):
    """One full sweep column through the runner; returns (records, s).

    Garbage collection is drained before and disabled during the timed
    region: a collection pause landing in one arm but not the other
    would skew the ratio on a busy host.
    """
    clear_kernel_cache()
    tasks = sweep_tasks(
        wf,
        fleet_for(16),
        alphas=_GRID,
        gammas=(1.0,),
        epsilons=_GRID,
        episodes=episodes,
        seed=1,
        timing="simulated",
        batch=batch,
    )
    runner = ParallelRunner(workers=1, run_id="bench-batched", seed=1)
    with gc_paused():
        started = time.perf_counter()
        results = runner.run(tasks)
        elapsed = time.perf_counter() - started
    return flatten_sweep_values([r.value for r in results]), elapsed


def _cell_fingerprints(records):
    return [
        (r.params, r.learning_time, r.simulated_makespan,
         *learning_fingerprint(r.result))
        for r in records
    ]


def _bench_json(episodes, reps, n_cells, serial_s, batched_s):
    total_episodes = n_cells * episodes
    payload = {
        "benchmark": "batched_engine",
        "workflow": "montage-50",
        "vcpus": 16,
        "n_cells": n_cells,
        "episodes_per_cell": episodes,
        "reps_best_of": reps,
        **host_provenance(),
        "commit": git_head(),
        "serial_seconds": serial_s,
        "serial_eps_per_sec": total_episodes / serial_s,
        "batched_seconds": batched_s,
        "batched_eps_per_sec": total_episodes / batched_s,
        "batched_vs_serial_speedup": serial_s / batched_s,
    }
    return json.dumps(payload, indent=1, sort_keys=True)


def _render_note(episodes, reps, n_cells, serial_s, batched_s):
    total = n_cells * episodes
    return "\n".join([
        "# Batched-engine throughput (shared-kernel lanes A/B)",
        "",
        f"- host cores: {os.cpu_count() or 1}",
        f"- commit: {git_head()}",
        "- workflow: Montage-50, 16-vCPU Table-I fleet, burst-throttle",
        f"- sweep column: {n_cells} (alpha, epsilon) cells x "
        f"{episodes} episodes (best of {reps})",
        f"- serial (batch=1, one learner per cell): {serial_s:.3f} s "
        f"({total / serial_s:.1f} eps/s)",
        f"- batched (batch={n_cells}, shared-kernel lanes): {batched_s:.3f} s "
        f"({total / batched_s:.1f} eps/s)",
        f"- batched vs serial: {serial_s / batched_s:.2f}x",
        "",
        "Both arms ran the real sweep consumer (sweep_tasks + the",
        "parallel runner at workers=1) with timing=\"simulated\", and",
        "every cell's record — Q-table JSON, per-episode makespans,",
        "plan, simulated learning time — was bit-identical across arms",
        "before any throughput counted.  The speedup comes from the",
        "fused lane stepper (selection, reward and Q-update inlined",
        "into the event loop) running each lane over one shared",
        "kernel and its content-addressed caches.",
    ])


def _run_and_record(results_dir, episodes, reps):
    wf = montage(50, seed=1)
    # short warmup outside the timed reps (primes numpy/caches)
    _run_arm(wf, 10, batch=1)
    serial_rec, serial_s = best_of(
        reps, lambda: _run_arm(wf, episodes, batch=1)
    )
    n_cells = len(serial_rec)
    batched_rec, batched_s = best_of(
        reps, lambda: _run_arm(wf, episodes, batch=n_cells)
    )
    assert _cell_fingerprints(serial_rec) == _cell_fingerprints(
        batched_rec
    ), "batched engine diverged from the serial path — numbers void"
    save_artifact(
        results_dir,
        "batched_engine.md",
        _render_note(episodes, reps, n_cells, serial_s, batched_s),
    )
    save_artifact(
        results_dir,
        "BENCH_batched_engine.json",
        _bench_json(episodes, reps, n_cells, serial_s, batched_s),
    )
    return serial_s, batched_s


@pytest.mark.fast
def test_batched_engine_fast(results_dir):
    """CI A/B at the frozen protocol, single rep.

    Runs the exact frozen-baseline protocol (paper-scale episode count,
    see ``_EPISODES``) so the fresh ``batched_vs_serial_speedup`` is
    comparable to the frozen one; the single rep keeps it CI-sized.
    The strict >=2x assertion lives in the full variant — here the
    batched path must simply not be slower, and the frozen-ratio
    regression check is ``tools/bench_guard.py``'s job (fresh
    speedup >= 0.75 x frozen).
    """
    serial_s, batched_s = _run_and_record(results_dir, _EPISODES, reps=1)
    assert batched_s <= serial_s, (
        f"batched engine slower than the serial path: "
        f"{batched_s:.3f}s vs {serial_s:.3f}s"
    )


def test_batched_engine_full(results_dir):
    """Full A/B, >=2x Montage-50 sweep learning throughput enforced."""
    serial_s, batched_s = _run_and_record(results_dir, _EPISODES, reps=5)
    speedup = serial_s / batched_s
    assert speedup >= 2.0, (
        f"expected >=2x over the per-cell sweep path: "
        f"serial {serial_s:.3f}s, batched {batched_s:.3f}s "
        f"({speedup:.2f}x)"
    )
