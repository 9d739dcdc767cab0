"""Fused-learning benchmark — the fused lane stepper vs the reference learner.

Times ReASSIgN learning on Montage-50 (16-vCPU Table-I fleet, paper
parameters α=0.5, γ=1.0, ε=0.1, 100 episodes) two ways:

- **reference**: ``ReassignLearner.learn()`` — the kernel event loop
  consulting ``ReassignScheduler`` hooks, one episode at a time;
- **fused**: ``learn_batch([spec])[0]`` — the same run as one lane of
  the batched engine, whose fused stepper (:mod:`repro.core.lane`)
  inlines the ε-greedy selection, the §III-B reward and the Eq.-3
  update into the event loop.

The A/B runs twice under one protocol (seed 1, interleaved best of
reps):

- **cold**: both arms start from an empty Q-table and reward history
  (``fused_vs_reference_speedup``);
- **warm**: both arms start from one earlier SciCumulus-RL run's
  provenance — its Q-table and its ``(vm_id, te, tf)`` execution
  history — the way ``SciCumulusRL.run_workflow`` bootstraps SCSetup
  (``fused_vs_reference_warm_speedup``).

Equivalence gates every number: both arms must agree bit for bit on
the deterministic :func:`~conftest.learning_fingerprint` (Q-table JSON,
plan, per-episode records, simulated learning time) before any
throughput counts.

Both arms are single-threaded, so the ratio measures code, not cores;
``host_cores`` is recorded anyway so a reader can tell hosts apart.

Results go to ``results/fused_learning.md`` (prose) and
``results/BENCH_fused_learning.json`` (machine-readable; the
``fused_vs_reference_speedup`` and ``fused_vs_reference_warm_speedup``
ratios are frozen and guarded by ``tools/bench_guard.py``).
"""

import json
import os
import time

import pytest

from repro.core.batch import BatchSpec, learn_batch
from repro.core.reassign import ReassignLearner, ReassignParams
from repro.experiments.environments import fleet_for, fleet_spec_for
from repro.runner.parallel import host_cores
from repro.scicumulus.swfms import SciCumulusRL, fleet_label
from repro.workflows.montage import montage

from conftest import (
    gc_paused,
    git_head,
    host_provenance,
    learning_fingerprint,
    save_artifact,
)

#: The paper protocol: Montage-50, 100 learning episodes.  Deliberately
#: NOT scaled by REPRO_EPISODES: fresh CI values are only comparable to
#: the frozen baseline at the frozen episode count.  The fast variant
#: economizes via reps, not episodes.
_EPISODES = 100


def _params():
    return ReassignParams(
        alpha=0.5, gamma=1.0, epsilon=0.1, episodes=_EPISODES
    )


def _reference_arm(wf, fleet, priors):
    """One reference run; returns (result, wall seconds)."""
    learner = ReassignLearner(wf, fleet, _params(), seed=1, **priors)
    with gc_paused():
        started = time.perf_counter()
        result = learner.learn()
        elapsed = time.perf_counter() - started
    return result, elapsed


def _fused_arm(wf, fleet, priors):
    """One fused run; returns (result, wall seconds)."""
    spec = BatchSpec(workflow=wf, vms=fleet, params=_params(), seed=1, **priors)
    with gc_paused():
        started = time.perf_counter()
        result = learn_batch([spec])[0]
        elapsed = time.perf_counter() - started
    return result, elapsed


def _earlier_run_priors(wf):
    """The provenance one earlier SciCumulus-RL run leaves behind.

    One ``run_workflow`` on the same workflow and 16-vCPU fleet (its
    own seed, so the table is not the one the timed arms learn), then
    the exact queries SCSetup makes: the latest Q-table for these
    parameters and the fleet's execution history.
    """
    swfms = SciCumulusRL(seed=0)
    spec = fleet_spec_for(16)
    swfms.run_workflow(wf, spec, "reassign", params=_params())
    label = fleet_label(spec)
    return {
        "prior_qtable_json": swfms.provenance.latest_qtable(
            wf.name, label, _params().label()
        ),
        "prior_history": swfms.provenance.execution_history(wf.name, label),
    }


def _ab(wf, fleet, reps, priors):
    """Interleaved best-of-``reps`` A/B; returns (reference_s, fused_s)."""
    # warmup outside the timed reps (primes numpy, kernel caches)
    _fused_arm(wf, fleet, priors)
    _reference_arm(wf, fleet, priors)
    # interleave the arms rep by rep: on a contended host a noise
    # window then inflates both arms instead of landing entirely on
    # one, so the best-of quotient stays a code measurement
    reference_res, reference_s = _reference_arm(wf, fleet, priors)
    fused_res, fused_s = _fused_arm(wf, fleet, priors)
    for _ in range(reps - 1):
        res, secs = _reference_arm(wf, fleet, priors)
        if secs < reference_s:
            reference_res, reference_s = res, secs
        res, secs = _fused_arm(wf, fleet, priors)
        if secs < fused_s:
            fused_res, fused_s = res, secs
    assert learning_fingerprint(fused_res) == learning_fingerprint(
        reference_res
    ), "fused stepper diverged from the reference learner — numbers void"
    return reference_s, fused_s


def _bench_json(reps, cold, warm, priors):
    reference_s, fused_s = cold
    warm_reference_s, warm_fused_s = warm
    payload = {
        "benchmark": "fused_learning",
        "workflow": "montage-50",
        "vcpus": 16,
        "episodes": _EPISODES,
        "reps_best_of": reps,
        **host_provenance(),
        "commit": git_head(),
        "reference_seconds": reference_s,
        "reference_eps_per_sec": _EPISODES / reference_s,
        "fused_seconds": fused_s,
        "fused_eps_per_sec": _EPISODES / fused_s,
        "fused_vs_reference_speedup": reference_s / fused_s,
        "warm_prior_history_triples": len(priors["prior_history"]),
        "warm_reference_seconds": warm_reference_s,
        "warm_fused_seconds": warm_fused_s,
        "fused_vs_reference_warm_speedup": warm_reference_s / warm_fused_s,
    }
    return json.dumps(payload, indent=1, sort_keys=True)


def _render_note(reps, cold, warm, priors):
    reference_s, fused_s = cold
    warm_reference_s, warm_fused_s = warm
    return "\n".join([
        "# Fused learning throughput (fused lane stepper vs reference A/B)",
        "",
        f"- host cores: {host_cores()} (os.cpu_count {os.cpu_count()})",
        f"- commit: {git_head()}",
        "- workflow: Montage-50, 16-vCPU Table-I fleet, a=0.5 g=1.0 "
        "e=0.1",
        f"- episodes per arm: {_EPISODES} (interleaved best of {reps})",
        "",
        "Cold start (empty Q-table and reward history):",
        "",
        f"- reference (ReassignLearner.learn): {reference_s:.3f} s "
        f"({_EPISODES / reference_s:.1f} eps/s)",
        f"- fused (learn_batch([spec])[0]): {fused_s:.3f} s "
        f"({_EPISODES / fused_s:.1f} eps/s)",
        f"- fused vs reference: {reference_s / fused_s:.2f}x",
        "",
        "Warm start (one earlier SciCumulus-RL run's Q-table and "
        f"{len(priors['prior_history'])} history triples):",
        "",
        f"- reference: {warm_reference_s:.3f} s",
        f"- fused: {warm_fused_s:.3f} s",
        f"- fused vs reference: {warm_reference_s / warm_fused_s:.2f}x",
        "",
        "In both A/Bs the arms produced bit-identical learning",
        "fingerprints (Q-table JSON, plan, per-episode records,",
        "simulated learning time) before any throughput counted.  Both",
        "arms run on one core; the speedup is the fused stepper doing",
        "the reference path's selection, reward and Q-update work",
        "inline, without scheduler hook dispatch or per-step context",
        "objects.",
    ])


def _run_and_record(results_dir, reps):
    wf = montage(50, seed=1)
    fleet = fleet_for(16)
    cold = _ab(wf, fleet, reps, {})
    priors = _earlier_run_priors(wf)
    warm = _ab(wf, fleet, reps, priors)
    save_artifact(
        results_dir,
        "fused_learning.md",
        _render_note(reps, cold, warm, priors),
    )
    save_artifact(
        results_dir,
        "BENCH_fused_learning.json",
        _bench_json(reps, cold, warm, priors),
    )
    return cold, warm


@pytest.mark.fast
def test_fused_learning_fast(results_dir):
    """CI A/B at the frozen protocol, interleaved best of 3.

    Runs the exact frozen-baseline protocol so the fresh
    ``fused_vs_reference_speedup`` and ``fused_vs_reference_warm_speedup``
    are comparable to the frozen ones.  Three interleaved reps (the
    full variant's ``_ab`` protocol, fewer reps) keep it CI-sized while
    one noisy rep can no longer decide the guarded ratio on its own.
    The strict floors live in the full variant — here the fused path
    must simply not be slower, cold or warm, and the frozen-ratio
    regression check is ``tools/bench_guard.py``'s job (fresh speedup
    >= 0.75 x frozen).
    """
    cold, warm = _run_and_record(results_dir, reps=3)
    for label, (reference_s, fused_s) in (("cold", cold), ("warm", warm)):
        assert fused_s <= reference_s, (
            f"fused stepper slower than the reference learner ({label}): "
            f"{fused_s:.3f}s vs {reference_s:.3f}s"
        )


def test_fused_learning_full(results_dir):
    """Full A/B: >=4x cold and >=3x warm Montage-50 learning throughput."""
    cold, warm = _run_and_record(results_dir, reps=5)
    for label, (reference_s, fused_s), floor in (
        ("cold", cold, 4.0), ("warm", warm, 3.0)
    ):
        speedup = reference_s / fused_s
        assert speedup >= floor, (
            f"expected >={floor:g}x over the reference learner ({label}): "
            f"reference {reference_s:.3f}s, fused {fused_s:.3f}s "
            f"({speedup:.2f}x)"
        )
