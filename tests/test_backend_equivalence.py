"""Fast-path equivalence suite: array backend == dict backend, bitwise.

The dense ``backend="array"`` Q-table and the versioned action-pair
cache are pure performance work — PR-level contract: **no float ever
differs**.  Three layers of evidence:

- a property test drives both backends through the same random op
  interleaving and demands identical returns plus byte-identical
  ``to_json()`` (first-touch draws happen in the same RNG order even
  though the array backend batch-initializes rows);
- a full learning run on Montage-25 must match across backends on the
  Q-table JSON, every per-episode record, and the emitted plan;
- the kernel-caching parallel runner must stay bit-identical between
  ``workers=1`` and ``workers=4``, with the per-process cache provably
  building each distinct kernel once.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.reassign import ReassignLearner, ReassignParams
from repro.core.sweep import sweep_tasks
from repro.experiments.environments import fleet_for
from repro.rl import QTable
from repro.runner import ParallelRunner
from repro.runner.parallel import clear_kernel_cache, kernel_cache_stats
from repro.util.rng import RngService
from repro.util.validate import ValidationError
from repro.workflows.montage import montage

# (op, state index, action index, value) — indices keep the key space
# small enough that interleavings actually collide on rows.
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["value", "add", "set", "max_value", "best_action"]),
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=6),
        st.floats(min_value=-8.0, max_value=8.0,
                  allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=50,
)


def _apply(table, rng, op, state_idx, action_idx, value):
    state = f"s{state_idx}"
    action = (action_idx, action_idx + 1)
    # a stable slice of the action space, so max/best see 1..7 actions
    actions = [(k, k + 1) for k in range(action_idx + 1)]
    if op == "value":
        return table.value(state, action)
    if op == "add":
        return table.add(state, action, value)
    if op == "set":
        table.set(state, action, value)
        return None
    if op == "max_value":
        return table.max_value(state, actions)
    return table.best_action(state, actions, rng)


class TestQTableBackendEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1), ops=_OPS)
    def test_interleaved_ops_bit_identical(self, seed, ops):
        array = QTable(init_scale=1e-3, seed=seed, backend="array")
        plain = QTable(init_scale=1e-3, seed=seed, backend="dict")
        rng_a = RngService(seed).stream("tie")
        rng_d = RngService(seed).stream("tie")
        for op, state_idx, action_idx, value in ops:
            got_a = _apply(array, rng_a, op, state_idx, action_idx, value)
            got_d = _apply(plain, rng_d, op, state_idx, action_idx, value)
            assert got_a == got_d, (op, state_idx, action_idx, value)
        assert array.items() == plain.items()
        assert array.to_json() == plain.to_json()

    def test_wide_action_set_uses_same_floats(self):
        # crosses the scalar-reduction threshold into the numpy branch
        actions = [(k, k + 1) for k in range(64)]
        array = QTable(init_scale=1e-3, seed=3, backend="array")
        plain = QTable(init_scale=1e-3, seed=3, backend="dict")
        assert array.max_value("s", actions) == plain.max_value("s", actions)
        assert array.best_action("s", actions) == plain.best_action("s", actions)
        assert array.to_json() == plain.to_json()

    def test_json_round_trip_crosses_backends(self):
        array = QTable(init_scale=1e-3, seed=9, backend="array")
        array.set("s", (1, 2), 4.5)
        array.value("s", (3, 4))  # lazily initialized entry survives too
        back = QTable.from_json(array.to_json(), backend="dict")
        assert back.to_json() == array.to_json()


class TestLearnerBackendEquivalence:
    def test_learning_run_bit_identical(self):
        results = {}
        for backend in ("array", "dict"):
            learner = ReassignLearner(
                montage(25, seed=1),
                fleet_for(16),
                ReassignParams(episodes=4, qtable_backend=backend),
                seed=7,
            )
            results[backend] = learner.learn()
        fast, plain = results["array"], results["dict"]
        assert fast.qtable_json == plain.qtable_json
        assert [e.to_dict() for e in fast.episodes] == [
            e.to_dict() for e in plain.episodes
        ]
        assert fast.plan.to_json() == plain.plan.to_json()
        assert fast.simulated_makespan == plain.simulated_makespan


class TestBackendValidationAndStats:
    def test_unknown_backend_lists_allowed_sorted(self):
        with pytest.raises(
            ValidationError,
            match=r"backend must be one of 'array', 'dict', got 'rocksdb'",
        ):
            QTable(backend="rocksdb")

    def test_shard_backend_is_rejected(self):
        with pytest.raises(ValidationError, match="'shard'"):
            QTable(backend="shard")
        with pytest.raises(ValidationError, match="'shard'"):
            ReassignParams(qtable_backend="shard")

    def test_stats_counts_and_bytes(self):
        table = QTable(backend="array")
        table.set("s0", (0, 1), 1.0)
        table.set("s0", (1, 2), 2.0)
        table.set("s1", (0, 1), 3.0)
        stats = table.stats()
        assert stats["backend"] == "array"
        assert stats["n_states"] == 2
        assert stats["n_actions"] == 2
        assert stats["n_known"] == 3
        assert stats["nbytes"] > 0

    def test_stats_dict_backend_has_no_dense_bytes(self):
        table = QTable(backend="dict")
        table.set("s", (0, 1), 1.0)
        assert table.stats()["nbytes"] is None


def _cell_fingerprints(records):
    return [
        (r.key, r.value.simulated_makespan, r.value.learning_time,
         r.value.result.qtable_json, r.value.result.plan.to_json())
        for r in records
    ]


def _reduced_sweep_tasks():
    return sweep_tasks(
        montage(25, seed=1),
        fleet_for(16),
        alphas=(0.1, 0.9),
        gammas=(1.0,),
        epsilons=(0.1, 0.5),
        episodes=2,
        seed=1,
        timing="simulated",
    )


class TestKernelCachingRegression:
    def test_serial_sweep_builds_each_kernel_once(self):
        clear_kernel_cache()
        tasks = _reduced_sweep_tasks()
        assert all(t.kernel_fingerprint for t in tasks)
        try:
            ParallelRunner(workers=1).run(tasks)
            stats = kernel_cache_stats()
            assert stats["builds"] == 1
            assert stats["hits"] == len(tasks) - 1
        finally:
            clear_kernel_cache()

    def test_workers4_with_kernel_cache_bitwise_equal_serial(self):
        clear_kernel_cache()
        try:
            serial = ParallelRunner(workers=1).run(_reduced_sweep_tasks())
            pooled = ParallelRunner(workers=4).run(_reduced_sweep_tasks())
        finally:
            clear_kernel_cache()
        assert _cell_fingerprints(serial) == _cell_fingerprints(pooled)
