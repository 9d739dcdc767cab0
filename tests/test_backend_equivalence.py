"""Fast-path equivalence suite: dense QTable == a plain dict, bitwise.

The interned dense :class:`~repro.rl.QTable` and the versioned
action-pair cache are pure performance work — contract: **no float
ever differs** from the obvious implementation, a sparse
``{(state, action): value}`` dict that draws each entry's random
initial value on first touch (:class:`DictQTable` below, the
reference model).  Three layers of evidence:

- a property test drives both tables through the same random op
  interleaving and demands identical returns plus byte-identical
  ``to_json()`` (first-touch draws happen in the same RNG order even
  though the dense table batch-initializes rows);
- a full learning run on Montage-25 must match when the reference
  model is injected into ``ReassignScheduler``, on the Q-table JSON,
  every per-episode record, and the emitted plan;
- the kernel-caching parallel runner must stay bit-identical between
  ``workers=1`` and ``workers=4``, with the per-process cache provably
  building each distinct kernel once.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.core.reassign import ReassignLearner, ReassignParams, ReassignScheduler
from repro.core.sweep import sweep_tasks
from repro.experiments.environments import fleet_for
from repro.rl import QTable
from repro.runner import ParallelRunner
from repro.runner.parallel import clear_kernel_cache, kernel_cache_stats
from repro.util.rng import RngService
from repro.workflows.montage import montage


class DictQTable:
    """Reference model of :class:`~repro.rl.QTable`: one dict, one draw per entry."""

    def __init__(self, init_scale=1e-3, seed=0):
        self._init_scale = float(init_scale)
        self._rng = RngService(seed).stream("qtable-init")
        self._values = {}

    def value(self, state, action):
        key = (state, action)
        if key not in self._values:
            self._values[key] = float(self._rng.uniform(0.0, self._init_scale))
        return self._values[key]

    def set(self, state, action, value):
        self._values[(state, action)] = float(value)

    def add(self, state, action, delta):
        new = self.value(state, action) + float(delta)
        self._values[(state, action)] = new
        return new

    def max_value(self, state, actions):
        return max((self.value(state, a) for a in actions), default=0.0)

    def best_action(self, state, actions, rng=None):
        values = [self.value(state, a) for a in actions]
        top = max(values)
        ties = [a for a, v in zip(actions, values) if v >= top - 1e-15]
        if len(ties) == 1 or rng is None:
            return ties[0]
        return ties[int(rng.integers(len(ties)))]

    def items(self):
        return sorted(
            ((s, a, v) for (s, a), v in self._values.items()),
            key=lambda t: (repr(t[0]), repr(t[1])),
        )

    def to_json(self):
        def enc(key):
            return list(key) if isinstance(key, tuple) else key

        entries = [[enc(s), enc(a), v] for s, a, v in self.items()]
        return json.dumps(
            {"init_scale": self._init_scale, "entries": entries}, sort_keys=True
        )


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
        array = QTable(init_scale=1e-3, seed=seed)
        plain = DictQTable(init_scale=1e-3, seed=seed)
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
        array = QTable(init_scale=1e-3, seed=3)
        plain = DictQTable(init_scale=1e-3, seed=3)
        assert array.max_value("s", actions) == plain.max_value("s", actions)
        assert array.best_action("s", actions) == plain.best_action("s", actions)
        assert array.to_json() == plain.to_json()

    def test_json_round_trip_crosses_backends(self):
        array = QTable(init_scale=1e-3, seed=9)
        array.set("s", (1, 2), 4.5)
        array.value("s", (3, 4))  # lazily initialized entry survives too
        back = QTable.from_json(array.to_json())
        plain = DictQTable(init_scale=1e-3)
        for s, a, v in back.items():
            plain.set(s, a, v)
        assert back.to_json() == plain.to_json() == array.to_json()


class TestLearnerBackendEquivalence:
    def test_learning_run_bit_identical(self):
        params = ReassignParams(episodes=4)
        learner = ReassignLearner(
            montage(25, seed=1), fleet_for(16), params, seed=7
        )
        fast = learner.learn()
        # the reference model behind a scheduler, on the learner's own
        # kernel and episode seeds
        scheduler = ReassignScheduler(
            params,
            qtable=DictQTable(init_scale=params.qtable_init_scale, seed=7),
            seed=7,
        )
        rng = RngService(7)
        for ep, expected in enumerate(fast.episodes):
            result = learner.kernel.run_episode(
                scheduler, rng.spawn_seed(f"episode:{ep}")
            )
            assert result.makespan == expected.makespan
            assert result.final_state == expected.final_state
            assert result.assignment == expected.assignment
            assert scheduler.episode_steps == expected.steps
            assert scheduler.episode_mean_reward == expected.mean_reward
            assert scheduler.episode_final_reward == expected.final_reward
        assert scheduler.qtable_json() == fast.qtable_json
        plan, makespan = learner.final_plan(result)
        assert plan.to_json() == fast.plan.to_json()
        assert makespan == fast.simulated_makespan


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
