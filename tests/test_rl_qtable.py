"""Tests for repro.rl.qtable."""

import json
import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.rl import QTable
from repro.util.rng import RngService
from repro.util.validate import ValidationError


class TestInitialization:
    def test_lazy_random_init(self):
        t = QTable(init_scale=1e-3, seed=1)
        v = t.value("s", ("a", 1))
        assert 0.0 <= v < 1e-3
        # stable on re-read
        assert t.value("s", ("a", 1)) == v

    def test_deterministic_given_seed(self):
        a = QTable(seed=5).value("s", "a")
        b = QTable(seed=5).value("s", "a")
        assert a == b

    def test_zero_scale_inits_zero(self):
        assert QTable(init_scale=0.0).value("s", "a") == 0.0

    def test_negative_scale_rejected(self):
        with pytest.raises(ValidationError):
            QTable(init_scale=-1.0)

    @pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf])
    def test_non_finite_scale_rejected(self, scale):
        with pytest.raises(ValidationError, match="finite"):
            QTable(init_scale=scale)

    def test_reads_do_not_initialize(self):
        t = QTable()
        assert t.max_value("terminal", []) == 0.0
        assert t.items() == []
        assert json.loads(t.to_json())["entries"] == []
        assert len(t) == 0


class TestUpdates:
    def test_len_counts_known_entries(self):
        t = QTable()
        t.set("s0", (0, 1), 1.0)
        t.set("s0", (1, 2), 2.0)
        t.set("s1", (0, 1), 3.0)
        t.set("s1", (0, 1), 4.0)  # overwrite, not a new entry
        assert len(t) == 3
        assert {s for s, _a, _v in t.items()} == {"s0", "s1"}
        assert {a for _s, a, _v in t.items()} == {(0, 1), (1, 2)}

    def test_set_and_add(self):
        t = QTable(init_scale=0.0)
        t.set("s", "a", 2.0)
        assert t.add("s", "a", 0.5) == 2.5
        assert t.value("s", "a") == 2.5

    def test_max_value(self):
        t = QTable(init_scale=0.0)
        t.set("s", "a", 1.0)
        t.set("s", "b", 3.0)
        assert t.max_value("s", ["a", "b"]) == 3.0

    def test_max_value_empty_actions_is_zero(self):
        # terminal-state convention
        t = QTable(init_scale=0.0)
        assert t.max_value("terminal", []) == 0.0

    def test_best_action(self):
        t = QTable(init_scale=0.0)
        t.set("s", "a", 1.0)
        t.set("s", "b", 3.0)
        assert t.best_action("s", ["a", "b"]) == "b"

    def test_best_action_tie_break_with_rng(self):
        t = QTable(init_scale=0.0)
        t.set("s", "a", 1.0)
        t.set("s", "b", 1.0)
        rng = RngService(0).stream("x")
        picks = {t.best_action("s", ["a", "b"], rng) for _ in range(50)}
        assert picks == {"a", "b"}

    def test_best_action_empty_rejected(self):
        with pytest.raises(ValidationError):
            QTable().best_action("s", [])


class TestPersistence:
    def test_json_round_trip(self):
        t = QTable(init_scale=0.0)
        t.set("available", (3, 8), 1.5)
        t.set("available", (0, 2), -0.5)
        back = QTable.from_json(t.to_json())
        assert back.value("available", (3, 8)) == 1.5
        assert back.value("available", (0, 2)) == -0.5

    def test_tuple_keys_survive(self):
        t = QTable(init_scale=0.0)
        t.set("s", (1, 2), 9.0)
        back = QTable.from_json(t.to_json())
        # lists decoded back to tuples
        assert back.items() == [("s", (1, 2), 9.0)]

    def test_malformed_json(self):
        with pytest.raises(ValidationError):
            QTable.from_json("][")

    @pytest.mark.parametrize(
        "text",
        [
            "[]",  # root is not an object
            '"str"',
            "5",
            '{"entries": 5}',  # entries is not a list
            '{"entries": [["s", "a"]]}',  # two-element entry
            '{"entries": [5]}',
            '{"entries": [["s", {"x": 1}, 1.0]]}',  # unhashable action
            '{"entries": [[["s", ["t"]], "a", 1.0]]}',  # list in a tuple key
            '{"entries": [["s", "a", "x"]]}',  # non-numeric value
            '{"entries": [["s", "a", true]]}',
            '{"entries": [["s", "a", null]]}',
            '{"entries": [["s", "a", NaN]]}',  # would poison argmax
            '{"entries": [["s", "a", Infinity]]}',
            '{"entries": [["s", "a", -Infinity]]}',
            '{"entries": [["s", "a", 1e400]]}',
            '{"entries": [["s", "a", 1' + "0" * 400 + "]]}",
            '{"init_scale": "abc"}',
            '{"init_scale": NaN}',
            '{"init_scale": -1.0}',
        ],
    )
    def test_bad_payloads_raise_validation_error(self, text):
        with pytest.raises(ValidationError):
            QTable.from_json(text)

    def test_non_text_is_rejected(self):
        with pytest.raises(ValidationError, match="must be text"):
            QTable.from_json(None)  # type: ignore[arg-type]

    def test_items_sorted(self):
        t = QTable(init_scale=0.0)
        t.set("b", "y", 1.0)
        t.set("a", "x", 2.0)
        items = t.items()
        assert items[0][0] == "a"

    def test_copy_independent(self):
        t = QTable(init_scale=0.0)
        t.set("s", "a", 1.0)
        c = QTable.from_json(t.to_json())
        c.set("s", "a", 5.0)
        assert t.value("s", "a") == 1.0

    def test_pickle_roundtrip_drops_id_memo(self):
        table = QTable(seed=1)
        table.set("s0", (0, 1), 2.0)
        table.max_value("s0", ((0, 1),))  # warms the id-keyed memo
        clone = pickle.loads(pickle.dumps(table))
        assert clone.to_json() == table.to_json()
        assert clone._id_memo == {}
        # the clone's init stream continues where the original's would
        assert clone.value("sX", (5, 5)) == table.value("sX", (5, 5))


# -- fuzz: every outcome is a table or a ValidationError --------------------

_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4)
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)
#: near-miss tables: the right root shape with fuzzed entries/scale
_near_tables = st.fixed_dictionaries(
    {},
    optional={
        "init_scale": _json_values,
        "entries": st.lists(
            st.lists(_json_values, min_size=0, max_size=4)
            | st.tuples(
                st.text(max_size=3) | st.lists(st.integers(0, 9), max_size=3),
                st.lists(st.integers(0, 9), max_size=3) | _json_scalars,
                _json_scalars,
            ).map(list),
            max_size=5,
        )
        | _json_values,
    },
)


class TestFromJsonFuzz:
    @settings(max_examples=200, deadline=None)
    @given(payload=_json_values | _near_tables)
    def test_json_values_load_or_raise_validation_error(self, payload):
        self._check(json.dumps(payload))

    @settings(max_examples=100, deadline=None)
    @given(text=st.text(max_size=40))
    def test_arbitrary_text_loads_or_raises_validation_error(self, text):
        self._check(text)

    @staticmethod
    def _check(text):
        try:
            table = QTable.from_json(text)
        except ValidationError:
            return
        # a table that loads holds finite values only
        assert all(math.isfinite(v) for _s, _a, v in table.items())
