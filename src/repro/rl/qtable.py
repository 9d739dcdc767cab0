"""Tabular action-value storage.

The paper's evaluation table "Q: S x A" maps (workflow state, schedule
action) to a value.  :class:`QTable` interns states and actions to
contiguous integer ids and keeps the Q-values in a growable dense
``numpy`` array with an explicit lazy-init mask.  ``max_value`` /
``best_action`` become masked reductions over precomputed action-id
slices, which is what makes the ReASSIgN decision loop fast (see
``docs/performance.md``).

Unseen entries are initialized *at random* on first touch — "Start
Q(s, a) for all s, a at random" (Algorithm 1) — from a dedicated
stream, one draw per entry in first-touch order, so a plain
``{(state, action): value}`` dict that draws on first access produces
the same floats, tie-breaks and serialized JSON byte for byte
(``tests/test_backend_equivalence.py`` keeps such a model as the
reference).  States and actions may be any hashable, JSON-encodable
values; ReASSIgN uses string states and ``(activation_id, vm_id)``
tuples.
"""

from __future__ import annotations

import json
import math
from typing import (
    Any,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.util.rng import RngService
from repro.util.validate import ValidationError

__all__ = ["QTable"]

State = Hashable
Action = Hashable

#: Action-id slices memoized per actions-tuple identity (see
#: ``QTable._action_slice``).  Sized to cover the working set of
#: interned cross-product tuples a learning run cycles through
#: (``EpisodeState.action_pairs`` hands out ~one distinct tuple per
#: (ready, idle) configuration, a few thousand per run on mid-size
#: workflows); each entry is just an id array plus an ensured-state
#: set, so memory stays negligible.
_ID_MEMO_LIMIT = 4096

#: Below this many actions the batched reductions use a plain Python
#: loop over the dense row instead of a numpy reduction: the median
#: ReASSIgN action set is ~3 pairs, where interpreter arithmetic beats
#: numpy's per-call overhead.  ``max`` and the ``>= top - 1e-15`` tie
#: band are order-independent IEEE float64 comparisons, so both code
#: paths produce bit-identical results.
_SCALAR_REDUCTION_LIMIT = 32


def _encode_key(key) -> list:
    """Tuple keys become lists for JSON; scalars pass through."""
    if isinstance(key, tuple):
        return list(key)
    return key


def _decode_key(key):
    """Invert :func:`_encode_key` (lists back to tuples)."""
    if isinstance(key, list):
        return tuple(key)
    return key


def _finite(value: Any, what: str) -> float:
    """A JSON number as a finite float, else ``ValidationError``.

    Booleans and strings are not numbers here, and NaN/infinite values
    would poison every later argmax over the row.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"QTable {what} must be a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError as exc:
        raise ValidationError(f"QTable {what} is out of range") from exc
    if not math.isfinite(out):
        raise ValidationError(f"QTable {what} must be finite, got {out!r}")
    return out


class QTable:
    """Q(s, a) table with random lazy initialization.

    Parameters
    ----------
    init_scale:
        Unseen entries are drawn uniformly from ``[0, init_scale)``.  A
        small positive scale implements the paper's random initialization
        while keeping initial values near-neutral.  Must be finite and
        ``>= 0``.
    seed:
        Seed for the initialization stream.
    """

    def __init__(self, init_scale: float = 1e-3, seed: int = 0) -> None:
        init_scale = _finite(init_scale, "init_scale")
        if init_scale < 0:
            raise ValidationError("init_scale must be >= 0")
        self._init_scale = init_scale
        self._rng: np.random.Generator = RngService(seed).stream("qtable-init")
        # interning maps: state/action -> contiguous int id
        self._state_ids: Dict[State, int] = {}
        self._states: List[State] = []
        self._action_ids: Dict[Action, int] = {}
        self._actions: List[Action] = []
        # dense storage: Q-values + "has been touched" mask
        self._q = np.zeros((0, 0), dtype=np.float64)
        self._known = np.zeros((0, 0), dtype=bool)
        self._n_known = 0
        # id(actions-tuple) -> (strong ref, action-id array, action ids
        # as a plain int list, set of state ids already lazy-initialized
        # against it); the strong ref keeps the id stable, so the
        # identity check below can never confuse two tuples, and the
        # ensured-set check is sound because known-ness is monotone
        # (entries never un-initialize)
        self._id_memo: Dict[
            int, Tuple[Tuple[Action, ...], np.ndarray, List[int], set]
        ] = {}

    def __len__(self) -> int:
        return self._n_known

    # -- interning -------------------------------------------

    def _grow(self, rows: int, cols: int) -> None:
        """Grow the dense storage to at least (rows, cols), geometrically."""
        old_r, old_c = self._q.shape
        new_r = max(rows, old_r, 4)
        new_c = max(cols, old_c, 16)
        if new_r > old_r:
            new_r = max(new_r, 2 * old_r)
        if new_c > old_c:
            new_c = max(new_c, 2 * old_c)
        q = np.zeros((new_r, new_c), dtype=np.float64)
        known = np.zeros((new_r, new_c), dtype=bool)
        if old_r and old_c:
            q[:old_r, :old_c] = self._q
            known[:old_r, :old_c] = self._known
        self._q = q
        self._known = known

    def _state_id(self, state: State) -> int:
        sid = self._state_ids.get(state)
        if sid is None:
            sid = len(self._states)
            self._state_ids[state] = sid
            self._states.append(state)
            if sid >= self._q.shape[0]:
                self._grow(sid + 1, self._q.shape[1])
        return sid

    def _action_id(self, action: Action) -> int:
        aid = self._action_ids.get(action)
        if aid is None:
            aid = len(self._actions)
            self._action_ids[action] = aid
            self._actions.append(action)
            if aid >= self._q.shape[1]:
                self._grow(self._q.shape[0], aid + 1)
        return aid

    def _action_slice(
        self, actions: Sequence[Action]
    ) -> Tuple[Tuple[Action, ...], np.ndarray, List[int], set]:
        """Memo entry for an actions batch, keyed on tuple identity.

        The simulator hands schedulers a *cached* cross-product tuple
        that stays the same object until the ready/idle sets change
        (``SimulationContext.action_pairs``), so successive ``select`` /
        Q-update calls hit the memo instead of re-interning every pair.
        Interning never draws from the init stream, so warming the memo
        cannot perturb lazy initialization.
        """
        is_tuple = type(actions) is tuple
        if is_tuple:
            memo = self._id_memo.get(id(actions))
            if memo is not None and memo[0] is actions:
                return memo
        act_get = self._action_ids.get
        id_list = [
            aid if (aid := act_get(a)) is not None else self._action_id(a)
            for a in actions
        ]
        ids = np.array(id_list, dtype=np.intp)
        entry = (tuple(actions), ids, id_list, set())
        if is_tuple:
            if len(self._id_memo) >= _ID_MEMO_LIMIT:
                self._id_memo.pop(next(iter(self._id_memo)))
            self._id_memo[id(actions)] = entry
        return entry

    def _ensure_known(self, sid: int, aids: np.ndarray) -> None:
        """Lazy-init any untouched (sid, aid) entries, in slice order.

        One ``uniform`` call per fresh entry, in the order the actions
        appear — the same draw sequence as touching each entry through
        :meth:`value` (duplicates are re-checked so they draw only once).
        """
        known = self._known[sid]
        fresh = np.flatnonzero(~known[aids])
        if fresh.size:
            q = self._q[sid]
            scale = self._init_scale
            rng = self._rng
            for pos in fresh:
                aid = aids[pos]
                if not known[aid]:
                    q[aid] = rng.uniform(0.0, scale)
                    known[aid] = True
                    self._n_known += 1

    # -- point access ---------------------------------------------------------

    def value(self, state: State, action: Action) -> float:
        """Q(s, a); initializes the entry randomly on first access."""
        sid = self._state_id(state)
        aid = self._action_id(action)
        if self._known[sid, aid]:
            return float(self._q[sid, aid])
        v = float(self._rng.uniform(0.0, self._init_scale))
        self._q[sid, aid] = v
        self._known[sid, aid] = True
        self._n_known += 1
        return v

    def set(self, state: State, action: Action, value: float) -> None:
        """Overwrite Q(s, a)."""
        sid = self._state_id(state)
        aid = self._action_id(action)
        if not self._known[sid, aid]:
            self._known[sid, aid] = True
            self._n_known += 1
        self._q[sid, aid] = float(value)

    def add(self, state: State, action: Action, delta: float) -> float:
        """Q(s, a) += delta; returns the new value."""
        new = self.value(state, action) + float(delta)
        self._q[self._state_ids[state], self._action_ids[action]] = new
        return new

    # -- batched reductions ----------------------------------------------------

    def max_value(self, state: State, actions: Iterable[Action]) -> float:
        """max_a Q(s, a) over the given actions (0.0 for an empty set).

        An empty action set corresponds to a terminal/unavailable state,
        whose future value is zero by convention.
        """
        if not isinstance(actions, (tuple, list)):
            actions = list(actions)
        if not actions:
            return 0.0
        sid = self._state_id(state)
        _, aids, id_list, ensured = self._action_slice(actions)
        if sid not in ensured:
            self._ensure_known(sid, aids)
            ensured.add(sid)
        row = self._q[sid]
        if len(id_list) < _SCALAR_REDUCTION_LIMIT:
            # scalar loop beats numpy call overhead on tiny slices; the
            # result is the same float either way (a max is a max)
            best = row[id_list[0]]
            for aid in id_list[1:]:
                v = row[aid]
                if v > best:
                    best = v
            return float(best)
        return float(row.take(aids).max())

    def best_action(
        self,
        state: State,
        actions: Iterable[Action],
        rng: Optional[np.random.Generator] = None,
    ) -> Action:
        """argmax_a Q(s, a); ties broken randomly (or by sort order)."""
        if not isinstance(actions, (tuple, list)):
            actions = list(actions)
        if not actions:
            raise ValidationError("best_action needs a non-empty action set")
        sid = self._state_id(state)
        _, aids, id_list, ensured = self._action_slice(actions)
        if sid not in ensured:
            self._ensure_known(sid, aids)
            ensured.add(sid)
        row = self._q[sid]
        # max, then the >= top - 1e-15 tie band, then one draw over the
        # tie count (both branches compare the same floats)
        if len(id_list) < _SCALAR_REDUCTION_LIMIT:
            values_list = [row[aid] for aid in id_list]
            cut = max(values_list) - 1e-15
            tie_list = [i for i, v in enumerate(values_list) if v >= cut]
            if len(tie_list) == 1 or rng is None:
                return actions[tie_list[0]]
            return actions[tie_list[int(rng.integers(len(tie_list)))]]
        values = row.take(aids)
        ties = np.flatnonzero(values >= values.max() - 1e-15)
        if ties.size == 1 or rng is None:
            return actions[int(ties[0])]
        return actions[int(ties[int(rng.integers(ties.size))])]

    def items(self) -> List[Tuple[State, Action, float]]:
        """All (state, action, value) triples, deterministically ordered."""
        sids, aids = np.nonzero(
            self._known[: len(self._states), : len(self._actions)]
        )
        triples = (
            (self._states[sid], self._actions[aid], float(self._q[sid, aid]))
            for sid, aid in zip(sids, aids)
        )
        return sorted(triples, key=lambda t: (repr(t[0]), repr(t[1])))

    # -- persistence ---------------------------------------------------------

    def to_json(self) -> str:
        """Serialize all entries (states/actions must be JSON-encodable)."""
        entries = [
            [_encode_key(s), _encode_key(a), v] for s, a, v in self.items()
        ]
        return json.dumps(
            {"init_scale": self._init_scale, "entries": entries},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str, seed: int = 0) -> "QTable":
        """Restore a table serialized by :meth:`to_json`.

        The text usually comes from a provenance database, so every
        malformed input — bad JSON, a wrong root or entry shape, an
        unhashable key, a non-numeric or non-finite value — raises
        :class:`~repro.util.validate.ValidationError`.
        """
        if not isinstance(text, (str, bytes, bytearray)):
            raise ValidationError(
                f"QTable JSON must be text, got {type(text).__name__}"
            )
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise ValidationError(f"malformed QTable JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValidationError(
                f"QTable JSON must be an object, got {type(data).__name__}"
            )
        entries = data.get("entries", [])
        if not isinstance(entries, list):
            raise ValidationError("QTable JSON 'entries' must be a list")
        table = cls(init_scale=data.get("init_scale", 1e-3), seed=seed)
        for k, entry in enumerate(entries):
            if not isinstance(entry, list) or len(entry) != 3:
                raise ValidationError(
                    f"QTable entry {k} must be a [state, action, value] list"
                )
            s, a, v = (_decode_key(entry[0]), _decode_key(entry[1]), entry[2])
            try:
                hash((s, a))
            except TypeError as exc:
                raise ValidationError(
                    f"QTable entry {k} has an unhashable key: {exc}"
                ) from exc
            table.set(s, a, _finite(v, f"entry {k} value"))
        return table

    # -- pickling ------------------------------------------------------------

    def __getstate__(self) -> Dict[str, Any]:
        """Drop the id-keyed memo: object ids do not survive a pickle."""
        state = self.__dict__.copy()
        state.pop("_id_memo", None)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._id_memo = {}
