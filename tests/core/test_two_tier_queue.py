"""The two-tier event queue: firing order against an oracle, the delay pool.

The engine keeps delay-0 ``NORMAL`` events on a FIFO fast lane and
everything else on a heap. The only property the rest of the simulator
relies on is that events fire in ``(time, priority, seq)`` order, so the
property tests below replay random scheduling trees on the engine and on
:class:`_Oracle` — that order spelled out as one sorted list — and
compare what fires, when. Each tree node schedules one event; when it
fires, its children are scheduled from inside the callback.
"""

import bisect
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import Engine, Event, NegativeDelay, SimulationError
from repro.core.engine import LOW, NORMAL, URGENT


class _Oracle:
    """The firing-order contract: one list sorted by (time, priority, seq)."""

    def __init__(self):
        self.now = 0.0
        self.seq = 0
        self.entries = []

    def push(self, delay, priority, item):
        self.seq += 1
        bisect.insort(self.entries, (self.now + delay, priority, self.seq, item))

    def peek(self):
        return self.entries[0][0] if self.entries else float("inf")

    def pop(self):
        time, _priority, _seq, item = self.entries.pop(0)
        self.now = time
        return time, item


# -- scheduling trees ---------------------------------------------------------

#: one node kind per scheduling path of the kernel (see ``_queued_as``).
_KINDS = ("timeout", "delay", "succeed", "fail", "schedule")
_DELAYS = (0.0, 0.0, 0.25, 0.5, 0.5, 1.0)
_PRIORITIES = (URGENT, NORMAL, NORMAL, LOW)


def _trees(kinds=_KINDS, delays=_DELAYS, priorities=_PRIORITIES, roots=6):
    """Forests of ``(kind, delay, priority, children)`` nodes."""
    node = st.tuples(
        st.sampled_from(kinds), st.sampled_from(delays), st.sampled_from(priorities)
    )
    tree = st.recursive(
        st.builds(lambda n: (*n, ()), node),
        lambda children: st.builds(
            lambda n, c: (*n, tuple(c)), node, st.lists(children, max_size=3)
        ),
        max_leaves=12,
    )
    return st.lists(tree, min_size=1, max_size=roots)


def _queued_as(kind, delay, priority):
    """The (delay, priority) a node's event is queued with."""
    if kind in ("timeout", "delay"):
        return delay, NORMAL
    if kind in ("succeed", "fail"):
        return 0.0, priority
    return delay, priority


def _labelled(forest):
    """Give every node a unique preorder label: (label, node, children)."""
    counter = itertools.count()

    def walk(node):
        kind, delay, priority, children = node
        return (next(counter), (kind, delay, priority), [walk(c) for c in children])

    return [walk(n) for n in forest]


def _expected(forest):
    """Oracle firing order ``[(time, label)]`` and the ``(peek, queued)``
    seen before each pop and once the queue is empty."""
    oracle = _Oracle()
    order, snapshots = [], []

    def launch(tree):
        oracle.push(*_queued_as(*tree[1]), tree)

    for tree in _labelled(forest):
        launch(tree)
    while oracle.entries:
        snapshots.append((oracle.peek(), len(oracle.entries)))
        time, (label, _node, children) = oracle.pop()
        order.append((time, label))
        for child in children:
            launch(child)
    snapshots.append((oracle.peek(), 0))
    return order, snapshots


def _observed(forest, hook, stepwise=False):
    """Engine firing order ``[(time, label)]`` (from ``step_hook`` when
    *hook*, else from the callbacks) and, when *stepwise*, the
    ``(peek, queued)`` seen before each ``step()`` and once the queue is
    empty."""
    eng = Engine()
    labels = {}
    by_hook, by_callback, snapshots = [], [], []

    def launch(tree):
        label, (kind, delay, priority), children = tree
        if kind == "timeout":
            ev = eng.timeout(delay)
        elif kind == "delay":
            ev = eng.delay(delay)
        elif kind == "succeed":
            ev = Event(eng).succeed(None, priority=priority)
        elif kind == "fail":
            ev = Event(eng).fail(RuntimeError(label), priority=priority)
        else:
            ev = Event(eng)
            eng.schedule(ev, delay=delay, priority=priority)
        if hook:
            labels[ev] = label

        def on_fire(event):
            event.defused = True
            by_callback.append((eng.now, label))
            for child in children:
                launch(child)

        ev.callbacks.append(on_fire)

    if hook:
        eng.step_hook = lambda t, ev: by_hook.append((t, labels[ev]))
    for tree in _labelled(forest):
        launch(tree)
    if stepwise:
        while eng.queued:
            snapshots.append((eng.peek(), eng.queued))
            eng.step()
        snapshots.append((eng.peek(), eng.queued))
    else:
        eng.run()
    if hook:
        assert by_hook == by_callback
    return by_callback, snapshots


# -- firing order -------------------------------------------------------------


@given(_trees())
@settings(max_examples=150, deadline=None)
def test_firing_order_matches_oracle(forest):
    assert _observed(forest, hook=True)[0] == _expected(forest)[0]


def test_firing_order_identical_to_heap_only_kernel():
    # a fixed forest touching every scheduling path, with lane entries,
    # heap entries and URGENT/LOW triggers colliding at t=0, 0.5 and 1.5;
    # ``_Oracle`` is the order a heap-only queue would fire them in
    forest = [
        ("succeed", 0.0, NORMAL, (("delay", 0.0, NORMAL, ()),)),
        ("timeout", 0.5, NORMAL, (("succeed", 0.0, URGENT, ()),)),
        ("delay", 0.0, NORMAL, (("timeout", 1.0, NORMAL, ()),)),
        ("schedule", 0.5, LOW, (("fail", 0.0, LOW, ()), ("delay", 0.0, NORMAL, ()))),
        ("timeout", 1.5, NORMAL, (("schedule", 0.0, URGENT, ()),)),
        ("fail", 0.0, NORMAL, ()),
    ]
    for hook in (True, False):
        assert _observed(forest, hook=hook)[0] == _expected(forest)[0]


@given(_trees())
@settings(max_examples=100, deadline=None)
def test_firing_order_matches_oracle_without_step_hook(forest):
    # no hook => fired ``engine.delay()`` events are recycled by the pool
    assert _observed(forest, hook=False)[0] == _expected(forest)[0]


@given(_trees(delays=(0.0, 0.5), roots=8))
@settings(max_examples=100, deadline=None)
def test_timestamp_collisions_match_oracle(forest):
    for hook in (True, False):
        assert _observed(forest, hook=hook)[0] == _expected(forest)[0]


@given(_trees(kinds=("succeed", "fail", "schedule"), delays=(0.0,)))
@settings(max_examples=100, deadline=None)
@example([("succeed", 0.0, NORMAL, ()), ("succeed", 0.0, URGENT, ())])
def test_urgent_trigger_fires_before_earlier_normal_trigger(forest):
    # URGENT/LOW triggers race delay-0 NORMAL ones at the same instant
    assert _observed(forest, hook=True)[0] == _expected(forest)[0]


@given(
    st.integers(min_value=2, max_value=5),
    _trees(kinds=("succeed", "timeout", "delay"), delays=(0.0,), priorities=(NORMAL,)),
)
@settings(max_examples=100, deadline=None)
def test_heap_normal_event_with_lower_seq_beats_lane_entry(n_roots, lane_forest):
    # n timeouts land at t=1 (heap); the first one's callback puts delay-0
    # NORMAL events on the lane. The other timeouts hold lower sequence
    # numbers, so they fire before every lane entry at t=1.
    forest = [("timeout", 1.0, NORMAL, tuple(lane_forest))]
    forest += [("timeout", 1.0, NORMAL, ())] * (n_roots - 1)
    order, _ = _observed(forest, hook=True)
    assert order == _expected(forest)[0]
    first_labels = [label for _t, label in order[:n_roots]]
    root_labels = [tree[0] for tree in _labelled(forest)]
    assert first_labels == root_labels


@given(_trees())
@settings(max_examples=100, deadline=None)
def test_peek_and_queued_consider_both_tiers(forest):
    assert _observed(forest, hook=False, stepwise=True) == _expected(forest)


# -- the delay pool -----------------------------------------------------------


def test_delay_pool_recycles_objects():
    eng = Engine()
    ids = []

    def proc():
        for _ in range(3):
            d = eng.delay(0.1)
            ids.append(id(d))
            yield d

    eng.process(proc())
    eng.run()
    assert eng._delay_pool  # something was recycled
    # the first delay is back in the pool by the time the third is made
    assert ids[2] == ids[0]


def test_delay_pool_disabled_under_step_hook():
    # A step hook may retain event references, so recycling must stop.
    eng = Engine()
    eng.step_hook = lambda _t, _ev: None

    def proc():
        yield eng.delay(0.1)
        yield eng.delay(0.1)

    eng.process(proc())
    eng.run()
    assert not eng._delay_pool


def test_delay_event_carries_value():
    eng = Engine()
    got = []

    def proc():
        got.append((yield eng.delay(0.25, value="tick")))

    eng.process(proc())
    eng.run()
    assert got == ["tick"]
    assert eng.now == 0.25


@pytest.mark.parametrize(
    "schedule",
    [
        lambda eng: eng.schedule(Event(eng), delay=-0.1),
        lambda eng: eng.timeout(-1.0),
        lambda eng: eng.delay(-1e-9),
    ],
)
def test_negative_delays_raise_shared_error(schedule):
    eng = Engine()
    with pytest.raises(NegativeDelay, match="cannot schedule into the past"):
        schedule(eng)
    # back-compat: NegativeDelay is both a ValueError and a kernel error
    with pytest.raises(ValueError):
        schedule(eng)
    with pytest.raises(SimulationError):
        schedule(eng)
