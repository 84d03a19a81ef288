"""EventQueue vs a brute-force reference: identical ordering under any schedule.

The kernel's heap queue deletes lazily and compacts the whole heap
once cancellations dominate; neither may change the execution order.
These tests pin that contract against a reference queue that keeps
every entry in a list and pops the minimum live ``(time, seq)`` key by
linear scan: for the *same* push/cancel sequence, both
pop the same keys in the same order, including same-timestamp FIFO
ties, zero-delay pushes at the current clock, cancelled handles, and
across compaction.
"""

import random

import pytest

from repro.sim.events import _PURGE_MIN_CANCELLED, EventQueue


def noop():
    pass


class _RefHandle:
    __slots__ = ("cancelled",)

    def __init__(self):
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class ReferenceQueue:
    """Unsorted list of ``((time, seq), handle)``; O(n) pops."""

    def __init__(self):
        self._entries = []
        self._seq = 0

    def push(self, time, callback):
        handle = _RefHandle()
        self._entries.append(((time, self._seq), handle))
        self._seq += 1
        return handle

    def live_count(self):
        return sum(not h.cancelled for _, h in self._entries)

    def pop_key(self):
        """Remove and return the smallest live key, or ``None``."""
        live = [e for e in self._entries if not e[1].cancelled]
        if not live:
            return None
        head = min(live, key=lambda e: e[0])
        self._entries.remove(head)
        return head[0]


def drain(q):
    """Pop every live entry, returning ``(time, seq)`` keys."""
    out = []
    while True:
        head = q._purge_head()
        if head is None:
            assert q.pop() is None
            return out
        entry = q._pop_head()
        out.append(entry[:2])


def drain_ref(ref):
    out = []
    while (key := ref.pop_key()) is not None:
        out.append(key)
    return out


def apply_ops(q, ops):
    """Replay a schedule: ('push', t) | ('zero', now) | ('cancel', i).

    Returns handles in creation order so cancel indices line up across
    queues.
    """
    handles = []
    for op in ops:
        if op[0] in ("push", "zero"):
            handles.append(q.push(op[1], noop))
        else:
            handles[op[1]].cancel()
    return handles


def random_schedule(rng, n_events=500):
    """A randomized op sequence with ties, zero-gaps, and cancellations.

    ``zero`` ops push at a monotone ``now``, the key ``call_after(0,
    ...)`` produces; other pushes may target any future or past time.
    """
    ops = []
    now = 0.0
    n_handles = 0
    for _ in range(n_events):
        r = rng.random()
        if r < 0.55:
            # Ties are the interesting case: coarse-grained times.
            t = rng.choice([now, now + 0.0, round(now + rng.random() * 20, 1),
                            rng.choice([0.0, 1.0, 5.0, 5.0, 100.0])])
            ops.append(("push", t))
            n_handles += 1
        elif r < 0.8:
            ops.append(("zero", now))
            n_handles += 1
        elif n_handles:
            ops.append(("cancel", rng.randrange(n_handles)))
        if rng.random() < 0.3:
            now = round(now + rng.random() * 5, 1)
    return ops


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("trial", range(30))
    def test_identical_pop_order(self, trial):
        ops = random_schedule(random.Random(9000 + trial))
        heap, ref = EventQueue(), ReferenceQueue()
        apply_ops(heap, ops)
        apply_ops(ref, ops)
        assert heap.live_count() == ref.live_count()
        assert drain(heap) == drain_ref(ref)

    @pytest.mark.parametrize("trial", range(10))
    def test_interleaved_pop_push(self, trial):
        # Pop mid-schedule the way the kernel does, with the clock
        # following the popped entry's time.
        rng = random.Random(7000 + trial)
        heap, ref = EventQueue(), ReferenceQueue()
        hh, hr = [], []
        popped_h, popped_r = [], []
        now = 0.0
        for step in range(400):
            r = rng.random()
            if r < 0.5:
                t = now + rng.choice([0.0, 0.5, rng.random() * 30])
                hh.append(heap.push(t, noop))
                hr.append(ref.push(t, noop))
            elif r < 0.55:
                hh.append(heap.push(now, noop))
                hr.append(ref.push(now, noop))
            elif r < 0.65 and hh:
                i = rng.randrange(len(hh))
                hh[i].cancel()
                hr[i].cancel()
            else:
                eh = heap._purge_head()
                er = ref.pop_key()
                assert (eh is None) == (er is None)
                if eh is not None:
                    a = heap._pop_head()
                    assert a[:2] == er
                    popped_h.append(a[:2])
                    popped_r.append(er)
                    now = max(now, a[0])
        popped_h += drain(heap)
        popped_r += drain_ref(ref)
        assert popped_h == popped_r
        assert len(popped_h) > 100

    def test_same_timestamp_fifo(self):
        heap, ref = EventQueue(), ReferenceQueue()
        ops = [("push", 5.0)] * 16 + [("zero", 5.0)] * 3
        apply_ops(heap, ops)
        apply_ops(ref, ops)
        order = drain(heap)
        assert order == drain_ref(ref)
        # At one timestamp, entries pop in push order.
        assert order == [(5.0, seq) for seq in range(len(ops))]

    def test_mass_cancellation_compaction_parity(self):
        heap, ref = EventQueue(), ReferenceQueue()
        n = 6 * _PURGE_MIN_CANCELLED
        ops = [("push", float(i % 37)) for i in range(n)]
        ops += [("cancel", i) for i in range(n) if i % 4]
        apply_ops(heap, ops)
        apply_ops(ref, ops)
        assert len(heap) < n  # compaction actually ran
        assert heap.live_count() == ref.live_count()
        assert drain(heap) == drain_ref(ref)
