"""Unit tests for OpFuture and Gate plumbing."""

import pytest

from repro.mem.operations import ReadOp
from repro.sim.futures import Gate, OpFuture, count_acked, count_done
from repro.types import MemoryId, OpResult, OpStatus, ProcessId


def _future():
    return OpFuture(ProcessId(0), MemoryId(0), ReadOp("r", ("x",)))


class TestOpFuture:
    def test_resolve_once(self):
        future = _future()
        notified = []
        future.add_waiter(lambda: notified.append(1))
        waiters = future.resolve(OpResult(OpStatus.ACK, 5))
        for w in waiters:
            w()
        assert future.done and future.ok and future.value == 5
        assert notified == [1]

    def test_second_resolve_is_noop(self):
        future = _future()
        future.resolve(OpResult(OpStatus.ACK, 1))
        assert future.resolve(OpResult(OpStatus.NAK)) == []
        assert future.value == 1

    def test_add_waiter_after_done_fires_immediately(self):
        future = _future()
        future.resolve(OpResult(OpStatus.ACK))
        fired = []
        future.add_waiter(lambda: fired.append(True))
        assert fired == [True]

    def test_nak_result_not_ok(self):
        future = _future()
        future.resolve(OpResult(OpStatus.NAK))
        assert future.done and not future.ok

    def test_counting_helpers(self):
        futures = [_future() for _ in range(4)]
        futures[0].resolve(OpResult(OpStatus.ACK))
        futures[1].resolve(OpResult(OpStatus.NAK))
        assert count_done(tuple(futures)) == 2
        assert count_acked(tuple(futures)) == 1


class TestGate:
    def test_set_wakes_current_waiters(self):
        gate = Gate("g")
        fired = []
        gate.add_waiter(lambda: fired.append(1))
        for w in gate.set():
            w()
        assert fired == [1]
        assert gate.is_set

    def test_waiter_after_set_fires_immediately(self):
        gate = Gate("g")
        gate.set()
        fired = []
        gate.add_waiter(lambda: fired.append(1))
        assert fired == [1]

    def test_clear_blocks_new_waiters(self):
        gate = Gate("g")
        gate.set()
        gate.clear()
        fired = []
        gate.add_waiter(lambda: fired.append(1))
        assert fired == []

    def test_remove_waiter(self):
        gate = Gate("g")
        cb = lambda: None
        gate.add_waiter(cb)
        gate.remove_waiter(cb)
        assert gate.set() == []

    def test_remove_unknown_waiter_harmless(self):
        Gate("g").remove_waiter(lambda: None)
