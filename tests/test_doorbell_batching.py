"""Doorbell batching: fused op chains and single-completion fan-outs.

The chain contract (``mem.operations.BatchOp`` + ``mem.memory._batch``):
sub-ops apply in order, atomically at the chain's arrival instant; the
first NAK aborts the unapplied tail and reports the failing index — RDMA
work-request-chain error semantics.  The pricing contract
(``sim.latency`` + ``sim.kernel``): a chain costs one request leg plus
per-WR issue increments (nominally zero) plus one response leg — N ops,
two delays.  The fan-out contract (``OpFanoutEffect`` +
``sim.futures.FanoutState``): one posted effect, one wake at the verdict.
"""

import pytest

from repro.errors import PermissionError_
from repro.mem.operations import (
    BatchOp,
    ChangePermissionOp,
    ReadOp,
    SnapshotOp,
    WriteOp,
)
from repro.mem.permissions import Permission, exclusive_grab_policy
from repro.mem.regions import RegionSpec
from repro.obs import attach, run_digest
from repro.rdma.protection_domain import ProtectionDomain
from repro.rdma.verbs import RdmaNic
from repro.types import ChainAbort, MemoryId, ProcessId, is_bottom

from tests.conftest import env_of, make_kernel, run_single


def _fenced_kernel(**overrides):
    """An open region plus an exclusive-writer region p1 holds."""
    regions = [
        RegionSpec("open", ("o",), Permission.open(range(3))),
        RegionSpec(
            "fenced",
            ("f",),
            Permission.exclusive_writer(0, range(3)),
            legal_change=exclusive_grab_policy(range(3)),
        ),
    ]
    return make_kernel(3, 3, regions=regions, **overrides)


class TestChainSemantics:
    def test_chain_applies_in_order(self, kernel):
        env = env_of(kernel, 0)

        def gen():
            result = yield from env.batch(
                0,
                (
                    WriteOp("r", ("x", "k"), "first"),
                    WriteOp("r", ("x", "k"), "second"),
                    ReadOp("r", ("x", "k")),
                ),
            )
            return result

        task = run_single(kernel, 0, gen())
        result = task.result
        assert result.ok
        # ACK value = per-WR values in chain order; the read sees the
        # LATER of the two writes — in-order apply.
        assert result.value[2] == "second"
        assert kernel.memories[0].peek(("x", "k")) == "second"

    def test_chain_costs_one_round(self, kernel):
        env = env_of(kernel, 0)

        def gen():
            yield from env.write_batch(
                0, [("r", ("x", str(i)), i) for i in range(8)]
            )
            return env.now

        task = run_single(kernel, 0, gen())
        # 8 WRs, one doorbell: request + 8×issue(=0) + response = 2.0,
        # exactly one single op's round trip.
        assert task.result == 2.0

    def test_read_batch_returns_values_in_request_order(self, kernel):
        env = env_of(kernel, 0)

        def gen():
            yield from env.write_batch(
                0, [("r", ("x", "a"), 10), ("r", ("x", "b"), 20)]
            )
            result = yield from env.read_batch(
                0, [("r", ("x", "b")), ("r", ("x", "a"))]
            )
            return result.value

        task = run_single(kernel, 0, gen())
        assert task.result == (20, 10)

    def test_first_nak_aborts_tail_and_reports_index(self):
        kernel = _fenced_kernel()
        env = env_of(kernel, 1)  # p2 may not write the fenced region

        def gen():
            result = yield from env.batch(
                0,
                (
                    WriteOp("open", ("o", "before"), 1),
                    WriteOp("fenced", ("f", "blocked"), 2),
                    WriteOp("open", ("o", "after"), 3),
                ),
            )
            return result

        task = run_single(kernel, 1, gen())
        result = task.result
        assert not result.ok
        abort = result.value
        assert isinstance(abort, ChainAbort)
        assert abort.failed_index == 1
        assert len(abort.partial) == 1  # only WR 0 completed
        memory = kernel.memories[0]
        assert memory.peek(("o", "before")) == 1  # applied before the NAK
        assert is_bottom(memory.peek(("f", "blocked")))
        assert is_bottom(memory.peek(("o", "after")))  # flushed tail

    def test_revocation_between_post_and_arrival_aborts_chain(self):
        """p1 posts a chain while p2's permission grab is in flight and
        arrives first: the chain must abort AT THE MEMORY, leaving the
        tail unapplied — asserted on the registers, not the reply."""
        kernel = _fenced_kernel()
        env0 = env_of(kernel, 0)
        env1 = env_of(kernel, 1)
        grab = Permission.exclusive_writer(1, range(3))

        def usurper():
            result = yield from env1.change_permission(0, "fenced", grab)
            assert result.ok

        def leader():
            yield env0.sleep(0.5)  # chain arrives at 1.5, grab at 1.0
            result = yield from env0.batch(
                0,
                (
                    WriteOp("open", ("o", "head"), "landed"),
                    WriteOp("fenced", ("f", "slot"), "stale"),
                    WriteOp("open", ("o", "tail"), "flushed"),
                ),
            )
            return result

        kernel.spawn(ProcessId(1), "usurper", usurper())
        task = kernel.spawn(ProcessId(0), "leader", leader())
        kernel.run(until=100.0)
        result = task.result
        assert not result.ok and result.value.failed_index == 1
        memory = kernel.memories[0]
        assert memory.peek(("o", "head")) == "landed"
        assert is_bottom(memory.peek(("f", "slot")))  # fenced write refused
        assert is_bottom(memory.peek(("o", "tail")))  # tail flushed with it

    def test_chains_do_not_nest(self):
        inner = BatchOp((WriteOp("r", ("x", "k"), 1),))
        with pytest.raises(ValueError):
            BatchOp((inner,))

    def test_chain_footprint_is_region_union(self):
        chain = BatchOp(
            (
                WriteOp("a", ("a", 1), 0),
                ReadOp("b", ("b", 2)),
                WriteOp("a", ("a", 3), 0),
            )
        )
        assert chain.regions == ("a", "b")

    def test_chain_counts_one_batch_many_ops(self, kernel):
        env = env_of(kernel, 0)

        def gen():
            yield from env.write_batch(
                0, [("r", ("x", str(i)), i) for i in range(5)]
            )

        run_single(kernel, 0, gen())
        assert kernel.memories[0].counts.batches == 1
        # The ledger prices sub-ops individually (A/B comparability with
        # the unbatched path), not one opaque BatchOp.
        assert kernel.metrics.mem_ops[ProcessId(0), "WriteOp"] == 5
        assert (ProcessId(0), "BatchOp") not in kernel.metrics.mem_ops


class TestSingleCompletionFanout:
    def test_fanout_wakes_once_at_majority(self, kernel):
        env = env_of(kernel, 0)

        def gen():
            state = yield env.fanout_to_all(
                lambda mid: WriteOp("r", ("x", "k"), int(mid)), need=2
            )
            return (env.now, state.done, state.acked)

        task = run_single(kernel, 0, gen())
        now, done, acked = task.result
        assert now == 2.0  # one round; the verdict needs no extra waits
        assert done >= 2 and acked >= 2

    def test_ack_counting_short_circuits_on_naks(self):
        kernel = _fenced_kernel()
        env = env_of(kernel, 1)  # p2: every fenced write NAKs

        def gen():
            state = yield env.fanout_to_all(
                lambda mid: WriteOp("fenced", ("f", "k"), 0),
                need=2,
                count_acks=True,
                spare_naks=1,
            )
            return (state.acked, state.naked)

        task = run_single(kernel, 1, gen())
        acked, naked = task.result
        assert acked == 0
        assert naked == 2  # woke as soon as a majority became impossible

    def test_late_completions_still_recorded_without_rewake(self, kernel):
        env = env_of(kernel, 0)

        def gen():
            state = yield env.fanout_to_all(
                lambda mid: WriteOp("r", ("x", "k"), 1), need=1
            )
            woke_at = env.now
            yield env.sleep(50.0)  # let the stragglers land
            return (woke_at, state.done, state.fired)

        task = run_single(kernel, 0, gen())
        woke_at, done, fired = task.result
        assert woke_at == 2.0
        assert done == 3  # all results filed into the shared state
        assert fired is True

    def test_fanout_of_chains(self, kernel):
        env = env_of(kernel, 0)
        chain = BatchOp(
            (WriteOp("r", ("x", "s"), 7), WriteOp("r", ("x", "w"), 1))
        )

        def gen():
            state = yield env.fanout_to_all(lambda mid: chain, need=2)
            return (env.now, state.acked)

        task = run_single(kernel, 0, gen())
        now, acked = task.result
        assert now == 2.0 and acked >= 2
        for memory in kernel.memories:
            assert memory.peek(("x", "s")) == 7
            assert memory.peek(("x", "w")) == 1


class TestWrBatchFacade:
    def _setup(self):
        regions = [
            RegionSpec("buf", ("buf",), Permission.swmr(0, range(3))),
            RegionSpec("shared", ("shared",), Permission.open(range(3))),
        ]
        kernel = make_kernel(3, 2, regions=regions)
        nic = RdmaNic(env_of(kernel, 0))
        pd = nic.alloc_pd()
        qp = nic.create_qp(pd, ProcessId(1))
        return kernel, nic, pd, qp

    def test_finish_rings_one_doorbell(self):
        kernel, nic, pd, qp = self._setup()
        mr = pd.register(0, "shared", ("shared",), access="read-write")

        def gen():
            batch = nic.begin_batch(qp)
            batch.post_write(mr, ("shared", "a"), 1)
            batch.post_write(mr, ("shared", "b"), 2)
            batch.post_read(mr, ("shared", "a"))
            result = yield from batch.finish()
            return (env_now(), result)

        def env_now():
            return nic.env.now

        task = run_single(kernel, 0, gen())
        now, result = task.result
        assert now == 2.0  # three WRs, one completion, one round
        assert result.ok and result.value[2] == 1
        assert kernel.memories[0].counts.batches == 1

    def test_empty_chain_rejected(self):
        kernel, nic, pd, qp = self._setup()
        with pytest.raises(ValueError):
            list(nic.begin_batch(qp).finish())

    def test_chain_may_not_span_memories(self):
        kernel, nic, pd, qp = self._setup()
        mr0 = pd.register(0, "shared", ("shared",), access="read-write")
        mr1 = pd.register(1, "shared", ("shared",), access="read-write")
        batch = nic.begin_batch(qp)
        batch.post_write(mr0, ("shared", "a"), 1)
        with pytest.raises(PermissionError_):
            batch.post_write(mr1, ("shared", "b"), 2)

    def test_access_level_checked_at_post_time(self):
        kernel, nic, pd, qp = self._setup()
        mr = pd.register(0, "shared", ("shared",), access="read")
        batch = nic.begin_batch(qp)
        with pytest.raises(PermissionError_):
            batch.post_write(mr, ("shared", "a"), 1)

    def test_read_array_wr(self):
        kernel, nic, pd, qp = self._setup()
        mr = pd.register(0, "shared", ("shared",), access="read-write")

        def gen():
            setup = nic.begin_batch(qp)
            setup.post_write(mr, ("shared", "a"), 1).post_write(
                mr, ("shared", "b"), 2
            )
            yield from setup.finish()
            batch = nic.begin_batch(qp).post_read_array(mr)
            result = yield from batch.finish()
            return result.value[0]

        task = run_single(kernel, 0, gen())
        assert task.result == {("shared", "a"): 1, ("shared", "b"): 2}


class TestBatchedChaosDeterminism:
    """Run-digest determinism of a batched quorum-read chaos run: the
    fused chains and single-completion fan-outs must land in the schedule
    as reproducibly as the per-op paths they replaced."""

    def _run(self, seed: int):
        from repro.shard import ClosedLoopClient, ShardConfig, ShardedKV
        from repro.shard.workload import UniformKeys, YCSB_B

        service = ShardedKV(
            ShardConfig(
                n_shards=2,
                batch_max=4,
                seed=seed,
                read_mode="quorum",
                deadline=100_000.0,
            )
        )
        attach(service.kernel)
        service.kernel.call_at(
            40.0, lambda: service.kernel.crash_memory(MemoryId(2))
        )
        clients = [
            ClosedLoopClient(
                client_id=i, n_ops=4, keys=UniformKeys(16), mix=YCSB_B
            )
            for i in range(6)
        ]
        report = service.run_workload(clients)
        return service, report

    def test_same_seed_same_schedule(self):
        first, first_report = self._run(seed=42)
        second, second_report = self._run(seed=42)
        assert first_report.completed_requests == 24
        assert first_report.completed_requests == second_report.completed_requests
        assert run_digest(first.kernel) == run_digest(second.kernel)

    def test_batched_and_classic_reach_the_same_state(self):
        """batch_chains is a mechanism switch, not a behaviour switch: the
        committed stores must agree with the classic per-op run."""
        from repro.shard import ClosedLoopClient, ShardConfig, ShardedKV
        from repro.shard.workload import UniformKeys, YCSB_A

        def run(batch_chains: bool):
            service = ShardedKV(
                ShardConfig(
                    n_shards=2,
                    batch_max=4,
                    seed=7,
                    batch_chains=batch_chains,
                    deadline=100_000.0,
                )
            )
            clients = [
                ClosedLoopClient(
                    client_id=i, n_ops=4, keys=UniformKeys(16), mix=YCSB_A
                )
                for i in range(6)
            ]
            report = service.run_workload(clients)
            assert report.ok
            return {
                shard: dict(service.snapshot(shard))
                for shard in range(service.config.n_shards)
            }

        assert run(batch_chains=True) == run(batch_chains=False)
