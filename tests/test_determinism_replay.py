"""Seed-replay determinism under the hot-path engine.

The PR 2 kernel overhaul (typed queue entries, dispatch tables, ready-lane
wakes, direct resumes) must not cost reproducibility: two runs of the same
seed must produce byte-identical schedules.  These tests replay a mixed
crash + Byzantine sharded workload twice and compare the run digest over
the FULL execution — every span, every decision, all message/op counters
— plus the exact committed state.
"""

from repro.consensus.protected_memory_paxos import ProtectedMemoryPaxos
from repro.core.cluster import Cluster, ClusterConfig
from repro.obs import K_MSG, attach, run_digest
from repro.shard import (
    ClosedLoopClient,
    ShardConfig,
    ShardedKV,
    YCSB_A,
    ZipfianKeys,
)
from repro.types import MemoryId


N_CLIENTS = 12
OPS_PER_CLIENT = 4


def _run_mixed(seed: int, scheduler=None):
    """One sharded run: 3 PMP shards + 1 Byzantine (Fast & Robust) shard,
    with a memory crash injected mid-run.  Obs attached, so the returned
    service's kernel carries every span.  *scheduler* optionally runs
    the whole workload through the pluggable-scheduler path (the parity
    tests in test_schedule.py assert it changes nothing)."""
    service = ShardedKV(
        ShardConfig(
            n_shards=4,
            batch_max=4,
            seed=seed,
            bft_shards=(3,),
            bft_max_slots=16,
            deadline=100_000.0,
        )
    )
    service.kernel.scheduler = scheduler
    attach(service.kernel)
    # Crash one of the three memories mid-run: quorums of 2 still carry
    # every shard, and the crash lands in the schedule deterministically.
    service.kernel.call_at(40.0, lambda: service.kernel.crash_memory(MemoryId(2)))
    clients = [
        ClosedLoopClient(
            client_id=i, n_ops=OPS_PER_CLIENT, keys=ZipfianKeys(64), mix=YCSB_A
        )
        for i in range(N_CLIENTS)
    ]
    report = service.run_workload(clients)
    return service, report


def _state_fingerprint(service) -> tuple:
    """The observable outcome: per-shard committed stores and counters."""
    snapshot = tuple(
        tuple(sorted(service.snapshot(shard).items()))
        for shard in range(service.config.n_shards)
    )
    machines = tuple(
        (pid, shard, machine.applied_count, machine.duplicates)
        for (pid, shard), machine in sorted(service.machines.items())
    )
    return snapshot, machines


class TestSeedReplay:
    def test_identical_trace_hash_for_same_seed(self):
        first_service, first_report = _run_mixed(seed=1234)
        second_service, second_report = _run_mixed(seed=1234)

        assert first_report.completed_requests == N_CLIENTS * OPS_PER_CLIENT
        assert first_report.completed_requests == second_report.completed_requests
        assert first_report.elapsed == second_report.elapsed
        assert run_digest(first_service.kernel) == run_digest(second_service.kernel)
        assert _state_fingerprint(first_service) == _state_fingerprint(second_service)

    def test_identical_decision_values_and_counters(self):
        first_service, _ = _run_mixed(seed=77)
        second_service, _ = _run_mixed(seed=77)
        first, second = first_service.kernel.metrics, second_service.kernel.metrics

        first_decisions = {
            (repr(instance), int(pid)): record.value
            for instance, book in first.instance_decisions.items()
            for pid, record in book.items()
        }
        second_decisions = {
            (repr(instance), int(pid)): record.value
            for instance, book in second.instance_decisions.items()
            for pid, record in book.items()
        }
        assert first_decisions == second_decisions
        assert first.total_messages() == second.total_messages()
        assert first.total_mem_ops() == second.total_mem_ops()
        assert first.total_signatures() == second.total_signatures()

    def test_different_seeds_diverge(self):
        # The hash is sensitive: different seeds shuffle the Zipfian keys
        # and the whole schedule with them.
        first_service, _ = _run_mixed(seed=1)
        second_service, _ = _run_mixed(seed=2)
        assert run_digest(first_service.kernel) != run_digest(second_service.kernel)

    def test_trace_not_truncated(self):
        # The digest covers the FULL schedule only if obs kept every span.
        service, _ = _run_mixed(seed=1234)
        assert service.kernel.obs.dropped == 0

    def test_msg_ids_replay_within_one_interpreter(self):
        """Message ids come from each kernel's own counter, so two replays
        in one interpreter number their messages identically and the
        digest can hash them."""

        def replay():
            cluster = Cluster(ProtectedMemoryPaxos(), ClusterConfig(3, 3))
            runtime = attach(cluster.kernel)
            cluster.run(["a", "b", "c"])
            ids = [s.attrs["msg_id"] for s in runtime.spans if s.kind == K_MSG]
            return ids, run_digest(cluster.kernel)

        first_ids, first_digest = replay()
        second_ids, second_digest = replay()
        assert first_ids and first_ids == second_ids
        assert first_digest == second_digest
