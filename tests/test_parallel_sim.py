"""Parallel simulation: conservative barriers, fabric, cross-W determinism.

The contract under test (see ``repro.sim.parallel``):

* **sequential equivalence** — one cell under the parallel driver with a
  deadline is bit-identical (run digest, clock, event count) to the same
  kernel run directly with ``run(until=...)``;
* **worker-count invariance** — per-cell run digests, final KV digests
  and every summary figure are identical for W = 1, 2, 4 ... on the same
  cell layout, including under chaos + live reconfiguration, because
  barriers and the fabric merge are pure functions of the cells' own
  executions;
* **mode invariance** — fork mode (real OS processes) produces the same
  hashes, counters and round count as inline mode;
* **gateway at-most-once** — duplicate fabric requests are answered from
  the done table or absorbed by the in-flight guard, never re-applied;
* **ring-aware packing** — arc fractions sum to 1, LPT placement is a
  pure function of the weights, and the epoch-activation hook lets a
  split reweight partitions at the cutover instant.
"""

import pytest

from repro import (
    ElasticConfig,
    ElasticKV,
    FaultScript,
    OperationMix,
    SplitShard,
    UniformKeys,
)
from repro.mem.layout import MemoryLayout
from repro.shard.gateway import (
    GATEWAY_TOPIC,
    CellRouter,
    RemoteClient,
    client_cell_factory,
    gateway_reply_topic,
    kv_state_digest,
    service_cell_factory,
    spawn_gateway,
)
from repro.shard.partitioner import HashRing, WorkerAssignment, arc_fractions
from repro.sim.environment import ProcessEnv
from repro.sim.kernel import EV_DELIVER, Kernel, SimConfig
from repro.sim.parallel import Cell, FabricPort, ParallelKernel
from repro.net.messages import Envelope
from repro.obs import run_digest
from repro.types import ProcessId


def bare_kernel(n_processes=1, seed=0):
    return Kernel(
        SimConfig(n_processes=n_processes, n_memories=0, seed=seed),
        MemoryLayout([]),
    )


# ----------------------------------------------------------------------
# barrier primitives
# ----------------------------------------------------------------------
class TestBarrierPrimitives:
    def test_idle_before_and_next_time(self):
        kernel = bare_kernel()
        assert kernel.queue.idle_before(5.0)
        assert kernel.queue.next_time() is None
        env = ProcessEnv(kernel, ProcessId(0))
        kernel.spawn(0, "t", (None for _ in ()))  # scheduled start at t=0
        assert not kernel.queue.idle_before(5.0)
        assert kernel.queue.next_time() == 0.0
        kernel.run(until=0.0)
        kernel.queue.push(7.0, EV_DELIVER, Envelope(
            ProcessId(0), ProcessId(0), "x", None, 0.0))
        assert kernel.queue.idle_before(7.0)
        assert not kernel.queue.idle_before(7.5)
        assert kernel.queue.next_time() == 7.0

    def test_inject_delivers_and_counts(self):
        kernel = bare_kernel()
        env = ProcessEnv(kernel, ProcessId(0))
        got = []

        def task():
            e = yield from env.recv(topic="fab")
            got.append(e.payload)

        kernel.spawn(0, "t", task())
        kernel.inject(
            Envelope(ProcessId(0), ProcessId(0), "fab", "hello", 0.0,
                     msg_id=("x", 1, 0, 1)),
            arrival=3.0,
        )
        assert kernel.network.injected == 1
        kernel.run(until=10.0)
        assert got == ["hello"]

    def test_inject_into_the_past_raises(self):
        kernel = bare_kernel()
        kernel.inject(
            Envelope(ProcessId(0), ProcessId(0), "fab", None, 0.0,
                     msg_id=("x", 1, 0, 1)),
            arrival=5.0,
        )
        kernel.run(until=10.0)
        assert kernel.now == 5.0
        with pytest.raises(ValueError):
            kernel.inject(
                Envelope(ProcessId(0), ProcessId(0), "fab", None, 0.0),
                arrival=4.0,
            )

    def test_lookahead_comes_from_the_latency_model(self):
        kernel = bare_kernel()
        assert kernel.config.latency.lookahead() == \
            kernel.config.latency.cross_partition_delay
        kernel.config.latency.cross_partition_delay = 0.0
        with pytest.raises(ValueError):
            kernel.config.latency.lookahead()

    def test_fabric_port_stamps_arrival_and_sequence(self):
        kernel = bare_kernel()
        port = FabricPort(0, lookahead=2.5)
        port.bind(kernel)
        port.post(1, 0, "t", "a")
        port.post(1, 0, "t", "b")
        port.post(2, 3, "u", "c")
        entries = port.drain()
        assert port.outbox == [] and port.posted == 3
        assert [e[:4] for e in entries] == [
            (2.5, 0, 1, 1), (2.5, 0, 1, 2), (2.5, 0, 2, 1)]


# ----------------------------------------------------------------------
# ring-aware worker assignment
# ----------------------------------------------------------------------
class TestWorkerAssignment:
    def test_arc_fractions_cover_the_circle(self):
        ring = HashRing(0, [0, 1, 2, 3], vnodes=32, salt="")
        arcs = arc_fractions(ring)
        assert set(arcs) == {0, 1, 2, 3}
        assert sum(arcs.values()) == pytest.approx(1.0)
        assert all(arc > 0 for arc in arcs.values())

    def test_lpt_packing_is_deterministic_and_balanced(self):
        a = WorkerAssignment(range(6), 2)
        b = WorkerAssignment(range(6), 2)
        assert a.workers == b.workers
        assert sorted(cell for bucket in a.workers for cell in bucket) == list(range(6))
        # equal weights, even count: perfectly even packing
        assert a.imbalance() == pytest.approx(1.0)
        a.set_weights({0: 10.0, 1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0, 5: 1.0})
        # the heavy cell sits alone-ish: everything light lands opposite
        heavy_worker = a.worker_of[0]
        assert a.loads[heavy_worker] == max(a.loads)
        assert a.imbalance() > 1.0

    def test_workers_clamped_to_cell_count(self):
        a = WorkerAssignment([0, 1], 8)
        assert a.n_workers == 2

    def test_rebalance_follows_the_ring(self):
        ring = HashRing(0, [0, 1, 2], vnodes=16, salt="")
        a = WorkerAssignment(range(3), 2)
        a.rebalance(ring, {0: 0, 1: 1, 2: 2})
        assert a.rebalances == 1
        arcs = arc_fractions(ring)
        assert sum(a.loads) == pytest.approx(sum(arcs.values()))

    def test_epoch_activation_hook_fires_at_cutover(self):
        service = ElasticKV(
            ElasticConfig(
                n_shards=2, n_processes=3, batch_max=4, seed=5,
                retry_timeout=25.0, deadline=60_000.0,
            )
        )
        activated = []
        service.on_activation.append(lambda epoch: activated.append(epoch.number))
        from repro import ClosedLoopClient

        writers = [
            ClosedLoopClient(
                client_id=i, n_ops=40, keys=UniformKeys(30),
                think_time=6.0, pid=i % 2,
            )
            for i in range(2)
        ]
        service.schedule_reconfig(100.0, SplitShard())
        report = service.run_workload(writers)
        assert report.ok, report.summary()
        assert activated == [1]


# ----------------------------------------------------------------------
# sequential equivalence and cross-worker determinism
# ----------------------------------------------------------------------
def _traffic_kernel(seed=42):
    """A bare kernel with message traffic, as one self-contained cell."""
    kernel = bare_kernel(n_processes=3, seed=seed)
    envs = [ProcessEnv(kernel, ProcessId(p)) for p in range(3)]

    def pinger(p):
        env = envs[p]
        for i in range(15):
            yield env.send((p + 1) % 3, (p, i), topic="ring")
            yield from env.recv(topic="ring", timeout=50.0)

    for p in range(3):
        kernel.spawn(p, f"p{p}", pinger(p))
    return kernel


def _fingerprint(kernel):
    return (run_digest(kernel), kernel.now, kernel.queue.popped)


class TestSequentialEquivalence:
    def test_w1_is_bit_identical_to_the_plain_kernel(self):
        sequential = _traffic_kernel()
        sequential.run(until=500.0)

        driver = ParallelKernel(
            [lambda port: Cell(0, _traffic_kernel())], workers=1
        )
        driver.run(deadline=500.0)
        assert _fingerprint(driver.cells[0].kernel) == _fingerprint(sequential)


def _request_echo_factories(n=12):
    """Cell 0 sends *n* requests across the fabric; cell 1 echoes."""

    def requester(port):
        kernel = bare_kernel(seed=0)
        env = ProcessEnv(kernel, ProcessId(0))
        state = {"got": 0}

        def task():
            for i in range(n):
                port.post(1, 0, "ping", ("hi", i))
                yield from env.recv(topic="pong")
                state["got"] += 1

        kernel.spawn(0, "req", task())
        return Cell(0, kernel, goal=lambda: state["got"] >= n)

    def echoer(port):
        kernel = bare_kernel(seed=1)
        env = ProcessEnv(kernel, ProcessId(0))

        def task():
            while True:
                e = yield from env.recv(topic="ping")
                port.post(0, 0, "pong", e.payload)

        kernel.spawn(0, "echo", task())
        return Cell(1, kernel)

    return [requester, echoer]


def _digest(driver):
    """Everything the determinism contract compares, in one value."""
    report = driver.run_report()
    summaries = {
        cell: {k: v for k, v in s.items()}
        for cell, s in report["cells"].items()
    }
    return report["combined_hash"], summaries, report["run"]["rounds"]


class TestCrossWorkerDeterminism:
    def test_inline_and_fork_agree_on_the_fabric_workload(self):
        outcomes = []
        for workers, mode in ((1, "inline"), (2, "inline"), (2, "fork")):
            driver = ParallelKernel(
                _request_echo_factories(), workers=workers, mode=mode
            )
            result = driver.run()
            assert result.goal_met, (workers, mode)
            outcomes.append(_digest(driver))
        assert outcomes[0] == outcomes[1] == outcomes[2]

    @staticmethod
    def _mixed_factories(seed=11, n_clients=6, ops=40):
        """Two ElasticKV cells under chaos + a live split, remote clients."""
        service_cells = [0, 1]
        router = CellRouter(service_cells)
        mix = OperationMix(read_fraction=0.5)
        keys = UniformKeys(48)

        def make_service(cell):
            def build():
                script = FaultScript()
                script.at(150.0).crash_process(1).recover(at=250.0)
                service = ElasticKV(
                    ElasticConfig(
                        n_shards=2, n_processes=3, batch_max=4,
                        seed=seed + cell, retry_timeout=25.0,
                        deadline=10.0**7, faults=script,
                    )
                )
                service.schedule_reconfig(120.0, SplitShard())
                return service

            return build

        factories = [
            service_cell_factory(cell, make_service(cell))
            for cell in service_cells
        ]

        def clients():
            return [
                RemoteClient(
                    client_id=i, n_ops=ops, keys=keys, mix=mix,
                    route=router.cell_for, pid=i % 3,
                )
                for i in range(n_clients)
            ]

        factories.append(
            client_cell_factory(2, clients, n_processes=3, seed=seed + 100)
        )
        return factories, n_clients * ops

    def _mixed_digest(self, workers, seed=11):
        factories, total = self._mixed_factories(seed=seed)
        driver = ParallelKernel(factories, workers=workers)
        result = driver.run()
        assert result.goal_met, f"W={workers} seed={seed}"
        digest = _digest(driver)
        completed = sum(
            s["summary"]["completed"]
            for s in digest[1].values()
            if s["summary"] and "completed" in s["summary"]
        )
        assert completed == total
        return digest

    def test_chaos_plus_reconfig_is_worker_count_invariant(self):
        reference = self._mixed_digest(1)
        # the mixed workload exercises what it claims: both services
        # split (3 shards) and every cell saw fabric traffic
        shards = [
            s["summary"]["shards"]
            for s in reference[1].values()
            if s["summary"] and "shards" in s["summary"]
        ]
        assert shards == [[0, 1, 2], [0, 1, 2]]
        assert all(s["injected"] > 0 for s in reference[1].values())
        for workers in (2, 4):
            assert self._mixed_digest(workers) == reference, f"W={workers}"

    def test_seed_sweep(self, seed_sweep):
        """Cross-worker determinism across many seeds (off by default).

        Enable with ``pytest --seed-sweep N``: re-runs the mixed
        chaos + reconfig workload at W=1 and W=2 for seeds ``0..N-1``.
        """
        if not seed_sweep:
            pytest.skip("enable with --seed-sweep N")
        for seed in range(seed_sweep):
            assert self._mixed_digest(1, seed=seed) == \
                self._mixed_digest(2, seed=seed), f"seed {seed} diverged"


# ----------------------------------------------------------------------
# the gateway's at-most-once contract
# ----------------------------------------------------------------------
class TestGatewayDedup:
    def test_duplicates_are_absorbed_and_replayed(self):
        from repro import ShardConfig, ShardedKV

        gateway_state = {}

        def service_factory(port):
            service = ShardedKV(
                ShardConfig(n_shards=1, batch_max=4, seed=3, deadline=10.0**7)
            )
            service.cluster.install_faults()
            gateway_state["live"] = spawn_gateway(service, port, pid=0)
            return Cell(
                0, service.kernel, goal=service._converged,
                summarize=lambda: kv_state_digest(service),
            )

        outcome = {}

        def client_factory(port):
            kernel = bare_kernel(seed=9)
            env = ProcessEnv(kernel, ProcessId(0))

            def task():
                request = ("req", 1, 0, 7, 0, "put", "k", "v1")
                # duplicate while in flight: the guard must drop it and
                # exactly one reply may come back
                port.post(0, 0, GATEWAY_TOPIC, request)
                port.post(0, 0, GATEWAY_TOPIC, request)
                first = yield from env.recv(topic=gateway_reply_topic(7))
                second = yield from env.recv(
                    topic=gateway_reply_topic(7), timeout=300.0
                )
                # duplicate after completion: answered from the done table
                port.post(0, 0, GATEWAY_TOPIC, request)
                replay = yield from env.recv(topic=gateway_reply_topic(7))
                check = ("req", 1, 0, 7, 1, "get", "k", None)
                port.post(0, 0, GATEWAY_TOPIC, check)
                read = yield from env.recv(
                    topic=gateway_reply_topic(7),
                    match=lambda e: e.payload[2] == 1,
                )
                outcome.update(
                    first=first.payload, second=second,
                    replay=replay.payload, read=read.payload,
                )

            kernel.spawn(0, "client", task())
            return Cell(
                1, kernel, goal=lambda: "read" in outcome
            )

        driver = ParallelKernel([service_factory, client_factory], workers=2)
        result = driver.run()
        assert result.goal_met
        assert outcome["second"] is None  # in-flight duplicate: dropped
        assert outcome["replay"] == outcome["first"]  # done table replay
        assert outcome["read"][3] == "v1"  # applied exactly once
        assert gateway_state["live"]["requests"] == 4
        # replies counts proxy completions (put + get); the done-table
        # replay re-posts the stored result without running a proxy
        assert gateway_state["live"]["replies"] == 2
