"""The benchmark's four workloads.

Each workload turns ``(seed, part)`` into inputs (clients, request
scripts, a fault script), hands them to the program, and turns what comes
back into an :class:`Outcome`: per-request virtual latencies, exact work
counters and the correctness gate.  Inputs are drawn from
``random.Random`` in this file, never from the simulator's own RNG, so a
change to how the program consumes randomness cannot change what it is
asked to do.  A run measures ``parts`` independent input sets of one
seed and pools their latencies.

Every workload uses the default ``NominalLatency``: a message and each
memory-operation leg cost one virtual delay, so every ``*_delays`` figure
is in the paper's units.
"""

from __future__ import annotations

import os
import random
import resource
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.failures.script import FaultScript
from repro.shard import (
    OperationMix,
    ReadSession,
    ScriptedClient,
    ShardConfig,
    ShardedKV,
    ZipfianKeys,
)
from repro.smr.kv import KVCommand

#: one completed request: (client, request_id, op, key, due, done, result)
Request = Tuple[Any, int, str, str, float, float, Any]


@dataclass
class Outcome:
    """What one run of one input set produced, host timings aside."""

    attempted: int
    completed: int
    #: virtual delays from each request's scheduled send to its reply
    latencies: List[float]
    #: exact, host-independent figures: work counters and virtual delays.
    #: Two runs of one input set must agree on every entry.
    exact: Dict[str, Any]
    #: correctness-gate failures; empty when the run is correct
    errors: List[str]
    #: peak resident memory of the run's processes, MiB
    peak_rss_mb: float
    #: host-side figures that are not exact (parallel worker timings)
    host: Dict[str, float] = field(default_factory=dict)
    #: (instance, pid) -> virtual instant of that process's decision
    decisions: Dict[Tuple[Any, int], float] = field(default_factory=dict)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of *values* (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def part_rng(seed: int, part: int) -> random.Random:
    return random.Random(f"perfbench:{seed}:{part}")


# ----------------------------------------------------------------------
# clients
# ----------------------------------------------------------------------
def request_script(
    rng: random.Random, client_id: int, n_ops: int, keys: ZipfianKeys, mix: OperationMix
) -> List[Tuple[str, str, Optional[str]]]:
    """``n_ops`` YCSB ``(op, key, value)`` triples for one client, drawn
    with the program's own key and operation generators."""
    script = []
    for request_id in range(n_ops):
        op = mix.next_op(rng)
        key = keys.next_key(rng)
        value = f"c{client_id}-r{request_id}" if op == "put" else None
        script.append((op, key, value))
    return script


class _Tap:
    """Forwards completions to the service's recorder and logs each one."""

    __slots__ = ("inner", "env", "log")

    def __init__(self, inner, env, log: List[Request]) -> None:
        self.inner = inner
        self.env = env
        self.log = log

    def record(self, command: KVCommand, result: Any, latency: float) -> None:
        now = self.env.now
        self.log.append(
            (command.client, command.request_id, command.op, command.key,
             now - latency, now, result)
        )
        self.inner.record(command, result, latency)


@dataclass
class ClosedClient(ScriptedClient):
    """The program's scripted closed-loop client, with a completion log."""

    log: Optional[List[Request]] = None

    def task(self, env, frontend, recorder):
        return super().task(env, frontend, _Tap(recorder, env, self.log))


class ScheduledClient:
    """Open-loop client: request ``i`` is sent at ``due[i]`` whether or not
    earlier ones were answered, and is timed from ``due[i]``.

    ``lateness`` is how far behind its schedule the generator ran in
    virtual time; it sleeps to each due instant, so only float rounding.
    """

    def __init__(self, client_id, pid, due, script, log) -> None:
        self.client_id = client_id
        self.pid = pid
        self.due = due
        self.script = script
        self.log = log
        self.n_ops = len(script)
        self.lateness = 0.0

    def task(self, env, frontend, recorder):
        session = ReadSession()
        for request_id, ((op, key, value), due) in enumerate(zip(self.script, self.due)):
            if due > env.now:
                yield env.sleep(due - env.now)
            self.lateness = max(self.lateness, env.now - due)
            command = KVCommand(
                op, key, value=value, client=self.client_id, request_id=request_id
            )
            yield env.spawn(
                f"c{self.client_id}-r{request_id}",
                self._one(env, frontend, recorder, command, session, due),
            )

    def _one(self, env, frontend, recorder, command, session, due):
        if command.op == "get":
            result = yield from frontend.get(command, session=session)
        else:
            result = yield from frontend.submit(command, session=session)
        self.log.append(
            (command.client, command.request_id, command.op, command.key,
             due, env.now, result)
        )
        recorder.record(command, result, env.now - due)


# ----------------------------------------------------------------------
# counters and checks shared by every service
# ----------------------------------------------------------------------
def committed_batches(service) -> int:
    """Non-empty batches committed across all shards, read off each
    shard's most advanced replica: a crashed leader's replacement machine
    replays the whole log, so every slot counts once whichever machine
    object survived."""
    total = 0
    for shard in service.shards:
        machine = max(
            (service.machines[(pid, shard)] for pid in service.active_replicas
             if (pid, shard) in service.machines),
            key=lambda m: m.applied_count,
        )
        total += machine.batches_applied - machine.empty_batches
    return total


def work_counters(kernel, batches: int) -> Dict[str, int]:
    """Exact work done by one kernel run."""
    ledger = kernel.metrics
    return {
        "events": kernel.queue.popped,
        "messages": ledger.total_messages(),
        "op_legs": 2 * ledger.total_mem_ops(),
        "signatures": ledger.total_signatures(),
        "batches": batches,
    }


def exact_figures(counts: Dict[str, int], latencies: List[float]) -> Dict[str, Any]:
    """Work counters, each also per completed request, and the latency
    summary of one input set."""
    completed = len(latencies)
    out: Dict[str, Any] = dict(counts)
    for name, value in counts.items():
        out[f"{name}_per_request"] = value / completed if completed else 0.0
    if latencies:
        out.update(
            latency_p50_delays=percentile(latencies, 50),
            latency_p99_delays=percentile(latencies, 99),
            latency_mean_delays=_mean(latencies),
        )
    return out


def service_errors(service, acknowledged) -> List[str]:
    """The service half of the correctness gate.

    * no agreement violation and no stale read was recorded;
    * replicas never disagree on a slot both applied;
    * every acknowledged ``(client, request_id, key)`` in *acknowledged*
      is in ``seen`` on every live replica of its shard: no acknowledged
      request was lost.
    """
    ledger = service.kernel.metrics
    errors = [f"agreement: {v}" for v in ledger.violations[:5]]
    if ledger.staleness_violations:
        errors.append(f"{ledger.staleness_violations} stale reads")
    errors.extend(f"divergence: {e}" for e in service.replica_divergence()[:5])
    live = [p for p in service.active_replicas if p not in service.kernel.crashed_processes]
    lost = 0
    for client, request_id, key in acknowledged:
        shard = service.partitioner.shard_for(key)
        for pid in live:
            if (client, request_id) not in service.machines[(pid, shard)].seen:
                lost += 1
    if lost:
        errors.append(f"{lost} acknowledged requests missing from a live replica")
    return errors


def read_errors(log: List[Request]) -> List[str]:
    """Every read returned nothing or a value that a put on the same key
    wrote and that was sent no later than the read completed."""
    written = {}
    for client, request_id, op, key, due, _done, _result in log:
        if op == "put":
            written[f"c{client}-r{request_id}"] = (key, due)
    errors = []
    for client, request_id, op, key, _due, done, result in log:
        if op == "get" and result is not None:
            source = written.get(result)
            if source is None or source[0] != key or source[1] > done:
                errors.append(f"read of {key} by c{client}-r{request_id} "
                              f"returned {result!r}, which no put wrote")
    return errors[:5]


def first_reply(log: List[Request]) -> float:
    """Mean over clients of the latency of each one's first request."""
    return _mean([done - due for _c, rid, _o, _k, due, done, _r in log if rid == 0])


# ----------------------------------------------------------------------
# the ShardedKV workloads
# ----------------------------------------------------------------------
class Workload:
    """Inputs of one seed's *part*, built by :meth:`setup` (timed as set-up),
    run by :meth:`run` (timed as the run) and judged by :meth:`finish`."""

    name = ""
    #: independent input sets per seed
    parts = 1

    def setup(self, seed: int, part: int):
        raise NotImplementedError

    def run(self, prepared) -> None:
        raise NotImplementedError

    def finish(self, prepared) -> Outcome:
        raise NotImplementedError


class ServiceWorkload(Workload):
    """A workload run on one :class:`ShardedKV` in one process."""

    #: reads ride consensus, so acknowledged reads are in ``seen`` too
    consensus_reads = True

    def config(self, seed: int) -> ShardConfig:
        raise NotImplementedError

    def clients(self, rng: random.Random, log: List[Request]) -> List[Any]:
        raise NotImplementedError

    def setup(self, seed: int, part: int):
        """Build the clients, the fault script and the service."""
        log: List[Request] = []
        clients = self.clients(part_rng(seed, part), log)
        service = ShardedKV(self.config(seed * 1000 + part))
        return service, clients, log

    def run(self, prepared) -> None:
        service, clients, _log = prepared
        service.run_workload(clients)

    def finish(self, prepared) -> Outcome:
        service, clients, log = prepared
        latencies = [done - due for _c, _r, _o, _k, due, done, _res in log]
        exact = exact_figures(
            work_counters(service.kernel, committed_batches(service)), latencies
        )
        network = service.kernel.network
        ledger = service.kernel.metrics
        exact.update(
            elapsed_delays=service.kernel.now,
            read_fallbacks=ledger.total_read_fallbacks(),
            network_drops=network.dropped + network.partition_dropped
            + network.chaos_dropped,
        )
        exact.update(self.delay_figures(service, clients, log))
        acknowledged = [
            (client, rid, key) for client, rid, op, key, _d, _t, _r in log
            if op == "put" or self.consensus_reads
        ]
        errors = service_errors(service, acknowledged) + read_errors(log)
        errors.extend(self.anchors(exact, latencies))
        return Outcome(
            attempted=sum(client.n_ops for client in clients),
            completed=len(log),
            latencies=latencies,
            exact=exact,
            errors=errors,
            peak_rss_mb=self_peak_rss_mb(),
            decisions={
                (instance, int(pid)): record.decided_at
                for instance, book in ledger.instance_decisions.items()
                for pid, record in book.items()
            },
        )

    def delay_figures(self, service, clients, log) -> Dict[str, float]:
        """Without a fault, the time a client goes without service is the
        wait for its first reply."""
        return {"unavailable_delays": first_reply(log)}

    def anchors(self, exact, latencies) -> List[str]:
        return []


class KVWriteChaos(ServiceWorkload):
    """Open-loop YCSB-A writes through leader and memory failover."""

    name = "kv_write_chaos"
    parts = 4
    n_clients = 32
    n_ops = 400
    #: mean virtual delays between one client's sends (Poisson arrivals)
    interarrival = 3.2
    crash_pid, crash_at, recover_at = 1, 100.0, 250.0
    crash_mid, mem_crash_at, mem_recover_at = 2, 150.0, 300.0

    def config(self, seed: int) -> ShardConfig:
        script = FaultScript()
        script.at(self.crash_at).crash_process(self.crash_pid).recover(
            at=self.recover_at
        )
        script.at(self.mem_crash_at).crash_memory(self.crash_mid).recover(
            at=self.mem_recover_at
        )
        return ShardConfig(
            n_shards=4, batch_max=8, seed=seed, faults=script, deadline=200_000.0
        )

    def clients(self, rng, log):
        keys = ZipfianKeys(256)
        mix = OperationMix(read_fraction=0.5)
        clients = []
        for client_id in range(self.n_clients):
            due, now = [], 0.0
            for _ in range(self.n_ops):
                now += rng.expovariate(1.0 / self.interarrival)
                due.append(now)
            script = request_script(rng, client_id, self.n_ops, keys, mix)
            # clients live on the processes that never crash
            pid = 0 if client_id % 2 == 0 else 2
            clients.append(ScheduledClient(client_id, pid, due, script, log))
        return clients

    def delay_figures(self, service, clients, log):
        """Time without service on the crashed leader's shards: from the
        crash, and from the recovery, to the first completion there that
        ends the longest completion gap (replies already in flight at the
        crash do not count as service)."""
        shard_for = service.partitioner.shard_for
        shards = {g for g in service.shards if service.leader_of(g) == self.crash_pid}
        times = sorted(entry[5] for entry in log if shard_for(entry[3]) in shards)
        back_at = max(zip(times, times[1:]), key=lambda gap: gap[1] - gap[0])[1]
        return {
            "unavailable_delays": back_at - self.crash_at,
            "recover_to_service_delays": back_at - self.recover_at,
            "generator_lateness_delays": max(c.lateness for c in clients),
        }


class KVReadQuorum(ServiceWorkload):
    """Closed-loop, 95 % one-sided quorum reads beside a trickle of writes."""

    name = "kv_read_quorum"
    consensus_reads = False
    parts = 2
    n_clients = 96
    n_ops = 60
    #: the process that leads no shard: every write crosses the network
    client_pid = 2

    def config(self, seed: int) -> ShardConfig:
        return ShardConfig(
            n_shards=2, batch_max=8, seed=seed, read_mode="quorum", deadline=50_000.0
        )

    def clients(self, rng, log):
        keys = ZipfianKeys(256)
        mix = OperationMix(read_fraction=0.95)
        return [
            ClosedClient(
                client_id=client_id,
                script=request_script(rng, client_id, self.n_ops, keys, mix),
                pid=self.client_pid,
                log=log,
            )
            for client_id in range(self.n_clients)
        ]

    def anchors(self, exact, latencies):
        p50 = percentile(latencies, 50)
        if p50 != 2.0:
            return [f"anchor: quorum-read p50 is {p50} delays, not the 2 "
                    "of one one-sided majority read"]
        return []


class BFTFastRobust(ServiceWorkload):
    """Closed-loop YCSB-A on Byzantine shards running Fast & Robust."""

    name = "bft_fast_robust"
    parts = 3
    n_clients = 64
    n_ops = 6
    #: every client's pending request fits the next slot's batch
    batch_max = 64
    max_slots = 40

    def config(self, seed: int) -> ShardConfig:
        return ShardConfig(
            n_shards=2, batch_max=self.batch_max, seed=seed, bft_shards=(0, 1),
            bft_max_slots=self.max_slots, deadline=20_000.0,
        )

    def clients(self, rng, log):
        keys = ZipfianKeys(256)
        mix = OperationMix(read_fraction=0.5)
        return [
            ClosedClient(
                client_id=client_id,
                script=request_script(rng, client_id, self.n_ops, keys, mix),
                log=log,
            )
            for client_id in range(self.n_clients)
        ]

    def delay_figures(self, service, clients, log):
        figures = super().delay_figures(service, clients, log)
        decisions = service.kernel.metrics.instance_decisions
        figures["slots"] = len(decisions)
        # every client sends its first request at t=0, so slot 0 starts at
        # t=0 on each shard's leader: its decision time is its delay count
        figures["slot0_leader_decided_at"] = max(
            decisions[(shard, 0)][service.leader_of(shard)].decided_at
            for shard in service.shards
        )
        return figures

    def anchors(self, exact, latencies):
        if exact["slot0_leader_decided_at"] != 2.0:
            return [f"anchor: slot 0's leader decided at "
                    f"{exact['slot0_leader_decided_at']}, not at 2 delays"]
        return []


# ----------------------------------------------------------------------
# cells_fork: the parallel kernel
# ----------------------------------------------------------------------
class _Replay:
    """Hands a pre-drawn script to a ``RemoteClient`` through the key and
    operation generator interface it draws from."""

    def __init__(self, script) -> None:
        self._ops = iter([op for op, _key, _value in script])
        self._keys = iter([key for _op, key, _value in script])

    def next_op(self, _rng) -> str:
        return next(self._ops)

    def next_key(self, _rng) -> str:
        return next(self._keys)


class _CellRecorder:
    """Completion accounting of one client cell."""

    def __init__(self) -> None:
        self.completed = 0
        self.clients: List["_ClientRecorder"] = []

    def client(self) -> "_ClientRecorder":
        recorder = _ClientRecorder(self)
        self.clients.append(recorder)
        return recorder


class _ClientRecorder:
    """The recorder one ``RemoteClient`` writes to: its own latencies and
    resends, and the cell's completion count."""

    __slots__ = ("cell", "resends", "latencies")

    def __init__(self, cell: _CellRecorder) -> None:
        self.cell = cell
        self.resends = 0
        self.latencies: List[float] = []

    def record(self, latency: float) -> None:
        self.latencies.append(latency)
        self.cell.completed += 1


def _process_summary() -> Dict[str, Any]:
    """Per-process figures a fork worker ships back with its cells."""
    return {"pid": os.getpid(), "rss_mb": self_peak_rss_mb()}


def service_cell(cell_id: int, config: ShardConfig):
    """A cell hosting one ShardedKV behind the program's gateway; its
    summary carries the service half of the correctness gate."""
    from repro.shard.gateway import kv_state_digest, spawn_gateway
    from repro.sim.parallel import Cell

    def factory(port):
        service = ShardedKV(config)
        service.cluster.install_faults()
        gateway = spawn_gateway(service, port, pid=0)

        def summarize():
            distinct = len(gateway["done"]) + len(gateway["in_flight"])
            return {
                "kv_digest": kv_state_digest(service),
                "errors": service_errors(service, []) + _gateway_loss(service, gateway),
                "dedup_hits": gateway["requests"] - distinct,
                "signatures": service.kernel.metrics.total_signatures(),
                "batches": committed_batches(service),
                "process": _process_summary(),
            }

        return Cell(cell_id, service.kernel, goal=service._converged,
                    label=f"svc-{cell_id}", summarize=summarize)

    return factory


def _gateway_loss(service, gateway) -> List[str]:
    """Every request the gateway answered is in ``seen`` on every live
    replica of its shard (the gateway's done table keeps no key, so each
    shard is searched)."""
    live = [p for p in service.active_replicas if p not in service.kernel.crashed_processes]
    lost = 0
    for identity in gateway["done"]:
        if not any(
            all(identity in service.machines[(pid, g)].seen for pid in live)
            for g in service.shards
        ):
            lost += 1
    return [f"{lost} acknowledged requests missing from a live replica"] if lost else []


def client_cell(cell_id: int, scripts, first_id: int, route, seed: int):
    """A bare cell of closed-loop ``RemoteClient``s replaying *scripts*."""
    from repro.mem.layout import MemoryLayout
    from repro.shard.gateway import RemoteClient
    from repro.sim.environment import ProcessEnv
    from repro.sim.kernel import Kernel, SimConfig
    from repro.sim.parallel import Cell
    from repro.types import ProcessId

    n_processes = 16

    def factory(port):
        kernel = Kernel(SimConfig(n_processes=n_processes, seed=seed), MemoryLayout([]))
        envs = [ProcessEnv(kernel, ProcessId(p)) for p in range(n_processes)]
        recorder = _CellRecorder()
        for index, script in enumerate(scripts):
            replay = _Replay(script)
            client = RemoteClient(
                client_id=first_id + index, n_ops=len(script), keys=replay,
                mix=replay, route=route, pid=index % n_processes,
            )
            kernel.spawn(client.pid, f"rc-{client.client_id}",
                         client.task(envs[client.pid], port, recorder.client()))
        total = sum(len(script) for script in scripts)
        return Cell(
            cell_id, kernel, goal=lambda: recorder.completed >= total,
            label=f"clients-{cell_id}",
            summarize=lambda: {
                "attempted": total,
                "completed": recorder.completed,
                "resends": sum(c.resends for c in recorder.clients),
                "latencies": [lat for c in recorder.clients for lat in c.latencies],
                "first": [c.latencies[0] for c in recorder.clients if c.latencies],
                "process": _process_summary(),
            },
        )

    return factory


class CellsFork(Workload):
    """Gateway-fronted service cells and remote-client cells under the
    conservative-barrier parallel kernel, in fork mode."""

    name = "cells_fork"
    workers = 2
    mode = "fork"
    #: traced in inline mode: one process, the same barrier sequence
    traced_setup = {"mode": "inline"}
    #: every fork-mode part must reproduce this run's hashes exactly
    reference_setup = {"mode": "inline", "workers": 1}
    service_cells = 4
    shards_per_cell = 4
    client_cells = 2
    clients_per_cell = 1000
    n_ops = 8

    def setup(self, seed: int, part: int, mode: Optional[str] = None,
              workers: Optional[int] = None):
        """Build the ``ParallelKernel``; in fork mode the cells themselves
        are built inside the workers, so that work counts in the run."""
        from repro.shard.gateway import CellRouter
        from repro.shard.partitioner import WorkerAssignment
        from repro.sim.parallel import ParallelKernel

        rng = part_rng(seed, part)
        router = CellRouter(list(range(self.service_cells)))
        keys = ZipfianKeys(256)
        mix = OperationMix(read_fraction=0.5)
        factories = [
            service_cell(cell, ShardConfig(
                n_shards=self.shards_per_cell, batch_max=8,
                seed=seed * 1000 + part * 10 + cell, deadline=10.0**6,
            ))
            for cell in range(self.service_cells)
        ]
        for index in range(self.client_cells):
            first = index * self.clients_per_cell
            scripts = [
                request_script(rng, first + i, self.n_ops, keys, mix)
                for i in range(self.clients_per_cell)
            ]
            cell_id = self.service_cells + index
            factories.append(client_cell(
                cell_id, scripts, first, router.cell_for, seed * 1000 + part * 10 + cell_id
            ))
        workers = workers or self.workers
        return ParallelKernel(
            factories, workers=workers, mode=mode or self.mode,
            assignment=WorkerAssignment(range(len(factories)), workers),
        )

    def run(self, engine) -> None:
        engine.run()

    def finish(self, engine) -> Outcome:
        result = engine.result
        report = engine.run_report()
        cells = {cell: s["summary"] for cell, s in sorted(report["cells"].items())}
        services = [s for s in cells.values() if "kv_digest" in s]
        clients = [s for s in cells.values() if "latencies" in s]
        latencies = [lat for s in clients for lat in s["latencies"]]
        completed = sum(s["completed"] for s in clients)
        totals = report["totals"]
        counts = {
            "events": totals["events"],
            "messages": totals["messages"],
            "op_legs": totals["sim_events"] - totals["messages"],
            "signatures": sum(s["signatures"] for s in services),
            "batches": sum(s["batches"] for s in services),
        }
        exact = exact_figures(counts, latencies)
        exact.update(
            elapsed_delays=result.virtual_time,
            unavailable_delays=_mean([lat for s in clients for lat in s["first"]]),
            rounds=result.rounds,
            crossed=result.messages_crossed,
            dedup_hits=sum(s["dedup_hits"] for s in services),
            resends=sum(s["resends"] for s in clients),
            combined_hash=report["combined_hash"],
            kv_digests=tuple(s["kv_digest"] for s in services),
        )
        errors = [e for s in services for e in s["errors"]]
        if not result.goal_met:
            errors.append("the cells did not reach their goals")
        processes = {s["process"]["pid"]: s["process"] for s in cells.values()}
        rss = self_peak_rss_mb()
        if engine.mode == "fork":
            rss += sum(p["rss_mb"] for p in processes.values())
        busy = sum(result.worker_busy)
        return Outcome(
            attempted=sum(s["attempted"] for s in clients),
            completed=completed,
            latencies=latencies,
            exact=exact,
            errors=errors,
            peak_rss_mb=rss,
            host={
                "wall_s": result.wall,
                "busy_s": busy,
                "idle_frac": 1.0 - busy / (result.workers * result.wall),
            },
        )


WORKLOADS = {
    workload.name: workload
    for workload in (KVWriteChaos(), KVReadQuorum(), BFTFastRobust(), CellsFork())
}
