"""Per-layer tracing from outside the program.

:meth:`Tracer.install` replaces methods of the program's classes with timing
wrappers, one table row per wrapped method: the layer it belongs to and
the metric its time feeds.  A plain call is one span; a generator
function is timed per resume step, so a task parked in the simulator
costs nothing while it waits.  Each span's self time is its duration
minus the spans nested inside it, which makes the layers' self times add
up to the traced run's wall time.

Wrappers go on the classes before the service is built: the kernel
binds some methods (its event and effect handlers) at construction.
Spans are kept in memory, up to :data:`SPAN_CAP`, and written out by
:meth:`Tracer.write_spans` when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: spans kept for the span file; the per-layer totals count every span
SPAN_CAP = 200_000

#: (module, class, method, layer, metric) — *metric* names the layer
#: metric the method's self time feeds; None adds to the layer's
#: ``self_s`` only.  Every method's self time is part of its layer's
#: ``self_s``.
WRAPPED: List[Tuple[str, str, str, str, Optional[str]]] = [
    ("repro.sim.kernel", "Kernel", "run", "sim.kernel", None),
    ("repro.net.network", "Network", "deliver", "net.network", "deliver_s"),
    ("repro.mem.memory", "Memory", "apply", "mem.memory", "apply_s"),
    ("repro.crypto.signatures", "SignatureAuthority", "sign", "crypto.signatures", "sign_s"),
    ("repro.crypto.signatures", "SignatureAuthority", "verify", "crypto.signatures", "verify_s"),
    ("repro.broadcast.nonequivocating", "NonEquivocatingBroadcast", "try_deliver",
     "broadcast.nonequivocating", "try_deliver_s"),
    ("repro.broadcast.nonequivocating", "NonEquivocatingBroadcast", "broadcast",
     "broadcast.nonequivocating", None),
    ("repro.broadcast.nonequivocating", "NonEquivocatingBroadcast", "delivery_daemon",
     "broadcast.nonequivocating", None),
    ("repro.consensus.fast_robust", "FastRobust", "run_instance",
     "consensus.fast_robust", "run_instance_s"),
    ("repro.consensus.cheap_quorum", "CheapQuorum", "run", "consensus.fast_robust", None),
    ("repro.consensus.preferential_paxos", "PreferentialPaxosNode", "run",
     "consensus.fast_robust", None),
    ("repro.consensus.preferential_paxos", "PreferentialPaxosNode", "pump",
     "consensus.fast_robust", None),
    ("repro.smr.log", "ReplicatedLog", "propose_batch", "smr.log", "propose_batch_s"),
    ("repro.smr.log", "ReplicatedLog", "quorum_read", "smr.log", "quorum_read_s"),
    ("repro.smr.log", "ReplicatedLog", "recover_leader", "smr.log", "recover_s"),
    ("repro.smr.log", "ReplicatedLog", "listener", "smr.log", None),
    ("repro.smr.log", "ReplicatedLog", "sync_server", "smr.log", None),
    ("repro.smr.log", "ReplicatedLog", "catchup", "smr.log", None),
    ("repro.smr.kv", "KVStateMachine", "apply", "smr.kv", "apply_s"),
    ("repro.shard.router", "ShardFrontend", "submit", "shard.router", "submit_s"),
    ("repro.shard.router", "ShardFrontend", "get", "shard.router", "get_s"),
    ("repro.shard.router", "ShardFrontend", "complete", "shard.router", "complete_s"),
    ("repro.shard.router", "ShardFrontend", "complete_read", "shard.router", None),
    ("repro.shard.service", "ShardedKV", "run_workload", "shard.service", None),
    ("repro.shard.service", "ShardedKV", "_proposer", "shard.service", None),
    ("repro.shard.service", "ShardedKV", "_acceptor", "shard.service", None),
    ("repro.shard.service", "ShardedKV", "_local_submit", "shard.service", None),
    ("repro.shard.service", "ShardedKV", "_bft_driver", "shard.service", None),
    ("repro.shard.service", "ShardedKV", "_read_server", "shard.service", None),
    ("repro.shard.service", "ShardedKV", "_read_acceptor", "shard.service", None),
    ("repro.shard.service", "ShardedKV", "_read_reply_pump", "shard.service", None),
    ("repro.shard.service", "ShardedKV", "_quorum_read", "shard.service", None),
    ("repro.shard.workload", "ZipfianKeys", "next_key", "shard.workload", "keygen_s"),
    ("repro.shard.workload", "OperationMix", "next_op", "shard.workload", "keygen_s"),
    ("repro.shard.workload", "ScriptedClient", "task", "shard.workload", None),
    ("repro.shard.gateway", "RemoteClient", "task", "shard.workload", None),
    ("workloads", "ScheduledClient", "task", "shard.workload", None),
    ("workloads", "ScheduledClient", "_one", "shard.workload", None),
    ("repro.sim.faults", "FailureController", "execute", "sim.faults", None),
    ("repro.sim.parallel", "ParallelKernel", "run", "sim.parallel", None),
]

#: MetricsLedger methods whose names start with these are the per-event
#: writers the program calls as it runs; each is wrapped into
#: ``metrics.ledger``
LEDGER_WRITERS = ("record_", "count_")


class Tracer:
    """Span accounting shared by every wrapper."""

    def __init__(self) -> None:
        #: (layer, metric) -> [calls, total_s, self_s]
        self.stats: Dict[Tuple[str, Optional[str]], List[float]] = {}
        #: open spans, innermost last: [child_s, key]
        self.stack: List[list] = []
        #: (key, call, start_s, duration_s, self_s, parent key)
        self.spans: List[tuple] = []
        #: counts made by the hooks below
        self.counts: Dict[str, int] = {}
        #: objects the hooks keep for end-of-run totals, by identity
        self.seen: Dict[str, Dict[int, Any]] = {}
        #: (instance, pid) -> virtual instant the Fast & Robust instance began
        self.instance_start: Dict[Tuple[Any, int], float] = {}
        #: (last effect a wrapped generator yielded, its layer)
        self.yielded: Tuple[Any, Optional[str]] = (None, None)
        self._calls = 0
        self._restore: List[Tuple[type, str, Any]] = []

    def reset(self) -> None:
        # the wrappers hold their stats lists: zero them in place
        for stats in self.stats.values():
            stats[:] = [0, 0.0, 0.0]
        self.stack.clear()
        self.spans.clear()
        self.counts.clear()
        self.seen.clear()
        self.instance_start.clear()
        self.yielded = (None, None)
        self._calls = 0

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def keep(self, name: str, obj: Any) -> None:
        self.seen.setdefault(name, {})[id(obj)] = obj

    def kept(self, name: str) -> List[Any]:
        return list(self.seen.get(name, {}).values())

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _close(self, key, stats, frame, call, start, elapsed) -> None:
        stack = self.stack
        stack.pop()
        own = elapsed - frame[0]
        stats[1] += elapsed
        stats[2] += own
        if stack:
            stack[-1][0] += elapsed
        if len(self.spans) < SPAN_CAP:
            self.spans.append(
                (key, call, start, elapsed, own, stack[-1][1] if stack else None)
            )

    def timed(self, key, fn: Callable, before=None, after=None) -> Callable:
        """*fn* wrapped as one span per call."""
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        perf = time.perf_counter
        stack = self.stack
        close = self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            self._calls += 1
            call = self._calls
            stats[0] += 1
            frame = [0.0, key]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(key, stats, frame, call, start, perf() - start)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def timed_steps(self, key, fn: Callable, before=None, after=None) -> Callable:
        """Generator function *fn* wrapped as one span per resume step;
        the steps of one call share its call number."""
        stats = self.stats.setdefault(key, [0, 0.0, 0.0])
        perf = time.perf_counter
        stack = self.stack
        close = self._close

        def steps(gen, args, kwargs):
            if before is not None:
                before(args, kwargs)
            self._calls += 1
            call = self._calls
            stats[0] += 1
            send = gen.send
            value = None
            while True:
                frame = [0.0, key]
                stack.append(frame)
                start = perf()
                try:
                    effect = send(value)
                except StopIteration as stop:
                    close(key, stats, frame, call, start, perf() - start)
                    if after is not None:
                        after(args, stop.value)
                    return stop.value
                except BaseException:
                    close(key, stats, frame, call, start, perf() - start)
                    raise
                close(key, stats, frame, call, start, perf() - start)
                if self.yielded[0] is not effect:
                    # the innermost wrapped generator issued this effect
                    self.yielded = (effect, key[0])
                value = yield effect

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return steps(fn(*args, **kwargs), args, kwargs)

        return wrapper

    def patch(self, cls: type, name: str, key, before=None, after=None) -> None:
        original = cls.__dict__[name]
        wrap = self.timed_steps if inspect.isgeneratorfunction(original) else self.timed
        self._restore.append((cls, name, original))
        setattr(cls, name, wrap(key, original, before, after))

    def install(self) -> None:
        """Wrap every method of :data:`WRAPPED` and the ledger writers."""
        hooks = _hooks(self)
        for module, cls_name, method, layer, metric in WRAPPED:
            cls = getattr(importlib.import_module(module), cls_name)
            before, after = hooks.get((cls_name, method), (None, None))
            self.patch(cls, method, (layer, metric or method), before, after)
        from repro.metrics.ledger import MetricsLedger

        for name, member in list(vars(MetricsLedger).items()):
            if name.startswith(LEDGER_WRITERS) and inspect.isfunction(member):
                self.patch(MetricsLedger, name, ("metrics.ledger", name))
        self._count_kernel()

    def _count_kernel(self) -> None:
        """Count, without timing, two things only the kernel sees: messages
        that reach a crashed destination (dropped before the network sees
        them), and memory ops by the layer whose generator issued them."""
        from repro.sim.kernel import Kernel

        deliver = Kernel.__dict__["_deliver"]
        request_leg = Kernel.__dict__["_op_request_leg"]

        def _deliver(kernel, envelope):
            if envelope.dst in kernel.crashed_processes:
                self.count("net.dropped_at_crashed")
            return deliver(kernel, envelope)

        def _op_request_leg(kernel, task, mid, op):
            effect, layer = self.yielded
            if effect is None or not _carries(effect, op):
                layer = "unattributed"
            self.count(f"ops.{layer}", len(getattr(op, "ops", None) or (op,)))
            return request_leg(kernel, task, mid, op)

        for name, replacement, original in (
            ("_deliver", _deliver, deliver),
            ("_op_request_leg", _op_request_leg, request_leg),
        ):
            self._restore.append((Kernel, name, original))
            setattr(Kernel, name, replacement)

    def uninstall(self) -> None:
        for cls, name, original in reversed(self._restore):
            setattr(cls, name, original)
        self._restore.clear()

    # ------------------------------------------------------------------
    # reading the totals
    # ------------------------------------------------------------------
    def layer_self(self) -> Dict[str, float]:
        """Layer -> self time over every wrapped method of the layer."""
        out: Dict[str, float] = {}
        for (layer, _metric), (_calls, _total, own) in self.stats.items():
            out[layer] = out.get(layer, 0.0) + own
        return out

    def metric(self, layer: str, metric: str) -> Tuple[int, float]:
        """``(calls, self_s)`` summed over the methods feeding *metric*."""
        calls, own = 0, 0.0
        for key, (n, _total, self_s) in self.stats.items():
            if key == (layer, metric):
                calls += n
                own += self_s
        return int(calls), own

    def write_spans(self, path) -> None:
        """Write the kept spans as tab-separated lines, gzipped."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][2] if self.spans else 0.0
        with gzip.open(path, "wt") as out:
            out.write("layer\tmetric\tcall\tstart_us\tduration_us\tself_us\tparent\n")
            for (layer, metric), call, start, elapsed, own, parent in self.spans:
                out.write(
                    f"{layer}\t{metric}\t{call}\t{(start - origin) * 1e6:.1f}\t"
                    f"{elapsed * 1e6:.2f}\t{own * 1e6:.2f}\t"
                    f"{parent[0] + '.' + parent[1] if parent else '-'}\n"
                )


def _carries(effect, op) -> bool:
    """Is *op* one of the memory ops *effect* posts?"""
    if getattr(effect, "op", None) is op:
        return True
    return any(target[1] is op for target in getattr(effect, "targets", ()))


def _hooks(tracer: Tracer) -> Dict[Tuple[str, str], Tuple[Any, Any]]:
    """Counting hooks: ``(class, method) -> (before(args, kwargs), after(args, result))``."""

    def nak(args, result):
        if not result.ok:
            tracer.count("mem.nak_ops")

    def delivered(args, result):
        if result:
            tracer.count("broadcast.deliveries")

    def instance_began(args, kwargs):
        # run_instance(self, env, value, cq_namespace, neb_namespace, instance)
        env = args[1]
        instance = kwargs.get("instance", args[5] if len(args) > 5 else None)
        tracer.instance_start[(instance, int(env.pid))] = env.now

    def cheap_quorum_done(args, outcome):
        tracer.count("consensus.cheap_quorum_runs")
        if outcome.decided:
            tracer.count("consensus.fast_path_decisions")

    def batch_proposed(args, kwargs):
        # propose_batch(self, slot, commands): the proposer passes a tuple
        tracer.count("smr.proposed_commands", len(args[2]))

    def quorum_read_done(args, watermark):
        if watermark is None:
            tracer.count("smr.quorum_read_fallbacks")

    def kv_applied(args, kwargs):
        tracer.keep("machines", args[0])

    def frontend_used(args, kwargs):
        tracer.keep("frontends", args[0])

    def fault_executed(args, _result):
        tracer.count("faults.events")

    return {
        ("Memory", "apply"): (None, nak),
        ("NonEquivocatingBroadcast", "try_deliver"): (None, delivered),
        ("FastRobust", "run_instance"): (instance_began, None),
        ("CheapQuorum", "run"): (None, cheap_quorum_done),
        ("ReplicatedLog", "propose_batch"): (batch_proposed, None),
        ("ReplicatedLog", "quorum_read"): (None, quorum_read_done),
        ("KVStateMachine", "apply"): (kv_applied, None),
        ("ShardFrontend", "submit"): (frontend_used, None),
        ("FailureController", "execute"): (None, fault_executed),
    }



#: every per-layer metric the traced run prints: (name, unit, better)
PER_LAYER: List[Tuple[str, str, str]] = [
    ("sim.kernel.self_s", "s", "lower"),
    ("sim.kernel.events", "count", "lower"),
    ("sim.kernel.events_per_request", "count", "lower"),
    ("sim.kernel.sim_events_per_s", "1/s", "higher"),
    ("net.network.deliver_s", "s", "lower"),
    ("net.network.messages", "count", "lower"),
    ("net.network.messages_per_request", "count", "lower"),
    ("net.network.dropped", "count", "lower"),
    ("mem.memory.apply_s", "s", "lower"),
    ("mem.memory.op_legs", "count", "lower"),
    ("mem.memory.ops_per_request", "count", "lower"),
    ("mem.memory.nak_ops", "count", "lower"),
    ("crypto.signatures.sign_s", "s", "lower"),
    ("crypto.signatures.verify_s", "s", "lower"),
    ("crypto.signatures.signs", "count", "lower"),
    ("crypto.signatures.verifies", "count", "lower"),
    ("broadcast.nonequivocating.self_s", "s", "lower"),
    ("broadcast.nonequivocating.try_deliver_s", "s", "lower"),
    ("broadcast.nonequivocating.attempts", "count", "lower"),
    ("broadcast.nonequivocating.deliveries", "count", "lower"),
    ("broadcast.nonequivocating.useful_frac", "fraction", "higher"),
    ("broadcast.nonequivocating.ops_per_request", "count", "lower"),
    ("consensus.fast_robust.self_s", "s", "lower"),
    ("consensus.fast_robust.run_instance_s", "s", "lower"),
    ("consensus.fast_robust.instances", "count", "lower"),
    ("consensus.fast_robust.fast_path_frac", "fraction", "higher"),
    ("consensus.fast_robust.decide_delays", "delays", "lower"),
    ("smr.log.self_s", "s", "lower"),
    ("smr.log.propose_batch_s", "s", "lower"),
    ("smr.log.slots", "count", "lower"),
    ("smr.log.batch_fill", "count", "higher"),
    ("smr.log.quorum_read_s", "s", "lower"),
    ("smr.log.quorum_reads", "count", "lower"),
    ("smr.log.quorum_read_fallbacks", "count", "lower"),
    ("smr.log.recover_s", "s", "lower"),
    ("smr.kv.apply_s", "s", "lower"),
    ("smr.kv.applied", "count", "lower"),
    ("smr.kv.useful_frac", "fraction", "higher"),
    ("shard.router.self_s", "s", "lower"),
    ("shard.router.submit_s", "s", "lower"),
    ("shard.router.get_s", "s", "lower"),
    ("shard.router.complete_s", "s", "lower"),
    ("shard.router.resends", "count", "lower"),
    ("shard.router.read_fallbacks", "count", "lower"),
    ("shard.service.self_s", "s", "lower"),
    ("shard.workload.self_s", "s", "lower"),
    ("shard.workload.keygen_s", "s", "lower"),
    ("metrics.ledger.s", "s", "lower"),
    ("metrics.ledger.calls", "count", "lower"),
    ("sim.faults.events", "count", "lower"),
    ("sim.faults.recover_to_service_delays", "delays", "lower"),
    ("sim.parallel.self_s", "s", "lower"),
    ("sim.parallel.rounds", "count", "lower"),
    ("sim.parallel.crossed", "count", "lower"),
    ("sim.parallel.coordinator_s", "s", "lower"),
    ("sim.parallel.busy_s", "s", "lower"),
    ("sim.parallel.idle_frac", "fraction", "lower"),
    ("shard.gateway.dedup_hits", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
    ("trace.accounted_frac", "fraction", "higher"),
]


def _frac(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(tracer: Tracer, keygen_s: float, exact: Dict[str, Any], completed: int,
              run_s: float, decisions: Dict[Tuple[Any, int], float],
              untraced: Dict[str, float]) -> Dict[str, float]:
    """The :data:`PER_LAYER` values of one traced run.

    *exact* and *completed* are the traced input set's exact figures and
    completed requests, *run_s* the traced run's wall time, *keygen_s*
    the generator's share of the traced set-up, *decisions* the virtual
    instant of each ``(instance, pid)`` decision, and *untraced* the host
    figures of the untraced repetitions of the same input set
    (``requests_per_s``, ``sim_events_per_s`` and, for the parallel
    kernel, ``rounds``-side timings).
    """
    own = tracer.layer_self()
    counts = tracer.counts

    def calls(layer, metric):
        return tracer.metric(layer, metric)[0]

    def secs(layer, metric):
        return tracer.metric(layer, metric)[1]

    from repro.smr.kv import KVCommand

    machines = tracer.kept("machines")
    applied = sum(
        sum(1 for _slot, command, _result in m.applied if isinstance(command, KVCommand))
        for m in machines
    )
    duplicates = sum(m.duplicates for m in machines)
    decide = sorted(
        decisions[key] - began for key, began in tracer.instance_start.items()
        if key in decisions
    )
    slots = calls("smr.log", "propose_batch_s")
    ledger_calls = sum(n for (layer, _m), (n, _t, _s) in tracer.stats.items()
                       if layer == "metrics.ledger")
    traced_rate = completed / run_s if run_s else 0.0
    values = {
        "sim.kernel.self_s": own.get("sim.kernel", 0.0),
        "sim.kernel.events": exact["events"],
        "sim.kernel.events_per_request": exact["events_per_request"],
        "sim.kernel.sim_events_per_s": untraced["sim_events_per_s"],
        "net.network.deliver_s": secs("net.network", "deliver_s"),
        "net.network.messages": exact["messages"],
        "net.network.messages_per_request": exact["messages_per_request"],
        "net.network.dropped":
            counts.get("net.dropped_at_crashed", 0) + exact.get("network_drops", 0),
        "mem.memory.apply_s": secs("mem.memory", "apply_s"),
        "mem.memory.op_legs": exact["op_legs"],
        "mem.memory.ops_per_request": exact["op_legs_per_request"] / 2,
        "mem.memory.nak_ops": counts.get("mem.nak_ops", 0),
        "crypto.signatures.sign_s": secs("crypto.signatures", "sign_s"),
        "crypto.signatures.verify_s": secs("crypto.signatures", "verify_s"),
        "crypto.signatures.signs": calls("crypto.signatures", "sign_s"),
        "crypto.signatures.verifies": calls("crypto.signatures", "verify_s"),
        "broadcast.nonequivocating.self_s": own.get("broadcast.nonequivocating", 0.0),
        "broadcast.nonequivocating.try_deliver_s":
            secs("broadcast.nonequivocating", "try_deliver_s"),
        "broadcast.nonequivocating.attempts": calls("broadcast.nonequivocating", "try_deliver_s"),
        "broadcast.nonequivocating.deliveries": counts.get("broadcast.deliveries", 0),
        "broadcast.nonequivocating.useful_frac": _frac(
            counts.get("broadcast.deliveries", 0),
            calls("broadcast.nonequivocating", "try_deliver_s"),
        ),
        "broadcast.nonequivocating.ops_per_request":
            _frac(counts.get("ops.broadcast.nonequivocating", 0), completed),
        "consensus.fast_robust.self_s": own.get("consensus.fast_robust", 0.0),
        "consensus.fast_robust.run_instance_s":
            secs("consensus.fast_robust", "run_instance_s"),
        "consensus.fast_robust.instances": calls("consensus.fast_robust", "run_instance_s"),
        "consensus.fast_robust.fast_path_frac": _frac(
            counts.get("consensus.fast_path_decisions", 0),
            counts.get("consensus.cheap_quorum_runs", 0),
        ),
        "consensus.fast_robust.decide_delays": decide[len(decide) // 2] if decide else 0.0,
        "smr.log.self_s": own.get("smr.log", 0.0),
        "smr.log.propose_batch_s": secs("smr.log", "propose_batch_s"),
        "smr.log.slots": slots,
        "smr.log.batch_fill": _frac(counts.get("smr.proposed_commands", 0), slots),
        "smr.log.quorum_read_s": secs("smr.log", "quorum_read_s"),
        "smr.log.quorum_reads": calls("smr.log", "quorum_read_s"),
        "smr.log.quorum_read_fallbacks": counts.get("smr.quorum_read_fallbacks", 0),
        "smr.log.recover_s": secs("smr.log", "recover_s"),
        "smr.kv.apply_s": secs("smr.kv", "apply_s"),
        "smr.kv.applied": applied,
        "smr.kv.useful_frac": 1.0 - _frac(duplicates, applied) if applied else 0.0,
        "shard.router.self_s": own.get("shard.router", 0.0),
        "shard.router.submit_s": secs("shard.router", "submit_s"),
        "shard.router.get_s": secs("shard.router", "get_s"),
        "shard.router.complete_s": secs("shard.router", "complete_s"),
        "shard.router.resends": sum(f.retries for f in tracer.kept("frontends")),
        "shard.router.read_fallbacks": exact.get("read_fallbacks", 0),
        "shard.service.self_s": own.get("shard.service", 0.0),
        "shard.workload.self_s": own.get("shard.workload", 0.0),
        "shard.workload.keygen_s": keygen_s,
        "metrics.ledger.s": own.get("metrics.ledger", 0.0),
        "metrics.ledger.calls": ledger_calls,
        "sim.faults.events": counts.get("faults.events", 0),
        "sim.faults.recover_to_service_delays": exact.get("recover_to_service_delays", 0.0),
        "sim.parallel.self_s": own.get("sim.parallel", 0.0),
        "sim.parallel.rounds": exact.get("rounds", 0),
        "sim.parallel.crossed": exact.get("crossed", 0),
        "sim.parallel.coordinator_s": untraced.get("coordinator_s", 0.0),
        "sim.parallel.busy_s": untraced.get("busy_s", 0.0),
        "sim.parallel.idle_frac": untraced.get("idle_frac", 0.0),
        "shard.gateway.dedup_hits": exact.get("dedup_hits", 0),
        "trace.overhead_ratio": _frac(traced_rate, untraced["requests_per_s"]),
        "trace.accounted_frac": _frac(sum(own.values()), run_s),
    }
    return values

