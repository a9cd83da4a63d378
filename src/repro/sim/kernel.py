"""The simulation kernel: tasks, effects, virtual time, failures.

One :class:`Kernel` simulates one M&M system: ``n`` processes (each running
one or more generator *tasks*), ``m`` memories, a message network, a
signature authority and a metrics ledger.  The kernel is single-threaded and
deterministic: all scheduling flows through a time-ordered event queue with
FIFO tie-breaking, and all randomness through one seeded ``Random``.

Timing semantics (paper Section 3, "Complexity of algorithms"):

* computation is instantaneous — a resumed task runs through any number of
  non-blocking effects (sends, memory-op invocations, spawns) at the same
  virtual instant until it parks on a wait/recv/sleep;
* a message takes ``latency.message_delay`` (nominal: 1 unit);
* a memory operation takes a request leg plus a response leg (nominal: 2).

Failure semantics:

* a crashed process never runs again (its tasks are killed, its inbox is
  dropped) — until a scripted *recovery* removes the crash flag and the
  registered recovery hooks re-spawn fresh protocol tasks, which rebuild
  their state from the memory regions;
* a crashed memory silently swallows requests — the invoking future simply
  never resolves, indistinguishable from slowness; a recovered memory
  answers again, with its regions intact or wiped (see ``recover_memory``);
* the crash sets are *time-varying state*, consulted on every delivery and
  resume — nothing may cache "p is faulty" across instants;
* partitions sever link-level reachability (checked per delivery), and
  per-link chaos filters inflate/drop/duplicate messages on the send path
  (see :mod:`repro.sim.faults` — all of it scheduled as typed ``EV_FAULT``
  queue entries executed by the kernel's :class:`FailureController`);
* a Byzantine process runs whatever strategy generator was installed, but
  the memories still enforce permissions and the signature authority still
  only gives it its own key.

Hot-path structure
------------------

The kernel is also the inner loop of every experiment, so the scheduling
machinery is built around flat dispatch tables instead of type scans and
closures:

* every queue entry is a typed tuple ``(time, seq, kind, a, b, c)`` (see
  :mod:`repro.sim.event_queue`); ``run`` dispatches through
  ``_ev_handlers[kind]`` — no per-event lambda is ever allocated;
* every effect carries an integer ``kind`` tag (see
  :mod:`repro.sim.effects`); ``_resume`` dispatches through
  ``_fx_handlers[kind]`` — no isinstance chain;
* a task woken at the current instant (message delivered, quorum reached,
  gate signalled) is resumed through the queue's *ready lane* rather than
  a second heap round-trip;
* the nominal latency model's constant delays are cached so the common
  case skips per-message method dispatch;
* the causal observability layer (:mod:`repro.obs`) is the kernel's one
  telemetry plane: each action has a single hook behind
  ``self.obs is not None`` — detached (the default), that is one
  attribute load and one branch; attached, spans ride envelopes
  (``env.ctx``) and memory-op completion tokens across the scheduler, and
  an event log of the run is read off the spans (``repro.obs.attach``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from heapq import heappop
from typing import Any, Callable, Dict, Generator, List, Optional, Set

from repro.crypto.signatures import SignatureAuthority
from repro.errors import LivelockError, OutstandingOpError, SimulationError
from repro.mem.layout import MemoryLayout
from repro.mem.memory import Memory
from repro.mem.operations import OP_BATCH
from repro.metrics.ledger import MetricsLedger
from repro.net.messages import Envelope
from repro.net.network import Network, RecvWaiter
from repro.sim.effects import (
    Effect,
    GateWaitEffect,
    InvokeEffect,
    RecvEffect,
    SendEffect,
    SleepEffect,
    SpawnEffect,
    WaitEffect,
)
from repro.sim.event_queue import (
    EV_ARRIVE,
    EV_CALL,
    EV_DELIVER,
    EV_FAN_ARRIVE,
    EV_FAN_RESOLVE,
    EV_FAULT,
    EV_OP_ARRIVE,
    EV_OP_RESOLVE,
    EV_RECV_TIMEOUT,
    EV_RESOLVE,
    EV_RESUME,
    EV_WAKE,
    EventQueue,
)
from repro.sim.faults import FailureController
from repro.sim.futures import FanoutState, OpFuture
from repro.sim.latency import LatencyModel, NominalLatency
from repro.types import MemoryId, ProcessId, memory_name, process_name

#: Ω failure-detector oracle: maps virtual time to the current leader pid.
OmegaFn = Callable[[float], int]

#: number of effect kinds the dispatch table covers (FX_SEND..FX_OP_FANOUT)
_N_FX = 10


@dataclass
class SimConfig:
    """Static configuration of one simulation."""

    n_processes: int
    n_memories: int = 0
    latency: LatencyModel = field(default_factory=NominalLatency)
    seed: int = 0
    strict_safety: bool = True
    #: enforce the model's one-outstanding-op-per-memory rule per task
    strict_outstanding: bool = False
    #: cap on same-instant effects one task may run (runaway detector)
    max_inline_steps: int = 100_000
    #: Ω oracle; default: p1 is always the leader
    omega: Optional[OmegaFn] = None
    #: the disk model of Section 3 has no links: sending raises
    links_enabled: bool = True

    def __post_init__(self) -> None:
        if self.n_processes < 1:
            raise ValueError("need at least one process")
        if self.n_memories < 0:
            raise ValueError("n_memories must be >= 0")


class Task:
    """One generator running on one process."""

    __slots__ = (
        "task_id",
        "pid",
        "name",
        "gen",
        "started",
        "done",
        "result",
        "daemon",
        "pending_token",
        "_token_counter",
        "outstanding",
        "ctx",
    )

    def __init__(
        self,
        task_id: int,
        pid: ProcessId,
        name: str,
        gen: Generator,
        daemon: bool,
        ctx: Any = None,
    ):
        self.task_id = task_id
        self.pid = pid
        self.name = name
        self.gen = gen
        self.started = False
        self.done = False
        self.result: Any = None
        self.daemon = daemon
        self.pending_token: Optional[int] = None
        self._token_counter = 0
        self.outstanding: Dict[MemoryId, int] = {}
        #: causal trace context (a repro.obs Span) new child spans parent
        #: under; None whenever observability is detached
        self.ctx = ctx

    def new_token(self) -> int:
        self._token_counter += 1
        self.pending_token = self._token_counter
        return self._token_counter

    @property
    def label(self) -> str:
        return f"{process_name(self.pid)}/{self.name}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else ("parked" if self.pending_token else "ready")
        return f"<Task {self.label} {state}>"


class Kernel:
    """Deterministic discrete-event simulator of one M&M system."""

    def __init__(self, config: SimConfig, layout: Optional[MemoryLayout] = None):
        self.config = config
        self.now = 0.0
        self.queue = EventQueue()
        self.rng = random.Random(config.seed)
        #: attached observability runtime (repro.obs), or None — the
        #: zero-cost default every hook below checks first
        self.obs: Optional[Any] = None
        #: pluggable scheduler (see repro.sim.schedule / repro.check), or
        #: None — the default, which keeps run() on the closed hot loop.
        #: Costs one ``is None`` check per run() call, never per event.
        self.scheduler: Optional[Any] = None
        self.metrics = MetricsLedger(strict_safety=config.strict_safety)
        self.network = Network(config.n_processes)
        self.layout = layout or MemoryLayout([])
        self.memories: List[Memory] = [
            Memory(MemoryId(mid), self.layout) for mid in range(config.n_memories)
        ]
        self.authority = SignatureAuthority(seed=config.seed)
        self.crashed_processes: Set[ProcessId] = set()
        self.byzantine_processes: Set[ProcessId] = set()
        self.tasks: List[Task] = []
        self._next_task_id = 0
        #: per-kernel message ids: replays in one interpreter agree on them
        self._next_msg_id = 0
        self.omega: OmegaFn = config.omega or (lambda now: 0)
        # Constant delays of the latency model, or None when the model is
        # dynamic.  NominalLatency declares all three as 1.0, letting the
        # common case skip the method + RNG dispatch per message/leg.
        latency = config.latency
        self._msg_delay: Optional[float] = latency.constant_message_delay
        self._req_delay: Optional[float] = latency.constant_request_delay
        self._resp_delay: Optional[float] = latency.constant_response_delay
        self._issue_delay: Optional[float] = latency.constant_issue_delay
        latency.bind(self)
        # Static config and ledger references hoisted off the per-event path.
        # links_enabled and strict_outstanding are NOT hoisted: callers
        # toggle both on the config post-init (e.g. the disk-model cluster).
        self._max_inline_steps = config.max_inline_steps
        self._msg_counter = self.metrics.messages_sent
        self._mem_op_counter = self.metrics.mem_ops
        # Flat dispatch tables, indexed by event kind / effect kind.  Order
        # must match the EV_* / FX_* numbering exactly.
        self.failures = FailureController(self)
        self._ev_handlers = [
            self._ev_call,          # EV_CALL
            self._ev_resume,        # EV_RESUME
            self._ev_wake,          # EV_WAKE
            self._ev_deliver,       # EV_DELIVER
            self._ev_arrive,        # EV_ARRIVE
            self._ev_resolve,       # EV_RESOLVE
            self._ev_recv_timeout,  # EV_RECV_TIMEOUT
            self._ev_op_arrive,     # EV_OP_ARRIVE
            self._ev_op_resolve,    # EV_OP_RESOLVE
            self._ev_fault,         # EV_FAULT
            self._ev_fan_arrive,    # EV_FAN_ARRIVE
            self._ev_fan_resolve,   # EV_FAN_RESOLVE
        ]
        self._fx_handlers = [
            self._fx_send,       # FX_SEND
            self._fx_invoke,     # FX_INVOKE
            self._fx_wait,       # FX_WAIT
            self._fx_recv,       # FX_RECV
            self._fx_sleep,      # FX_SLEEP
            self._fx_gate_wait,  # FX_GATE_WAIT
            self._fx_spawn,      # FX_SPAWN
            self._fx_op,         # FX_OP
            self._fx_op,         # FX_BATCH_OP (chains share the fused-op path)
            self._fx_fanout,  # FX_OP_FANOUT
        ]

    def set_latency(self, latency) -> None:
        """Swap the latency model, invalidating the cached constants.

        The constructor caches the model's ``constant_*`` delays so the
        hot path can skip method dispatch; installing a model after
        construction (what-if counterfactuals wrapping the baseline in a
        :class:`~repro.obs.whatif.LatencyOverride`) must re-derive them or
        the kernel would silently keep pricing with the old model.  Also
        re-runs :meth:`LatencyModel.bind` so state-dependent models pick
        up this kernel.
        """
        self.config.latency = latency
        self._msg_delay = latency.constant_message_delay
        self._req_delay = latency.constant_request_delay
        self._resp_delay = latency.constant_response_delay
        self._issue_delay = latency.constant_issue_delay
        latency.bind(self)

    # ------------------------------------------------------------------
    # task management
    # ------------------------------------------------------------------
    def spawn(
        self,
        pid: ProcessId,
        name: str,
        gen: Generator,
        daemon: bool = False,
        ctx: Any = None,
    ) -> Task:
        """Register *gen* as a task of process *pid*; first step runs at ``now``.

        *ctx* seeds the task's causal trace context (tasks spawned by a
        running task inherit the spawner's — see ``_fx_spawn``).
        """
        self._next_task_id += 1
        task = Task(self._next_task_id, ProcessId(pid), name, gen, daemon, ctx)
        self.tasks.append(task)
        if self.obs is not None:
            self.obs.task_spawned(task)
        self.queue.push(self.now, EV_RESUME, task, None)
        return task

    def call_at(self, time: float, fn: Callable[[], None]) -> None:
        """Run *fn* at virtual *time* (ad-hoc timers, test probes)."""
        self.queue.push(max(time, self.now), EV_CALL, fn)

    def schedule_fault(self, time: float, event) -> None:
        """Arm one typed fault event (see :mod:`repro.sim.faults`) at
        virtual *time* — the closure-free replacement for ``call_at``-based
        fault timers: the queue entry carries the event object itself."""
        self.queue.push(max(time, self.now), EV_FAULT, event)

    def inject(self, envelope: Envelope, arrival: float) -> None:
        """Schedule an externally produced *envelope* for delivery at
        *arrival* — the parallel fabric's entry point into a worker kernel.

        Conservative synchronization requires ``arrival >= now``: the
        coordinator only injects at a barrier every cell has reached, and
        cross-cell delay is at least the fabric lookahead, so a violation
        here means the lookahead contract was broken, not a race to paper
        over.
        """
        if arrival < self.now:
            raise ValueError(
                f"injection at t={arrival} is in this kernel's past (now={self.now})"
            )
        self.network.injected += 1
        self.queue.push(arrival, EV_DELIVER, envelope)

    def register_regions(self, specs) -> None:
        """Register new memory regions at runtime (elastic reconfiguration).

        Mirrors RDMA memory registration: the shared layout grows and the
        region's boot permission is installed on every memory — crashed
        ones included, since a region's permission state is hardware
        state that is simply present when the memory revives.  Idempotent
        per region id, so a coordinator re-running an epoch after a crash
        neither duplicates regions nor resets permissions its first
        attempt already moved.
        """
        for spec in specs:
            if self.layout.by_id(spec.region_id) is None:
                self.layout.add(spec)
            for memory in self.memories:
                memory.add_region(spec)

    # ------------------------------------------------------------------
    # failure injection
    # ------------------------------------------------------------------
    def crash_process(self, pid: ProcessId) -> None:
        """Crash *pid* now: its tasks are killed, its inbox dropped.

        Killing (rather than merely never resuming) the tasks is what makes
        recovery sound: a stale timer for a pre-crash task must never fire
        into the process's next incarnation.
        """
        pid = ProcessId(pid)
        if pid in self.crashed_processes:
            return
        self.crashed_processes.add(pid)
        obs = self.obs
        for task in self.tasks:
            if task.pid == pid and not task.done:
                task.done = True
                if obs is not None:
                    obs.task_killed(task, self.now)
        self.network.drop_process(pid)
        self.metrics.record_fault(self.now, "crash_proc", process_name(pid))
        self.failures.notify_crash(pid)

    def recover_process(self, pid: ProcessId) -> None:
        """Recover *pid* now: delivery resumes and the failure controller's
        recovery hooks re-spawn its protocol tasks (with state rebuilt from
        the memory regions — the cluster runners register those hooks)."""
        pid = ProcessId(pid)
        if pid not in self.crashed_processes:
            return
        self.crashed_processes.discard(pid)
        self.metrics.record_fault(self.now, "recover_proc", process_name(pid))
        self.failures.notify_recover(pid)

    def crash_memory(self, mid: MemoryId) -> None:
        """Crash memory *mid* now: subsequent operations on it hang."""
        memory = self.memories[mid]
        if not memory.crashed:
            memory.crash()
            self.metrics.record_fault(self.now, "crash_mem", memory_name(mid))

    def recover_memory(self, mid: MemoryId, wipe: bool = False) -> None:
        """Revive memory *mid* now, regions intact (or wiped to boot state)."""
        memory = self.memories[mid]
        if memory.crashed:
            memory.recover(wipe=wipe)
            self.metrics.record_fault(
                self.now, "recover_mem", memory_name(mid), wipe=wipe
            )

    def mark_byzantine(self, pid: ProcessId) -> None:
        """Exempt *pid* from agreement accounting (its strategy is installed
        by the cluster runner)."""
        pid = ProcessId(pid)
        self.byzantine_processes.add(pid)
        self.metrics.byzantine.add(pid)

    def is_faulty(self, pid: ProcessId) -> bool:
        return pid in self.crashed_processes or pid in self.byzantine_processes

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        stop_when: Optional[Callable[[], bool]] = None,
    ) -> float:
        """Process events until the queue drains, *until* passes, or
        *stop_when* returns True.  Returns the final virtual time.

        This IS the hot loop: dispatch for the frequent event kinds is
        inlined as an integer ``if``/``elif`` chain (cheaper than a table
        call), with the rare kinds falling through to ``_ev_handlers``.
        The queue's two lanes are drained ready-first through local
        bindings; counters are maintained inline.

        With a pluggable scheduler attached the call is delegated to the
        open-frontier loop instead — same semantics for the default pick,
        but every same-instant entry becomes a choice point.
        """
        if self.scheduler is not None:
            return self._run_scheduled(until, max_events, stop_when)
        processed = 0
        queue = self.queue
        ready = queue._ready
        heap = queue._heap
        pop_ready = ready.popleft
        handlers = self._ev_handlers
        resume = self._resume
        deliver = self._deliver
        try:
            while ready or heap:
                if stop_when is not None and stop_when():
                    break
                if ready:
                    # Same-instant fast path: tasks woken by the event that
                    # just ran resume now, before anything more off the heap.
                    if until is not None and self.now > until:
                        break
                    kind, a, b, c, _seq = pop_ready()
                else:
                    time = heap[0][0]
                    if until is not None and time > until:
                        break
                    time, _seq, kind, a, b, c = heappop(heap)
                    if time < self.now:
                        raise SimulationError(
                            f"time went backwards: {time} < {self.now}"
                        )
                    self.now = time
                if kind == EV_RESUME:
                    resume(a, b)
                elif kind == EV_DELIVER:
                    deliver(a)
                elif kind == EV_WAKE:
                    # Timer-driven wake (sleep, wait/gate timeout): token-
                    # checked and folded straight into the resume — no
                    # second entry.
                    if a.pending_token == b and not a.done:
                        resume(a, c)
                elif kind == EV_OP_ARRIVE:
                    self._ev_op_arrive(a, b, c)
                elif kind == EV_OP_RESOLVE:
                    self._ev_op_resolve(a, b, c)
                elif kind == EV_FAN_ARRIVE:
                    self._ev_fan_arrive(a, b, c)
                elif kind == EV_FAN_RESOLVE:
                    self._ev_fan_resolve(a, b, c)
                elif kind == EV_ARRIVE:
                    self._ev_arrive(a, b, c)
                elif kind == EV_RESOLVE:
                    self._resolve(a, b, c)
                else:
                    handlers[kind](a, b, c)
                processed += 1
                if max_events is not None and processed > max_events:
                    self._raise_livelock(max_events)
        finally:
            # Counter maintained in bulk: one attribute RMW per run() call
            # instead of one per event.
            queue.popped += processed
        return self.now

    def _run_scheduled(
        self,
        until: Optional[float],
        max_events: Optional[int],
        stop_when: Optional[Callable[[], bool]],
    ) -> float:
        """The open-frontier run loop behind ``kernel.scheduler``.

        Each step materialises the frontier (ready lane in FIFO order,
        then heap entries at the current instant in seq order) and asks
        the scheduler which entry fires — or which fault injection to
        execute instead.  Firing ``frontier[0]`` at every step reproduces
        the default loop's schedule bit-for-bit; any other pick is a legal
        same-instant reordering the default loop simply never chooses.
        Dispatch goes through ``_ev_handlers`` (not the inlined chain), so
        instrumented/patched handlers take effect under exploration.
        """
        from repro.sim.schedule import build_frontier

        queue = self.queue
        ready = queue._ready
        heap = queue._heap
        scheduler = self.scheduler
        handlers = self._ev_handlers
        processed = 0
        try:
            while ready or heap:
                if stop_when is not None and stop_when():
                    break
                if ready:
                    if until is not None and self.now > until:
                        break
                else:
                    time = heap[0][0]
                    if until is not None and time > until:
                        break
                    if time < self.now:
                        raise SimulationError(
                            f"time went backwards: {time} < {self.now}"
                        )
                    self.now = time
                frontier = build_frontier(queue, self.now)
                choice = scheduler.pick(self, self.now, frontier)
                if choice.__class__ is int:
                    entry = frontier[choice]
                    if entry.lane == "ready":
                        queue.take_ready(entry.index)
                    else:
                        queue.remove_heap_entry(entry.raw)
                    handlers[entry.kind](entry.a, entry.b, entry.c)
                    processed += 1
                    if max_events is not None and processed > max_events:
                        self._raise_livelock(max_events)
                else:
                    # An Injection: fire its fault events at this instant
                    # (delayed ones are armed as ordinary EV_FAULT entries).
                    for delay, event in choice.events:
                        if delay <= 0.0:
                            self.failures.execute(event)
                        else:
                            self.schedule_fault(self.now + delay, event)
        finally:
            queue.popped += processed
        return self.now

    def _raise_livelock(self, max_events: int) -> None:
        """Diagnose and raise a :class:`LivelockError`: queue-depth
        snapshot by event kind, parked-task census, and (when obs is
        attached) a flight-recorder dump of every open span."""
        from collections import Counter

        queue = self.queue
        kinds: Counter = Counter()
        for entry in queue._heap:
            kinds[entry[2]] += 1
        for entry in queue._ready:
            kinds[entry[0]] += 1
        from repro.sim.schedule import EV_NAMES

        pending = ", ".join(
            f"{EV_NAMES[kind]}={count}"
            for kind, count in sorted(kinds.items(), key=lambda kv: -kv[1])
        )
        parked = sum(
            1 for t in self.tasks if not t.done and t.pending_token is not None
        )
        flight_dump = None
        detail = ""
        if self.obs is not None:
            flight_dump = self.obs.flight.trip(
                f"livelock: max_events={max_events}", self.now
            )
            detail = f"; flight dump captured ({len(flight_dump['open'])} open spans)"
        raise LivelockError(
            f"exceeded max_events={max_events} at t={self.now:g}: "
            f"{len(queue._heap)} heap + {len(queue._ready)} ready entries "
            f"pending ({pending or 'none'}), {parked} tasks parked{detail}",
            flight_dump=flight_dump,
        )

    def run_until_decided(
        self,
        pids: Optional[Set[ProcessId]] = None,
        deadline: float = 10_000.0,
    ) -> bool:
        """Run until every pid in *pids* (default: all correct) decided.

        Returns True when the goal was reached before *deadline*.
        """
        if pids is None:
            pids = {
                ProcessId(p)
                for p in range(self.config.n_processes)
                if not self.is_faulty(ProcessId(p))
            }

        def goal() -> bool:
            return all(p in self.metrics.decisions for p in pids)

        self.run(until=deadline, stop_when=goal)
        return goal()

    # ------------------------------------------------------------------
    # event handlers (dispatch table: EV_* numbering)
    # ------------------------------------------------------------------
    def _ev_call(self, fn, _b, _c) -> None:
        fn()

    def _ev_resume(self, task, value, _c) -> None:
        self._resume(task, value)

    def _ev_wake(self, task, token, value) -> None:
        # A timer-driven wake (sleep, wait/gate timeout): token-checked and
        # folded straight into the resume — no second queue entry.
        if task.pending_token == token and not task.done:
            self._resume(task, value)

    def _ev_deliver(self, env, _b, _c) -> None:
        self._deliver(env)

    def _ev_fault(self, event, _b, _c) -> None:
        self.failures.execute(event)

    def _memory_apply_leg(self, pid, mid, op):
        """Shared arrival leg of both memory-op paths: apply *op* at the
        memory (unless it crashed) and price the response leg.  Returns
        ``(result, response_delay)``, or ``(None, None)`` when the memory
        is down and the op must hang."""
        memory = self.memories[mid]
        if memory.crashed:
            return None, None
        result = memory.apply(pid, op)
        resp = self._resp_delay
        if resp is None:
            resp = self.config.latency.memory_response_delay(pid, mid, self.now, self.rng)
        return result, resp

    def _op_response_bookkeeping(self, task: Task, mid, result) -> None:
        """Shared response-leg bookkeeping of both memory-op paths."""
        if self.config.strict_outstanding:
            task.outstanding[mid] = max(0, task.outstanding.get(mid, 1) - 1)

    def _ev_arrive(self, task, future, _c) -> None:
        result, resp = self._memory_apply_leg(future.pid, future.mid, future.op)
        if result is None:
            return  # the future never resolves: the op hangs
        self.queue.push(self.now + resp, EV_RESOLVE, task, future, result)

    def _ev_resolve(self, task, future, result) -> None:
        self._resolve(task, future, result)

    def _ev_recv_timeout(self, task, token, _c) -> None:
        # Heap context (ready lane empty): unpark and resume directly.
        if task.pending_token == token:
            self.network.unpark(task.pid, token, task)
            if not task.done and task.pid not in self.crashed_processes:
                task.pending_token = None
                self._resume(task, None)

    def _ev_op_arrive(self, task, token, mid_op) -> None:
        mid, op = mid_op
        result, resp = self._memory_apply_leg(task.pid, mid, op)
        if result is None:
            return  # the op hangs: the parked task is never woken
        self.queue.push(self.now + resp, EV_OP_RESOLVE, task, token, (mid, result))

    def _ev_op_resolve(self, task, token, mid_result) -> None:
        mid, result = mid_result
        self._op_response_bookkeeping(task, mid, result)
        if self.obs is not None:
            self.obs.op_resolved((task.task_id, token), self.now, result.status.value)
        # Fold the wake straight into the resume (like EV_WAKE).
        if task.pending_token == token and not task.done:
            self._resume(task, result)

    def _ev_fan_arrive(self, task, state, idx_mid_op) -> None:
        index, mid, op = idx_mid_op
        result, resp = self._memory_apply_leg(task.pid, mid, op)
        if result is None:
            return  # crashed memory: this leg of the fan-out never completes
        self.queue.push(
            self.now + resp, EV_FAN_RESOLVE, task, state, (index, mid, result)
        )

    def _ev_fan_resolve(self, task, state, idx_mid_result) -> None:
        index, mid, result = idx_mid_result
        self._op_response_bookkeeping(task, mid, result)
        if self.obs is not None:
            self.obs.op_resolved(
                (task.task_id, state.token, index), self.now, result.status.value
            )
        state.results[index] = result
        state.done += 1
        if result.ok:
            state.acked += 1
        else:
            state.naked += 1
        if state.fired:
            return  # late completion: recorded above, never resumes the task
        if state.count_acks:
            verdict = state.acked >= state.need or state.naked > state.spare_naks
        else:
            verdict = state.done >= state.need
        if verdict:
            state.fired = True
            if self.obs is not None:
                self.obs.fanout_verdict(task, state, self.now)
            self._wake(task, state.token, state)

    # ------------------------------------------------------------------
    # task stepping
    # ------------------------------------------------------------------
    def _resume(self, task: Task, value: Any) -> None:
        if task.done or task.pid in self.crashed_processes:
            return
        task.pending_token = None
        if not task.started:
            task.started = True
            value = None
        obs = self.obs
        if obs is not None:
            obs.enter_task(task)
        gen_send = task.gen.send
        handlers = self._fx_handlers
        max_steps = self._max_inline_steps
        steps = 0
        while True:
            try:
                effect = gen_send(value)
            except StopIteration as stop:
                task.done = True
                task.result = stop.value
                if obs is not None:
                    obs.exit_task(task, self.now)
                return
            steps += 1
            if steps > max_steps:
                raise SimulationError(
                    f"task {task.label} ran {steps} effects at t={self.now} "
                    "without parking (runaway loop?)"
                )
            try:
                kind = effect.kind
            except AttributeError:
                kind = None
            if kind.__class__ is not int or not 0 <= kind < _N_FX:
                raise SimulationError(
                    f"task {task.label} yielded non-effect {effect!r}"
                )
            value = handlers[kind](task, effect)
            if value is _PARKED:
                if obs is not None:
                    obs.exit_task(task, self.now)
                return

    def _wake(self, task: Task, token: int, value: Any) -> None:
        """Resume *task* at the current instant if *token* is still pending.

        The resume goes through the queue's ready lane: it runs as soon as
        the event that triggered the wake finishes, ahead of any further
        heap entry, and never allocates a closure or a heap slot.
        """
        if task.done or task.pending_token != token:
            return
        if task.pid in self.crashed_processes:
            return
        task.pending_token = None
        self.queue.push_ready(EV_RESUME, task, value)

    # ------------------------------------------------------------------
    # effect handlers (dispatch table: FX_* numbering)
    # ------------------------------------------------------------------
    def _fx_send(self, task: Task, effect: SendEffect) -> None:
        if not self.config.links_enabled:
            raise SimulationError(
                f"{task.label} sent a message in the link-free disk model"
            )
        dst = effect.dst
        self._next_msg_id += 1
        env = Envelope(
            task.pid, dst, effect.topic, effect.payload, self.now, self._next_msg_id
        )
        if self.obs is not None:
            # The open msg span rides the envelope; delivery closes it and
            # the receiver adopts it as its causal context.
            env.ctx = self.obs.msg_sent(task, env, self.now)
        self._msg_counter[task.pid] += 1
        delay = self._msg_delay
        if delay is None:
            delay = self.config.latency.message_delay(task.pid, dst, self.now, self.rng)
        network = self.network
        if network.link_faults:
            fault = network.link_faults.get((task.pid, dst))
            if fault is not None:
                if fault.drop_prob and self.rng.random() < fault.drop_prob:
                    network.chaos_dropped += 1
                    return None  # the send completes; the message is lost
                delay = delay * fault.delay_factor + fault.extra_delay
                if fault.duplicate_prob and self.rng.random() < fault.duplicate_prob:
                    # A fresh envelope (new msg id): the duplicate must pass
                    # the network's exactly-once guard to test idempotence.
                    self._next_msg_id += 1
                    twin = Envelope(
                        task.pid, dst, effect.topic, effect.payload, self.now,
                        self._next_msg_id,
                    )
                    self.queue.push(self.now + delay + 1.0, EV_DELIVER, twin)
        self.queue.push(self.now + delay, EV_DELIVER, env)
        return None

    def _deliver(self, env: Envelope) -> None:
        if env.dst in self.crashed_processes:
            return
        blocked = self.network.blocked
        if blocked and (env.src, env.dst) in blocked:
            # Reachability is time-varying state checked per delivery: a
            # message sent before the partition but landing during it is
            # lost, exactly like a packet on a just-severed link.
            self.network.partition_dropped += 1
            return
        obs = self.obs
        if obs is not None and env.ctx is not None:
            obs.msg_delivered(env, self.now)
        waiter = self.network.deliver(env)
        if waiter is not None:
            task = waiter.task
            if task is not None:
                # _deliver only runs off the heap, where the ready lane is
                # empty by construction — resuming directly here is order-
                # identical to a ready-lane round trip, minus the round trip.
                if (
                    task.pending_token == waiter.token
                    and not task.done
                    and task.pid not in self.crashed_processes
                ):
                    task.pending_token = None
                    if obs is not None and env.ctx is not None:
                        task.ctx = env.ctx
                    self._resume(task, env)
            else:  # pragma: no cover - compat for externally built waiters
                waiter.wake(env)

    def _op_request_leg(self, task: Task, mid, op) -> float:
        """Shared request leg of both memory-op paths: validate the target,
        enforce the one-outstanding rule (strict mode only — the permissive
        default skips the dict traffic entirely) and count the op.
        Returns the request delay."""
        if mid >= len(self.memories):
            raise SimulationError(f"no such memory mu{int(mid) + 1}")
        if self.config.strict_outstanding:
            if task.outstanding.get(mid, 0) >= 1:
                raise OutstandingOpError(
                    f"{task.label} already has an outstanding op on {memory_name(mid)}"
                )
            task.outstanding[mid] = task.outstanding.get(mid, 0) + 1
        req = self._req_delay
        if req is None:
            req = self.config.latency.memory_request_delay(task.pid, mid, self.now, self.rng)
        if op.kind != OP_BATCH:
            self._mem_op_counter[task.pid, type(op).__name__] += 1
        else:
            # A chain is ONE queue entry (and one outstanding op under the
            # strict rule), but each sub-op is real work: count them under
            # their own names so ledgers stay comparable between batched
            # and unbatched runs.  Delay: only the last WR signals, so the
            # chain costs the request leg plus one issue increment per WR
            # (nominal issue cost: zero — see LatencyModel).
            counter = self._mem_op_counter
            pid = task.pid
            for sub in op.ops:
                counter[pid, type(sub).__name__] += 1
            issue = self._issue_delay
            if issue is not None:
                req += issue * len(op.ops)
            else:
                latency = self.config.latency
                for _ in op.ops:
                    req += latency.memory_issue_delay(pid, mid, self.now, self.rng)
        return req

    def _fx_invoke(self, task: Task, effect: InvokeEffect) -> OpFuture:
        mid = effect.mid
        op = effect.op
        req = self._op_request_leg(task, mid, op)
        future = OpFuture(task.pid, mid, op)
        if self.obs is not None:
            self.obs.op_started(task, future, mid, op, self.now)
        self.queue.push(self.now + req, EV_ARRIVE, task, future)
        return future

    def _resolve(self, task: Task, future: OpFuture, result) -> None:
        self._op_response_bookkeeping(task, future.mid, result)
        if self.obs is not None:
            self.obs.op_resolved(future, self.now, result.status.value)
        for notify in future.resolve(result):
            notify()

    def _fx_wait(self, task: Task, effect: WaitEffect):
        futures = effect.futures
        needed = effect.count
        done_now = 0
        for f in futures:
            if f.done:
                done_now += 1
        if needed <= 0 or done_now >= needed:
            # Already satisfied: resume at this instant through the ready
            # lane (one entry, no closures) instead of a heap round-trip.
            self.queue.push_ready(EV_RESUME, task, True)
            return _PARKED
        token = task.new_token()

        def check() -> None:
            done = 0
            for f in futures:
                if f.done:
                    done += 1
            if done >= needed:
                self._wake(task, token, True)

        for f in futures:
            f.add_waiter(check)
        if effect.timeout is not None:
            self.queue.push(self.now + effect.timeout, EV_WAKE, task, token, False)
        return _PARKED

    def _fx_recv(self, task: Task, effect: RecvEffect):
        env = self.network.try_consume(task.pid, effect.topic, effect.match)
        if env is not None:
            if self.obs is not None and env.ctx is not None:
                task.ctx = env.ctx
            return env
        token = task.new_token()
        self.network.park(
            RecvWaiter(
                pid=task.pid,
                token=token,
                topic=effect.topic,
                match=effect.match,
                task=task,
            )
        )
        if effect.timeout is not None:
            self.queue.push(self.now + effect.timeout, EV_RECV_TIMEOUT, task, token)
        return _PARKED

    def _fx_sleep(self, task: Task, effect: SleepEffect):
        token = task.new_token()
        self.queue.push(self.now + effect.duration, EV_WAKE, task, token, None)
        return _PARKED

    def _fx_gate_wait(self, task: Task, effect: GateWaitEffect):
        gate = effect.gate
        if gate.is_set:
            self.queue.push_ready(EV_RESUME, task, True)
            return _PARKED
        token = task.new_token()
        gate.park(task, token)
        if effect.timeout is not None:
            self.queue.push(self.now + effect.timeout, EV_WAKE, task, token, False)
        return _PARKED

    def _fx_spawn(self, task: Task, effect: SpawnEffect):
        return self.spawn(
            task.pid, effect.name, effect.gen, daemon=effect.daemon, ctx=task.ctx
        )

    def _fx_op(self, task: Task, effect):
        """Fused invoke + one-future wait (see :class:`OpEffect`).

        Also the handler for :class:`BatchOpEffect`: a chain rides the same
        two queue entries — ``_op_request_leg`` prices its issue increments
        and the memory's dispatch table applies it abort-on-NAK.
        """
        mid = effect.mid
        op = effect.op
        req = self._op_request_leg(task, mid, op)
        token = task.new_token()
        if self.obs is not None:
            self.obs.op_started(task, (task.task_id, token), mid, op, self.now)
        self.queue.push(self.now + req, EV_OP_ARRIVE, task, token, (mid, op))
        return _PARKED

    def _fx_fanout(self, task: Task, effect):
        """Post one op (or chain) per target memory with single-completion
        semantics (see :class:`OpFanoutEffect`): all completions fold into
        one shared :class:`FanoutState`, and the task resumes exactly once
        when the verdict is in — no per-future waiter closures."""
        targets = effect.targets
        token = task.new_token()
        state = FanoutState(
            len(targets), effect.need, effect.count_acks, effect.spare_naks, token
        )
        queue = self.queue
        obs = self.obs
        for index, (mid, op) in enumerate(targets):
            req = self._op_request_leg(task, mid, op)
            if obs is not None:
                obs.op_started(task, (task.task_id, token, index), mid, op, self.now)
            queue.push(self.now + req, EV_FAN_ARRIVE, task, state, (index, mid, op))
        if state.satisfied:
            # Degenerate verdict (need <= 0): resume at this instant; the
            # posted ops still complete into the state later.
            state.fired = True
            queue.push_ready(EV_RESUME, task, state)
        elif effect.timeout is not None:
            queue.push(self.now + effect.timeout, EV_WAKE, task, token, state)
        return _PARKED

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def fifo_memory_ops(self) -> bool:
        """True when every memory-op delay is a model constant, so two
        operations posted to one memory in order also arrive — and apply —
        in that order (the FIFO queue-pair property).  Fused read chains
        that adopt a watermark and the entries it covers from ONE snapshot
        rely on this; under jittered/adversarial models it is False and
        callers fall back to sequential rounds."""
        if (
            self._req_delay is not None
            and self._resp_delay is not None
            and self._issue_delay is not None
        ):
            return True
        # Dynamic models may still promise order preservation explicitly
        # (e.g. a what-if override scaling a constant base per component).
        return self.config.latency.fifo_memory_ops

    def correct_processes(self) -> List[ProcessId]:
        return [
            ProcessId(p)
            for p in range(self.config.n_processes)
            if not self.is_faulty(ProcessId(p))
        ]

    def memory(self, mid: int) -> Memory:
        return self.memories[mid]


class _ParkedType:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover
        return "<parked>"


_PARKED = _ParkedType()
