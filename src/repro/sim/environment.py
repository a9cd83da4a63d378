"""The process-facing API: what a protocol step may do.

A :class:`ProcessEnv` wraps the kernel for one process.  Methods come in
three flavours:

* *effect builders* (``send``, ``invoke``, ``wait``, ``recv_effect``,
  ``sleep``, ``spawn``, ``gate_wait``, ``fanout_to_all``) return effect
  objects for the protocol generator to ``yield``;
* *sub-generators* (``write``, ``read``, ``snapshot``, ``change_permission``,
  ``batch``, ``recv``, ``broadcast``) bundle an invoke+wait round trip and
  are used with ``yield from``;
* *instant helpers* (``sign``, ``verify``, ``decide``, ``now``, ``leader``)
  are plain calls — they model instantaneous local computation.

Byzantine strategies receive the same environment; the kernel and memories
enforce everything a Byzantine process must not be able to do (permissions,
signature forgery, sender spoofing).
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, List, Optional, Sequence

from repro.crypto.signatures import Signed, SigningKey
from repro.mem.operations import (
    BatchOp,
    ChangePermissionOp,
    MemoryOp,
    ReadOp,
    SnapshotOp,
    WriteOp,
)
from repro.mem.permissions import Permission
from repro.net.messages import Envelope
from repro.sim.effects import (
    BatchOpEffect,
    GateWaitEffect,
    InvokeEffect,
    OpEffect,
    OpFanoutEffect,
    RecvEffect,
    SendEffect,
    SleepEffect,
    SpawnEffect,
    WaitEffect,
)
from repro.sim.futures import Gate, OpFuture
from repro.types import MemoryId, OpResult, OpStatus, ProcessId, RegionId, RegisterKey


class ProcessEnv:
    """One process's window onto the simulated world."""

    def __init__(self, kernel, pid: ProcessId) -> None:
        self._kernel = kernel
        self.pid = ProcessId(pid)
        self.key: SigningKey = kernel.authority.key_for(self.pid)

    # ------------------------------------------------------------------
    # instantaneous helpers
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._kernel.now

    @property
    def n_processes(self) -> int:
        return self._kernel.config.n_processes

    @property
    def n_memories(self) -> int:
        return self._kernel.config.n_memories

    @property
    def processes(self) -> List[ProcessId]:
        return [ProcessId(p) for p in range(self.n_processes)]

    @property
    def memories(self) -> List[MemoryId]:
        return [MemoryId(m) for m in range(self.n_memories)]

    @property
    def rng(self):
        return self._kernel.rng

    @property
    def strict_outstanding(self) -> bool:
        """True when the kernel enforces one outstanding op per memory per
        task (the model-conformance mode of Section 3)."""
        return self._kernel.config.strict_outstanding

    @property
    def fifo_memory_ops(self) -> bool:
        """True when the latency model guarantees FIFO memory-op delivery
        (all delays are model constants).  Fused single-round read chains
        gate on this; see ``Kernel.fifo_memory_ops``."""
        return self._kernel.fifo_memory_ops

    @property
    def obs(self):
        """The attached observability runtime, or None.

        Protocol code opens phase spans with the short-circuit idiom
        ``ph = env.obs and env.obs.phase("name")`` so a detached runtime
        costs one attribute read — no kwargs dict is ever built.
        """
        return self._kernel.obs

    def leader(self) -> ProcessId:
        """The Ω failure-detector oracle's current leader."""
        return ProcessId(self._kernel.omega(self._kernel.now))

    def sign(self, payload: Any) -> Signed:
        """Sign *payload* with this process's key (the paper's ``sign``)."""
        self._kernel.metrics.count_signature(self.pid)
        return self._kernel.authority.sign(self.key, payload)

    def valid(self, signer: ProcessId, signed: Any) -> bool:
        """The paper's ``sValid(p, v)``."""
        return self._kernel.authority.verify(ProcessId(signer), signed)

    def valid_any(self, signed: Any) -> bool:
        """Verify a signature against its claimed signer."""
        return self._kernel.authority.valid(signed)

    @property
    def authority(self):
        return self._kernel.authority

    def mark_proposed(self) -> None:
        """Start the delay clock for this process's decision."""
        if self._kernel.obs is not None:
            self._kernel.obs.proposed(self.pid, self.now)
        self._kernel.metrics.record_proposal(self.pid, self.now)

    def decide(self, value: Any, instance: Any = None) -> None:
        """Record an irrevocable decision (checked for agreement).

        Multi-shot protocols pass ``instance`` (e.g. a log-slot index) so
        the ledger checks agreement per instance rather than treating a
        second slot's decision as a revocation.
        """
        if self._kernel.obs is not None:
            self._kernel.obs.decided(self.pid, value, instance, self.now)
        self._kernel.metrics.record_decision(self.pid, value, self.now, instance)

    def has_decided(self) -> bool:
        return self.pid in self._kernel.metrics.decisions

    def decision(self) -> Any:
        record = self._kernel.metrics.decisions.get(self.pid)
        return None if record is None else record.value

    # ------------------------------------------------------------------
    # effect builders (``yield env.xxx(...)``)
    # ------------------------------------------------------------------
    def send(self, dst: ProcessId, payload: Any, topic: str = "default") -> SendEffect:
        return SendEffect(dst=ProcessId(dst), topic=topic, payload=payload)

    def invoke(self, mid: MemoryId, op: MemoryOp) -> InvokeEffect:
        return InvokeEffect(mid=MemoryId(mid), op=op)

    def wait(
        self,
        futures: Sequence[OpFuture],
        count: Optional[int] = None,
        timeout: Optional[float] = None,
    ) -> WaitEffect:
        needed = len(futures) if count is None else count
        return WaitEffect(futures=tuple(futures), count=needed, timeout=timeout)

    def recv_effect(
        self,
        topic: Optional[str] = None,
        match: Optional[Callable[[Envelope], bool]] = None,
        timeout: Optional[float] = None,
    ) -> RecvEffect:
        return RecvEffect(topic=topic, match=match, timeout=timeout)

    def sleep(self, duration: float) -> SleepEffect:
        return SleepEffect(duration=duration)

    def spawn(self, name: str, gen: Generator, daemon: bool = True) -> SpawnEffect:
        return SpawnEffect(name=name, gen=gen, daemon=daemon)

    def new_gate(self, name: str = "gate") -> Gate:
        return Gate(name)

    def gate_wait(self, gate: Gate, timeout: Optional[float] = None) -> GateWaitEffect:
        return GateWaitEffect(gate=gate, timeout=timeout)

    def signal(self, gate: Gate) -> None:
        """Open *gate*, waking its waiters (instant local action)."""
        waiters = gate.set()
        if waiters:
            wake = self._kernel._wake
            for waiter in waiters:
                if waiter.__class__ is tuple:  # kernel-parked (task, token)
                    wake(waiter[0], waiter[1], True)
                else:
                    waiter()

    # ------------------------------------------------------------------
    # sub-generators (``yield from env.xxx(...)``)
    # ------------------------------------------------------------------
    def recv(
        self,
        topic: Optional[str] = None,
        match: Optional[Callable[[Envelope], bool]] = None,
        timeout: Optional[float] = None,
    ) -> Generator:
        """Receive one matching message; returns the Envelope or None."""
        env = yield self.recv_effect(topic=topic, match=match, timeout=timeout)
        return env

    def broadcast(
        self, payload: Any, topic: str = "default", include_self: bool = True
    ) -> Generator:
        """Send *payload* to every process (optionally including ourselves)."""
        for dst in self.processes:
            if not include_self and dst == self.pid:
                continue
            yield self.send(dst, payload, topic=topic)

    def read(self, mid: MemoryId, region: RegionId, key: RegisterKey) -> Generator:
        """Read one register on one memory; returns :class:`OpResult`."""
        result = yield OpEffect(MemoryId(mid), ReadOp(region, key))
        return result

    def write(
        self, mid: MemoryId, region: RegionId, key: RegisterKey, value: Any
    ) -> Generator:
        """Write one register on one memory; returns :class:`OpResult`."""
        result = yield OpEffect(MemoryId(mid), WriteOp(region, key, value))
        return result

    def snapshot(self, mid: MemoryId, region: RegionId, prefix: RegisterKey) -> Generator:
        """Snapshot-read a slot array on one memory; returns :class:`OpResult`."""
        result = yield OpEffect(MemoryId(mid), SnapshotOp(region, prefix))
        return result

    def change_permission(
        self, mid: MemoryId, region: RegionId, new_permission: Permission
    ) -> Generator:
        """Request a permission change on one memory; returns :class:`OpResult`."""
        result = yield OpEffect(MemoryId(mid), ChangePermissionOp(region, new_permission))
        return result

    def invoke_on_all(self, make_op: Callable[[MemoryId], MemoryOp]) -> Generator:
        """Start ``make_op(mid)`` on every memory; returns the futures list."""
        futures = []
        for mid in self.memories:
            future = yield self.invoke(mid, make_op(mid))
            futures.append(future)
        return futures

    def majority_of_memories(self) -> int:
        """Quorum size over memories: ``floor(m/2) + 1``."""
        return self.n_memories // 2 + 1

    # ------------------------------------------------------------------
    # doorbell batching (fused op chains + single-completion fan-outs)
    # ------------------------------------------------------------------
    def batch(self, mid: MemoryId, ops: Iterable[MemoryOp]) -> Generator:
        """Post *ops* to memory *mid* as one fused chain; returns
        :class:`OpResult` — ACK with the tuple of per-op values, or NAK
        with a :class:`~repro.types.ChainAbort` naming the failing index.

        The chain is applied in order, atomically at its arrival instant,
        and costs the same two delays as a single operation (plus the
        model's per-WR issue increments, nominally zero).
        """
        result = yield BatchOpEffect(MemoryId(mid), BatchOp(ops))
        return result

    def fanout_to_all(
        self,
        make_op: Callable[[MemoryId], MemoryOp],
        need: Optional[int] = None,
        count_acks: bool = False,
        spare_naks: int = 0,
        timeout: Optional[float] = None,
    ) -> OpFanoutEffect:
        """Effect builder: post ``make_op(mid)`` (one op or chain) to every
        memory and park for a single completion verdict; the task resumes
        with the shared :class:`~repro.sim.futures.FanoutState`.  Default
        *need* = a majority — the phase-2 fan-out idiom in one effect (no
        futures, no waiter closures).  See
        :class:`~repro.sim.effects.OpFanoutEffect` for the verdict rules.
        """
        if need is None:
            need = self.majority_of_memories()
        return OpFanoutEffect(
            tuple((mid, make_op(mid)) for mid in self.memories),
            need,
            count_acks=count_acks,
            spare_naks=spare_naks,
            timeout=timeout,
        )
