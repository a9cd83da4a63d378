"""A replicated log: one consensus instance per slot.

Each slot gets its own protocol instance with registers/messages namespaced
by slot index, so instances never interfere.  The leader (slot proposer)
carries its decision into the next slot — the paper's "default leader in
the next instance" — which keeps every slot on the protocol's fast path:
with Protected Memory Paxos each committed command costs two delays.

This is deliberately a *library* layer above the consensus protocols: it
feeds inputs in, observes decisions, and applies them to a state machine
callback in slot order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Tuple

from repro.consensus.ballots import Ballot
from repro.consensus.chains import ChainRunner
from repro.errors import ConfigurationError
from repro.consensus.messages import Decision
from repro.consensus.probes import (
    max_confirmed_watermark,
    probe_write_grant,
    read_quorum_chain,
    read_quorum_watermarks,
    watermark_key,
)
from repro.consensus.protected_memory_paxos import PmpSlot
from repro.mem.operations import (
    BatchOp,
    ChangePermissionOp,
    ReadSnapshotOp,
    SnapshotOp,
    WriteOp,
)
from repro.mem.permissions import (
    Permission,
    exclusive_grab_policy,
    static_permissions,
)
from repro.mem.regions import RegionSpec
from repro.sim.environment import ProcessEnv
from repro.types import BOTTOM, is_bottom

SMR_REGION = "smr"
SMR_TOPIC = "smr"

#: prepare-probe slot used by leader recovery: a slot index no data slot
#: ever uses, so the probe write cannot clobber a forgotten commit
_RECOVERY_PROBE_SLOT = -1


def rx_region_of(region: str) -> str:
    """The read-index sibling region of one log region.

    Holds the per-writer commit-watermark registers the one-sided quorum
    read path reads.  It is a *separate* region because its permission
    shape differs from the log's: the log region is exclusive-writer (the
    PMP fence), while every process must be able to publish to its own
    watermark register — any process may become the log's leader, and a
    takeover must not have to move a second grant.
    """
    return region + "-rx"


def smr_rx_regions(n_processes: int, region: str = SMR_REGION) -> List[RegionSpec]:
    """The read-index region for one log: open access, static permissions.

    Open writes are safe here: registers are per-writer (no cross-process
    clobbering), values are monotone committed watermarks, and nothing in
    the region ever decides consensus — it only *indexes* what the fenced
    log region already committed.
    """
    rx = rx_region_of(region)
    processes = range(n_processes)
    return [
        RegionSpec(
            region_id=rx,
            prefix=(rx,),
            initial_permission=Permission.open(processes),
            legal_change=static_permissions,
        )
    ]


class Batch:
    """An ordered group of commands committed by one consensus instance.

    Batching amortises the per-slot cost: a single two-delay Protected
    Memory Paxos instance carries ``len(batch)`` client commands, which the
    state machine then applies in order.  An empty batch is a legal no-op
    filler (leader change, heartbeat).  A ``__slots__`` value object (one
    per committed slot, and batches travel inside decision messages).

    Instances must be treated as immutable: the canonical encoder keeps a
    batch's encoding in ``_canon_`` the first time the batch is encoded
    inside a larger value, so a batch mutated afterwards would sign stale
    bytes.
    """

    __slots__ = ("commands", "_canon_")
    #: fields the crypto canonical encoder signs (see repro.crypto.signatures)
    _signable_fields_ = ("commands",)

    def __init__(self, commands: Tuple[Any, ...] = ()) -> None:
        self.commands = tuple(commands)

    def __eq__(self, other: Any) -> bool:
        if type(other) is not Batch:
            return NotImplemented
        return self.commands == other.commands

    def __hash__(self) -> int:
        return hash(self.commands)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Batch({self.commands!r})"

    def __len__(self) -> int:
        return len(self.commands)

    def __iter__(self):
        return iter(self.commands)

    def __bool__(self) -> bool:
        # An empty batch is still a real log entry (a no-op), so Batch
        # truthiness follows "is a batch", not "has commands".
        return True


@dataclass
class SmrConfig:
    """Configuration for the replicated log."""

    initial_leader: int = 0
    leader_poll: float = 2.0
    retry_backoff: float = 4.0
    #: region/topic namespace; a multi-group service gives every consensus
    #: group its own namespace so groups sharing a kernel never interfere
    region: str = SMR_REGION
    topic: str = SMR_TOPIC
    #: publish the commit watermark to the read-index region with every
    #: committed slot, majority-acked BEFORE any client sees the commit:
    #: the watermark write rides the phase-2 chain, so it costs no extra
    #: memory round.  Off by default (only the one-sided quorum read path
    #: needs it).  Requires ``smr_rx_regions`` to be registered.
    publish_watermark: bool = False


def smr_regions(
    n_processes: int, initial_leader: int = 0, region: str = SMR_REGION
) -> List[RegionSpec]:
    """One dynamic-permission region covering all slots of all instances.

    Pass a distinct *region* per consensus group to lay out several
    independent replicated logs in the same memories.
    """
    processes = range(n_processes)
    return [
        RegionSpec(
            region_id=region,
            prefix=(region,),
            initial_permission=Permission.exclusive_writer(initial_leader, processes),
            legal_change=exclusive_grab_policy(processes),
        )
    ]


@dataclass
class _SlotState:
    decided: bool = False
    value: Any = None


class ReplicatedLog:
    """A Protected-Memory-Paxos-backed replicated log endpoint.

    The log embeds a per-slot PMP-style proposer rather than instantiating
    the standalone protocol object, because leadership (and hence the
    permission skip) carries across slots: after deciding slot ``i`` the
    leader still holds exclusive write permission, so slot ``i+1`` is again
    a single two-delay write.
    """

    def __init__(
        self,
        env: ProcessEnv,
        apply_fn: Callable[[int, Any], None],
        config: Optional[SmrConfig] = None,
        leader_fn: Optional[Callable[[], int]] = None,
        recovered: bool = False,
    ) -> None:
        self.env = env
        self.apply_fn = apply_fn
        self.config = config or SmrConfig()
        self.region = self.config.region
        self.topic = self.config.topic
        #: catch-up traffic (pull requests, horizon acks) rides a sibling
        #: topic so it never competes with commit broadcasts
        self.sync_topic = self.config.topic + "-sync"
        #: who may propose; defaults to the kernel's Ω oracle, but a sharded
        #: service pins each group to its own statically assigned leader
        self._leader_fn = leader_fn if leader_fn is not None else (
            lambda: int(env.leader())
        )
        self.slots: Dict[int, _SlotState] = {}
        self.applied_upto = -1
        self.highest_seen = Ballot.zero()
        #: True once this process has grabbed permissions (or started as
        #: the initial leader), letting later slots skip the prepare phase.
        #: A *recovered* initial leader must NOT assume them: its previous
        #: incarnation (or a usurper it has forgotten) may have committed
        #: values it would silently overwrite — recovery always re-prepares.
        self.permissions_held = (
            int(env.pid) == self.config.initial_leader and not recovered
        )
        #: slot -> accepted value discovered at leadership takeover; while
        #: permissions are held nobody else can write, so the cache stays
        #: complete and proposing a cached slot must re-propose its value
        #: (otherwise a takeover could overwrite an earlier leader's commit)
        self.adopt_cache: Dict[int, Any] = {}
        self.commit_gate = env.new_gate(f"{self.region}-commit-p{int(env.pid)+1}")
        #: read-index region for watermark registers (quorum read path)
        self.rx_region = rx_region_of(self.region)
        #: highest watermark this process ever published (or started to):
        #: raised BEFORE the phase-2 chain leaves, so the register never
        #: regresses and ``serves_local_reads`` refuses until the apply
        #: catches up
        self._wm_publish_floor = -1

    # ------------------------------------------------------------------
    def _slot_key(self, slot: int, pid: int) -> tuple:
        return (self.region, slot, pid)

    def _state(self, slot: int) -> _SlotState:
        return self.slots.setdefault(slot, _SlotState())

    def _commit(self, slot: int, value: Any) -> None:
        state = self._state(slot)
        if state.decided:
            return
        state.decided = True
        state.value = value
        while self._state(self.applied_upto + 1).decided:
            self.applied_upto += 1
            self.apply_fn(self.applied_upto, self.slots[self.applied_upto].value)
        self.env.signal(self.commit_gate)
        self.commit_gate.clear()

    # ------------------------------------------------------------------
    # read paths (non-consensus)
    # ------------------------------------------------------------------
    @property
    def applied_watermark(self) -> int:
        """Highest slot applied to the local state machine, in order."""
        return self.applied_upto

    @property
    def serves_local_reads(self) -> bool:
        """May this endpoint serve permission-fenced reads from local state?

        Requires holding the grant AND having re-committed everything the
        takeover prepare adopted: between a prepare and the re-commits the
        local applied state lags values an earlier leader already
        committed, so serving it — even fenced — could be stale.

        It also requires the applied state to have caught up with this
        process's own published watermark: while a commit's phase-2 chain
        is in flight the registers can already advertise a slot the local
        apply has not executed — a quorum reader may have served that
        slot, so answering from the lagging local state here would be
        new-then-old.  The window closes within the same commit step;
        refusing (the caller falls back) keeps the fenced path never-stale.
        """
        if not self.permissions_held:
            return False
        if self.adopt_cache and max(self.adopt_cache) > self.applied_upto:
            return False
        if self._wm_publish_floor > self.applied_upto:
            return False
        return True

    def fence_probe(self, timeout: Optional[float] = None) -> Generator:
        """True iff this process's exclusive write grant on the log region
        is live at a majority of memories (see ``PmpNode.grant_probe``)."""
        held = yield from probe_write_grant(self.env, self.region, timeout=timeout)
        return held

    def quorum_read(self, timeout: Optional[float] = None) -> Generator:
        """One-sided quorum read: no leader involvement, ABD-style.

        Reads the commit watermark registers and any missing log entries
        directly from a majority of memories, ingests the committed
        prefix into this replica, and returns the watermark the local
        state now provably covers — or ``None`` when the read cannot be
        served one-sided (majority unreachable, region fenced away by a
        reconfiguration, or a wiped memory left the prefix unassemblable)
        and the caller must fall back to the consensus path.

        Correctness:

        * the watermark max over any majority covers every write whose
          client saw a reply (leaders majority-publish before replying);
        * every slot ``<= watermark`` was majority-written before the
          watermark advanced, so this read's majority holds each one,
          and the highest-ballot copy per slot is the committed value
          (the standard Paxos invariant: later ballots re-propose it);
        * only a *confirmed* watermark is served — one writer's register
          carries it at a majority, so it is already durable there and
          two sequential quorum reads can never see new-then-old.  An
          unconfirmed max (a failed phase-2 chain's minority residue)
          returns ``None`` and is never written back.

        Under FIFO queue pairs the whole read is ONE doorbell-batched
        round (:meth:`_quorum_read_fused`); otherwise it is two sequential
        rounds: the watermark read, then the entry fetch.
        """
        env = self.env
        majority = env.majority_of_memories()
        obs = env.obs
        phase = obs and obs.phase("log.quorum_read", floor=self.applied_upto)
        try:
            result = yield from self._quorum_read_inner(majority, timeout)
        finally:
            if phase:
                phase.finish()
        return result

    def _quorum_read_inner(self, majority: int, timeout: Optional[float]) -> Generator:
        env = self.env
        if env.fifo_memory_ops:
            # Doorbell-batched read: ONE fused chain per memory carries
            # both the watermark snapshot and the entry snapshot — the
            # two sequential rounds collapse into one.  Requires FIFO
            # queue pairs (constant per-leg delays): with reordering the
            # per-view consistent-cut argument of the fused read would
            # not bound which commits an early-served entry view has seen.
            result = yield from self._quorum_read_fused(majority, timeout)
            return result
        # The watermark MUST be observed before the entries are fetched:
        # slots <= watermark were majority-written before the watermark
        # reached the memory that served it, so entry reads issued AFTER
        # that observation are guaranteed to find each committed value in
        # any majority.  Overlapping the two rounds would let an entry
        # view predate a commit the (later-served) watermark view already
        # covers — the view could then hold only a fenced-out old
        # proposer's minority residue for that slot, which would pass the
        # hole check and be served as if committed.  Sequencing also
        # skips the entry fan-out entirely in the caught-up common case.
        watermark, confirmed = yield from read_quorum_watermarks(
            env, self.rx_region, timeout=timeout
        )
        if watermark is None:
            return None
        if watermark <= self.applied_upto:
            # local state is already at least as fresh as the quorum —
            # nothing to ingest
            return self.applied_upto
        if not confirmed:
            # A FAILED phase-2 chain can leave its watermark at a minority
            # of registers (the slot write ACKed, the run died before a
            # majority).  Serving that residue, or writing it back, would
            # let a later reader "confirm" a slot no writer ever
            # committed — fall back to the consensus path before paying
            # for an entry fetch that could never be served.
            return None
        floor = self.applied_upto + 1
        read_op = ReadSnapshotOp(self.region, (self.region,), floor)
        entry_futures = yield from env.invoke_on_all(lambda mid: read_op)
        yield env.wait(entry_futures, count=majority, timeout=timeout)
        views = [f.value for f in entry_futures if f.done and f.ok]
        if len(views) < majority:
            return None
        best: Dict[int, tuple] = {}
        for view in views:
            for key, entry in view.items():
                if not isinstance(entry, PmpSlot) or entry.acc_prop is None:
                    continue  # ballot-publishing probes carry no value
                if is_bottom(entry.value):
                    continue
                slot = key[1]
                if not isinstance(slot, int) or not floor <= slot <= watermark:
                    continue
                current = best.get(slot)
                if current is None or entry.acc_prop > current[0]:
                    best[slot] = (entry.acc_prop, entry.value)
        for slot in range(floor, watermark + 1):
            if slot not in best and slot > self.applied_upto:
                # a hole in the committed prefix (wiped memory mid-run):
                # not one-sided-servable; the consensus path still is
                return None
        for slot in range(floor, watermark + 1):
            if slot > self.applied_upto:  # the listener may have raced ahead
                self._commit(slot, best[slot][1])
        return self.applied_upto

    def _quorum_read_fused(self, majority: int, timeout: Optional[float]) -> Generator:
        """The 1-round doorbell-batched quorum read.

        Each ACKing memory returns a *consistent cut* ``(wm_view,
        entry_view)`` — both snapshots applied at one arrival instant.
        Three rules make the single round safe where the sequential path
        needs the watermark observed before the entries are fetched:

        * **per-register confirmation** (``max_confirmed_watermark``):
          the max watermark is trusted only when one writer's register
          carries it at a majority of views, which proves that writer
          completed the slot under the fence;
        * **per-view qualification**: slot ``s`` is adopted only from
          views whose own watermark is ``>= s``.  A fused writer installs
          a slot and its watermark in the SAME chain and watermarks are
          monotone, so every qualifying view postdates some commit chain
          covering ``s`` — an entry view served before slot ``s``'s
          commit reached that memory can never supply a fenced-out
          proposer's residue for it;
        * **no write-back**: a confirmed watermark is already durable at
          a majority, and an unconfirmed one must not be amplified — so
          the round is never followed by a publish.

        Holes (a committed slot no qualifying view holds — wiped memory,
        or every cut predating its chain) return ``None``: consensus
        fallback, same as the sequential path.
        """
        env = self.env
        floor = self.applied_upto + 1
        pairs = yield from read_quorum_chain(
            env, self.rx_region, self.region, (self.region,), floor, timeout=timeout
        )
        if pairs is None:
            return None
        watermark, confirmed = max_confirmed_watermark(
            [wm_view for wm_view, _entries in pairs], majority
        )
        if watermark <= self.applied_upto:
            # local state is already at least as fresh as the quorum
            return self.applied_upto
        if not confirmed:
            return None
        best: Dict[int, tuple] = {}
        for wm_view, entry_view in pairs:
            own = -1
            for value in wm_view.values():
                if isinstance(value, int) and value > own:
                    own = value
            for key, entry in entry_view.items():
                if not isinstance(entry, PmpSlot) or entry.acc_prop is None:
                    continue  # ballot-publishing probes carry no value
                if is_bottom(entry.value):
                    continue
                slot = key[1]
                if not isinstance(slot, int) or not floor <= slot <= watermark:
                    continue
                if slot > own:
                    continue  # this cut predates slot's commit chain
                current = best.get(slot)
                if current is None or entry.acc_prop > current[0]:
                    best[slot] = (entry.acc_prop, entry.value)
        for slot in range(floor, watermark + 1):
            if slot not in best and slot > self.applied_upto:
                return None
        for slot in range(floor, watermark + 1):
            if slot > self.applied_upto:  # the listener may have raced ahead
                self._commit(slot, best[slot][1])
        return self.applied_upto

    # ------------------------------------------------------------------
    def listener(self) -> Generator:
        """Learn commits broadcast by the leader; pull any gap below them.

        A commit landing *above* ``applied_upto + 1`` means this replica
        missed broadcasts (a partition, a restart): it asks the leader to
        re-send the missing prefix, throttled to one pull per backoff.
        """
        env = self.env
        # One reusable receive effect: the kernel only reads its fields, so
        # the listener avoids an effect + sub-generator allocation per commit.
        recv_commit = env.recv_effect(topic=self.topic)
        last_pull = -self.config.retry_backoff
        while True:
            envelope = yield recv_commit
            if envelope is None:
                continue
            payload = envelope.payload
            if isinstance(payload, tuple) and len(payload) == 2:
                slot, decision = payload
                if isinstance(decision, Decision):
                    self._commit(slot, decision.value)
                    if slot > self.applied_upto + 1:
                        now = env.now
                        target = self._leader_fn()
                        if (
                            target != int(env.pid)
                            and now - last_pull >= self.config.retry_backoff
                        ):
                            last_pull = now
                            yield env.send(
                                target,
                                ("pull", self.applied_upto + 1),
                                topic=self.sync_topic,
                            )

    def sync_server(self) -> Generator:
        """Serve catch-up pulls: re-send the committed prefix on request.

        This is the state-transfer half of partition/crash recovery: a
        replica that missed commit broadcasts (or restarted empty) sends
        ``("pull", from_slot)`` on the sync topic; any up-to-date replica
        answers with the committed entries as ordinary ``(slot, Decision)``
        messages — the listener ingests them with zero new code paths —
        followed by an ``("upto", n)`` horizon marker on the sync topic.
        """
        env = self.env

        def is_pull(envelope) -> bool:
            payload = envelope.payload
            return isinstance(payload, tuple) and len(payload) == 2 and payload[0] == "pull"

        recv_pull = env.recv_effect(topic=self.sync_topic, match=is_pull)
        while True:
            envelope = yield recv_pull
            if envelope is None:
                continue
            from_slot = max(0, envelope.payload[1])
            requester = envelope.src
            for slot in range(from_slot, self.applied_upto + 1):
                yield env.send(
                    requester,
                    (slot, Decision(value=self.slots[slot].value)),
                    topic=self.topic,
                )
            yield env.send(requester, ("upto", self.applied_upto), topic=self.sync_topic)

    def catchup(self) -> Generator:
        """Pull the committed prefix after a restart (follower recovery).

        Re-asks the current leader every backoff until a horizon ack shows
        this replica has applied everything the leader had committed; gaps
        that appear later are handled by the listener's pull path.
        """
        env = self.env

        def is_upto(envelope) -> bool:
            payload = envelope.payload
            return isinstance(payload, tuple) and len(payload) == 2 and payload[0] == "upto"

        while True:
            target = self._leader_fn()
            if target == int(env.pid):
                return  # leaders recover by re-proposing (recover_leader)
            yield env.send(target, ("pull", self.applied_upto + 1), topic=self.sync_topic)
            reply = yield env.recv_effect(
                topic=self.sync_topic,
                match=is_upto,
                timeout=2 * self.config.retry_backoff,
            )
            if reply is not None and reply.payload[1] <= self.applied_upto:
                return

    def recover_leader(self) -> Generator:
        """Re-establish leadership after a restart and re-commit the past.

        Runs the full prepare (``recovered`` logs start with
        ``permissions_held`` False) — but probed at the reserved recovery
        slot, NOT at the next data slot: the prepare's ballot-publishing
        write lands on the probed slot's own key, and a restarted leader
        has forgotten which of its own keys hold committed values, so
        probing a real slot could destroy its previous incarnation's
        commit at every memory the prepare reaches.  The reserved slot can
        never hold data, the snapshot still covers the whole region, and
        ``adopt_cache`` then holds every slot any incarnation ever
        accepted; each propose re-commits those values in order —
        re-broadcasting their decisions, which is also what re-teaches a
        minority that was partitioned away while this leader was down.
        """
        env = self.env
        majority = env.majority_of_memories()
        while not self.permissions_held:
            prop_nr = self.highest_seen.next_for(env.pid)
            self.highest_seen = prop_nr
            adopted = yield from self._prepare(
                _RECOVERY_PROBE_SLOT, prop_nr, majority, Batch()
            )
            if adopted is None:
                yield env.sleep(self.config.retry_backoff * (1 + env.rng.random()))
        while self.adopt_cache and max(self.adopt_cache) > self.applied_upto:
            yield from self.propose(self.applied_upto + 1, Batch())

    # ------------------------------------------------------------------
    def propose(self, slot: int, command: Any) -> Generator:
        """Drive consensus for *slot*; returns the decided command.

        Retries (with permission re-acquisition) until the slot commits;
        returns the committed value, which may be another leader's command
        if this process lost leadership.
        """
        env = self.env
        state = self._state(slot)
        while not state.decided:
            if self._leader_fn() != int(env.pid):
                yield env.gate_wait(self.commit_gate, timeout=self.config.leader_poll)
                continue
            yield from self._attempt(slot, command)
            if not state.decided:
                yield env.sleep(self.config.retry_backoff * (1 + env.rng.random()))
        return state.value

    def propose_batch(self, slot: int, commands: Iterable[Any]) -> Generator:
        """Commit one :class:`Batch` of commands in *slot*; returns the
        decided value (the batch, or another leader's entry on takeover)."""
        decided = yield from self.propose(slot, Batch(tuple(commands)))
        return decided

    def _attempt(self, slot: int, command: Any) -> Generator:
        env = self.env
        majority = env.majority_of_memories()
        prop_nr = self.highest_seen.next_for(env.pid)
        self.highest_seen = prop_nr

        if self.permissions_held:
            my_value = self.adopt_cache.get(slot, command)
        else:
            my_value = yield from self._prepare(slot, prop_nr, majority, command)
            if my_value is None:
                return

        # Phase 2: one slot write per memory, all leaving at this instant,
        # leader resuming on a majority — two delays.  With
        # publish_watermark the watermark write rides the SAME chain as
        # the slot write (slot first, so a deposed leader's NAK aborts the
        # chain before the watermark can advance): the watermark is
        # majority-durable before any client sees the commit, at no extra
        # memory round.
        slot_value = PmpSlot(min_prop=prop_nr, acc_prop=prop_nr, value=my_value)
        key = self._slot_key(slot, int(env.pid))
        obs = env.obs
        phase = obs and obs.phase("log.phase2", slot=slot)
        wm_refused = False
        if self.config.publish_watermark:
            # Floor raised BEFORE the chain leaves: a concurrent local
            # read path must refuse to serve until the apply catches up.
            target = max(int(slot), self._wm_publish_floor)
            self._wm_publish_floor = target
            chain_ops = (
                WriteOp(self.region, key, slot_value),
                WriteOp(
                    self.rx_region,
                    watermark_key(self.rx_region, int(env.pid)),
                    target,
                ),
            )
            if env.strict_outstanding:
                chains = ChainRunner(env, f"{self.region}2-{slot}")

                def phase2(mid):
                    result = yield from env.batch(mid, chain_ops)
                    return result

                yield from chains.launch(phase2)
                yield from chains.wait_for(majority)
                results = list(chains.results.values())
            else:
                chain = BatchOp(chain_ops)
                state = yield env.fanout_to_all(lambda mid: chain, need=majority)
                results = [r for r in state.results if r is not None]
            failed = any(not r.ok for r in results)
            wm_refused = any(
                not r.ok and r.value.failed_index == 1 for r in results
            )
        elif env.strict_outstanding:
            # Model-conformance mode: the one-outstanding rule is enforced
            # per task per memory, and the proposer task is long-lived — a
            # same-instant straggler write from slot N would still be in
            # flight when slot N+1 invokes on that memory.  Run each write
            # in its own throwaway chain task, as the takeover path does.
            chains = ChainRunner(env, f"{self.region}2-{slot}")

            def phase2(mid):
                result = yield from env.write(mid, self.region, key, slot_value)
                return result.ok

            yield from chains.launch(phase2)
            yield from chains.wait_for(majority)
            failed = any(not ok for ok in chains.results.values())
        else:
            # Hot path, nothing to fuse (watermark off): single-completion
            # fan-out — one queue entry per memory out, ONE wake back, no
            # per-future waiter closures.
            write_op = WriteOp(region=self.region, key=key, value=slot_value)
            state = yield env.fanout_to_all(lambda mid: write_op, need=majority)
            failed = state.naked > 0
        if phase:
            phase.finish(failed=failed)
        if failed:
            if wm_refused:
                # A chain aborted at the watermark write: the open, static
                # rx region can only refuse when it was never registered.
                # Proceeding would silently re-open the staleness hole the
                # watermark closes, so this is a loud assembly error, not
                # a degradation.
                raise ConfigurationError(
                    f"watermark publish to {self.rx_region!r} refused: "
                    "publish_watermark=True requires the smr_rx_regions "
                    "read-index region to be registered"
                )
            self.permissions_held = False  # somebody grabbed the region
            return
        self._commit(slot, my_value)
        yield from env.broadcast(
            (slot, Decision(value=my_value)), topic=self.topic, include_self=False
        )

    def _prepare(self, slot: int, prop_nr: Ballot, majority: int, command: Any) -> Generator:
        env = self.env
        chains = ChainRunner(env, f"{self.region}1-{slot}")
        grab = Permission.exclusive_writer(int(env.pid), range(env.n_processes))
        probe = PmpSlot(min_prop=prop_nr, acc_prop=None, value=BOTTOM)
        probe_key = self._slot_key(slot, int(env.pid))
        # Doorbell-batched takeover: grab + ballot-publishing probe +
        # whole-region snapshot (every slot any previous leader may have
        # written, not just the one being proposed) ride ONE chain per
        # memory — two delays.  The grab policy ACKs any legitimate
        # self-grab (including a no-op re-grab), so a tombstoned region
        # NAKs at WR 0, and no usurper can interleave between probe and
        # snapshot (the chain applies atomically at the memory).
        chain_ops = (
            ChangePermissionOp(self.region, grab),
            WriteOp(self.region, probe_key, probe),
            SnapshotOp(self.region, (self.region,)),
        )

        def phase1(mid):
            result = yield from env.batch(mid, chain_ops)
            return result.value[2] if result.ok else None

        obs = env.obs
        phase = obs and obs.phase("log.prepare", slot=slot)
        try:
            yield from chains.launch(phase1)
            yield from chains.wait_for(majority)
        finally:
            if phase:
                phase.finish()
        views = list(chains.results.values())
        if any(view is None for view in views):
            return None
        best_per_slot: Dict[int, tuple] = {}
        for view in views:
            for key, other in view.items():
                if key == self._slot_key(slot, int(env.pid)) or not isinstance(
                    other, PmpSlot
                ):
                    continue
                self.highest_seen = max(self.highest_seen, other.min_prop)
                if other.min_prop > prop_nr:
                    return None
                if other.acc_prop is not None and not is_bottom(other.value):
                    seen_slot = key[1]
                    current = best_per_slot.get(seen_slot)
                    if current is None or other.acc_prop > current[0]:
                        best_per_slot[seen_slot] = (other.acc_prop, other.value)
        self.adopt_cache = {s: v for s, (_b, v) in best_per_slot.items()}
        self.permissions_held = True
        best = best_per_slot.get(slot)
        return command if best is None else best[1]
