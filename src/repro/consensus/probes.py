"""One-sided read probes for permission-fenced protocols.

Two primitives the non-consensus read paths are built from, shared by
Protected Memory Paxos, Aligned Paxos and the replicated-log layer:

* :func:`probe_write_grant` — the **fence check**: a zero-length
  permission probe on every memory, true iff the caller's exclusive
  write grant is still installed at a majority.  A leader whose grant
  probe succeeds at time ``t`` knows no other leader can have committed
  anything it has not seen before ``t`` (committing requires holding the
  grant at a majority, majorities intersect, and a grant moves only
  through the full takeover prepare) — so its local applied state is
  linearizable to serve as of ``t``.
* :func:`read_quorum_watermarks` — the **watermark read**: snapshot the
  per-writer commit-watermark registers from a majority and take the
  max, with the per-register confirmation verdict of
  :func:`max_confirmed_watermark`.  A leader installs watermark ``s`` in
  the same chain as slot ``s``'s phase-2 write and waits for a majority
  ACK before answering any client, so a *confirmed* max covers every
  write a client ever saw complete.

Both are plain generators over :class:`~repro.sim.environment.
ProcessEnv` — each costs one two-delay memory round, issued to all
memories as a single-completion fan-out
(:class:`~repro.sim.effects.OpFanoutEffect`): the kernel counts ACKs and
NAKs in one shared state and wakes the caller exactly once when the
verdict is in, instead of re-registering a waiter closure per response.

:func:`read_quorum_chain` is the doorbell-batched read round built from
the same pieces: per memory, ONE fused chain carrying the watermark
snapshot and the floor-filtered entry snapshot — the quorum read's two
rounds collapsed into one (see ``ReplicatedLog._quorum_read_fused`` for
the adoption rule that makes this safe).
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from repro.mem.operations import BatchOp, ProbeOp, ReadSnapshotOp, SnapshotOp
from repro.sim.environment import ProcessEnv
from repro.types import RegionId, RegisterKey

#: name component of per-writer watermark registers: ``(region, WM, pid)``
WM = "wm"


def watermark_key(rx_region: RegionId, pid: int) -> tuple:
    """The per-writer commit-watermark register of *pid* in *rx_region*."""
    return (rx_region, WM, int(pid))


def _verdict_fanout(
    env: ProcessEnv, make_op, timeout: Optional[float]
) -> Generator:
    """Fan *make_op(mid)* out to every memory with ACK-counting single
    completion: the task wakes once — at a majority of ACKs, at more than
    ``m - majority`` NAKs (a majority of ACKs became impossible), or at
    the timeout.  Returns ``(state, majority)``; the verdict is
    ``state.acked >= majority``."""
    majority = env.majority_of_memories()
    state = yield env.fanout_to_all(
        make_op,
        need=majority,
        count_acks=True,
        spare_naks=env.n_memories - majority,
        timeout=timeout,
    )
    return state, majority


def probe_write_grant(
    env: ProcessEnv, region: RegionId, timeout: Optional[float] = None
) -> Generator:
    """True iff this process holds the exclusive write grant on *region*
    at a majority of memories right now (the one-sided fence check)."""
    op = ProbeOp(region, "write")
    state, majority = yield from _verdict_fanout(env, lambda mid: op, timeout)
    return state.acked >= majority


def read_quorum_watermarks(
    env: ProcessEnv, rx_region: RegionId, timeout: Optional[float] = None
) -> Generator:
    """Read every watermark register from a majority of memories.

    Returns ``(watermark, confirmed)`` where *watermark* is the max slot
    index seen (``-1`` when nothing was ever published) and *confirmed*
    is True when one writer's register carries that max at a majority of
    the responding views (see :func:`max_confirmed_watermark`); readers
    serve only a confirmed watermark.  Returns ``(None, False)`` when a
    majority cannot be assembled (memories down, or the region fenced
    away by a reconfiguration).
    """
    op = SnapshotOp(rx_region, (rx_region,))
    state, majority = yield from _verdict_fanout(env, lambda mid: op, timeout)
    if state.acked < majority:
        return None, False
    views = [r.value for r in state.results if r is not None and r.ok]
    return max_confirmed_watermark(views, majority)


def max_confirmed_watermark(views, majority: int) -> Tuple[int, bool]:
    """Max watermark over *views* plus the confirmed-majority verdict.

    Confirmation is **per register** (per writer): the max is confirmed
    only when a *single* writer's register carries it at a majority of
    the views.  Counting mixed registers would be unsound once writers
    fuse the slot write and the watermark publish into one chain: two
    different writers' failed chains can each leave the same watermark at
    a minority, jointly covering a majority, without EITHER writer's slot
    being committed anywhere.  A single writer's register at a majority,
    by contrast, proves that writer completed (or advanced past) the slot
    under the fence — the commit happened.
    """
    watermark = -1
    for view in views:
        for value in view.values():
            if isinstance(value, int) and value > watermark:
                watermark = value
    if watermark < 0:
        return watermark, False
    counts: Dict[Any, int] = {}
    best = 0
    for view in views:
        for key, value in view.items():
            if isinstance(value, int) and value >= watermark:
                tally = counts.get(key, 0) + 1
                counts[key] = tally
                if tally > best:
                    best = tally
    return watermark, best >= majority


def read_quorum_chain(
    env: ProcessEnv,
    rx_region: RegionId,
    region: RegionId,
    prefix: RegisterKey,
    floor: Any = None,
    timeout: Optional[float] = None,
) -> Generator:
    """The fused 1-round quorum read: per memory, one doorbell-batched
    chain ``[watermark snapshot, floor-filtered entry snapshot]``.

    Because a chain applies atomically at one memory, each returned pair
    ``(wm_view, entry_view)`` is a *consistent cut* of that memory: every
    slot its watermark covers is present in the same entry view (writers
    install the slot and its watermark in one chain too — the same-chain
    property).  Returns the list of per-memory pairs from the ACKing
    majority, or ``None`` when a majority cannot be assembled.

    Callers MUST gate on ``env.fifo_memory_ops`` and apply the per-view
    qualification rule (adopt slot ``s`` only from a view whose own
    watermark is ``>= s``) — see ``ReplicatedLog._quorum_read_fused``.
    """
    chain = BatchOp(
        (SnapshotOp(rx_region, (rx_region,)), ReadSnapshotOp(region, prefix, floor))
    )
    state, majority = yield from _verdict_fanout(env, lambda mid: chain, timeout)
    if state.acked < majority:
        return None
    return [r.value for r in state.results if r is not None and r.ok]
