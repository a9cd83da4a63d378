"""Memory operations a process can invoke (paper Section 3).

``read``/``write`` address a single register within a region.  ``snapshot``
reads every register of one region sharing a key prefix in a single
operation — the RDMA analogue of reading a contiguous slot array with one
verb (Section 7 describes slot arrays being read this way), and it costs the
same two delays as any other memory operation.  ``changePermission``
requests a permission change, subject to the region's ``legalChange``.

Dispatch contract: each operation class carries an integer ``kind`` tag
(one of the ``OP_*`` constants) so the memory applies ops through a flat
handler table instead of an isinstance chain — the same discipline as the
kernel's effect dispatch.  The numbering is dense and stable; new
operations append.  Operations are allocated on the simulation hot path,
so they are hand-written ``__slots__`` value objects (register keys are
normalised to tuples once, at construction); treat instances as immutable.
"""

from __future__ import annotations

from typing import Any

from repro.mem.permissions import Permission
from repro.types import RegionId, RegisterKey

OP_READ = 0
OP_WRITE = 1
OP_SNAPSHOT = 2
OP_CHANGE_PERMISSION = 3
OP_PROBE = 4
OP_READ_SNAPSHOT = 5
OP_BATCH = 6


class _OpBase:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other: Any) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name) for name in self.__slots__
        )

    __hash__ = None


class ReadOp(_OpBase):
    """Read one register. Resolves to ``OpResult(ACK, value)`` or NAK."""

    __slots__ = ("region", "key")
    kind = OP_READ

    def __init__(self, region: RegionId, key: RegisterKey) -> None:
        self.region = region
        self.key = tuple(key)


class WriteOp(_OpBase):
    """Write one register. Resolves to ``OpResult(ACK)`` or NAK."""

    __slots__ = ("region", "key", "value")
    kind = OP_WRITE

    def __init__(self, region: RegionId, key: RegisterKey, value: Any = None) -> None:
        self.region = region
        self.key = tuple(key)
        self.value = value


class SnapshotOp(_OpBase):
    """Read all registers of *region* whose key starts with *prefix*.

    Resolves to ``OpResult(ACK, {key: value, ...})`` containing only
    registers that have been written; callers treat absent keys as ``⊥``.
    """

    __slots__ = ("region", "prefix")
    kind = OP_SNAPSHOT

    def __init__(self, region: RegionId, prefix: RegisterKey) -> None:
        self.region = region
        self.prefix = tuple(prefix)


class ChangePermissionOp(_OpBase):
    """Request a permission change on *region*.

    The memory evaluates the region's ``legalChange`` policy; an illegal
    change is a no-op (the paper's semantics).  The result status reports
    whether the change took effect (ACK) or was a no-op (NAK) — protocols in
    the paper never rely on this status, but tests do.
    """

    __slots__ = ("region", "new_permission")
    kind = OP_CHANGE_PERMISSION

    def __init__(self, region: RegionId, new_permission: Permission) -> None:
        self.region = region
        self.new_permission = new_permission


class ProbeOp(_OpBase):
    """A zero-length permission probe: does the caller hold *access*?

    The RDMA idiom is a zero-byte verb posted on the queue pair: it moves
    no data, but it completes successfully only if the caller's permission
    on the region is still installed — which is exactly the fence check a
    Protected-Memory-Paxos leader needs before serving a linearizable
    read from local state.  ``access`` is ``"write"`` (the exclusive-grant
    fence) or ``"read"``.  Resolves to ``OpResult(ACK)`` when the
    permission is held, NAK otherwise; no register is touched either way.
    """

    __slots__ = ("region", "access")
    kind = OP_PROBE

    def __init__(self, region: RegionId, access: str = "write") -> None:
        if access not in ("read", "write"):
            raise ValueError(f"unknown probe access {access!r}")
        self.region = region
        self.access = access


class ReadSnapshotOp(_OpBase):
    """Snapshot a slot array, skipping integer-indexed entries below *floor*.

    The quorum read path's op: a reader that has already applied slots
    ``< floor`` asks each memory only for the suffix it is missing (plus
    any non-integer-indexed registers, e.g. commit watermarks) — the
    doorbell/merge discipline of batching one bounded read per memory
    instead of re-transferring the whole region per read.  Filtering
    happens at the memory (the RDMA analogue of an offset read), so the
    response payload stays proportional to the reader's lag, not to the
    log length.  Same permission rule and two-delay cost as
    :class:`SnapshotOp`; ``floor=None`` degenerates to a plain snapshot.

    A register rides the response iff its key extends *prefix* and the
    key component right after the prefix is either not an ``int`` (named
    registers always ride along) or ``>= floor``.
    """

    __slots__ = ("region", "prefix", "floor")
    kind = OP_READ_SNAPSHOT

    def __init__(
        self, region: RegionId, prefix: RegisterKey, floor: Any = None
    ) -> None:
        self.region = region
        self.prefix = tuple(prefix)
        self.floor = floor


class BatchOp(_OpBase):
    """A doorbell-batched chain of operations against **one** memory.

    The RDMA idiom (Snippet-3-style ``BeginBatch``/``FinishBatch``): N work
    requests posted through one doorbell, with only the last WR signalled —
    one queue entry out, one completion back, however long the chain.  The
    memory applies the sub-operations **in order, atomically at the chain's
    arrival instant**; the first NAK aborts the remainder (the QP error
    flush) and the chain resolves to
    ``OpResult(NAK, ChainAbort(failed_index, partial))``.  A fully-ACKed
    chain resolves to ``OpResult(ACK, tuple_of_sub_values)``.

    Chains do not nest — a batch inside a batch is a construction error,
    exactly as a WR list cannot contain another WR list — and may not be
    empty: an empty chain would still cost a round trip and count a batch
    while touching no region, so the explorer would see it commute with
    everything.  ``regions`` is the precomputed tuple of distinct region
    ids the chain touches (in first-touch order): the explorer's
    dependency relation uses it as the chain's conservative footprint.
    """

    __slots__ = ("ops", "regions")
    kind = OP_BATCH

    def __init__(self, ops) -> None:
        ops = tuple(ops)
        if not ops:
            raise ValueError("an op chain needs at least one operation")
        regions = []
        for op in ops:
            if getattr(op, "kind", None) == OP_BATCH:
                raise ValueError("batched op chains do not nest")
            region = getattr(op, "region", None)
            if region is None:
                raise ValueError(f"{op!r} is not a memory operation")
            if region not in regions:
                regions.append(region)
        self.ops = ops
        self.regions = tuple(regions)

    def __len__(self) -> int:
        return len(self.ops)


MemoryOp = (
    ReadOp
    | WriteOp
    | SnapshotOp
    | ChangePermissionOp
    | ProbeOp
    | ReadSnapshotOp
    | BatchOp
)
