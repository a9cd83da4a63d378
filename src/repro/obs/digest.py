"""The run digest: the one deterministic identity of a simulated run,
compared by the determinism tests, the what-if profiler's replay check
and the parallel kernel's per-cell contract."""

from __future__ import annotations

import hashlib


def run_digest(kernel) -> str:
    """SHA-256 hex digest of a run of *kernel*; two replays of one
    scenario must agree on every input.  Hashes, in order:

    * every span, finished then open, with its ids, name, kind, actor,
      exact virtual times and attrs (message ids included — they come
      from the kernel's own counter), when an obs runtime is attached;
    * every decision and per-instance decision, with its virtual time;
    * the ledger's fault timeline;
    * the message and memory-op counters;
    * the network's drop counters;
    * the event queue's pushed/popped totals and the final ``now``.
    """
    digest = hashlib.sha256()
    update = digest.update
    obs = kernel.obs
    if obs is not None:
        for span in list(obs.finished) + obs.open_spans():
            attrs = None if span.attrs is None else sorted(span.attrs.items())
            update(repr((
                span.span_id, span.parent_id, span.trace_id, span.name,
                span.kind, span.actor, span.start, span.end, attrs,
            )).encode())
    ledger = kernel.metrics
    for pid in sorted(ledger.decisions):
        record = ledger.decisions[pid]
        update(f"D p{int(pid)} {record.value!r} @{record.decided_at}".encode())
    for instance, book in sorted(
        ledger.instance_decisions.items(), key=lambda kv: repr(kv[0])
    ):
        for pid in sorted(book):
            record = book[pid]
            update(
                f"I {instance!r} p{int(pid)} {record.value!r} @{record.decided_at}".encode()
            )
    for record in ledger.fault_timeline:
        update(
            f"F {record.time} {record.kind} {record.subject} "
            f"{sorted(record.detail.items())}".encode()
        )
    net, queue = kernel.network, kernel.queue
    update(
        f"msgs={sorted(ledger.messages_sent.items())} "
        f"ops={sorted(ledger.mem_ops.items())} dropped={net.dropped} "
        f"pdrop={net.partition_dropped} cdrop={net.chaos_dropped} "
        f"pushed={queue.pushed} popped={queue.popped} now={kernel.now}".encode()
    )
    return digest.hexdigest()
