#!/usr/bin/env python3
"""Doorbell batching, side by side: fused op chains vs one-at-a-time.

Traces a Protected Memory Paxos decision with the prepare phase enabled
(``skip_first_attempt=False``) both ways.  Classic PMP runs three
sequential memory rounds per replica — permission grab, probe write,
snapshot read — before the phase-2 write: 8 delays to decide.  The
batched protocol posts the same three ops as ONE fused chain (one queue
entry out, one completion back), so prepare costs a single round and the
decision lands in 4 delays.  The span trees make the difference visible:
three ``memop`` spans per replica collapse into one ``BatchOp`` span
annotated with its sub-op count, and the critical-path analyzer prices
the chain at one round trip.

The replicated log and the sharded service always run this way: every
phase-2 slot write fuses with its watermark publish and every quorum read
fetches watermark + entries in one chain per memory.  Only PMP and
Aligned Paxos keep the ``batch_chains`` switch, because the classic
8-delay prepare is a delay count the paper reports.

Run:  python examples/doorbell_batching.py
"""

from repro import PmpConfig, ProtectedMemoryPaxos
from repro.core.cluster import Cluster, ClusterConfig
from repro.obs import attach, critical_path, render_tree
from repro.obs.spans import K_MEMOP
from repro.types import ProcessId


def traced_decision(batch_chains: bool) -> None:
    label = "batched chains" if batch_chains else "classic rounds"
    print(f"--- {label} ---")
    config = PmpConfig(skip_first_attempt=False, batch_chains=batch_chains)
    cluster = Cluster(ProtectedMemoryPaxos(config), ClusterConfig(3, 3))
    runtime = attach(cluster.kernel)
    result = cluster.run(["a", "b", "c"])
    assert result.agreed

    leader = ProcessId(0)
    _, trace_id = runtime.decide_points[(leader, None)]
    print("span tree of the deciding trace:")
    print(render_tree(runtime.spans, trace_id))
    memops = [s for s in runtime.spans if s.kind == K_MEMOP]
    chains = [s for s in memops if s.name == "BatchOp"]
    sub_ops = sum(s.attrs.get("ops", 1) for s in memops)
    print(
        f"memop spans: {len(memops)} ({len(chains)} fused chains) "
        f"covering {sub_ops} one-sided ops"
    )
    print(critical_path(runtime, leader).summary())
    print()


def main() -> None:
    print("=== one PMP decision with the prepare phase on, traced ===\n")
    traced_decision(batch_chains=False)
    traced_decision(batch_chains=True)


if __name__ == "__main__":
    main()
