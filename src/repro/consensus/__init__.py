"""The paper's consensus algorithms and the baselines they are compared to.

================================  =========================================
module                            algorithm
================================  =========================================
``paxos``                         classic message-passing Paxos (baseline)
``fast_paxos``                    Fast Paxos fast-round baseline
``disk_paxos``                    Disk Paxos (Gafni & Lamport) baseline
``protected_memory_paxos``        Algorithm 7 (crash, 2-deciding, n >= f+1)
``aligned_paxos``                 Algorithms 9-15 (combined-majority crash)
``cheap_quorum``                  Algorithms 4-5 (Byzantine fast path)
``preferential_paxos``            Algorithm 8 (priority-respecting WBA)
``robust_backup``                 Definition 2 (Clement et al. translation)
``fast_robust``                   Section 4.3 composition (Theorem 4.9)
================================  =========================================
"""

from repro.consensus.ballots import Ballot
from repro.consensus.base import ConsensusProtocol, ProposerOutcome
from repro.consensus.omega import crash_aware_omega, leader_schedule, stable_leader
from repro.consensus.probes import (
    probe_write_grant,
    read_quorum_chain,
    read_quorum_watermarks,
    watermark_key,
)

__all__ = [
    "Ballot",
    "ConsensusProtocol",
    "ProposerOutcome",
    "crash_aware_omega",
    "leader_schedule",
    "stable_leader",
    "probe_write_grant",
    "read_quorum_chain",
    "read_quorum_watermarks",
    "watermark_key",
]
