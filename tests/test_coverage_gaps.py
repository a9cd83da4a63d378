"""Targeted tests for branches the main suites do not reach."""

from repro.consensus.aligned_paxos import AlignedConfig, AlignedNode, aligned_regions
from repro.consensus.fast_robust import FastRobust, FastRobustConfig
from repro.broadcast.nonequivocating import neb_regions
from repro.consensus.cheap_quorum import CheapQuorumConfig, cq_regions
from repro.core.cluster import Cluster, ClusterConfig
from repro.smr.log import ReplicatedLog, smr_regions
from repro.smr.kv import KVCommand, KVStateMachine

from tests.conftest import env_of, make_kernel


class TestAlignedInternals:
    def test_region_shapes_per_variant(self):
        protected = aligned_regions(3, "protected")
        disk = aligned_regions(3, "disk")
        assert protected[0].initial_permission.can_write(0)
        assert not protected[0].initial_permission.can_write(1)
        assert all(disk[0].initial_permission.can_write(p) for p in range(3))

    def test_agent_majority_math(self):
        kernel = make_kernel(3, 4)
        node = AlignedNode(env_of(kernel, 0), "v")
        assert node._agent_majority() == (3 + 4) // 2 + 1

    def test_disk_variant_has_static_permissions(self):
        from repro.mem.permissions import Permission

        spec = aligned_regions(3, "disk")[0]
        anything = Permission.read_only(range(3))
        assert not spec.legal_change(0, spec.initial_permission, anything)


class TestSmrTakeoverCache:
    def test_new_leader_adopts_every_prior_slot(self):
        """The takeover snapshot must cover slots the new leader never
        proposed — the multi-instance safety fix."""
        from repro.consensus.omega import leader_schedule

        class Harness:
            pass

        machines = {}
        logs = {}

        from repro.consensus.base import ConsensusProtocol

        class Proto(ConsensusProtocol):
            name = "cache-probe"

            def regions(self, n, m):
                return smr_regions(n)

            def tasks(self, env, value):
                machine = KVStateMachine()
                log = ReplicatedLog(env, machine.apply)
                machines[int(env.pid)] = machine
                logs[int(env.pid)] = log

                def driver():
                    pid = int(env.pid)
                    if pid == 0:
                        for slot in range(3):
                            yield from log.propose(
                                slot, KVCommand("put", f"k{slot}", "A")
                            )
                    elif pid == 1:
                        yield env.sleep(10.0)  # after A committed 0..2
                        # B proposes slot 3 first — its takeover snapshot
                        # must reveal slots 0..2 so later proposals of
                        # those slots re-commit A's values.
                        yield from log.propose(3, KVCommand("put", "k3", "B"))
                        yield from log.propose(0, KVCommand("put", "k0", "B"))
                    while log.applied_upto < 3:
                        yield env.gate_wait(log.commit_gate, timeout=5.0)
                    env.decide(tuple(sorted(machine.snapshot().items())))

                return [("listener", log.listener()), ("driver", driver())]

        cluster = Cluster(
            Proto(),
            ClusterConfig(
                3, 3, deadline=5000,
                omega=leader_schedule([(0.0, 0), (9.0, 1)]),
            ),
        )
        result = cluster.run([None] * 3)
        assert result.all_decided and result.agreed
        final = machines[2].snapshot()
        # Slot 0 was committed by A; B's re-proposal must adopt A's value.
        assert final["k0"] == "A"
        assert final["k3"] == "B"

    def test_cache_invalidated_on_permission_loss(self):
        kernel = make_kernel(2, 3, regions=smr_regions(2))
        env = env_of(kernel, 0)
        log = ReplicatedLog(env, lambda s, c: None)
        assert log.permissions_held  # initial leader
        log.permissions_held = False
        assert log.adopt_cache == {}


class TestFastRobustNamespaces:
    def test_run_instance_with_custom_namespaces(self):
        from repro.consensus.base import ConsensusProtocol

        class Proto(ConsensusProtocol):
            name = "ns-probe"

            def __init__(self):
                self.fr = FastRobust(
                    FastRobustConfig(
                        cheap_quorum=CheapQuorumConfig(
                            leader_timeout=15.0, unanimity_timeout=25.0
                        )
                    )
                )

            def regions(self, n, m):
                return cq_regions(n, 0, namespace="cqX") + neb_regions(
                    range(n), namespace="nebX"
                )

            def tasks(self, env, value):
                def main():
                    decided = yield from self.fr.run_instance(
                        env, value, cq_namespace="cqX", neb_namespace="nebX",
                        instance="X",
                    )
                    env.decide(decided)
                    return decided

                return [("main", main())]

        cluster = Cluster(Proto(), ClusterConfig(3, 3, deadline=60_000))
        result = cluster.run(["nsv-1", "nsv-2", "nsv-3"])
        assert result.all_decided and result.agreed
        assert result.decided_values == {"nsv-1"}
        assert "X" in result.metrics.instance_decisions
