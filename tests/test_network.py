"""Network unit tests: inboxes, waiters, integrity bookkeeping."""

from repro.net.messages import Envelope
from repro.net.network import Network, RecvWaiter
from repro.types import ProcessId
from tests.conftest import env_of, make_kernel, run_single

P0, P1 = ProcessId(0), ProcessId(1)


def _env(src=P0, dst=P1, topic="t", payload="x"):
    return Envelope(src=src, dst=dst, topic=topic, payload=payload, sent_at=0.0)


class TestDelivery:
    def test_delivery_queues_without_waiter(self):
        net = Network(2)
        assert net.deliver(_env()) is None
        assert net.pending_count(P1) == 1

    def test_duplicate_envelope_dropped(self):
        net = Network(2)
        env = _env()
        net.deliver(env)
        assert net.deliver(env) is None
        assert net.dropped == 1
        assert net.pending_count(P1) == 1

    def test_matching_waiter_consumes_directly(self):
        net = Network(2)
        woken = []
        waiter = RecvWaiter(P1, token=1, topic="t", match=None,
                            wake=lambda e: woken.append(e))
        net.park(waiter)
        returned = net.deliver(_env())
        assert returned is waiter
        assert net.pending_count(P1) == 0  # consumed, not queued

    def test_topic_mismatch_leaves_waiter_parked(self):
        net = Network(2)
        waiter = RecvWaiter(P1, token=1, topic="other", match=None, wake=None)
        net.park(waiter)
        assert net.deliver(_env(topic="t")) is None
        assert net.waiters[P1] == [waiter]


class TestConsume:
    def test_try_consume_respects_topic_and_match(self):
        net = Network(2)
        net.deliver(_env(payload=1, topic="a"))
        net.deliver(_env(payload=2, topic="b"))
        net.deliver(_env(payload=3, topic="b"))
        assert net.try_consume(P1, "b", None).payload == 2
        assert net.try_consume(P1, "b", lambda e: e.payload == 3).payload == 3
        assert net.try_consume(P1, "b", None) is None
        assert net.try_consume(P1, "a", None).payload == 1

    def test_unpark_removes_by_token(self):
        net = Network(2)
        net.park(RecvWaiter(P1, token=1, topic=None, match=None, wake=None))
        net.park(RecvWaiter(P1, token=2, topic=None, match=None, wake=None))
        net.unpark(P1, 1)
        assert [w.token for w in net.waiters[P1]] == [2]


class TestCrashHandling:
    def test_drop_process_clears_state(self):
        net = Network(2)
        net.deliver(_env())
        net.park(RecvWaiter(P1, token=9, topic=None, match=None, wake=None))
        net.drop_process(P1)
        assert net.pending_count(P1) == 0
        assert net.waiters[P1] == []


class TestEnvelope:
    def test_unique_ids(self):
        # The sending kernel numbers its own messages: unique within one
        # kernel, and a second kernel numbers its run the same way.
        def sent_ids():
            kernel = make_kernel(n_processes=2, n_memories=0)
            env = env_of(kernel, 0)

            def gen():
                yield env.send(1, "a")
                yield env.send(1, "b")

            run_single(kernel, 0, gen())
            return [e.msg_id for e in kernel.network.inboxes[P1]]

        assert sent_ids() == sent_ids() == [1, 2]

    def test_repr_mentions_endpoints(self):
        text = repr(_env())
        assert "p1" in text and "p2" in text
