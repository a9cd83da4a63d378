"""Signatures: unforgeability, canonical encoding, verification."""

import dataclasses
import enum
import hashlib
import pickle
import sys
from typing import Any

import pytest
from hypothesis import given, strategies as st

from repro.core.cluster import Cluster, ClusterConfig
from repro.crypto import signatures
from repro.crypto.signatures import (
    SignatureAuthority,
    Signed,
    canonical_bytes,
)
from repro.errors import SignatureError
from repro.obs import attach, run_digest
from repro.smr.byzantine_log import ByzantineLogConfig, ByzantineReplicatedLog
from repro.smr.kv import KVCommand
from repro.smr.log import Batch
from repro.trusted.history import TO_ALL, RecvEvent, SentEvent
from repro.trusted.transport import TMessage
from repro.types import BOTTOM, OpStatus, ProcessId


@pytest.fixture
def authority():
    return SignatureAuthority(seed=1)


class TestSigning:
    def test_sign_and_verify(self, authority):
        key = authority.key_for(ProcessId(0))
        signed = authority.sign(key, ("hello", 1))
        assert authority.verify(ProcessId(0), signed)
        assert authority.valid(signed)

    def test_wrong_signer_rejected(self, authority):
        key = authority.key_for(ProcessId(0))
        signed = authority.sign(key, "payload")
        assert not authority.verify(ProcessId(1), signed)

    def test_tampered_payload_rejected(self, authority):
        key = authority.key_for(ProcessId(0))
        signed = authority.sign(key, "original")
        forged = Signed("tampered", signed.signature)
        assert not authority.verify(ProcessId(0), forged)

    def test_cross_signer_tag_reuse_rejected(self, authority):
        # p1's tag on a payload does not validate as p2's signature.
        key0 = authority.key_for(ProcessId(0))
        signed = authority.sign(key0, "payload")
        from repro.crypto.signatures import Signature

        forged = Signed("payload", Signature(ProcessId(1), signed.signature.tag))
        assert not authority.verify(ProcessId(1), forged)

    def test_non_signed_objects_rejected(self, authority):
        assert not authority.verify(ProcessId(0), "not-signed")
        assert not authority.verify(ProcessId(0), None)
        assert not authority.valid(42)

    def test_key_is_stable(self, authority):
        assert authority.key_for(ProcessId(0)) is authority.key_for(ProcessId(0))

    def test_foreign_authority_key_rejected(self, authority):
        other = SignatureAuthority(seed=2)
        foreign_key = other.key_for(ProcessId(0))
        with pytest.raises(SignatureError):
            authority.sign(foreign_key, "x")

    def test_different_seeds_different_tags(self):
        a = SignatureAuthority(seed=1)
        b = SignatureAuthority(seed=2)
        sa = a.sign(a.key_for(ProcessId(0)), "x")
        sb = b.sign(b.key_for(ProcessId(0)), "x")
        assert sa.signature.tag != sb.signature.tag

    def test_sign_count(self, authority):
        key = authority.key_for(ProcessId(0))
        authority.sign(key, 1)
        authority.sign(key, 2)
        assert authority.sign_count == 2

    def test_nested_signed_payloads(self, authority):
        # Cheap Quorum signs signed values (copies of the leader's value).
        leader = authority.key_for(ProcessId(0))
        follower = authority.key_for(ProcessId(1))
        inner = authority.sign(leader, "decision")
        outer = authority.sign(follower, inner)
        assert authority.verify(ProcessId(1), outer)
        assert authority.verify(ProcessId(0), outer.payload)


class _Color(enum.Enum):
    RED = 1
    BLUE = 2


class TestCanonicalBytes:
    def test_primitives(self):
        for value in (None, True, False, 0, -5, 3.5, "s", b"b", BOTTOM):
            assert canonical_bytes(value) == canonical_bytes(value)

    def test_bool_int_distinct(self):
        assert canonical_bytes(True) != canonical_bytes(1)
        assert canonical_bytes(False) != canonical_bytes(0)

    def test_dict_order_irrelevant(self):
        assert canonical_bytes({"a": 1, "b": 2}) == canonical_bytes({"b": 2, "a": 1})

    def test_set_order_irrelevant(self):
        assert canonical_bytes({3, 1, 2}) == canonical_bytes({1, 2, 3})

    def test_tuple_vs_nested_distinct(self):
        assert canonical_bytes((1, 2, 3)) != canonical_bytes((1, (2, 3)))

    def test_string_length_framing(self):
        # "ab" + "c" must not collide with "a" + "bc".
        assert canonical_bytes(("ab", "c")) != canonical_bytes(("a", "bc"))

    def test_enum_support(self):
        assert canonical_bytes(_Color.RED) != canonical_bytes(_Color.BLUE)

    def test_unencodable_raises(self):
        with pytest.raises(TypeError):
            canonical_bytes(object())

    @given(
        st.recursive(
            st.none()
            | st.booleans()
            | st.integers()
            | st.text(max_size=20)
            | st.binary(max_size=20),
            lambda children: st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(st.text(max_size=5), children, max_size=4),
            max_leaves=20,
        )
    )
    def test_deterministic_for_arbitrary_values(self, value):
        assert canonical_bytes(value) == canonical_bytes(value)

    @given(st.integers(), st.integers())
    def test_distinct_ints_distinct_encodings(self, a, b):
        if a != b:
            assert canonical_bytes(a) != canonical_bytes(b)


def _golden_value(authority):
    """A signed trusted message exercising every encoder branch: a history
    citing one batch twice, a frozenset, a dict, an enum, bytes and ⊥."""
    batch = Batch((
        KVCommand("put", "k1", "v1", client=3, request_id=1),
        KVCommand("get", "k2", client=4, request_id=2),
        KVCommand("delete", "k3"),
    ))
    history = (
        SentEvent(1, TO_ALL, ("propose", 0, batch)),
        RecvEvent(ProcessId(1), 1, TO_ALL, ("ack", 0, batch)),
    )
    message = (
        "decide",
        frozenset({9, 10, 200, -1, "x", (1, 2)}),
        {"b": [1.5, None], "a": True},
        OpStatus.NAK,
        BOTTOM,
        b"\x00raw",
    )
    payload = TMessage(message, history, TO_ALL)
    return authority.sign(authority.key_for(ProcessId(0)), payload)


class TestGoldenEncoding:
    """Pins the encoding itself: any change to the bytes fails here, since
    it would change every tag, digest and schedule downstream."""

    SHA256 = "80063c21447c0b2764648d5536f255297f46f0c392300fbb9d1716f4713e7c5e"
    TAG = "89b960c14f4f3ddc916b713889a58a11701b2a527162e259758e04e109c45448"

    def test_golden_bytes_and_tag(self):
        signed = _golden_value(SignatureAuthority(seed=42))
        assert hashlib.sha256(canonical_bytes(signed)).hexdigest() == self.SHA256
        assert signed.signature.tag.hex() == self.TAG

    def test_golden_bytes_stable_once_memoised(self):
        signed = _golden_value(SignatureAuthority(seed=42))
        for _ in range(3):
            canonical_bytes((signed, signed))
            assert hashlib.sha256(canonical_bytes(signed)).hexdigest() == self.SHA256


@dataclasses.dataclass(frozen=True)
class _Pair:
    left: Any
    right: Any


@dataclasses.dataclass
class _Box:
    item: Any


_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.text(max_size=8)
    | st.binary(max_size=8)
)


def _extend(children):
    command = st.builds(
        KVCommand, st.sampled_from(("put", "get", "delete")), st.text(max_size=4), children
    )
    return (
        st.lists(children, max_size=3).map(tuple)
        | st.lists(children, max_size=3)
        | st.dictionaries(st.text(max_size=4), children, max_size=3)
        | st.builds(_Pair, children, children)
        | st.builds(_Box, children)
        | command
        | st.lists(command, max_size=3).map(Batch)
        | st.frozensets(st.builds(_Pair, st.integers(), st.text(max_size=4)), max_size=3)
    )


_values = st.recursive(_leaves, _extend, max_leaves=25)


def _rebuild(value):
    """A structurally equal copy of *value* sharing no record objects."""
    if isinstance(value, tuple):
        return tuple(_rebuild(item) for item in value)
    if isinstance(value, list):
        return [_rebuild(item) for item in value]
    if isinstance(value, dict):
        return {key: _rebuild(item) for key, item in value.items()}
    if isinstance(value, frozenset):
        return frozenset(_rebuild(item) for item in value)
    if isinstance(value, _Pair):
        return _Pair(_rebuild(value.left), _rebuild(value.right))
    if isinstance(value, _Box):
        return _Box(_rebuild(value.item))
    if isinstance(value, KVCommand):
        return KVCommand(value.op, value.key, _rebuild(value.value))
    if isinstance(value, Batch):
        return Batch(_rebuild(value.commands))
    return value


def _memo(obj):
    return getattr(obj, "_canon_", None)


class TestEncodingMemo:
    """The memo contract: immutable nested values only, never the call
    root, and invisible to everything but the encoder's speed."""

    @given(_values)
    def test_memoised_encoding_equals_fresh_encoding(self, value):
        first = canonical_bytes((value, value))
        again = canonical_bytes((value, value))
        assert first == again == canonical_bytes((_rebuild(value), _rebuild(value)))
        assert canonical_bytes(value) == canonical_bytes(_rebuild(value))

    def test_call_root_is_never_memoised(self):
        pair, batch = _Pair(1, 2), Batch((KVCommand("put", "k", 1),))
        canonical_bytes(pair)
        canonical_bytes(batch)
        assert _memo(pair) is None and _memo(batch) is None
        canonical_bytes((pair, batch))
        assert _memo(pair) == canonical_bytes(pair)
        assert _memo(batch) == canonical_bytes(batch)

    def test_mutable_subtree_is_never_memoised(self):
        holder = _Pair([1, 2], "x")
        outer = _Pair(holder, _Pair(3, 4))
        before = canonical_bytes((outer,))
        holder.left.append(3)
        after = canonical_bytes((outer,))
        assert before != after
        assert after == canonical_bytes((_Pair(_Pair([1, 2, 3], "x"), _Pair(3, 4)),))
        # The list's holder and its ancestor stay unmemoised; the immutable
        # sibling is memoised.
        assert _memo(holder) is None and _memo(outer) is None
        assert _memo(outer.right) is not None

    def test_non_frozen_dataclass_is_never_memoised(self):
        box = _Box(_Pair(1, 2))
        outer = _Pair(box, 0)
        canonical_bytes((outer,))
        box.item = _Pair(1, 3)
        assert canonical_bytes((outer,)) == canonical_bytes((_Pair(_Box(_Pair(1, 3)), 0),))
        assert _memo(box) is None and _memo(outer) is None

    def test_memo_is_invisible(self):
        def build():
            batch = Batch((KVCommand("put", "k", 1, client=1, request_id=1),))
            return _Pair(SentEvent(1, TO_ALL, ("propose", 0, batch)), batch)

        value, fresh = build(), build()
        canonical_bytes((value,))
        assert _memo(value) is not None and _memo(value.right) is not None
        assert value == fresh and fresh == value
        assert hash(value) == hash(fresh)
        assert repr(value) == repr(fresh)
        replaced = dataclasses.replace(value, right=Batch(()))
        assert _memo(replaced) is None
        assert canonical_bytes(replaced) == canonical_bytes(
            dataclasses.replace(fresh, right=Batch(()))
        )
        restored = pickle.loads(pickle.dumps(value))
        assert restored == fresh and repr(restored) == repr(fresh)
        assert canonical_bytes((restored,)) == canonical_bytes((fresh,))

    def test_memo_is_invisible_to_the_run_digest(self):
        def digest(memoise: bool) -> str:
            scripts = _batch_scripts(slots=2, commands=4)
            if memoise:
                canonical_bytes((scripts,))
            proto = ByzantineReplicatedLog(scripts, ByzantineLogConfig(n_slots=2))
            cluster = Cluster(proto, ClusterConfig(3, 3, deadline=60_000))
            attach(cluster.kernel)
            assert cluster.run([None] * 3).agreed
            return run_digest(cluster.kernel)

        assert digest(memoise=True) == digest(memoise=False)


def _batch_scripts(slots: int, commands: int):
    return {
        pid: [
            Batch(tuple(
                KVCommand(
                    "put", f"k{pid}.{slot}.{i}", i,
                    client=pid, request_id=slot * commands + i,
                )
                for i in range(commands)
            ))
            for slot in range(slots)
        ]
        for pid in range(3)
    }


class TestEncodeWorkGuard:
    """Exact, host-independent work counter: ``_encode`` node visits per
    ``canonical_bytes`` call over a small Byzantine log run (n=3, three
    slots of 16-command batches).  Every trusted message carries its
    sender's history, so without the memo each call re-walks it: about
    803 visits per call (422 calls).  With the memo: about 7."""

    MAX_VISITS_PER_CALL = 20

    def test_visits_per_call_stay_bounded(self, monkeypatch):
        counts = {"visits": 0, "calls": 0}
        encode, original = signatures._encode, signatures.canonical_bytes

        def counting_encode(*args):
            counts["visits"] += 1
            return encode(*args)

        def counting_canonical_bytes(obj):
            counts["calls"] += 1
            return original(obj)

        monkeypatch.setattr(signatures, "_encode", counting_encode)
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(module, "canonical_bytes", None) is original:
                monkeypatch.setattr(module, "canonical_bytes", counting_canonical_bytes)
        proto = ByzantineReplicatedLog(
            _batch_scripts(slots=3, commands=16), ByzantineLogConfig(n_slots=3)
        )
        result = Cluster(proto, ClusterConfig(3, 3, deadline=60_000)).run([None] * 3)
        assert result.all_decided and result.agreed
        assert counts["calls"] > 100
        assert counts["visits"] / counts["calls"] <= self.MAX_VISITS_PER_CALL
