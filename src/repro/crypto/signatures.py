"""Unforgeable signatures via per-process HMAC keys.

Design: a :class:`SignatureAuthority` (one per simulation) derives a secret
key per process id.  ``sign`` requires the :class:`SigningKey` capability —
the kernel hands each process only its own — while ``verify`` is public.
Payloads are serialised with a small canonical encoder so that equal values
sign identically regardless of dict ordering or dataclass identity.

The encoder memoises: a nested value object whose whole subtree is
immutable keeps its encoding on itself, and later encodings append those
bytes instead of walking it again.  Signed payloads share most of their
structure (every trusted message carries its sender's history, and the
same batches and proofs are signed, digested and verified over and over),
so this keeps encoding linear in the new parts of a payload.  The contract:

* only immutable nested values are memoised: a frozen dataclass (stored
  in its ``__dict__``) or a ``_signable_fields_`` slot class with a
  ``_canon_`` slot, and only when nothing beneath it is a list, set, dict
  or non-frozen dataclass; those and every ancestor of one are always
  encoded afresh;
* the root of a :func:`canonical_bytes` call is never memoised (it is
  typically a one-use message);
* there is no global cache of encodings: a memo lives and dies with its
  value (only each record type's field layout is kept module-wide).

``_signable_fields_`` slot classes are treated as immutable: mutating one
after it was signed would make later encodings of an enclosing memoised
value stale.
"""

from __future__ import annotations

import enum
import hashlib
import hmac
from dataclasses import dataclass, fields, is_dataclass
from operator import itemgetter
from typing import Any, Dict, Optional

from repro.errors import SignatureError
from repro.types import ProcessId, is_bottom


def canonical_bytes(obj: Any) -> bytes:
    """Deterministically encode *obj* for signing.

    Supports the value types protocols put in messages and registers:
    primitives, tuples/lists, sets/frozensets, dicts, dataclasses (including
    :class:`Signed`/:class:`Signature`), and the register bottom ``⊥``.
    """
    out: list = []
    _encode(obj, out, False)
    return b"".join(out)


# Whether a record type (dataclass or ``_signable_fields_`` class) keeps
# its encoding: never because it is mutable, never for lack of a place to
# keep it (a slotted dataclass, a slot class without ``_canon_``), or in
# ``_canon_`` (the instance ``__dict__`` of a frozen dataclass, or a slot).
_MUTABLE, _UNSTORED, _STORED = range(3)

#: record type -> (header, ((field name, encoded name), ...), memo kind),
#: or False for any other type; computed once per type
_LAYOUTS: Dict[type, Any] = {}


def _layout(cls: type) -> Any:
    if is_dataclass(cls):
        names = tuple(f.name for f in fields(cls) if f.compare)
        if not cls.__dataclass_params__.frozen:
            kind = _MUTABLE
        else:
            kind = _STORED if cls.__dictoffset__ else _UNSTORED
    elif getattr(cls, "_signable_fields_", None) is not None:
        # Hand-written __slots__ value objects (Batch, KVCommand, ...)
        # declare their comparable fields explicitly; encoded in the same
        # shape as a dataclass of the same name and fields.
        names = tuple(cls._signable_fields_)
        kind = _STORED if hasattr(cls, "_canon_") else _UNSTORED
    else:
        return False
    pairs = []
    for name in names:
        piece: list = []
        _encode(name, piece)
        pairs.append((name, b"".join(piece)))
    return b"d" + cls.__name__.encode() + b"<", tuple(pairs), kind


def _encode(obj: Any, out: list, nested: bool = True) -> bool:
    """Append the encoding of *obj* to *out*; return whether its whole
    subtree is immutable (and so may be memoised by an enclosing value)."""
    if obj is None:
        out.append(b"N;")
    elif is_bottom(obj):
        out.append(b"_;")
    elif isinstance(obj, bool):
        out.append(b"b1;" if obj else b"b0;")
    elif isinstance(obj, int):
        out.append(b"i" + str(obj).encode() + b";")
    elif isinstance(obj, float):
        out.append(b"f" + repr(obj).encode() + b";")
    elif isinstance(obj, str):
        raw = obj.encode()
        out.append(b"s" + str(len(raw)).encode() + b":" + raw)
    elif isinstance(obj, bytes):
        out.append(b"y" + str(len(obj)).encode() + b":" + obj)
    elif isinstance(obj, (tuple, list)):
        immutable = isinstance(obj, tuple)
        out.append(b"(")
        for item in obj:
            if not _encode(item, out):
                immutable = False
        out.append(b")")
        return immutable
    elif isinstance(obj, (set, frozenset)):
        immutable = isinstance(obj, frozenset)
        pieces = []
        for item in obj:
            piece: list = []
            if not _encode(item, piece):
                immutable = False
            pieces.append(b"".join(piece))
        pieces.sort()
        out.append(b"{")
        out.extend(pieces)
        out.append(b"}")
        return immutable
    elif isinstance(obj, dict):
        pairs = []
        for key, value in obj.items():
            piece = []
            _encode(key, piece)
            pairs.append((b"".join(piece), value))
        pairs.sort(key=itemgetter(0))
        out.append(b"[")
        for key_bytes, value in pairs:
            out.append(key_bytes)
            _encode(value, out)
        out.append(b"]")
        return False
    else:
        cls = type(obj)
        layout = _LAYOUTS.get(cls)
        if layout is None:
            layout = _LAYOUTS[cls] = _layout(cls)
        if layout:
            header, pairs, kind = layout
            memo = getattr(obj, "_canon_", None) if kind == _STORED else None
            if memo is not None:
                out.append(memo)
                return True
            start = len(out)
            out.append(header)
            immutable = kind != _MUTABLE
            for name, encoded_name in pairs:
                out.append(encoded_name)
                if not _encode(getattr(obj, name), out):
                    immutable = False
            out.append(b">")
            if immutable and nested and kind == _STORED:
                memo = b"".join(out[start:])
                del out[start:]
                out.append(memo)
                # object.__setattr__ passes a frozen dataclass's guard
                object.__setattr__(obj, "_canon_", memo)
            return immutable
        if isinstance(obj, enum.Enum):
            out.append(b"e" + cls.__name__.encode() + b"." + str(obj.name).encode() + b";")
        else:
            raise TypeError(f"cannot canonically encode {cls.__name__}: {obj!r}")
    return True


@dataclass(frozen=True)
class Signature:
    """An HMAC tag binding a payload digest to a signer identity."""

    signer: ProcessId
    tag: bytes


@dataclass(frozen=True)
class Signed:
    """A payload together with its signature.

    ``payload`` is the signed value; ``signature.signer`` claims authorship,
    and :meth:`SignatureAuthority.verify` checks the claim.
    """

    payload: Any
    signature: Signature

    @property
    def signer(self) -> ProcessId:
        return self.signature.signer


class SigningKey:
    """Capability to sign as one process.

    Only the :class:`SignatureAuthority` can mint these; the kernel passes
    each process exactly its own key.  The secret is deliberately kept on a
    private attribute: Byzantine strategies receive the key *object* for
    their own identity only.
    """

    __slots__ = ("pid", "_secret", "_authority")

    def __init__(self, pid: ProcessId, secret: bytes, authority: "SignatureAuthority"):
        self.pid = pid
        self._secret = secret
        self._authority = authority

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SigningKey p{int(self.pid) + 1}>"


class SignatureAuthority:
    """Mints per-process keys, signs, and verifies.

    A single instance is shared by one simulation.  Verification is public
    knowledge (any process can call it); signing requires a key capability.
    """

    def __init__(self, seed: int = 0) -> None:
        self._root = hashlib.sha256(f"repro-authority:{seed}".encode()).digest()
        self._keys: dict = {}
        self.sign_count = 0

    def key_for(self, pid: ProcessId) -> SigningKey:
        """The signing key for *pid* (idempotent)."""
        if pid not in self._keys:
            secret = hmac.new(self._root, f"key:{int(pid)}".encode(), "sha256").digest()
            self._keys[pid] = SigningKey(pid, secret, self)
        return self._keys[pid]

    def sign(self, key: SigningKey, payload: Any) -> Signed:
        """Sign *payload* with *key*, returning a :class:`Signed` wrapper."""
        if key._authority is not self:
            raise SignatureError("signing key belongs to a different authority")
        tag = hmac.new(key._secret, canonical_bytes(payload), "sha256").digest()
        self.sign_count += 1
        return Signed(payload, Signature(key.pid, tag))

    def verify(self, signer: ProcessId, signed: Optional[Signed]) -> bool:
        """The paper's ``sValid(p, v)``: is *signed* a valid signature by *signer*?"""
        if not isinstance(signed, Signed):
            return False
        if signed.signature.signer != signer:
            return False
        key = self.key_for(signer)
        try:
            expected = hmac.new(
                key._secret, canonical_bytes(signed.payload), "sha256"
            ).digest()
        except TypeError:
            return False
        return hmac.compare_digest(expected, signed.signature.tag)

    def valid(self, signed: Optional[Signed]) -> bool:
        """Verify against the signer the signature itself claims."""
        return isinstance(signed, Signed) and self.verify(signed.signature.signer, signed)
