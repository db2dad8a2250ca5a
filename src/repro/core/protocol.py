"""Key-value request/response wire protocol (paper §II, §III-B/C).

Janus adopts "a key-value request-response mechanism for easy integration":
a QoS request carries a string QoS key; the QoS response is a boolean where
TRUE admits and FALSE denies.  This module defines the two message types and
a compact binary codec used on the router↔server UDP path, plus the HTTP
query-string form used on the client→router path.

Version-1 datagram layout (network byte order), one message per datagram::

    offset  size  field
    0       2     magic 0x4A51 ("JQ")
    2       1     version (1)
    3       1     type (1=request, 2=response)
    4       8     request id (u64) — matches responses to retried requests
    request:
    12      2     key length L (u16)
    14      L     key, UTF-8
    14+L    8     cost (f64) — credits to consume, normally 1.0
    response:
    12      1     verdict (0=deny, 1=admit)
    13      1     flags (bit0: default-reply, i.e. produced after retry
                  exhaustion rather than by a QoS server)

Version-2 **batch frames** carry up to :data:`MAX_FRAME_MESSAGES` messages
of one type in a single datagram, so a multiplexed router channel can
amortize the per-datagram syscall and wakeup cost (the router tier's
throughput ceiling)::

    offset  size  field
    0       2     magic 0x4A51 ("JQ")
    2       1     version (2)
    3       1     type byte: low 7 bits 1=request frame, 2=response frame;
                  high bit 0x80 = TRACED flag (reserved by the
                  observability plane — see below)
    4       2     count C (u16, 1 <= C <= MAX_FRAME_MESSAGES)
    [6      8     trace id (u64, non-zero) — present iff the TRACED flag
                  is set; identifies the distributed trace this frame's
                  requests belong to]
    6|14    ...   C length-prefixed entries, packed back to back:
                  request entry:  8  request id (u64)
                                  2  key length L (u16)
                                  L  key, UTF-8
                                  8  cost (f64)
                  response entry: 8  request id (u64)
                                  1  verdict (0=deny, 1=admit)
                                  1  flags (bit0 = default-reply)

A frame must consume its datagram exactly: a declared count that disagrees
with the payload is a protocol error.  Decoding is zero-copy — entries are
unpacked straight out of a ``memoryview`` of the datagram with
``unpack_from``; no per-entry byte-slicing copies are made.  Receivers
dispatch on the version byte (:func:`decode_any`), so v1 single-message
datagrams and v2 frames coexist on one port: a server answers each request
in the version it arrived with.

The TRACED flag bit (0x80 of the type byte) lets a sampled request carry
its 64-bit trace id across the router→server hop at a cost of 8 bytes per
*frame* — only frames carrying a sampled request set it, so v1 peers and
untraced-v2 frames are byte-identical to the pre-tracing protocol.  A
receiver that understands the flag answers a traced request frame with a
traced response frame (same trace id); the id is otherwise opaque.  A
router speaking v1 to a legacy server simply drops the flag (v1 datagrams
have no room for it), which degrades the trace to client/router spans
without affecting the exchange.

The request id lets a router discard a stale response that arrives after it
has already retried: the paper's routers resend "the same request ... until
a response is received" (§III-C), so responses must be idempotently
matchable.

**Credit-lease frames (v2 types 3/4/5).**  A router that sees a hot key may
ask the owning server for a short-TTL *lease* of bucket credit and then
admit that key locally, with zero wire traffic, while the lease is live:

- ``LEASE_REQ`` (type 3, router→server) — ``(request id, key, credits
  wanted, ttl_ms, return_credits, return_lease_id)``.  One frame expresses
  acquisition (*want k*), renewal (*return the unused remainder of lease
  ``return_lease_id`` and want k fresh*) and a pure return (*want 0*).
- ``LEASE_GRANT`` (type 4, server→router) — ``(request id, key, lease_id,
  credits granted, ttl_ms)``.  ``credits == 0`` (with ``lease_id == 0``)
  is a refusal.  The server debits the bucket **at grant time**, so the
  aggregate the system can admit never exceeds the credits the buckets
  issued; see ``docs/PROTOCOL.md`` for the over-admission bound.
- ``LEASE_REVOKE`` (type 5, server→router) — ``(lease_id, key)``.  Sent on
  a rule push so stale leases die before the TTL would expire them; a
  router drops its cached lease on receipt and falls back to wire checks.

Lease frames reuse the v2 batch-frame envelope (same header, count,
TRACED flag), so peers that predate leasing fail them with the same
"unknown frame type" path as any other garbage and the lease-free wire
image is untouched.

**Reshard frames (v2 types 6/7/8).**  The live-resharding plane
(:mod:`repro.runtime.reshard`) moves warm bucket state from an old owner
to a new owner when the cluster grows or shrinks:

- ``SNAPSHOT_XFER`` (type 6, old owner/coordinator→new owner) — one
  *chunk* of a transfer: a ``(xfer id, epoch, seq, total)`` head followed
  by ``count`` serialized :class:`~repro.core.admission.BucketSnapshot`
  entries, **including each bucket's live lease ledger**, so the
  over-admission accounting survives the move.  A transfer too large for
  one datagram is split into ``total`` chunks, each independently
  ack'able and idempotently re-appliable.
- ``XFER_ACK`` (type 7, new owner→sender) — ``(xfer id, epoch, seq)``
  per entry.  The reserved xfer id 0 (:data:`XFER_ACK_TOPOLOGY`) acks a
  TOPOLOGY frame instead, with ``seq`` echoing the phase.
- ``TOPOLOGY`` (type 8, coordinator→server/router) — an epoch-numbered
  two-phase topology announcement: ``(epoch, phase)`` plus the full
  ordered backend address list (``count`` entries).  PREPARE opens the
  transfer window on the old owners (moved keys get degraded default
  replies, never double-spent credit); COMMIT cuts routers over and
  lifts the freeze; ABORT lifts it without cutover.

Like lease frames, all three reuse the v2 envelope; pre-reshard peers
reject them via the "unknown frame type" path, and every frame type
from PR 8 and earlier is byte-identical.
"""

from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass
from typing import Sequence

from repro.core.admission import BucketSnapshot, LeaseSnapshot
from repro.core.errors import ProtocolError

__all__ = ["QoSRequest", "QoSResponse", "LeaseRequest", "LeaseGrant",
           "LeaseRevoke", "SnapshotChunk", "XferAck", "TopologyUpdate",
           "RequestIdGenerator", "decode", "decode_any",
           "decode_any_traced", "encode_request_frame",
           "encode_request_frame_parts", "encode_response_frame",
           "encode_response_frame_bits",
           "encode_lease_request_frame", "encode_lease_grant_frame",
           "encode_lease_revoke_frame",
           "encode_snapshot_xfer_frame", "encode_xfer_ack_frame",
           "encode_topology_frame", "snapshot_entry_size",
           "decode_frame", "decode_frame_traced",
           "MAX_KEY_BYTES", "MAX_FRAME_MESSAGES", "MAX_DATAGRAM_BYTES",
           "FRAME_HEADER_BYTES", "FRAME_REQ_ENTRY_OVERHEAD",
           "FLAG_FRAME_TRACED", "TRACE_ID_BYTES", "MAX_LEASE_TTL_MS",
           "MAX_EPOCH", "MAX_XFER_CHUNKS", "MAX_BUCKET_LEASES",
           "TOPOLOGY_PREPARE", "TOPOLOGY_COMMIT", "TOPOLOGY_ABORT",
           "XFER_ACK_TOPOLOGY", "SNAPSHOT_XFER_HEAD_BYTES",
           "MAGIC", "VERSION", "VERSION2"]

MAGIC = 0x4A51
VERSION = 1
VERSION2 = 2
_TYPE_REQUEST = 1
_TYPE_RESPONSE = 2
_TYPE_LEASE_REQ = 3
_TYPE_LEASE_GRANT = 4
_TYPE_LEASE_REVOKE = 5
_TYPE_SNAPSHOT_XFER = 6
_TYPE_XFER_ACK = 7
_TYPE_TOPOLOGY = 8

_HEADER = struct.Struct("!HBBQ")          # magic, version, type, request id
_REQ_KEY_LEN = struct.Struct("!H")
_REQ_COST = struct.Struct("!d")
_RESP_BODY = struct.Struct("!BB")

_FRAME_HEADER = struct.Struct("!HBBH")    # magic, version, type, count
_ENTRY_REQ_HEAD = struct.Struct("!QH")    # request id, key length
_ENTRY_RESP = struct.Struct("!QBB")       # request id, verdict, flags

# Lease entries share the (u64, key-length) head shape of request entries;
# the id means "request id" for REQ/GRANT and "lease id" for REVOKE.
_ENTRY_LEASE_HEAD = struct.Struct("!QH")
_LEASE_REQ_TAIL = struct.Struct("!ddQI")  # credits, return credits,
#                                           return lease id, ttl_ms
_LEASE_GRANT_TAIL = struct.Struct("!QdI")  # lease id, credits, ttl_ms

# Reshard frames (types 6/7/8).  A SNAPSHOT_XFER frame is one chunk of a
# transfer: chunk head, then `count` bucket entries, each carrying its
# live lease-ledger entries.  Holders ride as (host-length, host, port)
# with length 0 meaning "no holder recorded".
_XFER_HEAD = struct.Struct("!QIHH")       # xfer id, epoch, seq, total
_ENTRY_BUCKET_KEY = struct.Struct("!H")   # key length
_ENTRY_BUCKET_TAIL = struct.Struct("!dddH")  # capacity, refill rate,
#                                              credit, lease count
_ENTRY_XFER_LEASE = struct.Struct("!QdIB")   # lease id, granted credits,
#                                              ttl_ms, holder host length
_HOLDER_PORT = struct.Struct("!H")
_ENTRY_ACK = struct.Struct("!QIH")        # xfer id, epoch, seq
_TOPOLOGY_HEAD = struct.Struct("!IB")     # epoch, phase
_ENTRY_ADDR_HOST = struct.Struct("!B")    # host length
_ENTRY_ADDR_PORT = struct.Struct("!H")

#: Maximum encoded key size; u16 length prefix, and a QoS key should always
#: fit one UDP datagram with room to spare.
MAX_KEY_BYTES = 4096

#: Maximum messages per v2 batch frame (u16 count field, but bounded far
#: below it so a worst-case frame of maximum-length keys stays well under
#: the UDP payload limit for typical keys).
MAX_FRAME_MESSAGES = 256

#: Largest UDP payload this codec will emit (IPv4 65535 - 20 IP - 8 UDP).
MAX_DATAGRAM_BYTES = 65507

#: v2 frame header size and fixed per-request-entry overhead (entry head
#: plus cost), for senders budgeting a frame against the datagram limit.
FRAME_HEADER_BYTES = _FRAME_HEADER.size
FRAME_REQ_ENTRY_OVERHEAD = _ENTRY_REQ_HEAD.size + _REQ_COST.size

FLAG_DEFAULT_REPLY = 0x01

#: High bit of the v2 frame type byte: the frame header is followed by a
#: non-zero u64 trace id (see the module docstring).  The low 7 bits stay
#: the frame type, so untraced frames are byte-identical to pre-tracing
#: encodings.
FLAG_FRAME_TRACED = 0x80
_TYPE_MASK = 0x7F
_TRACE_ID = struct.Struct("!Q")
TRACE_ID_BYTES = _TRACE_ID.size

#: Lease TTLs ride the wire as u32 milliseconds; one hour is already far
#: beyond any sane lease and keeps arithmetic clear of u32 overflow.
MAX_LEASE_TTL_MS = 3_600_000

#: Topology epochs ride the wire as u32; epoch 0 means "never resharded"
#: and is a protocol error on the wire (the "bad epoch" fuzz case).
MAX_EPOCH = 2**32 - 1

#: Chunk sequence numbers are u16; a transfer may span up to this many
#: SNAPSHOT_XFER frames.
MAX_XFER_CHUNKS = 2**16 - 1

#: Per-bucket lease-ledger bound inside a SNAPSHOT_XFER entry: one live
#: lease per router is the natural ceiling, and a u16 count field caps
#: the decode loop against forged frames.
MAX_BUCKET_LEASES = 1024

#: Topology phases (TOPOLOGY frame phase byte).
TOPOLOGY_PREPARE = 0
TOPOLOGY_COMMIT = 1
TOPOLOGY_ABORT = 2

#: Reserved xfer id: an XFER_ACK with this id acks a TOPOLOGY frame
#: (``seq`` echoes the phase byte), not a snapshot chunk.
XFER_ACK_TOPOLOGY = 0

#: Fixed chunk-head size of a SNAPSHOT_XFER frame past the v2 header,
#: for senders budgeting chunks against the datagram limit.
SNAPSHOT_XFER_HEAD_BYTES = _XFER_HEAD.size


@dataclass(frozen=True, slots=True)
class QoSRequest:
    """A QoS admission request: ``(request_id, key, cost)``."""

    request_id: int
    key: str
    cost: float = 1.0

    def _validated_key_bytes(self) -> bytes:
        key_bytes = self.key.encode("utf-8")
        if not key_bytes:
            raise ProtocolError("QoS key must be non-empty")
        if len(key_bytes) > MAX_KEY_BYTES:
            raise ProtocolError(f"QoS key exceeds {MAX_KEY_BYTES} bytes")
        if not (0 <= self.request_id < 2**64):
            raise ProtocolError(f"request_id out of u64 range: {self.request_id}")
        if not (math.isfinite(self.cost) and self.cost > 0):
            raise ProtocolError(f"cost must be finite and > 0, got {self.cost}")
        return key_bytes

    def encode(self) -> bytes:
        key_bytes = self._validated_key_bytes()
        key_len = len(key_bytes)
        buf = bytearray(_HEADER.size + _REQ_KEY_LEN.size + key_len
                        + _REQ_COST.size)
        _HEADER.pack_into(buf, 0, MAGIC, VERSION, _TYPE_REQUEST,
                          self.request_id)
        _REQ_KEY_LEN.pack_into(buf, _HEADER.size, key_len)
        offset = _HEADER.size + _REQ_KEY_LEN.size
        buf[offset:offset + key_len] = key_bytes
        _REQ_COST.pack_into(buf, offset + key_len, self.cost)
        return bytes(buf)

    @property
    def frame_entry_size(self) -> int:
        """Encoded size of this request as one v2 frame entry."""
        return (_ENTRY_REQ_HEAD.size + len(self.key.encode("utf-8"))
                + _REQ_COST.size)


@dataclass(frozen=True, slots=True)
class QoSResponse:
    """A QoS admission response: ``(request_id, allowed, is_default_reply)``.

    ``is_default_reply`` marks the router-synthesized reply returned when
    all UDP retries to the QoS server failed (§III-B) — it never comes from
    an actual leaky-bucket decision.
    """

    request_id: int
    allowed: bool
    is_default_reply: bool = False

    def encode(self) -> bytes:
        flags = FLAG_DEFAULT_REPLY if self.is_default_reply else 0
        return (_HEADER.pack(MAGIC, VERSION, _TYPE_RESPONSE, self.request_id)
                + _RESP_BODY.pack(1 if self.allowed else 0, flags))


def _validated_lease_key(key: str) -> bytes:
    key_bytes = key.encode("utf-8")
    if not key_bytes:
        raise ProtocolError("QoS key must be non-empty")
    if len(key_bytes) > MAX_KEY_BYTES:
        raise ProtocolError(f"QoS key exceeds {MAX_KEY_BYTES} bytes")
    return key_bytes


def _check_u64(value: int, what: str) -> None:
    if not (0 <= value < 2**64):
        raise ProtocolError(f"{what} out of u64 range: {value}")


def _check_credits(value: float, what: str) -> None:
    if not (math.isfinite(value) and value >= 0):
        raise ProtocolError(f"{what} must be finite and >= 0, got {value}")


def _check_ttl(ttl_ms: int) -> None:
    if not (0 <= ttl_ms <= MAX_LEASE_TTL_MS):
        raise ProtocolError(f"ttl_ms out of range 0..{MAX_LEASE_TTL_MS}: "
                            f"{ttl_ms}")


@dataclass(frozen=True, slots=True)
class LeaseRequest:
    """A credit-lease request (v2 LEASE_REQ, router→server).

    ``credits`` is the fresh grant the router wants (0 = pure return);
    ``return_credits``/``return_lease_id`` hand back the unspent
    remainder of an expiring lease, so a renewal is one frame.
    """

    request_id: int
    key: str
    credits: float
    ttl_ms: int
    return_credits: float = 0.0
    return_lease_id: int = 0

    def validate(self) -> bytes:
        key_bytes = _validated_lease_key(self.key)
        _check_u64(self.request_id, "request_id")
        _check_u64(self.return_lease_id, "return_lease_id")
        _check_credits(self.credits, "credits")
        _check_credits(self.return_credits, "return_credits")
        _check_ttl(self.ttl_ms)
        if self.return_credits > 0 and self.return_lease_id == 0:
            raise ProtocolError("return_credits without a return_lease_id")
        return key_bytes


@dataclass(frozen=True, slots=True)
class LeaseGrant:
    """A credit-lease grant (v2 LEASE_GRANT, server→router).

    ``credits == 0`` with ``lease_id == 0`` is a refusal — the router
    keeps using the wire path for that key.
    """

    request_id: int
    key: str
    lease_id: int
    credits: float
    ttl_ms: int

    def validate(self) -> bytes:
        key_bytes = _validated_lease_key(self.key)
        _check_u64(self.request_id, "request_id")
        _check_u64(self.lease_id, "lease_id")
        _check_credits(self.credits, "credits")
        _check_ttl(self.ttl_ms)
        if (self.credits > 0) != (self.lease_id != 0):
            raise ProtocolError("grant must carry both a nonzero lease_id "
                                "and credits > 0, or neither (refusal)")
        return key_bytes


@dataclass(frozen=True, slots=True)
class LeaseRevoke:
    """A credit-lease revocation (v2 LEASE_REVOKE, server→router)."""

    lease_id: int
    key: str

    def validate(self) -> bytes:
        key_bytes = _validated_lease_key(self.key)
        _check_u64(self.lease_id, "lease_id")
        if self.lease_id == 0:
            raise ProtocolError("revoke must name a nonzero lease_id")
        return key_bytes


def _check_epoch(epoch: int) -> None:
    if not (1 <= epoch <= MAX_EPOCH):
        raise ProtocolError(f"epoch out of range 1..{MAX_EPOCH}: {epoch}")


def _validated_holder(holder: "tuple | None") -> "tuple[bytes, int]":
    """Validate a lease holder as ``(host_bytes, port)`` for the wire."""
    if holder is None:
        return b"", 0
    try:
        host, port = holder
        host_bytes = host.encode("utf-8")
    except (TypeError, ValueError, AttributeError, UnicodeEncodeError) as exc:
        raise ProtocolError(f"holder must be a (host, port) pair: {exc}")
    if not (0 < len(host_bytes) <= 255):
        raise ProtocolError(f"holder host must encode to 1..255 bytes")
    if not (0 < port < 65536):
        raise ProtocolError(f"holder port out of range 1..65535: {port}")
    return host_bytes, port


def _validated_bucket(snap: BucketSnapshot) -> bytes:
    """Validate one bucket snapshot for the wire; returns its key bytes."""
    key_bytes = _validated_lease_key(snap.key)
    if not (math.isfinite(snap.capacity) and snap.capacity > 0):
        raise ProtocolError(
            f"bucket capacity must be finite and > 0, got {snap.capacity}")
    _check_credits(snap.refill_rate, "bucket refill_rate")
    _check_credits(snap.credit, "bucket credit")
    if len(snap.leases) > MAX_BUCKET_LEASES:
        raise ProtocolError(f"bucket carries {len(snap.leases)} leases, "
                            f"over the {MAX_BUCKET_LEASES} wire bound")
    for lease in snap.leases:
        _check_u64(lease.lease_id, "lease_id")
        if lease.lease_id == 0:
            raise ProtocolError("snapshot lease must name a nonzero lease_id")
        _check_credits(lease.granted, "lease granted credits")
        _validated_holder(lease.holder)
    return key_bytes


def _lease_ttl_ms(ttl_remaining: float) -> int:
    """Relative lease TTL (seconds) as wire milliseconds, clamped sane."""
    if not math.isfinite(ttl_remaining):
        raise ProtocolError(
            f"lease ttl_remaining must be finite, got {ttl_remaining}")
    return max(0, min(MAX_LEASE_TTL_MS, int(ttl_remaining * 1000.0)))


def snapshot_entry_size(snap: BucketSnapshot) -> int:
    """Encoded size of one bucket snapshot as a SNAPSHOT_XFER entry.

    Senders use this to pack chunks up to the datagram budget without
    trial-encoding.
    """
    size = (_ENTRY_BUCKET_KEY.size + len(snap.key.encode("utf-8"))
            + _ENTRY_BUCKET_TAIL.size)
    for lease in snap.leases:
        host_bytes, _ = _validated_holder(lease.holder)
        size += _ENTRY_XFER_LEASE.size + len(host_bytes) + _HOLDER_PORT.size
    return size


@dataclass(frozen=True, slots=True)
class SnapshotChunk:
    """One SNAPSHOT_XFER chunk (v2 type 6, old owner→new owner).

    ``seq``/``total`` order the chunks of one transfer ``xfer_id``; every
    chunk is independently ack'able (:class:`XferAck`) and idempotently
    re-appliable — the receiver deduplicates ``(xfer_id, seq)`` so a
    retransmit after a lost ack never double-restores credit.
    """

    xfer_id: int
    epoch: int
    seq: int
    total: int
    buckets: "tuple[BucketSnapshot, ...]"

    def validate(self) -> "list[bytes]":
        _check_u64(self.xfer_id, "xfer_id")
        if self.xfer_id == XFER_ACK_TOPOLOGY:
            raise ProtocolError(
                "xfer_id 0 is reserved for topology acks")
        _check_epoch(self.epoch)
        if not (1 <= self.total <= MAX_XFER_CHUNKS):
            raise ProtocolError(
                f"chunk total out of range 1..{MAX_XFER_CHUNKS}: {self.total}")
        if not (0 <= self.seq < self.total):
            raise ProtocolError(
                f"chunk seq {self.seq} outside 0..{self.total - 1}")
        if not (1 <= len(self.buckets) <= MAX_FRAME_MESSAGES):
            raise ProtocolError(
                f"chunk must carry 1..{MAX_FRAME_MESSAGES} buckets, "
                f"got {len(self.buckets)}")
        return [_validated_bucket(snap) for snap in self.buckets]


@dataclass(frozen=True, slots=True)
class XferAck:
    """A chunk acknowledgement (v2 type 7, new owner→sender).

    ``xfer_id == XFER_ACK_TOPOLOGY`` (0) acks a TOPOLOGY frame instead;
    ``seq`` then echoes the acknowledged phase byte.
    """

    xfer_id: int
    epoch: int
    seq: int

    def validate(self) -> None:
        _check_u64(self.xfer_id, "xfer_id")
        _check_epoch(self.epoch)
        limit = (TOPOLOGY_ABORT if self.xfer_id == XFER_ACK_TOPOLOGY
                 else MAX_XFER_CHUNKS - 1)
        if not (0 <= self.seq <= limit):
            raise ProtocolError(f"ack seq out of range 0..{limit}: {self.seq}")


@dataclass(frozen=True, slots=True)
class TopologyUpdate:
    """An epoch-numbered topology announcement (v2 type 8).

    ``backends`` is the full ordered backend address list of the *new*
    map — position is the partition index, so a receiver re-derives key
    ownership as ``crc32(key) % len(backends)`` exactly like the router.
    """

    epoch: int
    phase: int
    backends: "tuple[tuple[str, int], ...]"

    def validate(self) -> "list[tuple[bytes, int]]":
        _check_epoch(self.epoch)
        if self.phase not in (TOPOLOGY_PREPARE, TOPOLOGY_COMMIT,
                              TOPOLOGY_ABORT):
            raise ProtocolError(f"unknown topology phase {self.phase}")
        if not (1 <= len(self.backends) <= MAX_FRAME_MESSAGES):
            raise ProtocolError(
                f"topology must carry 1..{MAX_FRAME_MESSAGES} backends, "
                f"got {len(self.backends)}")
        parts: "list[tuple[bytes, int]]" = []
        for backend in self.backends:
            host_bytes, port = _validated_holder(backend)
            if not host_bytes:
                raise ProtocolError("topology backend must name a host")
            parts.append((host_bytes, port))
        return parts


def decode(datagram: bytes) -> "QoSRequest | QoSResponse":
    """Decode a datagram into a request or response.

    Raises :class:`~repro.core.errors.ProtocolError` on malformed input —
    a real deployment must survive stray packets on its UDP port.
    """
    if len(datagram) < _HEADER.size:
        raise ProtocolError(f"datagram too short ({len(datagram)} bytes)")
    magic, version, mtype, request_id = _HEADER.unpack_from(datagram)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic 0x{magic:04X}")
    if version != VERSION:
        raise ProtocolError(f"unsupported protocol version {version}")
    body = datagram[_HEADER.size:]
    if mtype == _TYPE_REQUEST:
        if len(body) < _REQ_KEY_LEN.size:
            raise ProtocolError("request truncated before key length")
        (key_len,) = _REQ_KEY_LEN.unpack_from(body)
        expected = _REQ_KEY_LEN.size + key_len + _REQ_COST.size
        if len(body) != expected:
            raise ProtocolError(f"request body length {len(body)} != {expected}")
        key_bytes = body[_REQ_KEY_LEN.size:_REQ_KEY_LEN.size + key_len]
        try:
            key = key_bytes.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"key is not valid UTF-8: {exc}") from exc
        if not key:
            raise ProtocolError("QoS key must be non-empty")
        (cost,) = _REQ_COST.unpack_from(body, _REQ_KEY_LEN.size + key_len)
        if not (math.isfinite(cost) and cost > 0):
            raise ProtocolError(f"cost must be finite and > 0, got {cost}")
        return QoSRequest(request_id=request_id, key=key, cost=cost)
    if mtype == _TYPE_RESPONSE:
        if len(body) != _RESP_BODY.size:
            raise ProtocolError(f"response body length {len(body)} != {_RESP_BODY.size}")
        verdict, flags = _RESP_BODY.unpack_from(body)
        if verdict not in (0, 1):
            raise ProtocolError(f"bad verdict byte {verdict}")
        return QoSResponse(request_id=request_id, allowed=bool(verdict),
                           is_default_reply=bool(flags & FLAG_DEFAULT_REPLY))
    raise ProtocolError(f"unknown message type {mtype}")


# --------------------------------------------------------------------- #
# version-2 batch frames
# --------------------------------------------------------------------- #

def encode_request_frame(requests: Sequence[QoSRequest],
                         trace_id: int = 0) -> bytes:
    """Encode up to :data:`MAX_FRAME_MESSAGES` requests as one v2 frame.

    Packs into a single preallocated buffer with ``pack_into`` — one
    allocation for the whole datagram, no per-message fragments.  A
    non-zero ``trace_id`` sets the TRACED flag and prepends the id.
    """
    return encode_request_frame_parts(
        [(r.request_id, r._validated_key_bytes(), r.cost) for r in requests],
        trace_id=trace_id)


def encode_request_frame_parts(
    parts: Sequence[tuple[int, bytes, float]],
    trace_id: int = 0,
) -> bytes:
    """Encode pre-validated ``(request_id, key_bytes, cost)`` triples.

    The hot-path form of :func:`encode_request_frame`: callers that
    already hold the encoded key bytes (the channel caches them per
    in-flight exchange) skip re-encoding every key on every send and
    retry.
    """
    count = len(parts)
    if not (1 <= count <= MAX_FRAME_MESSAGES):
        raise ProtocolError(
            f"frame must carry 1..{MAX_FRAME_MESSAGES} messages, got {count}")
    if not (0 <= trace_id < 2**64):
        raise ProtocolError(f"trace_id out of u64 range: {trace_id}")
    traced = trace_id != 0
    size = (_FRAME_HEADER.size + (TRACE_ID_BYTES if traced else 0)
            + sum(_ENTRY_REQ_HEAD.size + len(kb) + _REQ_COST.size
                  for _, kb, _ in parts))
    if size > MAX_DATAGRAM_BYTES:
        raise ProtocolError(f"frame of {count} requests is {size} bytes, "
                            f"over the {MAX_DATAGRAM_BYTES}-byte datagram limit")
    buf = bytearray(size)
    mtype = _TYPE_REQUEST | (FLAG_FRAME_TRACED if traced else 0)
    _FRAME_HEADER.pack_into(buf, 0, MAGIC, VERSION2, mtype, count)
    offset = _FRAME_HEADER.size
    if traced:
        _TRACE_ID.pack_into(buf, offset, trace_id)
        offset += TRACE_ID_BYTES
    for request_id, key_bytes, cost in parts:
        key_len = len(key_bytes)
        _ENTRY_REQ_HEAD.pack_into(buf, offset, request_id, key_len)
        offset += _ENTRY_REQ_HEAD.size
        buf[offset:offset + key_len] = key_bytes
        offset += key_len
        _REQ_COST.pack_into(buf, offset, cost)
        offset += _REQ_COST.size
    return bytes(buf)


def encode_response_frame(responses: Sequence[QoSResponse],
                          trace_id: int = 0) -> bytes:
    """Encode up to :data:`MAX_FRAME_MESSAGES` responses as one v2 frame.

    A non-zero ``trace_id`` echoes the request frame's trace id back
    (servers mirror the TRACED flag so the propagation is observable on
    both directions of the wire).
    """
    count = len(responses)
    if not (1 <= count <= MAX_FRAME_MESSAGES):
        raise ProtocolError(
            f"frame must carry 1..{MAX_FRAME_MESSAGES} messages, got {count}")
    if not (0 <= trace_id < 2**64):
        raise ProtocolError(f"trace_id out of u64 range: {trace_id}")
    traced = trace_id != 0
    buf = bytearray(_FRAME_HEADER.size + (TRACE_ID_BYTES if traced else 0)
                    + count * _ENTRY_RESP.size)
    mtype = _TYPE_RESPONSE | (FLAG_FRAME_TRACED if traced else 0)
    _FRAME_HEADER.pack_into(buf, 0, MAGIC, VERSION2, mtype, count)
    offset = _FRAME_HEADER.size
    if traced:
        _TRACE_ID.pack_into(buf, offset, trace_id)
        offset += TRACE_ID_BYTES
    for response in responses:
        if not (0 <= response.request_id < 2**64):
            raise ProtocolError(
                f"request_id out of u64 range: {response.request_id}")
        flags = FLAG_DEFAULT_REPLY if response.is_default_reply else 0
        _ENTRY_RESP.pack_into(buf, offset, response.request_id,
                              1 if response.allowed else 0, flags)
        offset += _ENTRY_RESP.size
    return bytes(buf)


def encode_response_frame_bits(request_ids: Sequence[int], verdicts: int,
                               trace_id: int = 0) -> bytes:
    """Encode a response frame straight from a packed verdict bitmap.

    The server-side hot-path form of :func:`encode_response_frame`: bit
    ``i`` of ``verdicts`` is the admission verdict for ``request_ids[i]``
    (set = admitted), exactly as ``AdmissionController.check_batch``
    returns it, so a whole frame's replies are packed without building a
    ``QoSResponse`` object per entry.  The encoding is byte-identical to
    :func:`encode_response_frame` over the equivalent response list (no
    entry carries the default-reply flag — servers never default-reply).
    """
    count = len(request_ids)
    if not (1 <= count <= MAX_FRAME_MESSAGES):
        raise ProtocolError(
            f"frame must carry 1..{MAX_FRAME_MESSAGES} messages, got {count}")
    if not (0 <= trace_id < 2**64):
        raise ProtocolError(f"trace_id out of u64 range: {trace_id}")
    traced = trace_id != 0
    buf = bytearray(_FRAME_HEADER.size + (TRACE_ID_BYTES if traced else 0)
                    + count * _ENTRY_RESP.size)
    mtype = _TYPE_RESPONSE | (FLAG_FRAME_TRACED if traced else 0)
    _FRAME_HEADER.pack_into(buf, 0, MAGIC, VERSION2, mtype, count)
    offset = _FRAME_HEADER.size
    if traced:
        _TRACE_ID.pack_into(buf, offset, trace_id)
        offset += TRACE_ID_BYTES
    pack_entry = _ENTRY_RESP.pack_into
    entry_size = _ENTRY_RESP.size
    for pos, request_id in enumerate(request_ids):
        if not (0 <= request_id < 2**64):
            raise ProtocolError(
                f"request_id out of u64 range: {request_id}")
        pack_entry(buf, offset, request_id, (verdicts >> pos) & 1, 0)
        offset += entry_size
    return bytes(buf)


def _lease_frame_prologue(count: int, trace_id: int, body_size: int,
                          mtype: int) -> tuple[bytearray, int]:
    """Validate the shared frame bounds and pack the v2 header.

    Returns ``(buffer, offset)`` with ``offset`` past the header (and
    trace id, when non-zero).
    """
    if not (1 <= count <= MAX_FRAME_MESSAGES):
        raise ProtocolError(
            f"frame must carry 1..{MAX_FRAME_MESSAGES} messages, got {count}")
    if not (0 <= trace_id < 2**64):
        raise ProtocolError(f"trace_id out of u64 range: {trace_id}")
    traced = trace_id != 0
    size = (_FRAME_HEADER.size + (TRACE_ID_BYTES if traced else 0)
            + body_size)
    if size > MAX_DATAGRAM_BYTES:
        raise ProtocolError(f"frame of {count} entries is {size} "
                            f"bytes, over the {MAX_DATAGRAM_BYTES}-byte "
                            f"datagram limit")
    buf = bytearray(size)
    _FRAME_HEADER.pack_into(buf, 0, MAGIC, VERSION2,
                            mtype | (FLAG_FRAME_TRACED if traced else 0),
                            count)
    offset = _FRAME_HEADER.size
    if traced:
        _TRACE_ID.pack_into(buf, offset, trace_id)
        offset += TRACE_ID_BYTES
    return buf, offset


def encode_lease_request_frame(requests: Sequence[LeaseRequest],
                               trace_id: int = 0) -> bytes:
    """Encode LEASE_REQ messages as one v2 type-3 frame."""
    parts = [(r, r.validate()) for r in requests]
    body = sum(_ENTRY_LEASE_HEAD.size + len(kb) + _LEASE_REQ_TAIL.size
               for _, kb in parts)
    buf, offset = _lease_frame_prologue(len(parts), trace_id, body,
                                        _TYPE_LEASE_REQ)
    for req, key_bytes in parts:
        key_len = len(key_bytes)
        _ENTRY_LEASE_HEAD.pack_into(buf, offset, req.request_id, key_len)
        offset += _ENTRY_LEASE_HEAD.size
        buf[offset:offset + key_len] = key_bytes
        offset += key_len
        _LEASE_REQ_TAIL.pack_into(buf, offset, req.credits,
                                  req.return_credits, req.return_lease_id,
                                  req.ttl_ms)
        offset += _LEASE_REQ_TAIL.size
    return bytes(buf)


def encode_lease_grant_frame(grants: Sequence[LeaseGrant],
                             trace_id: int = 0) -> bytes:
    """Encode LEASE_GRANT messages as one v2 type-4 frame."""
    parts = [(g, g.validate()) for g in grants]
    body = sum(_ENTRY_LEASE_HEAD.size + len(kb) + _LEASE_GRANT_TAIL.size
               for _, kb in parts)
    buf, offset = _lease_frame_prologue(len(parts), trace_id, body,
                                        _TYPE_LEASE_GRANT)
    for grant, key_bytes in parts:
        key_len = len(key_bytes)
        _ENTRY_LEASE_HEAD.pack_into(buf, offset, grant.request_id, key_len)
        offset += _ENTRY_LEASE_HEAD.size
        buf[offset:offset + key_len] = key_bytes
        offset += key_len
        _LEASE_GRANT_TAIL.pack_into(buf, offset, grant.lease_id,
                                    grant.credits, grant.ttl_ms)
        offset += _LEASE_GRANT_TAIL.size
    return bytes(buf)


def encode_lease_revoke_frame(revokes: Sequence[LeaseRevoke],
                              trace_id: int = 0) -> bytes:
    """Encode LEASE_REVOKE messages as one v2 type-5 frame."""
    parts = [(r, r.validate()) for r in revokes]
    body = sum(_ENTRY_LEASE_HEAD.size + len(kb) for _, kb in parts)
    buf, offset = _lease_frame_prologue(len(parts), trace_id, body,
                                        _TYPE_LEASE_REVOKE)
    for revoke, key_bytes in parts:
        key_len = len(key_bytes)
        _ENTRY_LEASE_HEAD.pack_into(buf, offset, revoke.lease_id, key_len)
        offset += _ENTRY_LEASE_HEAD.size
        buf[offset:offset + key_len] = key_bytes
        offset += key_len
    return bytes(buf)


def encode_snapshot_xfer_frame(chunk: SnapshotChunk,
                               trace_id: int = 0) -> bytes:
    """Encode one SNAPSHOT_XFER chunk as a v2 type-6 frame.

    The frame ``count`` is the number of bucket entries; the chunk head
    ``(xfer_id, epoch, seq, total)`` sits between the v2 header and the
    entries.  Raises :class:`ProtocolError` when the chunk would exceed
    :data:`MAX_DATAGRAM_BYTES` — senders size chunks with
    :func:`snapshot_entry_size` before encoding.
    """
    key_parts = chunk.validate()
    body = _XFER_HEAD.size + sum(
        snapshot_entry_size(snap) for snap in chunk.buckets)
    buf, offset = _lease_frame_prologue(len(chunk.buckets), trace_id, body,
                                        _TYPE_SNAPSHOT_XFER)
    _XFER_HEAD.pack_into(buf, offset, chunk.xfer_id, chunk.epoch,
                         chunk.seq, chunk.total)
    offset += _XFER_HEAD.size
    for snap, key_bytes in zip(chunk.buckets, key_parts):
        key_len = len(key_bytes)
        _ENTRY_BUCKET_KEY.pack_into(buf, offset, key_len)
        offset += _ENTRY_BUCKET_KEY.size
        buf[offset:offset + key_len] = key_bytes
        offset += key_len
        _ENTRY_BUCKET_TAIL.pack_into(buf, offset, snap.capacity,
                                     snap.refill_rate, snap.credit,
                                     len(snap.leases))
        offset += _ENTRY_BUCKET_TAIL.size
        for lease in snap.leases:
            host_bytes, port = _validated_holder(lease.holder)
            _ENTRY_XFER_LEASE.pack_into(buf, offset, lease.lease_id,
                                        lease.granted,
                                        _lease_ttl_ms(lease.ttl_remaining),
                                        len(host_bytes))
            offset += _ENTRY_XFER_LEASE.size
            buf[offset:offset + len(host_bytes)] = host_bytes
            offset += len(host_bytes)
            _HOLDER_PORT.pack_into(buf, offset, port)
            offset += _HOLDER_PORT.size
    return bytes(buf)


def encode_xfer_ack_frame(acks: "Sequence[XferAck]",
                          trace_id: int = 0) -> bytes:
    """Encode XFER_ACK messages as one v2 type-7 frame."""
    for ack in acks:
        ack.validate()
    body = len(acks) * _ENTRY_ACK.size
    buf, offset = _lease_frame_prologue(len(acks), trace_id, body,
                                        _TYPE_XFER_ACK)
    for ack in acks:
        _ENTRY_ACK.pack_into(buf, offset, ack.xfer_id, ack.epoch, ack.seq)
        offset += _ENTRY_ACK.size
    return bytes(buf)


def encode_topology_frame(update: TopologyUpdate,
                          trace_id: int = 0) -> bytes:
    """Encode one TOPOLOGY announcement as a v2 type-8 frame.

    The frame ``count`` is the number of backend address entries.
    """
    parts = update.validate()
    body = _TOPOLOGY_HEAD.size + sum(
        _ENTRY_ADDR_HOST.size + len(host_bytes) + _ENTRY_ADDR_PORT.size
        for host_bytes, _ in parts)
    buf, offset = _lease_frame_prologue(len(parts), trace_id, body,
                                        _TYPE_TOPOLOGY)
    _TOPOLOGY_HEAD.pack_into(buf, offset, update.epoch, update.phase)
    offset += _TOPOLOGY_HEAD.size
    for host_bytes, port in parts:
        _ENTRY_ADDR_HOST.pack_into(buf, offset, len(host_bytes))
        offset += _ENTRY_ADDR_HOST.size
        buf[offset:offset + len(host_bytes)] = host_bytes
        offset += len(host_bytes)
        _ENTRY_ADDR_PORT.pack_into(buf, offset, port)
        offset += _ENTRY_ADDR_PORT.size
    return bytes(buf)


def decode_frame(datagram: bytes) -> "list[QoSRequest] | list[QoSResponse]":
    """Decode a v2 batch frame into its message list (trace id dropped)."""
    return decode_frame_traced(datagram)[1]


def decode_frame_traced(
    datagram: bytes,
) -> "tuple[int, list[QoSRequest] | list[QoSResponse]]":
    """Decode a v2 batch frame into ``(trace_id, messages)``.

    ``trace_id`` is 0 for untraced frames.  Zero-copy: entries are
    unpacked from a ``memoryview`` with ``unpack_from``; the only
    per-entry allocation is the decoded key string itself.  Raises
    :class:`ProtocolError` on any malformation, including a declared
    count that disagrees with the payload length and a TRACED flag with
    a missing or zero trace id.
    """
    view = memoryview(datagram)
    total = len(view)
    if total < _FRAME_HEADER.size:
        raise ProtocolError(f"frame too short ({total} bytes)")
    magic, version, mtype, count = _FRAME_HEADER.unpack_from(view)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic 0x{magic:04X}")
    if version != VERSION2:
        raise ProtocolError(f"not a v2 frame (version {version})")
    if not (1 <= count <= MAX_FRAME_MESSAGES):
        raise ProtocolError(f"frame count {count} out of range "
                            f"1..{MAX_FRAME_MESSAGES}")
    traced = bool(mtype & FLAG_FRAME_TRACED)
    mtype &= _TYPE_MASK
    offset = _FRAME_HEADER.size
    trace_id = 0
    if traced:
        if total < offset + TRACE_ID_BYTES:
            raise ProtocolError("traced frame truncated before trace id")
        (trace_id,) = _TRACE_ID.unpack_from(view, offset)
        if trace_id == 0:
            raise ProtocolError("traced frame carries a zero trace id")
        offset += TRACE_ID_BYTES
    if mtype == _TYPE_REQUEST:
        requests: list[QoSRequest] = []
        for _ in range(count):
            if offset + _ENTRY_REQ_HEAD.size > total:
                raise ProtocolError("request frame truncated in entry header")
            request_id, key_len = _ENTRY_REQ_HEAD.unpack_from(view, offset)
            offset += _ENTRY_REQ_HEAD.size
            if not (0 < key_len <= MAX_KEY_BYTES):
                raise ProtocolError(f"bad key length {key_len}")
            if offset + key_len + _REQ_COST.size > total:
                raise ProtocolError("request frame truncated in entry body")
            try:
                key = str(view[offset:offset + key_len], "utf-8")
            except UnicodeDecodeError as exc:
                raise ProtocolError(f"key is not valid UTF-8: {exc}") from exc
            offset += key_len
            (cost,) = _REQ_COST.unpack_from(view, offset)
            offset += _REQ_COST.size
            if not (math.isfinite(cost) and cost > 0):
                raise ProtocolError(f"cost must be finite and > 0, got {cost}")
            requests.append(QoSRequest(request_id, key, cost))
        if offset != total:
            raise ProtocolError(
                f"frame count {count} disagrees with payload: "
                f"{total - offset} trailing bytes")
        return trace_id, requests
    if mtype == _TYPE_RESPONSE:
        if total != offset + count * _ENTRY_RESP.size:
            raise ProtocolError(
                f"response frame length {total} disagrees with count {count}")
        responses: list[QoSResponse] = []
        for _ in range(count):
            request_id, verdict, flags = _ENTRY_RESP.unpack_from(view, offset)
            offset += _ENTRY_RESP.size
            if verdict not in (0, 1):
                raise ProtocolError(f"bad verdict byte {verdict}")
            responses.append(QoSResponse(
                request_id, bool(verdict),
                is_default_reply=bool(flags & FLAG_DEFAULT_REPLY)))
        return trace_id, responses
    if mtype in (_TYPE_LEASE_REQ, _TYPE_LEASE_GRANT, _TYPE_LEASE_REVOKE):
        return trace_id, _decode_lease_entries(view, offset, total, count,
                                               mtype)
    if mtype == _TYPE_SNAPSHOT_XFER:
        return trace_id, [_decode_snapshot_chunk(view, offset, total, count)]
    if mtype == _TYPE_XFER_ACK:
        return trace_id, _decode_xfer_acks(view, offset, total, count)
    if mtype == _TYPE_TOPOLOGY:
        return trace_id, [_decode_topology(view, offset, total, count)]
    raise ProtocolError(f"unknown frame type {mtype}")


def _decode_lease_entries(view: memoryview, offset: int, total: int,
                          count: int, mtype: int) -> list:
    """Decode the entries of a lease frame (types 3/4/5)."""
    tail = (_LEASE_REQ_TAIL if mtype == _TYPE_LEASE_REQ
            else _LEASE_GRANT_TAIL if mtype == _TYPE_LEASE_GRANT
            else None)
    tail_size = tail.size if tail is not None else 0
    messages: list = []
    for _ in range(count):
        if offset + _ENTRY_LEASE_HEAD.size > total:
            raise ProtocolError("lease frame truncated in entry header")
        head_id, key_len = _ENTRY_LEASE_HEAD.unpack_from(view, offset)
        offset += _ENTRY_LEASE_HEAD.size
        if not (0 < key_len <= MAX_KEY_BYTES):
            raise ProtocolError(f"bad key length {key_len}")
        if offset + key_len + tail_size > total:
            raise ProtocolError("lease frame truncated in entry body")
        try:
            key = str(view[offset:offset + key_len], "utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"key is not valid UTF-8: {exc}") from exc
        offset += key_len
        message: "LeaseRequest | LeaseGrant | LeaseRevoke"
        if mtype == _TYPE_LEASE_REQ:
            credits, returned, return_lease_id, ttl_ms = \
                _LEASE_REQ_TAIL.unpack_from(view, offset)
            message = LeaseRequest(head_id, key, credits, ttl_ms,
                                   return_credits=returned,
                                   return_lease_id=return_lease_id)
        elif mtype == _TYPE_LEASE_GRANT:
            lease_id, credits, ttl_ms = \
                _LEASE_GRANT_TAIL.unpack_from(view, offset)
            message = LeaseGrant(head_id, key, lease_id, credits, ttl_ms)
        else:
            message = LeaseRevoke(head_id, key)
        offset += tail_size
        message.validate()
        messages.append(message)
    if offset != total:
        raise ProtocolError(
            f"lease frame count {count} disagrees with payload: "
            f"{total - offset} trailing bytes")
    return messages


def _decode_snapshot_chunk(view: memoryview, offset: int, total: int,
                           count: int) -> SnapshotChunk:
    """Decode a SNAPSHOT_XFER body; ``count`` is the bucket-entry count."""
    if offset + _XFER_HEAD.size > total:
        raise ProtocolError("snapshot frame truncated in chunk head")
    xfer_id, epoch, seq, chunk_total = _XFER_HEAD.unpack_from(view, offset)
    offset += _XFER_HEAD.size
    buckets: "list[BucketSnapshot]" = []
    for _ in range(count):
        if offset + _ENTRY_BUCKET_KEY.size > total:
            raise ProtocolError("snapshot frame truncated in bucket header")
        (key_len,) = _ENTRY_BUCKET_KEY.unpack_from(view, offset)
        offset += _ENTRY_BUCKET_KEY.size
        if not (0 < key_len <= MAX_KEY_BYTES):
            raise ProtocolError(f"bad key length {key_len}")
        if offset + key_len + _ENTRY_BUCKET_TAIL.size > total:
            raise ProtocolError("snapshot frame truncated in bucket body")
        try:
            key = str(view[offset:offset + key_len], "utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"key is not valid UTF-8: {exc}") from exc
        offset += key_len
        capacity, refill_rate, credit, n_leases = \
            _ENTRY_BUCKET_TAIL.unpack_from(view, offset)
        offset += _ENTRY_BUCKET_TAIL.size
        if n_leases > MAX_BUCKET_LEASES:
            raise ProtocolError(f"bucket carries {n_leases} leases, over "
                                f"the {MAX_BUCKET_LEASES} wire bound")
        leases: "list[LeaseSnapshot]" = []
        for _ in range(n_leases):
            if offset + _ENTRY_XFER_LEASE.size > total:
                raise ProtocolError("snapshot frame truncated in lease entry")
            lease_id, granted, ttl_ms, host_len = \
                _ENTRY_XFER_LEASE.unpack_from(view, offset)
            offset += _ENTRY_XFER_LEASE.size
            if offset + host_len + _HOLDER_PORT.size > total:
                raise ProtocolError("snapshot frame truncated in lease holder")
            holder: "tuple | None" = None
            host = ""
            if host_len:
                try:
                    host = str(view[offset:offset + host_len], "utf-8")
                except UnicodeDecodeError as exc:
                    raise ProtocolError(
                        f"holder host is not valid UTF-8: {exc}") from exc
            offset += host_len
            (port,) = _HOLDER_PORT.unpack_from(view, offset)
            offset += _HOLDER_PORT.size
            if host_len:
                if not (0 < port < 65536):
                    raise ProtocolError(
                        f"holder port out of range 1..65535: {port}")
                holder = (host, port)
            elif port:
                raise ProtocolError("holder port without a holder host")
            _check_ttl(ttl_ms)
            leases.append(LeaseSnapshot(lease_id, granted, ttl_ms / 1000.0,
                                        holder=holder))
        buckets.append(BucketSnapshot(key, capacity, refill_rate, credit,
                                      leases=tuple(leases)))
    if offset != total:
        raise ProtocolError(
            f"snapshot frame count {count} disagrees with payload: "
            f"{total - offset} trailing bytes")
    chunk = SnapshotChunk(xfer_id, epoch, seq, chunk_total, tuple(buckets))
    chunk.validate()
    return chunk


def _decode_xfer_acks(view: memoryview, offset: int, total: int,
                      count: int) -> "list[XferAck]":
    """Decode an XFER_ACK body (fixed-size entries)."""
    if total != offset + count * _ENTRY_ACK.size:
        raise ProtocolError(
            f"ack frame length {total} disagrees with count {count}")
    acks: "list[XferAck]" = []
    for _ in range(count):
        xfer_id, epoch, seq = _ENTRY_ACK.unpack_from(view, offset)
        offset += _ENTRY_ACK.size
        ack = XferAck(xfer_id, epoch, seq)
        ack.validate()
        acks.append(ack)
    return acks


def _decode_topology(view: memoryview, offset: int, total: int,
                     count: int) -> TopologyUpdate:
    """Decode a TOPOLOGY body; ``count`` is the backend-address count."""
    if offset + _TOPOLOGY_HEAD.size > total:
        raise ProtocolError("topology frame truncated in head")
    epoch, phase = _TOPOLOGY_HEAD.unpack_from(view, offset)
    offset += _TOPOLOGY_HEAD.size
    backends: "list[tuple[str, int]]" = []
    for _ in range(count):
        if offset + _ENTRY_ADDR_HOST.size > total:
            raise ProtocolError("topology frame truncated in address header")
        (host_len,) = _ENTRY_ADDR_HOST.unpack_from(view, offset)
        offset += _ENTRY_ADDR_HOST.size
        if host_len == 0:
            raise ProtocolError("topology backend must name a host")
        if offset + host_len + _ENTRY_ADDR_PORT.size > total:
            raise ProtocolError("topology frame truncated in address body")
        try:
            host = str(view[offset:offset + host_len], "utf-8")
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"backend host is not valid UTF-8: {exc}") \
                from exc
        offset += host_len
        (port,) = _ENTRY_ADDR_PORT.unpack_from(view, offset)
        offset += _ENTRY_ADDR_PORT.size
        backends.append((host, port))
    if offset != total:
        raise ProtocolError(
            f"topology frame count {count} disagrees with payload: "
            f"{total - offset} trailing bytes")
    update = TopologyUpdate(epoch, phase, tuple(backends))
    update.validate()
    return update


def decode_any(datagram: bytes) -> "tuple[int, list]":
    """Decode a datagram of either protocol version.

    Returns ``(version, messages)`` — a one-element list for a v1
    datagram, the full message list for a v2 frame.  The version lets a
    server mirror the sender: v1 requests get v1 responses, v2 frames get
    one v2 response frame.
    """
    version, _, messages = decode_any_traced(datagram)
    return version, messages


def decode_any_traced(datagram: bytes) -> "tuple[int, int, list]":
    """Decode a datagram of either version into
    ``(version, trace_id, messages)``.

    ``trace_id`` is 0 for v1 datagrams (the v1 layout has no room for
    it) and for untraced v2 frames.  Receivers that propagate traces use
    this form; :func:`decode_any` keeps the pre-tracing surface.
    """
    if len(datagram) < 4:
        raise ProtocolError(f"datagram too short ({len(datagram)} bytes)")
    version = datagram[2]
    if version == VERSION:
        return VERSION, 0, [decode(datagram)]
    if version == VERSION2:
        trace_id, messages = decode_frame_traced(datagram)
        return VERSION2, trace_id, messages
    raise ProtocolError(f"unsupported protocol version {version}")


class RequestIdGenerator:
    """Thread-safe monotonically increasing request ids.

    Each router node owns one generator; ids are node-local because a
    response only ever returns to the socket that sent the request.

    ``next(itertools.count())`` is a single C-level call that never
    releases the GIL mid-increment on CPython, so no lock is needed on
    the id hot path.
    """

    __slots__ = ("_counter",)

    def __init__(self, start: int = 1):
        self._counter = itertools.count(start)

    def next_id(self) -> int:
        return next(self._counter) % 2**64

