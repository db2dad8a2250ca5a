"""Tests for the key-value wire protocol (§II, §III-B/C)."""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.admission import BucketSnapshot
from repro.core.errors import ProtocolError
from repro.core.protocol import (
    FLAG_FRAME_TRACED,
    MAX_FRAME_MESSAGES,
    MAX_KEY_BYTES,
    MAX_LEASE_TTL_MS,
    MAX_XFER_CHUNKS,
    TOPOLOGY_ABORT,
    TOPOLOGY_COMMIT,
    TOPOLOGY_PREPARE,
    TRACE_ID_BYTES,
    VERSION,
    VERSION2,
    LeaseGrant,
    LeaseRequest,
    LeaseRevoke,
    QoSRequest,
    QoSResponse,
    RequestIdGenerator,
    SnapshotChunk,
    TopologyUpdate,
    XferAck,
    decode,
    decode_any,
    decode_any_traced,
    decode_frame,
    decode_frame_traced,
    encode_lease_grant_frame,
    encode_lease_request_frame,
    encode_lease_revoke_frame,
    encode_request_frame,
    encode_request_frame_parts,
    encode_response_frame,
    encode_snapshot_xfer_frame,
    encode_topology_frame,
    encode_xfer_ack_frame,
)


class TestRoundTrip:
    def test_request_round_trip(self):
        req = QoSRequest(request_id=7, key="user:alice", cost=2.5)
        assert decode(req.encode()) == req

    def test_response_round_trip(self):
        for allowed in (True, False):
            for default in (True, False):
                resp = QoSResponse(9, allowed, default)
                assert decode(resp.encode()) == resp

    @given(st.integers(0, 2**64 - 1),
           st.text(min_size=1, max_size=200),
           st.floats(0.001, 1e6))
    @settings(max_examples=200)
    def test_request_round_trip_property(self, request_id, key, cost):
        req = QoSRequest(request_id, key, cost)
        decoded = decode(req.encode())
        assert decoded.request_id == request_id
        assert decoded.key == key
        assert decoded.cost == pytest.approx(cost)

    @given(st.integers(0, 2**64 - 1), st.booleans(), st.booleans())
    def test_response_round_trip_property(self, request_id, allowed, default):
        assert decode(QoSResponse(request_id, allowed, default).encode()) == \
            QoSResponse(request_id, allowed, default)


class TestValidation:
    def test_empty_key_rejected_on_encode(self):
        with pytest.raises(ProtocolError):
            QoSRequest(1, "").encode()

    def test_oversized_key_rejected(self):
        with pytest.raises(ProtocolError):
            QoSRequest(1, "x" * (MAX_KEY_BYTES + 1)).encode()

    def test_request_id_out_of_range(self):
        with pytest.raises(ProtocolError):
            QoSRequest(2**64, "k").encode()
        with pytest.raises(ProtocolError):
            QoSRequest(-1, "k").encode()

    def test_unicode_key_round_trip(self):
        req = QoSRequest(1, "user:日本語-ключ")
        assert decode(req.encode()).key == "user:日本語-ключ"


class TestMalformedInput:
    """A UDP port receives arbitrary garbage; decode must never crash."""

    def test_short_datagram(self):
        with pytest.raises(ProtocolError):
            decode(b"hi")

    def test_bad_magic(self):
        data = bytearray(QoSRequest(1, "k").encode())
        data[0] ^= 0xFF
        with pytest.raises(ProtocolError):
            decode(bytes(data))

    def test_bad_version(self):
        data = bytearray(QoSRequest(1, "k").encode())
        data[2] = 99
        with pytest.raises(ProtocolError):
            decode(bytes(data))

    def test_unknown_type(self):
        data = bytearray(QoSRequest(1, "k").encode())
        data[3] = 42
        with pytest.raises(ProtocolError):
            decode(bytes(data))

    def test_truncated_request_body(self):
        data = QoSRequest(1, "some-key").encode()
        with pytest.raises(ProtocolError):
            decode(data[:-3])

    def test_inflated_key_length(self):
        data = bytearray(QoSRequest(1, "abc").encode())
        struct.pack_into("!H", data, 12, 2000)
        with pytest.raises(ProtocolError):
            decode(bytes(data))

    def test_invalid_utf8_key(self):
        good = bytearray(QoSRequest(1, "ab").encode())
        good[14:16] = b"\xff\xfe"
        with pytest.raises(ProtocolError):
            decode(bytes(good))

    def test_bad_verdict_byte(self):
        data = bytearray(QoSResponse(1, True).encode())
        data[12] = 7
        with pytest.raises(ProtocolError):
            decode(bytes(data))

    @given(st.binary(max_size=64))
    @settings(max_examples=300)
    def test_random_bytes_never_crash(self, blob):
        try:
            decode(blob)
        except ProtocolError:
            pass        # the only acceptable failure mode


class TestRequestIdGenerator:
    def test_monotone(self):
        gen = RequestIdGenerator()
        ids = [gen.next_id() for _ in range(100)]
        assert ids == sorted(ids)
        assert len(set(ids)) == 100

    def test_thread_safety_unique(self):
        import threading
        gen = RequestIdGenerator()
        out: list[int] = []
        lock = threading.Lock()

        def worker():
            local = [gen.next_id() for _ in range(1000)]
            with lock:
                out.extend(local)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(out)) == 4000


class TestCostValidation:
    @pytest.mark.parametrize("cost", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_cost_rejected_on_encode(self, cost):
        with pytest.raises(ProtocolError):
            QoSRequest(1, "k", cost).encode()

    def test_bad_cost_rejected_on_decode(self):
        data = bytearray(QoSRequest(1, "k", 1.0).encode())
        struct.pack_into("!d", data, len(data) - 8, float("nan"))
        with pytest.raises(ProtocolError):
            decode(bytes(data))


class TestV2Frames:
    """Protocol-v2 batch frames (§III-B wire path, PR 3)."""

    def _requests(self, n):
        return [QoSRequest(i + 1, f"tenant:{i}", 0.5 + i) for i in range(n)]

    def test_request_frame_round_trip(self):
        requests = self._requests(5)
        frame = encode_request_frame(requests)
        assert decode_frame(frame) == requests

    def test_response_frame_round_trip(self):
        responses = [QoSResponse(i + 1, i % 2 == 0, is_default_reply=(i == 3))
                     for i in range(6)]
        assert decode_frame(encode_response_frame(responses)) == responses

    def test_single_message_frame(self):
        requests = self._requests(1)
        assert decode_frame(encode_request_frame(requests)) == requests

    def test_decode_any_dispatches_on_version_byte(self):
        req = QoSRequest(9, "k", 2.0)
        version, messages = decode_any(req.encode())
        assert (version, messages) == (VERSION, [req])
        requests = self._requests(3)
        version, messages = decode_any(encode_request_frame(requests))
        assert (version, messages) == (VERSION2, requests)

    def test_parts_form_matches_request_form(self):
        requests = self._requests(4)
        parts = [(r.request_id, r.key.encode(), r.cost) for r in requests]
        assert encode_request_frame_parts(parts) == \
            encode_request_frame(requests)

    def test_empty_frame_rejected(self):
        with pytest.raises(ProtocolError):
            encode_request_frame([])
        with pytest.raises(ProtocolError):
            encode_response_frame([])

    def test_overfull_frame_rejected(self):
        with pytest.raises(ProtocolError):
            encode_request_frame(self._requests(MAX_FRAME_MESSAGES + 1))

    def test_oversized_frame_rejected(self):
        big = [QoSRequest(i, "x" * MAX_KEY_BYTES) for i in range(20)]
        with pytest.raises(ProtocolError):
            encode_request_frame(big)

    @given(st.integers(1, 64))
    @settings(max_examples=30)
    def test_frame_round_trip_property(self, n):
        requests = self._requests(n)
        assert decode_frame(encode_request_frame(requests)) == requests


class TestTracedFrames:
    """The TRACED flag bit and the optional 8-byte trace id (PR 4)."""

    TRACE_ID = 0x1234_5678_9ABC_DEF0

    def _requests(self, n):
        return [QoSRequest(i + 1, f"tenant:{i}", 0.5 + i) for i in range(n)]

    def test_traced_request_frame_round_trip(self):
        requests = self._requests(4)
        frame = encode_request_frame(requests, trace_id=self.TRACE_ID)
        trace_id, messages = decode_frame_traced(frame)
        assert trace_id == self.TRACE_ID
        assert messages == requests

    def test_traced_response_frame_round_trip(self):
        responses = [QoSResponse(i + 1, i % 2 == 0) for i in range(3)]
        frame = encode_response_frame(responses, trace_id=self.TRACE_ID)
        trace_id, messages = decode_frame_traced(frame)
        assert trace_id == self.TRACE_ID
        assert messages == responses

    def test_untraced_frame_byte_identical_to_pre_tracing_encoding(self):
        # trace_id=0 must not change the wire image at all: v2 peers
        # that predate tracing keep interoperating byte for byte.
        requests = self._requests(3)
        assert encode_request_frame(requests, trace_id=0) == \
            encode_request_frame(requests)
        frame = encode_request_frame(requests)
        assert not frame[3] & FLAG_FRAME_TRACED
        assert decode_frame_traced(frame) == (0, requests)

    def test_traced_frame_is_exactly_eight_bytes_longer(self):
        requests = self._requests(2)
        untraced = encode_request_frame(requests)
        traced = encode_request_frame(requests, trace_id=self.TRACE_ID)
        assert len(traced) == len(untraced) + TRACE_ID_BYTES
        assert traced[3] & FLAG_FRAME_TRACED

    def test_decode_frame_drops_the_trace_id(self):
        # The pre-tracing decode surface still works on traced frames.
        requests = self._requests(2)
        frame = encode_request_frame(requests, trace_id=self.TRACE_ID)
        assert decode_frame(frame) == requests

    def test_decode_any_traced_v1_has_no_trace_id(self):
        req = QoSRequest(9, "k", 2.0)
        assert decode_any_traced(req.encode()) == (VERSION, 0, [req])

    def test_decode_any_traced_v2(self):
        requests = self._requests(3)
        frame = encode_request_frame(requests, trace_id=self.TRACE_ID)
        assert decode_any_traced(frame) == \
            (VERSION2, self.TRACE_ID, requests)

    def test_trace_id_out_of_u64_range_rejected(self):
        for bad in (-1, 2**64):
            with pytest.raises(ProtocolError):
                encode_request_frame(self._requests(1), trace_id=bad)
            with pytest.raises(ProtocolError):
                encode_response_frame([QoSResponse(1, True)], trace_id=bad)

    def test_truncated_trace_id_rejected(self):
        frame = encode_request_frame(self._requests(1),
                                     trace_id=self.TRACE_ID)
        header_end = 6
        for cut in range(header_end, header_end + TRACE_ID_BYTES):
            with pytest.raises(ProtocolError):
                decode_frame_traced(frame[:cut])

    def test_flag_set_with_zero_id_rejected(self):
        # A frame claiming TRACED must carry a nonzero id: zero would be
        # indistinguishable from "untraced" downstream.
        frame = bytearray(encode_request_frame(self._requests(1),
                                               trace_id=self.TRACE_ID))
        frame[6:6 + TRACE_ID_BYTES] = b"\x00" * TRACE_ID_BYTES
        with pytest.raises(ProtocolError):
            decode_frame_traced(bytes(frame))

    @given(st.integers(1, 2**64 - 1), st.integers(1, 16))
    @settings(max_examples=50)
    def test_traced_round_trip_property(self, trace_id, n):
        requests = self._requests(n)
        frame = encode_request_frame(requests, trace_id=trace_id)
        assert decode_frame_traced(frame) == (trace_id, requests)

    @given(st.binary(max_size=200))
    @settings(max_examples=200)
    def test_random_bytes_never_crash_traced_decoders(self, blob):
        for decoder in (decode_frame_traced, decode_any_traced):
            try:
                decoder(blob)
            except ProtocolError:
                pass    # the only acceptable failure mode


class TestV2FrameMalformedInput:
    """Truncated, inflated, and garbage v2 frames must only ever raise."""

    def test_truncated_header(self):
        frame = encode_request_frame([QoSRequest(1, "k")])
        with pytest.raises(ProtocolError):
            decode_frame(frame[:4])

    def test_truncated_entry(self):
        frame = encode_request_frame([QoSRequest(1, "key-one"),
                                      QoSRequest(2, "key-two")])
        with pytest.raises(ProtocolError):
            decode_frame(frame[:-5])

    def test_count_disagrees_with_payload(self):
        # Declared count says 3, payload carries 2: must raise, not
        # return a short list.
        frame = bytearray(encode_request_frame(
            [QoSRequest(1, "a"), QoSRequest(2, "b")]))
        struct.pack_into("!H", frame, 4, 3)
        with pytest.raises(ProtocolError):
            decode_frame(bytes(frame))

    def test_count_smaller_than_payload(self):
        frame = bytearray(encode_request_frame(
            [QoSRequest(1, "a"), QoSRequest(2, "b")]))
        struct.pack_into("!H", frame, 4, 1)
        with pytest.raises(ProtocolError):
            decode_frame(bytes(frame))

    def test_zero_count_rejected(self):
        frame = bytearray(encode_request_frame([QoSRequest(1, "a")]))
        struct.pack_into("!H", frame, 4, 0)
        with pytest.raises(ProtocolError):
            decode_frame(bytes(frame))

    def test_inflated_key_length(self):
        frame = bytearray(encode_request_frame([QoSRequest(1, "ab")]))
        struct.pack_into("!H", frame, 6 + 8, 60_000)
        with pytest.raises(ProtocolError):
            decode_frame(bytes(frame))

    def test_bad_verdict_in_response_frame(self):
        frame = bytearray(encode_response_frame([QoSResponse(1, True)]))
        frame[6 + 8] = 9
        with pytest.raises(ProtocolError):
            decode_frame(bytes(frame))

    def test_v1_datagram_rejected_by_decode_frame(self):
        with pytest.raises(ProtocolError):
            decode_frame(QoSRequest(1, "k").encode())

    def test_unsupported_version_rejected_by_decode_any(self):
        frame = bytearray(encode_request_frame([QoSRequest(1, "k")]))
        frame[2] = 7
        with pytest.raises(ProtocolError):
            decode_any(bytes(frame))

    @given(st.binary(max_size=200))
    @settings(max_examples=300)
    def test_random_bytes_never_crash(self, blob):
        for decoder in (decode_frame, decode_any):
            try:
                decoder(blob)
            except ProtocolError:
                pass    # the only acceptable failure mode

    @given(st.binary(max_size=100), st.integers(0, 99))
    @settings(max_examples=200)
    def test_flipped_frame_bytes_never_crash(self, junk, cut):
        # Mutate a valid frame: truncate, extend, or both.
        frame = encode_request_frame(
            [QoSRequest(5, "tenant:a", 1.0), QoSRequest(6, "tenant:b", 2.0)])
        mutated = frame[:cut % len(frame)] + junk
        try:
            decode_any(mutated)
        except ProtocolError:
            pass


class TestLeaseFrames:
    """Credit-lease frames (v2 LEASE_REQ/LEASE_GRANT/LEASE_REVOKE, PR 7)."""

    TRACE_ID = 0xFEED_FACE_CAFE_BEEF

    def _requests(self, n):
        return [LeaseRequest(i + 1, f"hot:{i}", 32.0 + i, 500)
                for i in range(n)]

    def test_request_frame_round_trip(self):
        requests = self._requests(3)
        frame = encode_lease_request_frame(requests)
        assert decode_frame(frame) == requests

    def test_renewal_round_trip(self):
        renewal = LeaseRequest(7, "hot", credits=64.0, ttl_ms=250,
                               return_credits=12.5, return_lease_id=99)
        assert decode_frame(encode_lease_request_frame([renewal])) == \
            [renewal]

    def test_pure_return_round_trip(self):
        giveback = LeaseRequest(8, "hot", credits=0.0, ttl_ms=0,
                                return_credits=3.0, return_lease_id=42)
        assert decode_frame(encode_lease_request_frame([giveback])) == \
            [giveback]

    def test_grant_frame_round_trip(self):
        grants = [LeaseGrant(i + 1, f"hot:{i}", 100 + i, 16.0, 500)
                  for i in range(4)]
        assert decode_frame(encode_lease_grant_frame(grants)) == grants

    def test_refusal_grant_round_trip(self):
        refusal = LeaseGrant(5, "hot", lease_id=0, credits=0.0, ttl_ms=0)
        assert decode_frame(encode_lease_grant_frame([refusal])) == [refusal]

    def test_revoke_frame_round_trip(self):
        revokes = [LeaseRevoke(100 + i, f"hot:{i}") for i in range(3)]
        assert decode_frame(encode_lease_revoke_frame(revokes)) == revokes

    def test_traced_lease_frames_carry_the_id(self):
        for encode, messages in (
                (encode_lease_request_frame, self._requests(2)),
                (encode_lease_grant_frame,
                 [LeaseGrant(1, "k", 9, 8.0, 100)]),
                (encode_lease_revoke_frame, [LeaseRevoke(9, "k")])):
            frame = encode(messages, trace_id=self.TRACE_ID)
            assert frame[3] & FLAG_FRAME_TRACED
            assert decode_frame_traced(frame) == (self.TRACE_ID, messages)

    def test_decode_any_routes_lease_frames(self):
        requests = self._requests(2)
        version, messages = decode_any(encode_lease_request_frame(requests))
        assert (version, messages) == (VERSION2, requests)

    def test_return_credits_require_a_lease_id(self):
        bad = LeaseRequest(1, "k", 8.0, 100, return_credits=2.0,
                           return_lease_id=0)
        with pytest.raises(ProtocolError):
            encode_lease_request_frame([bad])

    def test_half_refusal_grants_rejected(self):
        # credits>0 with lease_id 0, and lease_id>0 with credits 0, are
        # both nonsense on the wire.
        for lease_id, credits in ((0, 8.0), (9, 0.0)):
            with pytest.raises(ProtocolError):
                encode_lease_grant_frame(
                    [LeaseGrant(1, "k", lease_id, credits, 100)])

    def test_zero_lease_id_revoke_rejected(self):
        with pytest.raises(ProtocolError):
            encode_lease_revoke_frame([LeaseRevoke(0, "k")])

    def test_ttl_out_of_range_rejected(self):
        for ttl in (-1, MAX_LEASE_TTL_MS + 1):
            with pytest.raises(ProtocolError):
                encode_lease_request_frame([LeaseRequest(1, "k", 8.0, ttl)])

    def test_empty_lease_frame_rejected(self):
        for encode in (encode_lease_request_frame, encode_lease_grant_frame,
                       encode_lease_revoke_frame):
            with pytest.raises(ProtocolError):
                encode([])

    def test_truncated_lease_entry_rejected(self):
        frame = encode_lease_request_frame(self._requests(2))
        with pytest.raises(ProtocolError):
            decode_frame(frame[:-5])

    @given(st.integers(1, 32))
    @settings(max_examples=30)
    def test_lease_request_frame_round_trip_property(self, n):
        requests = self._requests(n)
        assert decode_frame(encode_lease_request_frame(requests)) == requests

    @given(st.binary(max_size=200), st.integers(0, 99))
    @settings(max_examples=300)
    def test_mutated_lease_frames_never_crash(self, junk, cut):
        frame = encode_lease_grant_frame(
            [LeaseGrant(1, "hot:a", 7, 16.0, 500),
             LeaseGrant(2, "hot:b", 8, 32.0, 500)])
        mutated = frame[:cut % len(frame)] + junk
        for decoder in (decode_frame, decode_any, decode_frame_traced,
                        decode_any_traced):
            try:
                decoder(mutated)
            except ProtocolError:
                pass    # the only acceptable failure mode

    @given(st.binary(max_size=200))
    @settings(max_examples=200)
    def test_random_bytes_with_lease_types_never_crash(self, blob):
        # Force the frame-type byte through the lease range so the fuzz
        # actually reaches the type-3/4/5 decoders.
        frame = bytearray(encode_lease_request_frame(self._requests(1)))
        for mtype in (3, 4, 5):
            mutated = bytes(frame[:3]) + bytes([mtype]) + bytes(blob)
            try:
                decode_any(mutated)
            except ProtocolError:
                pass


class TestReshardFrames:
    """Reshard frames (v2 SNAPSHOT_XFER/XFER_ACK/TOPOLOGY, PR 9)."""

    TRACE_ID = 0xDEAD_BEEF_0000_0009

    def _buckets(self, n, leases=0):
        from repro.core.admission import LeaseSnapshot

        return tuple(
            BucketSnapshot(
                key=f"moved:{i}", capacity=100.0 + i, refill_rate=float(i),
                credit=50.0 + i,
                leases=tuple(LeaseSnapshot(
                    lease_id=1 + i * 10 + j, granted=4.0 + j,
                    ttl_remaining=0.5, holder=("10.0.0.9", 7000 + j))
                    for j in range(leases)))
            for i in range(n))

    def _chunk(self, n=3, leases=0, **kwargs):
        fields = dict(xfer_id=7, epoch=3, seq=1, total=4,
                      buckets=self._buckets(n, leases))
        fields.update(kwargs)
        return SnapshotChunk(**fields)

    def test_snapshot_chunk_round_trip(self):
        chunk = self._chunk(n=3, leases=2)
        assert decode_frame(encode_snapshot_xfer_frame(chunk)) == [chunk]

    def test_snapshot_chunk_traced_round_trip(self):
        chunk = self._chunk()
        frame = encode_snapshot_xfer_frame(chunk, trace_id=self.TRACE_ID)
        assert frame[3] & FLAG_FRAME_TRACED
        assert decode_frame_traced(frame) == (self.TRACE_ID, [chunk])

    def test_xfer_ack_round_trip(self):
        acks = [XferAck(7, 3, i) for i in range(4)]
        assert decode_frame(encode_xfer_ack_frame(acks)) == acks

    def test_topology_round_trip(self):
        for phase in (TOPOLOGY_PREPARE, TOPOLOGY_COMMIT, TOPOLOGY_ABORT):
            update = TopologyUpdate(
                epoch=9, phase=phase,
                backends=(("10.0.0.1", 9001), ("10.0.0.2", 9002)))
            assert decode_frame(encode_topology_frame(update)) == [update]

    def test_decode_any_routes_reshard_frames(self):
        chunk = self._chunk()
        version, messages = decode_any(encode_snapshot_xfer_frame(chunk))
        assert (version, messages) == (VERSION2, [chunk])

    def test_epoch_zero_rejected_everywhere(self):
        with pytest.raises(ProtocolError, match="epoch"):
            encode_snapshot_xfer_frame(self._chunk(epoch=0))
        with pytest.raises(ProtocolError, match="epoch"):
            encode_xfer_ack_frame([XferAck(7, 0, 1)])
        with pytest.raises(ProtocolError, match="epoch"):
            encode_topology_frame(TopologyUpdate(
                0, TOPOLOGY_PREPARE, (("h", 1),)))

    def test_reserved_xfer_id_rejected_for_chunks(self):
        with pytest.raises(ProtocolError, match="reserved"):
            encode_snapshot_xfer_frame(self._chunk(xfer_id=0))

    def test_chunk_seq_total_bounds(self):
        with pytest.raises(ProtocolError):
            encode_snapshot_xfer_frame(self._chunk(seq=4, total=4))
        with pytest.raises(ProtocolError):
            encode_snapshot_xfer_frame(self._chunk(total=0, seq=0))
        with pytest.raises(ProtocolError):
            encode_snapshot_xfer_frame(
                self._chunk(total=MAX_XFER_CHUNKS + 1))

    def test_oversized_lease_count_rejected_on_decode(self):
        # Forge the bucket's lease count over the wire bound: the
        # decoder must refuse before trying to read 64k lease entries.
        chunk = self._chunk(n=1, leases=1)
        frame = bytearray(encode_snapshot_xfer_frame(chunk))
        # n_leases is the u16 closing the bucket tail, right before the
        # lease entry (!QdIB, 21B fixed) + holder host ("10.0.0.9", 8B)
        # + port (2B) that end the frame.
        lease_entry = 21 + len("10.0.0.9") + 2
        n_leases_at = len(frame) - lease_entry - 2
        struct.pack_into("!H", frame, n_leases_at, 60_000)
        with pytest.raises(ProtocolError):
            decode_frame(bytes(frame))

    def test_bad_topology_phase_rejected(self):
        update = TopologyUpdate(5, TOPOLOGY_ABORT, (("h", 1),))
        frame = bytearray(encode_topology_frame(update))
        # The phase byte is the last byte of the topology head.
        frame[6 + 4] = 9
        with pytest.raises(ProtocolError):
            decode_frame(bytes(frame))

    def test_truncation_at_every_boundary_rejected_cleanly(self):
        chunk = self._chunk(n=2, leases=1)
        for frame in (encode_snapshot_xfer_frame(chunk),
                      encode_xfer_ack_frame([XferAck(7, 3, 0)]),
                      encode_topology_frame(TopologyUpdate(
                          4, TOPOLOGY_COMMIT, (("10.0.0.1", 9001),)))):
            for cut in range(len(frame)):
                with pytest.raises(ProtocolError):
                    decode_frame(frame[:cut])

    @given(st.integers(1, 16), st.integers(0, 3))
    @settings(max_examples=40)
    def test_snapshot_round_trip_property(self, n, leases):
        chunk = self._chunk(n=n, leases=leases)
        (decoded,) = decode_frame(encode_snapshot_xfer_frame(chunk))
        assert decoded.xfer_id == chunk.xfer_id
        assert decoded.epoch == chunk.epoch
        assert [b.key for b in decoded.buckets] == \
            [b.key for b in chunk.buckets]
        assert [b.credit for b in decoded.buckets] == \
            [b.credit for b in chunk.buckets]
        for before, after in zip(chunk.buckets, decoded.buckets):
            assert [l.lease_id for l in after.leases] == \
                [l.lease_id for l in before.leases]
            assert all(l.holder == m.holder
                       for l, m in zip(before.leases, after.leases))

    @given(st.binary(max_size=200), st.integers(0, 99))
    @settings(max_examples=300)
    def test_mutated_reshard_frames_never_crash(self, junk, cut):
        frame = encode_snapshot_xfer_frame(self._chunk(n=2, leases=1))
        mutated = frame[:cut % len(frame)] + junk
        for decoder in (decode_frame, decode_any, decode_frame_traced,
                        decode_any_traced):
            try:
                decoder(mutated)
            except ProtocolError:
                pass    # the only acceptable failure mode

    @given(st.binary(max_size=200))
    @settings(max_examples=200)
    def test_random_bytes_with_reshard_types_never_crash(self, blob):
        # Force the frame-type byte through the reshard range so the
        # fuzz actually reaches the type-6/7/8 decoders.
        frame = bytearray(encode_topology_frame(TopologyUpdate(
            1, TOPOLOGY_PREPARE, (("h", 1),))))
        for mtype in (6, 7, 8):
            mutated = bytes(frame[:3]) + bytes([mtype]) + bytes(blob)
            try:
                decode_any(mutated)
            except ProtocolError:
                pass
