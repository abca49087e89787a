"""Tests for the wire front end (:mod:`repro.service.net`).

Covers the frame codec (CRC, magic, truncation — damage is always a
typed :class:`FrameCorruptError`), the typed-error wire round-trip, the
server/client sort path (frame and shm payloads), request idempotency
under retried ids, deadline propagation onto the wire, fault-injected
corruption, and clean teardown with zero leaked shm segments.
"""

import socket
import threading
import time

import numpy as np
import pytest

from repro.errors import (
    AdmissionError,
    FrameCorruptError,
    RequestTimeoutError,
    ServiceError,
    ShardUnavailableError,
)
from repro.faults import FaultPlan, NetFaultInjector, corrupt_frame_bytes
from repro.service import SortClient, SortServer, SortService
from repro.service.net import (
    HEADER_SIZE,
    MAGIC,
    MIN_PROTO_VERSION,
    PROTO_VERSION,
    FrameType,
    decode_frame,
    encode_frame,
    error_from_meta,
    error_to_meta,
    host_token,
    parse_header,
    shm_segments,
    validate_payload,
)
from repro.utils.rng import make_keys


class TestFrameCodec:
    def test_roundtrip(self):
        frame = encode_frame(
            FrameType.SORT, {"id": "abc", "n": 3}, b"\x01\x02\x03", seq=7
        )
        ftype, meta, body = decode_frame(frame)
        assert ftype == FrameType.SORT
        assert meta == {"id": "abc", "n": 3}
        assert body == b"\x01\x02\x03"

    def test_header_is_24_bytes(self):
        frame = encode_frame(FrameType.HELLO, {})
        assert frame[:4] == MAGIC
        assert HEADER_SIZE == 24

    def test_flipped_payload_bit_fails_crc(self):
        frame = bytearray(encode_frame(FrameType.SORT, {"id": "x"}, b"abc"))
        frame[HEADER_SIZE + 1] ^= 0x10
        with pytest.raises(FrameCorruptError) as exc:
            decode_frame(bytes(frame))
        assert exc.value.detail == "crc"

    def test_bad_magic(self):
        frame = bytearray(encode_frame(FrameType.SORT, {}))
        frame[0] ^= 0xFF
        with pytest.raises(FrameCorruptError) as exc:
            decode_frame(bytes(frame))
        assert exc.value.detail == "magic"

    def test_bad_version(self):
        frame = bytearray(encode_frame(FrameType.SORT, {}))
        frame[4] = 99
        with pytest.raises(FrameCorruptError) as exc:
            decode_frame(bytes(frame))
        assert exc.value.detail == "version"

    def test_v1_header_is_rejected(self):
        """The v1 window is closed: a frame stamped with version 1 is a
        typed version error (the header sits outside the CRC-covered
        region, so patching the byte needs no recompute)."""
        frame = bytearray(
            encode_frame(FrameType.SORT, {"id": "v1"}, b"\x01\x02")
        )
        assert frame[4] == PROTO_VERSION
        assert MIN_PROTO_VERSION == 2
        frame[4] = 1
        with pytest.raises(FrameCorruptError) as exc:
            decode_frame(bytes(frame))
        assert exc.value.detail == "version"

    def test_truncated_header(self):
        with pytest.raises(FrameCorruptError) as exc:
            parse_header(b"RBSF\x01")
        assert exc.value.detail == "truncated"

    def test_truncated_payload(self):
        frame = encode_frame(FrameType.SORT, {"id": "x"}, b"abcdef")
        with pytest.raises(FrameCorruptError) as exc:
            decode_frame(frame[:-2])
        assert exc.value.detail == "truncated"

    def test_implausible_lengths_rejected_before_allocation(self):
        import struct

        header = struct.pack(
            "!4sBBHIII", MAGIC, 1, FrameType.SORT, 0, 0, 1 << 30, 0
        ) + struct.pack("!I", 0)
        with pytest.raises(FrameCorruptError):
            parse_header(header)

    def test_garbage_meta_is_typed(self):
        import zlib

        payload = b"not json at all"
        frame = encode_frame(FrameType.SORT, {}, b"")
        with pytest.raises(FrameCorruptError) as exc:
            validate_payload(
                FrameType.SORT, payload, len(payload),
                zlib.crc32(payload),
            )
        assert exc.value.detail == "meta"

    def test_corrupt_frame_bytes_lands_past_header(self):
        frame = encode_frame(FrameType.SORT, {"id": "y"}, b"\x00" * 64)
        rng = np.random.default_rng(0)
        bad = corrupt_frame_bytes(frame, rng)
        assert bad != frame
        assert bad[:HEADER_SIZE] == frame[:HEADER_SIZE]
        with pytest.raises(FrameCorruptError):
            decode_frame(bad)


class TestWireErrors:
    @pytest.mark.parametrize(
        "exc",
        [
            AdmissionError("queue full", reason="queue-full"),
            RequestTimeoutError("late", deadline_s=1.5, elapsed_s=2.0,
                                stage="admission"),
            FrameCorruptError("bit flip", detail="crc"),
            ShardUnavailableError("down"),
            ServiceError("generic"),
        ],
    )
    def test_roundtrip_preserves_type(self, exc):
        back = error_from_meta(error_to_meta(exc))
        assert type(back) is type(exc)
        assert str(exc) in str(back)

    def test_roundtrip_preserves_diagnostics(self):
        back = error_from_meta(error_to_meta(
            RequestTimeoutError("late", deadline_s=1.5, elapsed_s=2.0,
                                stage="admission")
        ))
        assert back.stage == "admission"
        assert back.deadline_s == 1.5
        back = error_from_meta(error_to_meta(
            AdmissionError("no", reason="tenant-rate")
        ))
        assert back.reason == "tenant-rate"

    def test_unknown_error_degrades_to_service_error(self):
        back = error_from_meta({"error": "WeirdError", "message": "hm"})
        assert type(back) is ServiceError
        assert "WeirdError" in str(back)


@pytest.fixture(scope="module")
def server():
    """One live server over a real SortService for the wire tests."""
    svc = SortService(queue_depth=16, batch_max=4)
    srv = SortServer(svc, name="test-shard", own_service=True)
    srv.start()
    yield srv
    srv.close()


@pytest.fixture()
def client(server):
    with SortClient(server.address, via_shm=False, retries=2,
                    timeout_s=10.0) as cli:
        yield cli


def _raw_recv_frame(sock):
    buf = b""
    while len(buf) < HEADER_SIZE:
        buf += sock.recv(HEADER_SIZE - len(buf))
    ftype, _flags, _seq, meta_len, body_len, crc = parse_header(buf)
    payload = b""
    while len(payload) < meta_len + body_len:
        payload += sock.recv(meta_len + body_len - len(payload))
    meta, body = validate_payload(ftype, payload, meta_len, crc)
    return ftype, meta, body


class TestSortOverTheWire:
    def test_sorts_and_verifies(self, client):
        keys = make_keys(4096, seed=1)
        out = client.sort(keys, deadline_s=60.0, backend="threads", P=2)
        assert np.array_equal(out.sorted_keys, np.sort(keys))
        assert out.shard == "test-shard"
        assert out.attempts == 1
        assert out.via_shm is False
        assert out.server["backend"] == "threads"

    def test_handshake_learns_the_server(self, client):
        client.health()
        assert client._server_info["server"] == "test-shard"
        assert client._server_info["host_token"] == host_token()

    def test_shm_payload_roundtrip_and_cleanup(self, server):
        before = shm_segments()
        with SortClient(server.address, via_shm=True) as cli:
            keys = make_keys(4096, seed=2)
            out = cli.sort(keys, deadline_s=60.0, backend="threads", P=2)
        assert out.via_shm is True
        assert np.array_equal(out.sorted_keys, np.sort(keys))
        assert shm_segments() == before  # the client unlinked its segment

    def test_health_rpc(self, client):
        answer = client.health()
        assert answer["server"] == "test-shard"
        assert answer["healthy"] is True
        assert answer["served"] >= 0

    def test_network_trace_spans_use_documented_categories(self, client):
        from repro.machine.metrics import CATEGORIES

        keys = make_keys(2048, seed=3)
        out = client.sort(keys, deadline_s=60.0, backend="threads", P=2,
                          trace=True)
        assert out.tracer is not None and out.tracer.spans
        for span in out.tracer.spans:
            assert span[0] in CATEGORIES

    def test_retried_request_id_sorts_once(self, server):
        """Idempotency: the same id sent twice runs one sort."""
        served_before = server.service.report().served
        keys = make_keys(1024, seed=4)
        meta = {
            "id": "deadbeef" * 4,
            "dtype": str(keys.dtype.str),
            "backend": "threads",
            "P": 2,
        }
        with socket.create_connection(server.address, timeout=30.0) as s:
            s.sendall(encode_frame(FrameType.HELLO, {"client": "raw"}))
            ftype, _m, _b = _raw_recv_frame(s)
            assert ftype == FrameType.WELCOME
            frame = encode_frame(FrameType.SORT, meta, keys.tobytes())
            s.sendall(frame)
            ftype1, meta1, body1 = _raw_recv_frame(s)
            s.sendall(frame)  # the retry, same id
            ftype2, meta2, body2 = _raw_recv_frame(s)
        assert ftype1 == ftype2 == FrameType.RESULT
        assert body1 == body2
        assert np.array_equal(
            np.frombuffer(body1, dtype=keys.dtype), np.sort(keys)
        )
        assert server.service.report().served == served_before + 1

    def test_v1_sort_frame_is_rejected(self, server):
        """A v1-era SORT frame reaching a live server is answered with a
        typed version error and never sorted."""
        served_before = server.service.report().served
        keys = make_keys(1024, seed=21)
        meta = {
            "id": "c" * 32,
            "dtype": str(keys.dtype.str),
            "backend": "threads",
            "P": 2,
        }
        frame = bytearray(encode_frame(FrameType.SORT, meta, keys.tobytes()))
        frame[4] = 1
        with socket.create_connection(server.address, timeout=30.0) as s:
            s.sendall(bytes(frame))
            ftype, emeta, _body = _raw_recv_frame(s)
        assert ftype == FrameType.ERROR
        err = error_from_meta(emeta)
        assert type(err) is FrameCorruptError
        assert err.detail == "version"
        assert server.service.report().served == served_before

    def test_algorithm_meta_round_trips(self, client):
        keys = make_keys(1 << 11, seed=22)
        out = client.sort(keys, algorithm="sample", backend="threads", P=2)
        assert out.server["algorithm"] == "sample"
        np.testing.assert_array_equal(out.sorted_keys, np.sort(keys))

    def test_auto_algorithm_is_planned_server_side(self, client):
        keys = make_keys(1 << 11, seed=23)
        out = client.sort(keys, algorithm="auto")
        assert out.server["algorithm"] in ("smart", "sample")
        np.testing.assert_array_equal(out.sorted_keys, np.sort(keys))

    def test_corrupt_request_answers_typed_not_silent(self, server):
        keys = make_keys(512, seed=5)
        frame = bytearray(encode_frame(
            FrameType.SORT,
            {"id": "f" * 32, "dtype": str(keys.dtype.str)},
            keys.tobytes(),
        ))
        frame[HEADER_SIZE + 3] ^= 0x01  # damage the checksummed region
        with socket.create_connection(server.address, timeout=30.0) as s:
            s.sendall(bytes(frame))
            ftype, meta, _body = _raw_recv_frame(s)
        assert ftype == FrameType.ERROR
        assert type(error_from_meta(meta)) is FrameCorruptError

    def test_spent_deadline_never_reaches_the_service(self, server):
        """Deadline propagation: a request whose budget is gone is
        refused typed, not sorted."""
        served_before = server.service.report().served
        meta = {
            "id": "a" * 32,
            "dtype": "<u4",
            "backend": "threads",
            "P": 2,
            "budget_s": 0.0,
        }
        keys = make_keys(1024, seed=6)
        with socket.create_connection(server.address, timeout=30.0) as s:
            s.sendall(encode_frame(FrameType.SORT, meta, keys.tobytes()))
            ftype, emeta, _body = _raw_recv_frame(s)
        assert ftype == FrameType.ERROR
        err = error_from_meta(emeta)
        assert type(err) is RequestTimeoutError
        assert err.stage == "admission"
        assert server.service.report().served == served_before

    def test_client_deadline_is_typed(self, client):
        with pytest.raises(RequestTimeoutError) as exc:
            client.sort(make_keys(1024, seed=7), deadline_s=1e-9)
        assert exc.value.stage in ("client", "admission")

    def test_unreachable_server_is_typed(self):
        cli = SortClient(("127.0.0.1", 1), retries=1, backoff_s=0.01,
                         timeout_s=0.5)
        with pytest.raises(ShardUnavailableError) as exc:
            cli.sort(make_keys(256, seed=8))
        assert exc.value.attempts == 2  # first try + one retry


class TestFaultInjectedServer:
    def test_always_corrupt_exhausts_retries_typed(self):
        plan = FaultPlan(seed=0, corrupt=1.0)
        svc = SortService(queue_depth=8, batch_max=2)
        srv = SortServer(svc, name="chaos-shard",
                         faults=NetFaultInjector(plan), own_service=True)
        addr = srv.start()
        try:
            cli = SortClient(addr, via_shm=False, retries=1,
                             backoff_s=0.01, timeout_s=5.0)
            with pytest.raises((ShardUnavailableError,
                                FrameCorruptError)):
                cli.sort(make_keys(512, seed=9), backend="threads", P=2)
            cli.close()
        finally:
            srv.close()

    def test_kill_is_abrupt_but_typed_for_clients(self):
        svc = SortService(queue_depth=8, batch_max=2)
        srv = SortServer(svc, name="doomed", own_service=True)
        addr = srv.start()
        cli = SortClient(addr, via_shm=False, retries=1, backoff_s=0.01,
                         timeout_s=2.0)
        out = cli.sort(make_keys(512, seed=10), backend="threads", P=2)
        assert np.all(np.diff(out.sorted_keys.astype(np.int64)) >= 0)
        srv.kill()
        with pytest.raises((ShardUnavailableError, RequestTimeoutError)):
            cli.sort(make_keys(512, seed=11), deadline_s=3.0,
                     backend="threads", P=2)
        cli.close()

    def test_concurrent_clients_one_instance(self, server):
        """One SortClient is safe across threads (per-thread conns)."""
        cli = SortClient(server.address, via_shm=False, timeout_s=30.0)
        errors = []

        def work(seed):
            try:
                keys = make_keys(1024, seed=seed)
                out = cli.sort(keys, deadline_s=60.0, backend="threads",
                               P=2)
                assert np.array_equal(out.sorted_keys, np.sort(keys))
            except Exception as exc:  # noqa: BLE001 — collected
                errors.append(exc)

        threads = [
            threading.Thread(target=work, args=(100 + i,))
            for i in range(6)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        cli.close()
        assert not errors
