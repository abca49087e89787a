"""Tests for the wire front end (:mod:`repro.service.net`).

Covers the frame codec (CRC, magic, truncation — damage is always a
typed :class:`FrameCorruptError`), the typed-error wire round-trip, the
server/client sort path (frame and shm payloads), request idempotency
under retried ids (on one connection and across two) with the reply
cache's byte cap, the O(1) ``HEALTH`` probe, deadline
propagation onto the wire, fault-injected corruption, the server's
connection cap, drain-on-close, and clean teardown with zero leaked shm
segments or server threads.
"""

import socket
import sys
import threading
import time
from collections import deque

import numpy as np
import pytest

from repro.errors import (
    AdmissionError,
    ConfigurationError,
    FrameCorruptError,
    MemoryBudgetError,
    RequestTimeoutError,
    ServiceError,
    ShardUnavailableError,
    SizeError,
)
from repro.faults import FaultPlan, NetFaultInjector, corrupt_frame_bytes
from repro.service import LocalShard, SortClient, SortServer, SortService, net
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
    recv_frame,
    server_threads,
    shm_segments,
    validate_payload,
)
from repro.service.service import REQUEST_LOG
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
            AdmissionError("no", reason="connections")
        ))
        assert back.reason == "connections"

    def test_unknown_error_degrades_to_service_error(self):
        back = error_from_meta({"error": "WeirdError", "message": "hm"})
        assert type(back) is ServiceError
        assert "WeirdError" in str(back)


@pytest.fixture(scope="module")
def server():
    """One live server over a real SortService for the wire tests."""
    svc = SortService(queue_depth=16)
    srv = SortServer(svc, name="test-shard", own_service=True)
    srv.start()
    yield srv
    srv.close()


@pytest.fixture()
def client(server):
    with SortClient(server.address, via_shm=False, retries=2,
                    timeout_s=10.0) as cli:
        yield cli


def _threads_of(name):
    """The live threads of the server named ``name``."""
    return [t for t in server_threads() if t == f"sort-server-{name}"
            or t.startswith(f"sortsrv-{name}-")]


class _GatedService:
    """A service whose ``sort`` (the door a server calls) signals
    ``entered`` and then waits for ``release``: it holds a request,
    already read off the wire, on its connection thread until the test
    lets it go."""

    def __init__(self, service):
        self.service = service
        self.entered = threading.Event()
        self.release = threading.Event()

    def sort(self, keys, **opts):
        self.entered.set()
        assert self.release.wait(30.0)
        return self.service.sort(keys, **opts)

    def counters(self):
        return self.service.counters()

    def report(self):
        return self.service.report()

    def close(self, drain=True):
        self.service.close(drain=drain)


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
            ftype, _m, _b = recv_frame(s)
            assert ftype == FrameType.WELCOME
            frame = encode_frame(FrameType.SORT, meta, keys.tobytes())
            s.sendall(frame)
            ftype1, meta1, body1 = recv_frame(s)
            s.sendall(frame)  # the retry, same id
            ftype2, meta2, body2 = recv_frame(s)
        assert ftype1 == ftype2 == FrameType.RESULT
        assert body1 == body2
        assert np.array_equal(
            np.frombuffer(body1, dtype=keys.dtype), np.sort(keys)
        )
        assert server.service.report().served == served_before + 1

    def test_inflight_id_is_shared_across_connections(self, monkeypatch):
        """A second connection that sends an id still running on a first
        waits for that run and gets the same reply bytes."""
        waiting = threading.Event()

        class SpyFuture(net.Future):
            def result(self, timeout=None):
                waiting.set()
                return super().result(timeout)

        monkeypatch.setattr(net, "Future", SpyFuture)
        gate = _GatedService(SortService(queue_depth=4))
        srv = SortServer(gate, name="dedupe", own_service=True)
        addr = srv.start()
        keys = make_keys(1024, seed=30)
        frame = encode_frame(
            FrameType.SORT,
            {"id": "d" * 32, "dtype": str(keys.dtype.str)},
            keys.tobytes(),
        )
        try:
            with socket.create_connection(addr, timeout=30.0) as first, \
                    socket.create_connection(addr, timeout=30.0) as second:
                first.sendall(frame)
                assert gate.entered.wait(30.0)
                second.sendall(frame)
                assert waiting.wait(30.0)  # the second rides the first
                gate.release.set()
                replies = [recv_frame(s) for s in (first, second)]
        finally:
            srv.close()
        assert replies[0][0] == replies[1][0] == FrameType.RESULT
        assert replies[0][2] == replies[1][2] == np.sort(keys).tobytes()
        assert gate.service.report().served == 1

    def test_close_drains_a_request_already_read(self, monkeypatch):
        shut_rd = threading.Event()
        real_shutdown = net._shutdown

        def spy(sock, how, reset=False):
            real_shutdown(sock, how, reset)
            if how == socket.SHUT_RD:
                shut_rd.set()

        monkeypatch.setattr(net, "_shutdown", spy)
        gate = _GatedService(SortService(queue_depth=4))
        srv = SortServer(gate, name="drain", own_service=True)
        addr = srv.start()
        keys = make_keys(1024, seed=31)
        got = []
        with SortClient(addr, via_shm=False, retries=0,
                        timeout_s=30.0) as cli:
            caller = threading.Thread(
                target=lambda: got.append(cli.sort(keys))
            )
            caller.start()
            assert gate.entered.wait(30.0)
            closer = threading.Thread(target=srv.close)
            closer.start()
            assert shut_rd.wait(30.0)  # no new frame will be read
            gate.release.set()
            caller.join(30.0)
            closer.join(30.0)
        assert not caller.is_alive() and not closer.is_alive()
        [out] = got
        assert out.sorted_keys.tobytes() == np.sort(keys).tobytes()
        assert _threads_of("drain") == []

    def test_connection_cap_refuses_typed(self, monkeypatch):
        monkeypatch.setattr(net, "MAX_CONNECTIONS", 2)
        srv = SortServer(SortService(queue_depth=4), name="capped",
                         own_service=True)
        addr = srv.start()
        clients = [
            SortClient(addr, via_shm=False, retries=0, timeout_s=10.0)
            for _ in range(3)
        ]
        try:
            for cli in clients[:2]:
                cli.health()
            with pytest.raises(AdmissionError) as exc:
                clients[2].sort(make_keys(256, seed=32))
            assert exc.value.reason == "connections"
            [first] = [t for t in threading.enumerate()
                       if t.name == "sortsrv-capped-1"]
            clients[0].close()
            first.join(10.0)
            assert not first.is_alive()
            keys = make_keys(256, seed=33)
            out = clients[2].sort(keys)
            assert out.sorted_keys.tobytes() == np.sort(keys).tobytes()
        finally:
            for cli in clients:
                cli.close()
            srv.close()

    def test_concurrent_retries_sort_each_id_once(self):
        """Stress: more connections than cores send the same four ids at
        once under a short switch interval; each id is sorted once."""
        svc = SortService(queue_depth=64)
        srv = SortServer(svc, name="stress", own_service=True)
        addr = srv.start()
        keys = [make_keys(256, seed=40 + i) for i in range(4)]
        frames = [
            encode_frame(
                FrameType.SORT,
                {"id": f"{i:032x}", "dtype": str(k.dtype.str)},
                k.tobytes(),
            )
            for i, k in enumerate(keys)
        ]
        replies, errors = [], []
        start = threading.Barrier(8, timeout=30.0)

        def work():
            try:
                with socket.create_connection(addr, timeout=30.0) as s:
                    for frame in frames:
                        start.wait()
                        s.sendall(frame)
                        replies.append(recv_frame(s))
            except Exception as exc:  # noqa: BLE001 — collected
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
        finally:
            sys.setswitchinterval(interval)
            srv.close()
        assert not errors and not any(t.is_alive() for t in threads)
        assert len(replies) == 32
        assert {ftype for ftype, _meta, _body in replies} == {FrameType.RESULT}
        assert {body for _ftype, _meta, body in replies} == {
            np.sort(k).tobytes() for k in keys
        }
        assert svc.report().served == 4

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
            ftype, emeta, _body = recv_frame(s)
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
            ftype, meta, _body = recv_frame(s)
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
            ftype, emeta, _body = recv_frame(s)
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


def _raw_sort(server, meta, body=b""):
    """One raw SORT frame on a fresh connection: ``(ftype, meta, body)``
    of the reply."""
    with socket.create_connection(server.address, timeout=30.0) as s:
        s.sendall(encode_frame(FrameType.SORT, meta, body))
        return recv_frame(s)


class TestSortMeta:
    """A SORT frame's meta is checked once, by field type, before the
    service sees it; every verdict comes back typed."""

    KEYS = make_keys(1024, seed=30)

    def _meta(self, **fields):
        """A good meta with ``fields`` replaced (``...`` drops one); a
        fresh id each, since the server caches replies by id."""
        import uuid

        meta = {"id": uuid.uuid4().hex, "dtype": "<u4",
                "backend": "threads", "P": 2}
        meta.update(fields)
        return {k: v for k, v in meta.items() if v is not ...}

    def _refusal(self, server, meta):
        ftype, emeta, _body = _raw_sort(server, meta, self.KEYS.tobytes())
        assert ftype == FrameType.ERROR
        return error_from_meta(emeta)

    def test_a_meta_that_is_not_an_object_keeps_the_connection(self, server):
        """A JSON-list meta is a typed FrameCorruptError, and the same
        connection then serves a good request."""
        import json
        import struct
        import zlib

        meta_bytes = json.dumps([1, 2]).encode()
        header = net._HEADER.pack(
            MAGIC, PROTO_VERSION, FrameType.SORT, 0, 1, len(meta_bytes), 0
        )
        bad = header + struct.pack("!I", zlib.crc32(meta_bytes)) + meta_bytes
        good = encode_frame(FrameType.SORT, self._meta(),
                            self.KEYS.tobytes())
        with socket.create_connection(server.address, timeout=30.0) as s:
            s.sendall(bad)
            ftype, emeta, _body = recv_frame(s)
            assert ftype == FrameType.ERROR
            err = error_from_meta(emeta)
            assert type(err) is FrameCorruptError and err.detail == "meta"
            s.sendall(good)
            ftype, _meta, body = recv_frame(s)
        assert ftype == FrameType.RESULT
        assert body == np.sort(self.KEYS).tobytes()

    @pytest.mark.parametrize("field, value", [
        ("P", "two"), ("P", True), ("P", 2.0), ("backend", 2),
        ("algorithm", True), ("algorithm", 7), ("backend", ["threads"]),
        ("budget_s", "soon"), ("budget_s", False), ("shm", 5),
        ("shape", 1024), ("shape", [True]), ("dtype", 4), ("id", 12),
    ])
    def test_a_field_of_the_wrong_type_is_named(self, server, field, value):
        err = self._refusal(server, self._meta(**{field: value}))
        assert type(err) is ConfigurationError
        assert repr(field) in str(err)

    @pytest.mark.parametrize("extra", [
        pytest.param({"tenant": "acme"}, id="acme"),
        pytest.param({"tenant": 3}, id="3"),
        pytest.param({"fused": False}, id="fused"),
        pytest.param({"grouped": True}, id="grouped"),
    ])
    def test_a_field_not_listed_is_ignored(self, server, extra):
        """An older client's ``tenant`` label or ``fused``/``grouped``
        flags, whatever their type, are served: the protocol stays at
        version 2."""
        assert PROTO_VERSION == 2
        ftype, rmeta, body = _raw_sort(
            server, self._meta(**extra), self.KEYS.tobytes()
        )
        assert ftype == FrameType.RESULT, rmeta
        assert body == np.sort(self.KEYS).tobytes()

    @pytest.mark.parametrize("dtype", [..., "garbage", "O"])
    def test_a_dtype_numpy_cannot_use_is_named(self, server, dtype):
        err = self._refusal(server, self._meta(dtype=dtype))
        assert type(err) is ConfigurationError
        assert "'dtype'" in str(err)

    @pytest.mark.parametrize("shape", [[999], [32, 32], []])
    def test_a_shape_must_match_the_keys(self, server, shape):
        err = self._refusal(server, self._meta(shape=shape))
        assert type(err) is ConfigurationError
        assert "'shape'" in str(err)

    def test_size_errors_arrive_typed(self, server):
        """Forced smart over two ranks of 1000 keys: the contract's
        SizeError, by name, not a plain ServiceError."""
        keys = make_keys(1000, seed=31)
        ftype, emeta, _body = _raw_sort(
            server, self._meta(algorithm="smart"), keys.tobytes()
        )
        assert ftype == FrameType.ERROR
        assert type(error_from_meta(emeta)) is SizeError

    def test_memory_budget_errors_keep_their_bytes(self):
        back = error_from_meta(error_to_meta(MemoryBudgetError(
            "too big", required_bytes=8192, budget_bytes=4096,
        )))
        assert type(back) is MemoryBudgetError
        assert (back.required_bytes, back.budget_bytes) == (8192, 4096)

    def test_a_disk_budget_refusal_arrives_typed(self):
        svc = SortService(memory_budget=1024, disk_budget=1024)
        srv = SortServer(svc, name="disk-shard", own_service=True)
        srv.start()
        try:
            ftype, emeta, _body = _raw_sort(
                srv, self._meta(backend=..., P=...), self.KEYS.tobytes()
            )
        finally:
            srv.close()
        err = error_from_meta(emeta)
        assert type(err) is MemoryBudgetError
        assert (err.required_bytes, err.budget_bytes) == (8192, 1024)


class TestReplyCache:
    """A shard keeps replies for retried ids under a byte cap as well as
    a count cap, evicting the oldest first."""

    @staticmethod
    def _request(i, n):
        keys = make_keys(n, seed=40 + i)  # uint32: 4 bytes a key
        return {"id": f"{i:032x}", "dtype": str(keys.dtype.str)}, keys

    def test_large_replies_keep_the_cached_bytes_under_the_cap(
            self, monkeypatch):
        monkeypatch.setattr(net, "REPLY_CACHE_BYTES", 3 * 16384 + 100)
        srv = SortServer(SortService(queue_depth=4), name="byte-capped",
                         own_service=True)
        srv.start()
        try:
            requests = [self._request(i, 4096) for i in range(5)]
            for meta, keys in requests:
                ftype, _m, body = _raw_sort(srv, meta, keys.tobytes())
                assert ftype == FrameType.RESULT
                assert body == np.sort(keys).tobytes()
                cached = sum(len(r[2]) for r in srv._done.values())
                assert cached == srv._done_bytes <= net.REPLY_CACHE_BYTES
            # Three 16 KiB bodies fit; the two oldest replies went.
            assert list(srv._done) == [m["id"] for m, _k in requests[2:]]
            served = srv.service.report().served
            meta, keys = requests[-1]
            _raw_sort(srv, meta, keys.tobytes())  # cached: not sorted
            assert srv.service.report().served == served
            meta, keys = requests[0]
            ftype, _m, body = _raw_sort(srv, meta, keys.tobytes())
            assert body == np.sort(keys).tobytes()  # evicted: sorted again
            assert srv.service.report().served == served + 1
            # A body over the whole cap is not cached and evicts nothing.
            kept = list(srv._done)
            meta, keys = self._request(9, 16384)
            _raw_sort(srv, meta, keys.tobytes())
            assert list(srv._done) == kept
        finally:
            srv.close()


class _ReadCountingLog(deque):
    """A request log that counts the times something reads it whole."""

    def __init__(self, maxlen):
        super().__init__(maxlen=maxlen)
        self.reads = 0

    def __iter__(self):
        self.reads += 1
        return super().__iter__()


class TestHealthProbe:
    def test_a_probe_copies_no_request_record(self, monkeypatch):
        """``HEALTH`` reads three counters: neither a server's probe nor
        a local shard's copies the request log or the pool stats."""
        svc = SortService(queue_depth=4)
        log = svc._requests = _ReadCountingLog(REQUEST_LOG)
        real_stats = svc.pool.stats
        stats_calls = []

        def stats():
            stats_calls.append(1)
            return real_stats()

        monkeypatch.setattr(svc.pool, "stats", stats)
        srv = SortServer(svc, name="probed", own_service=True)
        addr = srv.start()
        try:
            with SortClient(addr, via_shm=False) as cli:
                cli.sort(make_keys(512, seed=50))
                remote = cli.health()
            local = LocalShard(svc, name="probed").health()
            assert (log.reads, stats_calls) == (0, [])
            assert svc.report().requests  # the full report still copies
            assert (log.reads, len(stats_calls)) == (1, 1)
        finally:
            srv.close()
        assert remote == {"server": "probed", "healthy": True, "served": 1,
                          "failed": 0, "expired": 0, "inflight": 0}
        assert local == {"server": "probed", "healthy": True, "served": 1,
                         "failed": 0, "expired": 0}


class TestFaultInjectedServer:
    def test_always_corrupt_exhausts_retries_typed(self):
        plan = FaultPlan(seed=0, corrupt=1.0)
        svc = SortService(queue_depth=8)
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
        svc = SortService(queue_depth=8)
        srv = SortServer(svc, name="doomed", own_service=True)
        addr = srv.start()
        cli = SortClient(addr, via_shm=False, retries=1, backoff_s=0.01,
                         timeout_s=2.0)
        out = cli.sort(make_keys(512, seed=10), backend="threads", P=2)
        assert np.all(np.diff(out.sorted_keys.astype(np.int64)) >= 0)
        srv.kill()
        assert _threads_of("doomed") == []
        with pytest.raises((ShardUnavailableError, RequestTimeoutError)):
            cli.sort(make_keys(512, seed=11), deadline_s=3.0,
                     backend="threads", P=2)
        cli.close()

    def test_close_leaves_no_server_thread(self):
        srv = SortServer(SortService(queue_depth=8), name="tidy",
                         own_service=True)
        with SortClient(srv.start(), via_shm=False) as cli:
            keys = make_keys(512, seed=14)
            out = cli.sort(keys, backend="threads", P=2)
            srv.close()  # the client's connection is still open
        assert out.sorted_keys.tobytes() == np.sort(keys).tobytes()
        assert _threads_of("tidy") == []

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
