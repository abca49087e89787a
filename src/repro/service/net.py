"""The wire front end: length-prefixed frames, threaded server, retrying client.

This module puts a real socket in front of :class:`~repro.service.SortService`
so the serving layer can take traffic from other processes and hosts.

**Frame layout** (all integers big-endian)::

    offset  size  field
    0       4     magic  b"RBSF"
    4       1     version (2; receivers accept any version in
                  [MIN_PROTO_VERSION, PROTO_VERSION])
    5       1     frame type
    6       2     flags
    8       4     sequence number (per connection, per direction)
    12      4     meta length   (JSON, UTF-8)
    16      4     body length   (raw ndarray bytes; 0 for shm payloads)
    20      4     CRC-32 of meta + body
    24      ...   meta bytes, then body bytes

Anything that fails the magic/version/CRC checks raises a typed
:class:`~repro.errors.FrameCorruptError` — a receiver never acts on
damaged bytes, and a client treats corruption as retriable because
request ids are idempotent (below).

**Frame types**: ``HELLO``/``WELCOME`` (handshake; the server advertises
its name and a host token so same-host clients may switch to shm
payloads), ``SORT``/``RESULT``/``ERROR`` (one request), and
``HEALTH``/``HEALTH_OK`` (the router's health-check RPC).

**Payload transport**: keys normally travel as raw bytes in the frame
body with dtype/shape in the meta.  When client and server share a host
(matching host tokens) the client may instead write the keys into a
``/dev/shm/rsrtshm_<request id>`` segment and send only its name; the
server sorts and writes the result back **in place**, so a same-host
round trip ships two frames of metadata and zero key bytes.  The client
owns the segment and unlinks it when the request resolves, success or
not.

**Idempotent requests**: every request carries a client-generated id.
The server deduplicates across its connections: a retried id waits on
the in-flight run (or returns the cached reply, errors included)
instead of sorting twice, which makes the client's deadline-retry loop
safe even when only the *response* was lost.  The cache keeps the newest
:data:`REPLY_CACHE` replies and at most :data:`REPLY_CACHE_BYTES` of
their bodies; an id retried after its reply left it is sorted again,
which is safe because a sort is a pure function of its keys.

**Server model**: :class:`SortServer` serves each connection on one
blocking thread of its own, as :class:`SortClient` does on its side: the
thread reads a frame, answers it and reads the next.  A SORT goes
through the service's synchronous door, so an idle service runs a
one-rank request on the connection's own thread.  Connections beyond
:data:`MAX_CONNECTIONS` get one typed
``AdmissionError(reason="connections")`` and are closed.
``close(drain=True)`` stops reading but lets a reply already being
computed go out; ``kill()`` resets every connection with no reply.

**Fault injection**: a :class:`~repro.faults.NetFaultInjector` can be
armed on the server; every inbound and outbound frame then gets a
deterministic drop/corrupt/delay verdict, which is how ``chaos-serve``
proves that every failure path ends in a typed error or a successful
retry/failover — never a silent loss.
"""

from __future__ import annotations

import functools
import json
import os
import random
import re
import socket
import struct
import threading
import time
import uuid
import zlib
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from repro.admit import admit_keys
from repro.errors import (
    AdmissionError,
    CommunicationError,
    ConfigurationError,
    FrameCorruptError,
    MemoryBudgetError,
    ReproError,
    RequestTimeoutError,
    ServiceClosedError,
    ServiceError,
    ShardUnavailableError,
    SizeError,
    SpmdTimeoutError,
    VerificationError,
)
from repro.faults.plan import NO_FAULT
from repro.trace.recorder import Tracer, trace_span

__all__ = [
    "HEADER_SIZE",
    "MAGIC",
    "MIN_PROTO_VERSION",
    "PROTO_VERSION",
    "MAX_CONNECTIONS",
    "RESULT_TIMEOUT_S",
    "REPLY_CACHE",
    "REPLY_CACHE_BYTES",
    "BACKOFF_MAX_S",
    "FrameType",
    "ClientOutcome",
    "SortClient",
    "SortServer",
    "encode_frame",
    "decode_frame",
    "recv_frame",
    "server_threads",
    "shm_segments",
]

MAGIC = b"RBSF"
#: Current protocol version.  v2 added the optional ``algorithm`` meta
#: key on SORT/RESULT frames (absent reads as ``"smart"``).  Receivers
#: accept any version in [MIN_PROTO_VERSION, PROTO_VERSION]; v1 frames
#: are rejected as corrupt with ``detail="version"``.
PROTO_VERSION = 2
MIN_PROTO_VERSION = 2
_HEADER = struct.Struct("!4sBBHIII")
HEADER_SIZE = _HEADER.size + 4  # + trailing CRC-32
assert HEADER_SIZE == 24

#: Sanity bounds: a meta or body length beyond these is structural
#: corruption, not a real request.
MAX_META = 1 << 20
MAX_BODY = 1 << 31

#: Connections one server serves at once.  Past it a new connection gets
#: one ERROR frame carrying ``AdmissionError(reason="connections")`` and
#: is closed.  ``chaos-serve``, the heaviest traffic here, peaks at 8.
MAX_CONNECTIONS = 64

#: How long ``close(drain=True)`` waits for each connection's reply
#: still being computed.
RESULT_TIMEOUT_S = 120.0

#: The newest replies a server keeps for retries of their request ids,
#: and the most body bytes they may hold: the oldest reply goes first,
#: and a retried id whose reply went is sorted again.
REPLY_CACHE = 512
REPLY_CACHE_BYTES = 64 << 20

#: The cap on a client's backoff between attempts, in seconds.
BACKOFF_MAX_S = 1.0

#: Same-host shm payload segments: /dev/shm/rsrtshm_<32 hex>.
_SHM_DIR = "/dev/shm"
_SHM_PREFIX = "rsrtshm_"
_SHM_NAME_RE = re.compile(r"rsrtshm_[0-9a-f]{32}\Z")


class FrameType:
    """Wire frame type codes (class-as-namespace; values are the wire)."""

    HELLO = 1
    WELCOME = 2
    SORT = 3
    RESULT = 4
    ERROR = 5
    HEALTH = 6
    HEALTH_OK = 7


# -- codec ----------------------------------------------------------------


def encode_frame(
    ftype: int, meta: Dict[str, Any], body: bytes = b"", seq: int = 0,
    flags: int = 0,
) -> bytes:
    """One frame, ready for the wire."""
    meta_bytes = json.dumps(meta, separators=(",", ":")).encode("utf-8")
    if len(meta_bytes) > MAX_META or len(body) > MAX_BODY:
        raise ConfigurationError(
            f"frame payload too large (meta {len(meta_bytes)}, "
            f"body {len(body)})"
        )
    crc = zlib.crc32(meta_bytes)
    crc = zlib.crc32(body, crc)
    header = _HEADER.pack(
        MAGIC, PROTO_VERSION, ftype, flags, seq, len(meta_bytes), len(body)
    ) + struct.pack("!I", crc)
    return header + meta_bytes + body


def parse_header(header: bytes) -> Tuple[int, int, int, int, int, int]:
    """``(ftype, flags, seq, meta_len, body_len, crc)`` or a typed raise."""
    if len(header) != HEADER_SIZE:
        raise FrameCorruptError(
            f"truncated header: {len(header)} of {HEADER_SIZE} bytes",
            detail="truncated",
        )
    magic, version, ftype, flags, seq, meta_len, body_len = _HEADER.unpack(
        header[: _HEADER.size]
    )
    (crc,) = struct.unpack("!I", header[_HEADER.size:])
    if magic != MAGIC:
        raise FrameCorruptError(
            f"bad frame magic {magic!r}", frame_type=ftype, detail="magic"
        )
    if not MIN_PROTO_VERSION <= version <= PROTO_VERSION:
        raise FrameCorruptError(
            f"unsupported frame version {version}", frame_type=ftype,
            detail="version",
        )
    if meta_len > MAX_META or body_len > MAX_BODY:
        raise FrameCorruptError(
            f"implausible frame lengths (meta {meta_len}, body {body_len})",
            frame_type=ftype, detail="truncated",
        )
    return ftype, flags, seq, meta_len, body_len, crc


def validate_payload(
    ftype: int, payload: bytes, meta_len: int, crc: int
) -> Tuple[Dict[str, Any], bytes]:
    """CRC-check and split a frame payload into ``(meta, body)``; the
    meta must be a JSON object."""
    if zlib.crc32(payload) != crc:
        raise FrameCorruptError(
            "frame payload failed its CRC-32 check", frame_type=ftype,
            detail="crc",
        )
    try:
        meta = json.loads(payload[:meta_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameCorruptError(
            f"frame meta is not valid JSON: {exc}", frame_type=ftype,
            detail="meta",
        ) from exc
    if not isinstance(meta, dict):
        raise FrameCorruptError(
            f"frame meta is a JSON {type(meta).__name__}, not an object",
            frame_type=ftype, detail="meta",
        )
    return meta, payload[meta_len:]


def decode_frame(data: bytes) -> Tuple[int, Dict[str, Any], bytes]:
    """Decode one complete frame (tests and documentation; the server and
    client stream-read instead).  Returns ``(ftype, meta, body)``."""
    ftype, _flags, _seq, meta_len, body_len, crc = parse_header(
        data[:HEADER_SIZE]
    )
    payload = data[HEADER_SIZE:]
    if len(payload) != meta_len + body_len:
        raise FrameCorruptError(
            f"frame payload truncated: {len(payload)} of "
            f"{meta_len + body_len} bytes", frame_type=ftype,
            detail="truncated",
        )
    meta, body = validate_payload(ftype, payload, meta_len, crc)
    return ftype, meta, body


def recv_frame(
    sock: socket.socket, timeout_s: Optional[float] = None,
    tracer: Optional[Tracer] = None,
) -> Tuple[int, Dict[str, Any], bytes]:
    """Read one frame off ``sock``: ``(ftype, meta, body)``, or a typed
    :class:`~repro.errors.FrameCorruptError`, or :class:`ConnectionError`
    when the peer closes.  ``timeout_s`` bounds the whole frame; ``None``
    keeps the socket's own timeout.  ``tracer`` times the wait for the
    header (``wait/inflight``) apart from the rest
    (``transfer/frame-recv``)."""
    until = None if timeout_s is None else time.monotonic() + timeout_s
    with trace_span(tracer, "wait", "inflight"):
        header = _recv_exact(sock, HEADER_SIZE, until)
    ftype, _flags, _seq, meta_len, body_len, crc = parse_header(header)
    with trace_span(tracer, "transfer", "frame-recv"):
        payload = _recv_exact(sock, meta_len + body_len, until)
    meta, body = validate_payload(ftype, payload, meta_len, crc)
    return ftype, meta, body


def _recv_exact(
    sock: socket.socket, n: int, until: Optional[float]
) -> bytes:
    chunks = []
    while n:
        if until is not None:
            sock.settimeout(max(1e-3, until - time.monotonic()))
        chunk = sock.recv(n)
        if not chunk:
            raise ConnectionError("peer closed the connection")
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


# -- typed errors over the wire ------------------------------------------

#: Errors a server may report by name; anything else arrives as a plain
#: ServiceError carrying the original class name in the message.
_WIRE_ERRORS = {
    cls.__name__: cls
    for cls in (
        AdmissionError,
        CommunicationError,
        ConfigurationError,
        FrameCorruptError,
        MemoryBudgetError,
        RequestTimeoutError,
        ServiceClosedError,
        ServiceError,
        ShardUnavailableError,
        SizeError,
        SpmdTimeoutError,
        VerificationError,
    )
}


def error_to_meta(exc: BaseException) -> Dict[str, Any]:
    meta: Dict[str, Any] = {
        "error": type(exc).__name__,
        "message": str(exc),
    }
    for attr in ("reason", "stage", "deadline_s", "elapsed_s", "detail",
                 "required_bytes", "budget_bytes"):
        value = getattr(exc, attr, None)
        if value not in (None, ""):
            meta[attr] = value
    return meta


def error_from_meta(meta: Dict[str, Any]) -> ReproError:
    name = meta.get("error", "ServiceError")
    message = meta.get("message", "remote failure")
    cls = _WIRE_ERRORS.get(name)
    if cls is AdmissionError:
        return AdmissionError(message, reason=meta.get("reason", ""))
    if cls is RequestTimeoutError:
        return RequestTimeoutError(
            message,
            deadline_s=float(meta.get("deadline_s", 0.0)),
            elapsed_s=float(meta.get("elapsed_s", 0.0)),
            stage=meta.get("stage", "server"),
        )
    if cls is FrameCorruptError:
        return FrameCorruptError(message, detail=meta.get("detail", ""))
    if cls is MemoryBudgetError:
        return MemoryBudgetError(
            message,
            required_bytes=int(meta.get("required_bytes", 0)),
            budget_bytes=int(meta.get("budget_bytes", 0)),
        )
    if cls is None:
        return ServiceError(f"{name}: {message}")
    return cls(message)


# -- shm payloads ---------------------------------------------------------


@functools.lru_cache(maxsize=None)
def host_token() -> str:
    """A token two processes share iff they share a kernel (same host,
    same boot) — the gate for shm payload transport.  Read once per
    process: the boot id cannot change under it."""
    try:
        with open("/proc/sys/kernel/random/boot_id", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:  # pragma: no cover — non-Linux
        return socket.gethostname()


def shm_segments() -> set:
    """Names of live client-payload shm segments (leak gates)."""
    if not os.path.isdir(_SHM_DIR):  # pragma: no cover — non-Linux
        return set()
    return {
        name for name in os.listdir(_SHM_DIR)
        if name.startswith(_SHM_PREFIX)
    }


def server_threads() -> list:
    """Names of the live :class:`SortServer` threads in this process
    (leak gates)."""
    return sorted(
        t.name for t in threading.enumerate()
        if t.name.startswith(("sortsrv-", "sort-server-"))
    )


def _shm_path(name: str) -> str:
    """Validated absolute path of a payload segment (reject traversal)."""
    if not _SHM_NAME_RE.match(name):
        raise FrameCorruptError(
            f"illegal shm segment name {name!r}", detail="meta"
        )
    return os.path.join(_SHM_DIR, name)


#: A SORT frame's meta fields and the JSON types each may take; ``null``
#: reads as absent, and ``bool`` does not count as a number.  A field not
#: listed is ignored, so one that an older client still sends does not
#: refuse its request.
_SORT_FIELDS = {
    "id": (str,), "dtype": (str,), "shape": (list,), "P": (int,),
    "algorithm": (str,), "backend": (str,), "budget_s": (int, float),
    "shm": (str,),
}


def _check_sort_meta(meta: Dict[str, Any]) -> str:
    """Type-check a SORT frame's meta, once, field by field: the request
    id, or a :class:`ConfigurationError` naming the field."""
    for name, kinds in _SORT_FIELDS.items():
        value = meta.get(name)
        if value is not None and (
            type(value) not in kinds
            or name == "shape" and any(type(d) is not int for d in value)
        ):
            raise ConfigurationError(
                f"SORT meta field {name!r} has the wrong type: {value!r}"
            )
    for name in ("id", "dtype"):
        if not meta.get(name):
            raise ConfigurationError(f"SORT meta field {name!r} is required")
    return meta["id"]


def _decode_keys(meta: Dict[str, Any], body: bytes) -> np.ndarray:
    """The request's key array, from the frame body or its shm segment;
    a ``shape`` in the meta must match the keys decoded."""
    try:
        dtype = np.dtype(meta["dtype"])
        if dtype.hasobject or not dtype.itemsize:
            raise TypeError(f"{dtype} keys cannot travel as bytes")
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"SORT meta field 'dtype': {exc}") from exc
    if meta.get("shm"):
        with open(_shm_path(meta["shm"]), "rb") as fh:
            body = fh.read()
    if len(body) % dtype.itemsize:
        raise FrameCorruptError(
            f"body length {len(body)} not a multiple of itemsize "
            f"{dtype.itemsize}", detail="truncated",
        )
    keys = np.frombuffer(body, dtype=dtype).copy()
    shape = meta.get("shape")
    if shape is not None and shape != [keys.size]:
        raise ConfigurationError(
            f"SORT meta field 'shape' {shape} does not match the "
            f"{keys.size} keys in the payload"
        )
    return keys


# -- the server -----------------------------------------------------------


def _shutdown(sock: socket.socket, how: int, reset: bool = False) -> None:
    """``sock.shutdown(how)``, tolerating a peer that already went away.
    With ``reset``, closing the socket then sends a reset, not a FIN."""
    try:
        if reset:
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
        sock.shutdown(how)
    except OSError:
        pass


class SortServer:
    """A frame server fronting one :class:`SortService` shard, one
    blocking thread per connection (the module docstring's server model).

    :meth:`start` binds on the caller's thread, so a bind error raises
    from it; an accept thread ``sort-server-<name>`` then gives each
    connection a daemon thread ``sortsrv-<name>-<conn id>``.  ``faults``
    arms deterministic per-frame chaos (see the module docstring).

    Parameters
    ----------
    service:
        The backing :class:`~repro.service.SortService`.
    host, port:
        Bind address; port 0 picks an ephemeral port (read
        :attr:`address` after :meth:`start`).
    name:
        Shard name, reported in handshakes, results and health answers.
    faults:
        Optional :class:`~repro.faults.NetFaultInjector`.
    own_service:
        When True, :meth:`close`/:meth:`kill` also close the service.
    """

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        name: str = "shard0",
        faults=None,
        own_service: bool = False,
    ):
        self.service = service
        self.name = name
        self.faults = faults
        self._host = host
        self._port = port
        self._own_service = own_service
        self.address: Optional[Tuple[str, int]] = None
        self._listener: Optional[socket.socket] = None
        self._accepter: Optional[threading.Thread] = None
        #: Guards every field below, and closing a connection's socket.
        self._lock = threading.Lock()
        self._closed = False
        self._reset = False
        self._conn_ids = 0
        self._conns: Dict[socket.socket, threading.Thread] = {}
        self._inflight: Dict[str, Future] = {}
        self._done: OrderedDict = OrderedDict()
        self._done_bytes = 0

    # -- lifecycle -------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Bind and serve; returns ``(host, port)`` once accepting."""
        self._listener = socket.create_server((self._host, self._port))
        self.address = self._listener.getsockname()[:2]
        self._accepter = threading.Thread(
            target=self._accept_loop, args=(self._listener,),
            name=f"sort-server-{self.name}", daemon=True,
        )
        self._accepter.start()
        return self.address

    def close(self, drain: bool = True) -> None:
        """Stop accepting and reading.  With ``drain``, a reply still
        being computed goes out before its connection closes; without,
        every connection drops and queued work fails typed.
        Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            threads = list(self._conns.values())
            for sock in self._conns:
                _shutdown(
                    sock, socket.SHUT_RD if drain else socket.SHUT_RDWR,
                    reset=self._reset,
                )
        if self._listener is not None:
            _shutdown(self._listener, socket.SHUT_RDWR)
            self._accepter.join()
            self._listener.close()
        if self._own_service and not drain:
            self.service.close(drain=False)
        # Join before closing the service: a drained request still needs
        # it to finish.
        for thread in threads:
            thread.join(RESULT_TIMEOUT_S)
        if self._own_service and drain:
            self.service.close(drain=True)

    def kill(self) -> None:
        """Chaos shutdown: reset every connection, drop in-flight work.
        Clients observe a reset, never a reply — exactly what a crashed
        shard looks like from the wire."""
        self._reset = True
        self.close(drain=False)

    # -- the protocol plane ---------------------------------------------

    def _accept_loop(self, listener: socket.socket) -> None:
        while True:
            try:
                sock, _peer = listener.accept()
            except OSError:
                return  # close() shut the listener down
            with self._lock:
                if self._closed:
                    sock.close()
                    return
                full = len(self._conns) >= MAX_CONNECTIONS
                if not full:
                    self._conn_ids += 1
                    thread = threading.Thread(
                        target=self._serve_conn,
                        args=(sock, self._conn_ids),
                        name=f"sortsrv-{self.name}-{self._conn_ids}",
                        daemon=True,
                    )
                    self._conns[sock] = thread
                    thread.start()
            if full:
                self._refuse(sock)

    def _refuse(self, sock: socket.socket) -> None:
        """Answer a connection past the cap with one typed ERROR frame
        (load, not sickness: a router fails over without a health
        penalty), then close it."""
        exc = AdmissionError(
            f"server {self.name} already serves {MAX_CONNECTIONS} "
            "connections", reason="connections",
        )
        with sock:
            try:
                sock.sendall(
                    encode_frame(FrameType.ERROR, error_to_meta(exc), seq=1)
                )
            except OSError:
                pass

    def _send(self, sock: socket.socket, conn_id: int, out_seq: int,
              data: bytes) -> None:
        """Write one response frame, via the fault injector when armed."""
        if self.faults is not None:
            data2, stall = self.faults.apply(data, "out", conn_id, out_seq)
            if stall > 0:
                time.sleep(stall)
            if data2 is None:
                return  # dropped: the client's deadline-retry recovers
            data = data2
        sock.sendall(data)

    def _serve_conn(self, sock: socket.socket, conn_id: int) -> None:
        in_seq = out_seq = 0
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            while not self._closed:
                try:
                    ftype, meta, body = recv_frame(sock)
                except FrameCorruptError as exc:
                    # A damaged request: tell the peer, typed, and keep
                    # the connection — the stream itself is still framed.
                    reply = (FrameType.ERROR, error_to_meta(exc), b"")
                else:
                    in_seq += 1
                    verdict = (
                        NO_FAULT if self.faults is None
                        else self.faults.decide("in", conn_id, in_seq)
                    )
                    if verdict.delay:
                        time.sleep(self.faults.delay_s)
                    if verdict.drop:
                        continue  # lost on the wire: client retries
                    if verdict.corrupt:
                        # Modelled as checksum-detected wire damage.
                        reply = (FrameType.ERROR, error_to_meta(
                            FrameCorruptError(
                                "request frame arrived corrupted "
                                "(injected)", detail="crc",
                            )), b"")
                    else:
                        reply = self._dispatch(ftype, meta, body)
                out_seq += 1
                self._send(
                    sock, conn_id, out_seq,
                    encode_frame(*reply, seq=out_seq),
                )
        except OSError:
            pass  # the peer went away, or close()/kill() shut the socket
        finally:
            with self._lock:
                del self._conns[sock]
                sock.close()

    def _dispatch(
        self, ftype: int, meta: Dict[str, Any], body: bytes
    ) -> Tuple[int, Dict[str, Any], bytes]:
        if ftype == FrameType.HELLO:
            return (
                FrameType.WELCOME,
                {
                    "server": self.name,
                    "proto": PROTO_VERSION,
                    "host_token": host_token(),
                    "pid": os.getpid(),
                },
                b"",
            )
        if ftype == FrameType.HEALTH:
            return (
                FrameType.HEALTH_OK,
                {
                    "server": self.name,
                    "healthy": True,
                    **self.service.counters(),
                    "inflight": len(self._inflight),
                },
                b"",
            )
        if ftype == FrameType.SORT:
            return self._handle_sort(meta, body)
        return (
            FrameType.ERROR,
            error_to_meta(
                ConfigurationError(f"unknown frame type {ftype}")
            ),
            b"",
        )

    def _handle_sort(
        self, meta: Dict[str, Any], body: bytes
    ) -> Tuple[int, Dict[str, Any], bytes]:
        received_at = time.monotonic()
        try:
            rid = _check_sort_meta(meta)
        except ConfigurationError as exc:
            return (FrameType.ERROR, error_to_meta(exc), b"")
        # Idempotency: a retried id rides the first run, never a second,
        # whichever connection it arrives on.
        with self._lock:
            if rid in self._done:
                return self._done[rid]
            running = self._inflight.get(rid)
            if running is None:
                fut = self._inflight[rid] = Future()
        if running is not None:
            return running.result()
        reply = self._run_request(meta, body, received_at)
        with self._lock:
            del self._inflight[rid]
            self._remember(rid, reply)
        fut.set_result(reply)
        return reply

    def _remember(self, rid: str, reply: Tuple[int, Dict[str, Any], bytes]
                  ) -> None:
        """Cache ``reply`` for retries of ``rid`` (under ``_lock``): the
        newest :data:`REPLY_CACHE` replies, at most
        :data:`REPLY_CACHE_BYTES` of bodies, the oldest evicted first.  A
        body over the whole byte cap is not cached."""
        size = len(reply[2])
        if size > REPLY_CACHE_BYTES:
            return
        self._done[rid] = reply
        self._done_bytes += size
        while (len(self._done) > REPLY_CACHE
               or self._done_bytes > REPLY_CACHE_BYTES):
            _rid, (_ftype, _meta, body) = self._done.popitem(last=False)
            self._done_bytes -= len(body)

    # -- the worker plane ------------------------------------------------

    def _run_request(
        self, meta: Dict[str, Any], body: bytes, received_at: float
    ) -> Tuple[int, Dict[str, Any], bytes]:
        rid = meta["id"]
        try:
            keys = _decode_keys(meta, body)
            budget = meta.get("budget_s")
            if budget is not None:
                # The remaining-time budget, net of our own time with the
                # request so far; admission and the world dispatch both
                # honor it.
                budget = float(budget) - (time.monotonic() - received_at)
                if budget <= 0:
                    raise RequestTimeoutError(
                        f"request {rid} arrived with its budget spent",
                        deadline_s=float(meta["budget_s"]),
                        elapsed_s=float(meta["budget_s"]) - budget,
                        stage="admission",
                    )
            # The synchronous door: an idle service runs a one-rank
            # request right here, on this connection's thread.
            outcome = self.service.sort(
                keys,
                # Absent when the client left it unset: the smart
                # bitonic sort; "auto" opts into planner routing.
                algorithm=meta.get("algorithm", "smart"),
                backend=meta.get("backend"),
                P=meta.get("P"),
                deadline_s=budget,
            )
            rmeta: Dict[str, Any] = {
                "id": rid,
                "shard": self.name,
                "algorithm": outcome.decision.algorithm,
                "backend": outcome.decision.backend,
                "P": outcome.decision.P,
                "queue_wait_s": outcome.queue_wait_s,
                "run_s": outcome.run_s,
                # One request per dispatch; the key stays for readers of
                # the RESULT frame that still look it up.
                "batch_size": 1,
                "retries": outcome.retries,
                "dtype": str(outcome.sorted_keys.dtype.str),
            }
            if meta.get("shm"):
                with open(_shm_path(meta["shm"]), "wb") as fh:
                    fh.write(outcome.sorted_keys.tobytes())
                rmeta["shm"] = meta["shm"]
                rbody = b""
            else:
                rbody = outcome.sorted_keys.tobytes()
            return (FrameType.RESULT, rmeta, rbody)
        except BaseException as exc:  # noqa: BLE001 — typed over the wire
            emeta = error_to_meta(exc)
            emeta["id"] = rid
            return (FrameType.ERROR, emeta, b"")


# -- the client -----------------------------------------------------------


@dataclass
class ClientOutcome:
    """What one networked request produced."""

    sorted_keys: np.ndarray
    request_id: str
    shard: str
    wall_s: float = 0.0
    attempts: int = 1
    via_shm: bool = False
    #: Server-side accounting (queue wait, run time, retries, ...).
    server: Dict[str, Any] = field(default_factory=dict)
    #: Network spans (frame/inflight/retry) when the request was traced.
    tracer: Optional[Tracer] = None
    #: Failovers the router performed for this request (0 when the
    #: request went straight through a single client).
    failovers: int = 0


def _jittered(base: float, cap: float, attempt: int,
              rng: random.Random) -> float:
    """Capped exponential backoff with full jitter."""
    return min(cap, base * (2 ** (attempt - 1))) * (0.5 + rng.random() / 2)


class SortClient:
    """A blocking client for :class:`SortServer`.

    Connections are **per thread** (a `threading.local`), so one client
    instance may serve many concurrent caller threads — the router does
    exactly that — without head-of-line blocking between them.  Each
    thread reuses its connection across requests; every attempt that
    fails drops it and the next attempt reconnects.  Retries ride the
    same request id, so the server never sorts twice for one caller.

    Parameters
    ----------
    address:
        ``(host, port)`` or ``"host:port"``.
    timeout_s:
        Per-attempt socket budget.  A lost reply costs at most
        ``min(timeout_s, remaining deadline)`` before the retry loop
        takes over — never the whole deadline.
    retries:
        Extra attempts after the first (wire failures only; typed
        server verdicts are never retried here — that is router policy).
    backoff_s:
        Exponential backoff base between attempts (full jitter, capped
        at :data:`BACKOFF_MAX_S`).
    via_shm:
        ``"auto"`` ships payloads through /dev/shm when the handshake
        proves the server is on this host and the payload is at least
        :attr:`shm_min_bytes`; ``True`` forces it; ``False`` disables.
    """

    #: The smallest payload ``via_shm="auto"`` ships through /dev/shm.
    shm_min_bytes = 1 << 16

    def __init__(
        self,
        address: Union[str, Tuple[str, int]],
        *,
        timeout_s: float = 30.0,
        retries: int = 3,
        backoff_s: float = 0.05,
        via_shm: Union[bool, str] = "auto",
        name: str = "client",
    ):
        if isinstance(address, str):
            host, _, port = address.rpartition(":")
            address = (host or "127.0.0.1", int(port))
        self.address: Tuple[str, int] = (address[0], int(address[1]))
        self.name = name
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s
        self.via_shm = via_shm
        self._tls = threading.local()
        self._server_info: Dict[str, Any] = {}
        #: Whether the server shares this host's kernel and /dev/shm,
        #: decided at each handshake.
        self._same_host = False
        self._rng = random.Random()
        #: Every live socket across threads, so close() can reach them.
        self._socks_lock = threading.Lock()
        self._socks: set = set()

    # -- connection ------------------------------------------------------

    def _connect(self, deadline_at: Optional[float]) -> socket.socket:
        sock = getattr(self._tls, "sock", None)
        if sock is not None:
            return sock
        sock = socket.create_connection(
            self.address, timeout=self._attempt_budget(deadline_at)
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._tls.sock = sock
        self._tls.seq = getattr(self._tls, "seq", 0)
        with self._socks_lock:
            self._socks.add(sock)
        try:
            sock.sendall(
                encode_frame(
                    FrameType.HELLO,
                    {"client": self.name, "pid": os.getpid()},
                    seq=self._next_seq(),
                )
            )
            ftype, meta, _body = recv_frame(
                sock, self._attempt_budget(deadline_at)
            )
            if ftype == FrameType.ERROR:
                raise error_from_meta(meta)
            if ftype != FrameType.WELCOME:
                raise FrameCorruptError(
                    f"expected WELCOME, got frame type {ftype}",
                    frame_type=ftype, detail="meta",
                )
            self._server_info = meta
            self._same_host = (
                meta.get("host_token") == host_token()
                and os.path.isdir(_SHM_DIR)
            )
        except BaseException:
            self._drop_connection()
            raise
        return sock

    def _next_seq(self) -> int:
        self._tls.seq = getattr(self._tls, "seq", 0) + 1
        return self._tls.seq

    def _drop_connection(self) -> None:
        sock = getattr(self._tls, "sock", None)
        self._tls.sock = None
        if sock is not None:
            with self._socks_lock:
                self._socks.discard(sock)
            try:
                sock.close()
            except OSError:  # pragma: no cover — teardown best effort
                pass

    def close(self) -> None:
        """Close every thread's connection (sockets are safe to close
        from another thread; an in-flight request fails typed)."""
        self._drop_connection()
        with self._socks_lock:
            socks, self._socks = self._socks, set()
        for sock in socks:
            try:
                sock.close()
            except OSError:  # pragma: no cover — teardown best effort
                pass

    def __enter__(self) -> "SortClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- wire helpers ----------------------------------------------------

    def _attempt_budget(self, deadline_at: Optional[float]) -> float:
        """Socket budget for the next wire operation: the per-attempt
        timeout, clipped to the remaining deadline — a dropped reply
        costs one attempt, not the caller's whole budget."""
        if deadline_at is None:
            return self.timeout_s
        return max(1e-3, min(self.timeout_s, deadline_at - time.monotonic()))

    # -- the RPCs --------------------------------------------------------

    def health(self, timeout_s: float = 5.0) -> Dict[str, Any]:
        """The server's health answer, or :class:`ShardUnavailableError`."""
        deadline_at = time.monotonic() + timeout_s
        try:
            sock = self._connect(deadline_at)
            sock.sendall(
                encode_frame(FrameType.HEALTH, {}, seq=self._next_seq())
            )
            ftype, meta, _body = recv_frame(
                sock, self._attempt_budget(deadline_at)
            )
        except (OSError, ConnectionError, FrameCorruptError,
                TimeoutError) as exc:
            self._drop_connection()
            raise ShardUnavailableError(
                f"health check of {self.address} failed: {exc}",
                shards={self._shard_name(): "unreachable"},
                attempts=1,
            ) from exc
        if ftype == FrameType.ERROR:
            raise error_from_meta(meta)
        if ftype != FrameType.HEALTH_OK:
            self._drop_connection()
            raise ShardUnavailableError(
                f"health check of {self.address} answered frame type "
                f"{ftype}", shards={self._shard_name(): "confused"},
                attempts=1,
            )
        return meta

    def _shard_name(self) -> str:
        return self._server_info.get(
            "server", f"{self.address[0]}:{self.address[1]}"
        )

    def sort(
        self,
        keys: np.ndarray,
        *,
        deadline_s: Optional[float] = None,
        algorithm: Optional[str] = None,
        backend: Optional[str] = None,
        P: Optional[int] = None,
        trace: bool = False,
    ) -> ClientOutcome:
        """Sort ``keys`` on the server; deadline-aware, retrying, typed.

        ``algorithm`` is ``"smart"``, ``"sample"`` or ``"auto"`` (server
        plans across algorithms); ``None`` omits the meta key, which a
        server of any protocol version reads as ``"smart"``.

        The request id is generated once, so every retry is idempotent.
        Wire failures (reset, timeout, corrupt frames) retry with
        jittered backoff inside the remaining budget; typed server
        verdicts (admission, timeout, configuration) raise immediately.
        Keys no server could take (not 1-D, empty, or of an object
        dtype: :func:`repro.admit.admit_keys`) are refused before any
        send.
        """
        keys = np.ascontiguousarray(admit_keys(keys))
        rid = uuid.uuid4().hex
        started = time.monotonic()
        deadline_at = None if deadline_s is None else started + deadline_s
        tracer = Tracer(0) if trace else None
        shm_name: Optional[str] = None
        attempts = 0
        try:
            while True:
                attempts += 1
                if deadline_at is not None and (
                    time.monotonic() >= deadline_at
                ):
                    raise RequestTimeoutError(
                        f"request {rid} ran out of its "
                        f"{deadline_s}s budget after "
                        f"{attempts - 1} attempts",
                        deadline_s=deadline_s or 0.0,
                        elapsed_s=time.monotonic() - started,
                        stage="client",
                    )
                try:
                    outcome, shm_name = self._attempt_sort(
                        rid, keys, shm_name, deadline_at, tracer,
                        algorithm=algorithm, backend=backend, P=P,
                    )
                    outcome.attempts = attempts
                    outcome.wall_s = time.monotonic() - started
                    outcome.tracer = tracer
                    return outcome
                except RequestTimeoutError:
                    raise
                except (FrameCorruptError, ConnectionError,
                        TimeoutError, OSError) as exc:
                    self._drop_connection()
                    if attempts > self.retries:
                        if isinstance(exc, (TimeoutError,
                                            socket.timeout)):
                            raise RequestTimeoutError(
                                f"request {rid} timed out "
                                f"{attempts}x against "
                                f"{self.address}",
                                deadline_s=deadline_s or self.timeout_s,
                                elapsed_s=time.monotonic() - started,
                                stage="client",
                            ) from exc
                        raise ShardUnavailableError(
                            f"shard at {self.address} unreachable "
                            f"after {attempts} attempts: {exc}",
                            shards={
                                self._shard_name(): "unreachable"
                            },
                            attempts=attempts,
                        ) from exc
                    delay = _jittered(
                        self.backoff_s, BACKOFF_MAX_S, attempts, self._rng,
                    )
                    if deadline_at is not None:
                        delay = min(
                            delay,
                            max(0.0, deadline_at - time.monotonic()),
                        )
                    with trace_span(tracer, "retransmit", "retry"):
                        time.sleep(delay)
        finally:
            if shm_name is not None:
                try:
                    os.unlink(os.path.join(_SHM_DIR, shm_name))
                except OSError:
                    pass

    def _attempt_sort(
        self,
        rid: str,
        keys: np.ndarray,
        shm_name: Optional[str],
        deadline_at: Optional[float],
        tracer: Optional[Tracer],
        **opts: Any,
    ) -> Tuple[ClientOutcome, Optional[str]]:
        sock = self._connect(deadline_at)
        meta: Dict[str, Any] = {
            "id": rid,
            "dtype": str(keys.dtype.str),
            "shape": [int(keys.size)],
        }
        for key in ("algorithm", "backend", "P"):
            if opts.get(key) is not None:
                meta[key] = opts[key]
        if deadline_at is not None:
            meta["budget_s"] = max(0.0, deadline_at - time.monotonic())
        use_shm = self._shm_eligible(keys)
        body = b""
        if use_shm:
            if shm_name is None:
                shm_name = f"{_SHM_PREFIX}{rid}"
                with trace_span(tracer, "pack", "shm-write"):
                    with open(os.path.join(_SHM_DIR, shm_name), "wb") as fh:
                        fh.write(keys.tobytes())
            meta["shm"] = shm_name
        else:
            with trace_span(tracer, "pack", "frame"):
                body = keys.tobytes()
        frame = encode_frame(FrameType.SORT, meta, body, seq=self._next_seq())
        with trace_span(tracer, "transfer", "frame-send"):
            sock.sendall(frame)
        while True:
            ftype, rmeta, rbody = recv_frame(
                sock, self._attempt_budget(deadline_at), tracer
            )
            if rmeta.get("id") not in (None, rid):
                continue  # a stale (delayed) reply for an earlier attempt
            break
        if ftype == FrameType.ERROR:
            raise error_from_meta(rmeta)
        if ftype != FrameType.RESULT:
            raise FrameCorruptError(
                f"expected RESULT, got frame type {ftype}",
                frame_type=ftype, detail="meta",
            )
        dtype = np.dtype(rmeta.get("dtype", keys.dtype.str))
        if rmeta.get("shm"):
            with trace_span(tracer, "unpack", "shm-read"):
                with open(_shm_path(rmeta["shm"]), "rb") as fh:
                    out = np.frombuffer(fh.read(), dtype=dtype).copy()
        else:
            with trace_span(tracer, "unpack", "frame"):
                out = np.frombuffer(rbody, dtype=dtype).copy()
        if out.size != keys.size:
            raise FrameCorruptError(
                f"result carries {out.size} keys for a {keys.size}-key "
                "request", detail="truncated",
            )
        return (
            ClientOutcome(
                sorted_keys=out,
                request_id=rid,
                shard=rmeta.get("shard", self._shard_name()),
                via_shm=bool(rmeta.get("shm")),
                server=rmeta,
            ),
            shm_name,
        )

    def _shm_eligible(self, keys: np.ndarray) -> bool:
        if self.via_shm is False or not self._same_host:
            return False
        return self.via_shm is True or keys.nbytes >= self.shm_min_bytes
