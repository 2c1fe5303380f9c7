"""Wire format of the live cluster: length-prefixed JSON frames.

Every frame on a cluster connection — client requests, peer protocol
messages, completion notifications, admin commands — is one JSON object
encoded as UTF-8 and prefixed with a 4-byte big-endian length.  The
framing is deliberately tiny: it can be reimplemented in a dozen lines
of any language, and a captured byte stream is human-decodable with
``struct`` + ``json`` alone.

Frame families (the ``type`` field):

``exec`` / ``result``
    The client plane: a read/write request routed to the issuing
    processor's node, and its reply.
``msg``
    The peer plane: one of the :mod:`repro.distsim.messages` protocol
    messages in transit.  These are the *charged* frames — the node
    metrics count them by paper class (control vs data) exactly like
    the simulated network does.
``done``
    The completion oracle: an **uncharged** notification that a unit of
    work finished downstream.  It plays the role of the simulator's
    ``on_delivered`` hook (see :mod:`repro.distsim.network`): the paper
    does not charge acknowledgements, so neither does the cluster.
``ping`` / ``metrics`` / ``set_peers`` / ``fault`` / ``reset_metrics``
    / ``shutdown``
    The admin plane, used by launchers, tests and the CLI.

Every cluster connection is a :class:`FrameProtocol`, which decodes
frames in the event loop's socket callback; :func:`run_eagerly` runs a
frame's handler to completion there unless it has to wait.

The codec below maps every :class:`~repro.distsim.messages.Message`
subclass to and from its wire form, so the live transport ships the
*same* protocol vocabulary the discrete-event simulator uses.
"""

from __future__ import annotations

import asyncio
import collections.abc
import contextvars
import json
import struct
from typing import Any, Coroutine, Dict, Mapping, Optional

from repro.distsim.messages import (
    Ack,
    DataTransfer,
    Invalidate,
    Message,
    ReadRequest,
    VersionInquiry,
    VersionReport,
)
from repro.exceptions import ClusterError
from repro.storage.versions import ObjectVersion

_HEADER = struct.Struct(">I")

#: Frames larger than this are rejected: the replicated object payloads
#: of the reproduction are small, so a huge length prefix means a
#: corrupt or hostile stream, not a legitimate message.
MAX_FRAME_BYTES = 4 * 1024 * 1024


# -- framing ---------------------------------------------------------------


def encode_frame(payload: Mapping[str, Any]) -> bytes:
    """Serialize one frame: 4-byte length prefix + UTF-8 JSON."""
    body = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    data = body.encode("utf-8")
    if len(data) > MAX_FRAME_BYTES:
        raise ClusterError(
            f"frame of {len(data)} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return _HEADER.pack(len(data)) + data


def _body_length(header, offset: int = 0) -> int:
    (length,) = _HEADER.unpack_from(header, offset)
    if length > MAX_FRAME_BYTES:
        raise ClusterError(
            f"incoming frame of {length} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return length


def decode_frame(body: bytes) -> Dict[str, Any]:
    """Parse one frame body (the bytes after the length prefix)."""
    try:
        payload = json.loads(str(body, "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ClusterError(f"malformed frame body: {error}") from error
    if not isinstance(payload, dict) or "type" not in payload:
        raise ClusterError("every frame must be a JSON object with a 'type'")
    return payload


async def read_frame(reader: asyncio.StreamReader) -> Optional[Dict[str, Any]]:
    """Read one frame; ``None`` on a clean EOF between frames."""
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise ClusterError(
            f"connection closed mid-header ({len(error.partial)} of "
            f"{_HEADER.size} bytes)"
        ) from error
    except (ConnectionError, OSError):
        return None
    length = _body_length(header)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise ClusterError(
            f"connection closed mid-frame ({len(error.partial)} of "
            f"{length} bytes)"
        ) from error
    return decode_frame(body)


async def write_frame(writer, payload: Mapping[str, Any]) -> None:
    """Write one frame and flush it, to a stream writer or a
    :class:`FrameProtocol` (whose flush waits only while paused)."""
    writer.write(encode_frame(payload))
    await writer.drain()


class FrameProtocol(asyncio.Protocol):
    """One connection speaking frames, decoded in the socket callback.

    ``data_received`` splits the stream into frames and calls
    ``on_frame(frame, conn)`` for each, in order, before it returns: no
    read pump and no task per frame.  What :func:`read_frame` rejects —
    an oversize length, a malformed or non-object body — closes the
    connection, with the reason kept in ``error``; a handler that raises
    is reported to the loop, and the next frame still runs.
    ``on_close(conn)`` runs once the connection is gone.  Writes are
    synchronous; only :meth:`drain` waits, while writing is paused.
    """

    def __init__(self, on_frame, on_close) -> None:
        self.on_frame, self.on_close = on_frame, on_close
        self.transport: Optional[asyncio.Transport] = None
        self.error: Optional[BaseException] = None
        self._buffer = bytearray()
        #: Resolved when writing resumes; ``None`` while not paused.
        self._drained: Optional[asyncio.Future] = None
        self._closed = asyncio.get_running_loop().create_future()

    def connection_made(self, transport) -> None:
        self.transport = transport

    def data_received(self, data: bytes) -> None:
        buffer = self._buffer
        buffer += data
        offset = 0
        while len(buffer) - offset >= _HEADER.size:
            try:
                end = offset + _HEADER.size + _body_length(buffer, offset)
                if end > len(buffer):
                    break
                frame = decode_frame(buffer[offset + _HEADER.size : end])
            except ClusterError as error:
                self.error = error
                self.close()
                return
            offset = end
            try:
                self.on_frame(frame, self)
            except Exception as error:
                asyncio.get_running_loop().call_exception_handler(
                    {"message": "frame handler failed", "exception": error}
                )
            if self.transport.is_closing():
                return
        del buffer[:offset]

    def pause_writing(self) -> None:
        self._drained = asyncio.get_running_loop().create_future()

    def resume_writing(self) -> None:
        drained, self._drained = self._drained, None
        if drained is not None:
            drained.set_result(None)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.error = self.error or exc
        self.resume_writing()
        self._closed.set_result(None)
        self.on_close(self)

    def write(self, data: bytes) -> None:
        """Write bytes now; raises ``ConnectionResetError`` if the
        connection is (or, by this write, became) unusable.  With
        :meth:`drain` this is a stream writer's surface, so
        :func:`write_frame` works here too."""
        transport = self.transport
        if transport is None or transport.is_closing():
            raise ConnectionResetError("the connection is closed")
        transport.write(data)
        if transport.is_closing():
            raise ConnectionResetError("the connection failed mid-write")

    async def drain(self) -> None:
        if self._drained is not None:
            await self._drained
            if self.transport.is_closing():
                raise ConnectionResetError("the connection was lost")

    def close(self) -> None:
        if self.transport is not None:
            self.transport.close()

    async def wait_closed(self) -> None:
        await self._closed


@collections.abc.Coroutine.register
class _Resumed:
    """A coroutine's remaining steps, for a task to drive: first the
    future its eager first step suspended on, then the coroutine."""

    def __init__(self, coro: Coroutine, first: Any) -> None:
        self._coro, self._first = coro, first

    def send(self, value: Any) -> Any:
        # A bare ``yield`` (None) asks for the next loop pass, which the
        # task's own first step already is.
        first, self._first = self._first, None
        return first if first is not None else self._coro.send(value)

    def throw(self, *error: Any) -> Any:
        self._first = None
        return self._coro.throw(*error)

    def close(self) -> None:
        self._coro.close()


def run_eagerly(coro: Coroutine) -> asyncio.Future:
    """Start ``coro`` now and run it to its first suspension.

    A coroutine that finishes without waiting never becomes a task: its
    outcome comes back as a finished future.  Only one that suspends — on
    a peer's reply, a fault-plan delay, a retry backoff — is handed,
    mid-flight, to a task that drives the rest.  As in a task, each call
    runs in its own copy of the context; the task is created inside it,
    so the task's own copy keeps what the first step set."""
    loop = asyncio.get_running_loop()
    context = contextvars.copy_context()
    try:
        first = context.run(coro.send, None)
    except StopIteration as stop:
        done = loop.create_future()
        done.set_result(stop.value)
        return done
    except Exception as error:
        done = loop.create_future()
        done.set_exception(error)
        return done
    return context.run(loop.create_task, _Resumed(coro, first))


# -- object versions -------------------------------------------------------


def version_to_wire(version: Optional[ObjectVersion]) -> Optional[dict]:
    if version is None:
        return None
    wire: Dict[str, Any] = {"number": version.number, "writer": version.writer}
    if version.payload is not None:
        wire["payload"] = version.payload
    return wire


def version_from_wire(wire: Optional[Mapping[str, Any]]) -> Optional[ObjectVersion]:
    if wire is None:
        return None
    return ObjectVersion(
        int(wire["number"]), int(wire["writer"]), wire.get("payload")
    )


# -- protocol-message codec -------------------------------------------------

_KIND_TO_CLASS = {
    "read_request": ReadRequest,
    "invalidate": Invalidate,
    "ack": Ack,
    "version_inquiry": VersionInquiry,
    "version_report": VersionReport,
    "data_transfer": DataTransfer,
}
_CLASS_TO_KIND = {cls: kind for kind, cls in _KIND_TO_CLASS.items()}


def message_to_wire(message: Message) -> Dict[str, Any]:
    """Encode a distsim protocol message as a ``msg`` frame payload."""
    kind = _CLASS_TO_KIND.get(type(message))
    if kind is None:
        raise ClusterError(
            f"no wire encoding for message type {type(message).__name__}"
        )
    wire: Dict[str, Any] = {
        "type": "msg",
        "kind": kind,
        "sender": message.sender,
        "receiver": message.receiver,
        "rid": getattr(message, "request_id", 0),
    }
    if isinstance(message, Invalidate):
        wire["version_number"] = message.version_number
    elif isinstance(message, VersionReport):
        wire["version_number"] = message.version_number
        wire["holds_copy"] = message.holds_copy
    elif isinstance(message, DataTransfer):
        wire["version"] = version_to_wire(message.version)
        wire["save_copy"] = message.save_copy
    elif isinstance(message, Ack) and message.info is not None:
        wire["info"] = message.info
    return wire


def wire_to_message(wire: Mapping[str, Any]) -> Message:
    """Decode a ``msg`` frame payload back into a protocol message."""
    kind = wire.get("kind")
    cls = _KIND_TO_CLASS.get(kind)
    if cls is None:
        raise ClusterError(f"unknown protocol message kind {kind!r}")
    sender = int(wire["sender"])
    receiver = int(wire["receiver"])
    rid = int(wire.get("rid", 0))
    if cls is ReadRequest:
        return ReadRequest(sender, receiver, request_id=rid)
    if cls is Invalidate:
        return Invalidate(
            sender,
            receiver,
            version_number=int(wire.get("version_number", -1)),
            request_id=rid,
        )
    if cls is Ack:
        return Ack(sender, receiver, request_id=rid, info=wire.get("info"))
    if cls is VersionInquiry:
        return VersionInquiry(sender, receiver, request_id=rid)
    if cls is VersionReport:
        return VersionReport(
            sender,
            receiver,
            request_id=rid,
            version_number=int(wire.get("version_number", -1)),
            holds_copy=bool(wire.get("holds_copy", False)),
        )
    return DataTransfer(
        sender,
        receiver,
        version=version_from_wire(wire.get("version")),
        request_id=rid,
        save_copy=bool(wire.get("save_copy", False)),
    )
