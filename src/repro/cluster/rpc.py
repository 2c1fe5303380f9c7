"""Wire format of the live cluster: length-prefixed frames, each a
fixed-layout binary record or a JSON object.

Every frame on a cluster connection — client requests, peer protocol
messages, completion notifications, admin commands — is a body
prefixed with its 4-byte big-endian length.  The frames a request
sends have fixed shapes (the paper's "short" control messages: object
id and operation only), so each of those ships as a ``struct`` record:
one tag byte in ``0x01``–``0x08`` naming its layout, then its fields,
big-endian (the layout table is ``_TEMPLATES`` below).  Every other
frame — admin, repair and recover frames, error results, versions that
carry a payload — is a UTF-8 JSON object with sorted keys.  A JSON body
starts with ``{`` or JSON whitespace, never a tag byte, so the first
byte tells the two apart and JSON from an older peer still decodes.
The framing is deliberately tiny: it can be reimplemented in a few
dozen lines of any language, and a captured byte stream is
human-decodable with ``struct`` + ``json`` alone.

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
from typing import Any, Callable, Coroutine, Dict, List, Mapping, Optional, Tuple

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


# -- binary layouts --------------------------------------------------------

# The request path's frames have fixed shapes, so each ships as one
# ``struct`` record: a tag byte, then its fields in template order,
# big-endian.  In a template, a string is a constant, not sent; ``int``
# is a signed 64-bit ``q`` and ``bool`` a ``?``, each of exactly that
# type; a tuple of strings is one of them, sent as its ``B`` index; a
# dict nests.  Any other frame — an extra or missing key, a version
# with a payload, an int past 64 bits, ``1`` for ``True`` — is JSON,
# whose first byte (``{`` or JSON whitespace) is never a tag.
_VERSION = {"number": int, "writer": int}
_MSG = {"type": "msg", "sender": int, "receiver": int, "rid": int}
_TEMPLATES = {
    0x01: {"type": "exec", "rid": int, "op": "read"},
    0x02: {"type": "exec", "rid": int, "op": "write", "version": _VERSION},
    0x03: {"type": "result", "rid": int, "ok": bool, "version": _VERSION},
    0x04: {**_MSG, "kind": ("read_request", "version_inquiry", "ack")},
    0x05: {**_MSG, "kind": "invalidate", "version_number": int},
    0x06: {**_MSG, "kind": "version_report", "version_number": int, "holds_copy": bool},
    0x07: {**_MSG, "kind": "data_transfer", "version": _VERSION, "save_copy": bool},
    0x08: {"type": "done", "rid": int, "from": int, "dropped": bool},
}


def _compile(
    tag: int, template: Mapping[str, Any]
) -> Tuple[Callable, struct.Struct, Callable]:
    """Generate one layout's codec from its template: the straight-line
    code a hand-written branch would be, while the table stays the one
    place a layout is spelled out.

    Returns the encoder, which gives the whole frame, or ``False``
    unless the payload has the template's shape (a missing nested key
    raises ``KeyError``, an int beyond 64 bits ``struct.error``); the
    record's ``struct``, after its tag byte; and the decoder, from the
    record's values to the frame."""
    codes: List[str] = []
    tests: List[str] = []
    reads: List[str] = []

    def shape(template: Mapping[str, Any], at: str) -> str:
        # The same size, and every key is read below: the same keys.
        tests.append(f"type({at}) is dict and len({at}) == {len(template)}")
        items = []
        for key, want in template.items():
            item, value = f"{at}[{key!r}]", f"v[{len(codes)}]"
            if isinstance(want, dict):
                value = shape(want, item)
            elif isinstance(want, str):
                tests.append(f"{item} == {want!r}")
                value = repr(want)
            elif isinstance(want, tuple):
                tests.append(f"type({item}) is str and {item} in {want!r}")
                reads.append(f"{want!r}.index({item})")
                codes.append("B")
                value = f"{want!r}[{value}]"
            else:
                tests.append(f"type({item}) is {want.__name__}")
                reads.append(item)
                codes.append("q" if want is int else "?")
            items.append(f"{key!r}: {value}")
        return "{" + ", ".join(items) + "}"

    frame = shape(template, "p")
    fields = struct.Struct(">" + "".join(codes))
    pack = f"record.pack({fields.size + 1}, {tag}, {', '.join(reads)})"
    scope = {"record": struct.Struct(">IB" + "".join(codes))}
    encode = eval(f"lambda p: {' and '.join(tests)} and {pack}", scope)
    return encode, fields, eval(f"lambda v: {frame}", scope)


_LAYOUTS = {tag: _compile(tag, template) for tag, template in _TEMPLATES.items()}
_ENCODERS = {frozenset(_TEMPLATES[tag]): codec[0] for tag, codec in _LAYOUTS.items()}


# -- framing ---------------------------------------------------------------


def encode_frame(payload: Mapping[str, Any]) -> bytes:
    """Serialize one frame: 4-byte length prefix, then the body — the
    binary record of the layout whose shape ``payload`` has exactly, or
    else UTF-8 JSON with sorted keys."""
    encode = _ENCODERS.get(frozenset(payload))
    try:
        if encode is not None and (record := encode(payload)):
            return record
    except (KeyError, struct.error):
        pass  # a nested key missing or an int beyond 64 bits: JSON it is
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


def decode_frame(
    body: bytes, start: int = 0, end: Optional[int] = None
) -> Dict[str, Any]:
    """Parse one frame body, ``body[start:end]`` (the bytes after the
    length prefix): a binary record if it opens with a layout's tag,
    read in place, else JSON."""
    end = len(body) if end is None else end
    layout = _LAYOUTS.get(body[start]) if end > start else None
    if layout is not None:
        _, fields, decode = layout
        if end - start != fields.size + 1:
            raise ClusterError(
                f"malformed frame body: {end - start} bytes for a "
                f"{body[start]:#04x} record of {fields.size + 1}"
            )
        try:
            return decode(fields.unpack_from(body, start + 1))
        except IndexError as error:  # a choice index past the end
            raise ClusterError(f"malformed frame body: {error}") from error
    try:
        payload = json.loads(str(body[start:end], "utf-8"))
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
                frame = decode_frame(buffer, offset + _HEADER.size, end)
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
    fields: Dict[str, Any] = {"request_id": int(wire.get("rid", 0))}
    if cls is Invalidate or cls is VersionReport:
        fields["version_number"] = int(wire.get("version_number", -1))
    if cls is VersionReport:
        fields["holds_copy"] = bool(wire.get("holds_copy", False))
    elif cls is DataTransfer:
        fields["version"] = version_from_wire(wire.get("version"))
        fields["save_copy"] = bool(wire.get("save_copy", False))
    elif cls is Ack:
        fields["info"] = wire.get("info")
    return cls(int(wire["sender"]), int(wire["receiver"]), **fields)
