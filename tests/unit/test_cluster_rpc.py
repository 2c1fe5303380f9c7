"""Unit: the live cluster's wire format (framing + message codec)."""

from __future__ import annotations

import asyncio
import contextvars
import json
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.metrics import NodeMetrics
from repro.cluster.rpc import (
    MAX_FRAME_BYTES,
    FrameProtocol,
    decode_frame,
    encode_frame,
    message_to_wire,
    read_frame,
    run_eagerly,
    version_from_wire,
    version_to_wire,
    wire_to_message,
    write_frame,
)
from repro.cluster.transport import Address, FaultPlan, PeerTransport, start_server
from repro.distsim.messages import (
    Ack,
    DataTransfer,
    Invalidate,
    ReadRequest,
    VersionInquiry,
    VersionReport,
)
from repro.exceptions import ClusterError
from repro.storage.versions import ObjectVersion


def read_all_frames(data: bytes) -> list:
    """Feed bytes into a StreamReader and drain every frame from it.

    The reader is built inside the coroutine: asyncio streams must be
    created while a loop is running."""

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        seen = []
        while True:
            frame = await read_frame(reader)
            if frame is None:
                return seen
            seen.append(frame)

    return asyncio.run(go())


def read_one_frame(data: bytes):
    frames = read_all_frames(data)
    return frames[0] if frames else None


class TestFraming:
    def test_round_trip(self):
        payload = {"type": "ping", "nested": {"a": [1, 2, 3]}}
        assert read_one_frame(encode_frame(payload)) == payload

    def test_multiple_frames_in_one_stream(self):
        frames = [{"type": "ping", "n": n} for n in range(3)]
        data = b"".join(encode_frame(frame) for frame in frames)
        assert read_all_frames(data) == frames

    def test_clean_eof_returns_none(self):
        assert read_one_frame(b"") is None

    def test_mid_header_truncation_raises(self):
        with pytest.raises(ClusterError, match="mid-header"):
            read_one_frame(b"\x00\x00")

    def test_mid_frame_truncation_raises(self):
        with pytest.raises(ClusterError, match="mid-frame"):
            read_one_frame(encode_frame({"type": "ping"})[:-2])

    def test_oversize_frame_rejected(self):
        with pytest.raises(ClusterError, match="exceeds"):
            read_one_frame(struct.pack(">I", MAX_FRAME_BYTES + 1))

    def test_malformed_json_rejected(self):
        body = b"{not json"
        with pytest.raises(ClusterError, match="malformed"):
            read_one_frame(struct.pack(">I", len(body)) + body)

    def test_non_object_payload_rejected(self):
        body = b"[1,2,3]"
        with pytest.raises(ClusterError, match="'type'"):
            read_one_frame(struct.pack(">I", len(body)) + body)

    def test_typeless_object_rejected(self):
        body = b'{"a":1}'
        with pytest.raises(ClusterError, match="'type'"):
            read_one_frame(struct.pack(">I", len(body)) + body)

    def test_write_frame_is_deterministic(self):
        left = encode_frame({"b": 1, "a": 2, "type": "x"})
        right = encode_frame({"a": 2, "type": "x", "b": 1})
        assert left == right  # sorted keys: byte-stable on the wire

    def test_write_frame_to_stream(self):
        transcript = bytearray()

        class FakeWriter:
            def write(self, data):
                transcript.extend(data)

            async def drain(self):
                pass

        asyncio.run(write_frame(FakeWriter(), {"type": "ping"}))
        assert read_one_frame(bytes(transcript)) == {"type": "ping"}


class FakeTransport:
    """Just enough of a transport for a FrameProtocol fed by hand."""

    def __init__(self):
        self.closed = False
        self.written = bytearray()

    def is_closing(self):
        return self.closed

    def close(self):
        self.closed = True

    def write(self, data):
        self.written.extend(data)


def feed(chunks, on_frame=None):
    """Feed byte chunks to a FrameProtocol; returns (frames, conn,
    errors reported to the loop)."""

    async def go():
        loop = asyncio.get_running_loop()
        reported = []
        loop.set_exception_handler(lambda loop, context: reported.append(context))
        seen = []

        def handle(frame, conn):
            seen.append(frame)
            if on_frame is not None:
                on_frame(frame)

        conn = FrameProtocol(handle, lambda conn: None)
        conn.connection_made(FakeTransport())
        for chunk in chunks:
            conn.data_received(chunk)
        return seen, conn, reported

    return asyncio.run(go())


class TestFrameProtocol:
    def test_frame_fed_one_byte_at_a_time(self):
        data = encode_frame({"type": "ping", "blob": "x" * 300})
        seen, conn, _ = feed([data[i : i + 1] for i in range(len(data))])
        assert seen == [{"type": "ping", "blob": "x" * 300}]
        assert not conn.transport.closed

    def test_several_frames_in_one_chunk(self):
        frames = [{"type": "ping", "n": n} for n in range(4)]
        data = b"".join(encode_frame(frame) for frame in frames)
        # ...with the last one split across two reads.
        seen, _, _ = feed([data[:-3], data[-3:]])
        assert seen == frames

    def test_oversize_prefix_closes_the_connection(self):
        later = encode_frame({"type": "ping"})
        seen, conn, _ = feed(
            [struct.pack(">I", MAX_FRAME_BYTES + 1) + b"{}" + later]
        )
        assert seen == []
        assert conn.transport.closed
        assert "exceeds" in str(conn.error)

    def test_non_object_body_closes_the_connection(self):
        body = b"[1, 2]"
        seen, conn, _ = feed(
            [encode_frame({"type": "ping"}) + struct.pack(">I", len(body)) + body]
        )
        assert seen == [{"type": "ping"}]
        assert conn.transport.closed
        assert "'type'" in str(conn.error)

    def test_raising_handler_leaves_the_connection_up(self):
        def explode(frame):
            if frame["n"] == 0:
                raise RuntimeError("handler bug")

        data = encode_frame({"type": "ping", "n": 0})
        seen, conn, reported = feed(
            [data, encode_frame({"type": "ping", "n": 1})], on_frame=explode
        )
        assert [frame["n"] for frame in seen] == [0, 1]
        assert not conn.transport.closed
        assert [type(c["exception"]) for c in reported] == [RuntimeError]

    def test_write_is_synchronous(self):
        async def go():
            conn = FrameProtocol(lambda frame, conn: None, lambda conn: None)
            conn.connection_made(FakeTransport())
            conn.write(encode_frame({"type": "ping"}))
            await conn.drain()  # not paused: returns at once
            written = bytes(conn.transport.written)
            conn.transport.close()
            with pytest.raises(ConnectionResetError):
                conn.write(encode_frame({"type": "ping"}))
            return written

        assert read_one_frame(asyncio.run(go())) == {"type": "ping"}

    def test_delayed_link_does_not_hold_back_later_frames(self, tmp_path):
        # One link 1 -> 2 with a fault-plan delay: the delayed charged
        # message must not block the undelayed `done` frame behind it
        # on the same connection, so delivery is reordered.
        async def go():
            arrived = []
            accepted = []

            def accept():
                conn = FrameProtocol(
                    lambda frame, conn: arrived.append(frame["type"]),
                    lambda conn: None,
                )
                accepted.append(conn)
                return conn

            server, address = await start_server(
                Address("tcp", host="127.0.0.1", port=0), accept
            )
            transport = PeerTransport(1, NodeMetrics(1))
            transport.set_peers({2: address})
            transport.fault_plan = FaultPlan(link_delays={(1, 2): 0.05})
            try:
                delayed = asyncio.ensure_future(
                    transport.send_protocol(Invalidate(1, 2, request_id=7))
                )
                await transport.send_done(2, 7)
                assert await delayed
                while len(arrived) < 2:
                    await asyncio.sleep(0.005)
            finally:
                await transport.close()
                server.close()
                await server.wait_closed()
            return arrived, len(accepted)

        assert asyncio.run(go()) == (["done", "msg"], 1)


VERSION_3_2 = {"number": 3, "writer": 2}
#: One frame of each binary layout, by tag, with its pinned wire bytes:
#: length prefix, tag byte, then the fields (big-endian ``q``/``?``/``B``).
GOLDEN = [
    ({"type": "exec", "rid": 7, "op": "read"}, "00000009" "01" "0000000000000007"),
    (
        {"type": "exec", "rid": 7, "op": "write", "version": VERSION_3_2},
        "00000019" "02" "0000000000000007" "0000000000000003" "0000000000000002",
    ),
    (
        {"type": "result", "rid": 7, "ok": True, "version": VERSION_3_2},
        "0000001a" "03" "0000000000000007" "01" "0000000000000003" "0000000000000002",
    ),
    (
        message_to_wire(VersionInquiry(1, 2, request_id=7)),
        "0000001a" "04" "0000000000000001" "0000000000000002" "0000000000000007" "01",
    ),
    (
        message_to_wire(Invalidate(1, 2, version_number=3, request_id=7)),
        "00000021" "05" "0000000000000001" "0000000000000002" "0000000000000007"
        "0000000000000003",
    ),
    (
        message_to_wire(
            VersionReport(2, 1, request_id=7, version_number=3, holds_copy=True)
        ),
        "00000022" "06" "0000000000000002" "0000000000000001" "0000000000000007"
        "0000000000000003" "01",
    ),
    (
        message_to_wire(
            DataTransfer(
                1, 2, version=ObjectVersion(3, 1), request_id=7, save_copy=True
            )
        ),
        "0000002a" "07" "0000000000000001" "0000000000000002" "0000000000000007"
        "0000000000000003" "0000000000000001" "01",
    ),
    (
        {"type": "done", "rid": 7, "from": 2, "dropped": False},
        "00000012" "08" "0000000000000007" "0000000000000002" "00",
    ),
]


def typed(value):
    """``value`` with every leaf paired with its type, so equality also
    tells ``True`` from ``1``."""
    if isinstance(value, dict):
        return {key: typed(item) for key, item in value.items()}
    if isinstance(value, list):
        return [typed(item) for item in value]
    return (type(value), value)


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)
#: Ints at and just past the signed 64-bit edges, and flags given as ints.
EDGES = [0, -1, 2**63 - 1, -(2**63), 2**63, -(2**63) - 1]
INTS = st.integers() | st.sampled_from(EDGES)
FLAGS = st.booleans() | st.sampled_from([0, 1])
OPS = st.sampled_from(["read", "write"])
VERSIONS = st.fixed_dictionaries(
    {"number": INTS, "writer": INTS}, optional={"payload": JSON_VALUES}
)


def msg_frames(kind, **fields):
    return st.fixed_dictionaries(
        {
            "type": st.just("msg"),
            "kind": st.just(kind),
            "sender": INTS,
            "receiver": INTS,
            "rid": INTS,
            **fields,
        }
    )


#: Each layout's shape, with edge values, and near misses of it.
HOT_FRAMES = st.one_of(
    st.fixed_dictionaries(
        {"type": st.just("exec"), "rid": INTS, "op": OPS},
        optional={"version": VERSIONS},
    ),
    st.fixed_dictionaries(
        {"type": st.just("exec"), "rid": INTS, "op": OPS, "version": VERSIONS}
    ),
    st.fixed_dictionaries(
        {"type": st.just("result"), "rid": INTS, "ok": FLAGS, "version": VERSIONS}
    ),
    st.fixed_dictionaries(
        {"type": st.just("result"), "rid": INTS, "ok": FLAGS},
        optional={"version": st.none(), "error": st.text(max_size=8)},
    ),
    msg_frames("read_request"),
    msg_frames("version_inquiry"),
    msg_frames("ack"),
    msg_frames("ack", info=JSON_VALUES),
    msg_frames("invalidate", version_number=INTS),
    msg_frames("version_report", version_number=INTS, holds_copy=FLAGS),
    msg_frames("data_transfer", version=VERSIONS, save_copy=FLAGS),
    msg_frames("gossip"),
    st.fixed_dictionaries(
        {"type": st.just("done"), "rid": INTS, "from": INTS, "dropped": FLAGS},
        optional={"failed": st.just(True)},
    ),
)
FRAMES = st.one_of(
    HOT_FRAMES,
    # A hot shape with one key too many.
    st.builds(
        lambda frame, key, value: {**frame, key: value},
        HOT_FRAMES,
        st.text(max_size=8),
        JSON_VALUES,
    ),
    st.builds(
        lambda frame, kind: {**frame, "type": kind},
        st.dictionaries(st.text(max_size=8), JSON_VALUES, max_size=4),
        st.text(max_size=8),
    ),
)


class TestBinaryLayouts:
    @settings(max_examples=400, deadline=None)
    @given(FRAMES)
    def test_decodes_to_what_json_would(self, frame):
        data = encode_frame(frame)
        assert struct.unpack(">I", data[:4])[0] == len(data) - 4
        assert typed(decode_frame(data[4:])) == typed(json.loads(json.dumps(frame)))

    @pytest.mark.parametrize("frame, wire", GOLDEN, ids=[w[8:10] for _, w in GOLDEN])
    def test_golden_bytes(self, frame, wire):
        data = encode_frame(frame)
        assert data.hex() == wire
        assert decode_frame(data[4:]) == frame

    @pytest.mark.parametrize("frame, _", GOLDEN)
    def test_json_from_an_older_peer_still_decodes(self, frame, _):
        body = json.dumps(frame, separators=(",", ":"), sort_keys=True).encode()
        assert decode_frame(body) == frame

    @pytest.mark.parametrize(
        "rid, binary",
        [(2**63 - 1, True), (-(2**63), True), (2**63, False), (-(2**63) - 1, False)],
    )
    def test_ints_past_64_bits_fall_back_to_json(self, rid, binary):
        frame = {"type": "done", "rid": rid, "from": 2, "dropped": False}
        data = encode_frame(frame)
        assert data[4:5] == (b"\x08" if binary else b"{")
        assert typed(decode_frame(data[4:])) == typed(frame)

    @pytest.mark.parametrize(
        "frame",
        [
            # Ints where a layout wants a real bool.
            {"type": "done", "rid": 7, "from": 2, "dropped": 0},
            {"type": "result", "rid": 7, "ok": 1, "version": VERSION_3_2},
            {**GOLDEN[5][0], "holds_copy": 1},
            {**GOLDEN[6][0], "save_copy": 0},
            # Shapes no layout has.
            message_to_wire(Ack(1, 2, request_id=4, info="joined")),
            {"type": "result", "rid": 7, "ok": False, "error": "boom"},
            {"type": "done", "rid": 7, "from": 2, "dropped": False, "failed": True},
            {
                "type": "exec",
                "rid": 7,
                "op": "write",
                "version": {**VERSION_3_2, "payload": "x"},
            },
            {"type": "exec", "rid": 7, "op": "erase"},
            {"type": "exec", "rid": 7.0, "op": "read"},
            {"type": "ping"},
        ],
    )
    def test_off_table_frames_stay_json(self, frame):
        data = encode_frame(frame)
        assert data[4:5] == b"{"
        assert typed(decode_frame(data[4:])) == typed(frame)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 8), st.binary(max_size=48))
    def test_any_bytes_after_a_tag_decode_or_close(self, tag, tail):
        body = bytes([tag]) + tail
        seen, conn, reported = feed([struct.pack(">I", len(body)) + body])
        if conn.transport.closed:
            assert seen == [] and "malformed frame body" in str(conn.error)
            with pytest.raises(ClusterError, match="malformed frame body"):
                decode_frame(body)
        else:
            assert len(seen) == 1 and isinstance(seen[0], dict)
            assert decode_frame(body) == seen[0]
        assert reported == []

    @pytest.mark.parametrize("frame, wire", GOLDEN)
    def test_truncated_records_close_the_connection(self, frame, wire):
        body = bytes.fromhex(wire)[4:]
        for cut in (1, len(body) - 1):
            short = body[:cut]
            seen, conn, _ = feed([struct.pack(">I", len(short)) + short])
            assert seen == [] and conn.transport.closed
            assert "malformed frame body" in str(conn.error)

    def test_binary_frames_fed_one_byte_at_a_time(self):
        data = b"".join(bytes.fromhex(wire) for _, wire in GOLDEN)
        data += encode_frame({"type": "ping"})
        seen, conn, _ = feed([data[i : i + 1] for i in range(len(data))])
        assert seen == [frame for frame, _ in GOLDEN] + [{"type": "ping"}]
        assert not conn.transport.closed


class TestRunEagerly:
    def test_finished_coroutine_never_becomes_a_task(self):
        async def go():
            async def quick():
                return 42

            started = run_eagerly(quick())
            return started.done(), isinstance(started, asyncio.Task), started.result()

        assert asyncio.run(go()) == (True, False, 42)

    def test_suspending_coroutine_continues_as_a_task(self):
        marker = contextvars.ContextVar("marker", default="outside")

        async def go():
            gate = asyncio.get_running_loop().create_future()

            async def waits():
                marker.set("inside")
                await gate
                return marker.get()

            started = run_eagerly(waits())
            assert isinstance(started, asyncio.Task) and not started.done()
            assert marker.get() == "outside"  # ran in its own context
            gate.set_result(None)
            return await started

        assert asyncio.run(go()) == "inside"

    def test_exception_is_captured_not_raised(self):
        async def go():
            async def broken():
                raise ValueError("boom")

            return run_eagerly(broken()).exception()

        assert isinstance(asyncio.run(go()), ValueError)


class TestVersionCodec:
    def test_round_trip(self):
        version = ObjectVersion(7, 3, payload="blob")
        assert version_from_wire(version_to_wire(version)) == version

    def test_payload_free_round_trip(self):
        version = ObjectVersion(0, 1)
        wire = version_to_wire(version)
        assert "payload" not in wire
        assert version_from_wire(wire) == version

    def test_none_passes_through(self):
        assert version_to_wire(None) is None
        assert version_from_wire(None) is None


MESSAGES = [
    ReadRequest(4, 1, request_id=9),
    Invalidate(2, 5, version_number=3, request_id=11),
    Ack(1, 2, request_id=4, info="joined"),
    Ack(1, 2, request_id=4),
    VersionInquiry(3, 1, request_id=6),
    VersionReport(1, 3, request_id=6, version_number=8, holds_copy=True),
    DataTransfer(
        1, 4, version=ObjectVersion(2, 1), request_id=7, save_copy=True
    ),
    DataTransfer(
        1, 4, version=ObjectVersion(2, 1), request_id=7, save_copy=False
    ),
]


class TestMessageCodec:
    @pytest.mark.parametrize(
        "message", MESSAGES, ids=lambda m: type(m).__name__
    )
    def test_round_trip(self, message):
        wire = message_to_wire(message)
        assert wire["type"] == "msg"
        assert wire_to_message(wire) == message

    def test_wire_form_is_json_clean(self):
        import json

        for message in MESSAGES:
            json.dumps(message_to_wire(message))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ClusterError, match="unknown protocol message"):
            wire_to_message({"type": "msg", "kind": "gossip"})

    def test_unregistered_type_rejected(self):
        class Exotic(ReadRequest):
            pass

        with pytest.raises(ClusterError, match="no wire encoding"):
            message_to_wire(Exotic(1, 2))


class TestAddress:
    def test_tcp_render_parse(self):
        address = Address("tcp", host="127.0.0.1", port=4001)
        assert address.render() == "tcp:127.0.0.1:4001"
        assert Address.parse(address.render()) == address

    def test_unix_render_parse(self):
        address = Address("unix", path="/tmp/node-1.sock")
        assert address.render() == "unix:/tmp/node-1.sock"
        assert Address.parse(address.render()) == address

    @pytest.mark.parametrize(
        "text", ["", "tcp:", "tcp:host:", "tcp:host:notaport", "unix:", "smoke:1"]
    )
    def test_garbage_rejected(self, text):
        with pytest.raises(ClusterError):
            Address.parse(text)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ClusterError):
            Address("carrier-pigeon")

    def test_unix_requires_path(self):
        with pytest.raises(ClusterError):
            Address("unix")
