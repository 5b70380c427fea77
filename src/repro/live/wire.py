"""The wire format: length-prefixed frames, and the one payload schema.

One frame = a 4-byte big-endian length prefix followed by that many
body bytes.  This module owns the framing rules for both codecs (the
frame layer below takes the body decoder as a parameter) and the JSON
body: UTF-8 JSON, one object.  JSON keeps the format debuggable
(``tcpdump``/``strace`` show readable protocol traffic) and versionable;
the length prefix makes framing trivial and torn reads detectable.
:mod:`repro.live.wire_bin` is the packed alternative for peer links.

Two layers share the format:

* **control frames** — connection handshake (``hello``), liveness
  (``hb``), client traffic (``begin`` / ``status`` / ``decided`` /
  ``status-reply``), external-input forwarding (``external``), and
  graceful shutdown (``shutdown``);
* **payload frames** (``t = "payload"``) — the runtime's own message
  dataclasses (:class:`~repro.runtime.messages.ProtoMsg`, the
  ``Term*`` family, the ``Outcome*`` family), round-tripped through
  :func:`encode_payload` / :func:`decode_payload` so *the protocol
  layer's types never change* between the simulator and the wire.

A payload's tag, fields and field kinds are declared once, in
:data:`PAYLOADS`; the JSON dict form here and the binary record in
``wire_bin`` are both derived from it, and both validate peer input
through :func:`check_field`.  A new payload is a dataclass plus one row.

Frames larger than :data:`MAX_FRAME` are rejected — nothing the commit
protocols send comes within orders of magnitude of it, so an oversized
length prefix means a corrupt or hostile peer.

**Trace context** rides in two optional frame keys: ``sid`` is the
span id the sender assigned to this message's ``net.send`` trace
event, ``pid`` the span the send was causally triggered by (the
message whose delivery the sender was handling).  The receiver echoes
``sid`` as the ``msg_id`` of its ``net.deliver`` / ``net.drop`` event,
which is exactly the contract :class:`repro.sim.spans.SpanIndex`
expects — so the simulator's span tooling reconstructs live
cross-process message spans unchanged.  Frames that carry no protocol
causality (heartbeats, hellos, client traffic) are never stamped.
"""

from __future__ import annotations

import asyncio
import json
import struct
from typing import Any, Callable, Optional

from repro.errors import FrameError
from repro.net.message import Payload
from repro.runtime.messages import (
    OutcomeQuery,
    OutcomeReply,
    ProtoMsg,
    TermAck,
    TermBlocked,
    TermDecision,
    TermMoveTo,
    TermStateQuery,
    TermStateReply,
)
from repro.types import Outcome, SiteId

#: Hard cap on one frame's JSON body, in bytes.
MAX_FRAME = 1 << 20

_LENGTH = struct.Struct(">I")


# ----------------------------------------------------------------------
# Trace context
# ----------------------------------------------------------------------


def stamp_trace_context(
    frame: dict[str, Any],
    span_id: int,
    parent: Optional[int] = None,
) -> dict[str, Any]:
    """Stamp a frame with its span id (and optional parent span) in place.

    Returns the frame for chaining.  ``parent`` is omitted from the
    wire entirely when ``None`` — root spans stay one key smaller.
    """
    frame["sid"] = int(span_id)
    if parent is not None:
        frame["pid"] = int(parent)
    return frame


def trace_context(frame: dict[str, Any]) -> tuple[Optional[int], Optional[int]]:
    """Extract ``(span_id, parent_span_id)`` from a frame (None if unstamped)."""
    sid = frame.get("sid")
    pid = frame.get("pid")
    return (
        int(sid) if sid is not None else None,
        int(pid) if pid is not None else None,
    )


# ----------------------------------------------------------------------
# Frame layer
# ----------------------------------------------------------------------

#: Decodes one frame body (a ``memoryview`` valid only for the call).
BodyDecoder = Callable[[memoryview], dict[str, Any]]


def frame_body(body: bytes) -> bytes:
    """Length-prefix an encoded body; FrameError if it exceeds MAX_FRAME."""
    if len(body) > MAX_FRAME:
        raise FrameError(f"frame of {len(body)} bytes exceeds MAX_FRAME")
    return _LENGTH.pack(len(body)) + body


def body_length(buf: Any, offset: int = 0) -> int:
    """Body length the prefix at ``buf[offset:]`` announces; FrameError if 0 or huge."""
    (length,) = _LENGTH.unpack_from(buf, offset)
    if length == 0:
        # A frame body is always at least "{}" (or a two-byte binary
        # header); a zero-length prefix is a corrupt or hostile peer.
        raise FrameError("zero-length frame is malformed")
    if length > MAX_FRAME:
        # Refused before any body byte is awaited: waiting for
        # MAX_FRAME+1 bytes that never come would be a hang.
        raise FrameError(f"length prefix {length} exceeds MAX_FRAME")
    return length


def _split_frames(
    buf: Any, decode_body: BodyDecoder, single: bool = False
) -> tuple[list[dict[str, Any]], int]:
    """Decode the complete frames (``single``: just the first) heading ``buf``.

    Returns the frames and the bytes they occupied; a truncated tail is
    left unconsumed.  Bodies are ``memoryview`` slices, all released on
    the way out (also when a body decoder raises) so a ``bytearray``
    caller may then shrink its buffer.
    """
    frames: list[dict[str, Any]] = []
    offset, size, prefix = 0, len(buf), _LENGTH.size
    with memoryview(buf) as view:
        while size - offset >= prefix:
            start = offset + prefix
            end = start + body_length(view, offset)
            if end > size:
                break
            body = view[start:end]
            try:  # Not ``with``: its enter/exit calls cost ~150 ns a frame.
                frames.append(decode_body(body))
            finally:
                body.release()
            offset = end
            if single:
                break
    return frames, offset


def decode_single_frame(
    data: bytes, decode_body: BodyDecoder
) -> tuple[dict[str, Any], bytes]:
    """``(frame, rest)`` of ``data``; FrameError if it holds no complete frame."""
    frames, used = _split_frames(data, decode_body, single=True)
    if not frames:
        raise FrameError(f"truncated frame: {len(data)} bytes hold no complete frame")
    return frames[0], data[used:]


class FrameBuffer:
    """Receive buffer of an incremental decoder (either codec).

    :attr:`hwm` records the largest number of bytes the buffer ever
    held right after an append — the receive-side backlog gauge.  A
    high-water mark creeping toward :data:`MAX_FRAME` means a peer is
    outpacing this site's event loop (or dribbling a huge frame), the
    kind of gray-failure signal a soak harness watches for.
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        #: Largest buffered byte count ever observed (monotonic).
        self.hwm = 0

    @property
    def pending(self) -> int:
        """Bytes buffered toward a not-yet-complete frame."""
        return len(self._buf)

    def _feed(self, data: bytes, decode_body: BodyDecoder) -> list[dict[str, Any]]:
        buf = self._buf
        buf += data
        if len(buf) > self.hwm:
            self.hwm = len(buf)
        frames, used = _split_frames(buf, decode_body)
        if used:
            del buf[:used]
        return frames


#: One shared encoder instance: ``json.dumps`` with non-default options
#: builds a fresh ``JSONEncoder`` per call, which is measurable at
#: frame rates on a single-core host.
_ENCODE_JSON = json.JSONEncoder(separators=(",", ":"), sort_keys=True).encode


def encode_frame(obj: dict[str, Any]) -> bytes:
    """Serialize one frame: length prefix + compact, key-sorted JSON.

    Sorted keys make frames deterministic for a given object, which
    keeps wire-level tests and traces stable.

    Raises:
        FrameError: If the encoded body exceeds :data:`MAX_FRAME`.
    """
    return frame_body(_ENCODE_JSON(obj).encode("utf-8"))


def _decode_json_body(body: Any) -> dict[str, Any]:
    try:
        obj = json.loads(str(body, "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as error:
        # RecursionError: a megabyte of "[" is valid UTF-8 that nests
        # deeper than the parser's stack.
        raise FrameError(f"frame body is not valid JSON: {error}") from error
    if not isinstance(obj, dict):
        raise FrameError(f"frame body must be a JSON object, got {type(obj).__name__}")
    return obj


async def read_frame(reader: asyncio.StreamReader) -> Optional[dict[str, Any]]:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    Raises:
        FrameError: On a truncated frame, a zero or oversized length
            prefix, or a body that is not a JSON object.
    """
    try:
        prefix = await reader.readexactly(_LENGTH.size)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None  # Clean EOF between frames.
        raise FrameError("connection closed mid-length-prefix") from error
    length = body_length(prefix)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise FrameError(
            f"connection closed mid-frame ({len(error.partial)}/{length} bytes)"
        ) from error
    return _decode_json_body(body)


class FrameDecoder(FrameBuffer):
    """Incremental frame decoder: feed raw bytes, take complete frames.

    The receive-side complement of sender coalescing — a peer packs
    many frames into one socket write, so the receiver pulls whatever
    the socket has buffered and splits it synchronously instead of
    paying two stream awaits per frame.  Partial frames stay buffered
    until the next ``feed``.
    """

    def feed(self, data: bytes) -> list[dict[str, Any]]:
        """Append bytes; return every frame completed by them, in order.

        Raises:
            FrameError: On a zero or oversized length prefix or a body
                that is not a JSON object.
        """
        return self._feed(data, _decode_json_body)


def decode_frame_bytes(data: bytes) -> tuple[dict[str, Any], bytes]:
    """Synchronous single-frame decode; returns (frame, remaining bytes).

    The test-facing inverse of :func:`encode_frame` (the live runtime
    itself reads from stream readers via :func:`read_frame`).

    Raises:
        FrameError: On truncation or malformed JSON.
    """
    return decode_single_frame(data, _decode_json_body)


# ----------------------------------------------------------------------
# Payload schema
# ----------------------------------------------------------------------

# Field kinds: what a field's wire value may be (:func:`check_field`).
U32 = "u32"  #: int in [0, 2**32)
STR = "str"  #: text of at most 65535 UTF-8 bytes
OUTCOME = "outcome"  #: an :class:`~repro.types.Outcome` value string
FLAG = "flag"  #: bool; absent reads as ``False`` in JSON

# Fields several payloads share, as ``(wire key, attribute, kind)``.
_BACKUP = ("backup", "backup", U32)
_ROUND = ("round", "round_no", U32)
_STATE = ("state", "state", STR)
_OUTCOME = ("outcome", "outcome", OUTCOME)

#: The payload alphabet, one row per :mod:`repro.runtime.messages`
#: dataclass: ``(JSON tag, dataclass, ((wire key, attribute, kind), ...))``.
#: Both codecs are derived from this table and nothing else names a
#: payload's fields.  Row position + 1 is the binary tag and field order
#: is the binary layout, so rows and fields are append-only; a ``flag``
#: must directly follow an ``outcome``, whose byte's high bit carries it.
PAYLOADS: tuple[tuple[str, type, tuple[tuple[str, str, str], ...]], ...] = (
    ("proto", ProtoMsg, (("kind", "kind", STR),)),
    ("term-move-to", TermMoveTo, (_BACKUP, _ROUND, _STATE)),
    ("term-ack", TermAck, (_ROUND,)),
    ("term-decision", TermDecision, (_OUTCOME, _ROUND)),
    ("term-blocked", TermBlocked, (_ROUND,)),
    ("term-state-query", TermStateQuery, (_BACKUP, _ROUND)),
    ("term-state-reply", TermStateReply, (_OUTCOME, _ROUND, _STATE)),
    ("outcome-query", OutcomeQuery, ()),
    (
        "outcome-reply",
        OutcomeReply,
        (_OUTCOME, ("in_doubt", "recovered_in_doubt", FLAG)),
    ),
)

_ROW_BY_TYPE = {cls: (tag, fields) for tag, cls, fields in PAYLOADS}
_ROW_BY_TAG = {
    tag: (position, cls, fields)
    for position, (tag, cls, fields) in enumerate(PAYLOADS, start=1)
}
_OUTCOMES = {outcome.value: outcome for outcome in Outcome}


def check_uint(value: Any, field: str, bits: int) -> int:
    """``value`` if an int (not a bool) of at most ``bits`` bits, else FrameError."""
    if type(value) is not int:
        raise FrameError(f"field {field!r} must be an int, got {type(value).__name__}")
    if value < 0 or value >> bits:
        raise FrameError(f"field {field!r} out of u{bits} range: {value}")
    return value


def check_field(kind: str, value: Any, field: str) -> Any:
    """``value`` if schema kind ``kind`` admits it, else FrameError.

    Payload dicts are peer input, and both codecs validate through this
    one function — the JSON decoder on receipt, the binary encoder
    before packing — so a dict one codec accepts the other accepts.
    """
    if kind == U32:
        return check_uint(value, field, 32)
    want = bool if kind == FLAG else str
    if type(value) is not want:
        raise FrameError(
            f"field {field!r} must be a {want.__name__}, got {type(value).__name__}"
        )
    if kind == OUTCOME and value not in _OUTCOMES:
        raise FrameError(f"field {field!r} is not an outcome: {value!r}")
    if kind == STR:
        try:
            size = len(value) if value.isascii() else len(value.encode("utf-8"))
        except UnicodeEncodeError as error:  # a lone surrogate
            raise FrameError(f"field {field!r} is not valid UTF-8") from error
        if size > 0xFFFF:
            raise FrameError(f"field {field!r} string of {size} bytes too long")
    return value


def payload_row(data: Any) -> tuple[int, type, tuple[tuple[str, str, str], ...]]:
    """``(binary tag, dataclass, fields)`` of the row a payload dict names.

    FrameError if ``data`` is not a dict or its tag is unknown.
    """
    if not isinstance(data, dict):
        raise FrameError(f"payload body must be a dict, got {type(data).__name__}")
    tag = data.get("p")
    row = _ROW_BY_TAG.get(tag) if isinstance(tag, str) else None
    if row is None:
        raise FrameError(f"unknown payload tag {tag!r}")
    return row


def encode_payload(payload: Payload) -> dict[str, Any]:
    """Encode one runtime payload dataclass as a JSON-safe dict.

    Raises:
        FrameError: If the payload type has no wire encoding.
    """
    row = _ROW_BY_TYPE.get(type(payload))
    if row is None:
        raise FrameError(f"payload type {type(payload).__name__} has no wire codec")
    tag, fields = row
    data: dict[str, Any] = {"p": tag}
    for key, attr, kind in fields:
        value = getattr(payload, attr)
        data[key] = value.value if kind == OUTCOME else value
    return data


def decode_payload(data: dict[str, Any]) -> Payload:
    """Decode :func:`encode_payload` output back to the dataclass.

    Raises:
        FrameError: On an unknown payload tag, a missing field, or a
            field value its schema kind does not admit.
    """
    _, cls, fields = payload_row(data)
    values: dict[str, Any] = {}
    for key, attr, kind in fields:
        if key in data:
            value = check_field(kind, data[key], key)
        elif kind == FLAG:
            value = False
        else:
            raise FrameError(f"{data['p']!r} payload is missing field {key!r}")
        values[attr] = _OUTCOMES[value] if kind == OUTCOME else value
    return cls(**values)
