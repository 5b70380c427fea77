"""The packed binary wire codec for peer links.

Same frame boundary as :mod:`repro.live.wire` — a 4-byte big-endian
length prefix — but the body is a struct-packed record instead of
sorted-key JSON.  Only the three peer-link frame types exist in binary
form (``hb``, ``payload``, ``external``); the ``hello`` handshake and
all client traffic stay JSON, which is what makes per-connection codec
negotiation possible: every connection opens with a JSON hello, and its
``codec`` field announces how the *rest of that connection's* frames
are encoded.  Each direction of a peer pair is its own TCP connection,
so a JSON site and a binary site interoperate — each side decodes what
the other announced.

Body layout (after the length prefix)::

    u8  kind     1 = hb, 2 = payload, 3 = external
    u8  flags    bit0 txn, bit1 sid, bit2 pid, bit3 dst_boot
    u64 ...      the flagged fields, big-endian, in bit order
    ...          kind-specific tail

Tails: ``hb`` carries a ``u32`` site id; ``external`` carries its kind
as a string; ``payload`` carries a tagged record derived from
:data:`repro.live.wire.PAYLOADS` — a ``u8`` tag (the row's position,
from 1) and the row's fields in order: ``u32`` big-endian, ``outcome``
one code byte, ``flag`` the high bit of the outcome byte before it,
``str`` a one-byte token into :data:`INTERNED` — the closed vocabulary
of protocol message kinds and state names — with token ``0`` escaping
to ``u16`` length + UTF-8 for anything else, so the codec never
constrains what a spec may name.  Nothing here names a payload's
fields; framing (length prefix, buffering) is ``wire``'s, shared.

Decoding is strict and zero-copy (``memoryview`` slices, no
intermediate buffers): unknown kinds, tags, tokens or flag bits,
truncated fields, trailing bytes, zero-length frames, and oversized
length prefixes all raise :class:`~repro.errors.FrameError`.  Decoded
frames are *dict-identical* to what the JSON codec would have produced
for the same frame — the equality the differential test suite pins —
so every layer above the transport (chaos classification, incarnation
fencing, trace stitching, audit) is codec-blind.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Union

from repro.errors import FrameError
from repro.live.wire import (
    OUTCOME,
    PAYLOADS,
    STR,
    U32,
    FrameBuffer,
    FrameDecoder,
    check_field,
    check_uint,
    decode_single_frame,
    encode_frame,
    frame_body,
    payload_row,
)

#: Codec names as they appear in ``hello`` frames and ``--codec`` flags.
CODEC_JSON = "json"
CODEC_BIN = "bin"
CODECS = (CODEC_JSON, CODEC_BIN)

_U64 = struct.Struct(">Q")
_U32 = struct.Struct(">I")
_U16 = struct.Struct(">H")

# Frame kinds.
_K_HB = 1
_K_PAYLOAD = 2
_K_EXTERNAL = 3

# Header flag bits, in wire order.
_FLAG_FIELDS = ((1, "txn"), (2, "sid"), (4, "pid"), (8, "dst_boot"))
_KNOWN_FLAGS = 0x0F

#: The closed string vocabulary of the catalog protocols: message
#: kinds and state names.  Tokens are 1-based; 0 escapes to a literal.
INTERNED = (
    "q",
    "w",
    "p",
    "a",
    "c",
    "request",
    "xact",
    "yes",
    "no",
    "ack",
    "prepare",
    "commit",
    "abort",
    # Appended entries only (tokens are pinned by golden-bytes tests
    # against recorded frames): the read-only vote/state of the
    # one-phase exit.
    "ro",
    "r",
)
_STR_TOKEN = {value: index + 1 for index, value in enumerate(INTERNED)}
_TOKEN_STR: tuple = (None,) + INTERNED

_OUTCOME_CODE = {"commit": 1, "abort": 2, "undecided": 3, "blocked": 4}
_CODE_OUTCOME: tuple = (None, "commit", "abort", "undecided", "blocked")

_HB_REQUIRED = frozenset({"t", "site"})
_PAYLOAD_REQUIRED = frozenset({"t", "txn", "d"})
_EXTERNAL_REQUIRED = frozenset({"t", "txn", "kind"})
_OPTIONAL = frozenset({"sid", "pid", "dst_boot"})
_NO_OPTIONAL: frozenset = frozenset()


#: Payload records, derived from ``wire.PAYLOADS``:
#: binary tag -> (JSON tag, exact key set, fields); tag 0 unused.
_RECORDS: tuple = (None,) + tuple(
    (name, frozenset({"p", *(key for key, _, _ in fields)}), fields)
    for name, _, fields in PAYLOADS
)


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------


def _pack_str(out: bytearray, value: str) -> None:
    """Pack a string already passed by ``check_field(STR, ...)``."""
    token = _STR_TOKEN.get(value)
    if token is not None:
        out.append(token)
        return
    data = value.encode("utf-8")
    out.append(0)
    out += _U16.pack(len(data))
    out += data


def _pack_record(out: bytearray, data: Any) -> None:
    tag = payload_row(data)[0]
    name, expected, fields = _RECORDS[tag]
    if data.keys() != expected:
        raise FrameError(
            f"payload {name!r} keys {sorted(data)} do not match the "
            f"binary schema {sorted(expected)}"
        )
    out.append(tag)
    for key, _, kind in fields:
        value = check_field(kind, data[key], key)
        if kind == STR:
            _pack_str(out, value)
        elif kind == U32:
            out += _U32.pack(value)
        elif kind == OUTCOME:
            out.append(_OUTCOME_CODE[value])
        elif value:  # FLAG: the high bit of the outcome byte before it.
            out[-1] |= 0x80


def _encode_head(
    kind: int, frame: dict[str, Any], required: frozenset, optional: frozenset
) -> bytearray:
    keys = frame.keys()
    missing = required - keys
    if missing:
        raise FrameError(
            f"frame {frame.get('t')!r} missing keys {sorted(missing)}"
        )
    extra = keys - required - optional
    if extra:
        raise FrameError(
            f"frame keys {sorted(extra)} are not representable in the "
            "binary codec"
        )
    body = bytearray((kind, 0))
    flags = 0
    for bit, field in _FLAG_FIELDS:
        value = frame.get(field)
        if value is not None:
            flags |= bit
            body += _U64.pack(check_uint(value, field, 64))
    body[1] = flags
    return body


def encode_frame_bin(frame: dict[str, Any]) -> bytes:
    """Serialize one peer-link frame in the packed binary format.

    Raises:
        FrameError: If the frame type has no binary form (hello and
            client frames are JSON-only), carries keys or values the
            binary schema cannot represent, or exceeds
            :data:`~repro.live.wire.MAX_FRAME`.
    """
    t = frame.get("t")
    if t == "payload":
        body = _encode_head(_K_PAYLOAD, frame, _PAYLOAD_REQUIRED, _OPTIONAL)
        _pack_record(body, frame["d"])
    elif t == "hb":
        body = _encode_head(_K_HB, frame, _HB_REQUIRED, _NO_OPTIONAL)
        body += _U32.pack(check_uint(frame["site"], "site", 32))
    elif t == "external":
        body = _encode_head(_K_EXTERNAL, frame, _EXTERNAL_REQUIRED, _OPTIONAL)
        _pack_str(body, check_field(STR, frame["kind"], "kind"))
    else:
        raise FrameError(
            f"frame type {t!r} has no binary encoding (the binary codec "
            "carries peer-link frames only)"
        )
    return frame_body(bytes(body))


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------


def _unpack_u32(view: memoryview, offset: int, field: str) -> tuple[int, int]:
    if offset + 4 > len(view):
        raise FrameError(f"binary frame truncated in field {field!r}")
    (value,) = _U32.unpack_from(view, offset)
    return value, offset + 4


def _unpack_str(view: memoryview, offset: int, field: str) -> tuple[str, int]:
    if offset >= len(view):
        raise FrameError(f"binary frame truncated in field {field!r}")
    token = view[offset]
    offset += 1
    if token:
        if token >= len(_TOKEN_STR):
            raise FrameError(f"unknown interned string token {token}")
        return _TOKEN_STR[token], offset
    if offset + 2 > len(view):
        raise FrameError(f"binary frame truncated in field {field!r}")
    (length,) = _U16.unpack_from(view, offset)
    offset += 2
    end = offset + length
    if end > len(view):
        raise FrameError(f"binary frame truncated in field {field!r}")
    try:
        value = bytes(view[offset:end]).decode("utf-8")
    except UnicodeDecodeError as error:
        raise FrameError(f"field {field!r} is not valid UTF-8") from error
    return value, end


def _unpack_outcome(view: memoryview, offset: int, field: str) -> tuple[str, int]:
    if offset >= len(view):
        raise FrameError(f"binary frame truncated in field {field!r}")
    byte = view[offset]
    code = byte & 0x7F
    if not 1 <= code < len(_CODE_OUTCOME):
        raise FrameError(f"field {field!r} has no outcome for byte {byte:#x}")
    return _CODE_OUTCOME[code], offset + 1


def _unpack_record(view: memoryview, offset: int) -> tuple[dict, int]:
    if offset >= len(view):
        raise FrameError("binary payload frame has no payload record")
    tag = view[offset]
    offset += 1
    if not 1 <= tag < len(_RECORDS):
        raise FrameError(f"unknown binary payload tag {tag}")
    name, _, fields = _RECORDS[tag]
    data: dict[str, Any] = {"p": name}
    high = 0  # An outcome byte's high bit: only a flag right after may claim it.
    for key, _, kind in fields:
        if kind == STR:
            data[key], offset = _unpack_str(view, offset, key)
        elif kind == U32:
            data[key], offset = _unpack_u32(view, offset, key)
        elif kind == OUTCOME:
            data[key], offset = _unpack_outcome(view, offset, key)
            high |= view[offset - 1] & 0x80
        else:  # FLAG
            data[key], high = bool(high), 0
    if high:
        raise FrameError(f"{name} outcome byte has stray high bit")
    return data, offset


def _decode_body(view: memoryview) -> dict[str, Any]:
    """Decode one binary frame body; strict, zero-copy."""
    if len(view) < 2:
        raise FrameError("binary frame shorter than its two-byte header")
    kind = view[0]
    flags = view[1]
    if flags & ~_KNOWN_FLAGS:
        raise FrameError(f"binary frame has unknown flag bits {flags:#x}")
    offset = 2
    head: dict[str, Any] = {}
    for bit, field in _FLAG_FIELDS:
        if not flags & bit:
            continue
        if offset + 8 > len(view):
            raise FrameError(f"binary frame truncated in field {field!r}")
        (head[field],) = _U64.unpack_from(view, offset)
        offset += 8
    if kind == _K_PAYLOAD:
        frame: dict[str, Any] = {"t": "payload", **head}
        frame["d"], offset = _unpack_record(view, offset)
    elif kind == _K_HB:
        site, offset = _unpack_u32(view, offset, "site")
        frame = {"t": "hb", "site": site, **head}
    elif kind == _K_EXTERNAL:
        frame = {"t": "external", **head}
        frame["kind"], offset = _unpack_str(view, offset, "kind")
    else:
        raise FrameError(f"unknown binary frame kind {kind}")
    if offset != len(view):
        raise FrameError(
            f"binary frame has {len(view) - offset} trailing bytes"
        )
    return frame


class BinFrameDecoder(FrameBuffer):
    """Incremental binary-frame decoder, drop-in for ``FrameDecoder``.

    Same feed/pending/hwm surface as the JSON decoder so the transport's
    receive loop is codec-blind; bodies are decoded through a
    ``memoryview`` of the receive buffer without copying the frame out
    first.
    """

    def feed(self, data: bytes) -> list[dict[str, Any]]:
        """Append bytes; return every frame completed by them, in order.

        Raises:
            FrameError: On a zero-length or oversized length prefix, or
                a body the binary schema rejects.
        """
        return self._feed(data, _decode_body)


def decode_frame_bin_bytes(data: bytes) -> tuple[dict[str, Any], bytes]:
    """Synchronous single-frame decode; returns (frame, remaining bytes).

    The test-facing inverse of :func:`encode_frame_bin`.

    Raises:
        FrameError: On truncation or a malformed body.
    """
    return decode_single_frame(data, _decode_body)


# ----------------------------------------------------------------------
# Codec registry (the transport's one switch point)
# ----------------------------------------------------------------------

WireDecoder = Union[FrameDecoder, BinFrameDecoder]


def frame_encoder_for(codec: str) -> Callable[[dict[str, Any]], bytes]:
    """The per-frame encoder a sender uses for its announced codec.

    Raises:
        FrameError: On an unknown codec name.
    """
    if codec == CODEC_JSON:
        return encode_frame
    if codec == CODEC_BIN:
        return encode_frame_bin
    raise FrameError(f"unknown wire codec {codec!r}")


def frame_decoder_for(codec: str) -> WireDecoder:
    """A fresh incremental decoder for one inbound connection.

    Raises:
        FrameError: On an unknown codec name.
    """
    if codec == CODEC_JSON:
        return FrameDecoder()
    if codec == CODEC_BIN:
        return BinFrameDecoder()
    raise FrameError(f"unknown wire codec {codec!r}")
