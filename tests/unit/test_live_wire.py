"""Wire-format round-trips and rejection paths (`repro.live.wire`)."""

from __future__ import annotations

import asyncio
import json
import struct
from pathlib import Path

import pytest

from repro.errors import FrameError
from repro.live import wire
from repro.live.wire import (
    MAX_FRAME,
    FrameDecoder,
    decode_frame_bytes,
    decode_payload,
    encode_frame,
    encode_payload,
    read_frame,
    stamp_trace_context,
    trace_context,
)
from repro.live.wire_bin import (
    INTERNED,
    BinFrameDecoder,
    decode_frame_bin_bytes,
    encode_frame_bin,
)
from repro.runtime import messages
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


def _read(data: bytes):
    """Run read_frame against an in-memory stream fed with `data` + EOF."""

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_frame(reader)

    return asyncio.run(go())


class TestFrameLayer:
    def test_round_trip(self):
        frame = {"t": "begin", "txn": 7, "wait": True}
        obj, rest = decode_frame_bytes(encode_frame(frame))
        assert obj == frame
        assert rest == b""

    def test_deterministic_encoding(self):
        a = encode_frame({"b": 1, "a": 2})
        b = encode_frame({"a": 2, "b": 1})
        assert a == b  # sorted keys

    def test_two_frames_concatenated(self):
        data = encode_frame({"t": "hb"}) + encode_frame({"t": "hello", "site": 2})
        first, rest = decode_frame_bytes(data)
        second, rest = decode_frame_bytes(rest)
        assert first == {"t": "hb"}
        assert second == {"t": "hello", "site": 2}
        assert rest == b""

    def test_oversized_frame_rejected_on_encode(self):
        with pytest.raises(FrameError):
            encode_frame({"blob": "x" * (MAX_FRAME + 1)})

    def test_oversized_length_prefix_rejected_on_decode(self):
        data = struct.pack(">I", MAX_FRAME + 1) + b"{}"
        with pytest.raises(FrameError):
            decode_frame_bytes(data)

    def test_zero_length_frame_rejected_on_decode(self):
        # A frame body is always at least "{}" — a zero-length prefix
        # is corruption, and must say so rather than surface a JSON
        # parse error (or, worse, an empty frame).
        with pytest.raises(FrameError, match="zero-length"):
            decode_frame_bytes(struct.pack(">I", 0) + b"{}")

    def test_zero_length_frame_rejected_by_read_frame(self):
        with pytest.raises(FrameError, match="zero-length"):
            _read(struct.pack(">I", 0))

    def test_truncated_frame_rejected(self):
        data = encode_frame({"t": "hb"})[:-1]
        with pytest.raises(FrameError):
            decode_frame_bytes(data)

    def test_non_object_body_rejected(self):
        body = json.dumps([1, 2, 3]).encode()
        data = struct.pack(">I", len(body)) + body
        with pytest.raises(FrameError):
            decode_frame_bytes(data)

    def test_read_frame_clean_eof_returns_none(self):
        assert _read(b"") is None

    def test_read_frame_round_trip(self):
        assert _read(encode_frame({"t": "status", "txn": 1})) == {
            "t": "status",
            "txn": 1,
        }

    def test_read_frame_torn_prefix(self):
        with pytest.raises(FrameError):
            _read(b"\x00\x00")

    def test_read_frame_torn_body(self):
        with pytest.raises(FrameError):
            _read(encode_frame({"t": "hb"})[:-2])

    def test_read_frame_garbage_json(self):
        data = struct.pack(">I", 4) + b"}{}{"
        with pytest.raises(FrameError):
            _read(data)


class TestFrameDecoder:
    """The receive-side complement of sender coalescing."""

    def test_coalesced_batch_splits_in_order(self):
        frames = [{"t": "payload", "txn": n} for n in range(5)]
        data = b"".join(encode_frame(f) for f in frames)
        decoder = FrameDecoder()
        assert decoder.feed(data) == frames
        assert decoder.pending == 0

    def test_byte_by_byte_delivery(self):
        frame = {"t": "hello", "site": 3}
        data = encode_frame(frame)
        decoder = FrameDecoder()
        for byte in data[:-1]:
            assert decoder.feed(bytes([byte])) == []
        assert decoder.feed(data[-1:]) == [frame]

    def test_partial_frame_stays_pending_across_feeds(self):
        first, second = {"t": "hb"}, {"t": "begin", "txn": 9}
        data = encode_frame(first) + encode_frame(second)
        split = len(encode_frame(first)) + 3  # mid-second-frame
        decoder = FrameDecoder()
        assert decoder.feed(data[:split]) == [first]
        assert decoder.pending == 3
        assert decoder.feed(data[split:]) == [second]
        assert decoder.pending == 0

    def test_oversized_length_prefix_rejected(self):
        decoder = FrameDecoder()
        with pytest.raises(FrameError):
            decoder.feed(struct.pack(">I", MAX_FRAME + 1) + b"{}")

    def test_zero_length_frame_rejected(self):
        decoder = FrameDecoder()
        with pytest.raises(FrameError, match="zero-length"):
            decoder.feed(struct.pack(">I", 0))

    def test_garbage_json_rejected(self):
        decoder = FrameDecoder()
        with pytest.raises(FrameError):
            decoder.feed(struct.pack(">I", 4) + b"}{}{")

    def test_non_object_body_rejected(self):
        body = json.dumps([1]).encode()
        decoder = FrameDecoder()
        with pytest.raises(FrameError):
            decoder.feed(struct.pack(">I", len(body)) + body)

    def test_hwm_tracks_largest_backlog(self):
        frame = {"t": "payload", "txn": 1, "d": {"p": "proto", "kind": "x"}}
        data = encode_frame(frame)
        decoder = FrameDecoder()
        assert decoder.hwm == 0
        decoder.feed(data[:7])
        assert decoder.hwm == 7  # partial frame buffered
        decoder.feed(data[7:])
        assert decoder.hwm == len(data)  # peak, even though drained
        assert decoder.pending == 0
        decoder.feed(data[:2])
        assert decoder.hwm == len(data)  # monotonic: never shrinks

    def test_hwm_counts_coalesced_batch(self):
        frames = [{"t": "hb", "n": i} for i in range(4)]
        data = b"".join(encode_frame(f) for f in frames)
        decoder = FrameDecoder()
        decoder.feed(data)
        assert decoder.hwm == len(data)


PAYLOADS = [
    ProtoMsg("prepare"),
    ProtoMsg("ro"),  # the read-only one-phase exit's phase-1 reply
    TermMoveTo(SiteId(2), "p", 3),
    TermAck(3),
    TermDecision(Outcome.COMMIT, 1),
    TermBlocked(2),
    TermStateQuery(SiteId(3), 4),
    TermStateReply("w", Outcome.UNDECIDED, 4),
    OutcomeQuery(),
    OutcomeReply(Outcome.ABORT, recovered_in_doubt=True),
]


class TestPayloadCodec:
    @pytest.mark.parametrize("payload", PAYLOADS, ids=lambda p: type(p).__name__)
    def test_round_trip(self, payload):
        assert decode_payload(encode_payload(payload)) == payload

    @pytest.mark.parametrize("payload", PAYLOADS, ids=lambda p: type(p).__name__)
    def test_json_safe(self, payload):
        # The encoded dict must survive a JSON round-trip unchanged.
        encoded = encode_payload(payload)
        assert json.loads(json.dumps(encoded)) == encoded

    def test_unknown_type_rejected(self):
        with pytest.raises(FrameError):
            encode_payload(object())  # type: ignore[arg-type]

    def test_unknown_tag_rejected(self):
        with pytest.raises(FrameError):
            decode_payload({"p": "no-such-tag"})

    def test_missing_field_rejected(self):
        with pytest.raises(FrameError):
            decode_payload({"p": "term-move-to", "backup": 1})

    def test_bad_outcome_rejected(self):
        with pytest.raises(FrameError):
            decode_payload({"p": "term-decision", "outcome": "maybe", "round": 1})

    def test_outcome_reply_in_doubt_defaults_false(self):
        decoded = decode_payload({"p": "outcome-reply", "outcome": "commit"})
        assert decoded == OutcomeReply(Outcome.COMMIT, recovered_in_doubt=False)


def _stamped(payload):
    """A fully stamped peer frame: txn, sid, pid and dst_boot all set."""
    frame = stamp_trace_context(
        {"t": "payload", "txn": 0x0102030405060708, "d": encode_payload(payload)},
        1_002_000_007,
        3_001_000_001,
    )
    frame["dst_boot"] = 5
    return frame


_STAMP_JSON = (
    ',"dst_boot":5,"pid":3001000001,"sid":1002000007,'
    '"t":"payload","txn":72623859790382856}'
)
_STAMP_BIN = (
    "020f" "0102030405060708" "000000003bb94e87" "00000000b2dfa041"
    "0000000000000005"
)

#: (frame, JSON body, binary frame hex) recorded from the encoders as
#: they stood before the codecs were derived from one table.  Payload
#: rows are in binary-tag order (1..9).
GOLDEN = [
    (
        _stamped(ProtoMsg("prepare")),
        '{"d":{"kind":"prepare","p":"proto"}' + _STAMP_JSON,
        "00000024" + _STAMP_BIN + "010b",
    ),
    (
        _stamped(TermMoveTo(SiteId(2), "p", 3)),
        '{"d":{"backup":2,"p":"term-move-to","round":3,"state":"p"}' + _STAMP_JSON,
        "0000002c" + _STAMP_BIN + "02" "00000002" "00000003" "03",
    ),
    (
        _stamped(TermAck(3)),
        '{"d":{"p":"term-ack","round":3}' + _STAMP_JSON,
        "00000027" + _STAMP_BIN + "03" "00000003",
    ),
    (
        _stamped(TermDecision(Outcome.COMMIT, 1)),
        '{"d":{"outcome":"commit","p":"term-decision","round":1}' + _STAMP_JSON,
        "00000028" + _STAMP_BIN + "04" "01" "00000001",
    ),
    (
        _stamped(TermBlocked(2)),
        '{"d":{"p":"term-blocked","round":2}' + _STAMP_JSON,
        "00000027" + _STAMP_BIN + "05" "00000002",
    ),
    (
        _stamped(TermStateQuery(SiteId(3), 4)),
        '{"d":{"backup":3,"p":"term-state-query","round":4}' + _STAMP_JSON,
        "0000002b" + _STAMP_BIN + "06" "00000003" "00000004",
    ),
    (
        _stamped(TermStateReply("w", Outcome.UNDECIDED, 4)),
        '{"d":{"outcome":"undecided","p":"term-state-reply","round":4,"state":"w"}'
        + _STAMP_JSON,
        "00000029" + _STAMP_BIN + "07" "03" "00000004" "02",
    ),
    (
        _stamped(OutcomeQuery()),
        '{"d":{"p":"outcome-query"}' + _STAMP_JSON,
        "00000023" + _STAMP_BIN + "08",
    ),
    (
        _stamped(OutcomeReply(Outcome.ABORT, recovered_in_doubt=True)),
        '{"d":{"in_doubt":true,"outcome":"abort","p":"outcome-reply"}' + _STAMP_JSON,
        "00000024" + _STAMP_BIN + "09" "82",
    ),
    ({"t": "hb", "site": 3}, '{"site":3,"t":"hb"}', "00000006" "0100" "00000003"),
    (
        stamp_trace_context({"t": "external", "txn": 7, "kind": "request"}, 9),
        '{"kind":"request","sid":9,"t":"external","txn":7}',
        "00000013" "0303" "0000000000000007" "0000000000000009" "06",
    ),
    (
        # A name outside INTERNED takes the literal escape: 0, u16 length, UTF-8.
        {"t": "external", "txn": 7, "kind": "zap!"},
        '{"kind":"zap!","t":"external","txn":7}',
        "00000011" "0301" "0000000000000007" "00" "0004" "7a617021",
    ),
]


def _golden_id(case):
    frame = case[0]
    return frame["d"]["p"] if frame["t"] == "payload" else frame["t"]


class TestGoldenWireBytes:
    """The layout itself, pinned byte for byte.

    Every other wire test is a round trip or a cross-codec equivalence,
    which a change that moves a tag, a field or an ``INTERNED`` token in
    encoder and decoder alike would pass.
    """

    @pytest.mark.parametrize("case", GOLDEN, ids=_golden_id)
    def test_json_bytes(self, case):
        frame, body, _ = case
        golden = struct.pack(">I", len(body)) + body.encode("ascii")
        assert encode_frame(frame) == golden
        assert decode_frame_bytes(golden) == (frame, b"")
        assert FrameDecoder().feed(golden) == [frame]
        assert _read(golden) == frame

    @pytest.mark.parametrize("case", GOLDEN, ids=_golden_id)
    def test_bin_bytes(self, case):
        frame, _, hexed = case
        golden = bytes.fromhex(hexed)
        assert encode_frame_bin(frame) == golden
        assert decode_frame_bin_bytes(golden) == (frame, b"")
        assert BinFrameDecoder().feed(golden) == [frame]

    def test_interned_tokens_are_pinned(self):
        # Tokens are positions: INTERNED only ever grows at the end.
        assert INTERNED == (
            "q", "w", "p", "a", "c", "request", "xact", "yes", "no", "ack",
            "prepare", "commit", "abort", "ro", "r",
        )

    def test_every_message_dataclass_has_exactly_one_row(self):
        declared = {
            cls
            for cls in vars(messages).values()
            if isinstance(cls, type) and cls.__module__ == messages.__name__
        }
        rows = [cls for _, cls, _ in wire.PAYLOADS]
        assert len(rows) == len(set(rows)) == 9
        assert set(rows) == declared
        tags = [tag for tag, _, _ in wire.PAYLOADS]
        assert len(set(tags)) == len(tags)

    def test_binary_tags_are_row_positions(self):
        # Row position + 1 is the binary tag: dense 1..9, in GOLDEN order.
        record_tag_at = 4 + len(bytes.fromhex(_STAMP_BIN))
        for position, (row, case) in enumerate(zip(wire.PAYLOADS, GOLDEN), start=1):
            tag, cls, _ = row
            frame, _, hexed = case
            assert frame["d"]["p"] == tag
            assert type(decode_payload(frame["d"])) is cls
            assert bytes.fromhex(hexed)[record_tag_at] == position

    def test_a_flag_rides_the_outcome_byte_before_it(self):
        # The binary layout packs a flag into the high bit of the
        # preceding outcome byte; a row that breaks the pairing would
        # corrupt whatever field came before.
        for tag, _, fields in wire.PAYLOADS:
            kinds = [kind for _, _, kind in fields]
            for index, kind in enumerate(kinds):
                assert kind in ("u32", "str", "outcome", "flag"), tag
                if kind == "flag":
                    assert index > 0 and kinds[index - 1] == "outcome", tag


class TestSchemaDocs:
    def test_live_md_carries_the_table_rendered_from_payloads(self):
        # docs/LIVE.md documents the layout per tag; render the same
        # table from PAYLOADS so the doc cannot rot.
        rows = [
            "| tag | JSON `p` | dataclass | fields, in binary order |",
            "| --- | --- | --- | --- |",
        ]
        for tag, (name, cls, fields) in enumerate(wire.PAYLOADS, start=1):
            shown = ", ".join(f"`{key}` {kind}" for key, _, kind in fields)
            rows.append(f"| {tag} | `{name}` | `{cls.__name__}` | {shown or '—'} |")
        doc = Path(__file__).parents[2] / "docs" / "LIVE.md"
        assert "\n".join(rows) in doc.read_text(encoding="utf-8")


class TestTraceContext:
    """Span context stamped into frames and recovered on the far side."""

    def test_round_trip_through_codec(self):
        frame = stamp_trace_context(
            {"t": "payload", "txn": 7, "d": encode_payload(ProtoMsg("prepare"))},
            span_id=1_000_000_042,
            parent=2_000_000_007,
        )
        decoded, rest = decode_frame_bytes(encode_frame(frame))
        assert rest == b""
        assert trace_context(decoded) == (1_000_000_042, 2_000_000_007)
        assert decode_payload(decoded["d"]) == ProtoMsg("prepare")

    def test_root_span_omits_parent_key(self):
        frame = stamp_trace_context({"t": "external", "txn": 1, "kind": "x"}, 9)
        assert "pid" not in frame
        decoded, _ = decode_frame_bytes(encode_frame(frame))
        assert trace_context(decoded) == (9, None)

    def test_unstamped_frame_has_no_context(self):
        assert trace_context({"t": "hb"}) == (None, None)

    def test_context_survives_reconnect_redelivery(self):
        # The transport's peek-then-pop outbox re-sends a frame whose
        # connection died mid-write.  The torn half buffers in the old
        # connection's decoder (discarded with it); the fresh
        # connection re-delivers the whole frame, trace context intact.
        frame = stamp_trace_context(
            {"t": "payload", "txn": 3, "d": encode_payload(ProtoMsg("commit"))},
            span_id=5_000_000_001,
            parent=5_000_000_000,
        )
        data = encode_frame(frame)
        torn = FrameDecoder()
        assert torn.feed(data[: len(data) // 2]) == []  # connection dies here
        fresh = FrameDecoder()
        (redelivered,) = fresh.feed(data)
        assert trace_context(redelivered) == (5_000_000_001, 5_000_000_000)

    def test_context_survives_split_across_coalesced_feeds(self):
        frames = [
            stamp_trace_context(
                {"t": "payload", "txn": n, "d": encode_payload(ProtoMsg("ack"))},
                span_id=100 + n,
            )
            for n in range(3)
        ]
        data = b"".join(encode_frame(f) for f in frames)
        decoder = FrameDecoder()
        out = decoder.feed(data[:-4]) + decoder.feed(data[-4:])
        assert [trace_context(f)[0] for f in out] == [100, 101, 102]
