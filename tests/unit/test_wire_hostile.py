"""Adversarial byte-stream tests for both wire codecs.

A codec's job under fire is to fail *cleanly*: torn tails stay
buffered, malformed bytes raise :class:`~repro.errors.FrameError`
(never a hang, never a silently wrong frame), and a frame cut by a
dropped connection is redelivered intact by the sender's outbox — the
mid-frame reconnect contract the transport's peek-then-pop drain
provides.  This suite drives the JSON and binary decoders with torn,
truncated, duplicated, oversized, interleaved, and random hostile
inputs, plus the zero-length-frame reject.
"""

import asyncio
import random
import struct

import pytest

from repro.errors import FrameError
from repro.live.wire import (
    MAX_FRAME,
    FrameDecoder,
    decode_frame_bytes,
    decode_payload,
    encode_frame,
    encode_payload,
    read_frame,
)
from repro.live.wire_bin import (
    BinFrameDecoder,
    decode_frame_bin_bytes,
    encode_frame_bin,
    frame_decoder_for,
)
from repro.runtime.messages import ProtoMsg, TermMoveTo, TermStateReply
from repro.types import Outcome, SiteId

PAYLOAD_FRAME = {
    "t": "payload",
    "txn": 42,
    "d": encode_payload(ProtoMsg("prepare")),
    "sid": 1_002_000_007,
    "pid": 3_001_000_001,
}
MOVE_FRAME = {
    "t": "payload",
    "txn": 9,
    "d": encode_payload(TermMoveTo(SiteId(2), "w", 1)),
}
REPLY_FRAME = {
    "t": "payload",
    "txn": 9,
    "d": encode_payload(TermStateReply("p", Outcome.UNDECIDED, 1)),
}
HB_FRAME = {"t": "hb", "site": 3}
FRAMES = [PAYLOAD_FRAME, MOVE_FRAME, REPLY_FRAME, HB_FRAME]


def read_one(data: bytes):
    """Drive the async single-frame reader over a canned byte string."""

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await read_frame(reader)

    return asyncio.run(go())


#: Every decoder entry point, by codec, as "bytes in, first frame out".
#: The framing rules and the body checks are shared, so each hostile
#: input must fail the same way whichever door it comes through.
JSON_ENTRY_POINTS = {
    "read_frame": read_one,
    "FrameDecoder.feed": lambda data: FrameDecoder().feed(data)[0],
    "decode_frame_bytes": lambda data: decode_frame_bytes(data)[0],
}
BIN_ENTRY_POINTS = {
    "BinFrameDecoder.feed": lambda data: BinFrameDecoder().feed(data)[0],
    "decode_frame_bin_bytes": lambda data: decode_frame_bin_bytes(data)[0],
}
json_entry = pytest.mark.parametrize(
    "decode", JSON_ENTRY_POINTS.values(), ids=JSON_ENTRY_POINTS.keys()
)
bin_entry = pytest.mark.parametrize(
    "decode", BIN_ENTRY_POINTS.values(), ids=BIN_ENTRY_POINTS.keys()
)


def bin_body(frame) -> bytearray:
    """The body bytes of one binary frame (length prefix stripped)."""
    return bytearray(encode_frame_bin(frame)[4:])


def reframe(body: bytes) -> bytes:
    """Wrap raw body bytes in a length prefix."""
    return struct.pack(">I", len(body)) + bytes(body)


# ----------------------------------------------------------------------
# Torn and truncated frames
# ----------------------------------------------------------------------


class TestTornFrames:
    @pytest.mark.parametrize("frame", FRAMES, ids=lambda f: f["t"])
    def test_bin_torn_at_every_boundary(self, frame):
        wire = encode_frame_bin(frame)
        for cut in range(len(wire)):
            decoder = BinFrameDecoder()
            assert decoder.feed(wire[:cut]) == []
            assert decoder.pending == cut
            assert decoder.feed(wire[cut:]) == [frame]
            assert decoder.pending == 0

    def test_json_torn_tail_stays_buffered(self):
        wire = encode_frame(PAYLOAD_FRAME)
        decoder = FrameDecoder()
        assert decoder.feed(wire[:-3]) == []
        assert decoder.pending == len(wire) - 3
        assert decoder.feed(wire[-3:]) == [PAYLOAD_FRAME]

    def test_bin_sync_decode_rejects_truncation(self):
        wire = encode_frame_bin(PAYLOAD_FRAME)
        for cut in range(4, len(wire)):
            with pytest.raises(FrameError):
                decode_frame_bin_bytes(wire[:cut])

    def test_byte_at_a_time_feed_decodes_everything(self):
        blob = b"".join(encode_frame_bin(f) for f in FRAMES)
        decoder = BinFrameDecoder()
        out = []
        for i in range(len(blob)):
            out.extend(decoder.feed(blob[i : i + 1]))
        assert out == FRAMES

    def test_hwm_tracks_worst_backlog(self):
        decoder = BinFrameDecoder()
        wire = encode_frame_bin(PAYLOAD_FRAME)
        decoder.feed(wire * 3)
        assert decoder.hwm == 3 * len(wire)
        decoder.feed(wire)
        assert decoder.hwm == 3 * len(wire)  # monotonic


# ----------------------------------------------------------------------
# Zero-length and oversized length prefixes
# ----------------------------------------------------------------------


class TestLengthPrefixHostility:
    ZERO = struct.pack(">I", 0)
    HUGE = struct.pack(">I", MAX_FRAME + 1)

    @pytest.mark.parametrize("codec", ["json", "bin"])
    def test_zero_length_frame_rejected_incrementally(self, codec):
        decoder = frame_decoder_for(codec)
        with pytest.raises(FrameError, match="zero-length"):
            decoder.feed(self.ZERO)

    def test_zero_length_frame_rejected_by_sync_decoders(self):
        with pytest.raises(FrameError, match="zero-length"):
            decode_frame_bytes(self.ZERO)
        with pytest.raises(FrameError, match="zero-length"):
            decode_frame_bin_bytes(self.ZERO)

    def test_zero_length_frame_rejected_by_stream_reader(self):
        with pytest.raises(FrameError, match="zero-length"):
            read_one(self.ZERO + b"junk")

    @pytest.mark.parametrize("codec", ["json", "bin"])
    def test_oversized_prefix_rejected_before_buffering_body(self, codec):
        # The decoder must refuse immediately — waiting for MAX_FRAME+1
        # bytes that never come is the hang this suite exists to catch.
        decoder = frame_decoder_for(codec)
        with pytest.raises(FrameError, match="MAX_FRAME"):
            decoder.feed(self.HUGE + b"x")

    def test_oversized_prefix_rejected_by_sync_decoders(self):
        with pytest.raises(FrameError, match="MAX_FRAME"):
            decode_frame_bytes(self.HUGE)
        with pytest.raises(FrameError, match="MAX_FRAME"):
            decode_frame_bin_bytes(self.HUGE)


# ----------------------------------------------------------------------
# Interleaved codecs on one connection
# ----------------------------------------------------------------------


class TestInterleavedCodecs:
    def test_json_frame_on_binary_decoder_errors_cleanly(self):
        # '{' is 0x7b — no such binary frame kind.
        with pytest.raises(FrameError):
            BinFrameDecoder().feed(encode_frame(PAYLOAD_FRAME))

    def test_binary_frame_on_json_decoder_errors_cleanly(self):
        with pytest.raises(FrameError):
            FrameDecoder().feed(encode_frame_bin(PAYLOAD_FRAME))

    def test_codec_switch_mid_stream_is_an_error_not_corruption(self):
        # A peer must never change codec after its hello.  The valid
        # prefix decodes; the foreign frame raises instead of yielding
        # a wrong dict.
        decoder = BinFrameDecoder()
        assert decoder.feed(encode_frame_bin(MOVE_FRAME)) == [MOVE_FRAME]
        with pytest.raises(FrameError):
            decoder.feed(encode_frame(MOVE_FRAME))

    def test_json_decoder_recovers_nothing_from_mixed_blob(self):
        blob = encode_frame_bin(HB_FRAME) + encode_frame(HB_FRAME)
        with pytest.raises(FrameError):
            FrameDecoder().feed(blob)


# ----------------------------------------------------------------------
# Mid-frame reconnect redelivery
# ----------------------------------------------------------------------


class TestReconnectRedelivery:
    def test_partial_frame_never_surfaces_and_redelivery_decodes(self):
        # Transport contract: frames leave the sender's outbox only
        # after their bytes drained, so a connection cut mid-frame
        # redelivers the whole frame on a *fresh* connection (and a
        # fresh decoder).  The cut connection's decoder must have
        # emitted nothing for the torn tail.
        wire = encode_frame_bin(PAYLOAD_FRAME)
        dying = BinFrameDecoder()
        assert dying.feed(wire[: len(wire) // 2]) == []
        assert dying.pending > 0  # torn tail buffered, never surfaced

        fresh = BinFrameDecoder()
        assert fresh.feed(wire) == [PAYLOAD_FRAME]

    def test_duplicated_redelivery_is_two_identical_frames(self):
        # Peek-then-pop can legitimately re-send a frame whose bytes
        # drained right as the connection died; dedup is the protocol
        # layer's job (engines tolerate duplicate messages), the codec
        # must just decode both copies identically.
        wire = encode_frame_bin(MOVE_FRAME)
        decoder = BinFrameDecoder()
        assert decoder.feed(wire + wire) == [MOVE_FRAME, MOVE_FRAME]

    def test_redelivery_after_torn_tail_on_same_decoder_is_rejected(self):
        # If a buggy sender re-sends on the SAME connection after a
        # torn frame, the decoder sees garbage mid-frame — that must be
        # an error, not a resynchronization guess.
        wire = encode_frame_bin(REPLY_FRAME)
        decoder = BinFrameDecoder()
        decoder.feed(wire[:-2])
        with pytest.raises(FrameError):
            decoder.feed(wire)


# ----------------------------------------------------------------------
# Hostile bodies
# ----------------------------------------------------------------------


@bin_entry
class TestHostileBodies:
    def test_unknown_frame_kind(self, decode):
        with pytest.raises(FrameError, match="kind"):
            decode(reframe(b"\x09\x00"))

    def test_unknown_flag_bits(self, decode):
        body = bin_body(HB_FRAME)
        body[1] |= 0x40
        with pytest.raises(FrameError, match="flag"):
            decode(reframe(body))

    def test_unknown_payload_tag(self, decode):
        body = bin_body(MOVE_FRAME)
        body[10] = 0x63  # tag byte sits after kind+flags+txn(u64)
        with pytest.raises(FrameError, match="payload tag"):
            decode(reframe(body))

    def test_unknown_interned_token(self, decode):
        body = bin_body({"t": "payload", "txn": 1, "d": encode_payload(ProtoMsg("xact"))})
        body[-1] = 0xEE
        with pytest.raises(FrameError, match="token"):
            decode(reframe(body))

    def test_bad_outcome_byte(self, decode):
        frame = {"t": "payload", "txn": 1, "d": encode_payload(TermStateReply("w", Outcome.ABORT, 0))}
        body = bin_body(frame)
        body[11] = 0x7F  # outcome byte right after the payload tag
        with pytest.raises(FrameError, match="outcome"):
            decode(reframe(body))

    def test_stray_high_bit_on_decision_outcome(self, decode):
        from repro.runtime.messages import TermDecision

        frame = {"t": "payload", "txn": 1, "d": encode_payload(TermDecision(Outcome.COMMIT, 0))}
        body = bin_body(frame)
        body[11] |= 0x80  # in_doubt bit is outcome-reply-only
        with pytest.raises(FrameError, match="high bit"):
            decode(reframe(body))

    def test_invalid_utf8_in_literal_string(self, decode):
        body = bytearray((2, 0))  # payload frame, no header ints
        body.append(1)  # proto tag
        body.append(0)  # literal string escape
        body += struct.pack(">H", 2) + b"\xff\xfe"
        with pytest.raises(FrameError, match="UTF-8"):
            decode(reframe(body))

    def test_trailing_garbage_rejected(self, decode):
        body = bin_body(HB_FRAME) + b"\x00"
        with pytest.raises(FrameError, match="trailing"):
            decode(reframe(body))

    def test_truncated_header_int(self, decode):
        body = bytearray((2, 0x01))  # payload frame claiming a txn...
        body += b"\x00\x00"  # ...but only two bytes of it
        with pytest.raises(FrameError, match="truncated"):
            decode(reframe(body))

    def test_empty_payload_record(self, decode):
        with pytest.raises(FrameError, match="payload"):
            decode(reframe(b"\x02\x00"))

    def test_valid_frame_decodes_through_every_entry_point(self, decode):
        assert decode(encode_frame_bin(REPLY_FRAME)) == REPLY_FRAME


@json_entry
class TestHostileJsonBodies:
    """Bodies behind a plausible prefix that are not a JSON object."""

    @pytest.mark.parametrize(
        "body",
        [
            b"{nope",  # not JSON
            b"\xff\xfe",  # not UTF-8
            b"[1, 2, 3]",  # JSON, but not an object
            b"7",
            b"[" * 100_000,  # nests deeper than the parser's stack
        ],
        ids=["garbage", "bad-utf8", "array", "scalar", "deep-nesting"],
    )
    def test_only_frame_error_escapes(self, decode, body):
        with pytest.raises(FrameError):
            decode(reframe(body))

    def test_valid_frame_decodes_through_every_entry_point(self, decode):
        assert decode(encode_frame(REPLY_FRAME)) == REPLY_FRAME


# ----------------------------------------------------------------------
# Hostile payload dicts: peer input, whichever codec carried it
# ----------------------------------------------------------------------

#: Field values the schema kinds do not admit.  The JSON decoder used
#: to coerce these (``int("7")``, ``int(True)``, ``int(7.9)``,
#: ``str(7)``) while the binary encoder refused the same dicts.
COERCED_PAYLOADS = [
    {"p": "term-ack", "round": "7"},
    {"p": "term-ack", "round": True},
    {"p": "term-ack", "round": 7.9},
    {"p": "term-ack", "round": -1},
    {"p": "term-ack", "round": 2**32},
    {"p": "term-ack", "round": None},
    {"p": "proto", "kind": 7},
    {"p": "proto", "kind": None},
    {"p": "proto", "kind": ["xact"]},
    {"p": "proto", "kind": "\ud800"},  # a lone surrogate: not UTF-8
    {"p": "proto", "kind": "x" * 0x10000},  # past the u16 length
    {"p": "term-move-to", "backup": "2", "round": 1, "state": "w"},
    {"p": "term-move-to", "backup": 2, "round": 1, "state": 3},
    {"p": "term-decision", "outcome": 1, "round": 1},
    {"p": "term-decision", "outcome": ["commit"], "round": 1},
    {"p": "term-decision", "outcome": "COMMIT", "round": 1},
    {"p": "outcome-reply", "outcome": "commit", "in_doubt": 1},
    {"p": "outcome-reply", "outcome": "commit", "in_doubt": "yes"},
]


class TestHostilePayloadDicts:
    @pytest.mark.parametrize("data", COERCED_PAYLOADS, ids=repr)
    def test_both_codecs_refuse_an_ill_typed_field(self, data):
        with pytest.raises(FrameError):
            decode_payload(data)
        with pytest.raises(FrameError):
            encode_frame_bin({"t": "payload", "txn": 1, "d": data})

    @pytest.mark.parametrize(
        "data", [7, None, "proto", ["p", "proto"], {"p": ["proto"]}, {"p": 1}, {}]
    )
    def test_both_codecs_refuse_a_malformed_payload_body(self, data):
        with pytest.raises(FrameError):
            decode_payload(data)
        with pytest.raises(FrameError):
            encode_frame_bin({"t": "payload", "txn": 1, "d": data})

    def test_ill_typed_field_survives_the_json_frame_layer_then_fails(self):
        # The JSON frame layer carries any object; the payload decoder
        # is where a hostile peer's field is stopped.
        frame = {"t": "payload", "txn": 1, "d": {"p": "term-ack", "round": "7"}}
        (decoded,) = FrameDecoder().feed(encode_frame(frame))
        with pytest.raises(FrameError, match="round"):
            decode_payload(decoded["d"])


# ----------------------------------------------------------------------
# Seeded random fuzz: clean errors or clean frames, nothing else
# ----------------------------------------------------------------------


class TestRandomFuzz:
    @pytest.mark.parametrize("codec", ["json", "bin"])
    def test_random_streams_never_hang_or_leak_exceptions(self, codec):
        for seed in range(200):
            rng = random.Random(seed)
            blob = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 120)))
            decoder = frame_decoder_for(codec)
            try:
                while blob:
                    cut = rng.randrange(1, len(blob) + 1)
                    for frame in decoder.feed(blob[:cut]):
                        assert isinstance(frame, dict)
                    blob = blob[cut:]
            except FrameError:
                continue  # the only acceptable failure mode

    def test_random_bodies_with_valid_prefix(self):
        # Force the length prefix to be plausible so the fuzz actually
        # exercises body parsing rather than dying on the prefix.
        for seed in range(300):
            rng = random.Random(10_000 + seed)
            body = bytes(rng.randrange(256) for _ in range(rng.randrange(1, 40)))
            try:
                frame, rest = decode_frame_bin_bytes(reframe(body))
            except FrameError:
                continue
            assert rest == b""
            assert frame["t"] in ("hb", "payload", "external")

    def test_bitflip_fuzz_on_valid_frames(self):
        # Every single-bit corruption of a valid frame either still
        # decodes to a dict (length/ints can absorb flips) or raises
        # FrameError — never any other exception, never a hang.
        for frame in FRAMES:
            wire = bytearray(encode_frame_bin(frame))
            for bit in range(len(wire) * 8):
                mutated = bytearray(wire)
                mutated[bit // 8] ^= 1 << (bit % 8)
                decoder = BinFrameDecoder()
                try:
                    for decoded in decoder.feed(bytes(mutated)):
                        assert isinstance(decoded, dict)
                except FrameError:
                    pass
