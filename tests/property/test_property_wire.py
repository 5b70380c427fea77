"""Differential property tests of the two wire codecs.

The binary codec's contract is not "roughly the same frames" — it is
dict-identical decode output for every frame the JSON codec carries on
peer links.  Hypothesis generates every runtime payload dataclass
(interned vocabulary and arbitrary unicode alike), trace-context
stamping, incarnation fencing, and adversarial chunk splits, and pins

    decode_bin(encode_bin(f)) == decode_json(encode_json(f)) == f

plus the negative space: control frames are never stamped, and the
binary codec refuses frames outside the peer-link schema instead of
guessing.
"""

import json

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import FrameError
from repro.live.wire import (
    PAYLOADS,
    FrameDecoder,
    decode_frame_bytes,
    decode_payload,
    encode_frame,
    encode_payload,
    stamp_trace_context,
    trace_context,
)
from repro.live.wire_bin import (
    INTERNED,
    BinFrameDecoder,
    decode_frame_bin_bytes,
    encode_frame_bin,
)
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

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------

# Protocol vocabulary plus arbitrary unicode: the interned fast path
# and the literal escape hatch must be indistinguishable to callers.
names = st.one_of(
    st.sampled_from(INTERNED),
    st.text(min_size=0, max_size=24),
)
rounds = st.integers(min_value=0, max_value=2**32 - 1)
site_ids = st.integers(min_value=1, max_value=2**31).map(SiteId)
outcomes = st.sampled_from(list(Outcome))
txns = st.integers(min_value=0, max_value=2**64 - 1)
span_ids = st.integers(min_value=0, max_value=2**64 - 1)

payloads = st.one_of(
    st.builds(ProtoMsg, kind=names),
    st.builds(TermMoveTo, backup=site_ids, state=names, round_no=rounds),
    st.builds(TermAck, round_no=rounds),
    st.builds(TermDecision, outcome=outcomes, round_no=rounds),
    st.builds(TermBlocked, round_no=rounds),
    st.builds(TermStateQuery, backup=site_ids, round_no=rounds),
    st.builds(TermStateReply, state=names, outcome=outcomes, round_no=rounds),
    st.builds(OutcomeQuery),
    st.builds(OutcomeReply, outcome=outcomes, recovered_in_doubt=st.booleans()),
)


@st.composite
def payload_frames(draw):
    """A peer-link payload frame as LiveSite builds them."""
    frame = {
        "t": "payload",
        "txn": draw(txns),
        "d": encode_payload(draw(payloads)),
    }
    if draw(st.booleans()):
        stamp_trace_context(
            frame,
            draw(span_ids),
            draw(st.one_of(st.none(), span_ids)),
        )
    if draw(st.booleans()):
        frame["dst_boot"] = draw(st.integers(min_value=0, max_value=2**32))
    return frame


@st.composite
def external_frames(draw):
    frame = {"t": "external", "txn": draw(txns), "kind": draw(names)}
    if draw(st.booleans()):
        stamp_trace_context(frame, draw(span_ids))
    return frame


hb_frames = st.builds(lambda site: {"t": "hb", "site": site}, site_ids.map(int))

peer_frames = st.one_of(payload_frames(), external_frames(), hb_frames)


def json_roundtrip(frame):
    decoded, rest = decode_frame_bytes(encode_frame(frame))
    assert rest == b""
    return decoded


def bin_roundtrip(frame):
    decoded, rest = decode_frame_bin_bytes(encode_frame_bin(frame))
    assert rest == b""
    return decoded


# ----------------------------------------------------------------------
# Payload dataclass round trips
# ----------------------------------------------------------------------


class TestPayloadRoundTrip:
    @given(payload=payloads)
    @settings(max_examples=200, deadline=None)
    def test_json_roundtrip_identity(self, payload):
        wire = json.loads(json.dumps(encode_payload(payload)))
        assert decode_payload(wire) == payload

    @given(payload=payloads, txn=txns)
    @settings(max_examples=200, deadline=None)
    def test_bin_roundtrip_identity(self, payload, txn):
        frame = {"t": "payload", "txn": txn, "d": encode_payload(payload)}
        assert decode_payload(bin_roundtrip(frame)["d"]) == payload

    @given(payload=payloads, txn=txns)
    @settings(max_examples=200, deadline=None)
    def test_cross_codec_differential(self, payload, txn):
        frame = {"t": "payload", "txn": txn, "d": encode_payload(payload)}
        assert bin_roundtrip(frame) == json_roundtrip(frame) == frame

    @given(payload=payloads)
    @settings(max_examples=100, deadline=None)
    def test_bin_encoding_is_deterministic(self, payload):
        frame = {"t": "payload", "txn": 7, "d": encode_payload(payload)}
        assert encode_frame_bin(frame) == encode_frame_bin(frame)

    @given(kind=st.sampled_from(INTERNED), txn=st.integers(0, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_bin_is_smaller_for_protocol_traffic(self, kind, txn):
        # The whole point: interned protocol messages pack far below
        # their sorted-key JSON form.
        frame = {"t": "payload", "txn": txn, "d": encode_payload(ProtoMsg(kind))}
        assert len(encode_frame_bin(frame)) < len(encode_frame(frame))


# ----------------------------------------------------------------------
# One schema: what one codec accepts, the other accepts
# ----------------------------------------------------------------------

#: Values some kind admits, and values no kind does.
_VALID = {
    "u32": rounds,
    "str": names,
    "outcome": outcomes.map(lambda outcome: outcome.value),
    "flag": st.booleans(),
}
_WILD = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**33), max_value=2**33),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
    st.lists(st.integers(0, 9), max_size=2),
)


@st.composite
def payload_dicts(draw):
    """A payload dict with the right keys and anything for values."""
    tag, _, fields = draw(st.sampled_from(PAYLOADS))
    data = {"p": tag}
    for key, _, kind in fields:
        data[key] = draw(st.one_of(_VALID[kind], _WILD))
    return data


def _accepted(decode):
    try:
        return decode()
    except FrameError:
        return None


class TestOneSchema:
    @given(data=payload_dicts(), txn=txns)
    @settings(max_examples=400, deadline=None)
    def test_a_dict_one_codec_accepts_the_other_accepts(self, data, txn):
        frame = {"t": "payload", "txn": txn, "d": data}
        via_json = _accepted(lambda: decode_payload(json_roundtrip(frame)["d"]))
        via_bin = _accepted(lambda: decode_payload(bin_roundtrip(frame)["d"]))
        assert via_json == via_bin


# ----------------------------------------------------------------------
# Full-frame differential equivalence
# ----------------------------------------------------------------------


class TestFrameDifferential:
    @given(frame=peer_frames)
    @settings(max_examples=300, deadline=None)
    def test_any_peer_frame_cross_codec(self, frame):
        assert bin_roundtrip(frame) == json_roundtrip(frame) == frame

    @given(frame=payload_frames(), sid=span_ids, pid=span_ids)
    @settings(max_examples=150, deadline=None)
    def test_trace_context_survives_both_codecs(self, frame, sid, pid):
        stamp_trace_context(frame, sid, pid)
        assert trace_context(bin_roundtrip(frame)) == (sid, pid)
        assert trace_context(json_roundtrip(frame)) == (sid, pid)

    @given(frame=payload_frames(), sid=span_ids)
    @settings(max_examples=100, deadline=None)
    def test_rootless_parent_stays_off_the_wire(self, frame, sid):
        frame.pop("sid", None)
        frame.pop("pid", None)
        stamp_trace_context(frame, sid, None)
        for decoded in (bin_roundtrip(frame), json_roundtrip(frame)):
            assert decoded["sid"] == sid
            assert "pid" not in decoded

    @given(frame=external_frames(), boot=st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_incarnation_fence_survives_both_codecs(self, frame, boot):
        fenced = {**frame, "dst_boot": boot}
        assert bin_roundtrip(fenced) == json_roundtrip(fenced) == fenced

    @given(frames=st.lists(peer_frames, min_size=1, max_size=8), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_bin_decoder_reassembles_any_chunking(self, frames, data):
        blob = b"".join(encode_frame_bin(f) for f in frames)
        decoder = BinFrameDecoder()
        decoded = []
        while blob:
            cut = data.draw(st.integers(1, len(blob)), label="chunk")
            decoded.extend(decoder.feed(blob[:cut]))
            blob = blob[cut:]
        assert decoded == frames
        assert decoder.pending == 0

    @given(frames=st.lists(peer_frames, min_size=1, max_size=8), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_json_decoder_reassembles_any_chunking(self, frames, data):
        blob = b"".join(encode_frame(f) for f in frames)
        decoder = FrameDecoder()
        decoded = []
        while blob:
            cut = data.draw(st.integers(1, len(blob)), label="chunk")
            decoded.extend(decoder.feed(blob[:cut]))
            blob = blob[cut:]
        assert decoded == frames
        assert decoder.pending == 0


# ----------------------------------------------------------------------
# Negative space: what the binary codec must refuse
# ----------------------------------------------------------------------


class TestBinaryCodecRefusals:
    @given(site=site_ids.map(int), sid=span_ids)
    @settings(max_examples=50, deadline=None)
    def test_stamped_heartbeat_is_rejected(self, site, sid):
        # Control frames are never stamped; the binary schema makes
        # that structural instead of conventional.
        hb = stamp_trace_context({"t": "hb", "site": site}, sid)
        with pytest.raises(FrameError):
            encode_frame_bin(hb)

    @given(
        frame=st.sampled_from(
            [
                {"t": "hello", "site": 1, "boot": 1, "codec": "bin"},
                {"t": "begin", "txn": 1},
                {"t": "status", "txn": 1},
                {"t": "decided", "txn": 1, "outcome": "commit"},
                {"t": "ok"},
                {"t": "shutdown"},
            ]
        )
    )
    @settings(max_examples=20, deadline=None)
    def test_handshake_and_client_frames_are_json_only(self, frame):
        with pytest.raises(FrameError):
            encode_frame_bin(frame)

    @given(frame=payload_frames(), extra=st.text(min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_unknown_keys_are_rejected_not_dropped(self, frame, extra):
        known = {"t", "txn", "d", "sid", "pid", "dst_boot"}
        if extra in known:
            return
        frame[extra] = 1
        with pytest.raises(FrameError):
            encode_frame_bin(frame)

    @given(txn=st.one_of(st.just(-1), st.just(2**64), st.booleans()))
    @settings(max_examples=20, deadline=None)
    def test_unpackable_ints_are_rejected(self, txn):
        frame = {"t": "payload", "txn": txn, "d": encode_payload(OutcomeQuery())}
        with pytest.raises(FrameError):
            encode_frame_bin(frame)
