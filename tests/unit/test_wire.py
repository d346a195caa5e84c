"""Unit tests for the versioned binary wire codec."""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass
from typing import Optional

import pytest

from repro.common.errors import (
    BadFrameMagic,
    ConfigurationError,
    MalformedWirePayload,
    OversizedFrame,
    TruncatedFrame,
    UnencodableWirePayload,
    UnknownWireClass,
    UnsupportedWireVersion,
    WireError,
)
from repro.common.types import RequestId
from repro.crypto.digest import canonical_bytes, digest
from repro.execution.state_machine import Operation
from repro.net.network import Envelope
from repro.net.wire import (
    FLAG_TRACE,
    HEADER,
    HEADER_SIZE,
    MAX_DECODE_DEPTH,
    WIRE_MAGIC,
    WIRE_VERSION,
    WireCodec,
    WireRegistry,
    decode_payload,
    encode_payload,
    wire_serializable,
)
from repro.protocols.messages import ClientRequest, RequestBatch


def _request(number: int = 1) -> ClientRequest:
    return ClientRequest(
        request_id=RequestId(client="test-client", number=number),
        operations=(Operation(action="write", key="k", value="v"),))


def _envelope(payload: object) -> Envelope:
    return Envelope(source="a", destination="b", payload=payload,
                    sent_at=1.0, delivered_at=2.0)


# ---------------------------------------------------------------- round trips
class TestRoundTrips:
    @pytest.mark.parametrize("value", [
        None, True, False, 0, 1, -1, 10**40, -(10**40), 0.0, 1.5, -2.25,
        "", "hello", "ünïcode ✓", b"", b"\x00\xff" * 10,
        [], [1, "two", b"three", None], {"k": "v", "n": 3},
        {1: [2, {3: 4}]}, set(), {1, 2, 3}, frozenset({"a", "b"}),
    ])
    def test_plain_values(self, value):
        codec = WireCodec()
        decoded = codec.decode_frame(codec.encode_frame(value))
        assert decoded == value

    def test_nested_message(self):
        codec = WireCodec()
        batch = RequestBatch(requests=(_request(1), _request(2)))
        env = _envelope(batch)
        decoded = codec.decode_frame(codec.encode_frame(env))
        assert decoded == env
        # declared field types are restored, not the encoder's collapsed ones
        assert isinstance(decoded.payload.requests, tuple)
        assert isinstance(decoded.payload.requests[0].operations, tuple)

    def test_decoded_instance_digests_identically(self):
        codec = WireCodec()
        request = _request()
        decoded = codec.decode_frame(codec.encode_frame(request))
        assert canonical_bytes(decoded) == canonical_bytes(request)
        assert digest(decoded) == digest(request)

    def test_decode_pins_canonical_cache(self):
        from repro.crypto.digest import _CANONICAL_CACHE

        codec = WireCodec()
        request = _request()
        frame = codec.encode_frame(request)
        decoded = codec.decode_frame(frame)
        # the received wire slice doubles as the canonical-encoding cache:
        # the receiver never re-encodes what the sender already encoded
        assert getattr(decoded, _CANONICAL_CACHE) == frame[HEADER_SIZE:]

    def test_sets_inside_payload(self):
        codec = WireCodec()
        decoded = codec.decode_frame(codec.encode_frame({"s": {1, "x"}}))
        assert decoded == {"s": {1, "x"}}

    def test_set_terminator_string_ambiguity(self):
        # a set whose member is a string: the decoder must not confuse the
        # member's 's<len>:' tag with the set terminator
        codec = WireCodec()
        for value in ({"s"}, {"1"}, {"s", "1", "11"}, {""}):
            assert codec.decode_frame(codec.encode_frame(value)) == value


# ------------------------------------------------------------ framing errors
class TestMalformedFrames:
    def _frame(self, payload: bytes, magic=WIRE_MAGIC, version=WIRE_VERSION,
               flags=0, length=None) -> bytes:
        length = len(payload) if length is None else length
        return HEADER.pack(magic, version, flags, length) + payload

    def test_truncated_header(self):
        with pytest.raises(TruncatedFrame):
            WireCodec().decode_frame(b"RB\x01")

    def test_truncated_payload(self):
        frame = self._frame(encode_payload("hello"), length=1000)
        with pytest.raises(TruncatedFrame):
            WireCodec().decode_frame(frame)

    def test_bad_magic(self):
        frame = self._frame(encode_payload("x"), magic=b"ZZ")
        with pytest.raises(BadFrameMagic):
            WireCodec().decode_frame(frame)

    def test_unknown_version(self):
        frame = self._frame(encode_payload("x"), version=WIRE_VERSION + 1)
        with pytest.raises(UnsupportedWireVersion):
            WireCodec().decode_frame(frame)

    def test_unknown_flags(self):
        frame = self._frame(encode_payload("x"), flags=0x80)
        with pytest.raises(MalformedWirePayload):
            WireCodec().decode_frame(frame)

    def test_oversize_length_rejected_from_header_alone(self):
        # a corrupt header claiming 4 GiB must be rejected before any
        # payload allocation — parse_header sees only the 8 header bytes
        header = HEADER.pack(WIRE_MAGIC, WIRE_VERSION, 0, 2**32 - 1)
        with pytest.raises(OversizedFrame):
            WireCodec().parse_header(header)

    def test_oversize_outgoing_frame(self):
        codec = WireCodec(max_frame_bytes=64)
        with pytest.raises(OversizedFrame):
            codec.encode_frame("x" * 100)

    def test_unknown_class(self):
        payload = b"D7:Nothing s1:x i1:1 d".replace(b" ", b"")
        with pytest.raises(UnknownWireClass):
            decode_payload(payload)

    def test_every_malformed_case_is_a_wire_error(self):
        codec = WireCodec()
        cases = [
            b"",                                  # empty frame
            b"RB",                                # truncated header
            self._frame(b"", magic=b"XX"),        # bad magic
            self._frame(b"", version=99),         # unknown version
            self._frame(b"i3:1_0"),               # non-canonical int
            self._frame(b"i2:05"),                # leading zero
            self._frame(b"i2:-0"),                # negative zero
            self._frame(b"f3:1.50"),              # non-canonical float
            self._frame(b"s5:ab"),                # truncated string body
            self._frame(b"s2:ab" + b"junk"),      # trailing bytes
            self._frame(b"Ls1:a"),                # unterminated list
            self._frame(b"Ms1:a"),                # unterminated dict
            self._frame(b"q"),                    # unknown tag
            self._frame(b"ML1:lT" + b"m"),        # unhashable dict key
            # Members out of canonical order, or repeated: each would decode
            # to a value whose encoding differs from the received bytes.
            self._frame(b"Ms1:bi1:1s1:ai1:2m"),   # dict keys out of order
            self._frame(b"Ss1:bs1:as"),           # set members out of order
            self._frame(b"Ms1:ai1:1s1:ai1:2m"),   # repeated dict key
        ]
        for frame in cases:
            with pytest.raises(WireError):
                codec.decode_frame(frame)

    def test_depth_bomb(self):
        payload = b"L" * (MAX_DECODE_DEPTH + 10)
        with pytest.raises(MalformedWirePayload):
            decode_payload(payload)

    def test_wrong_field_order_rejected(self):
        # strict decoding: canonical declaration order only (anything else
        # would re-encode differently and poison the pinned cache)
        good = canonical_bytes(RequestId(client="c", number=1))
        assert good.startswith(b"D")
        swapped = good.replace(b"s6:client", b"s6:CLIENT")
        with pytest.raises(MalformedWirePayload):
            decode_payload(swapped)

    def test_unencodable_payload(self):
        with pytest.raises(UnencodableWirePayload):
            WireCodec().encode_frame(object())


# ------------------------------------------------------------------ registry
class TestRegistry:
    def test_name_collision_rejected(self):
        registry = WireRegistry()

        @dataclass(frozen=True)
        class Thing:
            x: int

        registry.register(Thing)
        registry.register(Thing)  # re-registering the same class is fine
        first = Thing

        @dataclass(frozen=True)
        class Thing:  # noqa: F811 — the collision is the point
            y: int

        with pytest.raises(ConfigurationError):
            registry.register(Thing)
        assert registry.registered_classes()["Thing"] is first

    def test_non_dataclass_rejected(self):
        with pytest.raises(TypeError):
            WireRegistry().register(dict)

    def test_custom_registry_round_trip(self):
        registry = WireRegistry()

        @dataclass(frozen=True)
        class Point:
            x: int
            y: int

        registry.register(Point)
        codec = WireCodec(registry=registry)
        assert codec.decode_frame(codec.encode_frame(Point(3, 4))) == Point(3, 4)

    def test_wire_serializable_returns_class(self):
        @dataclass(frozen=True)
        class _Probe:
            n: int

        try:
            assert wire_serializable(_Probe) is _Probe
        finally:
            # keep the default registry clean for other tests
            from repro.net.wire import WIRE_REGISTRY
            WIRE_REGISTRY._by_name.pop("_Probe", None)


# ------------------------------------------------------------ field coercion
def _request_batch_with(requests: bytes) -> bytes:
    """A RequestBatch payload whose tuple field holds the given raw value."""
    return b"D12:RequestBatchs8:requests" + requests + b"d"


@dataclass(frozen=True)
class _Members:
    names: frozenset[str]
    grid: tuple[tuple[int, ...], ...]
    tags: Optional[tuple[str, ...]] = None


_MEMBERS_REGISTRY = WireRegistry()
_MEMBERS_REGISTRY.register(_Members)


def _members_with(names: bytes = b"Ss1:as", grid: bytes = b"LLi1:1ll",
                  tags: bytes = b"N") -> bytes:
    return (b"D8:_Memberss5:names" + names + b"s4:grid" + grid
            + b"s4:tags" + tags + b"d")


class TestFieldCoercion:
    """A field only takes the container its declared type encodes as.

    The decoder builds a list for the sequence tag and a set for the set
    tag; a tuple field holding anything but a list (or a frozenset field
    holding anything but a set) is a malformed payload, never a bare
    ``TypeError`` and never a silently different value.
    """

    @pytest.mark.parametrize("raw", [
        b"F",                                   # bool
        b"T",                                   # bool
        b"N",                                   # None in a non-optional field
        b"i1:7",                                # int
        b"s2:ab",                               # str (tuple("ab") would pass)
        b"b2:ab",                               # bytes
        b"Ms1:ai1:1m",                          # dict
        b"Ss1:as",                              # set (order not canonical)
        canonical_bytes(_request()),            # a request, not a tuple of them
    ], ids=["false", "true", "none", "int", "str", "bytes", "dict", "set",
            "dataclass"])
    def test_tuple_field_refuses_a_non_list(self, raw):
        with pytest.raises(MalformedWirePayload, match="cannot coerce"):
            decode_payload(_request_batch_with(raw))

    def test_tuple_field_takes_a_list(self):
        raw = b"L" + canonical_bytes(_request()) + b"l"
        batch = decode_payload(_request_batch_with(raw))
        assert batch == RequestBatch(requests=(_request(),))

    @pytest.mark.parametrize("raw", [b"Ls1:al", b"s2:ab"], ids=["list", "str"])
    def test_frozenset_field_refuses_a_non_set(self, raw):
        with pytest.raises(MalformedWirePayload, match="cannot coerce"):
            decode_payload(_members_with(names=raw), _MEMBERS_REGISTRY)

    def test_nested_tuple_elements_are_checked_too(self):
        with pytest.raises(MalformedWirePayload, match="cannot coerce"):
            decode_payload(_members_with(grid=b"LLi1:1ls2:abl"),
                           _MEMBERS_REGISTRY)

    def test_optional_tuple_field_takes_none_or_a_list(self):
        plain = decode_payload(_members_with(), _MEMBERS_REGISTRY)
        assert plain == _Members(names=frozenset({"a"}), grid=((1,),))
        tagged = decode_payload(_members_with(tags=b"Ls1:xl"),
                                _MEMBERS_REGISTRY)
        assert tagged.tags == ("x",)
        with pytest.raises(MalformedWirePayload, match="cannot coerce"):
            decode_payload(_members_with(tags=b"s1:x"), _MEMBERS_REGISTRY)

    def test_coerced_fields_re_encode_to_the_received_bytes(self):
        payload = _members_with(names=b"Ss1:as1:bs", grid=b"LLi1:1lLi1:2i1:3ll",
                                tags=b"Ls1:xl")
        value = decode_payload(payload, _MEMBERS_REGISTRY)
        fresh = _Members(names=value.names, grid=value.grid, tags=value.tags)
        assert canonical_bytes(fresh) == payload


# ------------------------------------------------------------- pickle frames
class TestPickleEscapeHatch:
    """The pickle codec is gone; frames it used to write are refused."""

    def test_default_codec_refuses_pickled_frames(self):
        payload = pickle.dumps(_envelope("x"))
        frame = HEADER.pack(WIRE_MAGIC, WIRE_VERSION, 0x01,
                            len(payload)) + payload
        with pytest.raises(MalformedWirePayload, match="unknown frame flags"):
            WireCodec().decode_frame(frame)
        with pytest.raises(MalformedWirePayload, match="unknown frame flags"):
            WireCodec().decode_frame_traced(frame)


# ------------------------------------------------------------ reserved flags
class TestReservedFlags:
    def test_flag_bit_zero_is_rejected_before_the_payload(self):
        # Bit 0 is reserved: the header alone is refused, so no payload is
        # ever read for it.
        header = HEADER.pack(WIRE_MAGIC, WIRE_VERSION, 0x01, 16)
        with pytest.raises(MalformedWirePayload, match="unknown frame flags"):
            WireCodec().parse_header(header)

    @pytest.mark.parametrize("flags", [
        0x04, 0x08, 0x10, 0x20, 0x40, FLAG_TRACE | 0x01, FLAG_TRACE | 0x80,
    ])
    def test_every_flag_but_trace_is_rejected(self, flags):
        header = HEADER.pack(WIRE_MAGIC, WIRE_VERSION, flags, 16)
        with pytest.raises(MalformedWirePayload, match="unknown frame flags"):
            WireCodec().parse_header(header)

    def test_trace_flag_alone_is_accepted(self):
        header = HEADER.pack(WIRE_MAGIC, WIRE_VERSION, FLAG_TRACE, 16)
        assert WireCodec().parse_header(header) == (FLAG_TRACE, 16)


# ----------------------------------------------------------------- contracts
class TestFrameLayout:
    def test_header_layout_is_pinned(self):
        # README documents this layout; changing it is a WIRE_VERSION bump
        assert WIRE_MAGIC == b"RB"
        assert WIRE_VERSION == 1
        assert HEADER_SIZE == 8
        assert HEADER.format == ">2sBBI"

    def test_frame_is_header_plus_canonical_payload(self):
        env = _envelope("payload")
        frame = WireCodec().encode_frame(env)
        assert frame[:2] == WIRE_MAGIC
        assert frame[HEADER_SIZE:] == canonical_bytes(env)
        length = struct.unpack(">I", frame[4:8])[0]
        assert length == len(frame) - HEADER_SIZE
