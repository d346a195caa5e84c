"""Versioned binary wire protocol over the canonical encoding.

Replicas already agree on one deterministic byte encoding of every protocol
value — the canonical-bytes layer in :mod:`repro.crypto.digest` that backs
the paper's ``Δ := Hash(⟨T⟩c)`` digest discipline.  This module promotes that
encoding from *encode-only* (good enough for hashing and signing) to a full
wire format: a fixed frame header plus a decoder that turns canonical bytes
back into the dataclasses they came from.

Frame layout (big-endian)::

    offset  size  field
    0       2     magic       b"RB"
    2       1     version     WIRE_VERSION (currently 1)
    3       1     flags       bit 0: reserved, rejected
                              bit 1: a trace-context block precedes the
                              canonical payload (FLAG_TRACE)
    4       4     length      payload byte count, <= the enforced max frame

A ``FLAG_TRACE`` payload is ``>HQQ`` (trace-id byte length, span id, parent
span id) + the utf-8 trace id, then the canonical bytes; the header length
covers both.  Untraced frames never set the bit and are byte-identical to
the pre-tracing format, which the golden vectors pin.

The payload is exactly ``canonical_bytes(value)``, so the frame bytes a
message crosses the wire as are the same bytes its digests and signatures
are computed over — encoding for the wire reuses the per-instance canonical
caches, and decoding pins the received bytes back onto the instance, which
makes framing *cheaper* than a second serialiser, not costlier.

Decoding needs two things encoding does not:

* a **registry** mapping dataclass names to classes
  (:class:`WireRegistry`); registration happens where message classes are
  defined (``@wire_serializable`` in :mod:`repro.protocols.messages`), and
  the handful of support types (identifiers, signatures, attestations, the
  :class:`~repro.net.network.Envelope` itself) are registered here;
* per-class **field templates** — shared with the digest layer's encode
  templates — that restore the declared field types the encoding collapses
  (``tuple`` and ``list`` share one container tag, as do ``set`` and
  ``frozenset``).

The decoder is strict: field names must appear in declaration order, integer
bodies must be canonical decimal, floats must round-trip their ``repr``, and
the payload must be consumed exactly.  A frame that decodes is therefore
guaranteed to re-encode to the identical bytes, which is what lets the
received slice be pinned as the instance's canonical-encoding cache.

Every failure raises a typed :class:`~repro.common.errors.WireError`
subclass; nothing in this module ever executes payload-controlled code,
which is the point — it replaces ``pickle.loads`` on network bytes.

Versioning rules: bump :data:`WIRE_VERSION` whenever the header layout or
the canonical encoding changes incompatibly; a decoder only accepts its own
version.  The golden vectors under ``tests/golden/wire/`` pin the format —
if they change, the version must too.
"""

from __future__ import annotations

import importlib
import struct
from dataclasses import fields, is_dataclass
from typing import Any, Callable, Optional, Union, get_args, get_origin, get_type_hints

from ..common.errors import (
    BadFrameMagic,
    ConfigurationError,
    MalformedWirePayload,
    OversizedFrame,
    TruncatedFrame,
    UnencodableWirePayload,
    UnknownWireClass,
    UnsupportedWireVersion,
)
# The decode templates deliberately reuse the digest layer's per-class encode
# templates (same field-name bytes, same declaration order) and its cache
# attribute, so wire framing and digest/signature memoisation stay one
# mechanism with one set of invariants.
from ..crypto.digest import (_CANONICAL_CACHE, _class_template, _sorted_members,
                             canonical_bytes)
from ..obsv.trace import TraceContext

#: first bytes of every frame.
WIRE_MAGIC = b"RB"
#: current wire-protocol version; decoders accept exactly this version.
WIRE_VERSION = 1
#: flags bit: a :class:`~repro.obsv.trace.TraceContext` block precedes the
#: canonical payload (see :func:`encode_trace_context`).  Untraced frames
#: never set it and stay byte-identical to the pre-tracing format.
FLAG_TRACE = 0x02
#: every flag bit a decoder accepts; any other bit (bit 0 included) is
#: rejected by :func:`parse_header` before the payload is read.
_KNOWN_FLAGS = FLAG_TRACE

#: frame header: magic, version, flags, payload length.
HEADER = struct.Struct(">2sBBI")
HEADER_SIZE = HEADER.size

#: default ceiling on one frame's payload.  Generous against real traffic
#: (the largest legitimate frames — checkpoint snapshots — are a few hundred
#: kilobytes) while capping what a corrupt or malicious length header can
#: make ``readexactly`` allocate.
DEFAULT_MAX_FRAME_BYTES = 16 * 1024 * 1024

#: recursion ceiling for nested containers/dataclasses; legitimate messages
#: nest ~12 deep (Envelope > NewView > PrePrepare > batch > request > op).
MAX_DECODE_DEPTH = 64


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
class _RegisteredClass:
    """One decodable dataclass plus its lazily built field template."""

    __slots__ = ("cls", "decode_fields", "cacheable")

    def __init__(self, cls: type) -> None:
        self.cls = cls
        self.cacheable = bool(getattr(cls, "__canonical_cacheable__", False))
        #: tuple of (encoded field-name bytes, coercer or None); built on
        #: first decode so forward-referenced annotations have resolved.
        self.decode_fields: Optional[tuple] = None


class WireRegistry:
    """Name -> dataclass mapping the decoder resolves ``D`` records against.

    Registering a new message class is one line at its definition::

        @wire_serializable
        @canonical_cacheable
        @dataclass(frozen=True)
        class MyMessage: ...

    Names must be unique across the registry — the canonical encoding
    identifies a dataclass by its bare class name, so two wire classes may
    not share one.
    """

    def __init__(self) -> None:
        self._by_name: dict[str, _RegisteredClass] = {}

    def register(self, cls: type) -> type:
        """Register ``cls`` for decoding; returns it (usable as decorator)."""
        if not (isinstance(cls, type) and is_dataclass(cls)):
            raise TypeError(
                f"only dataclasses can cross the wire, not {cls!r}")
        if not all(f.init for f in fields(cls)):
            raise TypeError(
                f"{cls.__name__} has init=False fields; the wire decoder "
                "reconstructs instances through __init__")
        name = cls.__name__
        existing = self._by_name.get(name)
        if existing is not None and existing.cls is not cls:
            raise ConfigurationError(
                f"wire class name collision: {name!r} is already registered "
                f"for {existing.cls.__module__}.{existing.cls.__qualname__}")
        if existing is None:
            self._by_name[name] = _RegisteredClass(cls)
        return cls

    def lookup(self, name: str) -> _RegisteredClass:
        """The registered entry for ``name``; raises :class:`UnknownWireClass`."""
        entry = self._by_name.get(name)
        if entry is None:
            _import_default_message_modules()
            entry = self._by_name.get(name)
        if entry is None:
            raise UnknownWireClass(
                f"no wire class registered under {name!r}; register it with "
                "@wire_serializable where it is defined")
        return entry

    def registered_classes(self) -> dict[str, type]:
        """Snapshot of the registered name -> class mapping."""
        return {name: entry.cls for name, entry in self._by_name.items()}


#: the default registry every codec and decorator uses.
WIRE_REGISTRY = WireRegistry()


def wire_serializable(cls: type) -> type:
    """Class decorator: make a dataclass decodable from the wire."""
    return WIRE_REGISTRY.register(cls)


#: modules whose import registers the protocol message classes; imported
#: lazily on the first unknown-class lookup so this module never depends on
#: the protocol layer at import time.
_DEFAULT_MESSAGE_MODULES = ("repro.protocols.messages",)
_defaults_imported = False


def _import_default_message_modules() -> None:
    global _defaults_imported
    if _defaults_imported:
        return
    _defaults_imported = True
    for module in _DEFAULT_MESSAGE_MODULES:
        importlib.import_module(module)


def ensure_default_registrations() -> None:
    """Force-register the default message classes (tests, tooling)."""
    _import_default_message_modules()


# ---------------------------------------------------------------------------
# field coercion templates
# ---------------------------------------------------------------------------
def _coercer_for(hint: Any) -> Optional[Callable[[Any], Any]]:
    """Restore the declared field type the encoding collapses, or ``None``.

    The canonical encoding writes ``tuple``/``list`` with one tag and
    ``set``/``frozenset`` with another; the decoder materialises ``list`` and
    ``set`` and this coercer converts to the declared immutable type.  Other
    types are self-describing and pass through.

    A coercer accepts only the container the decoder builds for that tag and
    raises ``TypeError`` on anything else: ``tuple("ab")`` would turn a string
    into a tuple of characters that no longer encodes to the received bytes
    pinned as the instance's canonical cache.
    """
    origin = get_origin(hint)
    if origin is Union:
        inner = [arg for arg in get_args(hint) if arg is not type(None)]
        if len(inner) != 1:
            return None
        coerce = _coercer_for(inner[0])
        if coerce is None:
            return None
        return lambda value: value if value is None else coerce(value)
    if hint is tuple or origin is tuple:
        args = get_args(hint)
        if len(args) == 2 and args[1] is Ellipsis:
            element = _coercer_for(args[0])
            if element is not None:
                return lambda value: tuple(
                    element(item) for item in _as_tuple(value))
        return _as_tuple
    if hint is frozenset or origin is frozenset:
        return _as_frozenset
    return None


def _as_tuple(value: Any) -> tuple:
    if type(value) is not list:
        raise TypeError(f"a tuple field needs a list, not {type(value).__name__}")
    return tuple(value)


def _as_frozenset(value: Any) -> frozenset:
    if type(value) is not set:
        raise TypeError(
            f"a frozenset field needs a set, not {type(value).__name__}")
    return frozenset(value)


def _decode_template(entry: _RegisteredClass) -> tuple:
    """(field-name bytes, coercer) per field, shared with the encode template."""
    template = entry.decode_fields
    if template is None:
        try:
            hints = get_type_hints(entry.cls)
        except Exception:  # unresolvable annotations: decode without coercion
            hints = {}
        _, encoded_fields = _class_template(entry.cls)
        template = tuple(
            (name_bytes, _coercer_for(hints.get(attr)))
            for name_bytes, attr in encoded_fields)
        entry.decode_fields = template
    return template


# ---------------------------------------------------------------------------
# payload decoding
# ---------------------------------------------------------------------------
_TAG_NONE = ord("N")
_TAG_TRUE = ord("T")
_TAG_FALSE = ord("F")
_TAG_INT = ord("i")
_TAG_FLOAT = ord("f")
_TAG_STR = ord("s")
_TAG_BYTES = ord("b")
_TAG_DICT = ord("M")
_TAG_LIST = ord("L")
_TAG_SET = ord("S")
_TAG_DATACLASS = ord("D")
_END_DICT = ord("m")
_END_LIST = ord("l")
_END_SET = ord("s")
_END_DATACLASS = ord("d")
_DIGITS = frozenset(b"0123456789")


class _Decoder:
    """Strict recursive-descent parser over one canonical payload."""

    __slots__ = ("data", "pos", "registry")

    def __init__(self, data: bytes, registry: WireRegistry) -> None:
        self.data = data
        self.pos = 0
        self.registry = registry

    def decode(self) -> Any:
        value = self._value(0)
        if self.pos != len(self.data):
            raise MalformedWirePayload(
                f"{len(self.data) - self.pos} trailing byte(s) after the "
                "payload value")
        return value

    # ------------------------------------------------------------- plumbing
    def _fail(self, reason: str) -> MalformedWirePayload:
        return MalformedWirePayload(f"{reason} at offset {self.pos}")

    def _body(self) -> bytes:
        """Parse ``<digits>:<body>`` at the cursor; returns the body bytes.

        The one hot-path helper: strings, ints, floats, bytes and class
        names all route through it, so the length parse and the bounds
        check are inlined rather than split across two helpers.
        """
        data = self.data
        pos = self.pos
        colon = data.find(b":", pos, pos + 20)
        if colon < 0:
            raise self._fail("missing length terminator ':'")
        digits = data[pos:colon]
        if not digits.isdigit():
            raise self._fail(f"invalid length prefix {digits!r}")
        end = colon + 1 + int(digits)
        if end > len(data):
            raise self._fail(f"payload ends inside a {int(digits)}-byte body")
        self.pos = end
        return data[colon + 1:end]

    # --------------------------------------------------------------- values
    def _value(self, depth: int) -> Any:
        if depth >= MAX_DECODE_DEPTH:
            raise self._fail(f"nesting deeper than {MAX_DECODE_DEPTH}")
        data = self.data
        if self.pos >= len(data):
            raise self._fail("payload ended where a value was expected")
        tag = data[self.pos]
        self.pos += 1
        # Dispatch ordered by rough frequency in protocol traffic.
        if tag == _TAG_STR:
            return self._str()
        if tag == _TAG_INT:
            return self._int()
        if tag == _TAG_DATACLASS:
            return self._dataclass(depth)
        if tag == _TAG_BYTES:
            return self._body()
        if tag == _TAG_NONE:
            return None
        if tag == _TAG_TRUE:
            return True
        if tag == _TAG_FALSE:
            return False
        if tag == _TAG_FLOAT:
            return self._float()
        if tag == _TAG_LIST:
            return self._list(depth)
        if tag == _TAG_DICT:
            return self._dict(depth)
        if tag == _TAG_SET:
            return self._set(depth)
        self.pos -= 1
        raise self._fail(f"unknown value tag {bytes((tag,))!r}")

    def _int(self) -> int:
        raw = self._body()
        body = raw[1:] if raw[:1] == b"-" else raw
        # Canonical decimal only: what str(int) produces, nothing else.  A
        # laxer parse (leading zeros, '+', '_') would decode to a value that
        # re-encodes differently, breaking the decode-pins-the-cache rule.
        if (not body.isdigit() or (len(body) > 1 and body[:1] == b"0")
                or (raw[:1] == b"-" and body == b"0")):
            raise self._fail(f"non-canonical integer body {raw!r}")
        return int(raw)

    def _float(self) -> float:
        raw = self._body()
        try:
            value = float(raw)
        except ValueError:
            raise self._fail(f"invalid float body {raw!r}") from None
        if repr(value).encode() != raw:
            raise self._fail(f"non-canonical float body {raw!r}")
        return value

    def _str(self) -> str:
        raw = self._body()
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise self._fail(f"invalid utf-8 in string body {raw!r}") from None

    def _list(self, depth: int) -> list:
        items = []
        data = self.data
        while True:
            if self.pos >= len(data):
                raise self._fail("unterminated list")
            if data[self.pos] == _END_LIST:
                self.pos += 1
                return items
            items.append(self._value(depth + 1))

    def _canonical_members(self, members: list, distinct: int,
                           kind: str) -> None:
        """Refuse members that are not in strictly increasing canonical order.

        The encoder writes dict keys and set members sorted by
        :func:`~repro.crypto.digest._sorted_members`; a payload in any other
        order, or with a repeated member, decodes to a value that re-encodes
        to different bytes.
        """
        if distinct != len(members) or _sorted_members(members) != members:
            raise self._fail(
                f"{kind} not in strictly increasing canonical order")

    def _dict(self, depth: int) -> dict:
        result: dict = {}
        keys = []
        data = self.data
        while True:
            if self.pos >= len(data):
                raise self._fail("unterminated dict")
            if data[self.pos] == _END_DICT:
                self.pos += 1
                self._canonical_members(keys, len(result), "dict keys")
                return result
            key = self._value(depth + 1)
            value = self._value(depth + 1)
            try:
                result[key] = value
            except TypeError:
                raise self._fail(f"unhashable dict key {key!r}") from None
            keys.append(key)

    def _set(self, depth: int) -> set:
        # The set terminator shares the byte 's' with the string tag; a
        # string always continues with a length digit and a terminator never
        # can (after a set ends only another tag or terminator may follow),
        # so one byte of lookahead disambiguates.
        result: set = set()
        items = []
        data = self.data
        while True:
            if self.pos >= len(data):
                raise self._fail("unterminated set")
            byte = data[self.pos]
            if byte == _END_SET and (self.pos + 1 >= len(data)
                                     or data[self.pos + 1] not in _DIGITS):
                self.pos += 1
                self._canonical_members(items, len(result), "set members")
                return result
            item = self._value(depth + 1)
            try:
                result.add(item)
            except TypeError:
                raise self._fail(f"unhashable set member {item!r}") from None
            items.append(item)

    def _dataclass(self, depth: int) -> Any:
        start = self.pos - 1  # include the 'D' tag in the pinned cache slice
        name = self._str()
        entry = self.registry._by_name.get(name)
        if entry is None:
            entry = self.registry.lookup(name)  # lazy-import slow path
        template = entry.decode_fields
        if template is None:
            template = _decode_template(entry)
        data = self.data
        values = []
        append = values.append
        # One try around the whole loop (free on 3.11+): a coercer handed a
        # value of the wrong shape (a scalar where a tuple field expects a
        # container) raises TypeError, which must surface as a typed error.
        try:
            for name_bytes, coerce in template:
                if not data.startswith(name_bytes, self.pos):
                    raise self._fail(
                        f"field mismatch in {name}: expected {name_bytes!r} "
                        "(canonical declaration order)")
                self.pos += len(name_bytes)
                value = self._value(depth + 1)
                append(coerce(value) if coerce is not None else value)
        except TypeError as exc:
            raise self._fail(
                f"cannot coerce a field of {name}: {exc}") from None
        if self.pos >= len(data) or data[self.pos] != _END_DATACLASS:
            raise self._fail(f"unterminated dataclass {name}")
        self.pos += 1
        try:
            instance = entry.cls(*values)
        except Exception as exc:
            raise MalformedWirePayload(
                f"cannot construct {name} from decoded fields: {exc}") from exc
        if entry.cacheable:
            # The strict parse guarantees re-encoding reproduces exactly the
            # received bytes, so the wire slice doubles as the instance's
            # canonical-encoding cache — every later digest/signature over
            # this message reuses what the sender already computed.
            object.__setattr__(instance, _CANONICAL_CACHE,
                               data[start:self.pos])
        return instance


# ---------------------------------------------------------------------------
# trace-context block
# ---------------------------------------------------------------------------
#: fixed head of the FLAG_TRACE block: trace-id byte length (u16), span id
#: (u64), parent span id (u64); the utf-8 trace-id bytes follow.
_TRACE_BLOCK = struct.Struct(">HQQ")
_TRACE_BLOCK_SIZE = _TRACE_BLOCK.size


def encode_trace_context(context: TraceContext) -> bytes:
    """The ``FLAG_TRACE`` block prefixed to a traced frame's payload."""
    trace_id = context.trace_id.encode("utf-8")
    if len(trace_id) > 0xFFFF:
        raise UnencodableWirePayload(
            f"trace id is {len(trace_id)} bytes; the wire block caps it "
            "at 65535")
    try:
        head = _TRACE_BLOCK.pack(len(trace_id), context.span_id,
                                 context.parent_span_id)
    except struct.error as exc:
        raise UnencodableWirePayload(
            f"trace context span ids must fit an unsigned 64-bit field: "
            f"{exc}") from exc
    return head + trace_id


def decode_trace_context(payload: bytes) -> tuple[TraceContext, int]:
    """Parse the trace block at the head of a traced payload.

    Returns ``(context, consumed)`` where ``consumed`` is the block's byte
    length; the canonical payload starts at that offset.
    """
    if len(payload) < _TRACE_BLOCK_SIZE:
        raise MalformedWirePayload(
            f"traced payload is {len(payload)} byte(s); the trace block "
            f"head needs {_TRACE_BLOCK_SIZE}")
    id_length, span_id, parent_span_id = _TRACE_BLOCK.unpack_from(payload)
    end = _TRACE_BLOCK_SIZE + id_length
    if len(payload) < end:
        raise MalformedWirePayload(
            f"traced payload ends inside its {id_length}-byte trace id")
    try:
        trace_id = payload[_TRACE_BLOCK_SIZE:end].decode("utf-8")
    except UnicodeDecodeError:
        raise MalformedWirePayload("invalid utf-8 in trace id") from None
    return TraceContext(trace_id=trace_id, span_id=span_id,
                        parent_span_id=parent_span_id), end


# ---------------------------------------------------------------------------
# frame-level API
# ---------------------------------------------------------------------------
def parse_header(header: bytes,
                 max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES
                 ) -> tuple[int, int]:
    """Validate a frame header; returns ``(flags, payload_length)``.

    Runs *before* any payload allocation, so a corrupt or malicious length
    header is rejected at the cost of eight bytes, not four gigabytes.
    """
    if len(header) < HEADER_SIZE:
        raise TruncatedFrame(
            f"frame header is {len(header)} byte(s), need {HEADER_SIZE}")
    magic, version, flags, length = HEADER.unpack(header[:HEADER_SIZE])
    if magic != WIRE_MAGIC:
        raise BadFrameMagic(
            f"bad frame magic {magic!r} (expected {WIRE_MAGIC!r}); the peer "
            "is not speaking the repro wire protocol")
    if version != WIRE_VERSION:
        raise UnsupportedWireVersion(
            f"wire version {version} (this build speaks {WIRE_VERSION})")
    if flags & ~_KNOWN_FLAGS:
        raise MalformedWirePayload(
            f"unknown frame flags 0x{flags & ~_KNOWN_FLAGS:02x}")
    if length > max_frame_bytes:
        raise OversizedFrame(
            f"frame claims a {length}-byte payload; the enforced maximum is "
            f"{max_frame_bytes} bytes")
    return flags, length


def encode_payload(value: Any) -> bytes:
    """Canonical payload bytes for ``value`` (reuses per-instance caches)."""
    try:
        return canonical_bytes(value)
    except TypeError as exc:
        raise UnencodableWirePayload(str(exc)) from exc


def decode_payload(payload: bytes,
                   registry: WireRegistry = WIRE_REGISTRY) -> Any:
    """Decode one canonical payload back into the value it encodes."""
    return _Decoder(bytes(payload), registry).decode()


class WireCodec:
    """The safe binary codec: canonical payloads behind the versioned header.

    Symmetric :meth:`encode_frame` / :meth:`decode_frame` plus the split
    :meth:`parse_header` / :meth:`decode_payload` pair streaming transports
    use to validate a header before allocating its payload.
    """

    def __init__(self, registry: WireRegistry = WIRE_REGISTRY,
                 max_frame_bytes: int = DEFAULT_MAX_FRAME_BYTES) -> None:
        self.registry = registry
        self.max_frame_bytes = max_frame_bytes

    # -------------------------------------------------------------- encoding
    def encode_frame(self, value: Any,
                     trace: Optional[TraceContext] = None) -> bytes:
        """One complete frame (header + canonical payload) for ``value``.

        With ``trace`` set the frame carries :data:`FLAG_TRACE` and the
        trace block precedes the payload; with ``trace=None`` the emitted
        bytes are identical to the pre-tracing format, bit for bit.
        """
        payload = encode_payload(value)
        flags = 0
        if trace is not None:
            payload = encode_trace_context(trace) + payload
            flags = FLAG_TRACE
        if len(payload) > self.max_frame_bytes:
            raise OversizedFrame(
                f"{type(value).__name__} encodes to {len(payload)} bytes; "
                f"the enforced maximum is {self.max_frame_bytes} bytes")
        return HEADER.pack(WIRE_MAGIC, WIRE_VERSION, flags,
                           len(payload)) + payload

    # -------------------------------------------------------------- decoding
    def parse_header(self, header: bytes) -> tuple[int, int]:
        """Validate a header read off the stream; ``(flags, length)``."""
        return parse_header(header, self.max_frame_bytes)

    def decode_payload_traced(self, payload: bytes, flags: int = 0
                              ) -> tuple[Any, Optional[TraceContext]]:
        """Decode a payload; returns ``(value, trace context or None)``."""
        context = None
        if flags & FLAG_TRACE:
            context, consumed = decode_trace_context(payload)
            payload = payload[consumed:]
        return decode_payload(payload, self.registry), context

    def decode_payload(self, payload: bytes, flags: int = 0) -> Any:
        """Decode a payload whose header carried ``flags``."""
        return self.decode_payload_traced(payload, flags)[0]

    def decode_frame(self, frame: bytes) -> Any:
        """Decode one complete frame produced by :meth:`encode_frame`."""
        return self.decode_frame_traced(frame)[0]

    def decode_frame_traced(self, frame: bytes
                            ) -> tuple[Any, Optional[TraceContext]]:
        """Decode one complete frame; returns ``(value, context or None)``."""
        flags, length = self.parse_header(frame)
        payload = frame[HEADER_SIZE:]
        if len(payload) != length:
            raise TruncatedFrame(
                f"frame declares a {length}-byte payload but carries "
                f"{len(payload)}")
        return self.decode_payload_traced(payload, flags)

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<WireCodec v{WIRE_VERSION}>"


def _register_support_types() -> None:
    """Register the non-protocol dataclasses that ride inside messages.

    Protocol and recovery message classes register themselves where they are
    defined; these are the substrate types they embed (plus the
    :class:`Envelope` that frames every payload on the wire).
    """
    from ..common.types import RequestId
    from ..crypto.signatures import Mac, Signature
    from ..execution.state_machine import Operation, OperationResult
    from ..trusted.attestation import Attestation
    from .network import Envelope

    for cls in (RequestId, Operation, OperationResult, Signature, Mac,
                Attestation, Envelope):
        WIRE_REGISTRY.register(cls)


_register_support_types()
