"""Canonical serialisation of library objects.

Evidence generation (Section 3.4) requires that invocation parameters,
results and shared-information state be "resolved to an agreed representation
of their state".  This module provides that agreed representation: a
canonical, deterministic JSON encoding used both to compute the digests that
are signed and to measure the space/communication overhead of protocol
messages in the benchmarks.

Objects that implement ``to_dict()`` (evidence tokens, certificates,
signatures, protocol messages...) are encoded through it; plain containers,
numbers, strings, bytes and ``None`` are encoded directly.

Encode-once pipeline
--------------------

The hot paths of the protocols (fan-out of one proposal to N peers, evidence
generation over the same payload, traffic accounting) repeatedly need the
canonical form of the *same* value.  :class:`Encoded` is a content-addressed
value object carrying the canonical text and its lazily derived
``(bytes, digest, size)`` so the encoding is computed exactly once:

* :func:`canonicalize` turns any encodable value into an :class:`Encoded`;
* an :class:`Encoded` placed inside a larger structure is *spliced* into the
  canonical output verbatim -- re-encoding a message whose payload and tokens
  are already canonical costs only the envelope;
* objects exposing ``canonical_encoded()`` (protocol messages, evidence
  tokens) are spliced the same way;
* when the source value is a mapping, the :class:`Encoded` behaves as a
  read-only view of it, so pre-encoded payloads flow through protocol
  handlers transparently.

An :class:`Encoded` is an immutable snapshot: mutating the source value after
canonicalisation does not change the already-computed text or digest.  Code
that re-uses canonical encodings across versions of a mutable value must key
them through an :class:`EncodingCache` with keys that change whenever the
value does (e.g. ``(object_id, version)``) and call
:meth:`EncodingCache.invalidate` when a key's payload is replaced in place.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from time import perf_counter
from typing import Any, Callable, Dict, Hashable, Iterator, List, Optional

from repro.crypto.hashing import secure_hash
from repro.errors import ReproError
from repro.observability.runtime import STATE as _OBS

try:  # the C escaper when available, byte-identical to json.dumps defaults
    from json.encoder import encode_basestring_ascii as _escape_str
except ImportError:  # pragma: no cover - pure-python fallback
    from json.encoder import py_encode_basestring_ascii as _escape_str

#: The canonical writer's string escaper, for code that splices canonical text
#: around an already encoded value (``persistence.evidence_store``).
escape_str = _escape_str


class CodecError(ReproError):
    """Raised when a value cannot be canonically encoded."""


_MISSING = object()


class Encoded:
    """Content-addressed canonical encoding: ``(text, bytes, digest, size)``.

    The canonical text is computed once; UTF-8 bytes and the SHA-256 digest
    are derived lazily and cached.  Instances are immutable snapshots of the
    value at canonicalisation time.  When ``source`` is a mapping, the
    instance offers a read-only mapping view over it so protocol handlers can
    keep treating message payloads as dictionaries.
    """

    __slots__ = ("text", "source", "_data", "_digest")

    def __init__(self, text: str, source: Any = _MISSING) -> None:
        self.text = text
        self.source = source
        self._data: Optional[bytes] = None
        self._digest: Optional[bytes] = None

    # -- derived representations (computed once) -----------------------------

    @property
    def data(self) -> bytes:
        """Canonical UTF-8 bytes."""
        if self._data is None:
            self._data = self.text.encode("utf-8")
        return self._data

    @property
    def digest(self) -> bytes:
        """SHA-256 digest of the canonical bytes."""
        if self._digest is None:
            self._digest = secure_hash(self.data)
        return self._digest

    @property
    def size(self) -> int:
        """Size of the canonical encoding in bytes."""
        return len(self.data)

    def jsonable(self) -> Any:
        """A fresh JSON-compatible structure parsed from the canonical text."""
        return json.loads(self.text)

    # -- read-only mapping view over the source value ------------------------

    def _mapping(self) -> Any:
        source = self.source
        if source is _MISSING or not hasattr(source, "__getitem__"):
            raise CodecError(
                "this Encoded value does not wrap a mapping; "
                "use .jsonable() to inspect its content"
            )
        return source

    def __getitem__(self, key: Any) -> Any:
        return self._mapping()[key]

    def get(self, key: Any, default: Any = None) -> Any:
        return self._mapping().get(key, default)

    def __contains__(self, key: Any) -> bool:
        return key in self._mapping()

    def __iter__(self) -> Iterator[Any]:
        return iter(self._mapping())

    def __len__(self) -> int:
        return len(self._mapping())

    def keys(self):
        return self._mapping().keys()

    def values(self):
        return self._mapping().values()

    def items(self):
        return self._mapping().items()

    def __bool__(self) -> bool:
        if self.source is _MISSING:
            return self.text not in ("null", "{}", "[]", '""', "0", "false")
        return bool(self.source)

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, Encoded):
            return self.text == other.text
        if self.source is not _MISSING:
            return bool(self.source == other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Encoded(size={self.size}, digest={self.digest.hex()[:16]})"


def _float_text(value: float) -> str:
    """Canonical text of a float, matching ``json.dumps`` defaults."""
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "Infinity"
    if value == float("-inf"):
        return "-Infinity"
    return float.__repr__(value)


def _write(value: Any, out: List[str]) -> None:
    """Append the canonical JSON fragments of ``value`` to ``out``.

    Produces byte-identical output to
    ``json.dumps(to_jsonable(value), sort_keys=True, separators=(",", ":"))``
    while splicing pre-computed :class:`Encoded` values verbatim.
    """
    # Exact-type fast paths for the common cases.
    kind = type(value)
    if kind is str:
        out.append(_escape_str(value))
        return
    if value is None:
        out.append("null")
        return
    if kind is bool:
        out.append("true" if value else "false")
        return
    if kind is int:
        out.append(repr(value))
        return
    if kind is float:
        out.append(_float_text(value))
        return
    if kind is dict:
        _write_dict(value, out)
        return
    if kind is list or kind is tuple:
        _write_sequence(value, out)
        return
    if kind is Encoded:
        out.append(value.text)
        return
    # Subclasses and the less common encodable types.
    if isinstance(value, bool):
        out.append("true" if value else "false")
        return
    if isinstance(value, int):
        out.append(int.__repr__(value))
        return
    if isinstance(value, float):
        out.append(_float_text(value))
        return
    if isinstance(value, str):
        out.append(_escape_str(value))
        return
    if isinstance(value, Encoded):
        out.append(value.text)
        return
    if isinstance(value, (bytes, bytearray, memoryview)):
        out.append('{"__bytes__":')
        out.append(_escape_str(bytes(value).hex()))
        out.append("}")
        return
    if isinstance(value, dict):
        _write_dict(value, out)
        return
    if isinstance(value, (list, tuple)):
        _write_sequence(value, out)
        return
    if isinstance(value, (set, frozenset)):
        out.append('{"__set__":')
        # The ordered items are already jsonable (their dicts are intended
        # tags, e.g. {"__bytes__": ...}), so they must not be re-escaped.
        _write_jsonable(_ordered_set_jsonables(value), out)
        out.append("}")
        return
    canonical = getattr(value, "canonical_encoded", None)
    if callable(canonical):
        out.append(canonical().text)
        return
    to_dict = getattr(value, "to_dict", None)
    if callable(to_dict):
        out.append('{"__object__":')
        out.append(_escape_str(type(value).__name__))
        out.append(',"data":')
        _write(to_dict(), out)
        out.append("}")
        return
    raise CodecError(f"cannot canonically encode value of type {type(value)!r}")


def _write_dict(value: Dict[Any, Any], out: List[str]) -> None:
    try:
        keys = sorted(value)
    except TypeError:
        keys = list(value)  # let the per-key check below raise CodecError
    # A plain dict shaped exactly like a codec tag must be escaped, or the
    # decoder would misread it as that tag (see _RESERVED_TAG_SHAPES).
    escaped = set(keys) in _RESERVED_TAG_SHAPES
    if escaped:
        out.append('{"__literal__":')
    out.append("{")
    first = True
    for key in keys:
        if not isinstance(key, str):
            raise CodecError(f"dictionary keys must be strings, got {type(key)}")
        if first:
            first = False
        else:
            out.append(",")
        out.append(_escape_str(key))
        out.append(":")
        _write(value[key], out)
    out.append("}")
    if escaped:
        out.append("}")


def _write_jsonable(value: Any, out: List[str]) -> None:
    """Write a value that is *already* jsonable (from :func:`to_jsonable`).

    Unlike :func:`_write_dict`, dicts here are written verbatim: any
    tag-shaped dict in converted output is an intended codec tag, and any
    escaping a plain dict needed has already been applied.
    """
    if isinstance(value, dict):
        out.append("{")
        first = True
        for key in sorted(value):
            if first:
                first = False
            else:
                out.append(",")
            out.append(_escape_str(key))
            out.append(":")
            _write_jsonable(value[key], out)
        out.append("}")
        return
    if isinstance(value, list):
        out.append("[")
        first = True
        for item in value:
            if first:
                first = False
            else:
                out.append(",")
            _write_jsonable(item, out)
        out.append("]")
        return
    _write(value, out)


def _write_sequence(value: Any, out: List[str]) -> None:
    out.append("[")
    first = True
    for item in value:
        if first:
            first = False
        else:
            out.append(",")
        _write(item, out)
    out.append("]")


def _ordered_set_jsonables(value: Any) -> List[Any]:
    """Deterministic ordering of a set's jsonable items.

    Comparable (homogeneous) items keep the natural sort the seed encoding
    used, so existing digests stay stable; heterogeneous items -- where a
    plain sort raises TypeError -- fall back to ordering by canonical
    encoded form, which is total and deterministic.
    """
    jsonables = [to_jsonable(item) for item in value]
    try:
        return sorted(jsonables)
    except TypeError:
        return sorted(jsonables, key=encode_text)


def encode_text(value: Any) -> str:
    """Return the canonical JSON text of ``value`` (sorted keys, no spaces)."""
    if type(value) is Encoded:
        return value.text
    out: List[str] = []
    _write(value, out)
    return "".join(out)


def canonicalize(value: Any) -> Encoded:
    """Resolve ``value`` to its agreed canonical representation, once.

    Returns ``value`` unchanged when it is already an :class:`Encoded`.
    """
    if type(value) is Encoded:
        return value
    return Encoded(encode_text(value), source=value)


#: Key sets the decoder interprets as codec tags.  A *plain* dict with one
#: of these exact shapes must be escaped on encode (``__literal__``) or it
#: would come back as the tagged type instead of itself.
_RESERVED_TAG_SHAPES = (
    {"__bytes__"},
    {"__set__"},
    {"__literal__"},
    {"__object__", "data"},
)


def to_jsonable(value: Any) -> Any:
    """Convert ``value`` into JSON-encodable structures.

    Bytes are wrapped as ``{"__bytes__": hex}`` so the encoding is loss-free;
    objects exposing ``to_dict`` are converted via that method and tagged
    with their class name for debuggability.  Already-canonical
    :class:`Encoded` values yield their parsed snapshot.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Encoded):
        return value.jsonable()
    if isinstance(value, (bytes, bytearray, memoryview)):
        return {"__bytes__": bytes(value).hex()}
    if isinstance(value, dict):
        converted = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise CodecError(f"dictionary keys must be strings, got {type(key)}")
            converted[key] = to_jsonable(item)
        if set(converted.keys()) in _RESERVED_TAG_SHAPES:
            # A plain dict whose keys collide with a codec tag would be
            # misread as that tag on decode; escape it so the roundtrip
            # stays lossless for every input.
            return {"__literal__": converted}
        return converted
    if isinstance(value, (list, tuple)):
        return [to_jsonable(item) for item in value]
    if isinstance(value, (set, frozenset)):
        return {"__set__": _ordered_set_jsonables(value)}
    to_dict = getattr(value, "to_dict", None)
    if callable(to_dict):
        return {"__object__": type(value).__name__, "data": to_jsonable(to_dict())}
    raise CodecError(f"cannot canonically encode value of type {type(value)!r}")


def from_jsonable(
    value: Any,
    object_reviver: Optional[Callable[[str, Any], Any]] = None,
) -> Any:
    """Inverse of :func:`to_jsonable` for plain data.

    ``object_reviver(name, data)`` -- when given -- decides what an
    ``{"__object__": name, "data": ...}`` tag becomes (``data`` arrives
    already revived); without one, objects decay to their plain ``data``.
    The wire transport supplies a reviver backed by its type registry, so
    there is exactly one implementation of the canonical tag rules.
    """
    if isinstance(value, dict):
        # The four reserved shapes, told apart by size and membership.
        size = len(value)
        if size == 1:
            if "__literal__" in value:
                # An escaped plain dict whose own keys look like a codec tag.
                return {
                    key: from_jsonable(item, object_reviver)
                    for key, item in value["__literal__"].items()
                }
            if "__bytes__" in value:
                return bytes.fromhex(value["__bytes__"])
            if "__set__" in value:
                return set(
                    from_jsonable(item, object_reviver) for item in value["__set__"]
                )
        elif size == 2 and "__object__" in value and "data" in value:
            data = from_jsonable(value["data"], object_reviver)
            if object_reviver is not None:
                return object_reviver(value["__object__"], data)
            return data
        return {
            key: from_jsonable(item, object_reviver) for key, item in value.items()
        }
    if isinstance(value, list):
        return [from_jsonable(item, object_reviver) for item in value]
    return value


def encode(value: Any) -> bytes:
    """Encode ``value`` to canonical bytes (sorted keys, no whitespace)."""
    if type(value) is Encoded:
        return value.data
    observe = _OBS.observe_encode
    if observe is None:
        return encode_text(value).encode("utf-8")
    started = perf_counter()
    data = encode_text(value).encode("utf-8")
    observe(perf_counter() - started)
    return data


def decode(data: bytes) -> Any:
    """Decode bytes produced by :func:`encode` back into plain data."""
    return from_jsonable(json.loads(data.decode("utf-8")))


def encoded_size(value: Any) -> int:
    """Return the canonical encoded size of ``value`` in bytes."""
    if type(value) is Encoded:
        return value.size
    return len(encode(value))


def unwrap(value: Any) -> Any:
    """Return the original source value behind an :class:`Encoded`, if known.

    Used at the boundary where application code (validators, bound
    components) receives values that travelled as canonical encodings.
    """
    if type(value) is Encoded and value.source is not _MISSING:
        return value.source
    return value


def digest_of(value: Any) -> bytes:
    """Digest of the canonical encoding of ``value`` (cached for Encoded)."""
    if type(value) is Encoded:
        return value.digest
    return secure_hash(encode(value))


class EncodingCache:
    """Keyed, bounded memo cache of canonical encodings.

    Callers supply a hashable key that MUST change whenever the underlying
    payload changes (e.g. ``(object_id, version)`` or a monotonically bumped
    state token).  For payloads that are replaced *in place* under the same
    key, call :meth:`invalidate` before the next lookup -- the cache has no
    way to detect mutation on its own; that is the explicit part of the
    invalidation contract.
    """

    def __init__(self, maxsize: int = 1024) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be at least 1")
        self._maxsize = maxsize
        self._entries: "OrderedDict[Hashable, Encoded]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable) -> Optional[Encoded]:
        """Return the cached encoding for ``key`` or ``None``."""
        with self._lock:
            encoded = self._entries.get(key)
            if encoded is not None:
                self._entries.move_to_end(key)
                self.hits += 1
            else:
                self.misses += 1
            return encoded

    def put(self, key: Hashable, encoded: Encoded) -> None:
        """Store ``encoded`` under ``key`` (evicting LRU entries as needed)."""
        with self._lock:
            self._entries[key] = encoded
            self._entries.move_to_end(key)
            while len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)

    def get_or_encode(self, key: Hashable, value: Any) -> Encoded:
        """Return the cached encoding for ``key``, canonicalising on a miss."""
        encoded = self.get(key)
        if encoded is None:
            encoded = canonicalize(value)
            self.put(key, encoded)
        return encoded

    def invalidate(self, key: Hashable) -> bool:
        """Drop the entry for ``key``; returns whether one was present."""
        with self._lock:
            return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "size": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
            }
