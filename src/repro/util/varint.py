"""Variable-byte encoding of unsigned integers and integer sequences.

Section V of the paper ("Sequence Encoding") represents documents as integer
term-identifier sequences and serialises them with variable-byte encoding
[Witten et al., Managing Gigabytes].  The same encoding is used here both for
on-disk corpus storage and for the byte accounting at the map/reduce shuffle
boundary (the paper's ``MAP_OUTPUT_BYTES`` counter).

The scheme stores an integer in base-128 digits, least-significant group
first; the high bit of every byte is a continuation flag (1 = more bytes
follow).  Values must be non-negative.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.exceptions import SerializationError

_CONTINUATION = 0x80
_PAYLOAD_MASK = 0x7F


def encode_varint(value: int) -> bytes:
    """Encode a single non-negative integer as a variable-byte string."""
    if value < 0:
        raise SerializationError(f"cannot varint-encode negative value {value}")
    out = bytearray()
    while True:
        byte = value & _PAYLOAD_MASK
        value >>= 7
        if value:
            out.append(byte | _CONTINUATION)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(data: bytes, offset: int = 0) -> Tuple[int, int]:
    """Decode one varint from ``data`` starting at ``offset``.

    Returns ``(value, next_offset)``.  ``data`` may be any byte buffer
    (``bytes``, ``bytearray``, ``memoryview``) — indexing, not copying, so
    zero-copy callers can pass mmap slices.  Values above 64 bits are
    rejected, matching the paper's fixed-width identifiers.
    """
    value = 0
    shift = 0
    position = offset
    while True:
        if position >= len(data):
            raise SerializationError("truncated varint")
        byte = data[position]
        position += 1
        value |= (byte & _PAYLOAD_MASK) << shift
        if not byte & _CONTINUATION:
            return value, position
        shift += 7
        if shift >= 64:
            raise SerializationError("varint too long (more than 64 bits)")


def read_stream_varint(handle) -> Tuple[int, bool]:
    """Read one varint from a binary stream (byte-at-a-time).

    Returns ``(value, at_eof)``: ``at_eof`` is true iff the stream ended
    *before* the first byte — the clean way to detect the end of a record
    stream.  A stream ending in the middle of a varint raises, because that
    can only mean a truncated file.
    """
    value = 0
    shift = 0
    first = True
    while True:
        byte = handle.read(1)
        if not byte:
            if first:
                return 0, True
            raise SerializationError("truncated varint in stream")
        first = False
        value |= (byte[0] & _PAYLOAD_MASK) << shift
        if not byte[0] & _CONTINUATION:
            return value, False
        shift += 7
        if shift > 63:
            raise SerializationError("varint too long (more than 64 bits)")


def encoded_length(value: int) -> int:
    """Number of bytes :func:`encode_varint` uses for ``value``."""
    if value < 0:
        raise SerializationError(f"cannot varint-encode negative value {value}")
    if value == 0:
        return 1
    return (value.bit_length() + 6) // 7


def encode_sequence(values: Sequence[int]) -> bytes:
    """Encode a sequence of non-negative integers, length-prefixed."""
    out = bytearray(encode_varint(len(values)))
    for value in values:
        out.extend(encode_varint(value))
    return bytes(out)


def decode_sequence(data: bytes, offset: int = 0) -> Tuple[List[int], int]:
    """Decode a length-prefixed integer sequence; returns ``(values, next_offset)``."""
    count, position = decode_varint(data, offset)
    values: List[int] = []
    for _ in range(count):
        value, position = decode_varint(data, position)
        values.append(value)
    return values, position


def sequence_encoded_length(values: Iterable[int]) -> int:
    """Byte length of :func:`encode_sequence` without materialising the bytes."""
    values = list(values)
    total = encoded_length(len(values))
    for value in values:
        total += encoded_length(value)
    return total
