"""Small shared utilities (variable-byte coding, stable hashing)."""

from repro.util.hashing import stable_hash
from repro.util.varint import (
    decode_sequence,
    decode_varint,
    encode_sequence,
    encode_varint,
    encoded_length,
)

__all__ = [
    "decode_sequence",
    "decode_varint",
    "encode_sequence",
    "encode_varint",
    "encoded_length",
    "stable_hash",
]
