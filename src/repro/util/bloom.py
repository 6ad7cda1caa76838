"""Per-block Bloom filters for the n-gram store's point-miss fast path.

SSTable practice (LevelDB and its descendants) pairs every data block with
a small Bloom filter over the block's keys: a point lookup consults the
filter *before* touching the block, so a guaranteed miss returns without
any block I/O or decoding.  This module is that filter, built on the
deterministic :func:`repro.util.hashing.stable_hash` (Python's ``hash`` is
salted per process, which would make persisted filters useless across
runs).

The classic double-hashing scheme [Kirsch & Mitzenmacher 2006] derives all
``k`` probe positions from one 64-bit hash split into two halves —
``g_i = h1 + i * h2`` — which is as good as ``k`` independent hashes for
Bloom-filter purposes and costs a single key hash per query.

Filters serialise as a plain ``(num_bits, num_hashes, bits)`` tuple (see
:meth:`BloomFilter.to_spec`), so the on-disk block index stays free of
class references and old readers that ignore the field lose nothing.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Tuple

from repro.exceptions import StoreError
from repro.util.hashing import stable_hash

#: Bits per key unless the writer is told otherwise.  10 bits/key with the
#: matched hash count gives a ~1% false-positive rate — the LevelDB default.
DEFAULT_BITS_PER_KEY = 10

#: Serialised form persisted in a table's block index.
BloomSpec = Tuple[int, int, bytes]


def optimal_num_hashes(bits_per_key: int) -> int:
    """The hash count minimising the false-positive rate for a bit budget.

    The optimum is ``ln 2 * bits/key`` (~0.69 per bit); clamped to [1, 16]
    so degenerate budgets stay sane.
    """
    return max(1, min(16, round(bits_per_key * 0.69)))


class BloomFilter:
    """A fixed-size Bloom filter over :func:`stable_hash`-able keys.

    No false negatives ever; false positives at a rate set by the
    bits-per-key budget.  Instances are immutable after :meth:`build` from
    the reader's point of view — the store only ever queries persisted
    filters.
    """

    __slots__ = ("num_bits", "num_hashes", "_bits")

    def __init__(self, num_bits: int, num_hashes: int, bits: bytes) -> None:
        if num_bits < 1:
            raise StoreError(f"bloom filter num_bits must be >= 1, got {num_bits}")
        if num_hashes < 1:
            raise StoreError(f"bloom filter num_hashes must be >= 1, got {num_hashes}")
        if len(bits) != (num_bits + 7) // 8:
            raise StoreError(
                f"bloom filter bit array is {len(bits)} bytes, "
                f"expected {(num_bits + 7) // 8} for {num_bits} bits"
            )
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self._bits = bytearray(bits)

    # ------------------------------------------------------------- building
    @classmethod
    def build(
        cls, keys: Iterable[Any], bits_per_key: int = DEFAULT_BITS_PER_KEY
    ) -> "BloomFilter":
        """A filter sized for ``keys`` at ``bits_per_key`` bits each."""
        if bits_per_key < 1:
            raise StoreError(f"bits_per_key must be >= 1, got {bits_per_key}")
        keys = list(keys)
        num_bits = max(8, len(keys) * bits_per_key)
        bloom = cls(
            num_bits,
            optimal_num_hashes(bits_per_key),
            bytes((num_bits + 7) // 8),
        )
        for key in keys:
            bloom.add(key)
        return bloom

    def _probes(self, key: Any) -> Iterable[int]:
        digest = stable_hash(key)
        # Double hashing: the low half walks, the high half (forced odd so
        # it never degenerates to a single probe) strides.
        h1 = digest & 0xFFFFFFFF
        h2 = (digest >> 32) | 1
        for round_ in range(self.num_hashes):
            yield (h1 + round_ * h2) % self.num_bits

    def add(self, key: Any) -> None:
        for position in self._probes(key):
            self._bits[position >> 3] |= 1 << (position & 7)

    # ------------------------------------------------------------- queries
    def might_contain(self, key: Any) -> bool:
        """False means *definitely absent*; True means "go look"."""
        for position in self._probes(key):
            if not self._bits[position >> 3] & (1 << (position & 7)):
                return False
        return True

    def __contains__(self, key: object) -> bool:
        return self.might_contain(key)

    # ------------------------------------------------------- serialisation
    def to_spec(self) -> BloomSpec:
        """The plain-tuple form persisted in a table's block index."""
        return (self.num_bits, self.num_hashes, bytes(self._bits))

    @classmethod
    def from_spec(cls, spec: Optional[BloomSpec]) -> Optional["BloomFilter"]:
        """Invert :meth:`to_spec`; ``None`` (filters disabled) passes through."""
        if spec is None:
            return None
        try:
            num_bits, num_hashes, bits = spec
            return cls(int(num_bits), int(num_hashes), bytes(bits))
        except (TypeError, ValueError) as exc:
            raise StoreError(f"malformed bloom filter spec {spec!r}: {exc}") from exc

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"BloomFilter(num_bits={self.num_bits}, num_hashes={self.num_hashes})"
