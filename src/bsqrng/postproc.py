"""Event streams to bit streams: extraction, debiasing, packing and file I/O.

Bits are packed most-significant-bit first within each byte; a final partial
byte is zero-padded and the true bit count kept in the stream metadata. The
binary file format is a small header (magic, version, bit length, provenance
text) followed by the packed payload.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .mcsim import Outcome

_MAGIC = b"BSRB"
_VERSION = 1
_HEADER = struct.Struct("<4sBQI")  # magic, version, bit length, provenance length


def _ascii_bits(text: str) -> np.ndarray:
    """One uint8 bit per character of a string of '0' and '1' characters."""
    bits = np.frombuffer(text.encode(), dtype=np.uint8) - ord("0")
    if bits.size and bits.max() > 1:
        raise ValueError("ASCII bit data may contain only '0' and '1'")
    return bits


def _bit_array(bits) -> np.ndarray:
    """``bits`` as a uint8 array, once every value is found to equal 0 or 1."""
    arr = np.asarray(bits)
    if arr.dtype != bool and not np.all((arr == 0) | (arr == 1)):
        raise ValueError("bit values must be 0 or 1")
    return arr.astype(np.uint8, copy=False)


@dataclass(frozen=True)
class BitStream:
    """A packed bit sequence with its provenance record."""

    data: bytes
    length: int
    provenance: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.length < 0 or len(self.data) != (self.length + 7) // 8:
            raise ValueError(
                f"payload of {len(self.data)} bytes does not match {self.length} bits"
            )

    @classmethod
    def from_bits(
        cls, bits: Iterable[int] | np.ndarray, provenance: Mapping[str, str] | None = None
    ) -> "BitStream":
        arr = _bit_array(bits)
        return cls(np.packbits(arr).tobytes(), int(arr.size), dict(provenance or {}))

    def bits(self) -> np.ndarray:
        return np.unpackbits(np.frombuffer(self.data, dtype=np.uint8))[: self.length]

    @classmethod
    def from_ascii(
        cls, text: str, provenance: Mapping[str, str] | None = None
    ) -> "BitStream":
        return cls.from_bits(_ascii_bits("".join(text.split())), provenance)

    def write(self, path: str | Path) -> None:
        prov = "".join(f"{k}={v}\n" for k, v in self.provenance.items()).encode()
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(_MAGIC, _VERSION, self.length, len(prov)))
            fh.write(prov)
            fh.write(self.data)

    @classmethod
    def read(cls, path: str | Path) -> "BitStream":
        with open(path, "rb") as fh:
            header = fh.read(_HEADER.size)
            if len(header) < _HEADER.size:
                raise ValueError(f"{path}: truncated header")
            magic, version, length, prov_len = _HEADER.unpack(header)
            if magic != _MAGIC:
                raise ValueError(f"{path}: not a bit-stream file (bad magic)")
            if version != _VERSION:
                raise ValueError(f"{path}: unsupported version {version}")
            try:
                prov_text = fh.read(prov_len).decode()
            except UnicodeDecodeError as exc:
                raise ValueError(f"{path}: provenance is not UTF-8 text: {exc}") from None
            payload = fh.read()
        if len(payload) != (length + 7) // 8:
            raise ValueError(f"{path}: payload does not match declared bit length")
        provenance = {}
        for line in prov_text.splitlines():
            key, _, value = line.partition("=")
            if key:
                provenance[key] = value
        return cls(payload, length, provenance)


# Elements per pass: outcome codes per slice in ``events_to_bits``, bits per
# slice in ``von_neumann`` and ``ones_fraction``. Each pass's temporaries stay
# near cache size, so no stage holds a full-length unpacked or widened array.
_CHUNK = 1 << 16


class _Packer:
    """MSB-first packing of bit chunks, carrying a partial byte into the next."""

    def __init__(self):
        self._parts: list[bytes] = []
        self._carry = np.empty(0, dtype=np.uint8)
        self.length = 0

    def add(self, bits: np.ndarray) -> None:
        self.length += bits.size
        if self._carry.size:
            bits = np.concatenate((self._carry, bits))
        whole = bits.size - bits.size % 8
        self._parts.append(np.packbits(bits[:whole]).tobytes())
        self._carry = bits[whole:].copy()

    def stream(self, provenance: Mapping[str, str] | None) -> BitStream:
        data = b"".join([*self._parts, np.packbits(self._carry).tobytes()])
        return BitStream(data, self.length, dict(provenance or {}))


def _byte_slices(stream: BitStream):
    """The payload in slices of ``_CHUNK`` bits, padding bits excluded: each
    slice as (uint8 byte array, number of its bits that belong to the stream)."""
    payload = np.frombuffer(stream.data, dtype=np.uint8)
    step = _CHUNK // 8
    for lo in range(0, payload.size, step):
        yield payload[lo : lo + step], min(8 * step, stream.length - 8 * lo)


def events_to_bits(
    codes: np.ndarray, provenance: Mapping[str, str] | None = None
) -> BitStream:
    """Keep the valid gates, in order: bit-0 clicks give 0, bit-1 clicks give 1."""
    packer = _Packer()
    for lo in range(0, codes.size, _CHUNK):
        # BIT0 -> 0 and BIT1 -> 1; NONE wraps to 255 and COLLISION gives 2.
        # ``np.compress`` keeps the selected elements in order, as ``d[d < 2]``
        # would, but gathers about three times faster on a random mask.
        d = np.asarray(codes[lo : lo + _CHUNK], dtype=np.uint8) - np.uint8(Outcome.BIT0)
        packer.add(np.compress(d < 2, d))
    return packer.stream(provenance)


def von_neumann(stream: BitStream) -> BitStream:
    """Classic pairwise debiaser.

    Consumes non-overlapping bit pairs in order: (0,1) emits 0, (1,0) emits 1,
    equal pairs emit nothing. A trailing unpaired bit is dropped. On
    independent identically biased input the output is exactly symmetric.
    A byte holds four whole pairs, so no pair crosses a slice of the payload.
    """
    packer = _Packer()
    for chunk, n_bits in _byte_slices(stream):
        bits = np.unpackbits(chunk)[: n_bits - n_bits % 2]
        first, second = bits[0::2], bits[1::2]
        # As in ``events_to_bits``: ``first[first != second]``, gathered faster.
        packer.add(np.compress(first != second, first))
    provenance = dict(stream.provenance)
    provenance["debiased"] = "von-neumann"
    provenance["raw_length"] = str(stream.length)
    return packer.stream(provenance)


def ones_fraction(stream: BitStream) -> float | None:
    """Exact share of ones in the stream; None for an empty stream."""
    ones = 0
    for chunk, n_bits in _byte_slices(stream):
        whole = n_bits // 8
        ones += int(np.bitwise_count(chunk[:whole]).sum())
        if n_bits % 8:
            ones += int(np.bitwise_count(chunk[whole] >> (8 - n_bits % 8)))
    return ones / stream.length if stream.length else None
