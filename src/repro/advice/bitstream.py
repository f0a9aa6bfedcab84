"""The self-delimiting marker code of Section 4.

To embed a bit-string into single bits laid along a path, the paper
(Section 4, "Encoding the clustering") prefixes the marker ``11110110``,
replaces each payload ``0`` by the word ``110`` and each payload ``1`` by
``1110``, and appends a terminating ``0``; the region after the code is all
zeros.  The resulting stream matches ``11110110 (110|1110)* 0 0*`` and can
be parsed unambiguously because:

* four consecutive ``1``\\ s occur only inside the header,
* the words ``110``, ``1110`` and the terminator ``0`` form a prefix code.

The same code is reused by our generic Lemma-9.2 converter
(:mod:`repro.advice.onebit`), by the Section 6 cluster-color encodings and
by the Section 7 bit groups.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

HEADER = "11110110"
WORD_ZERO = "110"
WORD_ONE = "1110"
TERMINATOR = "0"


class CodecError(ValueError):
    """Raised when a stream does not parse as a marker code."""


def encode_payload(payload: str) -> str:
    """``payload`` (a bit-string, possibly empty) -> marker-coded stream."""
    if any(b not in "01" for b in payload):
        raise CodecError(f"payload is not a bit-string: {payload!r}")
    body = "".join(WORD_ONE if b == "1" else WORD_ZERO for b in payload)
    return HEADER + body + TERMINATOR


def encoded_length(payload_bits: int, ones: Optional[int] = None) -> int:
    """Length of the coded stream for a ``payload_bits``-bit payload.

    With ``ones`` unknown, the worst case (all ones) is returned:
    ``len(HEADER) + 4 * payload_bits + 1``.
    """
    if ones is None:
        ones = payload_bits
    zeros = payload_bits - ones
    return len(HEADER) + 4 * ones + 3 * zeros + len(TERMINATOR)


def max_payload_bits(stream_length: int) -> int:
    """Largest payload guaranteed to fit in ``stream_length`` positions."""
    usable = stream_length - len(HEADER) - len(TERMINATOR)
    return max(0, usable // 4)


def decode_stream(stream: str) -> Tuple[str, int]:
    """Parse ``HEADER (110|1110)* 0`` from the start of ``stream``.

    Returns ``(payload, consumed_length)``.  Trailing bits after the
    terminator are not inspected (the caller checks the all-zeros suffix
    when the surrounding construction requires it).  Raises
    :class:`CodecError` on any mismatch.
    """
    if not stream.startswith(HEADER):
        raise CodecError("missing header")
    i = len(HEADER)
    payload: List[str] = []
    while True:
        if i >= len(stream):
            raise CodecError("stream ended before terminator")
        if stream[i] == "0":
            return "".join(payload), i + 1
        if stream.startswith(WORD_ONE, i):
            payload.append("1")
            i += len(WORD_ONE)
        elif stream.startswith(WORD_ZERO, i):
            payload.append("0")
            i += len(WORD_ZERO)
        else:
            raise CodecError(f"unparseable code word at offset {i}")


def try_decode_stream(stream: str) -> Optional[Tuple[str, int]]:
    """Like :func:`decode_stream` but returning ``None`` instead of raising."""
    try:
        return decode_stream(stream)
    except CodecError:
        return None


def read_marker_stream(counts: Sequence[int]) -> Optional[str]:
    """Payload of a marker code read off per-sphere 1-node counts.

    ``counts[j]`` is the number of 1-nodes at distance exactly ``j`` from
    a candidate start.  Returns ``None`` when some sphere holds more than
    one 1-node (the uniqueness condition fails), when the stream does not
    parse, or when a 1 follows the terminator.
    """
    if any(c > 1 for c in counts):
        return None
    stream = "".join("1" if c else "0" for c in counts)
    parsed = try_decode_stream(stream)
    if parsed is None:
        return None
    payload, consumed = parsed
    if "1" in stream[consumed:]:
        return None
    return payload


def int_to_bits(value: int, width: Optional[int] = None) -> str:
    """Non-negative integer -> bit-string (MSB first), optionally padded."""
    if value < 0:
        raise CodecError("only non-negative integers encode")
    bits = bin(value)[2:]
    if width is not None:
        if len(bits) > width:
            raise CodecError(f"{value} does not fit in {width} bits")
        bits = bits.zfill(width)
    return bits


def bits_to_int(bits: str) -> int:
    """Bit-string (MSB first, '' = 0) -> non-negative integer."""
    if bits == "":
        return 0
    if any(b not in "01" for b in bits):
        raise CodecError(f"not a bit-string: {bits!r}")
    return int(bits, 2)


# ---------------------------------------------------------------------------
# Self-delimiting concatenation (used by schema composition, Lemma 9.1)
# ---------------------------------------------------------------------------


def pack_parts(parts: List[str]) -> str:
    """Concatenate bit-strings self-delimitingly.

    Each part is prefixed with its length in unary (``1``^len ``0``), so the
    decoder needs no out-of-band lengths.  The overhead is ``len + 1`` bits
    per part — within the constant-factor slack of Definition 3.4, which is
    all the composition lemma needs.
    """
    out = []
    for part in parts:
        if any(b not in "01" for b in part):
            raise CodecError(f"part is not a bit-string: {part!r}")
        out.append("1" * len(part) + "0" + part)
    return "".join(out)


def unpack_parts(stream: str, count: int) -> List[str]:
    """Inverse of :func:`pack_parts` for exactly ``count`` parts."""
    parts: List[str] = []
    i = 0
    for _ in range(count):
        length = 0
        while i < len(stream) and stream[i] == "1":
            length += 1
            i += 1
        if i >= len(stream):
            raise CodecError("truncated length prefix")
        i += 1  # the '0' delimiter
        if i + length > len(stream):
            raise CodecError("truncated part body")
        parts.append(stream[i : i + length])
        i += length
    if i != len(stream):
        raise CodecError("trailing bits after last part")
    return parts
