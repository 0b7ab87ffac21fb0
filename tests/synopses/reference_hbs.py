"""Reference Huffman-Bucket codec: one register, one bit at a time.

These are the bodies ``repro.synopses.hll.HBSCodec`` shipped until its
``encode`` / ``decode`` became string-and-regex kernels: a frequency
loop, a bit buffer flushed byte by byte, and a ``(length, code)`` table
walked bit by bit.  They stay here as the byte-identity oracle: the
kernels must emit exactly these frames and read them back to exactly
these registers (``test_hll.py``).  Not performance-sensitive; do not
optimise it.  (``decode`` keeps its original one-argument form and its
original leniency -- it is only ever handed frames ``encode`` made.)
"""

import heapq
import struct
from array import array

from repro.errors import SynopsisError


class ReferenceHBSCodec:
    _HEADER = struct.Struct(">BIB")
    _UNIFORM = 0
    _HUFFMAN = 1

    @classmethod
    def encode(cls, registers: "array[int]") -> bytes:
        frequencies: dict[int, int] = {}
        for value in registers:
            frequencies[value] = frequencies.get(value, 0) + 1
        if len(frequencies) <= 1:
            value = registers[0] if len(registers) else 0
            return cls._HEADER.pack(cls._UNIFORM, len(registers), value)
        lengths = cls._code_lengths(frequencies)
        codes = cls._canonical_codes(lengths)
        out = bytearray(
            cls._HEADER.pack(cls._HUFFMAN, len(registers), len(lengths))
        )
        for symbol in sorted(lengths):
            out += struct.pack(">BB", symbol, lengths[symbol])
        buffer = 0
        pending = 0
        for value in registers:
            code, length = codes[value]
            buffer = (buffer << length) | code
            pending += length
            while pending >= 8:
                pending -= 8
                out.append((buffer >> pending) & 0xFF)
        if pending:
            out.append((buffer << (8 - pending)) & 0xFF)
        return bytes(out)

    @classmethod
    def decode(cls, data: bytes) -> "array[int]":
        try:
            frame, count, arg = cls._HEADER.unpack_from(data, 0)
        except struct.error as exc:
            raise SynopsisError(f"truncated HBS frame: {exc}") from exc
        offset = cls._HEADER.size
        if frame == cls._UNIFORM:
            return array("B", bytes([arg]) * count)
        if frame != cls._HUFFMAN:
            raise SynopsisError(f"unknown HBS frame type {frame}")
        lengths: dict[int, int] = {}
        for _ in range(arg):
            symbol, length = struct.unpack_from(">BB", data, offset)
            offset += 2
            lengths[symbol] = length
        codes = cls._canonical_codes(lengths)
        # (length, code) -> symbol, walked bit by bit below.
        table = {
            (length, code): symbol
            for symbol, (code, length) in codes.items()
        }
        registers = array("B", bytes(count))
        position = 0
        code = 0
        length = 0
        payload = memoryview(data)[offset:]
        for byte in payload:
            for shift in range(7, -1, -1):
                code = (code << 1) | ((byte >> shift) & 1)
                length += 1
                symbol = table.get((length, code))
                if symbol is not None:
                    registers[position] = symbol
                    position += 1
                    code = 0
                    length = 0
                    if position == count:
                        return registers
        raise SynopsisError(
            f"HBS frame exhausted after {position}/{count} registers"
        )

    @staticmethod
    def _code_lengths(frequencies: dict[int, int]) -> dict[int, int]:
        """Huffman code lengths with deterministic tie-breaking.

        The heap orders by (frequency, smallest contained symbol); the
        resulting *lengths* feed the canonical assignment, so any
        residual tree ambiguity cannot reach the wire.
        """
        heap: list[tuple[int, int, list[int]]] = [
            (frequency, symbol, [symbol])
            for symbol, frequency in frequencies.items()
        ]
        heapq.heapify(heap)
        lengths = dict.fromkeys(frequencies, 0)
        while len(heap) > 1:
            freq_a, tie_a, symbols_a = heapq.heappop(heap)
            freq_b, tie_b, symbols_b = heapq.heappop(heap)
            for symbol in symbols_a + symbols_b:
                lengths[symbol] += 1
            heapq.heappush(
                heap,
                (freq_a + freq_b, min(tie_a, tie_b), symbols_a + symbols_b),
            )
        return lengths

    @staticmethod
    def _canonical_codes(lengths: dict[int, int]) -> dict[int, tuple[int, int]]:
        """Canonical codewords: assigned in (length, symbol) order."""
        code = 0
        previous_length = 0
        codes: dict[int, tuple[int, int]] = {}
        for symbol in sorted(lengths, key=lambda s: (lengths[s], s)):
            length = lengths[symbol]
            code <<= length - previous_length
            codes[symbol] = (code, length)
            code += 1
            previous_length = length
        return codes
