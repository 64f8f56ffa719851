"""Independent oracles for the benchmark's output checks.

Nothing here imports keystream_lab: each check re-derives the expected
result from the documented formats and from a separate transcription of the
cipher, so a defect in the package cannot hide by agreeing with itself.
"""

from __future__ import annotations

import csv
import hashlib
import json
import struct

import numpy as np

M32 = 0xFFFFFFFF
SIGMA = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)
BLOCK_BYTES = 144


def _rotl(x: int, r: int) -> int:
    return ((x << r) | (x >> (32 - r))) & M32


def _quarter(a: int, b: int, c: int, d: int):
    # the six extended quarter-round lines, default ("native") ordering
    a = (a + b) & M32; d = _rotl(d ^ a, 16)
    b = (b + c) & M32; c = _rotl(c ^ b, 12)
    c = (c + d) & M32; b = _rotl(b ^ c, 8)
    d = (d + a) & M32; c = _rotl(c ^ d, 7)
    a = (a + b) & M32; d = _rotl(d ^ a, 4)
    b = (b + c) & M32; c = _rotl(c ^ b, 2)
    return a, b, c, d


def _round_quads():
    cols, diags = [], []
    for i in range(6):
        cols += [(i, 6 + i, 12 + i, 18 + i), (12 + i, 18 + i, 24 + i, 30 + i)]
        diags += [
            (i, 6 + (i + 1) % 6, 12 + (i + 2) % 6, 18 + (i + 3) % 6),
            (12 + i, 18 + (i + 1) % 6, 24 + (i + 2) % 6, 30 + (i + 3) % 6),
        ]
    return cols, diags


_COLS, _DIAGS = _round_quads()


def block_words(key: tuple, nonce: tuple, counter: int, rounds: int = 20) -> list[int]:
    """36 output words of the 6x6 block for 8 key words, 4 nonce words and a
    128-bit counter, with the default zero padding of rows 4-5."""
    ctr = [(counter >> (32 * i)) & M32 for i in range(4)]
    state = list(SIGMA) + list(key) + list(nonce) + ctr + [0] * 16
    w = list(state)
    for r in range(rounds):
        for ai, bi, ci, di in (_COLS if r % 2 == 0 else _DIAGS):
            w[ai], w[bi], w[ci], w[di] = _quarter(w[ai], w[bi], w[ci], w[di])
    return [(x + y) & M32 for x, y in zip(w, state)]


def block_bytes(key: tuple, nonce: tuple, counter: int) -> bytes:
    return struct.pack("<36I", *block_words(key, nonce, counter))


def seeded_bytes(seed: int, start: int, n: int) -> bytes:
    """Bytes [start, start + n) of the dataset key stream: the concatenation
    of BLAKE2b-512(seed_le64 || counter_le64) for counter = 0, 1, ..."""
    seed_le = seed.to_bytes(8, "little")
    first, last = start // 64, (start + n - 1) // 64
    raw = b"".join(
        hashlib.blake2b(seed_le + c.to_bytes(8, "little"), digest_size=64).digest()
        for c in range(first, last + 1)
    )
    off = start - 64 * first
    return raw[off: off + n]


def variable_mode_block(seed: int, index: int) -> list[int]:
    """Expected words of block ``index`` of a seeded variable-key dataset:
    each block draws 8 key words then 4 nonce words (48 bytes), counter 0."""
    words = struct.unpack("<12I", seeded_bytes(seed, 48 * index, 48))
    return block_words(words[:8], words[8:], 0)


def read_dataset(path) -> tuple[dict, np.ndarray]:
    """Parse the JSON-header + hex-record file format into (header, words),
    where words has shape (n_blocks, 36)."""
    with open(path) as fh:
        header = json.loads(fh.readline())
        records = fh.read().split()
    if any(len(r) != 8 * 36 for r in records):
        raise ValueError("malformed hex record")
    words = np.frombuffer(bytes.fromhex("".join(records)), dtype=">u4")
    return header, words.astype(np.uint32).reshape(-1, 36)


def keystream_bytes(words: np.ndarray) -> bytes:
    """The byte stream the analyses see: each word little-endian."""
    return words.astype("<u4").tobytes()


def top_k_mgrams(words: np.ndarray, m_bits: int, k: int) -> list[tuple[int, int]]:
    """k most frequent m-grams as (pattern, count), ties on ascending pattern.
    m=8/16 slide byte-wise over the little-endian stream; m=32 is the word
    sequence itself."""
    if m_bits == 32:
        patterns, counts = np.unique(words.reshape(-1), return_counts=True)
    else:
        data = np.frombuffer(keystream_bytes(words), dtype=np.uint8).astype(np.uint32)
        values = data if m_bits == 8 else (data[:-1] << 8) | data[1:]
        counts = np.bincount(values, minlength=1 << m_bits)
        patterns = np.arange(1 << m_bits)
    order = np.lexsort((patterns, -counts))[:k]
    return [(int(patterns[i]), int(counts[i])) for i in order]


def read_csv_rows(path) -> list[dict]:
    """CSV rows without the leading ``# config_hash=`` comment. The hash is
    not compared: it covers a function address and differs between runs."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if not line.startswith("# config_hash=")]
    return list(csv.DictReader(lines))


def byte_positions(corpus: bytes, pattern: bytes) -> list[int]:
    """Every (overlapping) start offset of ``pattern`` in ``corpus``."""
    out, i = [], corpus.find(pattern)
    while i >= 0:
        out.append(i)
        i = corpus.find(pattern, i + 1)
    return out


def word_positions(words: np.ndarray, pattern: np.ndarray) -> list[int]:
    """Word-aligned start indices of ``pattern`` in ``words``."""
    m = len(pattern)
    n = len(words) - m + 1
    if n <= 0:
        return []
    hit = words[:n] == pattern[0]
    for j in range(1, m):
        hit &= words[j: j + n] == pattern[j]
    return np.nonzero(hit)[0].tolist()
