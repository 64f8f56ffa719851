"""Keystream dataset generation, dual encoding, and file persistence.

A dataset is an (n, 36) uint32 array, one row of output words per block.
Datasets are deterministic functions of their config: key and nonce material
comes from a seeded BLAKE2b counter-mode generator (switchable to the OS
entropy source for non-reproducible runs).  Fixed-key mode keeps one key and
increments the base nonce per block; variable-key mode draws fresh key and
nonce material for every block.

File format: a JSON header line with the config, then one 288-character hex
record per block.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from dataclasses import dataclass, asdict

import numpy as np

from .cipher import (
    BLOCK_BYTES,
    KEY_BASE,
    NONCE_BASE,
    CipherConfig,
    KeyMaterial,
    STATE_WORDS,
    block_words_batch,
    init_state,
    word_range,
)

FORMAT_VERSION = 1


class DatasetFormatError(ValueError):
    """Malformed dataset file; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class SeededGenerator:
    """Deterministic byte generator: BLAKE2b over (seed, counter)."""

    def __init__(self, seed: int):
        self._seed = seed.to_bytes(8, "little", signed=False)
        self._counter = 0
        self._buffer = b""

    def bytes(self, n: int) -> bytes:
        out, self._buffer = self._buffer[:n], self._buffer[n:]
        need = n - len(out)
        digests = -(-need // 64)
        fresh = b"".join(
            hashlib.blake2b(self._seed + (self._counter + i).to_bytes(8, "little"),
                            digest_size=64).digest()
            for i in range(digests)
        )
        self._counter += digests
        self._buffer += fresh[need:]
        return out + fresh[:need]

    def words(self, k: int) -> np.ndarray:
        """The next ``4 * k`` bytes as ``k`` little-endian uint32 words."""
        return np.frombuffer(self.bytes(4 * k), dtype="<u4").astype(np.uint32)


class OsEntropyGenerator:
    """Non-reproducible alternative backed by os.urandom."""

    def bytes(self, n: int) -> bytes:
        return os.urandom(n)

    words = SeededGenerator.words


@dataclass(frozen=True)
class DatasetConfig:
    mode: str = "fixed"  # "fixed" or "variable"
    n_blocks: int = 10_000
    rng_seed: int = 0
    cipher: CipherConfig = CipherConfig()
    entropy: str = "seeded"  # "seeded" (from rng_seed) or "os" (os.urandom)

    def __post_init__(self):
        if self.mode not in ("fixed", "variable"):
            raise ValueError("mode must be 'fixed' or 'variable'")
        if self.n_blocks < 1:
            raise ValueError("n_blocks must be >= 1")
        if self.entropy not in ("seeded", "os"):
            raise ValueError("entropy must be 'seeded' or 'os'")

    def as_dict(self) -> dict:
        """The file header; an OS-entropy dataset has no seed to record."""
        d = asdict(self)
        if self.entropy == "os":
            d["rng_seed"] = None
        d["format_version"] = FORMAT_VERSION
        return d


HEX_CHARS = STATE_WORDS * 8
BINARY_CHARS = STATE_WORDS * 32
CHUNK_BLOCKS = 4096  # blocks per encode/decode step in persist and load


def _as_blocks(blocks) -> np.ndarray:
    blocks = np.asarray(blocks, dtype=np.uint32)
    if blocks.ndim != 2 or blocks.shape[1] != STATE_WORDS:
        raise ValueError(f"blocks must have shape (n, {STATE_WORDS})")
    return blocks


def to_hex(blocks) -> list[str]:
    """One 288-digit lowercase hex record per block, each word big-endian."""
    text = _as_blocks(blocks).astype(">u4").tobytes().hex()
    return [text[i: i + HEX_CHARS] for i in range(0, len(text), HEX_CHARS)]


def from_hex(records: list[str]) -> np.ndarray:
    """(k, 36) uint32 blocks from k records of exactly 288 hex digits."""
    if any(len(r) != HEX_CHARS for r in records):
        raise ValueError(f"hex record must be {HEX_CHARS} chars")
    try:
        raw = bytes.fromhex("".join(records))
    except ValueError:
        raw = b""
    # bytes.fromhex skips whitespace, so a record holding a space decodes short
    if len(raw) != BLOCK_BYTES * len(records):
        raise ValueError("hex record must hold only the digits 0-9, a-f, A-F")
    return np.frombuffer(raw, dtype=">u4").reshape(-1, STATE_WORDS).astype(np.uint32)


def to_binary(blocks) -> list[str]:
    """One 1152-digit binary record per block, each word MSB first."""
    bits = np.unpackbits(_as_blocks(blocks).astype(">u4").view(np.uint8), axis=1)
    text = (bits + ord("0")).tobytes().decode("ascii")
    return [text[i: i + BINARY_CHARS] for i in range(0, len(text), BINARY_CHARS)]


def from_binary(records: list[str]) -> np.ndarray:
    """(k, 36) uint32 blocks from k records of exactly 1152 binary digits."""
    if any(len(r) != BINARY_CHARS for r in records):
        raise ValueError(f"binary record must be {BINARY_CHARS} chars")
    bits = np.frombuffer("".join(records).encode("ascii"), dtype=np.uint8) - ord("0")
    if (bits > 1).any():
        raise ValueError("binary record must hold only the digits 0 and 1")
    return np.packbits(bits.reshape(-1, BINARY_CHARS), axis=1).view(">u4").astype(np.uint32)


def generate_dataset(
    cfg: DatasetConfig, entropy: str | None = None, batch: int = 4096
) -> np.ndarray:
    """Generate ``cfg.n_blocks`` keystream blocks as an (n, 36) uint32 array.

    Fixed mode: one key, nonces incremented from a drawn base value, counter
    zero for every block.  Variable mode: fresh key and nonce per block.  All
    key material comes from one draw: key words, then nonce words per block.
    ``entropy`` defaults to ``cfg.entropy``, the source the header records.
    """
    if entropy is None:
        entropy = cfg.entropy
    if entropy == "seeded":
        gen = SeededGenerator(cfg.rng_seed)
    elif entropy == "os":
        gen = OsEntropyGenerator()
    else:
        raise ValueError("entropy must be 'seeded' or 'os'")
    ccfg, n = cfg.cipher, cfg.n_blocks
    nonce_words = ccfg.nonce_bits // 32
    draws = 1 if cfg.mode == "fixed" else n
    drawn = gen.words((8 + nonce_words) * draws).reshape(draws, -1).T
    keys, nonces = np.broadcast_to(drawn[:8], (8, n)), drawn[8:]
    if cfg.mode == "fixed":
        nonces = word_range(nonces[:, 0], n)
    template = np.array(init_state(KeyMaterial((0,) * 8), ccfg), dtype=np.uint32)
    out = np.empty((n, STATE_WORDS), dtype=np.uint32)
    for start in range(0, n, batch):
        stop = min(start + batch, n)
        states = np.repeat(template[:, None], stop - start, axis=1)
        states[KEY_BASE:KEY_BASE + 8] = keys[:, start:stop]
        states[NONCE_BASE:NONCE_BASE + nonce_words] = nonces[:, start:stop]
        out[start:stop] = block_words_batch(states, ccfg).T
    return out


def dataset_bytes(blocks) -> bytes:
    """The blocks serialised little-endian, 144 bytes per block."""
    return _as_blocks(blocks).astype("<u4", copy=False).tobytes()


def persist(blocks, cfg: DatasetConfig, path) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(cfg.as_dict(), sort_keys=True) + "\n")
        for start in range(0, len(blocks), CHUNK_BLOCKS):
            fh.write("\n".join(to_hex(blocks[start: start + CHUNK_BLOCKS])) + "\n")


def _decode(numbered: list[tuple[int, str]]) -> np.ndarray:
    """Blocks of (line number, record) pairs; a bad record raises with its line."""
    try:
        return from_hex([record for _, record in numbered])
    except ValueError:
        for lineno, record in numbered:
            try:
                from_hex([record])
            except ValueError as exc:
                raise DatasetFormatError(str(exc), lineno) from exc
        raise


def load(path) -> tuple[np.ndarray, dict]:
    """Read a dataset file back as an (n, 36) uint32 array and its header;
    blank lines are skipped and malformed lines are reported by number."""
    with open(path) as fh:
        first = fh.readline()
        try:
            header = json.loads(first) if first else {}
        except json.JSONDecodeError as exc:
            raise DatasetFormatError(f"bad JSON header: {exc}", 1) from exc
        chunks, lineno = [np.empty((0, STATE_WORDS), dtype=np.uint32)], 2
        while lines := list(itertools.islice(fh, CHUNK_BLOCKS)):
            chunks.append(_decode([(i, line.strip()) for i, line in
                                   enumerate(lines, lineno) if line.strip()]))
            lineno += len(lines)
    return np.concatenate(chunks), header
