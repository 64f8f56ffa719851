"""Keystream dataset generation, hex encoding, and file persistence.

A dataset is an (n, 36) uint32 array, one row of output words per block.
Datasets are deterministic functions of their config: key and nonce material
comes from a seeded BLAKE2b counter-mode generator (switchable to the OS
entropy source for non-reproducible runs).  Fixed-key mode keeps one key and
increments the base nonce per block; variable-key mode draws fresh key and
nonce material for every block.

File format: a JSON header line with the config and ``format_version`` 1,
then one 288-character hex record per block, as many as its ``n_blocks``.
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
        if n < 0:
            raise ValueError("byte count must be >= 0")
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
        if not 0 <= self.rng_seed < 1 << 64:
            raise ValueError("rng_seed must be in [0, 2^64)")
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
CHUNK_BLOCKS = 4096  # blocks per cipher batch in generate_dataset
RECORD_SLICE = 256  # records per step in persist and load


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
    if set(map(len, records)) - {HEX_CHARS}:
        raise ValueError(f"hex record must be {HEX_CHARS} chars")
    try:
        raw = bytes.fromhex("".join(records))
    except ValueError:
        raw = b""
    # bytes.fromhex skips whitespace, so a record holding a space decodes short
    if len(raw) != BLOCK_BYTES * len(records):
        raise ValueError("hex record must hold only the digits 0-9, a-f, A-F")
    return np.frombuffer(raw, dtype=">u4").reshape(-1, STATE_WORDS).astype(np.uint32)


def generate_dataset(cfg: DatasetConfig) -> np.ndarray:
    """Generate ``cfg.n_blocks`` keystream blocks as an (n, 36) uint32 array.

    Fixed mode: one key, nonces incremented from a drawn base value, counter
    zero for every block.  Variable mode: fresh key and nonce per block.  Key
    material comes from the source ``cfg.entropy`` names, in one stream: key
    words, then nonce words per block.  Each ``CHUNK_BLOCKS`` chunk draws its
    own part of the stream just before its cipher batch, so no more than one
    chunk's material is held.
    """
    gen = SeededGenerator(cfg.rng_seed) if cfg.entropy == "seeded" else OsEntropyGenerator()
    ccfg, n = cfg.cipher, cfg.n_blocks
    nonce_words = ccfg.nonce_bits // 32
    if cfg.mode == "fixed":
        key, base = np.split(gen.words(8 + nonce_words), [8])
    template = np.array(init_state(KeyMaterial((0,) * 8), ccfg), dtype=np.uint32)
    out = np.empty((n, STATE_WORDS), dtype=np.uint32)
    for start in range(0, n, CHUNK_BLOCKS):
        size = min(CHUNK_BLOCKS, n - start)
        if cfg.mode == "fixed":
            keys, nonces = key[:, None], word_range(base, size, start)
        else:
            drawn = gen.words((8 + nonce_words) * size).reshape(size, -1).T
            keys, nonces = drawn[:8], drawn[8:]
        states = np.repeat(template[:, None], size, axis=1)
        states[KEY_BASE:KEY_BASE + 8] = keys
        states[NONCE_BASE:NONCE_BASE + nonce_words] = nonces
        out[start:start + size] = block_words_batch(states, ccfg).T
    return out


def dataset_bytes(blocks) -> bytes:
    """The blocks serialised little-endian, 144 bytes per block."""
    return _as_blocks(blocks).astype("<u4", copy=False).tobytes()


def persist(blocks, cfg: DatasetConfig, path) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(cfg.as_dict(), sort_keys=True) + "\n")
        for start in range(0, len(blocks), RECORD_SLICE):
            fh.write("\n".join(to_hex(blocks[start: start + RECORD_SLICE])) + "\n")


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
    blank lines are skipped and malformed lines, those that are not UTF-8
    included, are reported by number.  An empty file loads as no blocks with
    the header ``{}``."""
    # a byte that is not UTF-8 reads as a lone surrogate: it fails the
    # header's encode and a record's hex digit check
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        first = fh.readline()
        try:
            first.encode("utf-8")
            header = json.loads(first) if first else {}
        except ValueError as exc:   # not UTF-8, or not JSON
            raise DatasetFormatError(f"bad JSON header: {exc}", 1) from exc
        version = header.get("format_version") if isinstance(header, dict) else None
        if first and not (type(version) is int and version == FORMAT_VERSION):
            raise DatasetFormatError(
                f"header must be a JSON object with format_version {FORMAT_VERSION}", 1)
        # the header's n_blocks sizes the array, capped by the records the
        # file can hold (each line has 288 digits and a newline, the last
        # maybe not); records past that room, as in a file without n_blocks
        # read from a pipe, are kept aside and joined on at the end
        expected = header.get("n_blocks")
        room = os.fstat(fh.fileno()).st_size // (HEX_CHARS + 1) + 1
        if type(expected) is int and 0 <= expected < room:
            room = expected
        blocks = np.empty((room, STATE_WORDS), dtype=np.uint32)
        spill, count, lineno = [], 0, 2
        while lines := list(itertools.islice(fh, RECORD_SLICE)):
            part = _decode([(i, record) for i, line in enumerate(lines, lineno)
                            if (record := line.strip())])
            fit = blocks[count: count + len(part)]
            fit[...] = part[: len(fit)]
            if len(fit) < len(part):
                spill.append(part[len(fit):])
            count += len(part)
            lineno += len(lines)
    if expected is not None and not (type(expected) is int and expected == count):
        raise DatasetFormatError(
            f"header says n_blocks={json.dumps(expected)}, but the file holds "
            f"{count} records", 1)
    return (np.concatenate((blocks, *spill)) if spill else blocks[:count]), header
