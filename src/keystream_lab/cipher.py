"""EChaCha20 core: 6x6 state, extended quarter round, block function, keystream.

The extended quarter round mixes four 32-bit words through six add/xor/rotate
lines with rotation amounts (16, 12, 8, 7, 4, 2).  Each line ordering is a row
table in :data:`LINE_ORDERS`: ``"native"`` (default) holds the six lines as
printed in the cipher's description; ``"rfc"`` is the RFC-style ChaCha d/b
target alternation extended with a 4-bit and a 2-bit line.

:func:`_qrf_lines` interprets the tables in place over uint32 arrays;
:func:`qrf_vec` runs it on a copy of its inputs, :func:`qrf` on one lane.
:func:`_round_step` is the round step: a quarter round in place on quads, or a
gather, quarter round and scatter per wavefront of disjoint quads on blocks.
The ``diff`` kernel and :func:`block_words_batch` run it; :func:`block`,
:func:`keystream`, :func:`xor_encrypt` and the reference 4x4 ChaCha20 block
(the first four ``rfc`` lines, rotations 16, 12, 8, 7) all run through them.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np

MASK32 = 0xFFFFFFFF
ROTATIONS = (16, 12, 8, 7, 4, 2)
CONSTANTS = (0x61707865, 0x3320646E, 0x79622D32, 0x6B206574)

STATE_WORDS = 36
BLOCK_BYTES = STATE_WORDS * 4

#: Named round-schedule presets accepted in config files.
SCHEDULE_PRESETS = {
    "echacha-colrow-v1": "native",
    "rfc-style-qrf": "rfc",
}


class CounterOverflowError(ValueError):
    """Raised when the 128-bit block counter would wrap."""


def rotl32(x: int, r: int) -> int:
    r %= 32
    if r == 0:
        return x & MASK32
    return ((x << r) | (x >> (32 - r))) & MASK32


#: Quarter-round line orderings: per line (add target, add source,
#: xor/rotate target) over the word indices a=0, b=1, c=2, d=3.
LINE_ORDERS = {
    "native": ((0, 1, 3), (1, 2, 2), (2, 3, 1), (3, 0, 2), (0, 1, 3), (1, 2, 2)),
    "rfc": ((0, 1, 3), (2, 3, 1)) * 3,
}


@functools.lru_cache(maxsize=None)
def _line_plan(lines, rotations, word_bits):
    """Per line of ``lines``, (add target, add source, xor/rotate target,
    left shift, right shift), the shifts of its rotation as read-only 0-d
    uint32 arrays: a ufunc takes them up faster than Python ints, which it
    converts on every call.  A rotation by 0 shifts right by the full width,
    which numpy defines as 0.  Keyed on the table's contents, so an edited
    table gets its own plan."""
    plan = []
    for (t, s, x), r in zip(lines, rotations):
        r %= word_bits
        shifts = np.array((r, word_bits - r), dtype=np.uint32)
        shifts.flags.writeable = False
        plan.append((t, s, x, shifts[0, ...], shifts[1, ...]))
    return tuple(plan)


def _qrf_lines(words, rotations=ROTATIONS, variant="native", word_bits=32):
    """Run the extended quarter round in place on ``words``, a (4, *shape)
    uint32 array of the words a, b, c, d, and return it.

    The lines of ``LINE_ORDERS[variant]`` run as five ufunc calls each,
    ``out`` passed positionally, into the words and one scratch buffer, line
    ``i`` rotating by ``rotations[i]`` (a shorter ``rotations`` runs only
    that many lines).  ``word_bits`` narrows the words: rotations are
    reduced mod width and each add and rotate is masked.  uint32 arithmetic
    wraps at 32 bits by itself, so full width runs unmasked.  Widths other
    than 32 exist only as verification scaffolding for exhaustive
    cross-checks at small scale.
    """
    try:
        lines = LINE_ORDERS[variant]
    except KeyError:
        raise ValueError(f"unknown qrf variant: {variant!r}") from None
    v, tmp = list(words), np.empty_like(words[0])
    mask = np.uint32((1 << word_bits) - 1) if word_bits < 32 else None
    for t, s, x, left, right in _line_plan(lines, tuple(rotations), word_bits):
        vt, vx = v[t], v[x]
        np.add(vt, v[s], vt)
        if mask is not None:
            np.bitwise_and(vt, mask, vt)
        np.bitwise_xor(vx, vt, vx)
        np.left_shift(vx, left, tmp)
        np.right_shift(vx, right, vx)
        np.bitwise_or(vx, tmp, vx)
        if mask is not None:
            np.bitwise_and(vx, mask, vx)
    return words


def qrf_vec(a, b, c, d, rotations=ROTATIONS, variant="native", word_bits=32):
    """Extended quarter round over equal-shape uint32 arrays: :func:`_qrf_lines`
    on one (4, *shape) copy of the inputs, which is returned."""
    return _qrf_lines(np.array((a, b, c, d), dtype=np.uint32), rotations, variant, word_bits)


def qrf(quad, rotations=ROTATIONS, variant="native", word_bits=32) -> tuple[int, ...]:
    """Apply one extended quarter round to ``(a, b, c, d)``: lane 0 of
    :func:`_qrf_lines`, returned as Python ints.  The quad runs as two equal
    lanes, as numpy's ufunc calls cost about twice as much on one."""
    lanes = np.array(quad, dtype=np.uint32)[:, None].repeat(2, axis=1)
    return tuple(_qrf_lines(lanes, rotations, variant, word_bits)[:, 0].tolist())


def _check_words(name: str, words, expected: int) -> tuple[int, ...]:
    words = tuple(int(w) for w in words)
    if len(words) != expected:
        raise ValueError(f"{name} must be exactly {expected} words, got {len(words)}")
    for w in words:
        if not 0 <= w <= MASK32:
            raise ValueError(f"{name} word {w:#x} outside 32-bit range")
    return words


@dataclass(frozen=True)
class KeyMaterial:
    """256-bit key, 128-bit nonce and 128-bit block counter as 32-bit words.
    :meth:`from_bytes` zero-fills a short nonce: an 8-byte nonce leaves
    n2 = n3 = 0."""

    key: tuple[int, ...]
    nonce: tuple[int, ...] = (0, 0, 0, 0)
    counter: tuple[int, ...] = (0, 0, 0, 0)

    def __post_init__(self):
        object.__setattr__(self, "key", _check_words("key", self.key, 8))
        object.__setattr__(self, "nonce", _check_words("nonce", self.nonce, 4))
        object.__setattr__(self, "counter", _check_words("counter", self.counter, 4))

    @classmethod
    def from_bytes(cls, key: bytes, nonce: bytes = b"", counter: int = 0) -> "KeyMaterial":
        if len(key) != 32:
            raise ValueError("key must be 32 bytes")
        if len(nonce) not in (0, 8, 16):
            raise ValueError("nonce must be 8 or 16 bytes")
        if not 0 <= counter < 1 << 128:
            raise ValueError("counter must be in [0, 2^128)")
        nonce = nonce.ljust(16, b"\x00")
        kw = struct.unpack("<8I", key)
        nw = struct.unpack("<4I", nonce)
        cw = tuple((counter >> (32 * i)) & MASK32 for i in range(4))
        return cls(kw, nw, cw)


@dataclass(frozen=True)
class CipherConfig:
    """Round configuration of the EChaCha20 block; ``rounds`` must be a
    positive even integer (default 20)."""

    rounds: int = 20
    schedule: str = "echacha-colrow-v1"
    padding: str = "zero"

    def __post_init__(self):
        if self.schedule not in SCHEDULE_PRESETS:
            raise ValueError(f"unknown schedule preset {self.schedule!r}")
        if self.padding not in ("zero", "constant"):
            raise ValueError(f"unknown padding rule {self.padding!r}")
        if self.rounds < 2 or self.rounds % 2 != 0:
            raise ValueError("rounds must be a positive even integer")

    @property
    def qrf_variant(self) -> str:
        """Quarter-round line ordering selected by the schedule preset."""
        return SCHEDULE_PRESETS[self.schedule]


def _quads(step: int) -> list[tuple[int, int, int, int]]:
    """The 12 quads of a round in mixing order: per j, the top quad takes
    column (j + k * step) mod 6 of row k, and the bottom quad is the top
    quad two rows lower."""
    quads = []
    for j in range(6):
        top = tuple(6 * k + (j + k * step) % 6 for k in range(4))
        quads += [top, tuple(i + 12 for i in top)]
    return quads


COLUMN_QUADS = _quads(0)
DIAGONAL_QUADS = _quads(1)


def _wavefronts(quads) -> tuple[np.ndarray, ...]:
    """Split one round's quads into waves of disjoint quads, each a (4, k)
    index array.  A quad joins the wave after the last earlier quad it shares
    a word with, so running the waves in turn equals the list order."""
    waves: list[list] = []
    wave_of: dict[int, int] = {}    # word -> wave of the last quad touching it
    for quad in quads:
        k = 1 + max((wave_of[i] for i in quad if i in wave_of), default=-1)
        if k == len(waves):
            waves.append([])
        waves[k].append(quad)
        wave_of.update(dict.fromkeys(quad, k))
    return tuple(np.array(wave).T for wave in waves)


#: Wavefronts of the even (column) and odd (diagonal) rounds.
BLOCK_WAVES = (_wavefronts(COLUMN_QUADS), _wavefronts(DIAGONAL_QUADS))
CHACHA20_WAVES = (
    _wavefronts([(0, 4, 8, 12), (1, 5, 9, 13), (2, 6, 10, 14), (3, 7, 11, 15)]),
    _wavefronts([(0, 5, 10, 15), (1, 6, 11, 12), (2, 7, 8, 13), (3, 4, 9, 14)]),
)


def init_state(km: KeyMaterial, config: CipherConfig) -> list[int]:
    """Build the 36-word initial state.

    Rows 0-3 hold constants, key, nonce, counter and four zero words; the
    nonce is always state words 12-15 (an 8-byte nonce from
    :meth:`KeyMaterial.from_bytes` leaves n2 = n3 = 0).  Rows 4-5 follow
    the configured padding rule (all-zero by default, or the four constants
    repeated cyclically with ``padding="constant"``).
    """
    pad = [0] * 12 if config.padding == "zero" else [CONSTANTS[i % 4] for i in range(12)]
    return [*CONSTANTS, *km.key, *km.nonce, *km.counter, 0, 0, 0, 0, *pad]


#: Indices of key word k0, nonce word n0 and counter word c0 in the
#: flattened state.
KEY_BASE, NONCE_BASE, COUNTER_BASE = 4, 12, 16


def word_range(base, n: int, start: int = 0) -> np.ndarray:
    """The little-endian multiword integer ``base`` plus start, start + 1,
    ..., start + n - 1, wrapped at its width (32 bits per word), as a
    (len(base), n) uint32 array."""
    out = np.empty((len(base), n), dtype=np.uint32)
    carry = np.arange(start, start + n, dtype=np.uint64)
    for i, word in enumerate(base):
        total = carry + np.uint64(word)
        out[i] = total & MASK32
        carry = total >> np.uint64(32)
    return out


def _round_step(waves=None, rotations=ROTATIONS, variant="native", word_bits=32):
    """``step(v, r)``, which runs round r in place on v: without ``waves`` one
    quarter round on a (4, ..., k) quad array, with no gather; with them the
    wavefronts of ``waves[r % 2]`` on a (words, ...) state array."""
    if waves is None:
        return lambda v, r: _qrf_lines(v, rotations, variant, word_bits)

    def step(v, r):
        for idx in waves[r % 2]:
            # take: at B = 1, v[idx] comes back transposed, with strided rows
            v[idx] = _qrf_lines(v.take(idx, axis=0), rotations, variant, word_bits)
    return step


def _run_block(states, rounds, step):
    """Run ``rounds`` rounds of ``step`` on a copy of ``states``, then add ``states`` back."""
    w = states.copy()
    for r in range(rounds):
        step(w, r)
    return w + states


def block_words_batch(states: np.ndarray, config: CipherConfig) -> np.ndarray:
    """Block function over a (36, B) uint32 state array: the (36, B) output
    words.

    Even rounds mix column quads, odd rounds mix wrapped diagonals; the
    initial state is added back word-wise (feed-forward).
    """
    if states.shape[0] != STATE_WORDS:
        raise ValueError("states must have shape (36, B)")
    states = states.astype(np.uint32, copy=False)
    return _run_block(states, config.rounds, _round_step(BLOCK_WAVES, variant=config.qrf_variant))


def block(state: list[int], config: CipherConfig) -> bytes:
    """One block of ``state``, serialised little-endian to 144 bytes."""
    if len(state) != STATE_WORDS:
        raise ValueError("state must have 36 words")
    words = block_words_batch(np.array(state, dtype=np.uint32)[:, None], config)
    return words.astype("<u4").tobytes()


def keystream(km: KeyMaterial, n_blocks: int, config: CipherConfig) -> bytes:
    """Concatenated blocks with the 128-bit counter incremented per block."""
    if n_blocks < 1:
        raise ValueError("n_blocks must be >= 1")
    state = init_state(km, config)
    first = sum(w << (32 * i) for i, w in enumerate(km.counter))
    if first + n_blocks > 1 << 128:
        raise CounterOverflowError("128-bit block counter overflow")
    states = np.repeat(np.array(state, dtype=np.uint32)[:, None], n_blocks, axis=1)
    states[COUNTER_BASE:COUNTER_BASE + 4] = word_range(km.counter, n_blocks)
    return block_words_batch(states, config).T.astype("<u4").tobytes()


def xor_encrypt(plaintext: bytes, km: KeyMaterial, config: CipherConfig) -> bytes:
    """XOR ``plaintext`` with the keystream (involution)."""
    if not plaintext:
        return b""
    n_blocks = (len(plaintext) + BLOCK_BYTES - 1) // BLOCK_BYTES
    ks = np.frombuffer(keystream(km, n_blocks, config), np.uint8, len(plaintext))
    return (np.frombuffer(plaintext, np.uint8) ^ ks).tobytes()


# --- reference 4x4 ChaCha20 ------------------------------------------------

def chacha20_block(km: KeyMaterial) -> bytes:
    """Standard 20-round ChaCha20 block (64 bytes).

    Uses counter word c0 and nonce words n0..n2; the remaining counter and
    nonce words must be zero to fit the 4x4 layout.
    """
    if any(km.counter[1:]) or km.nonce[3]:
        raise ValueError("chacha20 uses a 32-bit counter and 96-bit nonce")
    states = np.array([CONSTANTS + km.key + km.counter[:1] + km.nonce[:3]], np.uint32).T
    out = _run_block(states, 20, _round_step(CHACHA20_WAVES, ROTATIONS[:4], "rfc"))
    return out.astype("<u4").tobytes()
