"""Independent oracles used to cross-check the package implementation.

These are deliberate re-transcriptions, kept separate from the package code
paths they verify.  :func:`traced_peak` measures a call's working set.
"""

import math
import tracemalloc

import numpy as np

M32 = 0xFFFFFFFF


def rot(x, r, bits=32):
    r %= bits
    mask = (1 << bits) - 1
    return ((x << r) & mask) | ((x & mask) >> (bits - r))


def qrf_forward(a, b, c, d):
    # straight-line transcription of the six extended quarter-round lines
    a = (a + b) & M32
    d = rot(d ^ a, 16)
    b = (b + c) & M32
    c = rot(c ^ b, 12)
    c = (c + d) & M32
    b = rot(b ^ c, 8)
    d = (d + a) & M32
    c = rot(c ^ d, 7)
    a = (a + b) & M32
    d = rot(d ^ a, 4)
    b = (b + c) & M32
    c = rot(c ^ b, 2)
    return a, b, c, d


# The lines of qrf_forward and qrf_rfc as (add target, add source, xor/rotate
# target) over the word indices a=0, b=1, c=2, d=3.
LINES = {
    "native": ((0, 1, 3), (1, 2, 2), (2, 3, 1), (3, 0, 2), (0, 1, 3), (1, 2, 2)),
    "rfc": ((0, 1, 3), (2, 3, 1)) * 3,
}


def qrf_inverse(a, b, c, d, rotations=(16, 12, 8, 7, 4, 2), variant="native", bits=32):
    """The quarter round undone: the lines of ``LINES[variant]`` run backwards,
    each inverted; ``bits`` narrows the words as in :func:`qrf_small`."""
    mask = (1 << bits) - 1
    v = [a, b, c, d]
    for (t, s, x), r in reversed(list(zip(LINES[variant], rotations))):
        v[x] = rot(v[x], -r, bits) ^ v[t]
        v[t] = (v[t] - v[s]) & mask
    return tuple(v)


def qrf_rfc(a, b, c, d, bits=32):
    """Straight-line transcription of the rfc line ordering (ChaCha's d/b
    target alternation extended with a 4-bit and a 2-bit line); ``bits``
    narrows the words as in :func:`qrf_small`."""
    mask = (1 << bits) - 1
    a = (a + b) & mask
    d = rot(d ^ a, 16, bits)
    c = (c + d) & mask
    b = rot(b ^ c, 12, bits)
    a = (a + b) & mask
    d = rot(d ^ a, 8, bits)
    c = (c + d) & mask
    b = rot(b ^ c, 7, bits)
    a = (a + b) & mask
    d = rot(d ^ a, 4, bits)
    c = (c + d) & mask
    b = rot(b ^ c, 2, bits)
    return a, b, c, d


def reference_block(state, rounds=20, quarter_round=qrf_forward):
    """Independent 6x6 block function over the documented schedule;
    ``quarter_round(a, b, c, d)`` selects the line ordering."""
    w = list(state)

    def mix(ai, bi, ci, di):
        w[ai], w[bi], w[ci], w[di] = quarter_round(w[ai], w[bi], w[ci], w[di])

    for r in range(rounds):
        if r % 2 == 0:
            for col in range(6):
                mix(col, col + 6, col + 12, col + 18)
                mix(col + 12, col + 18, col + 24, col + 30)
        else:
            for j in range(6):
                mix(j, 6 + (j + 1) % 6, 12 + (j + 2) % 6, 18 + (j + 3) % 6)
                mix(12 + j, 18 + (j + 1) % 6, 24 + (j + 2) % 6, 30 + (j + 3) % 6)
    out = [(x + y) & M32 for x, y in zip(w, state)]
    import struct

    return struct.pack("<36I", *out)


def qrf_small(quad, bits):
    """Reduced-width quarter round (rotations mod width); verification
    scaffolding for exhaustive cross-checks."""
    mask = (1 << bits) - 1
    a, b, c, d = quad
    a = (a + b) & mask
    d = rot(d ^ a, 16, bits)
    b = (b + c) & mask
    c = rot(c ^ b, 12, bits)
    c = (c + d) & mask
    b = rot(b ^ c, 8, bits)
    d = (d + a) & mask
    c = rot(c ^ d, 7, bits)
    a = (a + b) & mask
    d = rot(d ^ a, 4, bits)
    b = (b + c) & mask
    c = rot(c ^ b, 2, bits)
    return a, b, c, d


def avalanche_reference(rounds, trials, rotations, variant, rng_seed, qrf_vec):
    """The per-row avalanche loop: one (4, trials) draw per input bit row,
    ``rounds`` applications of ``qrf_vec`` to both sides, and the output bit
    flips counted by unpacking the difference words.  Returns the (128, 128)
    flip-probability matrix."""
    rng = np.random.default_rng(rng_seed)
    matrix = np.zeros((128, 128), dtype=np.float64)
    for row in range(128):
        x = rng.integers(0, 1 << 32, (4, trials), dtype=np.uint32)
        xp = x.copy()
        xp[row // 32] ^= np.uint32(1 << (row % 32))
        y, yp = x, xp
        for _ in range(rounds):
            y = qrf_vec(*y, rotations=rotations, variant=variant)
            yp = qrf_vec(*yp, rotations=rotations, variant=variant)
        d = np.stack([a ^ b for a, b in zip(y, yp)])
        # bit j of word w is entry [w, :, j] of the little-endian unpacking
        bits = np.unpackbits(d.astype("<u4").view(np.uint8).reshape(4, trials, 4),
                             axis=2, bitorder="little")
        matrix[row] = bits.sum(axis=1).ravel() / trials
    return matrix


# --- search engines ---------------------------------------------------------
# Straight transcriptions of the plain-Python engine loops, each comparison
# counted where it is made.  Each returns (positions, comparisons,
# windows_scanned) for symbol tuples ``t`` and ``p``.

def brute_reference(t, p):
    n, m = len(t), len(p)
    positions, comparisons = [], 0
    for s in range(n - m + 1):
        j = 0
        while j < m:
            comparisons += 1
            if t[s + j] != p[j]:
                break
            j += 1
        if j == m:
            positions.append(s)
    return positions, comparisons, 0


def kmp_reference(t, p, pi):
    """``pi`` is the prefix table, pi[i] the longest proper border of p[:i+1]."""
    n, m = len(t), len(p)
    positions, comparisons = [], 0
    j = 0
    for i in range(n):
        while True:
            comparisons += 1
            if t[i] == p[j]:
                j += 1
                break
            if j == 0:
                break
            j = pi[j - 1]
        if j == m:
            positions.append(i - m + 1)
            j = pi[j - 1]
    return positions, comparisons, 0


def bm_reference(t, p, last, gs):
    """``last`` maps a symbol to its rightmost index in p; ``gs[k]`` is the
    good-suffix shift after k matched symbols."""
    n, m = len(t), len(p)
    positions, comparisons = [], 0
    s = 0
    while s <= n - m:
        j = m - 1
        while j >= 0:
            comparisons += 1
            if p[j] != t[s + j]:
                break
            j -= 1
        if j < 0:
            positions.append(s)
            shift = gs[m]
        else:
            k = m - 1 - j
            bad = last.get(t[s + j], -1)
            shift = max(gs[k], j - bad, 1)
        s += shift
    return positions, comparisons, 0


def hybrid_reference(t, p, wlen):
    """One pattern through the windowed scan with ``wlen``-symbol windows."""
    n, m = len(t), len(p)
    jump = {}
    for idx in range(m - 1):
        jump[p[idx]] = m - 1 - idx
    positions, comparisons, windows = [], 0, 0
    n_windows = max(0, math.ceil((n - m + 1) / wlen)) if n >= m else 0
    for w in range(n_windows):
        windows += 1
        start = w * wlen
        stop = min((w + 1) * wlen, n - m + 1)
        s = start
        while s < stop:
            last_sym = t[s + m - 1]
            comparisons += 1
            if last_sym == p[m - 1]:
                j = 0
                while j < m - 1:
                    comparisons += 1
                    if t[s + j] != p[j]:
                        break
                    j += 1
                if j == m - 1:
                    positions.append(s)
            s += jump.get(last_sym, m)
    return positions, comparisons, windows


def collision_reference(delta, cfg, qrf_vec, batch, word_bits=32):
    """The one-delta collision loop: per batch of ``batch`` trials one
    (quads, 4, n) draw, each quad of both sides through ``rounds``
    applications of ``qrf_vec``, and the weight of y xor y' summed over the
    quads.  Returns {round: (full, partial)} for ``cfg.rounds``."""
    n_quads = len(delta) // 4
    dq = np.array(delta, dtype=np.uint32).reshape(n_quads, 4, 1)
    rng = np.random.default_rng(cfg.rng_seed)
    counts = {r: [0, 0] for r in cfg.rounds}
    for start in range(0, cfg.trials, batch):
        n = min(batch, cfg.trials - start)
        x = rng.integers(0, 1 << word_bits, (n_quads, 4, n), dtype=np.uint32)
        y, yp = list(x), list(x ^ dq)
        for r in range(1, max(cfg.rounds) + 1):
            y = [qrf_vec(*q, word_bits=word_bits) for q in y]
            yp = [qrf_vec(*q, word_bits=word_bits) for q in yp]
            if r in cfg.rounds:
                hw = sum(np.bitwise_count(a ^ b).sum(axis=0) for a, b in zip(y, yp))
                counts[r][0] += int(np.count_nonzero(hw == 0))
                counts[r][1] += int(np.count_nonzero((hw > 0) & (hw <= cfg.partial_threshold_bits)))
    return {r: tuple(c) for r, c in counts.items()}


def flipped_bits_reference(n, rounds, rotations, rng_seed, qrf_vec):
    """The sweep's diffusion loop on whole arrays: one (4, n) draw of quads,
    then the flipped word and bit of each quad, ``rounds`` applications of
    ``qrf_vec`` to both sides, and the weight of y xor y' per quad."""
    rng = np.random.default_rng(rng_seed ^ 0x5EED)
    x = rng.integers(0, 1 << 32, (4, n), dtype=np.uint32)
    word = rng.integers(0, 4, n)
    bit = rng.integers(0, 32, n, dtype=np.uint32)
    xp = x.copy()
    xp[word, np.arange(n)] ^= np.uint32(1) << bit
    y, yp = x, xp
    for _ in range(rounds):
        y = qrf_vec(*y, rotations=rotations)
        yp = qrf_vec(*yp, rotations=rotations)
    return sum(np.bitwise_count(a ^ b).astype(np.int64) for a, b in zip(y, yp))


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc traces above the starting level while
    ``fn()`` runs.  ``fn`` is called once untraced first, so one-time
    imports and caches are not counted."""
    fn()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
