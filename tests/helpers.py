"""Independent oracles used to cross-check the package implementation.

These are deliberate re-transcriptions, kept separate from the package code
paths they verify.
"""

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


def qrf_inverse(a, b, c, d):
    # the six lines run backwards, each inverted
    c = rot(c, -2) ^ b
    b = (b - c) & M32
    d = rot(d, -4) ^ a
    a = (a - b) & M32
    c = rot(c, -7) ^ d
    d = (d - a) & M32
    b = rot(b, -8) ^ c
    c = (c - d) & M32
    c = rot(c, -12) ^ b
    b = (b - c) & M32
    d = rot(d, -16) ^ a
    a = (a - b) & M32
    return a, b, c, d


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
