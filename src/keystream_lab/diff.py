"""Rotational-differential harness over the extended quarter round.

Trials pair a uniform random quad x with x xor delta, run both through r
quarter rounds, and classify the output difference by Hamming weight.  Since
the quarter round is a bijection, the output difference for a nonzero delta
can never be exactly zero; the headline collision metric is therefore the
near-collision rate: output difference weight at most ``partial_threshold_bits``
(weight zero, only reachable with delta = 0, is tracked separately).

Every paired evaluation (collision trials, avalanche and the sweep's
diffusion half) runs through one kernel, ``_paired_chunks``: x and one
x' = x xor delta per delta run in place, ``_LANES`` lanes at a time, and
y xor y' is read off after each reported round.  The working set is fixed:
every campaign reads each chunk's words straight from the rng stream
(``_drawn_chunks``), and x', y xor y' and the chunk words sit in buffers
allocated once per call.  The avalanche counts the
output-bit flips of each chunk with one positional popcount,
``_bit_counts``, whose byte fields each sum at most 255 lanes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._tails import binom_upper
from .cipher import ROTATIONS, _qrf_lines, rotl32, MASK32, _check_words

_IDEAL_BOUND = 2.0 ** -32
_BATCH = 1 << 20    # trials per batch; fixed, as the order of the rng words depends on it
# lanes per kernel chunk, and per avalanche row group, whose flips _bit_counts
# sums in blocks of _FIELD_LANES lanes; measured on the default diff: 2^13
# takes 25 % longer, 2^15 10 % less but peaks 2.5 MiB higher
_LANES = 1 << 14
_FIELD_LANES = 255  # lanes per _bit_counts block: a byte field holds 255 one-bits


def _lane_chunks(n: int):
    """Slices of at most ``_LANES`` lanes covering range(n), in order."""
    return (slice(start, min(start + _LANES, n)) for start in range(0, n, _LANES))


def _words(bitgen, count: int, skip: int) -> np.ndarray:
    """Words ``skip`` to ``skip + count - 1`` of the uint32 stream that
    ``Generator(bitgen).integers(0, 2**32, dtype=np.uint32)`` draws next,
    read as the little-endian halves of PCG64's raw 64-bit outputs: word 2i
    is the low half of output i, word 2i + 1 its high half.  PCG64 is an LCG
    underneath, so ``advance`` reaches output ``skip // 2`` in O(log skip)
    steps (O'Neill, HMC-CS-2014-0905).  ``bitgen`` must hold no buffered
    half word; it is left after the last output read, which for an even
    ``skip + count`` is where ``integers`` would leave it."""
    bitgen.advance(skip // 2)
    odd = skip % 2
    raw = bitgen.random_raw((odd + count + 1) // 2)
    return raw.astype("<u8", copy=False).view("<u4")[odd:odd + count].astype(np.uint32, copy=False)


def _drawn_chunks(rng, draws, word_bits: int = 32):
    """Draw ``rng.integers(0, 1 << word_bits, (rows, n), dtype=np.uint32)``
    for each (rows, n) of ``draws`` in turn, and yield (j, x) for each
    chunk of draw j, in order: x is the (rows, k) array of its next k
    columns, k at most ``_LANES``.

    At 32 bits no draw is held whole.  Row i's words for lanes [s, s + k)
    sit at offset i * n + s of the draw's stream, and each chunk reads them
    with :func:`_words` from a copy of rng's state into one buffer, refilled
    per chunk: x is valid until the generator resumes.  After each draw rng
    is advanced to where ``integers`` would leave it, so ``rows * n`` must be
    even.  Narrower words come from rejection sampling, which cannot be
    jumped, and each of their draws is taken whole.
    """
    if word_bits < 32:
        for j, (rows, n) in enumerate(draws):
            x = rng.integers(0, 1 << word_bits, (rows, n), dtype=np.uint32)
            for lanes in _lane_chunks(n):
                yield j, x[:, lanes]
        return
    buf = np.empty(max(rows * min(n, _LANES) for rows, n in draws), dtype=np.uint32)
    bitgen = np.random.PCG64(0)
    for j, (rows, n) in enumerate(draws):
        state = rng.bit_generator.state
        for lanes in _lane_chunks(n):
            k = lanes.stop - lanes.start
            x = buf[:rows * k].reshape(rows, k)
            for i, row in enumerate(x):
                bitgen.state = state
                row[:] = _words(bitgen, k, i * n + lanes.start)
            yield j, x
        rng.bit_generator.advance(rows * n // 2)


def _quads(x) -> np.ndarray:
    """The (4 * m, k) chunk x as a (4, m, k) view: [i, j, t] is word i of
    quad j of lane t."""
    return x.reshape(-1, 4, x.shape[-1]).transpose(1, 0, 2)


def _paired_chunks(chunks, report, rotations=ROTATIONS, variant="native", word_bits=32):
    """The paired-evaluation kernel.  ``chunks`` yields (tag, y, deltas): y
    a (4, ..., k) uint32 array of at most ``_LANES`` lanes per row,
    overwritten in place, and deltas the arrays d that broadcast to it.
    Each y and its y' = y xor d for each d run through ``max(report)``
    quarter rounds; after each round r in ``report`` (0 included), yield
    (r, tag, ds): ds yields y xor y' for each delta in turn.

    y' and y xor y' live in one buffer, allocated on the first chunk (again
    only for a larger one) and refilled per chunk, so a yielded difference
    is valid until the generator resumes.
    """
    buf = np.empty(0, dtype=np.uint32)
    for tag, y, deltas in chunks:
        size = (len(deltas) + 1) * y.size
        if buf.size < size:
            buf = np.empty(size, dtype=np.uint32)
        *yps, d = buf[:size].reshape(len(deltas) + 1, *y.shape)
        for yp, delta in zip(yps, deltas):
            np.bitwise_xor(y, delta, out=yp)
        for r in range(max(report) + 1):
            if r:
                for v in (y, *yps):
                    _qrf_lines(v, rotations, variant, word_bits)
            if r in report:
                yield r, tag, (np.bitwise_xor(y, yp, out=d) for yp in yps)


def _bit_counts(d) -> np.ndarray:
    """Positional popcount of the (words, rows, n) uint32 array d: entry
    [row, 32 * w + b] is how many of the n lanes of ``row`` have bit b of
    word w set.

    Each pass j = 0..7 moves bit j of every byte into bit 0 of that byte's
    field, (d >> j) & 0x01010101, and sums the words over blocks of
    ``_FIELD_LANES`` (255) lanes: a field then counts at most 255 one-bits,
    so none carries into the next (SWAR; Klarqvist, Mula & Lemire,
    arXiv:1911.02696).  The block sums' byte fields are split by arithmetic,
    independent of host byte order, and summed exactly in int64.
    """
    starts = np.arange(0, d.shape[-1], _FIELD_LANES)
    bits, low = np.empty_like(d), np.uint32(0x01010101)
    # sums[j, w, row, block]: the block's field f holds bit 8f + j of word w
    sums = np.empty((8, *d.shape[:-1], len(starts)), dtype=np.uint32)
    for j in range(8):
        np.right_shift(d, np.uint32(j), out=bits)
        np.bitwise_and(bits, low, out=bits)
        np.add.reduceat(bits, starts, axis=-1, dtype=np.uint32, out=sums[j])
    fields = (sums[..., None] >> np.arange(0, 32, 8, dtype=np.uint32)) & np.uint32(0xFF)
    # [j, w, row, f] -> [row, w, f, j]: bit 32 * w + 8 * f + j
    counts = fields.sum(axis=3, dtype=np.int64).transpose(2, 1, 3, 0)
    return counts.reshape(len(counts), -1)


def seed_delta(pattern_words, k: int) -> tuple[int, ...]:
    """Derive an input difference from pattern words.

    Each delta word is rotl(p, k) xor rotl((p << k) mod 2^32, k): the same
    k-bit rotation applied to the word and to its non-rotating left shift.
    k = 0 or p = 0 give a zero word.
    """
    if not 0 <= k < 32:
        raise ValueError("shift amount k must be in [0, 32)")
    words = tuple(pattern_words)
    words = _check_words("pattern", words, len(words))
    if not words:
        raise ValueError("pattern yields no words")
    return tuple(rotl32(p, k) ^ rotl32((p << k) & MASK32, k) for p in words)


@dataclass(frozen=True)
class TrialConfig:
    trials: int = 1 << 20
    rounds: tuple[int, ...] = (1, 2, 4, 8)
    partial_threshold_bits: int = 4
    rng_seed: int = 0

    def __post_init__(self):
        if self.trials < 1 << 10:
            raise ValueError("trials must be >= 2^10")
        if not self.rounds:
            raise ValueError("rounds set must be nonempty")
        if min(self.rounds) < 1:
            raise ValueError("round counts must be >= 1")
        if self.partial_threshold_bits < 0:
            raise ValueError("partial_threshold_bits must be >= 0")
        object.__setattr__(self, "rounds", tuple(sorted(set(self.rounds))))


@dataclass
class CollisionStats:
    rounds: int
    trials: int
    full_collisions: int        # output difference exactly zero
    partial_collisions: int     # 0 < weight <= threshold
    p_hat: float                # (full + partial) / trials
    sigma: float                # binomial standard error of p_hat
    passes_bound: bool          # p_hat < 2^-32 + 3 sigma
    p_upper: float              # one-sided 95 % Clopper-Pearson upper bound on p

    @property
    def collisions(self) -> int:
        return self.full_collisions + self.partial_collisions

    def as_dict(self) -> dict:
        return {
            "rounds": self.rounds,
            "trials": self.trials,
            "full_collisions": self.full_collisions,
            "partial_collisions": self.partial_collisions,
            "collisions": self.collisions,
            "p_hat": self.p_hat,
            "sigma": self.sigma,
            "passes_bound": self.passes_bound,
            "p_upper": self.p_upper,
        }


def _make_stats(rounds: int, trials: int, full: int, partial: int) -> CollisionStats:
    k = full + partial
    p_hat = k / trials
    sigma = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    passes = p_hat < _IDEAL_BOUND + 3.0 * sigma
    p_upper = binom_upper(k, trials, 0.95)
    return CollisionStats(rounds, trials, full, partial, p_hat, sigma, passes, p_upper)


def collision_trials(deltas, cfg: TrialConfig, rotations=ROTATIONS,
                     word_bits: int = 32) -> list[dict[int, CollisionStats]]:
    """Per-round collision statistics for each input difference in
    ``deltas``, in order.

    A delta holds 4 words (one quad) or 8 (two quads evaluated jointly, with
    the difference weight summed over both).  Each delta's trials are drawn
    from ``cfg.rng_seed`` as if it ran alone, so the deltas of one width
    share x and its trajectory.
    """
    deltas = [tuple(int(d) for d in delta) for delta in deltas]
    for delta in deltas:
        if len(delta) not in (4, 8):
            raise ValueError("delta must hold 4 or 8 words")
        if any(not 0 <= d < 1 << word_bits for d in delta):
            raise ValueError(f"delta words must be in [0, 2^{word_bits})")
    # [k, r]: trials of delta k whose weight after r rounds is 0, and <= threshold;
    # an all-zero delta has y' = y, weight 0 in every trial, and runs no trajectory
    full = np.zeros((len(deltas), max(cfg.rounds) + 1), dtype=np.int64)
    full[[not any(delta) for delta in deltas]] = cfg.trials
    near = full.copy()
    for n_quads in (1, 2):
        group = [k for k, delta in enumerate(deltas) if len(delta) == 4 * n_quads and any(delta)]
        if group:
            full[group], near[group] = _weight_counts(
                [deltas[k] for k in group], cfg, rotations, word_bits)
    return [{r: _make_stats(r, cfg.trials, int(f[r]), int(m[r] - f[r])) for r in cfg.rounds}
            for f, m in zip(full, near)]


def _weight_counts(deltas, cfg: TrialConfig, rotations, word_bits: int):
    """(full, near): [k, r] counts the trials of ``deltas[k]``, all of one
    width, whose output difference weight after r rounds is 0, and at most
    the threshold.  Batch b of n trials is the (n_quads, 4, n) draw
    ``rng.integers(0, 1 << word_bits, ...)`` from ``cfg.rng_seed``, read
    chunk by chunk; the buffers of this call are freed on return."""
    n_quads = len(deltas[0]) // 4
    full = np.zeros((len(deltas), max(cfg.rounds) + 1), dtype=np.int64)
    near = full.copy()
    # dqs[k][i, q, 0] is word i of quad q of difference k
    dqs = [np.array(delta, dtype=np.uint32).reshape(n_quads, 4).T[:, :, None]
           for delta in deltas]
    draws = [(4 * n_quads, min(_BATCH, cfg.trials - start))
             for start in range(0, cfg.trials, _BATCH)]
    rng = np.random.default_rng(cfg.rng_seed)
    chunks = ((None, _quads(x), dqs) for _, x in _drawn_chunks(rng, draws, word_bits))
    for r, _, ds in _paired_chunks(chunks, cfg.rounds, rotations, word_bits=word_bits):
        for k, d in enumerate(ds):
            hw = np.bitwise_count(d).sum(axis=(0, 1), dtype=np.uint16)
            full[k, r] += np.count_nonzero(hw == 0)
            near[k, r] += np.count_nonzero(hw <= cfg.partial_threshold_bits)
    return full, near


def collision_trial_batch(delta, cfg: TrialConfig, rotations=ROTATIONS,
                          word_bits: int = 32) -> dict[int, CollisionStats]:
    """Per-round collision statistics for one input difference: the
    one-delta case of :func:`collision_trials`."""
    return collision_trials([delta], cfg, rotations, word_bits)[0]


def default_delta_set(seed_patterns=None) -> list[tuple[int, ...]]:
    """Default input differences for the campaign.

    Sparse single-bit differences in the c and d lanes (the slowest-diffusing
    injection points after one round), shift-seeded differences, and one
    dense pattern-seeded difference.  Extra patterns, e.g. frequent m-grams
    from a keystream scan, extend the set via ``seed_patterns``.
    """
    deltas = [
        (0, 0, 0x80000000, 0),
        (0, 0, 0, 0x80000000),
        (0, 0, 0, 1),
        (0, 0, 0, seed_delta((1,), 1)[0]),
        (0, 0, seed_delta((1,), 3)[0], 0),
        (0xDEADBEEF, 0x61707865, 0x3320646E, 0x9E3779B9),
    ]
    for p in seed_patterns or []:
        deltas.append(seed_delta((0, 0, p, p), 5))
    return deltas


@dataclass
class AvalancheProfile:
    """Flip-probability matrix: entry [i, j] is the probability that flipping
    input bit i of the 128-bit quad flips output bit j after ``rounds``
    quarter rounds.  Bits are numbered word-major (word index * 32 + bit)."""

    matrix: np.ndarray
    trials: int
    rounds: int

    @property
    def word_means(self) -> np.ndarray:
        """Mean flip probability per output word (averaged over all input
        flip positions and output bit positions)."""
        return self.matrix.mean(axis=0).reshape(4, 32).mean(axis=1)

    @property
    def word_profiles(self) -> np.ndarray:
        """Per-output-bit flip probability, shape (4, 32), averaged over
        input flip positions."""
        return self.matrix.mean(axis=0).reshape(4, 32)


def avalanche_profile(
    rounds: int,
    trials: int,
    rotations=ROTATIONS,
    qrf_variant: str = "native",
    rng_seed: int = 0,
) -> AvalancheProfile:
    """Measure per-bit flip probabilities of the quarter round.

    For each of the 128 input bit positions, ``trials`` random quads are
    evaluated with and without that bit flipped and output bit flips are
    counted.  rounds=0 is the identity map (exact indicator profile).

    Rows run in groups of ``max(1, _LANES // trials)``, side by side as one
    (4, rows, trials) lane array through the kernel, the flipped bit of each
    row broadcast over its trials.  A group's words are one
    (rows, 4, trials) draw, the same rng stream as a (4, trials) draw per
    row, read chunk by chunk by :func:`_drawn_chunks`.  Flips are counted
    exactly on each kernel chunk by :func:`_bit_counts`, a positional
    popcount whose byte fields sum at most 255 lanes at a time.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if rounds < 0:
        raise ValueError("rounds must be >= 0")
    rng = np.random.default_rng(rng_seed)
    counts = np.zeros((128, 128), dtype=np.int64)
    # flip[:, i] flips input bit i: bit i % 32 of word i // 32
    bits = np.arange(128)
    flip = np.zeros((4, 128, 1), dtype=np.uint32)
    flip[bits // 32, bits, 0] = np.uint32(1) << (bits % 32).astype(np.uint32)
    step = max(1, _LANES // trials)
    groups = [slice(start, min(start + step, 128)) for start in range(0, 128, step)]
    draws = [(4 * (rows.stop - rows.start), trials) for rows in groups]
    # quad j of a chunk is the group's row j
    chunks = ((groups[g], _quads(x), [flip[:, groups[g]]])
              for g, x in _drawn_chunks(rng, draws))
    for _, rows, (dl,) in _paired_chunks(chunks, (rounds,), rotations, qrf_variant):
        counts[rows] += _bit_counts(dl)
    return AvalancheProfile(counts / trials, trials, rounds)


@dataclass
class SweepResult:
    rotations: tuple[int, ...]
    collision: CollisionStats       # at the largest configured round count
    mean_flipped_bits: float
    flipped_bits_se: float

    def as_dict(self) -> dict:
        return {
            "rotations": list(self.rotations),
            "collision_p_hat": self.collision.p_hat,
            "collision_passes_bound": self.collision.passes_bound,
            "mean_flipped_bits": self.mean_flipped_bits,
            "flipped_bits_se": self.flipped_bits_se,
        }


def rotation_sweep(constant_sets, cfg: TrialConfig) -> list[SweepResult]:
    """Collision and diffusion metrics for substituted rotation constants.

    Collisions are counted for the input difference 2^31 in word d.  Mean
    flipped bits are measured on single-bit input differences after the
    largest configured round count (where diffusion has saturated for any
    rotation amounts in [1, 31]).
    """
    results = []
    max_round = max(cfg.rounds)
    for rotations in constant_sets:
        rotations = tuple(int(r) for r in rotations)
        if len(rotations) != 6 or any(not 1 <= r <= 31 for r in rotations):
            raise ValueError(f"rotation set {rotations} must be six amounts in [1, 31]")
        delta = (0, 0, 0, 0x80000000)
        collision = collision_trial_batch(delta, cfg, rotations)[max_round]
        hw = _flipped_bits(min(cfg.trials, 1 << 16), max_round, rotations, cfg.rng_seed)
        mean = float(hw.mean())
        se = float(hw.std(ddof=1) / math.sqrt(len(hw)))
        results.append(SweepResult(rotations, collision, mean, se))
    return results


def _flipped_bits(n: int, rounds: int, rotations, rng_seed: int) -> np.ndarray:
    """Weight of the output difference after ``rounds`` rounds for n random
    quads, each with one random input bit flipped.  The rng stream holds
    the (4, n) quads (2n raw outputs), then each quad's flipped word and
    bit: those are drawn first, from a generator advanced past the quads,
    and the quads are then read chunk by chunk."""
    tail = np.random.default_rng(rng_seed ^ 0x5EED)
    tail.bit_generator.advance(2 * n)
    word = tail.integers(0, 4, n)
    bit = tail.integers(0, 32, n, dtype=np.uint32)
    rng = np.random.default_rng(rng_seed ^ 0x5EED)
    chunks = ((lanes, x, [np.where(word[lanes] == np.arange(4)[:, None],
                                   np.uint32(1) << bit[lanes], np.uint32(0))])
              for lanes, (_, x) in zip(_lane_chunks(n), _drawn_chunks(rng, [(4, n)])))
    hw = np.empty(n, dtype=np.int64)
    for _, lanes, (d,) in _paired_chunks(chunks, (rounds,), rotations):
        hw[lanes] = np.bitwise_count(d).sum(axis=0, dtype=np.int64)
    return hw


@dataclass
class AdvantageEstimate:
    adv: float
    samples: int
    confidence_interval: tuple[float, float]  # signed difference of rates

    @property
    def contains_zero(self) -> bool:
        lo, hi = self.confidence_interval
        return lo <= 0.0 <= hi


def wilson_interval(successes: int, n: int, z: float = 1.96) -> tuple[float, float]:
    if n <= 0:
        raise ValueError("n must be positive")
    p = successes / n
    denom = 1.0 + z * z / n
    centre = (p + z * z / (2 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return max(0.0, centre - half), min(1.0, centre + half)


def distinguisher_advantage(
    detector,
    cipher_stream: bytes,
    random_stream: bytes,
    samples: int,
) -> AdvantageEstimate:
    """Acceptance-rate gap of a boolean detector between two streams.

    Each stream is split into ``samples`` equal chunks; the detector is
    evaluated per chunk.  The confidence interval combines per-rate Wilson
    intervals into a conservative interval for the signed rate difference.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if len(cipher_stream) != len(random_stream):
        raise ValueError("streams must have equal length")
    chunk = len(cipher_stream) // samples
    if chunk == 0:
        raise ValueError("streams too short for the requested sample count")

    def rate(stream: bytes) -> int:
        chunks = (stream[i * chunk: (i + 1) * chunk] for i in range(samples))
        return sum(bool(detector(c)) for c in chunks)

    k_hits = rate(cipher_stream)
    r_hits = rate(random_stream)
    k_lo, k_hi = wilson_interval(k_hits, samples)
    r_lo, r_hi = wilson_interval(r_hits, samples)
    diff = k_hits / samples - r_hits / samples
    ci = (k_lo - r_hi, k_hi - r_lo)
    return AdvantageEstimate(abs(diff), samples, ci)
