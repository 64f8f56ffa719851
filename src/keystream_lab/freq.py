"""m-gram frequency counting and significance testing over keystream bytes.

m=8 and m=16 grams slide byte-wise; m=32 grams are word-aligned, matching the
cipher's 32-bit internal operations.  Every test reads one dense cell table
per ``FrequencyTable``: one cell per pattern for m=8/16, one per XOR-fold
bucket (high half xor low half) of a word for m=32.  2^32 word cells are not
tractable, and a per-word test at q = 2^-32 would flag every repeated word;
the fold keeps sensitivity to word-level structure.  z-scores model a cell's
count as Bin(N, 1/cells), so a word's z is its bucket's; the chi-square test
runs over the same cells.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._tails import chdtri, ndtri

FOLD_BUCKETS = 1 << 16
COUNT_CHUNK = 1 << 16  # grams per widened bincount chunk, values per fold or top_k step


@dataclass(frozen=True)
class MGramSpec:
    m_bits: int = 8

    def __post_init__(self):
        if self.m_bits not in (8, 16, 32):
            raise ValueError("m_bits must be one of 8, 16, 32")


def _chunks(array: np.ndarray):
    """(offset, slice) pairs that cover ``array`` ``COUNT_CHUNK`` at a time."""
    for start in range(0, len(array), COUNT_CHUNK):
        yield start, array[start: start + COUNT_CHUNK]


def _cell_of(patterns, m_bits: int):
    """The cell of each pattern: itself for m=8/16, its XOR-fold bucket for
    m=32.  Takes an int or a uint32 array."""
    return ((patterns >> 16) ^ patterns) & 0xFFFF if m_bits == 32 else patterns


@dataclass
class FrequencyTable:
    """Distinct m-gram ``values`` (ascending) and their ``counts``, of ``n``,
    with the dense ``cells`` the significance tests read.  ``cells`` are built
    from the values and counts unless a caller that has counted them passes
    them."""

    values: np.ndarray
    counts: np.ndarray
    n: int
    m_bits: int
    cells: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.cells is not None:
            return
        size = FOLD_BUCKETS if self.m_bits == 32 else 1 << self.m_bits
        # add.at is fast only when its dtypes match, so the cells add up in
        # the counts' dtype, which holds their sum n, and are widened after
        cells = np.zeros(size, dtype=self.counts.dtype)
        for start, values in _chunks(self.values):
            np.add.at(cells, _cell_of(values, self.m_bits),
                      self.counts[start: start + len(values)])
        self.cells = cells.astype(np.int64)

    def cell(self, pattern: int) -> int:
        """Index in ``cells`` of the cell that holds ``pattern``."""
        pattern = int(pattern)
        if not 0 <= pattern < 1 << self.m_bits:
            raise ValueError(f"pattern {pattern} is not in [0, 2^{self.m_bits})")
        return _cell_of(pattern, self.m_bits)


@dataclass(frozen=True)
class SignificanceConfig:
    alpha: float = 1e-6
    chi2_alpha: float = 0.001

    def __post_init__(self):
        for name in ("alpha", "chi2_alpha"):
            if not 0.0 < getattr(self, name) < 1.0:  # NaN fails too
                raise ValueError(f"{name} must be in (0, 1)")

    @cached_property
    def z_threshold(self) -> float:
        """The two-sided normal quantile at ``alpha``: 4.8916 at 1e-6."""
        return ndtri(1.0 - self.alpha / 2.0)


@dataclass
class ZScoreResult:
    pattern: int
    z: float
    expected: float
    variance: float
    significant: bool


def _sorted_runs(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ``words`` (ascending) and their counts, from one sorted
    copy; each temporary is freed before the next is allocated.  The counts
    are uint32 below 2^32 words."""
    words = np.sort(words)
    n = len(words)
    first = np.empty(n, dtype=bool)  # where each run of one value starts
    first[0] = True
    np.not_equal(words[1:], words[:-1], out=first[1:])
    values = words[first]
    del words
    counts = np.empty(len(values), dtype=np.uint32 if n < 1 << 32 else np.int64)
    # a run's length is the next run's start minus its own; the starts are
    # found a chunk at a time, so no int64 array of all of them is built
    runs, last = 0, 0
    for offset, chunk in _chunks(first):
        starts = np.flatnonzero(chunk)
        if len(starts):
            starts += offset
            if runs:
                counts[runs - 1] = starts[0] - last
            np.subtract(starts[1:], starts[:-1], out=counts[runs: runs + len(starts) - 1],
                        casting="unsafe")
            runs, last = runs + len(starts), starts[-1]
    counts[-1] = n - last
    return values, counts


def check_length(n_bytes: int, m_bits: int) -> None:
    """Reject an input of ``n_bytes`` that holds no whole ``m_bits`` gram."""
    if n_bytes < m_bits // 8:
        raise ValueError(f"input shorter than one {m_bits}-bit gram")


def extract_mgrams(keystream, spec: MGramSpec) -> FrequencyTable:
    """Count m-grams of the bytes of the buffer ``keystream``: m=8 and m=16
    grams slide one byte, m=32 grams one word."""
    data = np.frombuffer(keystream, dtype=np.uint8)
    check_length(len(data), spec.m_bits)
    if spec.m_bits == 32:
        words = data[: len(data) // 4 * 4].view("<u4")
        return FrequencyTable(*_sorted_runs(words), len(words), 32)
    # big-endian grams; pass i reads those at offsets congruent to i mod width
    width, n = spec.m_bits // 8, 0
    cells = np.zeros(1 << spec.m_bits, dtype=np.int64)
    # each chunk is widened into this buffer, so bincount makes no intp copy
    wide = np.empty(min(len(data), COUNT_CHUNK), dtype=np.intp)
    for i in range(width):
        grams = data[i: i + (len(data) - i) // width * width].view(f">u{width}")
        for _, chunk in _chunks(grams):
            np.copyto(wide[: len(chunk)], chunk)
            cells += np.bincount(wide[: len(chunk)], minlength=len(cells))
        n += len(grams)
    del wide  # freed before the values and counts are built
    values = np.flatnonzero(cells).astype(np.uint32)
    return FrequencyTable(values, cells[values], n, spec.m_bits, cells)


def binomial_z(counts, n: int, q: float):
    """z-scores of ``counts`` under Bin(n, q), with the model's expected
    count and variance.  At q = 0 (2^-k underflows past k = 1,074) the
    variance is 0: a count above 0 scores inf and a count of 0 scores nan,
    so neither raises and only the first exceeds a threshold."""
    if n <= 0:
        raise ValueError("empty sample: N must be > 0")
    expected = n * q
    variance = n * q * (1.0 - q)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (counts - expected) / np.sqrt(variance), expected, variance


def _cell_z(table: FrequencyTable, counts):
    """z-scores of cell counts under Bin(N, 1/cells): :func:`binomial_z`."""
    return binomial_z(counts, table.n, 1.0 / len(table.cells))


def z_score(
    table: FrequencyTable, pattern: int, cfg: SignificanceConfig = SignificanceConfig()
) -> ZScoreResult:
    """Normalised deviation of the count of the cell holding ``pattern``
    (for m=32, the word's fold bucket) from the uniform expectation."""
    z, expected, variance = _cell_z(table, table.cells[table.cell(pattern)])
    return ZScoreResult(pattern, float(z), expected, variance, bool(z > cfg.z_threshold))


def chi_square(
    table: FrequencyTable, cfg: SignificanceConfig = SignificanceConfig()
) -> tuple[float, bool]:
    """Pearson chi-square against uniformity; pass iff below the quantile at
    ``chi2_alpha`` for the table's degrees of freedom.
    ``chdtri`` takes the upper-tail alpha directly, not 1 - alpha."""
    cells = table.cells
    expected = table.n / len(cells)
    if expected < 5:
        warnings.warn(
            f"expected cell count {expected:.3g} < 5; chi-square approximation "
            "is weak at this sample size",
            stacklevel=2,
        )
    statistic = float(((cells - expected) ** 2 / expected).sum())
    critical = chdtri(len(cells) - 1, cfg.chi2_alpha)
    return statistic, statistic < critical


def _first_where(counts: np.ndarray, test, limit: int) -> list[np.ndarray]:
    """Indices of the first ``limit`` counts that pass ``test``."""
    found = []
    for start, chunk in _chunks(counts):
        if limit <= 0:
            break
        found.append(np.flatnonzero(test(chunk))[:limit] + start)
        limit -= len(found[-1])
    return found


def top_k(table: FrequencyTable, k: int) -> list[tuple[int, int]]:
    """k most frequent patterns as (pattern, count); ties break on ascending
    pattern value.  Only the candidates are ranked: the counts above the k-th
    largest and the smallest values whose count equals it.  The k-th largest
    is found by bisection over count values, each step counting in chunks, so
    nothing the size of the table is sorted or copied, however skewed."""
    if k < 1:
        raise ValueError("k must be >= 1")
    values, counts = table.values, table.counts
    if k >= len(counts):
        pick = np.arange(len(counts))
    else:
        low, high = int(counts.min()), int(counts.max())
        while low < high:
            mid = (low + high + 1) // 2
            if sum(np.count_nonzero(c >= mid) for _, c in _chunks(counts)) >= k:
                low = mid
            else:
                high = mid - 1
        above = _first_where(counts, lambda c: c > low, k)
        ties = _first_where(counts, lambda c: c == low, k - sum(map(len, above)))
        pick = np.concatenate(above + ties)
    # widened before negating: m=32 counts are unsigned
    order = pick[np.lexsort((values[pick], -counts[pick].astype(np.int64)))]
    return [(int(values[i]), int(counts[i])) for i in order]


def scan_significant(
    table: FrequencyTable, cfg: SignificanceConfig = SignificanceConfig()
) -> list[ZScoreResult]:
    """All cells whose z-score exceeds the threshold; a result's ``pattern``
    is its cell index (for m=32, the fold bucket)."""
    z, expected, variance = _cell_z(table, table.cells)
    return [ZScoreResult(int(i), float(z[i]), expected, variance, True)
            for i in np.flatnonzero(z > cfg.z_threshold)]
