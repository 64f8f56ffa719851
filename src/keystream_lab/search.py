"""Exact pattern matching over keystream data.

Engines: brute force (ground-truth oracle), KMP, Boyer-Moore, and a windowed
hybrid that jumps with the bad-character rule and verifies candidates symbol
by symbol.  Streams carry an alphabet tag: ``"byte"`` (8-bit symbols) or
``"word"`` (32-bit symbols); all engines compare symbols as whole units.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

SYMBOL_BITS = {"byte": 8, "word": 32}


@dataclass(frozen=True)
class SymbolStream:
    symbols: tuple
    alphabet: str = "byte"

    def __post_init__(self):
        if self.alphabet not in SYMBOL_BITS:
            raise ValueError(f"unknown alphabet {self.alphabet!r}")
        object.__setattr__(self, "symbols", tuple(self.symbols))

    def __len__(self):
        return len(self.symbols)

    @classmethod
    def from_bytes(cls, data: bytes, alphabet: str = "byte") -> "SymbolStream":
        if alphabet == "byte":
            return cls(tuple(data), "byte")
        if len(data) % 4:
            raise ValueError(f"{len(data)} bytes are not a whole number of "
                             "32-bit words")
        return cls(struct.unpack(f"<{len(data) // 4}I", data), "word")


@dataclass(frozen=True)
class WordPattern:
    symbols: tuple
    pattern_id: str = ""
    alphabet: str = "byte"

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if len(self.symbols) < 1:
            raise ValueError("empty pattern")
        if not self.pattern_id:
            object.__setattr__(self, "pattern_id", "-".join(f"{s:x}" for s in self.symbols))

    def __len__(self):
        return len(self.symbols)

    @property
    def bit_length(self) -> int:
        return len(self.symbols) * SYMBOL_BITS[self.alphabet]


@dataclass
class MatchReport:
    pattern_id: str
    engine: str
    positions: list[int] = field(default_factory=list)
    comparisons: int = 0
    windows_scanned: int = 0

    def as_dict(self) -> dict:
        return {
            "pattern_id": self.pattern_id,
            "engine": self.engine,
            "positions": list(self.positions),
            "comparisons": self.comparisons,
            "windows_scanned": self.windows_scanned,
        }


def _check_alphabets(text: SymbolStream, pattern: WordPattern) -> None:
    if text.alphabet != pattern.alphabet:
        raise ValueError(
            f"alphabet mismatch: text={text.alphabet!r} pattern={pattern.alphabet!r}"
        )


def brute_force_search(text: SymbolStream, pattern: WordPattern) -> MatchReport:
    """O(n*m) exhaustive scan; ground truth for the other engines."""
    _check_alphabets(text, pattern)
    t, p = text.symbols, pattern.symbols
    n, m = len(t), len(p)
    report = MatchReport(pattern.pattern_id, "brute")
    for s in range(n - m + 1):
        j = 0
        while j < m:
            report.comparisons += 1
            if t[s + j] != p[j]:
                break
            j += 1
        if j == m:
            report.positions.append(s)
    return report


# --- KMP -------------------------------------------------------------------

@dataclass(frozen=True)
class PrefixTable:
    pi: tuple[int, ...]


def kmp_preprocess(pattern: WordPattern) -> PrefixTable:
    """Longest proper prefix that is also a suffix, per pattern position."""
    p = pattern.symbols
    m = len(p)
    pi = [0] * m
    j = 0
    for i in range(1, m):
        while j > 0 and p[i] != p[j]:
            j = pi[j - 1]
        if p[i] == p[j]:
            j += 1
        pi[i] = j
    return PrefixTable(tuple(pi))


def kmp_search(
    text: SymbolStream, pattern: WordPattern, table: PrefixTable | None = None
) -> MatchReport:
    """Left-to-right scan with prefix-table fallbacks; <= 2n comparisons.

    Overlapping occurrences are reported (after a full match the pattern
    index falls back to pi[m-1]).
    """
    _check_alphabets(text, pattern)
    if table is None:
        table = kmp_preprocess(pattern)
    t, p, pi = text.symbols, pattern.symbols, table.pi
    n, m = len(t), len(p)
    report = MatchReport(pattern.pattern_id, "kmp")
    j = 0
    for i in range(n):
        # each comparison either matches (advances i) or ends the inner loop
        # for this i, so the total stays within 2n
        while True:
            report.comparisons += 1
            if t[i] == p[j]:
                j += 1
                break
            if j == 0:
                break
            j = pi[j - 1]
        if j == m:
            report.positions.append(i - m + 1)
            j = pi[j - 1]
    return report


# --- Boyer-Moore -----------------------------------------------------------

@dataclass(frozen=True)
class BadCharTable:
    """Rightmost occurrence per symbol; absent symbols shift the full length."""

    last_occurrence: dict
    m: int

    def shift(self, symbol) -> int:
        # base (position-independent) shift: max(1, m-1-last(c)), or m if absent
        last = self.last_occurrence.get(symbol)
        if last is None:
            return self.m
        return max(1, self.m - 1 - last)


@dataclass(frozen=True)
class GoodSuffixTable:
    """Shift distance indexed by matched-suffix length k = 0..m."""

    gs: tuple[int, ...]


def bm_preprocess(pattern: WordPattern) -> tuple[BadCharTable, GoodSuffixTable]:
    p = pattern.symbols
    m = len(p)
    last = {}
    for i, sym in enumerate(p):
        last[sym] = i
    # classic border-based strong good-suffix computation, indexed by the
    # mismatch position, then re-indexed by matched-suffix length
    shift = [0] * (m + 1)
    border = [0] * (m + 2)
    i, j = m, m + 1
    border[i] = j
    while i > 0:
        while j <= m and p[i - 1] != p[j - 1]:
            if shift[j] == 0:
                shift[j] = j - i
            j = border[j]
        i -= 1
        j -= 1
        border[i] = j
    j = border[0]
    for i in range(m + 1):
        if shift[i] == 0:
            shift[i] = j
        if i == j:
            j = border[j]
    gs = tuple(shift[m - k] for k in range(m + 1))
    return BadCharTable(last, m), GoodSuffixTable(gs)


def bm_search(
    text: SymbolStream,
    pattern: WordPattern,
    tables: tuple[BadCharTable, GoodSuffixTable] | None = None,
) -> MatchReport:
    """Right-to-left scan shifting by max(good-suffix, bad-character)."""
    _check_alphabets(text, pattern)
    if tables is None:
        tables = bm_preprocess(pattern)
    bc, gst = tables
    t, p = text.symbols, pattern.symbols
    n, m = len(t), len(p)
    gs = gst.gs
    last = bc.last_occurrence
    report = MatchReport(pattern.pattern_id, "bm")
    s = 0
    while s <= n - m:
        j = m - 1
        while j >= 0:
            report.comparisons += 1
            if p[j] != t[s + j]:
                break
            j -= 1
        if j < 0:
            report.positions.append(s)
            shift = gs[m]
        else:
            k = m - 1 - j
            bad = last.get(t[s + j], -1)
            shift = max(gs[k], j - bad, 1)
        s += shift
    return report


# --- hybrid ----------------------------------------------------------------

@dataclass(frozen=True)
class HybridConfig:
    window_bits: int = 256
    flag_threshold_sigma: float = 3.0

    def window_symbols(self, alphabet: str) -> int:
        bits = SYMBOL_BITS[alphabet]
        if self.window_bits % bits:
            raise ValueError("window_bits must be symbol aligned")
        return self.window_bits // bits


def hybrid_search(
    text: SymbolStream,
    patterns: list[WordPattern],
    config: HybridConfig | None = None,
) -> tuple[dict[str, MatchReport], set[str]]:
    """Windowed scan: bad-character jumps locate candidates whose last and
    first symbols match, a left-to-right symbol comparison verifies them, and
    per-pattern empirical probabilities are compared against 2^-|P| plus a
    3-sigma sampling-error margin.

    Returns per-pattern reports plus the set of flagged pattern ids.  The
    flag rule never changes the reported positions; the union of positions
    always equals the brute-force oracle's.
    """
    if config is None:
        config = HybridConfig()
    for p in patterns:
        _check_alphabets(text, p)
    wlen = config.window_symbols(text.alphabet) if patterns else 0
    longest = max((len(p) for p in patterns), default=0)
    if patterns and longest > wlen:
        raise ValueError(
            f"window of {wlen} symbols is smaller than longest pattern ({longest})"
        )
    t = text.symbols
    n = len(t)
    reports: dict[str, MatchReport] = {}
    flagged: set[str] = set()
    for pattern in patterns:
        p = pattern.symbols
        m = len(p)
        # Horspool-style last-occurrence table over the first m-1 symbols
        jump = {}
        for idx in range(m - 1):
            jump[p[idx]] = m - 1 - idx
        report = MatchReport(pattern.pattern_id, "hybrid")
        n_windows = max(0, math.ceil((n - m + 1) / wlen)) if n >= m else 0
        for w in range(n_windows):
            report.windows_scanned += 1
            start = w * wlen
            stop = min((w + 1) * wlen, n - m + 1)
            s = start
            while s < stop:
                last_sym = t[s + m - 1]
                report.comparisons += 1
                if last_sym == p[m - 1] and t[s] == p[0]:
                    j = 0
                    while j < m:
                        report.comparisons += 1
                        if t[s + j] != p[j]:
                            break
                        j += 1
                    if j == m:
                        report.positions.append(s)
                s += jump.get(last_sym, m)
        reports[pattern.pattern_id] = report
        positions_scanned = n - m + 1
        if positions_scanned > 0:
            q = 2.0 ** (-pattern.bit_length)
            p_hat = len(report.positions) / positions_scanned
            sigma = math.sqrt(q * (1.0 - q) / positions_scanned)
            if p_hat > q + config.flag_threshold_sigma * sigma:
                flagged.add(pattern.pattern_id)
    return reports, flagged


ENGINES = {
    "brute": brute_force_search,
    "kmp": kmp_search,
    "bm": bm_search,
}


def search(text: SymbolStream, pattern: WordPattern, engine: str) -> MatchReport:
    if engine == "hybrid":
        reports, _ = hybrid_search(text, [pattern])
        return reports[pattern.pattern_id]
    try:
        fn = ENGINES[engine]
    except KeyError:
        raise ValueError(f"unknown engine {engine!r}") from None
    return fn(text, pattern)
