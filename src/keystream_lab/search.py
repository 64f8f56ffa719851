"""Exact pattern matching over keystream data.

Engines: brute force (ground-truth oracle), KMP, Boyer-Moore, and a windowed
hybrid that jumps with the bad-character rule and verifies candidates symbol
by symbol.  Streams carry an alphabet tag: ``"byte"`` (8-bit symbols) or
``"word"`` (32-bit symbols); all engines compare symbols as whole units.

Every report counts symbol comparisons exactly as the textbook loops make
them.  Brute force (at each shift's first symbol) and KMP (whenever nothing
is matched) hand their scans for ``p[0]`` to ``tuple.index``, which makes the
same equality tests in C; each symbol it passes over counts as one
comparison and the equal symbol it stops at as one more.  Boyer-Moore and
the hybrid have no such scan and run in Python throughout.
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
    first, find = p[0], t.index
    positions, comparisons = [], 0
    s, stop = 0, n - m + 1
    while s < stop:
        # the first comparison at each shift is t[s] == p[0]: tuple.index
        # makes them up to the next equal symbol
        try:
            hit = find(first, s, stop)
        except ValueError:
            comparisons += stop - s
            break
        comparisons += hit - s + 1
        s, j = hit, 1
        while j < m:
            comparisons += 1
            if t[s + j] != p[j]:
                break
            j += 1
        if j == m:
            positions.append(s)
        s += 1
    return MatchReport(pattern.pattern_id, "brute", positions, comparisons)


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
    first, find = p[0], t.index
    positions, comparisons = [], 0
    i = j = 0
    while i < n:
        if j == 0:
            # with nothing matched, t[i], t[i+1], ... are compared with p[0]
            # until one is equal: tuple.index makes those comparisons
            try:
                hit = find(first, i)
            except ValueError:
                comparisons += n - i
                break
            comparisons += hit - i + 1
            i, j = hit, 1
        else:
            # each comparison either matches (advances i) or ends the inner
            # loop for this i, so the total stays within 2n
            symbol = t[i]
            while True:
                comparisons += 1
                if symbol == p[j]:
                    j += 1
                    break
                if j == 0:
                    break
                j = pi[j - 1]
        if j == m:
            positions.append(i - m + 1)
            j = pi[j - 1]
        i += 1
    return MatchReport(pattern.pattern_id, "kmp", positions, comparisons)


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
    full_shift, last_get, tail = gs[m], bc.last_occurrence.get, m - 1
    p_tail = p[tail]
    # the shift after a mismatch at the last pattern symbol, per text symbol
    tail_get = {c: max(gs[0], bc.shift(c)) for c in bc.last_occurrence}.get
    absent_shift = max(gs[0], m)
    positions, comparisons = [], 0
    s, stop = 0, n - m
    while s <= stop:
        comparisons += 1
        symbol = t[s + tail]
        if symbol != p_tail:
            s += tail_get(symbol, absent_shift)
            continue
        j = tail - 1
        while j >= 0:
            comparisons += 1
            if p[j] != t[s + j]:
                break
            j -= 1
        if j < 0:
            positions.append(s)
            s += full_shift
        else:
            s += max(gs[tail - j], j - last_get(t[s + j], -1), 1)
    return MatchReport(pattern.pattern_id, "bm", positions, comparisons)


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
        jump_get, first, p_tail, tail = jump.get, p[0], p[m - 1], m - 1
        positions, comparisons = [], 0
        n_windows = max(0, math.ceil((n - m + 1) / wlen)) if n >= m else 0
        for w in range(n_windows):
            s = w * wlen
            stop = min(s + wlen, n - m + 1)
            while s < stop:
                last_sym = t[s + tail]
                comparisons += 1
                if last_sym == p_tail and t[s] == first:
                    j = 0
                    while j < m:
                        comparisons += 1
                        if t[s + j] != p[j]:
                            break
                        j += 1
                    if j == m:
                        positions.append(s)
                s += jump_get(last_sym, m)
        reports[pattern.pattern_id] = MatchReport(
            pattern.pattern_id, "hybrid", positions, comparisons, n_windows)
        positions_scanned = n - m + 1
        if positions_scanned > 0:
            q = 2.0 ** (-pattern.bit_length)
            p_hat = len(positions) / positions_scanned
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
