"""Exact pattern matching over keystream data.

Engines (:data:`ENGINES`): brute force (ground-truth oracle), KMP,
Boyer-Moore, and a windowed hybrid that jumps with the bad-character rule and
verifies candidates symbol by symbol.  Their tables are the textbook ones,
as plain values: KMP's prefix function is a tuple, and Boyer-Moore's tables
are a last-occurrence dict and a good-suffix shift tuple.  Streams carry an
alphabet tag: ``"byte"`` (8-bit symbols) or ``"word"`` (32-bit symbols); all
engines compare symbols as whole units.

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

def kmp_preprocess(pattern: WordPattern) -> tuple[int, ...]:
    """The prefix function pi: per pattern position, the length of the
    longest proper prefix that is also a suffix."""
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
    return tuple(pi)


def kmp_search(text: SymbolStream, pattern: WordPattern) -> MatchReport:
    """Left-to-right scan with prefix-table fallbacks; <= 2n comparisons.

    Overlapping occurrences are reported (after a full match the pattern
    index falls back to pi[m-1]).
    """
    _check_alphabets(text, pattern)
    t, p, pi = text.symbols, pattern.symbols, kmp_preprocess(pattern)
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

def bm_preprocess(pattern: WordPattern) -> tuple[dict, tuple[int, ...]]:
    """The bad-character table, each symbol's rightmost position in the
    pattern, and the good-suffix shifts gs[k] for a matched suffix of
    length k = 0..m."""
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
    return last, tuple(shift[m - k] for k in range(m + 1))


def bm_search(text: SymbolStream, pattern: WordPattern) -> MatchReport:
    """Right-to-left scan shifting by max(good-suffix, bad-character)."""
    _check_alphabets(text, pattern)
    last, gs = bm_preprocess(pattern)
    t, p = text.symbols, pattern.symbols
    n, m = len(t), len(p)
    full_shift, last_get, tail = gs[m], last.get, m - 1
    p_tail = p[tail]
    # the shift after a mismatch at the last pattern symbol, per text symbol
    tail_get = {c: max(gs[0], m - 1 - last[c], 1) for c in last}.get
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

FLAG_SIGMA = 3.0  # margin, in standard errors, of the hybrid scan's flag rule


@dataclass(frozen=True)
class HybridConfig:
    window_bits: int = 256

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
    """Windowed scan: bad-character jumps locate candidates whose last symbol
    matches, a left-to-right comparison of the other symbols verifies them, and
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
        jump_get, p_tail, tail = jump.get, p[m - 1], m - 1
        positions, comparisons = [], 0
        n_windows = max(0, math.ceil((n - m + 1) / wlen)) if n >= m else 0
        for w in range(n_windows):
            s = w * wlen
            stop = min(s + wlen, n - m + 1)
            while s < stop:
                last_sym = t[s + tail]
                comparisons += 1
                if last_sym == p_tail:
                    j = 0
                    while j < tail:
                        comparisons += 1
                        if t[s + j] != p[j]:
                            break
                        j += 1
                    if j == tail:
                        positions.append(s)
                s += jump_get(last_sym, m)
        reports[pattern.pattern_id] = MatchReport(
            pattern.pattern_id, "hybrid", positions, comparisons, n_windows)
        positions_scanned = n - m + 1
        if positions_scanned > 0:
            q = 2.0 ** (-pattern.bit_length)
            p_hat = len(positions) / positions_scanned
            sigma = math.sqrt(q * (1.0 - q) / positions_scanned)
            if p_hat > q + FLAG_SIGMA * sigma:
                flagged.add(pattern.pattern_id)
    return reports, flagged


def _hybrid_one(text: SymbolStream, pattern: WordPattern) -> MatchReport:
    """The hybrid scan of one pattern, without the flag rule's verdict."""
    return hybrid_search(text, [pattern])[0][pattern.pattern_id]


ENGINES = {
    "brute": brute_force_search,
    "kmp": kmp_search,
    "bm": bm_search,
    "hybrid": _hybrid_one,
}


def search(text: SymbolStream, pattern: WordPattern, engine: str) -> MatchReport:
    try:
        fn = ENGINES[engine]
    except KeyError:
        raise ValueError(f"unknown engine {engine!r}") from None
    return fn(text, pattern)
