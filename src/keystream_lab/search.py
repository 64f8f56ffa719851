"""Exact pattern matching over keystream data.

Engines (:data:`ENGINES`): brute force (ground-truth oracle), KMP,
Boyer-Moore, and a windowed hybrid that jumps with the bad-character rule and
verifies candidates symbol by symbol.  Their tables are the textbook ones,
as plain values: KMP's prefix function is a tuple, and Boyer-Moore's tables
are a last-occurrence dict and a good-suffix shift tuple.  A stream holds
its symbols once, in a read-only array of 8-bit (``"byte"``) or 32-bit
(``"word"``) symbols, which KMP and Boyer-Moore index through a memoryview.

Every report counts symbol comparisons exactly as the textbook loops make
them.  Where a loop would make a run of equal steps, each one failed
comparison, the engine jumps over the run through a landing index
(:func:`_landings`) that numpy builds from the stream's array: the positions
whose symbol can end the run.  Brute force and KMP compare shift after shift,
or symbol after symbol, with ``p[0]`` until one is equal; their landings are
the positions of ``p[0]``.  Boyer-Moore and the hybrid shift by the pattern
length past each symbol the pattern does not contain; their landings are the
positions of the pattern's symbols, and a jump stays in its residue class
modulo that shift.  Each skipped shift counts one comparison, and the landing
a jump stops at counts one more.  The hybrid's windows are independent, so
it steps all the windows of a block together, as numpy arrays.  Brute force
and the hybrid verify their candidates in one place (:func:`_verify`), one
pattern column at a time.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .freq import binomial_z

SYMBOL_BITS = {"byte": 8, "word": 32}
_DTYPES = {"byte": np.dtype(np.uint8), "word": np.dtype(np.uint32)}
_BLOCK = 1 << 16    # symbols per membership mask, windows walked together: bounds memory
_FEW = 14           # up to this many distinct bytes, a chain of == beats a table read


def _symbol_array(symbols, alphabet: str) -> np.ndarray:
    """``symbols`` as a read-only array of the alphabet's native dtype, not
    copied if it already is one over immutable ``bytes`` or a read-only
    memoryview, whose exporter vouches that the buffer does not change.
    Raises ValueError for an unknown alphabet, or a symbol that is not an
    integer in [0, 2^bits)."""
    if alphabet not in SYMBOL_BITS:
        raise ValueError(f"unknown alphabet {alphabet!r}")
    dtype, bits = _DTYPES[alphabet], SYMBOL_BITS[alphabet]
    base = getattr(symbols, "base", None)
    if (isinstance(symbols, np.ndarray) and symbols.dtype == dtype and symbols.ndim == 1
            and (isinstance(base, bytes) or isinstance(base, memoryview) and base.readonly)):
        return symbols
    values = np.asarray(symbols)
    if values.ndim != 1 or values.size and (
            values.dtype.kind not in "iu" or values.min() < 0 or values.max() >> bits):
        raise ValueError(f"{alphabet} symbols must be integers in [0, 2^{bits})")
    array = values.astype(dtype)
    array.flags.writeable = False
    return array


@dataclass(frozen=True, eq=False)
class SymbolStream:
    """A text: its symbols in one read-only uint8 or native uint32 array,
    whose buffer the per-symbol walks index through a memoryview.  Streams
    compare by identity."""

    array: np.ndarray
    alphabet: str = "byte"

    def __post_init__(self):
        object.__setattr__(self, "array", _symbol_array(self.array, self.alphabet))

    def __len__(self):
        return len(self.array)

    @property
    def symbols(self) -> tuple:
        """The symbols as a tuple of ints, built on each access."""
        return tuple(self.array.tolist())

    @classmethod
    def from_bytes(cls, data, alphabet: str = "byte") -> "SymbolStream":
        """The bytes, or little-endian 32-bit words, of the buffer ``data``;
        on a little-endian host the array is a view of a read-only buffer,
        not a copy.  A writable buffer is copied, so the stream cannot
        change under a search."""
        view = memoryview(data)
        if not view.readonly:
            view = memoryview(bytes(view))
        if alphabet == "word" and view.nbytes % 4:
            raise ValueError(f"{view.nbytes} bytes are not a whole number of "
                             "32-bit words")
        return cls(np.frombuffer(view, "<u4" if alphabet == "word" else np.uint8), alphabet)


@dataclass(frozen=True)
class WordPattern:
    symbols: tuple
    pattern_id: str = ""
    alphabet: str = "byte"

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if len(self.symbols) < 1:
            raise ValueError("empty pattern")
        _symbol_array(self.symbols, self.alphabet)
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


# --- landing index ---------------------------------------------------------

def _landings(text: SymbolStream, symbols, stride: int) -> memoryview:
    """The landing index of ``text`` for ``symbols``: each position i whose
    symbol is in ``symbols``, as the key (i mod stride) * n + i.  The keys
    are sorted, so the landings of one residue class are consecutive and in
    order (:func:`_next_landing`), and end with the sentinel stride * n.
    They are an int64 array behind a memoryview, which ``bisect`` searches
    without a list of Python ints.

    Membership is tested per ``_BLOCK`` symbols: ``np.isin`` for words; for
    bytes, ``==`` per symbol up to ``_FEW`` distinct ones, else a 256-entry
    table read with ``take``.  ``flatnonzero`` yields the positions in order,
    which at stride 1 are the keys; at a larger stride a stable radix
    argsort of the small-integer residues groups them by class."""
    a, n = text.array, len(text)
    wanted = np.unique(np.fromiter(symbols, a.dtype))
    if text.alphabet == "word":
        member = partial(np.isin, test_elements=wanted)
    elif len(wanted) <= _FEW:
        def member(block):
            mask = block == wanted[0]
            for s in wanted[1:]:
                mask |= block == s
            return mask
    else:
        lut = np.zeros(256, dtype=bool)
        lut[wanted] = True
        member = lut.take
    pos = [lo + np.flatnonzero(member(a[lo: lo + _BLOCK])) for lo in range(0, n, _BLOCK)]
    pos = np.concatenate(pos + [np.array([stride * n])])
    if stride > 1:
        keys = pos[:-1] - pos[:-1] // stride * stride    # // by a scalar is fast; % is not
        order = np.argsort(keys.astype(np.min_scalar_type(stride - 1)), kind="stable")
        keys *= n
        keys += pos[:-1]
        keys.take(order, out=pos[:-1], mode="clip")    # in range; "clip" writes out unbuffered
    return memoryview(pos)


def _next_landing(keys: memoryview, n: int, stride: int, i: int, end: int) -> int:
    """The first landing at or after position i in its residue class mod
    ``stride`` if it lies before ``end`` (at most n), else the first
    position of that class at or after ``end``; a jump from i to it skips
    (result - i) // stride shifts."""
    base = i % stride * n
    landing = keys[bisect_left(keys, base + i)] - base
    return landing if landing < end else end + (i - end) % stride


def _verify(a: np.ndarray, p: tuple, s: np.ndarray, columns) -> tuple[np.ndarray, int]:
    """The candidate starts ``s`` whose symbols in ``a`` equal ``p`` at each
    of ``columns``, tested in order, and the comparisons that makes: one per
    candidate still standing at each column."""
    comparisons = 0
    for j in columns:
        comparisons += s.size
        s = s[a[s + j] == p[j]]
    return s, comparisons


def brute_force_search(text: SymbolStream, pattern: WordPattern) -> MatchReport:
    """O(n*m) exhaustive scan; ground truth for the other engines."""
    _check_alphabets(text, pattern)
    p = pattern.symbols
    stop = len(text) - len(p) + 1
    # every shift makes its first comparison, t[s] == p[0]; only the
    # landings, where it is equal, go on to compare p[1:]
    s = np.asarray(_landings(text, (p[0],), 1))
    s, comparisons = _verify(text.array, p, s[: np.searchsorted(s, stop)], range(1, len(p)))
    return MatchReport(pattern.pattern_id, "brute", s.tolist(), max(stop, 0) + comparisons)


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
    t, p, pi = memoryview(text.array), pattern.symbols, kmp_preprocess(pattern)
    n, m = len(t), len(p)
    landings = _landings(text, (p[0],), 1)
    positions, comparisons = [], 0
    i = j = k = 0
    while i < n:
        if j == 0:
            # with nothing matched, t[i], t[i+1], ... are compared with p[0]
            # until one is equal, at the next landing (n if there is none)
            while landings[k] < i:
                k += 1
            hit = landings[k]
            comparisons += hit - i
            if hit == n:
                break
            comparisons += 1
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
    last = {sym: i for i, sym in enumerate(p)}
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
    t, p = memoryview(text.array), pattern.symbols
    n, m = len(t), len(p)
    full_shift, last_get, tail = gs[m], last.get, m - 1
    p_tail = p[tail]
    # the shift after a mismatch at the last pattern symbol, per pattern
    # symbol; past any other symbol it is always m (no good-suffix shift
    # exceeds m, and none is below 1), so the walk jumps from one position
    # of a pattern symbol to the next
    tail_shift = {c: max(gs[0], m - 1 - last[c]) for c in last}
    landings = _landings(text, set(p), m)
    positions, comparisons = [], 0
    s, stop = 0, n - m
    while s <= stop:
        i = s + tail
        symbol = t[i]
        if symbol not in tail_shift:
            landing = _next_landing(landings, n, m, i, n)
            comparisons += (landing - i) // m
            if landing >= n:
                break
            s, symbol = landing - tail, t[landing]
        comparisons += 1
        if symbol != p_tail:
            s += tail_shift[symbol]
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
            s += max(gs[tail - j], j - last_get(t[s + j], -1))
    return MatchReport(pattern.pattern_id, "bm", positions, comparisons)


# --- hybrid ----------------------------------------------------------------

FLAG_SIGMA = 3.0  # margin, in standard errors, of the hybrid scan's flag rule


@dataclass(frozen=True)
class HybridConfig:
    window_bits: int = 256

    def window_symbols(self, alphabet: str, patterns=()) -> int:
        """The window in symbols; raises ValueError if ``window_bits`` is not
        symbol aligned or the window is shorter than one of ``patterns``."""
        bits = SYMBOL_BITS[alphabet]
        if self.window_bits % bits:
            raise ValueError("window_bits must be symbol aligned")
        wlen, longest = self.window_bits // bits, max(map(len, patterns), default=0)
        if longest > wlen:
            raise ValueError(
                f"window of {wlen} symbols is smaller than longest pattern ({longest})"
            )
        return wlen


def _hybrid_scan(text: SymbolStream, pattern: WordPattern,
                 config: HybridConfig = HybridConfig()) -> MatchReport:
    """One pattern's windowed scan, without the flag rule's verdict.  The
    windows are independent, so the ones of a ``_BLOCK`` block step together
    as arrays of their last-symbol positions i, until each reaches its end."""
    _check_alphabets(text, pattern)
    wlen = config.window_symbols(text.alphabet, [pattern])
    a, p = text.array, pattern.symbols
    n, m = len(a), len(p)
    # Horspool-style shifts: from the rightmost place among the first m-1
    # symbols, else m; the landings are the positions of the pattern's
    # symbols, where the shift is not m or a candidate is verified
    jump = dict.fromkeys(p, m)
    for idx in range(m - 1):
        jump[p[idx]] = m - 1 - idx
    tail = m - 1
    keys = np.asarray(_landings(text, set(p), m))
    symbols = np.array(sorted(jump), a.dtype)
    shifts = np.array([jump[c] for c in sorted(jump)])
    found, comparisons = [], 0
    n_windows = max(0, math.ceil((n - m + 1) / wlen)) if n >= m else 0
    for w in range(0, n_windows, _BLOCK):
        i = np.arange(w, min(w + _BLOCK, n_windows)) * wlen + tail
        end = np.minimum(i + wlen, n)
        while i.size:
            # jump by m to the next landing of i's class (i itself if it is
            # one), or past the end, counting each skipped shift
            base = i % m * n
            landing = keys[np.searchsorted(keys, base + i)] - base
            landing = np.where(landing < end, landing, end + (i - end) % m)
            comparisons += int(((landing - i) // m).sum())
            live = landing < end
            i, end = landing[live], end[live]
            symbol = a[i]
            comparisons += i.size
            s, verified = _verify(a, p, i[symbol == p[tail]] - tail, range(tail))
            comparisons += verified
            found.append(s)
            i = i + shifts[np.searchsorted(symbols, symbol)]
            live = i < end
            i, end = i[live], end[live]
    positions = np.sort(np.concatenate(found)).tolist() if found else []
    return MatchReport(pattern.pattern_id, "hybrid", positions, comparisons, n_windows)


def hybrid_search(
    text: SymbolStream, patterns: list[WordPattern], config: HybridConfig = HybridConfig()
) -> tuple[dict[str, MatchReport], set[str]]:
    """Windowed scan: bad-character jumps locate candidates whose last symbol
    matches, a left-to-right comparison of the other symbols verifies them,
    and a pattern is flagged when the binomial z-score of its hits
    (:func:`freq.binomial_z`, q = 2^-|P| per position) exceeds ``FLAG_SIGMA``.

    Returns per-pattern reports plus the set of flagged pattern ids.  The
    flag rule never changes the reported positions; the union of positions
    always equals the brute-force oracle's.  Reports are keyed by pattern
    id, so a repeated id is rejected before any scan.
    """
    ids = [pattern.pattern_id for pattern in patterns]
    repeated = next((i for k, i in enumerate(ids) if i in ids[:k]), None)
    if repeated is not None:
        raise ValueError(f"pattern id {repeated!r} is given more than once")
    reports: dict[str, MatchReport] = {}
    flagged: set[str] = set()
    for pattern in patterns:
        reports[pattern.pattern_id] = report = _hybrid_scan(text, pattern, config)
        scanned, q = len(text) - len(pattern) + 1, 2.0 ** -pattern.bit_length
        if scanned > 0 and binomial_z(len(report.positions), scanned, q)[0] > FLAG_SIGMA:
            flagged.add(pattern.pattern_id)
    return reports, flagged


ENGINES = {
    "brute": brute_force_search,
    "kmp": kmp_search,
    "bm": bm_search,
    "hybrid": _hybrid_scan,
}


def search(text: SymbolStream, pattern: WordPattern, engine: str) -> MatchReport:
    try:
        fn = ENGINES[engine]
    except KeyError:
        raise ValueError(f"unknown engine {engine!r}") from None
    return fn(text, pattern)
