"""Every engine against a straight transcription of its plain-Python loop
(helpers.py): the same positions, comparison counts and windows, in both
alphabets, on random, small-alphabet and periodic texts."""

import pytest
from hypothesis import given, settings, strategies as st

from keystream_lab.search import (
    SYMBOL_BITS,
    HybridConfig,
    SymbolStream,
    WordPattern,
    bm_preprocess,
    hybrid_search,
    kmp_preprocess,
    search,
)

from helpers import bm_reference, brute_reference, hybrid_reference, kmp_reference

ALPHABET_SIZE = {"byte": 1 << 8, "word": 1 << 32}
MAX_M = 8  # a word window holds 8 symbols, the hybrid's longest pattern


def assert_engines_match_references(t, p, alphabet):
    text, pattern = SymbolStream(t, alphabet), WordPattern(p, "p", alphabet)
    last, gs = bm_preprocess(pattern)
    expected = {
        "brute": brute_reference(t, p),
        "kmp": kmp_reference(t, p, kmp_preprocess(pattern)),
        "bm": bm_reference(t, p, last, gs),
        "hybrid": hybrid_reference(t, p, HybridConfig().window_symbols(alphabet)),
    }
    for engine, want in expected.items():
        rep = search(text, pattern, engine)
        assert (rep.positions, rep.comparisons, rep.windows_scanned) == want, engine
        assert rep.positions == expected["brute"][0], engine


@st.composite
def palettes(draw, max_size):
    """An alphabet and up to ``max_size`` distinct symbols of it."""
    alphabet = draw(st.sampled_from(sorted(ALPHABET_SIZE)))
    symbols = st.integers(0, ALPHABET_SIZE[alphabet] - 1)
    return alphabet, draw(st.lists(symbols, min_size=1, max_size=max_size, unique=True))


@st.composite
def patterns_for(draw, t, palette):
    """A pattern cut from the text (often a match, sometimes at its end), or
    one drawn from the palette (often absent, sometimes longer than the text)."""
    m = draw(st.integers(1, MAX_M))
    kind = draw(st.sampled_from(["slice", "suffix", "drawn"]))
    if kind != "drawn" and len(t) >= m:
        start = len(t) - m if kind == "suffix" else draw(st.integers(0, len(t) - m))
        return t[start: start + m]
    return tuple(draw(st.lists(st.sampled_from(palette), min_size=m, max_size=m)))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_random_texts(data):
    alphabet, palette = data.draw(palettes(max_size=256))
    t = tuple(data.draw(st.lists(st.sampled_from(palette), max_size=300)))
    assert_engines_match_references(t, data.draw(patterns_for(t, palette)), alphabet)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_small_alphabet_texts(data):
    alphabet, palette = data.draw(palettes(max_size=3))
    t = tuple(data.draw(st.lists(st.sampled_from(palette), max_size=300)))
    assert_engines_match_references(t, data.draw(patterns_for(t, palette)), alphabet)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    period=st.sampled_from(["a", "ab", "aab", "abcabd"]),
    n=st.integers(0, 300),
)
def test_periodic_texts(data, period, n):
    alphabet, palette = data.draw(palettes(max_size=6))
    letters = {c: palette[i % len(palette)] for i, c in enumerate("abcd")}
    unit = [letters[c] for c in period]
    t = [unit[i % len(unit)] for i in range(n)]
    # an occasional broken period
    breaks = data.draw(st.lists(st.integers(0, n - 1), max_size=2)) if n else []
    for i in breaks:
        t[i] = data.draw(st.sampled_from(palette))
    t = tuple(t)
    if data.draw(st.booleans()):
        # a pattern cut from the unbroken period, so it recurs
        offset, m = data.draw(st.integers(0, len(unit) - 1)), data.draw(st.integers(1, MAX_M))
        p = tuple(unit[(offset + i) % len(unit)] for i in range(m))
    else:
        p = data.draw(patterns_for(t, palette))
    assert_engines_match_references(t, p, alphabet)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), factor=st.sampled_from([1, 2, 64, None]))
def test_hybrid_windows(data, factor):
    """The hybrid at windows of 1, 2 and 64 times the pattern's length, and
    at the 512 bits (``factor`` None) that criterion 03 uses, on random and
    small-alphabet texts."""
    alphabet, palette = data.draw(palettes(max_size=data.draw(st.sampled_from([3, 256]))))
    t = tuple(data.draw(st.lists(st.sampled_from(palette), max_size=300)))
    p = data.draw(patterns_for(t, palette))
    config = HybridConfig(512 if factor is None else factor * len(p) * SYMBOL_BITS[alphabet])
    rep = hybrid_search(SymbolStream(t, alphabet), [WordPattern(p, "p", alphabet)], config)[0]["p"]
    want = hybrid_reference(t, p, config.window_symbols(alphabet))
    assert (rep.positions, rep.comparisons, rep.windows_scanned) == want


@pytest.mark.parametrize("alphabet", sorted(ALPHABET_SIZE))
@pytest.mark.parametrize("t,p", [
    ((5,) * 40, (5,)),                     # m = 1, a match at every shift
    ((1, 2, 3, 4, 2), (2,)),               # m = 1, the last match at the end
    ((1, 2, 3, 4, 2), (9,)),               # m = 1, absent
    ((1, 2), (1, 2, 3)),                   # m > n
    ((), (1,)),                            # empty text
    ((1, 2, 1, 2, 1, 2, 3), (1, 2, 3)),    # the only match ends the text
    ((7,) * 9 + (8,), (7, 7, 8)),          # periodic text, match at the end
    ((1, 2) * 20, (2, 1, 2)),              # overlapping matches
], ids=["m1-all", "m1-end", "m1-absent", "m-gt-n", "empty", "end", "aaab", "overlap"])
def test_edge_cases(t, p, alphabet):
    assert_engines_match_references(t, p, alphabet)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_hybrid_engine_equals_hybrid_search(data):
    """``search(..., "hybrid")`` and ``hybrid_search`` run the windowed scan
    through two entries; both give one report (positions, comparisons and
    windows), in both alphabets."""
    alphabet, palette = data.draw(palettes(max_size=data.draw(st.sampled_from([3, 256]))))
    t = tuple(data.draw(st.lists(st.sampled_from(palette), max_size=300)))
    text = SymbolStream(t, alphabet)
    pattern = WordPattern(data.draw(patterns_for(t, palette)), "p", alphabet)
    assert search(text, pattern, "hybrid") == hybrid_search(text, [pattern])[0]["p"]
