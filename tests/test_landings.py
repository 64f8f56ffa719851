"""The engines' landing-index walks at workload scale and at their
boundaries, against the plain-loop transcriptions in helpers.py; and the
symbol checks of ``SymbolStream`` and ``WordPattern``."""

import random
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from keystream_lab import cli, dataset, search as search_module
from keystream_lab.search import (
    SYMBOL_BITS,
    HybridConfig,
    SymbolStream,
    WordPattern,
    bm_preprocess,
    kmp_preprocess,
    search,
)

from helpers import bm_reference, brute_reference, hybrid_reference, kmp_reference

FILLER = 0x5A   # the symbol the boundary texts are made of; no pattern holds it


def references(t, p, alphabet):
    pattern = WordPattern(p, "p", alphabet)
    last, gs = bm_preprocess(pattern)
    return {
        "brute": brute_reference(t, p),
        "kmp": kmp_reference(t, p, kmp_preprocess(pattern)),
        "bm": bm_reference(t, p, last, gs),
        "hybrid": hybrid_reference(t, p, HybridConfig().window_symbols(alphabet)),
    }


def assert_engines_match(text, p):
    pattern = WordPattern(p, "p", text.alphabet)
    for engine, want in references(text.symbols, p, text.alphabet).items():
        rep = search(text, pattern, engine)
        assert (rep.positions, rep.comparisons, rep.windows_scanned) == want, (engine, p)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """64 KiB of fixed-key keystream made by ``gen``."""
    path = tmp_path_factory.mktemp("corpus") / "corpus.txt"
    blocks = -(-(64 << 10) // 144)
    assert cli.main(["gen", "--mode", "fixed", "--blocks", str(blocks),
                     "--seed", "12", "--out", str(path)]) == 0
    return dataset.dataset_bytes(dataset.load(path)[0])


@pytest.mark.parametrize("alphabet", ["byte", "word"])
def test_workload_scale(corpus, alphabet):
    """Short patterns cut from the corpus (present: many landings and
    verifications; one ends the text) and long random ones (absent: long
    jumps over sparse or dense landings)."""
    text = SymbolStream.from_bytes(corpus, alphabet)
    t, rng = text.symbols, random.Random(alphabet)
    bits = 8 if alphabet == "byte" else 32
    longest = HybridConfig().window_symbols(alphabet)
    cut = [t[s: s + m] for m in (1, 2, 3) for s in [rng.randrange(len(t) - m)]] + [t[-4:]]
    drawn = [tuple(rng.getrandbits(bits) for _ in range(m)) for m in (longest // 2, longest)]
    for p in cut + drawn:
        assert_engines_match(text, p)


def test_stream_array_holds_the_symbols():
    data = bytes(range(256)) * 4
    for alphabet, dtype in (("byte", np.uint8), ("word", np.uint32)):
        for text in (SymbolStream.from_bytes(data, alphabet),
                     SymbolStream(SymbolStream.from_bytes(data, alphabet).symbols, alphabet)):
            assert text.array.dtype == dtype
            assert text.array.tolist() == list(text.symbols)
            assert not text.array.flags.writeable
    # from_bytes makes no copy of the bytes
    assert np.shares_memory(SymbolStream.from_bytes(data).array, np.frombuffer(data, np.uint8))
    # an array over memory that can change is copied, even through a read-only view
    base = np.zeros(8, np.uint8)
    view = base.view()
    view.flags.writeable = False
    text = SymbolStream(view)
    base[3] = 7
    assert text.symbols == (0,) * 8


@pytest.mark.parametrize("alphabet", ["byte", "word"])
def test_from_bytes_holds_no_per_symbol_objects(alphabet):
    """A 4 MiB text costs no Python object per symbol: on a little-endian
    host the array is a view of the bytes, and a big-endian host makes only
    the one native copy of the words."""
    data = bytes(range(256)) * (1 << 14)
    allowed = 1 << 20
    if alphabet == "word" and sys.byteorder == "big":
        allowed += len(data)
    tracemalloc.start()
    try:
        text = SymbolStream.from_bytes(data, alphabet)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) == len(data) // (1 if alphabet == "byte" else 4)
    assert peak < allowed


@pytest.mark.parametrize("alphabet", ["byte", "word"])
@pytest.mark.parametrize("n", [63, 64, 65, 66, 67])
@pytest.mark.parametrize("p", [(1,), (1, 2), (2, 1, 1), (3, 1, 2, 4, 5)],
                         ids=["m1", "m2", "m3-repeat", "m5"])
def test_single_landing_boundaries(alphabet, n, p):
    """A text of one symbol that the pattern lacks, with one pattern symbol
    placed at each position in turn: the last landing before, at and after
    each end (a shift's last position, a window's stop, the text's end),
    over lengths that are and are not multiples of the jump."""
    for sym in sorted(set(p)):
        for q in range(n):
            t = [FILLER] * n
            t[q] = sym
            assert_engines_match(SymbolStream(t, alphabet), p)


@pytest.mark.parametrize("alphabet", ["byte", "word"])
def test_absent_and_longer_patterns(alphabet):
    for n in (0, 1, 7, 31, 32, 33, 100):
        text = SymbolStream([FILLER] * n, alphabet)
        assert_engines_match(text, (1, 2, 3))          # no symbol occurs
        assert_engines_match(text, (FILLER,) * 3)      # every symbol lands
    short = SymbolStream([1, 2, 3], alphabet)
    assert_engines_match(short, (1, 2, 3, 4))          # m > n
    assert_engines_match(short, (1, 2, 3))             # m == n


def test_partial_last_window():
    # byte windows hold 32 symbols: 70 symbols give shifts 0..67 for m = 3,
    # the last window 64..67; a match in it and one across the previous stop
    t = [FILLER] * 70
    t[62:65] = t[66:69] = (7, 8, 9)
    text = SymbolStream(t)
    assert_engines_match(text, (7, 8, 9))
    assert search(text, WordPattern((7, 8, 9)), "hybrid").positions == [62, 66]


def naive_keys(t, symbols, stride):
    """The landing keys by their definition: (i mod stride) * n + i for each
    position i holding one of ``symbols``, sorted, then the sentinel."""
    n, wanted = len(t), set(symbols)
    return sorted(i % stride * n + i for i, c in enumerate(t) if c in wanted) + [stride * n]


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_landings_equal_naive_keys(data):
    """Both alphabets; symbol sets with repeats, absent symbols, or every
    byte (so each membership test is used: ``==``, the byte table and
    ``isin``); strides 1, 2, m, above 256 and above n; blocks of 7 and 64
    symbols as well as the default, so a text spans several of them."""
    alphabet = data.draw(st.sampled_from(sorted(SYMBOL_BITS)))
    top = (1 << SYMBOL_BITS[alphabet]) - 1
    palette = data.draw(st.lists(st.integers(0, top), min_size=1, max_size=8, unique=True))
    t = data.draw(st.lists(st.sampled_from(palette), max_size=300))
    symbols = data.draw(st.one_of(
        st.lists(st.sampled_from(palette) | st.integers(0, top), min_size=1, max_size=40),
        st.just(list(range(256))),
    ))
    stride = data.draw(st.sampled_from([1, 2, len(symbols), 257, len(t) + 1])
                       | st.integers(1, 300))
    block = data.draw(st.sampled_from([7, 64, search_module._BLOCK]))
    with mock.patch.object(search_module, "_BLOCK", block):
        keys = search_module._landings(SymbolStream(t, alphabet), symbols, stride)
    assert keys.tolist() == naive_keys(t, symbols, stride)


@pytest.mark.parametrize("stride", [1, 33])
def test_landings_memory_is_the_landings_plus_a_block(stride):
    """On 4 MiB with a dense symbol set (64 of 256 bytes: a quarter of the
    positions land), the index costs a few arrays of the landings' size (at
    stride 1 the blocks' positions and the keys; above it also the residues
    and their sort order) and one block's mask and positions, never an int64
    array of the text's length."""
    data = np.random.default_rng(3).integers(0, 256, 4 << 20, dtype=np.uint8).tobytes()
    text = SymbolStream.from_bytes(data)
    tracemalloc.start()
    try:
        keys = search_module._landings(text, range(0, 256, 4), stride)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(keys) - 1 == np.count_nonzero(np.frombuffer(data, np.uint8) % 4 == 0)
    assert peak < 4 * keys.nbytes + 32 * search_module._BLOCK


class TestSymbolChecks:
    def test_unknown_pattern_alphabet(self):
        with pytest.raises(ValueError):
            WordPattern((1,), alphabet="nibble")

    @pytest.mark.parametrize("symbols,alphabet", [
        ((300, 1), "byte"), ((256,), "byte"), ((-1,), "byte"),
        ((-1, 2), "word"), ((2 ** 40,), "word"), ((1 << 32,), "word"),
        ((1 << 70,), "word"), ((1.5,), "byte"),
    ])
    def test_out_of_range_symbols(self, symbols, alphabet):
        with pytest.raises(ValueError):
            SymbolStream(symbols, alphabet)
        with pytest.raises(ValueError):
            WordPattern(symbols, "p", alphabet)

    def test_range_ends_accepted(self):
        assert SymbolStream((0, 255)).array.tolist() == [0, 255]
        assert SymbolStream((0, 2 ** 32 - 1), "word").array.tolist() == [0, 2 ** 32 - 1]
        assert WordPattern((2 ** 32 - 1,), "p", "word").bit_length == 32

    def test_unknown_alphabet_from_bytes(self):
        with pytest.raises(ValueError):
            SymbolStream.from_bytes(b"\x00" * 4, "nibble")
