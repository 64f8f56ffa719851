import random

import pytest

from keystream_lab.search import (
    ENGINES,
    HybridConfig,
    SymbolStream,
    WordPattern,
    bm_preprocess,
    bm_search,
    brute_force_search,
    hybrid_search,
    kmp_preprocess,
    kmp_search,
    search,
)


def mkpat(symbols, alphabet="byte", pid=""):
    return WordPattern(tuple(symbols), pid, alphabet)


def mktext(symbols, alphabet="byte"):
    return SymbolStream(tuple(symbols), alphabet)


class TestStreams:
    def test_from_bytes_byte(self):
        s = SymbolStream.from_bytes(b"\x01\x02\x03")
        assert s.symbols == (1, 2, 3)
        assert len(s) == 3

    def test_from_bytes_word_little_endian(self):
        s = SymbolStream.from_bytes(b"\x01\x00\x00\x00\xff\x00\x00\x00", "word")
        assert s.symbols == (1, 0xFF)

    @pytest.mark.parametrize("extra", [1, 2, 3])
    def test_from_bytes_word_rejects_partial_word(self, extra):
        with pytest.raises(ValueError):
            SymbolStream.from_bytes(bytes(8 + extra), "word")

    def test_unknown_alphabet(self):
        with pytest.raises(ValueError):
            SymbolStream((1,), "nibble")

    def test_pattern_bit_length(self):
        assert mkpat([1, 2, 3]).bit_length == 24
        assert mkpat([1, 2], "word").bit_length == 64

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            mkpat([])

    def test_pattern_id_default(self):
        assert mkpat([0xAB, 0x1]).pattern_id == "ab-1"

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            brute_force_search(mktext([1, 2]), mkpat([1], "word"))


class TestPrefixTable:
    def test_repeated_symbol(self):
        assert kmp_preprocess(mkpat([7, 7, 7, 7])) == (0, 1, 2, 3)

    def test_distinct_symbols(self):
        assert kmp_preprocess(mkpat([1, 2, 3, 4])) == (0, 0, 0, 0)

    def test_partial_borders(self):
        assert kmp_preprocess(mkpat([1, 1, 2, 1, 1])) == (0, 1, 0, 1, 2)
        assert kmp_preprocess(mkpat([1, 2, 1, 1, 2])) == (0, 0, 1, 1, 2)


class TestBadCharTable:
    def test_shift_semantics(self):
        pat = mkpat([1, 2, 3, 2])
        last, _ = bm_preprocess(pat)
        assert last == {1: 0, 2: 3, 3: 2}    # rightmost position per symbol
        # a mismatch at the last symbol shifts the full length, m = 4, on an
        # absent symbol and m-1-last = 3 on symbol 1: one comparison a shift
        assert bm_search(mktext([9] * 8), pat).comparisons == 2
        assert bm_search(mktext([1] * 7), pat).comparisons == 2

    def test_good_suffix_no_repeats(self):
        _, gs = bm_preprocess(mkpat([1, 2, 3]))
        # matched length 0 shifts by 1; a full match shifts past the pattern
        assert gs[0] == 1
        assert gs[len(gs) - 1] >= 1

    def test_good_suffix_periodic(self):
        _, gs = bm_preprocess(mkpat([1, 2, 1, 2]))
        assert gs[4] == 2            # full match of an m/2-periodic pattern


class TestOracleEquivalence:
    ENGINES = ("kmp", "bm", "hybrid")

    @pytest.mark.parametrize("alphabet,card", [("byte", 4), ("byte", 256),
                                               ("word", 8), ("word", 1 << 32)])
    def test_random_instances(self, alphabet, card):
        rng = random.Random(f"{alphabet}-{card}")
        for _ in range(80):
            n = rng.randrange(1, 400)
            m = rng.randrange(1, 9)
            text = mktext([rng.randrange(card) for _ in range(n)], alphabet)
            if rng.random() < 0.5 and n >= m:
                # sample the pattern from the text so matches actually occur
                s = rng.randrange(n - m + 1)
                pat = mkpat(text.symbols[s: s + m], alphabet)
            else:
                pat = mkpat([rng.randrange(card) for _ in range(m)], alphabet)
            truth = brute_force_search(text, pat).positions
            for engine in self.ENGINES:
                assert search(text, pat, engine).positions == truth, engine

    def test_overlapping_matches_reported(self):
        text = mktext([5, 5, 5, 5, 5])
        pat = mkpat([5, 5])
        for engine in ("brute",) + self.ENGINES:
            assert search(text, pat, engine).positions == [0, 1, 2, 3]

    def test_pattern_longer_than_text(self):
        text = mktext([1, 2])
        pat = mkpat([1, 2, 3])
        for engine in ("brute",) + self.ENGINES:
            assert search(text, pat, engine).positions == []

    def test_unknown_engine(self):
        with pytest.raises(ValueError):
            search(mktext([1]), mkpat([1]), "regex")

    def test_engines_lists_all_four(self):
        assert list(ENGINES) == ["brute", "kmp", "bm", "hybrid"]


class TestKmpBound:
    def test_comparisons_at_most_2n(self):
        rng = random.Random(11)
        for _ in range(300):
            n = rng.randrange(1, 500)
            text = mktext([rng.randrange(3) for _ in range(n)])
            m = rng.randrange(1, 10)
            pat = mkpat([rng.randrange(3) for _ in range(m)])
            rep = kmp_search(text, pat)
            assert rep.comparisons <= 2 * n


class TestHybrid:
    def test_windows_counted(self):
        text = mktext(list(range(100)))
        reports, flagged = hybrid_search(text, [mkpat([1, 2])])
        rep = reports["1-2"]
        # byte alphabet: 256-bit windows hold 32 symbols
        assert rep.windows_scanned == 4
        assert rep.positions == [1]
        # one hit of a 16-bit pattern in 99 positions is a genuine excess
        assert flagged == {"1-2"}

    def test_known_symbols_not_retested(self):
        # each shift whose last symbol matches verifies p[0] .. p[m-2] only:
        # the four shifts make 4 last-symbol tests and 4 tests of t[s] == p[0]
        text = mktext([1, 2, 1, 2, 2, 2, 2, 2])
        rep = hybrid_search(text, [mkpat([1, 2])])[0]["1-2"]
        assert rep.positions == [0, 2]
        assert rep.comparisons == 8

    def test_single_symbol_pattern_needs_no_verification(self):
        # m = 1: the last-symbol test is the whole match, one per shift
        text = mktext([3, 1, 3, 3, 2])
        rep = hybrid_search(text, [mkpat([3])])[0]["3"]
        assert rep.positions == [0, 2, 3]
        assert rep.comparisons == 5

    def test_repeated_pattern_id_rejected_before_any_scan(self, monkeypatch):
        # reports are keyed by id: the second pattern's would replace the first's
        scans = []
        monkeypatch.setattr("keystream_lab.search._hybrid_scan", lambda *a: scans.append(a))
        text = SymbolStream.from_bytes(bytes([1, 2, 3, 1, 2, 9]))
        with pytest.raises(ValueError, match="'1-2'"):
            hybrid_search(text, [mkpat([1, 2]), mkpat([1, 2, 3], pid="1-2")])
        assert scans == []

    def test_word_window_capacity(self):
        cfg = HybridConfig(window_bits=256)
        assert cfg.window_symbols("word") == 8
        assert cfg.window_symbols("byte") == 32

    def test_pattern_exceeding_window_rejected(self):
        text = mktext(list(range(40)), "word")
        with pytest.raises(ValueError):
            hybrid_search(text, [mkpat(list(range(9)), "word")])

    def test_window_misalignment_rejected(self):
        with pytest.raises(ValueError):
            HybridConfig(window_bits=100).window_symbols("byte")

    def test_planted_pattern_flagged(self):
        # a 16-bit pattern occurring 40 times in 4000 positions is far above
        # the 2^-16 + 3 sigma line
        rng = random.Random(5)
        symbols = [rng.randrange(256) for _ in range(4000)]
        for i in range(40):
            pos = i * 100
            symbols[pos], symbols[pos + 1] = 0xAB, 0xCD
        text = mktext(symbols)
        reports, flagged = hybrid_search(text, [mkpat([0xAB, 0xCD], pid="planted")])
        assert "planted" in flagged
        assert len(reports["planted"].positions) >= 40

    def test_flag_rule_past_float_underflow(self):
        # 2^-1088 underflows to 0.0: any hit of a 136-byte pattern flags it
        text = mktext(list(range(136)) * 2)
        config = HybridConfig(window_bits=2048)
        present, absent = mkpat(list(range(136)), pid="in"), mkpat([7] * 136, pid="out")
        reports, flagged = hybrid_search(text, [present, absent], config)
        assert reports["in"].positions == [0, 136] and reports["out"].positions == []
        assert flagged == {"in"}

    def test_uniform_background_not_flagged(self):
        rng = random.Random(6)
        text = mktext([rng.randrange(256) for _ in range(5000)])
        # 4-byte pattern: expected hits ~ 5000 * 2^-32, zero hits is typical
        _, flagged = hybrid_search(text, [mkpat([1, 2, 3, 4], pid="bg")])
        assert "bg" not in flagged
