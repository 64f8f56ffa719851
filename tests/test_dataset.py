import json
import os
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from keystream_lab import dataset
from keystream_lab.cipher import (
    BLOCK_BYTES,
    CipherConfig,
    KeyMaterial,
    MASK32,
    block,
    init_state,
    word_range,
)
from keystream_lab.dataset import (
    CHUNK_BLOCKS,
    RECORD_SLICE,
    DatasetConfig,
    DatasetFormatError,
    OsEntropyGenerator,
    SeededGenerator,
    dataset_bytes,
    from_hex,
    generate_dataset,
    load,
    persist,
    to_hex,
)

from helpers import traced_peak


def raw(block_words) -> bytes:
    """One block's 144 little-endian bytes."""
    return dataset_bytes(np.asarray(block_words)[None])


class TestGenerators:
    def test_seeded_deterministic(self):
        a, b = SeededGenerator(5), SeededGenerator(5)
        assert a.bytes(1000) == b.bytes(1000)
        assert SeededGenerator(6).bytes(1000) != SeededGenerator(5).bytes(1000)

    def test_seeded_stream_continuity(self):
        a = SeededGenerator(1)
        chunks = a.bytes(10) + a.bytes(90)
        assert chunks == SeededGenerator(1).bytes(100)

    @pytest.mark.parametrize("n", [-1, -1 << 20])
    def test_negative_length_rejected_without_state_change(self, n):
        gen = SeededGenerator(0)
        with pytest.raises(ValueError):
            gen.bytes(n)
        assert gen.bytes(8) == SeededGenerator(0).bytes(8)

    def test_words(self):
        w = SeededGenerator(2).words(8)
        assert len(w) == 8
        assert all(0 <= x < (1 << 32) for x in w)

    def test_os_entropy_varies(self):
        g = OsEntropyGenerator()
        assert g.bytes(32) != g.bytes(32)


class TestEncodedBlock:
    """The block codecs: hex records and raw little-endian bytes."""

    WORDS = np.arange(36, dtype=np.uint32)[None]

    def test_word_count_enforced(self):
        with pytest.raises(ValueError):
            to_hex(np.array([[1, 2, 3]]))

    def test_hex_round_trip(self):
        records = to_hex(self.WORDS)
        assert len(records[0]) == 288
        assert np.array_equal(from_hex(records), self.WORDS)

    def test_raw_little_endian(self):
        data = raw((1,) + (0,) * 35)
        assert data[:4] == b"\x01\x00\x00\x00"
        assert len(data) == BLOCK_BYTES

    def test_representations_agree(self):
        words = np.array([[(i * 0x9E3779B9) & 0xFFFFFFFF for i in range(36)]], np.uint32)
        assert int(to_hex(words)[0][:8], 16) == words[0, 0]

    def test_bad_lengths_rejected(self):
        with pytest.raises(ValueError):
            from_hex(["ab"])

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 40), st.integers(0, 2**32 - 1))
    def test_codec_round_trips(self, n, seed):
        blocks = np.random.default_rng(seed).integers(0, 1 << 32, (n, 36), dtype=np.uint32)
        assert np.array_equal(from_hex(to_hex(blocks)), blocks)
        assert to_hex(blocks) == [
            "".join(f"{int(w):08x}" for w in row) for row in blocks]


class TestConfig:
    def test_mode_validated(self):
        with pytest.raises(ValueError):
            DatasetConfig(mode="both")
        with pytest.raises(ValueError):
            DatasetConfig(n_blocks=0)

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_seed_outside_64_bits_rejected(self, seed):
        # such a seed once constructed, and generate_dataset then raised
        # OverflowError, which is not a ValueError
        with pytest.raises(ValueError, match="rng_seed"):
            DatasetConfig(rng_seed=seed)
        DatasetConfig(rng_seed=(1 << 64) - 1)

    def test_as_dict_has_version(self):
        d = DatasetConfig().as_dict()
        assert d["format_version"] == 1
        assert d["cipher"]["rounds"] == 20


class TestGenerate:
    def test_deterministic_per_seed(self):
        cfg = DatasetConfig(mode="fixed", n_blocks=50, rng_seed=3)
        assert dataset_bytes(generate_dataset(cfg)) == \
               dataset_bytes(generate_dataset(cfg))
        other = DatasetConfig(mode="fixed", n_blocks=50, rng_seed=4)
        assert dataset_bytes(generate_dataset(cfg)) != \
               dataset_bytes(generate_dataset(other))

    def test_modes_differ(self):
        fixed = DatasetConfig(mode="fixed", n_blocks=20, rng_seed=1)
        variable = DatasetConfig(mode="variable", n_blocks=20, rng_seed=1)
        assert dataset_bytes(generate_dataset(fixed)) != \
               dataset_bytes(generate_dataset(variable))

    def test_blocks_unique(self):
        for mode in ("fixed", "variable"):
            cfg = DatasetConfig(mode=mode, n_blocks=200, rng_seed=7)
            blocks = generate_dataset(cfg)
            assert len({raw(b) for b in blocks}) == 200

    def test_fixed_mode_matches_scalar_blocks(self):
        # fixed mode: one key, incremented nonces, zero counter
        cfg = DatasetConfig(mode="fixed", n_blocks=5, rng_seed=11)
        blocks = generate_dataset(cfg)
        gen = SeededGenerator(11)
        key = gen.words(8)
        base = gen.words(4)
        base_int = sum(int(w) << (32 * i) for i, w in enumerate(base))
        for i, blk in enumerate(blocks):
            v = (base_int + i) % (1 << 128)
            nonce = tuple((v >> (32 * j)) & 0xFFFFFFFF for j in range(4))
            km = KeyMaterial(key, nonce)
            expect = block(init_state(km, cfg.cipher), cfg.cipher)
            assert raw(blk) == expect

    def test_variable_mode_matches_scalar_blocks(self):
        cfg = DatasetConfig(mode="variable", n_blocks=4, rng_seed=12)
        blocks = generate_dataset(cfg)
        gen = SeededGenerator(12)
        for blk in blocks:
            km = KeyMaterial(gen.words(8), gen.words(4))
            expect = block(init_state(km, cfg.cipher), cfg.cipher)
            assert raw(blk) == expect

    def test_64_bit_nonce_wraps_in_width(self):
        ccfg = CipherConfig(nonce_bits=64)
        cfg = DatasetConfig(mode="fixed", n_blocks=3, rng_seed=2, cipher=ccfg)
        blocks = generate_dataset(cfg)
        assert len(blocks) == 3
        gen = SeededGenerator(2)
        key, (n0, n1) = gen.words(8), gen.words(2).tolist()
        base = n0 | n1 << 32
        for i, blk in enumerate(blocks):
            v = (base + i) % (1 << 64)
            km = KeyMaterial(key, (v & MASK32, v >> 32, 0, 0))
            assert raw(blk) == block(init_state(km, ccfg), ccfg)

    def test_batch_boundary_invariant(self, monkeypatch):
        cfg = DatasetConfig(mode="variable", n_blocks=30, rng_seed=9)
        default = dataset_bytes(generate_dataset(cfg))
        monkeypatch.setattr(dataset, "CHUNK_BLOCKS", 7)
        assert dataset_bytes(generate_dataset(cfg)) == default

    def test_bad_entropy_choice(self):
        with pytest.raises(ValueError):
            DatasetConfig(n_blocks=1, entropy="dice")


def one_draw_reference(cfg: DatasetConfig) -> list[bytes]:
    """Each block of ``cfg`` from one draw of all its key material, block by
    block: key words, then nonce words per block (fixed mode: one key and a
    base nonce, counted up per block in its width)."""
    ccfg, n = cfg.cipher, cfg.n_blocks
    width = ccfg.nonce_bits // 32
    draws = 1 if cfg.mode == "fixed" else n
    drawn = SeededGenerator(cfg.rng_seed).words((8 + width) * draws).reshape(draws, -1).tolist()
    out = []
    for i in range(n):
        if cfg.mode == "fixed":
            base = sum(w << (32 * j) for j, w in enumerate(drawn[0][8:]))
            v = (base + i) % (1 << (32 * width))
            key, nonce = drawn[0][:8], [(v >> (32 * j)) & MASK32 for j in range(width)]
        else:
            key, nonce = drawn[i][:8], drawn[i][8:]
        km = KeyMaterial(key, tuple(nonce) + (0,) * (4 - width))
        out.append(block(init_state(km, ccfg), ccfg))
    return out


class TestChunkBoundaries:
    """Each CHUNK_BLOCKS chunk draws its key material just before its cipher
    batch; every chunk size gives the one-draw blocks, just below, at and
    above a multiple of the chunk."""

    @settings(max_examples=60, deadline=None)
    @given(
        mode=st.sampled_from(["fixed", "variable"]),
        chunk=st.integers(1, 7),
        multiple=st.integers(1, 3),
        offset=st.integers(-1, 1),
        seed=st.integers(0, (1 << 64) - 1),
        nonce_bits=st.sampled_from([64, 128]),
    )
    def test_matches_one_draw_reference(self, mode, chunk, multiple, offset, seed,
                                        nonce_bits):
        cfg = DatasetConfig(mode=mode, n_blocks=max(1, chunk * multiple + offset),
                            rng_seed=seed, cipher=CipherConfig(nonce_bits=nonce_bits))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dataset, "CHUNK_BLOCKS", chunk)
            blocks = generate_dataset(cfg)
        assert [raw(blk) for blk in blocks] == one_draw_reference(cfg)

    @pytest.mark.parametrize("mode", ["fixed", "variable"])
    def test_peak_is_output_plus_one_chunk(self, mode):
        # beside its output, a dataset holds one chunk's working set: the
        # whole draw, held through every batch, cost 393 KiB more (variable)
        # and the whole nonce range 131 KiB (fixed)
        one = DatasetConfig(mode=mode, n_blocks=CHUNK_BLOCKS, rng_seed=3)
        cfg = DatasetConfig(mode=mode, n_blocks=3 * CHUNK_BLOCKS + 1, rng_seed=3)
        chunk_peak = traced_peak(lambda: generate_dataset(one))
        more_output = (cfg.n_blocks - one.n_blocks) * BLOCK_BYTES
        assert traced_peak(lambda: generate_dataset(cfg)) < chunk_peak + more_output + (64 << 10)


class TestNonceCarries:
    """Fixed mode numbers its nonces with ``word_range``."""

    @settings(max_examples=100, deadline=None)
    @given(
        width=st.sampled_from([2, 4]),
        base=st.lists(st.sampled_from([0, 1, MASK32 - 1, MASK32])
                      | st.integers(0, MASK32), min_size=4, max_size=4),
        n=st.integers(1, 300),
    )
    @example(width=2, base=[MASK32 - 1, MASK32, 7, 7], n=4)
    @example(width=4, base=[MASK32] * 4, n=2)
    def test_word_range_matches_int_reference(self, width, base, n):
        base = base[:width]
        base_int = sum(w << (32 * i) for i, w in enumerate(base))
        got = word_range(base, n)
        assert got.shape == (width, n) and got.dtype == np.uint32
        for i in range(n):
            v = (base_int + i) % (1 << (32 * width))
            assert got[:, i].tolist() == [(v >> (32 * j)) & MASK32 for j in range(width)]


    @settings(max_examples=50, deadline=None)
    @given(base=st.lists(st.integers(0, MASK32), min_size=4, max_size=4),
           start=st.integers(0, 300), n=st.integers(1, 20))
    @example(base=[MASK32 - 2, MASK32, MASK32, MASK32], start=2, n=3)
    def test_word_range_from_start_is_a_slice(self, base, start, n):
        assert np.array_equal(word_range(base, n, start), word_range(base, start + n)[:, start:])


class TestPersistence:
    def test_round_trip(self, tmp_path):
        cfg = DatasetConfig(mode="fixed", n_blocks=25, rng_seed=6)
        blocks = generate_dataset(cfg)
        path = tmp_path / "ds.txt"
        persist(blocks, cfg, path)
        loaded, header = load(path)
        assert np.array_equal(loaded, blocks)
        assert header["rng_seed"] == 6
        assert header["format_version"] == 1

    def test_file_bytes_identical_across_runs(self, tmp_path):
        cfg = DatasetConfig(mode="variable", n_blocks=25, rng_seed=8)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        persist(generate_dataset(cfg), cfg, p1)
        persist(generate_dataset(cfg), cfg, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        blocks, header = load(path)
        assert blocks.shape == (0, 36) and header == {}

    def test_bad_header_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not json\n")
        with pytest.raises(DatasetFormatError) as exc:
            load(path)
        assert exc.value.line == 1

    @pytest.mark.parametrize("header", [{"format_version": 2, "n_blocks": 1},
                                        {"n_blocks": 1}, {"format_version": True},
                                        {"format_version": "1"}, [1, 2], None])
    def test_header_without_format_version_1_rejected(self, tmp_path, header):
        blocks = generate_dataset(DatasetConfig(n_blocks=1, rng_seed=1))
        path = tmp_path / "bad.txt"
        path.write_text(json.dumps(header) + "\n" + to_hex(blocks)[0] + "\n")
        with pytest.raises(DatasetFormatError, match="format_version") as exc:
            load(path)
        assert exc.value.line == 1

    @pytest.mark.parametrize("n_blocks", [2, 4])
    def test_record_count_checked_against_header(self, tmp_path, n_blocks):
        path = tmp_path / "ds.txt"
        persist(generate_dataset(DatasetConfig(n_blocks=3, rng_seed=1)),
                DatasetConfig(n_blocks=n_blocks, rng_seed=1), path)
        with pytest.raises(DatasetFormatError, match=f"n_blocks={n_blocks}") as exc:
            load(path)
        assert exc.value.line == 1

    def test_boolean_n_blocks_rejected(self, tmp_path):
        # True == 1, so only a type check tells it from a count of one record
        blocks = generate_dataset(DatasetConfig(n_blocks=1, rng_seed=1))
        path = tmp_path / "bool.txt"
        header = {**DatasetConfig(n_blocks=1, rng_seed=1).as_dict(), "n_blocks": True}
        path.write_text(json.dumps(header) + "\n" + to_hex(blocks)[0] + "\n")
        with pytest.raises(DatasetFormatError, match="n_blocks=true") as exc:
            load(path)
        assert exc.value.line == 1

    @pytest.mark.parametrize("line", [1, 3])
    def test_non_utf8_line_number(self, tmp_path, line):
        cfg = DatasetConfig(n_blocks=2, rng_seed=1)
        path = tmp_path / "bad.txt"
        persist(generate_dataset(cfg), cfg, path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[line - 1] = b"\xff" + lines[line - 1][1:]
        path.write_bytes(b"".join(lines))
        with pytest.raises(DatasetFormatError) as exc:
            load(path)
        assert exc.value.line == line

    def test_bad_record_line_number(self, tmp_path):
        cfg = DatasetConfig(n_blocks=2, rng_seed=1)
        path = tmp_path / "trunc.txt"
        persist(generate_dataset(cfg), cfg, path)
        with open(path, "a") as fh:
            fh.write("deadbeef\n")
        with pytest.raises(DatasetFormatError) as exc:
            load(path)
        assert exc.value.line == 4
        assert "line 4" in str(exc.value)

    def test_blank_lines_skipped(self, tmp_path):
        cfg = DatasetConfig(n_blocks=1, rng_seed=1)
        blocks = generate_dataset(cfg)
        path = tmp_path / "blank.txt"
        path.write_text(json.dumps(cfg.as_dict()) + "\n\n" + to_hex(blocks)[0] + "\n")
        loaded, _ = load(path)
        assert np.array_equal(loaded, blocks)

    @pytest.mark.parametrize("word", ["-0000001", "0x000001", "0000_001", " 0000001"])
    def test_non_hex_record_rejected(self, tmp_path, word):
        cfg = DatasetConfig(n_blocks=2, rng_seed=1)
        path = tmp_path / "bad.txt"
        persist(generate_dataset(cfg), cfg, path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2][:40] + word + lines[2][48:]
        assert len(lines[2]) == 288
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError) as exc:
            load(path)
        assert exc.value.line == 3

    def test_round_trip_across_chunks(self, tmp_path):
        cfg = DatasetConfig(mode="variable", n_blocks=CHUNK_BLOCKS + 3, rng_seed=4)
        blocks = generate_dataset(cfg)
        path = tmp_path / "big.txt"
        persist(blocks, cfg, path)
        lines = path.read_text().splitlines()
        assert len(lines) == CHUNK_BLOCKS + 4
        assert np.array_equal(load(path)[0], blocks)
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(DatasetFormatError) as exc:
            load(path)
        assert exc.value.line == 1
        lines[-1] = lines[-1][:-1] + "g"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError) as exc:
            load(path)
        assert exc.value.line == CHUNK_BLOCKS + 4

    def test_round_trip_across_record_slices(self, tmp_path):
        cfg = DatasetConfig(mode="variable", n_blocks=2 * RECORD_SLICE + 1, rng_seed=5)
        blocks = generate_dataset(cfg)
        path = tmp_path / "sliced.txt"
        persist(blocks, cfg, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2 * RECORD_SLICE + 2
        assert all(len(line) == 288 for line in lines[1:])
        loaded, header = load(path)
        assert np.array_equal(loaded, blocks) and header == cfg.as_dict()
        # a blank line moves every later record one line down
        lines.insert(RECORD_SLICE, "")
        path.write_text("\n".join(lines) + "\n")
        assert np.array_equal(load(path)[0], blocks)

    @pytest.mark.parametrize("offset", [0, 1])
    def test_bad_record_past_a_slice_boundary(self, tmp_path, offset):
        # the records of the first slice sit on lines 2 .. RECORD_SLICE + 1
        cfg = DatasetConfig(n_blocks=RECORD_SLICE + 3, rng_seed=2)
        path = tmp_path / "bad.txt"
        persist(generate_dataset(cfg), cfg, path)
        lines = path.read_text().splitlines()
        line = RECORD_SLICE + 2 + offset
        lines[line - 1] = "g" + lines[line - 1][1:]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError) as exc:
            load(path)
        assert exc.value.line == line

    def test_n_blocks_beyond_the_file_is_a_format_error(self, tmp_path):
        # the header's count is checked against the records, not allocated
        cfg = DatasetConfig(n_blocks=3, rng_seed=1)
        header = dict(cfg.as_dict(), n_blocks=10 ** 15)
        path = tmp_path / "claims.txt"
        path.write_text(json.dumps(header) + "\n"
                        + "\n".join(to_hex(generate_dataset(cfg))) + "\n")
        with pytest.raises(DatasetFormatError) as exc:
            load(path)
        assert exc.value.line == 1 and "holds 3 records" in str(exc.value)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_pipe_without_n_blocks(self, tmp_path):
        # a pipe has no size to bound the records by: they load all the same
        blocks = generate_dataset(DatasetConfig(n_blocks=RECORD_SLICE + 5, rng_seed=8))
        path = tmp_path / "pipe"
        os.mkfifo(path)
        text = '{"format_version": 1}\n' + "\n".join(to_hex(blocks)) + "\n"
        writer = threading.Thread(target=path.write_text, args=(text,), daemon=True)
        writer.start()
        try:
            loaded, header = load(path)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert header == {"format_version": 1}
        assert np.array_equal(loaded, blocks)

    def test_load_peak(self, tmp_path):
        # the records are decoded a slice at a time into one array: no
        # chunk list beside it, nor thousands of lines of text
        cfg = DatasetConfig(mode="variable", n_blocks=2500, rng_seed=6)
        path = tmp_path / "ds.txt"
        persist(generate_dataset(cfg), cfg, path)
        assert traced_peak(lambda: load(path)) < 1.5 * (1 << 20)
