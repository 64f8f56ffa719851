import random
import struct

import numpy as np
import pytest

from keystream_lab.cipher import (
    BLOCK_BYTES,
    BLOCK_WAVES,
    CONSTANTS,
    CipherConfig,
    CounterOverflowError,
    KeyMaterial,
    MASK32,
    ROTATIONS,
    STATE_WORDS,
    block,
    block_words_batch,
    chacha20_block,
    init_state,
    keystream,
    qrf,
    qrf_vec,
    rotl32,
    xor_encrypt,
    _run_block,
)

from helpers import qrf_forward, qrf_inverse, reference_block


# frozen expected values, computed once with an independent implementation
QRF_UNIT = (0x1000001, 0x1000080, 0x4000000, 0x10100000)
QRF_CONSTANTS = (0x884D8B3C, 0x98B5752E, 0xF136CFAC, 0x67557BFC)

# RFC 8439 section 2.3.2 block output words
RFC8439_WORDS = (
    0xE4E7F110, 0x15593BD1, 0x1FDD0F50, 0xC47120A3,
    0xC7F4D1C7, 0x0368C033, 0x9AAA2204, 0x4E6CD4C3,
    0x466482D2, 0x09AA9F07, 0x05D7C214, 0xA2028BD9,
    0xD19C12B5, 0xB94E16DE, 0xE883D0CB, 0x4E3C50A2,
)


class TestRotl:
    def test_basic(self):
        assert rotl32(1, 1) == 2
        assert rotl32(0x80000000, 1) == 1
        assert rotl32(0xDEADBEEF, 0) == 0xDEADBEEF
        assert rotl32(0xDEADBEEF, 32) == 0xDEADBEEF

    def test_matches_formula(self):
        rng = random.Random(7)
        for _ in range(200):
            x = rng.getrandbits(32)
            r = rng.randrange(32)
            assert rotl32(x, r) == ((x << r) | (x >> (32 - r))) & MASK32


class TestQrf:
    def test_zero_fixed_point(self):
        assert qrf((0, 0, 0, 0)) == (0, 0, 0, 0)

    def test_frozen_unit_vector(self):
        assert qrf((1, 0, 0, 0)) == QRF_UNIT

    def test_frozen_constants_vector(self):
        assert qrf(CONSTANTS) == QRF_CONSTANTS

    def test_matches_independent_transcription(self):
        rng = random.Random(1)
        for _ in range(500):
            quad = tuple(rng.getrandbits(32) for _ in range(4))
            assert qrf(quad) == qrf_forward(*quad)

    def test_rotations_default(self):
        assert ROTATIONS == (16, 12, 8, 7, 4, 2)

    def test_bijection_round_trip(self):
        rng = random.Random(2)
        for _ in range(1000):
            quad = tuple(rng.getrandbits(32) for _ in range(4))
            assert qrf_inverse(*qrf(quad)) == quad

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            qrf((0, 0, 0, 0), variant="nope")

    def test_rfc_variant_differs(self):
        quad = (1, 2, 3, 4)
        assert qrf(quad, variant="rfc") != qrf(quad, variant="native")

    def test_vectorised_matches_scalar(self):
        rng = np.random.default_rng(3)
        cols = [rng.integers(0, 1 << 32, 256, dtype=np.uint32) for _ in range(4)]
        for variant in ("native", "rfc"):
            with np.errstate(over="ignore"):
                out = qrf_vec(*cols, variant=variant)
            for i in range(256):
                quad = tuple(int(c[i]) for c in cols)
                assert tuple(int(o[i]) for o in out) == qrf(quad, variant=variant)

    def test_reduced_width_masks(self):
        out = qrf((0xF, 0x3, 0x8, 0x1), word_bits=4)
        assert all(0 <= w < 16 for w in out)


class TestKeyMaterial:
    def test_word_counts_enforced(self):
        with pytest.raises(ValueError):
            KeyMaterial((1, 2, 3))
        with pytest.raises(ValueError):
            KeyMaterial(tuple(range(8)), nonce=(1, 2))
        with pytest.raises(ValueError):
            KeyMaterial(tuple(range(8)), counter=(1,))

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            KeyMaterial((1 << 32,) + (0,) * 7)

    def test_from_bytes_little_endian(self):
        km = KeyMaterial.from_bytes(bytes(range(32)), bytes(range(16)), counter=5)
        assert km.key[0] == 0x03020100
        assert km.nonce == struct.unpack("<4I", bytes(range(16)))
        assert km.counter == (5, 0, 0, 0)

    def test_from_bytes_counter_split(self):
        km = KeyMaterial.from_bytes(bytes(32), counter=(1 << 32) + 7)
        assert km.counter == (7, 1, 0, 0)

    @pytest.mark.parametrize("counter", [-1, 1 << 128])
    def test_from_bytes_rejects_out_of_range_counter(self, counter):
        with pytest.raises(ValueError):
            KeyMaterial.from_bytes(bytes(32), counter=counter)
        KeyMaterial.from_bytes(bytes(32), counter=(1 << 128) - 1)

    def test_from_bytes_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            KeyMaterial.from_bytes(bytes(31))
        with pytest.raises(ValueError):
            KeyMaterial.from_bytes(bytes(32), bytes(5))


class TestCipherConfig:
    def test_defaults(self):
        cfg = CipherConfig()
        assert cfg.rounds == 20
        assert cfg.qrf_variant == "native"
        assert cfg.nonce_bits == 128

    def test_rfc_preset_selects_rfc_qrf(self):
        assert CipherConfig(schedule="rfc-style-qrf").qrf_variant == "rfc"

    def test_rounds_validation(self):
        with pytest.raises(ValueError):
            CipherConfig(rounds=3)
        with pytest.raises(ValueError):
            CipherConfig(rounds=-2)
        with pytest.raises(ValueError):
            CipherConfig(rounds=0)

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            CipherConfig(schedule="bogus")
        with pytest.raises(ValueError):
            CipherConfig(padding="ones")
        with pytest.raises(ValueError):
            CipherConfig(nonce_bits=96)


class TestInitState:
    def test_layout(self):
        km = KeyMaterial(tuple(range(100, 108)), (1, 2, 3, 4), (5, 6, 7, 8))
        state = init_state(km, CipherConfig())
        assert len(state) == STATE_WORDS == 36
        assert tuple(state[0:4]) == CONSTANTS
        assert tuple(state[4:12]) == tuple(range(100, 108))
        assert tuple(state[12:16]) == (1, 2, 3, 4)
        assert tuple(state[16:20]) == (5, 6, 7, 8)
        assert state[20:36] == [0] * 16

    def test_constant_padding(self):
        km = KeyMaterial(tuple(range(8)))
        state = init_state(km, CipherConfig(padding="constant"))
        assert state[20:24] == [0, 0, 0, 0]
        assert tuple(state[24:28]) == CONSTANTS
        assert tuple(state[28:32]) == CONSTANTS
        assert tuple(state[32:36]) == CONSTANTS

    def test_64_bit_nonce_mode_enforced(self):
        km = KeyMaterial(tuple(range(8)), nonce=(1, 2, 3, 0))
        with pytest.raises(ValueError):
            init_state(km, CipherConfig(nonce_bits=64))
        km_ok = KeyMaterial(tuple(range(8)), nonce=(1, 2, 0, 0))
        assert init_state(km_ok, CipherConfig(nonce_bits=64))[12:14] == [1, 2]


class TestBlock:
    def _state(self, seed):
        rng = random.Random(seed)
        km = KeyMaterial(
            tuple(rng.getrandbits(32) for _ in range(8)),
            tuple(rng.getrandbits(32) for _ in range(4)),
            tuple(rng.getrandbits(32) for _ in range(4)),
        )
        return init_state(km, CipherConfig())

    def test_block_length(self):
        assert len(block(self._state(0), CipherConfig())) == BLOCK_BYTES == 144

    def test_matches_independent_reference(self):
        for seed in range(10):
            state = self._state(seed)
            for rounds in (2, 8, 20):
                cfg = CipherConfig(rounds=rounds)
                assert block(state, cfg) == reference_block(state, rounds)

    def test_degenerate_rounds_doubles_state(self):
        # zero rounds leave only the feed-forward: the output is the doubled state
        state = self._state(1)
        states = np.array(state, dtype=np.uint32)[:, None]
        words = _run_block(states, 0, BLOCK_WAVES, "native")[:, 0].tolist()
        assert words == [(2 * w) & MASK32 for w in state]

    def test_input_state_not_mutated(self):
        state = self._state(2)
        snapshot = list(state)
        block(state, CipherConfig())
        assert state == snapshot

    def test_wrong_state_size_rejected(self):
        with pytest.raises(ValueError):
            block([0] * 16, CipherConfig())

    def test_batch_matches_scalar(self):
        cfg = CipherConfig()
        states = [self._state(s) for s in range(17)]
        arr = np.array(states, dtype=np.uint32).T
        out = block_words_batch(arr, cfg)
        for i, state in enumerate(states):
            expect = struct.unpack("<36I", block(state, cfg))
            assert tuple(int(w) for w in out[:, i]) == expect

    def test_batch_shape_checked(self):
        with pytest.raises(ValueError):
            block_words_batch(np.zeros((16, 2), dtype=np.uint32), CipherConfig())


class TestKeystream:
    KM = KeyMaterial(tuple(range(8)), (9, 9, 9, 9))

    def test_prefix_stability(self):
        cfg = CipherConfig()
        long = keystream(self.KM, 4, cfg)
        short = keystream(self.KM, 2, cfg)
        assert long[: len(short)] == short

    def test_blocks_differ(self):
        ks = keystream(self.KM, 3, CipherConfig())
        blocks = [ks[i * BLOCK_BYTES: (i + 1) * BLOCK_BYTES] for i in range(3)]
        assert len(set(blocks)) == 3

    def test_counter_increment_observable(self):
        cfg = CipherConfig()
        km_next = KeyMaterial(self.KM.key, self.KM.nonce, (1, 0, 0, 0))
        ks = keystream(self.KM, 2, cfg)
        assert ks[BLOCK_BYTES:] == keystream(km_next, 1, cfg)

    def test_counter_word_carry(self):
        cfg = CipherConfig()
        km = KeyMaterial(self.KM.key, self.KM.nonce, (MASK32, 0, 0, 0))
        km_carried = KeyMaterial(self.KM.key, self.KM.nonce, (0, 1, 0, 0))
        ks = keystream(km, 2, cfg)
        assert ks[BLOCK_BYTES:] == keystream(km_carried, 1, cfg)

    def test_counter_overflow_raises(self):
        km = KeyMaterial(self.KM.key, self.KM.nonce, (MASK32,) * 4)
        with pytest.raises(CounterOverflowError):
            keystream(km, 2, CipherConfig())
        # a single block at the top of the range is still fine
        assert len(keystream(km, 1, CipherConfig())) == BLOCK_BYTES

    def test_n_blocks_validated(self):
        with pytest.raises(ValueError):
            keystream(self.KM, 0, CipherConfig())

    def test_xor_encrypt_involution(self):
        cfg = CipherConfig()
        msg = bytes(range(256)) + b"tail"
        ct = xor_encrypt(msg, self.KM, cfg)
        assert ct != msg
        assert xor_encrypt(ct, self.KM, cfg) == msg
        assert xor_encrypt(b"", self.KM, cfg) == b""


class TestChaCha20Reference:
    def test_rfc8439_vector(self):
        km = KeyMaterial.from_bytes(
            bytes(range(32)),
            bytes.fromhex("000000090000004a00000000"
                          "00000000"),  # 96-bit nonce zero-extended
            counter=1,
        )
        out = chacha20_block(km)
        assert struct.unpack("<16I", out) == RFC8439_WORDS
        assert out[:8].hex() == "10f1e7e4d13b5915"

    def test_layout_constraints(self):
        km = KeyMaterial(tuple(range(8)), (0, 0, 0, 1))
        with pytest.raises(ValueError):
            chacha20_block(km)
        km = KeyMaterial(tuple(range(8)), counter=(0, 1, 0, 0))
        with pytest.raises(ValueError):
            chacha20_block(km)
