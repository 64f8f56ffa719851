"""The line-table quarter round and the wavefront block function against
the straight-line oracles in helpers.py."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from keystream_lab.cipher import (
    LINE_ORDERS,
    ROTATIONS,
    CipherConfig,
    KeyMaterial,
    MASK32,
    SCHEDULE_PRESETS,
    block,
    block_words_batch,
    init_state,
    keystream,
    qrf,
    qrf_vec,
)

from helpers import qrf_forward, qrf_inverse, qrf_rfc, qrf_small, reference_block

WIDTHS = (4, 8, 16, 32)
ROTATION_SETS = (ROTATIONS, (7, 9, 13, 18, 4, 2))  # the default and a substituted set


def oracle(quad, variant, bits):
    if variant == "rfc":
        return qrf_rfc(*quad, bits=bits)
    return qrf_forward(*quad) if bits == 32 else qrf_small(quad, bits)


@st.composite
def quads(draw, max_size=1):
    """(variant, bits, list of quads of that width)."""
    variant = draw(st.sampled_from(["native", "rfc"]))
    bits = draw(st.sampled_from(WIDTHS))
    word = st.integers(0, (1 << bits) - 1)
    batch = draw(st.lists(st.tuples(word, word, word, word), min_size=1, max_size=max_size))
    return variant, bits, batch


@settings(max_examples=300, deadline=None)
@given(quads())
def test_qrf_on_ints_matches_oracles(case):
    variant, bits, [quad] = case
    assert qrf(quad, variant=variant, word_bits=bits) == oracle(quad, variant, bits)


@settings(max_examples=100, deadline=None)
@given(quads(max_size=33))
def test_qrf_vec_on_arrays_matches_oracles(case):
    variant, bits, batch = case
    cols = np.array(batch, dtype=np.uint32).T
    before = cols.copy()
    out = qrf_vec(*cols, variant=variant, word_bits=bits)
    assert all(o.dtype == np.uint32 for o in out)
    assert np.array_equal(cols, before)
    got = np.array(out).T.tolist()
    assert [tuple(g) for g in got] == [oracle(q, variant, bits) for q in batch]


@settings(max_examples=100, deadline=None)
@given(quads(max_size=24), st.integers(1, 4))
def test_qrf_vec_on_gathered_quads_matches_oracles(case, k):
    # the (k, B) shape of a wavefront gather in _run_block: quad q of lane i
    # is words idx[:, q] of column i
    variant, bits, batch = case
    groups = [batch[q % len(batch):] + batch[:q % len(batch)] for q in range(k)]
    words = np.array(groups, dtype=np.uint32).transpose(0, 2, 1).reshape(4 * k, -1)
    idx = np.arange(4 * k).reshape(k, 4).T
    gathered = words[idx]
    before = gathered.copy()
    out = qrf_vec(*gathered, variant=variant, word_bits=bits)
    assert out.shape == (4, k, len(batch)) and out.dtype == np.uint32
    assert np.array_equal(gathered, before)
    for q, group in enumerate(groups):
        expect = [oracle(quad, variant, bits) for quad in group]
        assert [tuple(w) for w in out[:, q].T.tolist()] == expect


@settings(max_examples=50, deadline=None)
@given(quads())
def test_qrf_returns_python_ints(case):
    variant, bits, [quad] = case
    assert all(type(w) is int for w in qrf(quad, variant=variant, word_bits=bits))


@pytest.mark.parametrize("variant", sorted(LINE_ORDERS))
@pytest.mark.parametrize("bits", WIDTHS)
@pytest.mark.parametrize("rotations", ROTATION_SETS)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_qrf_inverse_round_trip(variant, bits, rotations, data):
    word = st.integers(0, (1 << bits) - 1)
    quad = data.draw(st.tuples(word, word, word, word))
    out = qrf(quad, rotations, variant, bits)
    assert qrf_inverse(*out, rotations=rotations, variant=variant, bits=bits) == quad


@pytest.mark.parametrize("variant", sorted(LINE_ORDERS))
@pytest.mark.parametrize("mutate", [
    lambda lines: [lines[0], lines[2], lines[1], *lines[3:]],   # two lines swapped
    lambda lines: [*lines[:3], (lines[3][0], (lines[3][1] + 1) % 4, lines[3][2]), *lines[4:]],
    lambda lines: [(0, 1, 2), *lines[1:]],                      # first line rotates c
], ids=["swap", "add_source", "rotate_target"])
def test_mutated_line_table_fails_round_trip(variant, mutate, monkeypatch):
    monkeypatch.setitem(LINE_ORDERS, variant, tuple(mutate(list(LINE_ORDERS[variant]))))
    rng = np.random.default_rng(5)
    for bits in WIDTHS:
        quads = rng.integers(0, 1 << bits, (64, 4)).tolist()
        assert any(qrf_inverse(*qrf(q, variant=variant, word_bits=bits),
                               variant=variant, bits=bits) != tuple(q) for q in quads)


@pytest.mark.parametrize("schedule", sorted(SCHEDULE_PRESETS))
@pytest.mark.parametrize("n", [1, 7, 64])
def test_block_words_batch_matches_reference(schedule, n):
    quarter_round = qrf_rfc if SCHEDULE_PRESETS[schedule] == "rfc" else qrf_forward
    rng = np.random.default_rng(n)
    states = rng.integers(0, 1 << 32, (36, n), dtype=np.uint32)
    for rounds in (2, 20):
        out = block_words_batch(states, CipherConfig(rounds=rounds, schedule=schedule))
        assert out.shape == (36, n)
        for j in range(n):
            state = [int(w) for w in states[:, j]]
            expect = reference_block(state, rounds, quarter_round)
            assert out[:, j].astype("<u4").tobytes() == expect


@pytest.mark.parametrize("counter", [
    (MASK32 - 1, 0, 0, 0),
    (MASK32, MASK32, 0, 0),
    (MASK32 - 1, MASK32, MASK32, 6),
])
def test_keystream_counter_carries_match_per_block(counter):
    cfg = CipherConfig()
    km = KeyMaterial(tuple(range(8)), (1, 2, 3, 4), counter)
    first = sum(w << (32 * i) for i, w in enumerate(counter))
    expect = b""
    for i in range(4):
        c = first + i
        words = tuple((c >> (32 * k)) & MASK32 for k in range(4))
        expect += block(init_state(KeyMaterial(km.key, km.nonce, words), cfg), cfg)
    assert keystream(km, 4, cfg) == expect
