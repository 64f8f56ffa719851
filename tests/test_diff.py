import hashlib
import itertools
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import special

from keystream_lab import cipher, cli, diff
from keystream_lab.cipher import ROTATIONS, qrf_vec
from keystream_lab.diff import (
    AdvantageEstimate,
    TrialConfig,
    avalanche_profile,
    collision_trial_batch,
    collision_trials,
    default_delta_set,
    distinguisher_advantage,
    rotation_sweep,
    seed_delta,
    wilson_interval,
)

from helpers import (
    avalanche_reference, collision_reference, flipped_bits_reference, qrf_forward,
    qrf_small, traced_peak,
)


class TestSeedDelta:
    def test_frozen_value(self):
        assert seed_delta((1,), 1) == (6,)

    def test_zero_inputs(self):
        assert seed_delta((0,), 7) == (0,)
        assert seed_delta((0xDEADBEEF,), 0) == (0,)

    def test_word_count_preserved(self):
        assert len(seed_delta((1, 2, 3, 4), 5)) == 4

    def test_shift_range_validated(self):
        with pytest.raises(ValueError):
            seed_delta((1,), 32)
        with pytest.raises(ValueError):
            seed_delta((1,), -1)
        with pytest.raises(ValueError):
            seed_delta((), 1)

    @pytest.mark.parametrize("word", [(1 << 32) | 5, -1])
    def test_words_outside_32_bits_rejected(self, word):
        with pytest.raises(ValueError):
            seed_delta((word,), 1)


class TestTrialConfig:
    def test_rounds_sorted_and_deduped(self):
        cfg = TrialConfig(rounds=(4, 1, 4, 2))
        assert cfg.rounds == (1, 2, 4)

    def test_minimum_trials(self):
        with pytest.raises(ValueError):
            TrialConfig(trials=100)

    def test_empty_rounds_rejected(self):
        with pytest.raises(ValueError):
            TrialConfig(rounds=())

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            TrialConfig(trials=1024, rounds=(1,), partial_threshold_bits=-3)


class TestCollisionTrials:
    CFG = TrialConfig(trials=1 << 12, rounds=(1, 2), rng_seed=42)

    def test_zero_delta_always_collides(self):
        stats = collision_trial_batch((0, 0, 0, 0), self.CFG)
        for st in stats.values():
            assert st.full_collisions == st.trials
            assert st.partial_collisions == 0
            assert st.p_hat == 1.0
            assert not st.passes_bound

    def test_nonzero_delta_never_fully_collides(self):
        # the quarter round is a bijection, so exact collisions need delta = 0
        stats = collision_trial_batch((0, 0, 0, 0x80000000), self.CFG)
        for st in stats.values():
            assert st.full_collisions == 0

    def test_reproducible_and_batch_invariant(self):
        delta = (0, 0, 0, 1)
        a = collision_trial_batch(delta, self.CFG)
        b = collision_trial_batch(delta, self.CFG)
        assert {r: s.as_dict() for r, s in a.items()} == \
               {r: s.as_dict() for r, s in b.items()}

    def test_eight_word_delta_accepted(self):
        stats = collision_trial_batch((0,) * 7 + (1,), self.CFG)
        assert set(stats) == {1, 2}

    def test_bad_delta_length(self):
        with pytest.raises(ValueError):
            collision_trial_batch((0, 0, 0), self.CFG)

    def test_exhaustive_small_width_oracle(self):
        """Exhaustively enumerate the 4-bit-word quarter round and compare
        near-collision rates against the sampling harness at the same width."""
        bits, thresh = 4, 2
        delta = (0, 0, 0, 8)
        total = 0
        near = 0
        for quad in itertools.product(range(16), repeat=4):
            xp = tuple((w ^ d) & 0xF for w, d in zip(quad, delta))
            y = qrf_small(quad, bits)
            yp = qrf_small(xp, bits)
            hw = sum(bin(a ^ b).count("1") for a, b in zip(y, yp))
            total += 1
            if 0 < hw <= thresh:
                near += 1
        exact_p = near / total
        cfg = TrialConfig(trials=1 << 16, rounds=(1,),
                          partial_threshold_bits=thresh, rng_seed=3)
        st = collision_trial_batch(delta, cfg, word_bits=bits)[1]
        # sampled estimate within 5 binomial sigma of the exhaustive truth
        sigma = math.sqrt(exact_p * (1 - exact_p) / cfg.trials)
        assert st.full_collisions == 0
        assert abs(st.p_hat - exact_p) <= 5 * max(sigma, 1e-9)

    @pytest.mark.parametrize("delta, bits", [((0, 0, 0, 0x10), 4), ((0, 0, 0, -1), 32),
                                             ((0, 0, 1 << 32, 0), 32), ((0,) * 7 + (-2,), 8)])
    def test_delta_outside_word_width_rejected(self, delta, bits):
        with pytest.raises(ValueError):
            collision_trial_batch(delta, TrialConfig(trials=1024, rounds=(1,)), word_bits=bits)

    def test_decay_with_rounds(self):
        cfg = TrialConfig(trials=1 << 16, rounds=(1, 2, 4), rng_seed=0)
        stats = collision_trial_batch((0, 0, 0, 0x80000000), cfg)
        assert stats[1].collisions > stats[2].collisions
        assert stats[4].collisions == 0
        assert stats[4].passes_bound

    def test_frozen_counts(self):
        # values computed before the paired-evaluation kernel was shared
        for delta, counts in [((0, 0, 0, 1), {1: (0, 51), 2: (0, 0)}),
                              ((0,) * 7 + (1,), {1: (0, 52), 2: (0, 0)})]:
            stats = collision_trial_batch(delta, self.CFG)
            assert {r: (s.full_collisions, s.partial_collisions)
                    for r, s in stats.items()} == counts

    def test_upper_bound_rule_of_three(self):
        # 0 hits in N trials: the exact bound is 1 - 0.05^(1/N), about 3/N
        n = 1 << 20
        cfg = TrialConfig(trials=n, rounds=(8,), rng_seed=0)
        st = collision_trial_batch((0, 0, 0, 0x80000000), cfg)[8]
        assert st.collisions == 0
        assert st.p_upper == pytest.approx(1 - 0.05 ** (1 / n), rel=1e-9)
        assert st.p_upper == pytest.approx(2.857e-6, rel=1e-3)
        assert st.as_dict()["p_upper"] == st.p_upper

    def test_upper_bound_brackets_estimate(self):
        stats = collision_trial_batch((0, 0, 0, 1), self.CFG)
        assert stats[1].p_hat < stats[1].p_upper < 1.0
        zero = collision_trial_batch((0, 0, 0, 0), self.CFG)
        assert all(s.p_upper == 1.0 for s in zero.values())

    def test_default_delta_set_nonzero(self):
        deltas = default_delta_set(seed_patterns=[0xABCD])
        assert len(deltas) == 7
        assert all(any(w for w in d) for d in deltas)
        assert all(len(d) == 4 for d in deltas)


class TestKernel:
    def test_matches_paired_evaluation(self):
        # 20 lanes in chunks of 8, 8 and 4; two per-lane deltas served per x
        rng = random.Random(4)
        xs = [tuple(rng.getrandbits(32) for _ in range(4)) for _ in range(20)]
        deltas = [[tuple(rng.getrandbits(32) for _ in range(4)) for _ in xs]
                  for _ in range(2)]
        x = np.array(xs, dtype=np.uint32).T.copy()
        darrays = [np.array(ds, dtype=np.uint32).T for ds in deltas]
        expect = {}     # (round, lane, delta index) -> y xor y'
        for t, quad in enumerate(xs):
            for k, ds in enumerate(deltas):
                y, yp = quad, tuple(a ^ d for a, d in zip(quad, ds[t]))
                for r in range(1, 4):
                    y, yp = qrf_forward(*y), qrf_forward(*yp)
                    expect[r, t, k] = tuple(a ^ b for a, b in zip(y, yp))
        seen = set()
        chunks = ((lanes, x[:, lanes], [d[:, lanes] for d in darrays])
                  for lanes in (slice(0, 8), slice(8, 16), slice(16, 20)))
        for r, lanes, ds in diff._paired_chunks(chunks, (1, 2, 3), cipher._round_step()):
            for k, d in enumerate(ds):
                for t, col in zip(range(20)[lanes], d.T):
                    assert tuple(col.tolist()) == expect[r, t, k]
                    seen.add((r, t, k))
        assert seen == set(expect)
        # x ends as y after the last round
        assert [tuple(col.tolist()) for col in x.T] == [
            qrf_forward(*qrf_forward(*qrf_forward(*q))) for q in xs]

    @pytest.mark.parametrize("words, nonce, waves, rotations, variant", [
        (36, 12, cipher.BLOCK_WAVES, ROTATIONS, "native"),
        (16, 13, cipher.CHACHA20_WAVES, ROTATIONS[:4], "rfc"),
    ], ids=["block", "chacha20"])
    def test_block_rounds_match_run_block(self, words, nonce, waves, rotations, variant):
        """Block states through the kernel: after r rounds (round 3 is a
        column round after a diagonal one) y is the block function's output
        without its feed-forward, and each difference is the xor of two."""
        step = cipher._round_step(waves, rotations, variant)
        x = np.random.default_rng(5).integers(0, 1 << 32, (words, 50), dtype=np.uint32)
        delta = np.zeros((words, 1), dtype=np.uint32)
        delta[nonce] = 1 << 13      # bit 13 of nonce word n0
        y, seen = x.copy(), []
        for r, _, (d,) in diff._paired_chunks([(None, y, [delta])], (1, 2, 3), step):
            out = cipher._run_block(x, r, step) - x
            out_p = cipher._run_block(x ^ delta, r, step) - (x ^ delta)
            np.testing.assert_array_equal(y, out)
            np.testing.assert_array_equal(d, out ^ out_p)
            seen.append(r)
        assert seen == [1, 2, 3]

    def test_six_deltas_run_seven_trajectories(self, monkeypatch, tmp_path):
        """A 6-delta diff runs one shared y and six y' per round and lane
        chunk (not a y per delta), and no call exceeds the chunk."""
        monkeypatch.setattr(diff, "_LANES", 1024)
        calls, qrf_lines = [], cipher._qrf_lines

        def counted(words, *args, **kwargs):
            calls.append(words.shape[-1])
            return qrf_lines(words, *args, **kwargs)

        monkeypatch.setattr(cipher, "_qrf_lines", counted)
        argv = ["diff", "--trials", "4096", "--rounds", "1", "2", "--seed", "3",
                "--out-dir", str(tmp_path)]
        assert cli.main(argv) == 0
        assert len(calls) == 7 * 2 * 4
        assert set(calls) == {1024}
        calls.clear()
        # the zero delta's y' is y: it is counted without a trajectory
        assert cli.main(argv + ["--include-zero-control"]) == 0
        assert len(calls) == 7 * 2 * 4


class TestDrawnChunks:
    """The chunked reader returns the words of the batch draws it replaces,
    as contiguous quads, and leaves the generator where they leave it."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 1 << 32),
           draws=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 700)),
                          min_size=1, max_size=4),
           width=st.integers(1, 300))
    @example(seed=0, draws=[(1, 600), (2, 333), (1, 7)], width=100)   # width divides 600
    @example(seed=1, draws=[(3, 1), (2, 5), (1, 3)], width=300)       # one chunk per draw
    @example(seed=2, draws=[(1, 1), (1, 1000)], width=1)              # one lane per chunk
    def test_matches_batch_draws(self, seed, draws, width):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        # row r of each (4m, n) draw at [r % 4, r // 4]
        expect = [ref.integers(0, 1 << 32, (4 * m, n), dtype=np.uint32)
                  .reshape(m, 4, n).transpose(1, 0, 2) for m, n in draws]
        ends = [0] * len(draws)
        with mock.patch.object(diff, "_LANES", width):
            for j, lanes, x in diff._drawn_chunks(rng, draws):
                assert lanes.start == ends[j] and 0 < lanes.stop - lanes.start <= width
                assert x.flags.c_contiguous and x.dtype == np.uint32
                assert np.array_equal(x, expect[j][..., lanes])
                ends[j] = lanes.stop
        assert ends == [n for _, n in draws]
        # the next draws agree, an odd number of words included
        for draw in (lambda g: g.integers(0, 1 << 32, 5, dtype=np.uint32),
                     lambda g: g.random(3)):
            assert np.array_equal(draw(rng), draw(ref))

    @pytest.mark.parametrize("skip, count", [(0, 2), (1, 2), (5, 1), (7, 10)])
    def test_words_at_an_offset(self, skip, count):
        expect = np.random.default_rng(3).integers(0, 1 << 32, skip + count, dtype=np.uint32)
        words = diff._words(np.random.default_rng(3).bit_generator, count, skip)
        assert np.array_equal(words, expect[skip:])

    @pytest.mark.parametrize("bits", range(1, 32))
    def test_narrow_draw_is_the_top_bits(self, bits):
        # integers(0, 2^w) is Lemire's multiply-shift, which never rejects:
        # the top w bits of the 32-bit words, leaving the generator alike
        for count in (1, 6, 1001, 1 << 12):
            narrow, full = np.random.default_rng(bits), np.random.default_rng(bits)
            top = full.integers(0, 1 << 32, count, dtype=np.uint32) >> np.uint32(32 - bits)
            assert np.array_equal(narrow.integers(0, 1 << bits, count, dtype=np.uint32), top)
            for draw in (lambda g: g.integers(0, 1 << 32, 5, dtype=np.uint32),
                         lambda g: g.random(3)):
                assert np.array_equal(draw(narrow), draw(full))


class TestSharedTrajectory:
    """``collision_trials`` equals one ``collision_trial_batch`` per delta,
    and both equal the per-delta reference loop."""

    @staticmethod
    def check(deltas, cfg, word_bits=32, batch=1 << 20):
        shared = collision_trials(deltas, cfg, word_bits=word_bits)
        one_by_one = [collision_trial_batch(d, cfg, word_bits=word_bits) for d in deltas]
        assert [{r: s.as_dict() for r, s in stats.items()} for stats in shared] == \
               [{r: s.as_dict() for r, s in stats.items()} for stats in one_by_one]
        for delta, stats in zip(deltas, shared):
            assert {r: (s.full_collisions, s.partial_collisions) for r, s in stats.items()} \
                == collision_reference(delta, cfg, qrf_vec, batch, word_bits)

    def test_default_deltas_with_zero_control(self):
        cfg = TrialConfig(trials=1 << 12, rounds=(1, 2, 4, 8), rng_seed=11)
        self.check([(0, 0, 0, 0)] + default_delta_set(), cfg)

    def test_mixed_widths(self):
        cfg = TrialConfig(trials=1 << 12, rounds=(1, 2), rng_seed=5)
        self.check([(0, 0, 0, 1), (0,) * 7 + (1,), (0, 0, 0x80000000, 0),
                    (1, 0, 0, 0, 0, 0, 0, 0x80000000)], cfg)

    def test_four_bit_words(self):
        cfg = TrialConfig(trials=1 << 12, rounds=(1, 2), partial_threshold_bits=2,
                          rng_seed=6)
        self.check([(0, 0, 0, 8), (0, 0, 1, 0), (0,) * 7 + (1,)], cfg, word_bits=4)

    @pytest.mark.parametrize("trials, lanes", [((1 << 14) + 1000, 1 << 14), (4099, 1000)])
    def test_trials_not_a_multiple_of_the_chunk(self, monkeypatch, trials, lanes):
        monkeypatch.setattr(diff, "_LANES", lanes)
        cfg = TrialConfig(trials=trials, rounds=(1, 2), rng_seed=7)
        self.check([(0, 0, 0, 1), (0, 0, 0x80000000, 0), (0,) * 7 + (1,)], cfg)

    def test_across_batches(self, monkeypatch):
        # batches of 1500, 1500 and 1099 trials, each in chunks of 512 lanes
        monkeypatch.setattr(diff, "_BATCH", 1500)
        monkeypatch.setattr(diff, "_LANES", 512)
        cfg = TrialConfig(trials=4099, rounds=(1, 2), rng_seed=8)
        self.check([(0, 0, 0, 1), (0, 0, 0x80000000, 0), (0,) * 7 + (1,)], cfg,
                   batch=1500)

    def test_frozen_diff_output(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["diff", "--trials", "4096", "--rounds", "1", "2", "4", "8",
                         "--seed", "11", "--out-dir", "out"]) == 0
        raw = (tmp_path / "out" / "collision_stats.csv").read_bytes()
        # the config hash line, which leaves out the output directory, then the rows
        comment, *lines = raw.decode().splitlines()
        assert comment == "# config_hash=9424bd1680ca"
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == \
            "0b5857215fe78e4d9fe0fae92eeedefb97df704291d971ee1567239e49c25b9c"
        # without p_upper, whose last digits moved when it stopped coming from
        # scipy, the rows hash as they did before the deltas shared one trajectory
        table = [line.split(",") for line in lines]
        col = table[0].index("p_upper")
        kept = "\n".join(",".join(f[:col] + f[col + 1:]) for f in table)
        assert hashlib.sha256(kept.encode()).hexdigest() == \
            "1228bbb9b69961a9615cc3d9f4048f3f57ef1c19a77524ea80f53c1f55fba38a"
        for row in (dict(zip(table[0], f)) for f in table[1:]):
            k, n = int(row["collisions"]), int(row["trials"])
            assert math.isclose(float(row["p_upper"]),
                                special.betaincinv(k + 1, n - k, 0.95), rel_tol=1e-12)


class TestWorkingSet:
    """The kernel's working set does not grow with the trial count."""

    def test_collision_trials_peak(self):
        # the draw of a whole batch alone was 4 MiB at 2^18 trials
        cfg = TrialConfig(trials=1 << 18, rounds=(1, 2))
        peak = traced_peak(lambda: collision_trials(default_delta_set(), cfg))
        assert peak < 3 << 20

    def test_toy_width_collision_trials_peak(self):
        # each batch of narrow words was drawn whole: 33 MiB at 2^20 trials
        cfg = TrialConfig(trials=1 << 20, rounds=(1, 2))
        deltas = [(0, 0, 0, 1), (0, 0, 0x80, 0), (0,) * 7 + (1,)]
        peak = traced_peak(lambda: collision_trials(deltas, cfg, word_bits=8))
        assert peak < 3 << 20

    def test_avalanche_peak(self):
        # a row's words were drawn whole: 1.6 MB at 10^5 trials, twice over
        # while the next row's were drawn
        peak = traced_peak(lambda: avalanche_profile(1, 100_000))
        assert peak < 2 << 20

    def test_rotation_sweep_peak(self):
        # the diffusion half drew its (4, n) quads and flips whole: 4.0 MiB
        cfg = TrialConfig(trials=1 << 16)
        peak = traced_peak(lambda: rotation_sweep([ROTATIONS], cfg))
        assert peak < 3 << 20


class TestAvalanche:
    def test_identity_at_zero_rounds(self):
        profile = avalanche_profile(0, trials=8, rng_seed=1)
        assert np.array_equal(profile.matrix, np.eye(128))

    def test_probabilities_in_range(self):
        profile = avalanche_profile(1, trials=64, rng_seed=2)
        assert profile.matrix.min() >= 0.0
        assert profile.matrix.max() <= 1.0
        assert profile.matrix.shape == (128, 128)

    def test_two_rounds_near_half(self):
        profile = avalanche_profile(2, trials=2000, rng_seed=3)
        means = profile.word_means
        assert means.shape == (4,)
        assert np.all(means > 0.4) and np.all(means < 0.6)

    def test_reproducible(self):
        a = avalanche_profile(1, trials=32, rng_seed=9)
        b = avalanche_profile(1, trials=32, rng_seed=9)
        assert np.array_equal(a.matrix, b.matrix)

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            avalanche_profile(1, trials=0)

    def test_negative_rounds_rejected(self):
        with pytest.raises(ValueError):
            avalanche_profile(-1, trials=8)

    def test_frozen_matrix_sum(self):
        # value computed before the paired-evaluation kernel was shared
        assert avalanche_profile(1, 64, rng_seed=2).matrix.sum() == 2603.796875

    # trials 1 and 7 run all 128 rows in one group, 300 and 5000 end on a
    # partial group, from 2^14 - 1 on each group is one row, and from
    # 2^15 - 1 on a row spans several kernel chunks
    @settings(max_examples=6, deadline=None)
    @given(rounds=st.integers(0, 3),
           trials=st.sampled_from([1, 7, 300, 5000, (1 << 14) - 1]),
           variant=st.sampled_from(["native", "rfc"]),
           rotations=st.sampled_from([ROTATIONS, (7, 9, 13, 18, 4, 2)]),
           seed=st.integers(0, 1 << 16))
    @example(rounds=2, trials=1, variant="native", rotations=ROTATIONS, seed=0)
    @example(rounds=3, trials=5000, variant="rfc", rotations=ROTATIONS, seed=1)
    @example(rounds=1, trials=(1 << 15) - 1, variant="native", rotations=ROTATIONS, seed=2)
    @example(rounds=2, trials=(1 << 15) + 1, variant="rfc", rotations=ROTATIONS, seed=3)
    @example(rounds=1, trials=40_000, variant="native",
             rotations=(7, 9, 13, 18, 4, 2), seed=4)
    @example(rounds=0, trials=300, variant="rfc", rotations=ROTATIONS, seed=5)
    def test_matches_per_row_reference(self, rounds, trials, variant, rotations, seed):
        got = avalanche_profile(rounds, trials, rotations, variant, rng_seed=seed).matrix
        expect = avalanche_reference(rounds, trials, rotations, variant, seed, qrf_vec)
        assert np.array_equal(got, expect)

    @pytest.mark.parametrize("trials", [1, 7, 4999, 5000])
    def test_chunk_draw_is_the_per_row_draws(self, trials):
        k = 6
        chunk = np.random.default_rng(8).integers(0, 1 << 32, (k, 4, trials), dtype=np.uint32)
        rng = np.random.default_rng(8)
        rows = [rng.integers(0, 1 << 32, (4, trials), dtype=np.uint32) for _ in range(k)]
        assert np.array_equal(chunk, np.stack(rows))


class TestSweep:
    def test_sweep_shapes_and_bound(self):
        cfg = TrialConfig(trials=1 << 14, rounds=(4,), rng_seed=5)
        sets = [(16, 12, 8, 7, 4, 2), (7, 9, 13, 18, 4, 2)]
        results = rotation_sweep(sets, cfg)
        assert [r.rotations for r in results] == sets
        for res in results:
            assert res.collision.passes_bound
            # diffusion saturates near 64 of 128 bits
            assert 55 < res.mean_flipped_bits < 73
            assert res.flipped_bits_se > 0

    def test_frozen_mean_flipped_bits(self):
        # value computed before the paired-evaluation kernel was shared
        cfg = TrialConfig(trials=1 << 14, rounds=(4,), rng_seed=5)
        res = rotation_sweep([(16, 12, 8, 7, 4, 2)], cfg)[0]
        assert res.mean_flipped_bits == 63.95751953125

    # several kernel chunks, the last one partial: an odd n above one
    # default chunk, and small chunks
    @pytest.mark.parametrize("lanes, n, rounds, rotations, seed", [
        (1 << 14, 40_001, 2, ROTATIONS, 3),
        (1000, (1 << 14) + 1, 4, (7, 9, 13, 18, 4, 2), (1 << 64) - 1),
        (7, 1025, 1, ROTATIONS, 0),
    ])
    def test_flipped_bits_match_whole_array_reference(self, monkeypatch, lanes, n,
                                                      rounds, rotations, seed):
        monkeypatch.setattr(diff, "_LANES", lanes)
        got = diff._flipped_bits(n, rounds, rotations, seed)
        expect = flipped_bits_reference(n, rounds, rotations, seed, qrf_vec)
        assert got.dtype == np.int64
        assert np.array_equal(got, expect)

    def test_invalid_rotation_set(self):
        cfg = TrialConfig(trials=1 << 10, rounds=(1,))
        with pytest.raises(ValueError):
            rotation_sweep([(16, 12, 8)], cfg)
        with pytest.raises(ValueError):
            rotation_sweep([(0, 12, 8, 7, 4, 2)], cfg)


class TestAdvantage:
    def test_wilson_basics(self):
        lo, hi = wilson_interval(50, 100)
        assert lo < 0.5 < hi
        assert wilson_interval(0, 10)[0] == 0.0
        assert wilson_interval(10, 10)[1] == 1.0
        with pytest.raises(ValueError):
            wilson_interval(0, 0)

    def test_identical_behaviour_contains_zero(self):
        rng = random.Random(8)
        a = rng.randbytes(4096)
        b = rng.randbytes(4096)
        est = distinguisher_advantage(lambda chunk: False, a, b, samples=16)
        assert est.adv == 0.0
        assert est.contains_zero

    def test_perfect_detector_excludes_zero(self):
        a = b"\x00" * 4096
        b_ = b"\xff" * 4096
        est = distinguisher_advantage(lambda c: c[0] == 0, a, b_, samples=64)
        assert est.adv == 1.0
        assert not est.contains_zero

    def test_validation(self):
        with pytest.raises(ValueError):
            distinguisher_advantage(lambda c: True, b"ab", b"a", 1)
        with pytest.raises(ValueError):
            distinguisher_advantage(lambda c: True, b"ab", b"cd", 0)
        with pytest.raises(ValueError):
            distinguisher_advantage(lambda c: True, b"ab", b"cd", 5)
