import csv
import os
import subprocess
import sys

import numpy as np
import pytest

import keystream_lab
from keystream_lab import cli, dataset, freq, search
from keystream_lab.report import config_hash, write_bar_chart, write_csv, write_decay_chart

from helpers import traced_peak


def run(argv):
    return cli.main(argv)


def module_env() -> dict:
    """The environment of a fresh interpreter that imports the package from
    this checkout."""
    src = os.path.dirname(os.path.dirname(keystream_lab.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")])}


@pytest.fixture
def small_dataset(tmp_path):
    path = tmp_path / "ds.txt"
    rc = run(["gen", "--mode", "fixed", "--blocks", "64", "--seed", "1",
              "--out", str(path)])
    assert rc == cli.EXIT_OK
    return path


class TestGen:
    def test_same_seed_same_file(self, tmp_path):
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        for p in (p1, p2):
            assert run(["gen", "--blocks", "32", "--seed", "5",
                        "--out", str(p)]) == cli.EXIT_OK
        assert p1.read_bytes() == p2.read_bytes()

    def test_modes_supported(self, tmp_path):
        for mode in ("fixed", "variable"):
            out = tmp_path / f"{mode}.txt"
            assert run(["gen", "--mode", mode, "--blocks", "8", "--seed", "0",
                        "--out", str(out)]) == cli.EXIT_OK
            blocks, header = dataset.load(out)
            assert len(blocks) == 8
            assert header["mode"] == mode

    def test_unwritable_path_is_io_error(self):
        assert run(["gen", "--blocks", "1", "--out",
                    "/nonexistent-dir/x.txt"]) == cli.EXIT_IO

    def test_seed_from_environment(self, tmp_path, monkeypatch):
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run(["gen", "--blocks", "4", "--seed", "5", "--out", str(p1)]) == cli.EXIT_OK
        monkeypatch.setenv("KEYSTREAM_LAB_SEED", "5")
        assert run(["gen", "--blocks", "4", "--out", str(p2)]) == cli.EXIT_OK
        assert p1.read_bytes() == p2.read_bytes()

    def test_non_integer_seed_environment_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("KEYSTREAM_LAB_SEED", "0x1f")
        out = tmp_path / "x.txt"
        assert run(["gen", "--blocks", "1", "--out", str(out)]) == cli.EXIT_USAGE
        assert "KEYSTREAM_LAB_SEED" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-1", str(1 << 64)])
    def test_out_of_range_seed_is_usage_error(self, tmp_path, value, capsys):
        out = tmp_path / "x.txt"
        assert run(["gen", "--blocks", "1", "--seed", value,
                    "--out", str(out)]) == cli.EXIT_USAGE
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()


class TestScan:
    def test_pattern_found(self, small_dataset, tmp_path, capsys):
        blocks, _ = dataset.load(small_dataset)
        target = f"{blocks[0, 3]:08x}"
        out = tmp_path / "scan.csv"
        rc = run(["scan", "--dataset", str(small_dataset), "--pattern", target,
                  "--engine", "kmp", "--alphabet", "word", "--out", str(out)])
        assert rc == cli.EXIT_OK
        captured = capsys.readouterr().out
        assert int(captured.split("p0: ")[1].split()[0]) >= 1
        assert out.exists()

    def test_word_from_freq_found_count_times(self, tmp_path, capsys):
        # freq_m32.csv writes a word as its value; scan reads the same notation
        path, outdir = tmp_path / "ds.txt", tmp_path / "r"
        assert run(["gen", "--mode", "fixed", "--blocks", "2500", "--seed", "5",
                    "--out", str(path)]) == cli.EXIT_OK
        assert run(["freq", "--dataset", str(path), "--m", "32", "--top", "1",
                    "--out-dir", str(outdir)]) == cli.EXIT_OK
        row = read_rows(outdir / "freq_m32.csv")[0]
        capsys.readouterr()
        for engine in search.ENGINES:
            assert run(["scan", "--dataset", str(path), "--pattern", row["pattern_hex"],
                        "--engine", engine, "--alphabet", "word"]) == cli.EXIT_OK
            assert f"p0: {row['count']} matches" in capsys.readouterr().out

    def test_engines_agree(self, small_dataset, capsys):
        blocks, _ = dataset.load(small_dataset)
        raw = f"{blocks[2, 0]:08x}{blocks[2, 1]:08x}"
        outputs = []
        for engine in ("brute", "kmp", "bm", "hybrid"):
            rc = run(["scan", "--dataset", str(small_dataset), "--pattern", raw,
                      "--engine", engine, "--alphabet", "word"])
            assert rc == cli.EXIT_OK
            line = [l for l in capsys.readouterr().out.splitlines()
                    if "matches" in l][0]
            outputs.append(line.split(":")[1].split("(")[0].strip())
        assert len(set(outputs)) == 1 and outputs[0] != "0 matches"

    def test_no_pattern_usage_error(self, small_dataset):
        assert run(["scan", "--dataset", str(small_dataset)]) == cli.EXIT_USAGE

    def test_missing_dataset_io_error(self):
        assert run(["scan", "--dataset", "/no/such/file", "--pattern",
                    "00000000"]) == cli.EXIT_IO

    @pytest.mark.parametrize("patterns", [[], ["--pattern", "zz"]], ids=["none", "malformed"])
    def test_patterns_checked_before_dataset_read(self, tmp_path, patterns, capsys):
        assert run(["scan", "--dataset", str(tmp_path / "missing.txt")]
                   + patterns) == cli.EXIT_USAGE
        assert "I/O error" not in capsys.readouterr().err

    @pytest.mark.parametrize("alphabet,pattern", [("byte", "ab" * 33), ("word", "0badcafe" * 9)],
                             ids=["byte", "word"])
    def test_hybrid_window_checked_before_dataset_read(self, tmp_path, alphabet, pattern, capsys):
        # 33 bytes, or 9 words, do not fit the hybrid's 256-bit window
        assert run(["scan", "--dataset", str(tmp_path / "missing.txt"), "--engine", "hybrid",
                    "--alphabet", alphabet, "--pattern", pattern]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "I/O error" not in err and "smaller than longest pattern" in err

    def test_partial_word_pattern_usage_error(self, small_dataset, capsys):
        # 6 bytes are one and a half 32-bit words; nothing may be dropped
        assert run(["scan", "--dataset", str(small_dataset), "--pattern",
                    "deadbeefcafe", "--alphabet", "word"]) == cli.EXIT_USAGE
        assert "matches" not in capsys.readouterr().out

    @pytest.mark.parametrize("engine", sorted(search.ENGINES))
    def test_zero_match_csv_has_header(self, small_dataset, tmp_path, engine):
        # the header once went missing with the rows, leaving a bare line
        out = tmp_path / "scan.csv"
        assert run(["scan", "--dataset", str(small_dataset), "--pattern", "00" * 32,
                    "--engine", engine, "--alphabet", "byte", "--out", str(out)]) == cli.EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[1:] == ["pattern_id,position,engine,comparisons"]


class TestRecordCount:
    """freq and scan check the header and the records against its n_blocks."""

    ARGV = {
        "freq": lambda path, tmp: ["freq", "--dataset", str(path), "--m", "8",
                                   "--out-dir", str(tmp / "r")],
        "scan": lambda path, tmp: ["scan", "--dataset", str(path), "--pattern",
                                   "00000000"],
    }

    @pytest.mark.parametrize("command", sorted(ARGV))
    @pytest.mark.parametrize("edit", ["cut", "extra"])
    def test_mismatch_is_io_error(self, tmp_path, command, edit, capsys):
        path = tmp_path / "ds.txt"
        assert run(["gen", "--blocks", "10", "--seed", "1", "--out", str(path)]) == cli.EXIT_OK
        lines = path.read_text().splitlines(keepends=True)
        lines = lines[:-3] if edit == "cut" else lines + lines[-2:]
        path.write_text("".join(lines))
        capsys.readouterr()
        assert run(self.ARGV[command](path, tmp_path)) == cli.EXIT_IO
        captured = capsys.readouterr()
        assert "n_blocks=10" in captured.err
        assert "matches" not in captured.out and "chi2" not in captured.out

    def test_header_without_n_blocks_is_not_checked(self, tmp_path, capsys):
        path = tmp_path / "ds.txt"
        blocks = dataset.generate_dataset(dataset.DatasetConfig(n_blocks=3))
        path.write_text('{"format_version": 1}\n' + "\n".join(dataset.to_hex(blocks)) + "\n")
        assert run(self.ARGV["scan"](path, tmp_path)) == cli.EXIT_OK

    @pytest.mark.parametrize("command", sorted(ARGV))
    @pytest.mark.parametrize("line", [1, 2])
    def test_non_utf8_is_io_error(self, tmp_path, command, line, capsys):
        path = tmp_path / "ds.txt"
        assert run(["gen", "--blocks", "3", "--seed", "1", "--out", str(path)]) == cli.EXIT_OK
        lines = path.read_bytes().splitlines(keepends=True)
        lines[line - 1] = lines[line - 1][:-2] + b"\xff\n"
        path.write_bytes(b"".join(lines))
        capsys.readouterr()
        assert run(self.ARGV[command](path, tmp_path)) == cli.EXIT_IO
        captured = capsys.readouterr()
        assert f"I/O error: line {line}:" in captured.err
        assert "matches" not in captured.out and "chi2" not in captured.out

    @pytest.mark.parametrize("command", sorted(ARGV))
    @pytest.mark.parametrize("header", ['{"format_version": 2, "n_blocks": 3}',
                                        '{"n_blocks": 3}', "[1, 2]"])
    def test_bad_header_is_io_error(self, tmp_path, command, header, capsys):
        path = tmp_path / "ds.txt"
        blocks = dataset.generate_dataset(dataset.DatasetConfig(n_blocks=3))
        path.write_text(header + "\n" + "\n".join(dataset.to_hex(blocks)) + "\n")
        assert run(self.ARGV[command](path, tmp_path)) == cli.EXIT_IO
        captured = capsys.readouterr()
        assert "line 1: header must be a JSON object with format_version 1" in captured.err
        assert "matches" not in captured.out and "chi2" not in captured.out


class TestFreq:
    def test_reports_written(self, small_dataset, tmp_path, capsys):
        outdir = tmp_path / "reports"
        rc = run(["freq", "--dataset", str(small_dataset), "--m", "8",
                  "--top", "5", "--out-dir", str(outdir)])
        assert rc == cli.EXIT_OK
        assert (outdir / "freq_m8.csv").exists()
        assert (outdir / "top5_m8.svg").exists()
        assert "chi2=" in capsys.readouterr().out

    def test_top_below_one_rejected_before_any_write(self, small_dataset, tmp_path, capsys):
        outdir = tmp_path / "fo"
        assert run(["freq", "--dataset", str(small_dataset), "--top", "0",
                    "--out-dir", str(outdir)]) == cli.EXIT_USAGE
        assert not outdir.exists()
        assert "chi2" not in capsys.readouterr().out

    @pytest.mark.parametrize("text", ["", '{"format_version": 1, "n_blocks": 0}\n'])
    def test_no_records_rejected_before_any_write(self, tmp_path, text, capsys):
        path = tmp_path / "empty.txt"
        path.write_text(text)
        outdir = tmp_path / "o"
        assert run(["freq", "--dataset", str(path), "--out-dir", str(outdir)]) == cli.EXIT_USAGE
        assert not outdir.exists()
        assert capsys.readouterr().err == "usage error: input shorter than one 8-bit gram\n"

    def test_working_set(self, tmp_path, capsys):
        # one width's table at a time, each counted in small chunks, from
        # the keystream bytes alone
        path = tmp_path / "ds.txt"
        assert run(["gen", "--mode", "variable", "--blocks", "2500", "--seed", "3",
                    "--out", str(path)]) == cli.EXIT_OK
        argv = ["freq", "--dataset", str(path), "--m", "8", "16", "32",
                "--out-dir", str(tmp_path / "r")]
        assert traced_peak(lambda: run(argv)) < 3.2 * (1 << 20)

    def test_dataset_loads_as_one_copy(self, tmp_path, monkeypatch):
        # the keystream bytes are a read-only view of the loaded blocks, not
        # a second copy beside them; small record slices keep load's own
        # transients small
        path = tmp_path / "ds.txt"
        assert run(["gen", "--mode", "variable", "--blocks", "2500", "--seed", "3",
                    "--out", str(path)]) == cli.EXIT_OK
        monkeypatch.setattr(dataset, "RECORD_SLICE", 16)
        assert traced_peak(lambda: cli._load_dataset(str(path))) < 1.25 * 2500 * 144
        view = memoryview(cli._load_dataset(str(path))[0])
        assert view.readonly and view.nbytes == 2500 * 144

    def test_low_count_warning_is_one_plain_line(self, tmp_path, capsys):
        # 100 blocks hold 14,399 16-bit m-grams for 65,536 cells: 0.22 a cell
        path = tmp_path / "ds.txt"
        assert run(["gen", "--blocks", "100", "--seed", "1", "--out", str(path)]) == 0
        capsys.readouterr()
        assert run(["freq", "--dataset", str(path), "--m", "8", "16",
                    "--out-dir", str(tmp_path / "r")]) == cli.EXIT_OK
        assert capsys.readouterr().err.splitlines() == [
            "warning: expected cell count 0.22 < 5; chi-square approximation is weak "
            "at this sample size"]

    def test_csv_has_config_hash(self, small_dataset, tmp_path):
        outdir = tmp_path / "reports"
        run(["freq", "--dataset", str(small_dataset), "--m", "8",
             "--out-dir", str(outdir)])
        first = (outdir / "freq_m8.csv").read_text().splitlines()[0]
        assert first.startswith("# config_hash=")

    def test_baseline_flag_on_biased_data(self, tmp_path):
        # constant blocks are wildly non-uniform: baseline mode must exit 2
        cfg = dataset.DatasetConfig(n_blocks=4, rng_seed=0)
        blocks = np.full((4, 36), 0x41414141, dtype=np.uint32)
        path = tmp_path / "biased.txt"
        dataset.persist(blocks, cfg, path)
        rc = run(["freq", "--dataset", str(path), "--m", "8", "--baseline",
                  "--out-dir", str(tmp_path / "r")])
        assert rc == cli.EXIT_ANALYSIS

    def test_m32_significant_iff_bucket_flagged(self, tmp_path):
        # word 0x682330d7, planted 300 times, makes its fold bucket
        # 0x6823 ^ 0x30d7 = 0x58f4 heavy; the word 0x000058f4 folds there too
        blocks = np.random.default_rng(0).integers(0, 1 << 32, (2000, 36), dtype=np.uint32)
        blocks[:300, 0] = 0x682330D7
        blocks[300, 0] = 0x000058F4
        path = tmp_path / "planted.txt"
        dataset.persist(blocks, dataset.DatasetConfig(n_blocks=2000), path)
        assert run(["freq", "--dataset", str(path), "--m", "32", "--top", "20",
                    "--out-dir", str(tmp_path)]) == cli.EXIT_OK
        table = freq.extract_mgrams(dataset.dataset_bytes(blocks), freq.MGramSpec(32))
        flagged = {h.pattern for h in freq.scan_significant(table)}
        rows = read_rows(tmp_path / "freq_m32.csv")
        for row in rows:
            bucket = table.cell(int(row["pattern_hex"], 16))
            assert (row["significant"] == "True") == (bucket in flagged), row
        significant = {r["pattern_hex"] for r in rows if r["significant"] == "True"}
        assert {"682330d7", "000058f4"} <= significant < {r["pattern_hex"] for r in rows}


def read_rows(path) -> list[dict]:
    """A CSV's rows, without its config-hash comment line."""
    return list(csv.DictReader(path.read_text().splitlines()[1:]))


def csv_hash(path) -> str:
    return path.read_text().splitlines()[0]


class TestConfigHash:
    def test_same_across_identical_processes(self, tmp_path):
        # the hash once covered the command function's repr, whose memory
        # address differs between processes
        out, hashes = tmp_path / "a.csv", []
        for _ in range(2):
            subprocess.run([sys.executable, "-m", "keystream_lab.cli", "avalanche",
                            "--rounds", "1", "--trials", "64", "--seed", "3",
                            "--out", str(out)], env=module_env(), check=True,
                           stdout=subprocess.DEVNULL)
            hashes.append(csv_hash(out))
        assert hashes[0] == hashes[1]

    @pytest.mark.parametrize("argv, name", [
        (["diff", "--trials", "1024", "--rounds", "1", "2", "--seed", "3", "--out-dir"],
         "collision_stats.csv"),
        (["avalanche", "--rounds", "1", "--trials", "64", "--seed", "3", "--out"], "av.csv"),
    ], ids=["diff", "avalanche"])
    def test_ignores_output_location(self, tmp_path, argv, name):
        # where a run writes is neither its dataset nor its analysis config
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            out.mkdir()
            assert run(argv + [str(out if argv[0] == "diff" else out / name)]) == cli.EXIT_OK
        assert csv_hash(outs[0] / name) == csv_hash(outs[1] / name)

    @pytest.mark.parametrize("command", ["freq", "scan"])
    def test_tracks_dataset_at_same_path(self, tmp_path, command):
        # both commands write their CSV to `out`
        path, out = tmp_path / "ds.txt", tmp_path / "freq_m8.csv"
        argv = {
            "freq": ["freq", "--dataset", str(path), "--m", "8", "--out-dir", str(tmp_path)],
            "scan": ["scan", "--dataset", str(path), "--pattern", "00000000",
                     "--out", str(out)],
        }[command]
        hashes = []
        for seed in ("1", "1", "2"):
            assert run(["gen", "--blocks", "8", "--seed", seed, "--out", str(path)]) == cli.EXIT_OK
            assert run(argv) == cli.EXIT_OK
            hashes.append(csv_hash(out))
        assert hashes[0] == hashes[1] != hashes[2]

    def test_header_with_nonce_bits_loads(self, small_dataset, tmp_path):
        # every file written before the nonce width left the header carries
        # "nonce_bits": 128; it loads, and freq and scan write the same rows
        # from it, under a hash of its own header
        old = tmp_path / "old.txt"
        _, *records = small_dataset.read_text().splitlines(keepends=True)
        old.write_text(
            '{"cipher": {"nonce_bits": 128, "padding": "zero", "rounds": 20, '
            '"schedule": "echacha-colrow-v1"}, "entropy": "seeded", "format_version": 1, '
            '"mode": "fixed", "n_blocks": 64, "rng_seed": 1}\n' + "".join(records))
        (old_blocks, old_header), (blocks, new_header) = map(dataset.load, (old, small_dataset))
        assert np.array_equal(old_blocks, blocks)
        assert old_header == {**new_header, "cipher": {**new_header["cipher"],
                                                       "nonce_bits": 128}}
        for path in (old, small_dataset):
            out = tmp_path / path.stem
            assert run(["freq", "--dataset", str(path), "--m", "8", "16", "32",
                        "--out-dir", str(out)]) == cli.EXIT_OK
            assert run(["scan", "--dataset", str(path), "--alphabet", "byte",
                        "--pattern", "00", "--out", str(out / "scan.csv")]) == cli.EXIT_OK
        for name in ("freq_m8.csv", "freq_m16.csv", "freq_m32.csv", "scan.csv"):
            old_csv, new_csv = tmp_path / "old" / name, tmp_path / "ds" / name
            assert read_rows(old_csv) == read_rows(new_csv) != []
            assert csv_hash(old_csv) != csv_hash(new_csv)

    def test_os_entropy_header(self, tmp_path):
        path = tmp_path / "ds.txt"
        for entropy, seed in (("seeded", 7), ("os", None)):
            assert run(["gen", "--blocks", "2", "--seed", "7", "--entropy", entropy,
                        "--out", str(path)]) == cli.EXIT_OK
            _, header = dataset.load(path)
            assert header["entropy"] == entropy
            assert header["rng_seed"] == seed

    @pytest.mark.parametrize("command", ["freq", "scan"])
    def test_os_entropy_datasets_hash_apart(self, tmp_path, command):
        # equal options, equal headers: only the keystream bytes differ
        path, out = tmp_path / "ds.txt", tmp_path / "freq_m8.csv"
        argv = {
            "freq": ["freq", "--dataset", str(path), "--m", "8", "--out-dir", str(tmp_path)],
            "scan": ["scan", "--dataset", str(path), "--pattern", "00000000",
                     "--out", str(out)],
        }[command]
        hashes = []
        for _ in range(2):
            assert run(["gen", "--blocks", "8", "--entropy", "os",
                        "--out", str(path)]) == cli.EXIT_OK
            assert run(argv) == cli.EXIT_OK
            hashes.append(csv_hash(out))
        assert hashes[0] != hashes[1]


class TestDiffCommands:
    def test_diff_campaign(self, tmp_path, capsys):
        outdir = tmp_path / "diff"
        rc = run(["diff", "--trials", str(1 << 12), "--rounds", "1", "2",
                  "--seed", "0", "--include-zero-control",
                  "--out-dir", str(outdir)])
        assert rc == cli.EXIT_OK
        assert (outdir / "collision_stats.csv").exists()
        assert (outdir / "collision_decay.svg").exists()
        assert "pooled_p_hat" in capsys.readouterr().out

    def test_zero_control_not_pooled(self, tmp_path, capsys):
        # the control collides in every trial: pooled, it read 2^-2.8 at
        # rounds 2, 4 and 8, where every other delta reads 0
        seen = []
        for control in ([], ["--include-zero-control"]):
            out = tmp_path / f"diff{len(control)}"
            assert run(["diff", "--trials", "4096", "--rounds", "1", "2", "4", "8",
                        "--seed", "0", "--out-dir", str(out), *control]) == cli.EXIT_OK
            seen.append((capsys.readouterr().out, (out / "collision_decay.svg").read_bytes()))
        assert seen[0] == seen[1]
        assert "rounds=8 pooled_p_hat=0.000e+00" in seen[0][0]

    def test_avalanche(self, tmp_path, capsys):
        out = tmp_path / "av.csv"
        rc = run(["avalanche", "--rounds", "1", "--trials", "200",
                  "--seed", "0", "--out", str(out)])
        assert rc == cli.EXIT_OK
        assert "mean flip probability" in capsys.readouterr().out
        with out.open() as fh:
            rows = [r for r in csv.reader(fh) if r]
        assert len(rows) == 128 + 2  # hash comment + header + 4*32 bits

    def test_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = run(["sweep", "--sets", "16,12,8,7,4,2;7,9,13,18,4,2",
                  "--trials", str(1 << 10), "--rounds", "2",
                  "--seed", "0", "--out", str(out)])
        assert rc == cli.EXIT_OK
        assert capsys.readouterr().out.count("mean_flipped") == 2

    def test_sweep_takes_one_rounds_value(self, tmp_path, capsys):
        # a sweep reports its largest round count only, so a second value
        # would be counted and dropped
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--trials", str(1 << 10), "--rounds", "2", "4",
                    "--seed", "0", "--out", str(out)]) == cli.EXIT_USAGE
        assert not capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("rounds", ["0", "-2"])
    @pytest.mark.parametrize("argv", [
        ["diff", "--trials", str(1 << 10), "--rounds", "1"],
        ["sweep", "--trials", str(1 << 10), "--rounds"],
        ["avalanche", "--trials", "10", "--rounds"],
    ], ids=["diff", "sweep", "avalanche"])
    def test_non_positive_rounds_usage_error(self, tmp_path, argv, rounds, capsys):
        # zero rounds report zero collisions or the identity profile: a
        # vacuous pass
        if argv[0] == "diff":
            out = ["--out-dir", str(tmp_path)]
        else:
            out = ["--out", str(tmp_path / "x.csv")]
        assert run(argv + [rounds] + out) == cli.EXIT_USAGE
        assert not capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_invalid_sweep_set_usage_error(self):
        assert run(["sweep", "--sets", "1,2,3", "--trials", str(1 << 10),
                    "--rounds", "1"]) == cli.EXIT_USAGE


class TestBench:
    def test_small_corpus_runs(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        rc = run(["bench", "--size-mb", "1", "--seed", "3",
                  "--out", str(out)])
        assert rc == cli.EXIT_OK
        err = capsys.readouterr().err
        assert "16 MiB" in err  # small-corpus warning
        rows = list(csv.DictReader([l for l in out.read_text().splitlines()
                                    if not l.startswith("#")]))
        assert {r["engine"] for r in rows} == {"brute", "kmp", "bm", "hybrid"}
        for r in rows:
            assert float(r["recall"]) == 1.0
            assert float(r["precision"]) == 1.0

    def test_wrong_engine_is_analysis_failure(self, tmp_path, monkeypatch, capsys):
        bm = search.ENGINES["bm"]

        def drops_first_match(text, pattern):
            rep = bm(text, pattern)
            rep.positions = rep.positions[1:]
            return rep

        monkeypatch.setitem(search.ENGINES, "bm", drops_first_match)
        out = tmp_path / "bench.csv"
        rc = run(["bench", "--size-mb", "1", "--seed", "3",
                  "--out", str(out)])
        assert rc == cli.EXIT_ANALYSIS
        assert "brute-force oracle: bm" in capsys.readouterr().err
        rows = list(csv.DictReader([l for l in out.read_text().splitlines()
                                    if not l.startswith("#")]))
        assert {r["engine"]: float(r["recall"]) for r in rows}["bm"] < 1.0

    @pytest.mark.parametrize("size", ["0", "-1"])
    def test_size_below_one_mib_is_usage_error(self, tmp_path, size, capsys):
        out = tmp_path / "bench.csv"
        assert run(["bench", "--size-mb", size, "--out", str(out)]) == cli.EXIT_USAGE
        assert "--size-mb must be >= 1" in capsys.readouterr().err
        assert not out.exists()


class TestReport:
    ARGV = ["--blocks", "64", "--trials", "1024", "--seed", "7"]
    FILES = ["collision_decay.svg", "collision_stats.csv", "dataset.txt",
             "freq_m16.csv", "freq_m32.csv", "freq_m8.csv",
             "top10_m16.svg", "top10_m32.svg", "top10_m8.svg"]

    def test_outputs_equal_the_commands_run_alone(self, tmp_path, capsys):
        out = tmp_path / "rep"
        assert run(["report", *self.ARGV, "--out-dir", str(out)]) == cli.EXIT_OK
        assert sorted(os.listdir(out)) == self.FILES
        from_report = {name: (out / name).read_bytes() for name in self.FILES}
        ds = str(out / "dataset.txt")
        for argv in (["gen", "--blocks", "64", "--seed", "7", "--out", ds],
                     ["freq", "--dataset", ds, "--out-dir", str(out)],
                     ["diff", "--trials", "1024", "--rounds", "1", "2", "4",
                      "--include-zero-control", "--seed", "7", "--out-dir", str(out)]):
            assert run(argv) == cli.EXIT_OK
        for name in self.FILES:
            # the CSVs' first line is "# config_hash=...": the same options
            # hash the same, whichever command ran them
            assert (out / name).read_bytes() == from_report[name], name

    def test_diff_options_checked_before_any_step(self, tmp_path, capsys):
        # trials below 2^10 once failed only after gen and freq had written
        out = tmp_path / "rep"
        assert run(["report", "--blocks", "64", "--trials", "100",
                    "--out-dir", str(out)]) == cli.EXIT_USAGE
        assert "trials must be >= 2^10" in capsys.readouterr().err
        assert list(out.glob("*")) == []

    def test_gen_options_checked_before_any_step(self, tmp_path, capsys):
        # --blocks 0 once failed in gen, after report had made its out-dir
        out = tmp_path / "rep"
        assert run(["report", "--blocks", "0", "--trials", "1024",
                    "--out-dir", str(out)]) == cli.EXIT_USAGE
        assert "n_blocks must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_stops_at_first_failure(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "cmd_freq", lambda args: cli.EXIT_ANALYSIS)
        out = tmp_path / "rep"
        assert run(["report", *self.ARGV, "--out-dir", str(out)]) == cli.EXIT_ANALYSIS
        assert os.listdir(out) == ["dataset.txt"]


class TestOutOfMemory:
    """A request too large to allocate is a usage error, not a traceback.
    The library call raises MemoryError as numpy's would; nothing is
    allocated for real."""

    @pytest.mark.parametrize("module,target,argv", [
        (dataset, "generate_dataset", ["gen", "--blocks", "1000000000000", "--out"]),
        (cli.diff, "avalanche_profile", ["avalanche", "--trials", "100000000000", "--out"]),
    ], ids=["gen", "avalanche"])
    def test_memory_error_is_usage_error(self, monkeypatch, tmp_path, capsys,
                                         module, target, argv):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")
        monkeypatch.setattr(module, target, exhausted)
        out = tmp_path / "out"
        assert run([*argv, str(out)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "usage error: out of memory: Unable to allocate 7.28 TiB for an array\n"
        assert not out.exists()


class TestUsage:
    COMMANDS = ["gen", "scan", "freq", "diff", "avalanche", "sweep", "bench", "report"]
    SEEDED = {"gen": ["--out", "x.txt"], "diff": [], "avalanche": [], "sweep": [],
              "bench": [], "report": []}

    def test_no_command(self):
        assert run([]) == cli.EXIT_USAGE

    def test_unknown_command(self):
        assert run(["frobnicate"]) == cli.EXIT_USAGE

    def test_help_exits_ok(self, capsys):
        assert run(["--help"]) == cli.EXIT_OK
        assert "{" + ",".join(self.COMMANDS) + "}" in capsys.readouterr().out

    def test_module_entry_point(self):
        # python -m keystream_lab.cli exits with main's code
        done = subprocess.run([sys.executable, "-m", "keystream_lab.cli", "--help"],
                              env=module_env(), capture_output=True, text=True)
        assert done.returncode == cli.EXIT_OK
        assert "{" + ",".join(self.COMMANDS) + "}" in done.stdout

    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_help_exits_ok(self, command, capsys):
        assert run([command, "--help"]) == cli.EXIT_OK
        assert f"usage: keystream-lab {command}" in capsys.readouterr().out

    def test_seeded_commands_accept_seed(self):
        parser = cli.build_parser()
        for command, required in self.SEEDED.items():
            assert parser.parse_args([command, "--seed", "9", *required]).seed == 9

    def test_cached_parser_shares_no_append_list(self):
        parser = cli._parser()
        first = parser.parse_args(["scan", "--dataset", "x.txt", "--pattern", "aa"])
        assert cli._parser() is parser
        second = parser.parse_args(["scan", "--dataset", "x.txt", "--pattern", "bb",
                                    "--pattern", "cc"])
        assert first.pattern == ["aa"] and second.pattern == ["bb", "cc"]
        assert parser.parse_args(["scan", "--dataset", "x.txt"]).pattern == []

    def test_cached_parser_follows_the_seed_environment(self, monkeypatch):
        monkeypatch.setenv("KEYSTREAM_LAB_SEED", "7")
        assert cli._parser().parse_args(["diff"]).seed == 7
        monkeypatch.setenv("KEYSTREAM_LAB_SEED", "8")
        assert cli._parser().parse_args(["diff"]).seed == 8
        monkeypatch.delenv("KEYSTREAM_LAB_SEED")
        assert cli._parser().parse_args(["diff"]).seed == 0

    @pytest.mark.parametrize("command", ["scan", "freq"])
    def test_unseeded_commands_reject_seed(self, command, capsys):
        assert run([command, "--dataset", "x.txt", "--seed", "9"]) == cli.EXIT_USAGE
        assert "unrecognized arguments: --seed" in capsys.readouterr().err

    def test_engine_choices_are_the_engines(self, capsys):
        assert run(["scan", "--dataset", "x.txt", "--engine", "regex"]) == cli.EXIT_USAGE
        assert "'brute', 'kmp', 'bm', 'hybrid'" in capsys.readouterr().err


class TestReportHelpers:
    def test_config_hash_stable(self):
        a = config_hash({"b": 1, "a": 2})
        b = config_hash({"a": 2, "b": 1})
        assert a == b and len(a) == 12

    def test_write_csv_and_json(self, tmp_path):
        rows = [{"x": 1, "y": 2}]
        cpath = tmp_path / "t.csv"
        write_csv(cpath, rows, {"k": 1})
        text = cpath.read_text().splitlines()
        assert text[0].startswith("# config_hash=")
        assert text[1] == "x,y"

    def test_charts_are_svg(self, tmp_path):
        bpath, dpath = tmp_path / "b.svg", tmp_path / "d.svg"
        write_bar_chart(bpath, ["a", "b"], [3, 5], "bars")
        write_decay_chart(dpath, [1, 2, 4], [0.01, 0.001, 0.0], "decay")
        for p in (bpath, dpath):
            text = p.read_text()
            assert text.startswith("<svg")
            assert text.rstrip().endswith("</svg>")
