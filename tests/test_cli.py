import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import keystream_lab
from keystream_lab import cli, dataset, search
from keystream_lab.report import config_hash, write_bar_chart, write_csv, write_decay_chart, write_json


def run(argv):
    return cli.main(argv)


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
        # hex is byte-order free for the byte alphabet; use word alphabet with
        # the word's little-endian byte encoding
        raw = dataset.dataset_bytes(blocks[:1])[12:16].hex()
        out = tmp_path / "scan.csv"
        rc = run(["scan", "--dataset", str(small_dataset), "--pattern", raw,
                  "--engine", "kmp", "--alphabet", "word", "--out", str(out)])
        assert rc == cli.EXIT_OK
        captured = capsys.readouterr().out
        assert "matches" in captured
        assert out.exists()
        del target

    def test_engines_agree(self, small_dataset, capsys):
        blocks, _ = dataset.load(small_dataset)
        raw = dataset.dataset_bytes(blocks[2:3])[0:8].hex()
        outputs = []
        for engine in ("brute", "kmp", "bm", "hybrid"):
            rc = run(["scan", "--dataset", str(small_dataset), "--pattern", raw,
                      "--engine", engine, "--alphabet", "word"])
            assert rc == cli.EXIT_OK
            line = [l for l in capsys.readouterr().out.splitlines()
                    if "matches" in l][0]
            outputs.append(line.split(":")[1].split("(")[0].strip())
        assert len(set(outputs)) == 1

    def test_no_pattern_usage_error(self, small_dataset):
        assert run(["scan", "--dataset", str(small_dataset)]) == cli.EXIT_USAGE

    def test_missing_dataset_io_error(self):
        assert run(["scan", "--dataset", "/no/such/file", "--pattern",
                    "00000000"]) == cli.EXIT_IO

    def test_partial_word_pattern_usage_error(self, small_dataset, capsys):
        # 6 bytes are one and a half 32-bit words; nothing may be dropped
        assert run(["scan", "--dataset", str(small_dataset), "--pattern",
                    "deadbeefcafe", "--alphabet", "word"]) == cli.EXIT_USAGE
        assert "matches" not in capsys.readouterr().out


class TestRecordCount:
    """freq and scan check the records against the header's n_blocks."""

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
        path.write_text("{}\n" + "\n".join(dataset.to_hex(blocks)) + "\n")
        assert run(self.ARGV["scan"](path, tmp_path)) == cli.EXIT_OK


class TestFreq:
    def test_reports_written(self, small_dataset, tmp_path, capsys):
        outdir = tmp_path / "reports"
        rc = run(["freq", "--dataset", str(small_dataset), "--m", "8",
                  "--top", "5", "--out-dir", str(outdir)])
        assert rc == cli.EXIT_OK
        assert (outdir / "freq_m8.csv").exists()
        assert (outdir / "top5_m8.svg").exists()
        assert "chi2=" in capsys.readouterr().out

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


def csv_hash(path) -> str:
    return path.read_text().splitlines()[0]


class TestConfigHash:
    def test_same_across_identical_processes(self, tmp_path):
        # the hash once covered the command function's repr, whose memory
        # address differs between processes
        src = os.path.dirname(os.path.dirname(keystream_lab.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")])}
        out, hashes = tmp_path / "a.csv", []
        for _ in range(2):
            subprocess.run([sys.executable, "-m", "keystream_lab.cli", "avalanche",
                            "--rounds", "1", "--trials", "64", "--seed", "3",
                            "--out", str(out)], env=env, check=True,
                           stdout=subprocess.DEVNULL)
            hashes.append(csv_hash(out))
        assert hashes[0] == hashes[1]

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

    def test_avalanche(self, tmp_path, capsys):
        out = tmp_path / "av.csv"
        rc = run(["avalanche", "--rounds", "1", "--trials", "200",
                  "--seed", "0", "--out", str(out)])
        assert rc == cli.EXIT_OK
        assert "mean flip probability" in capsys.readouterr().out
        rows = [r for r in csv.reader(out.open()) if r]
        assert len(rows) == 128 + 2  # hash comment + header + 4*32 bits

    def test_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = run(["sweep", "--sets", "16,12,8,7,4,2;7,9,13,18,4,2",
                  "--trials", str(1 << 10), "--rounds", "2",
                  "--seed", "0", "--out", str(out)])
        assert rc == cli.EXIT_OK
        assert capsys.readouterr().out.count("mean_flipped") == 2

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
                  "--skip-relative-check", "--out", str(out)])
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
                  "--skip-relative-check", "--out", str(out)])
        assert rc == cli.EXIT_ANALYSIS
        assert "brute-force oracle: bm" in capsys.readouterr().err
        rows = list(csv.DictReader([l for l in out.read_text().splitlines()
                                    if not l.startswith("#")]))
        assert {r["engine"]: float(r["recall"]) for r in rows}["bm"] < 1.0


class TestUsage:
    def test_no_command(self):
        assert run([]) == cli.EXIT_USAGE

    def test_unknown_command(self):
        assert run(["frobnicate"]) == cli.EXIT_USAGE

    def test_help_exits_ok(self):
        assert run(["--help"]) == cli.EXIT_OK


class TestReportHelpers:
    def test_config_hash_stable(self):
        a = config_hash({"b": 1, "a": 2})
        b = config_hash({"a": 2, "b": 1})
        assert a == b and len(a) == 12

    def test_write_csv_and_json(self, tmp_path):
        rows = [{"x": 1, "y": 2}]
        cpath, jpath = tmp_path / "t.csv", tmp_path / "t.json"
        write_csv(cpath, rows, {"k": 1})
        write_json(jpath, rows, {"k": 1})
        text = cpath.read_text().splitlines()
        assert text[0].startswith("# config_hash=")
        assert text[1] == "x,y"
        doc = json.loads(jpath.read_text())
        assert doc["data"] == [{"x": 1, "y": 2}]

    def test_charts_are_svg(self, tmp_path):
        bpath, dpath = tmp_path / "b.svg", tmp_path / "d.svg"
        write_bar_chart(bpath, ["a", "b"], [3, 5], "bars")
        write_decay_chart(dpath, [1, 2, 4], [0.01, 0.001, 0.0], "decay")
        for p in (bpath, dpath):
            text = p.read_text()
            assert text.startswith("<svg")
            assert text.rstrip().endswith("</svg>")
