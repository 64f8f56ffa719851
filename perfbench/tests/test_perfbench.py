"""Self-tests of the benchmark, each workload at its tiny size.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
import worker
from workloads import WORKLOADS, KeystreamBaseline

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
SEED = 3


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.fixture(scope="module")
def results():
    out = {}
    for w in NAMES:
        for trace in (0, 1):
            proc = run_bench(w, trace)
            assert proc.returncode == 0, proc.stderr
            record = ROOT / ".perfbench_out" / f"result-{w}-seed{SEED}-trace{trace}.json"
            out[w, trace] = (json.loads(proc.stdout.splitlines()[-1]),
                             json.loads(record.read_text()))
    return out


def test_workloads_match_spec():
    assert sorted(NAMES) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_is_emitted_with_its_unit(results, workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        line, _ = results[workload, trace]
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
        assert all(isinstance(v["value"], float) for v in line["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_and_untraced_runs_record_the_same_end_to_end_set(results, workload):
    names = {m["name"] for m in SPEC["end_to_end"]}
    assert set(results[workload, 0][1]["end_to_end"]) == names
    assert set(results[workload, 1][1]["end_to_end"]) == names
    assert all(v["value"] > 0 for v in results[workload, 0][1]["end_to_end"].values())


def _tiny(cls, tmp_path):
    ks = worker.import_package()
    wl = cls(ks, SEED, "tiny", tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        wl.setup()
    return ks, wl


def test_corrupted_search_result_is_counted_as_failed(monkeypatch, tmp_path):
    ks, wl = _tiny(WORKLOADS["keystream_and_scan"], tmp_path)
    real = ks.search.search

    def drop_last_kmp_match(text, pattern, engine):
        report = real(text, pattern, engine)
        if engine == "kmp" and report.positions:
            report.positions.pop()
        return report

    monkeypatch.setattr(ks.search, "search", drop_last_kmp_match)
    result = worker.measure(wl, 0, False, io.StringIO())
    # the short patterns are copied from the corpus, so in every pass both
    # KMP scans of them (byte and word) lose a true match; the keystream
    # part adds two correct operations per pass
    assert len(result["pass_s"]) == worker.MIN_PASSES
    assert (result["attempted"], result["failed"]) == ((14 + 2) * worker.MIN_PASSES,
                                                       2 * worker.MIN_PASSES)


def test_pass_that_writes_nothing_fails_despite_earlier_outputs(monkeypatch, tmp_path):
    ks, wl = _tiny(KeystreamBaseline, tmp_path)
    wl.prepare_checks()
    outputs, _ = worker._timed_pass(wl, io.StringIO())
    assert wl.check(outputs) == (2, 0)
    monkeypatch.setattr(ks.cli, "main", lambda argv: 0)
    outputs, _ = worker._timed_pass(wl, io.StringIO())
    assert wl.check(outputs) == (2, 2)


def test_missing_traced_name_drops_only_its_metrics(monkeypatch, tmp_path):
    ks, wl = _tiny(WORKLOADS["keystream_and_scan"], tmp_path)
    monkeypatch.delattr(ks.cipher, "block")   # as if renamed; this workload never calls it
    result = worker.measure(wl, 0, True, io.StringIO())
    assert result["failed"] == 0
    assert any("cipher.block" in w for w in result["warnings"])
    layer = result["per_layer"]
    assert "cipher.block.self_s" not in layer and "cipher.block.calls" not in layer
    assert layer["cipher.init_state.calls"]["value"] == 2_000
    assert result["pass_s"] and result["peak_rss_mb"] > 0
    assert len(layer) == len(tracing.METRICS) - 2


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(NAMES[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
