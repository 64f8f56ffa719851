"""The benchmark workloads: two pairs of the four parts defined here.

Each part is a closed loop in one thread: ``setup`` builds the inputs
from the seed, ``run_pass`` issues one fixed amount of work through the
package's documented interfaces (each call after the previous one returns)
and ``check`` compares the pass's outputs with the independent oracles in
``oracles.py``. A check never raises on a wrong answer: it returns how many
operations it attempted and how many failed.

See README.md in this directory for why each workload exists.
"""

from __future__ import annotations

import hashlib
import math
import multiprocessing
import random
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import oracles

# Work per pass. "full" is the benchmark; "tiny" exists for the self-tests.
SIZES = {
    "full": {
        "blocks": 2_500,
        "diff_trials": 1 << 16,
        "avalanche_trials": 5_000,
        "sweep_trials": 16_384,
        "corpus_bytes": 256 << 10,
        "plaintext_bytes": 64 << 10,
    },
    "tiny": {
        "blocks": 2_000,
        "diff_trials": 1 << 12,
        "avalanche_trials": 2_000,
        "sweep_trials": 1 << 12,
        "corpus_bytes": 64 << 10,
        "plaintext_bytes": 16 << 10,
    },
}

FREQ_M = (8, 16, 32)
TOP = 10
DIFF_ROUNDS = (1, 2, 4, 8)
DIFF_DELTAS = 6         # the diff command's default delta set
SWEEP_SETS = 3          # the sweep command's default rotation sets
SAMPLED_BLOCKS = 32     # blocks re-derived by the transcription per check
# pattern_scan: engines per alphabet, in the order a pass runs them
ENGINES = {"byte": ("brute", "kmp", "bm", "hybrid"), "word": ("kmp", "bm", "hybrid")}


def program_seed(workload: str, seed: int) -> int:
    """Non-negative 56-bit seed handed to the program, derived from the
    benchmark seed so that each workload gets its own stream."""
    digest = hashlib.blake2b(f"{workload}:{seed}".encode(), digest_size=7).digest()
    return int.from_bytes(digest, "little")


def in_child(fn, *args) -> int:
    """Run ``fn(*args)`` in a forked child and return its exit code. The
    child's memory does not count towards this process's peak RSS."""
    sys.stdout.flush()
    proc = multiprocessing.get_context("fork").Process(target=lambda: sys.exit(fn(*args)))
    proc.start()
    proc.join()
    return proc.exitcode


class Workload:
    name = ""

    def __init__(self, ks, seed: int, size: str, workdir: Path):
        self.ks = ks                    # the imported keystream_lab package
        self.seed = program_seed(self.name, seed)
        self.size = SIZES[size]
        self.workdir = Path(workdir)
        self.out = self.workdir / "out"     # emptied before every pass
        self.rng = random.Random(self.seed)

    def setup(self) -> None:
        """Build the inputs; runs before the first pass."""

    def clean(self) -> None:
        """Remove the previous pass's output files, so that a pass which
        writes nothing cannot pass its check against stale files."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)

    def prepare_checks(self) -> None:
        """Precompute oracle answers; runs after set-up is timed."""

    def run_pass(self):
        raise NotImplementedError

    def check(self, outputs) -> tuple[int, int]:
        raise NotImplementedError

    # the part's own rate, ``work()`` per mean warm pass, in the run record
    rate = ""
    rate_unit = ""

    def work(self) -> float:
        """Amount of work in one pass, in the units of ``rate_unit``."""
        raise NotImplementedError


class KeystreamBaseline(Workload):
    """The criterion-04 campaign at 1/40 of its scale: ``gen`` 2500
    variable-key blocks, then ``freq`` at m = 8, 16, 32 with CSV and SVG
    output."""

    name = "keystream_baseline"
    rate, rate_unit = "blocks_per_s", "blocks/s"

    def setup(self):
        n = self.size["blocks"]
        self.dataset = self.out / "baseline.txt"
        self.reports = self.out / "reports"
        self.gen_argv = ["gen", "--mode", "variable", "--blocks", str(n),
                         "--seed", str(self.seed), "--out", str(self.dataset)]
        self.freq_argv = ["freq", "--dataset", str(self.dataset),
                          "--m", *map(str, FREQ_M), "--top", str(TOP),
                          "--out-dir", str(self.reports)]

    def prepare_checks(self):
        n = self.size["blocks"]
        picks = {0, n - 1} | {self.rng.randrange(n) for _ in range(SAMPLED_BLOCKS - 2)}
        self.sampled = {i: oracles.variable_mode_block(self.seed, i) for i in sorted(picks)}

    def run_pass(self):
        rc_gen = self.ks.cli.main(self.gen_argv)
        rc_freq = self.ks.cli.main(self.freq_argv)
        return rc_gen, rc_freq

    def check(self, outputs):
        rc_gen, rc_freq = outputs
        try:
            header, words = oracles.read_dataset(self.dataset)
            gen_ok = (
                rc_gen == 0
                and header.get("mode") == "variable"
                and header.get("rng_seed") == self.seed
                and words.shape[0] == self.size["blocks"]
                and all(words[i].tolist() == w for i, w in self.sampled.items())
            )
        except (OSError, ValueError):
            return 2, 2
        freq_ok = rc_freq == 0
        for m in FREQ_M:
            try:
                rows = oracles.read_csv_rows(self.reports / f"freq_m{m}.csv")
                got = [(int(r["pattern_hex"], 16), int(r["count"])) for r in rows]
                svg = (self.reports / f"top{TOP}_m{m}.svg").read_text()
            except (OSError, KeyError, ValueError):
                freq_ok = False
                continue
            freq_ok &= got == oracles.top_k_mgrams(words, m, TOP)
            freq_ok &= svg.startswith("<svg")
        return 2, (not gen_ok) + (not freq_ok)

    def work(self):
        return self.size["blocks"]


class DifferentialCampaign(Workload):
    """``diff`` (6 deltas, rounds 1 2 4 8), ``avalanche`` at 2 rounds and a
    3-set ``sweep`` at 4 rounds."""

    name = "differential_campaign"
    rate, rate_unit = "trials_per_s", "trials/s"

    def setup(self):
        s = self.size
        self.reports = self.out
        self.avalanche_csv = self.reports / "avalanche.csv"
        self.sweep_csv = self.reports / "sweep.csv"
        self.argvs = [
            ["diff", "--trials", str(s["diff_trials"]),
             "--rounds", *map(str, DIFF_ROUNDS), "--seed", str(self.seed),
             "--out-dir", str(self.reports)],
            ["avalanche", "--rounds", "2", "--trials", str(s["avalanche_trials"]),
             "--seed", str(self.seed), "--out", str(self.avalanche_csv)],
            ["sweep", "--trials", str(s["sweep_trials"]), "--rounds", "4",
             "--seed", str(self.seed), "--out", str(self.sweep_csv)],
        ]

    def run_pass(self):
        return [self.ks.cli.main(argv) for argv in self.argvs]

    def check(self, outputs):
        rc_diff, rc_aval, rc_sweep = outputs
        by_delta: dict[str, list[tuple[int, int, int, int]]] = {}
        try:
            svg_ok = (self.reports / "collision_decay.svg").read_text().startswith("<svg")
            for r in oracles.read_csv_rows(self.reports / "collision_stats.csv"):
                by_delta.setdefault(r["delta"], []).append(
                    (int(r["rounds"]), int(r["trials"]),
                     int(r["full_collisions"]), int(r["collisions"])))
        except (OSError, KeyError, ValueError):
            by_delta, svg_ok = {}, False
        # one operation per delta (a missing delta counts as failed), plus
        # the diff call itself
        attempted = max(DIFF_DELTAS, len(by_delta))
        failed = attempted - len(by_delta)
        pooled = dict.fromkeys(DIFF_ROUNDS, 0)
        for delta, drows in by_delta.items():
            ok = any(w.strip("0") for w in delta.split("/"))
            ok &= sorted(r[0] for r in drows) == list(DIFF_ROUNDS)
            for rounds, trials, full, coll in drows:
                pooled[rounds] = pooled.get(rounds, 0) + coll
                ok &= trials == self.size["diff_trials"]
                ok &= full == 0
                ok &= rounds < 4 or coll == 0
            failed += not ok
        attempted += 1
        failed += not (rc_diff == 0 and svg_ok and pooled[1] > pooled[2])
        # avalanche: every flip probability and every word mean in [0, 1]
        attempted += 1
        try:
            probs = [float(r["flip_probability"])
                     for r in oracles.read_csv_rows(self.avalanche_csv)]
        except (OSError, KeyError, ValueError):
            probs = []
        means = [sum(probs[32 * w: 32 * w + 32]) / 32 for w in range(4)] if probs else []
        failed += not (rc_aval == 0 and len(probs) == 128
                       and all(0.0 <= p <= 1.0 for p in probs + means))
        # sweep at 4 rounds: no near-collision, flipped bits within the quad
        attempted += 1
        try:
            srows = oracles.read_csv_rows(self.sweep_csv)
            sweep_ok = len(srows) == SWEEP_SETS and all(
                float(r["collision_p_hat"]) == 0.0
                and 0.0 <= float(r["mean_flipped_bits"]) <= 128.0 for r in srows)
        except (OSError, KeyError, ValueError):
            sweep_ok = False
        failed += not (rc_sweep == 0 and sweep_ok)
        return attempted, failed

    def work(self):
        s = self.size
        return (DIFF_DELTAS * s["diff_trials"] + 128 * s["avalanche_trials"]
                + SWEEP_SETS * s["sweep_trials"])


class PatternScan(Workload):
    """Every engine over a 256 KiB fixed-key corpus made by ``gen``: brute,
    KMP, BM and hybrid on bytes; KMP, BM and hybrid on 32-bit words."""

    name = "pattern_scan"
    rate, rate_unit = "scan_mb_per_s", "MiB/s"

    def setup(self):
        search = self.ks.search
        path = self.workdir / "corpus.txt"
        blocks = math.ceil(self.size["corpus_bytes"] / oracles.BLOCK_BYTES)
        rc = in_child(self.ks.cli.main, ["gen", "--mode", "fixed", "--blocks", str(blocks),
                                         "--seed", str(self.seed), "--out", str(path)])
        if rc != 0:
            raise RuntimeError(f"gen exited {rc}")
        _, words = oracles.read_dataset(path)
        path.unlink()
        self.corpus = oracles.keystream_bytes(words)
        self.words = words.reshape(-1)
        # short patterns (2 B, 1 word) are copied from the corpus, so they
        # are present and many windows need verifying; long ones (32 B,
        # 8 words) are drawn at random, so they are absent and BM-style
        # engines take long skips
        off = self.rng.randrange(len(self.corpus) - 2)
        woff = self.rng.randrange(len(self.words))
        self.raw = {
            "byte-short": self.corpus[off: off + 2],
            "byte-long": self.rng.randbytes(32),
            "word-short": self.words[woff: woff + 1].copy(),
            "word-long": np.frombuffer(self.rng.randbytes(32), "<u4").astype(np.uint32),
        }
        self.patterns = {
            alphabet: [search.WordPattern(tuple(int(s) for s in raw), pid, alphabet)
                       for pid, raw in self.raw.items() if pid.startswith(alphabet)]
            for alphabet in ENGINES
        }

    def prepare_checks(self):
        self.expected = {
            pid: (oracles.byte_positions(self.corpus, raw) if pid.startswith("byte")
                  else oracles.word_positions(self.words, raw))
            for pid, raw in self.raw.items()
        }

    def run_pass(self):
        search = self.ks.search
        found = {}
        for alphabet, patterns in self.patterns.items():
            text = search.SymbolStream.from_bytes(self.corpus, alphabet)
            for engine in ENGINES[alphabet]:
                if engine == "hybrid":
                    reports, _ = search.hybrid_search(text, patterns)
                else:
                    reports = {p.pattern_id: search.search(text, p, engine) for p in patterns}
                for p in patterns:
                    found[engine, p.pattern_id] = list(reports[p.pattern_id].positions)
            del text    # free the byte stream before the word stream is built
        return found

    def scans(self) -> list[tuple[str, str]]:
        return [(engine, p.pattern_id) for alphabet, patterns in self.patterns.items()
                for engine in ENGINES[alphabet] for p in patterns]

    def check(self, found):
        scans = self.scans()
        return len(scans), sum(found.get(s) != self.expected[s[1]] for s in scans)

    def work(self):
        return len(self.scans()) * len(self.corpus) / (1 << 20)


class StreamEncrypt(Workload):
    """64 KiB of plaintext in messages of 128 B to 16 KiB, each under
    its own key and nonce, through ``cipher.xor_encrypt``."""

    name = "stream_encrypt"
    rate, rate_unit = "encrypt_mb_per_s", "MiB/s"

    def setup(self):
        cipher = self.ks.cipher
        self.config = cipher.CipherConfig()
        self.messages = []      # (key bytes, nonce bytes, KeyMaterial, plaintext)
        total = 0
        while total < self.size["plaintext_bytes"]:
            length = int(128 * 2 ** (7 * self.rng.random()))   # log-uniform
            # the last message is cut so that every seed encrypts the same total
            length = min(length, self.size["plaintext_bytes"] - total)
            key, nonce = self.rng.randbytes(32), self.rng.randbytes(16)
            km = cipher.KeyMaterial.from_bytes(key, nonce)
            self.messages.append((key, nonce, km, self.rng.randbytes(length)))
            total += length
        self.first = None       # ciphertexts and verdicts of the first pass

    def prepare_checks(self):
        n = len(self.messages)
        self.sampled = sorted({0, n - 1} | {self.rng.randrange(n) for _ in range(14)})

    def run_pass(self):
        xor_encrypt = self.ks.cipher.xor_encrypt
        return [xor_encrypt(pt, km, self.config) for _, _, km, pt in self.messages]

    def check(self, cts):
        if self.first is None:
            # first pass: decrypt everything; sampled messages also checked
            # block by block against the transcription (first and last block)
            xor_encrypt = self.ks.cipher.xor_encrypt
            ok = [xor_encrypt(ct, km, self.config) == pt
                  for ct, (_, _, km, pt) in zip(cts, self.messages)]
            for i in self.sampled:
                key, nonce, _, pt = self.messages[i]
                kw, nw = np.frombuffer(key, "<u4").tolist(), np.frombuffer(nonce, "<u4").tolist()
                last = (len(pt) - 1) // oracles.BLOCK_BYTES
                for b in {0, last}:
                    lo, hi = b * oracles.BLOCK_BYTES, min(len(pt), (b + 1) * oracles.BLOCK_BYTES)
                    ks = bytes(x ^ y for x, y in zip(cts[i][lo:hi], pt[lo:hi]))
                    ok[i] &= ks == oracles.block_bytes(kw, nw, b)[: hi - lo]
            self.first = (cts, ok)
        first_cts, first_ok = self.first
        failed = sum(not (good and ct == ref)
                     for ct, ref, good in zip(cts, first_cts, first_ok))
        return len(self.messages), failed + abs(len(cts) - len(first_cts))

    def work(self):
        return sum(len(m[3]) for m in self.messages) / (1 << 20)


class Combined:
    """A benchmark workload: two of the parts above, run one after the
    other in every pass, each in its own directory. Pairing a part whose
    speed follows the box's load closely with a steadier one keeps the
    pass time repeatable on a shared box (README.md, "Slow phases")."""

    name = ""
    parts: tuple[type[Workload], ...] = ()

    def __init__(self, ks, seed: int, size: str, workdir: Path):
        self.members = []
        for part in self.parts:
            (Path(workdir) / part.name).mkdir(parents=True)
            self.members.append(part(ks, seed, size, Path(workdir) / part.name))
        self.part_s = {m.name: [] for m in self.members}   # seconds, per pass

    def setup(self) -> None:
        for m in self.members:
            m.setup()

    def clean(self) -> None:
        for m in self.members:
            m.clean()

    def prepare_checks(self) -> None:
        for m in self.members:
            m.prepare_checks()

    def run_pass(self):
        outputs = []
        for m in self.members:
            t0 = time.perf_counter()
            outputs.append(m.run_pass())
            self.part_s[m.name].append(time.perf_counter() - t0)
        return outputs

    def check(self, outputs) -> tuple[int, int]:
        counts = [m.check(out) for m, out in zip(self.members, outputs)]
        return sum(a for a, _ in counts), sum(f for _, f in counts)

    def rates(self, passes: slice) -> dict:
        """Each part's own rate over the passes selected by ``passes``."""
        return {m.rate: {"value": m.work() / statistics.fmean(self.part_s[m.name][passes]),
                         "unit": m.rate_unit} for m in self.members}


class KeystreamAndScan(Combined):
    """The Python-object paths: ``dataset``, ``freq`` and ``search``."""

    name = "keystream_and_scan"
    parts = (KeystreamBaseline, PatternScan)


class DiffAndEncrypt(Combined):
    """The cipher paths: ``qrf_vec`` on large arrays (``diff``) and the
    scalar ``block`` on small messages."""

    name = "diff_and_encrypt"
    parts = (DifferentialCampaign, StreamEncrypt)


WORKLOADS = {w.name: w for w in (KeystreamAndScan, DiffAndEncrypt)}
