"""Command-line entry point.

Commands: gen, scan, freq, diff, avalanche, sweep, bench, report.
Exit codes: 0 success, 1 usage error, 2 analysis failure (a significance
flag was raised on a CSPRNG baseline, or a ``bench`` engine missed or
invented a match), 3 I/O error.

The default RNG seed can be set with the KEYSTREAM_LAB_SEED environment
variable.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
from pathlib import Path

from . import cipher, dataset, diff, freq, report, search

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ANALYSIS = 2
EXIT_IO = 3


class AnalysisFailure(Exception):
    pass


def _default_seed() -> str:
    # argparse converts a string default with the option's type at parse
    # time, so a malformed KEYSTREAM_LAB_SEED is reported as a usage error
    return os.environ.get("KEYSTREAM_LAB_SEED", "0")


def _seed(text: str) -> int:
    """argparse type of ``--seed``: an integer in [0, 2^64)."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(
            f"{text!r} (--seed or KEYSTREAM_LAB_SEED) is not an integer in [0, 2^64)"
        )
    return value


def _cipher_config(preset: str) -> cipher.CipherConfig:
    return cipher.CipherConfig(schedule=preset)


def _load_dataset(path: str) -> tuple[bytes, dict]:
    """The dataset's keystream bytes and what identifies it: its header and a
    BLAKE2b digest of those bytes.  A file holding a different number of
    records than its header's ``n_blocks`` is rejected."""
    blocks, header = dataset.load(path)
    expected = header.get("n_blocks") if isinstance(header, dict) else None
    if expected is not None and expected != len(blocks):
        raise dataset.DatasetFormatError(
            f"header says n_blocks={expected}, but the file holds "
            f"{len(blocks)} records", 1)
    data = dataset.dataset_bytes(blocks)
    return data, {"header": header, "blake2b": hashlib.blake2b(data).hexdigest()}


def _run_config(args, dataset_id: dict | None = None) -> dict:
    """What a run's config hash covers: the parsed options (not the command
    function, whose repr holds a memory address) and the identity of the
    dataset analysed, if any."""
    config = {k: v for k, v in vars(args).items() if k != "func"}
    if dataset_id is not None:
        config["dataset"] = dataset_id
    return config


# --- commands --------------------------------------------------------------

def cmd_gen(args) -> int:
    cfg = dataset.DatasetConfig(
        mode=args.mode,
        n_blocks=args.blocks,
        rng_seed=args.seed,
        cipher=_cipher_config(args.preset),
        entropy=args.entropy,
    )
    blocks = dataset.generate_dataset(cfg)
    dataset.persist(blocks, cfg, args.out)
    print(f"wrote {len(blocks)} blocks to {args.out}")
    return EXIT_OK


def cmd_scan(args) -> int:
    data, dataset_id = _load_dataset(args.dataset)
    text = search.SymbolStream.from_bytes(data, args.alphabet)
    patterns = []
    for i, hex_pat in enumerate(args.pattern):
        pstream = search.SymbolStream.from_bytes(bytes.fromhex(hex_pat), args.alphabet)
        patterns.append(
            search.WordPattern(pstream.symbols, f"p{i}", args.alphabet)
        )
    if not patterns:
        print("no patterns given", file=sys.stderr)
        return EXIT_USAGE
    reports = []
    if args.engine == "hybrid":
        by_id, flagged = search.hybrid_search(text, patterns)
        reports = list(by_id.values())
        for pid in sorted(flagged):
            print(f"flagged: {pid}")
    else:
        for p in patterns:
            reports.append(search.search(text, p, args.engine))
    for rep in reports:
        print(f"{rep.pattern_id}: {len(rep.positions)} matches "
              f"({rep.comparisons} comparisons)")
    if args.out:
        report.write_csv(args.out, report.match_report_rows(reports),
                         _run_config(args, dataset_id))
    return EXIT_OK


def cmd_freq(args) -> int:
    data, dataset_id = _load_dataset(args.dataset)
    run_config = _run_config(args, dataset_id)
    cfg = freq.SignificanceConfig()
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    failure = False
    for m in args.m:
        table = freq.extract_mgrams(data, freq.MGramSpec(m_bits=m))
        stat, ok = freq.chi_square(table, cfg)
        hits = freq.scan_significant(table, cfg)
        ranked = freq.top_k(table, args.top)
        rows = []
        for pattern, count in ranked:
            zres = freq.z_score(table, pattern, cfg)
            rows.append(
                {
                    "pattern_hex": f"{pattern:0{m // 4}x}",
                    "count": count,
                    "z": f"{zres.z:.4f}",
                    "significant": zres.significant,
                }
            )
        report.write_csv(outdir / f"freq_m{m}.csv", rows, run_config)
        report.write_bar_chart(
            outdir / f"top{args.top}_m{m}.svg",
            [r["pattern_hex"] for r in rows],
            [r["count"] for r in rows],
            f"top {args.top} {m}-bit patterns",
        )
        print(f"m={m}: N={table.n} chi2={stat:.1f} pass={ok} "
              f"significant_cells={len(hits)}")
        if args.baseline and (hits or not ok):
            failure = True
    if failure:
        print("significance flag raised on baseline data", file=sys.stderr)
        return EXIT_ANALYSIS
    return EXIT_OK


def cmd_diff(args) -> int:
    cfg = diff.TrialConfig(
        trials=args.trials, rounds=tuple(args.rounds), rng_seed=args.seed
    )
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    deltas = diff.default_delta_set()
    if args.include_zero_control:
        deltas = [(0, 0, 0, 0)] + deltas
    rows = []
    pooled = {r: [0, 0] for r in cfg.rounds}
    for delta in deltas:
        stats = diff.collision_trial_batch(delta, cfg)
        for r, st in stats.items():
            pooled[r][0] += st.collisions
            pooled[r][1] += st.trials
            rows.append({"delta": "/".join(f"{d:08x}" for d in delta), **st.as_dict()})
    report.write_csv(outdir / "collision_stats.csv", rows, _run_config(args))
    rounds_sorted = sorted(cfg.rounds)
    pooled_p = [pooled[r][0] / pooled[r][1] for r in rounds_sorted]
    report.write_decay_chart(
        outdir / "collision_decay.svg", rounds_sorted, pooled_p,
        "near-collision probability vs rounds",
    )
    for r, p in zip(rounds_sorted, pooled_p):
        print(f"rounds={r} pooled_p_hat={p:.3e}")
    return EXIT_OK


def cmd_avalanche(args) -> int:
    if args.rounds < 1:
        # rounds=0 is the library's identity profile, not a measurement
        raise ValueError("--rounds must be >= 1")
    profile = diff.avalanche_profile(args.rounds, args.trials, rng_seed=args.seed)
    means = profile.word_means
    for name, mean in zip("abcd", means):
        print(f"word {name}: mean flip probability {mean:.4f}")
    if args.out:
        rows = [
            {"word": "abcd"[w], "bit": b, "flip_probability": f"{p:.6f}"}
            for w in range(4)
            for b, p in enumerate(profile.word_profiles[w])
        ]
        report.write_csv(args.out, rows, _run_config(args))
    return EXIT_OK


def cmd_sweep(args) -> int:
    sets = []
    for spec_str in args.sets.split(";"):
        sets.append(tuple(int(x) for x in spec_str.split(",")))
    cfg = diff.TrialConfig(
        trials=args.trials, rounds=tuple(args.rounds), rng_seed=args.seed
    )
    results = diff.rotation_sweep(sets, cfg)
    for res in results:
        print(f"{res.rotations}: mean_flipped={res.mean_flipped_bits:.2f} "
              f"(se {res.flipped_bits_se:.3f}) "
              f"collision_p={res.collision.p_hat:.3e} "
              f"passes_bound={res.collision.passes_bound}")
    if args.out:
        report.write_csv(args.out, [r.as_dict() for r in results], _run_config(args))
    return EXIT_OK


def cmd_bench(args) -> int:
    gen = dataset.SeededGenerator(args.seed)
    corpus = gen.bytes(args.size_mb * 1024 * 1024)
    if args.size_mb < 16:
        print(f"warning: corpus {args.size_mb} MiB < 16 MiB; timings may be "
              "unstable", file=sys.stderr)
    pattern_raw = gen.bytes(8)
    # plant a few occurrences so recall is measurable
    planted = bytearray(corpus)
    step = len(planted) // 8
    for i in range(4):
        pos = i * step
        planted[pos: pos + len(pattern_raw)] = pattern_raw
    corpus = bytes(planted)
    text = search.SymbolStream.from_bytes(corpus, "byte")
    pattern = search.WordPattern(tuple(pattern_raw), "bench", "byte")
    truth = set(search.brute_force_search(text, pattern).positions)
    rows, wrong = [], []
    for engine in ("brute", "kmp", "bm", "hybrid"):
        t0 = time.perf_counter()
        rep = search.search(text, pattern, engine)
        elapsed = time.perf_counter() - t0
        found = set(rep.positions)
        tp = len(found & truth)
        precision = tp / len(found) if found else 1.0
        recall = tp / len(truth) if truth else 1.0
        if precision < 1 or recall < 1:
            wrong.append(engine)
        rows.append(
            {
                "engine": engine,
                "precision": f"{precision:.4f}",
                "recall": f"{recall:.4f}",
                "throughput_mb_s": f"{len(corpus) / elapsed / 1e6:.2f}",
            }
        )
        print(rows[-1])
    if args.out:
        report.write_csv(args.out, rows, _run_config(args))
    if not args.skip_relative_check:
        tp = {r["engine"]: float(r["throughput_mb_s"]) for r in rows}
        if not (tp["hybrid"] >= tp["kmp"] * 0.5):
            print("note: hybrid/KMP relative ordering not met on this corpus "
                  "(soft check)", file=sys.stderr)
    if wrong:
        print(f"engines disagreeing with the brute-force oracle: {', '.join(wrong)}",
              file=sys.stderr)
        return EXIT_ANALYSIS
    return EXIT_OK


def cmd_report(args) -> int:
    """Run the full desk-scale campaign: dataset, frequency analysis, and the
    differential decay table."""
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    ds_path = outdir / "dataset.txt"
    gen_args = argparse.Namespace(
        mode=args.mode, blocks=args.blocks, seed=args.seed,
        preset=args.preset, entropy="seeded", out=str(ds_path),
    )
    cmd_gen(gen_args)
    freq_args = argparse.Namespace(
        dataset=str(ds_path), m=[8, 16, 32], out_dir=str(outdir),
        top=10, baseline=False,
    )
    rc = cmd_freq(freq_args)
    if rc != EXIT_OK:
        return rc
    diff_args = argparse.Namespace(
        trials=args.trials, rounds=[1, 2, 4], seed=args.seed,
        out_dir=str(outdir), include_zero_control=True,
    )
    return cmd_diff(diff_args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="keystream-lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a keystream dataset")
    p.add_argument("--mode", choices=["fixed", "variable"], default="fixed")
    p.add_argument("--blocks", type=int, default=10_000)
    p.add_argument("--seed", type=_seed, default=_default_seed())
    p.add_argument("--preset", choices=sorted(cipher.SCHEDULE_PRESETS),
                   default="echacha-colrow-v1")
    p.add_argument("--entropy", choices=["seeded", "os"], default="seeded")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("scan", help="search patterns in a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--pattern", action="append", default=[],
                   help="hex-encoded pattern (repeatable)")
    p.add_argument("--engine", choices=["brute", "kmp", "bm", "hybrid"],
                   default="kmp")
    p.add_argument("--alphabet", choices=["byte", "word"], default="word")
    p.add_argument("--out")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("freq", help="m-gram frequency analysis")
    p.add_argument("--dataset", required=True)
    p.add_argument("--m", type=int, nargs="+", default=[8, 16, 32],
                   choices=[8, 16, 32])
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--baseline", action="store_true",
                   help="treat input as a CSPRNG baseline; flags exit 2")
    p.add_argument("--out-dir", default="reports")
    p.set_defaults(func=cmd_freq)

    p = sub.add_parser("diff", help="rotational-differential campaign")
    p.add_argument("--trials", type=int, default=1 << 20)
    p.add_argument("--rounds", type=int, nargs="+", default=[1, 2, 4, 8])
    p.add_argument("--seed", type=_seed, default=_default_seed())
    p.add_argument("--include-zero-control", action="store_true")
    p.add_argument("--out-dir", default="reports")
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("avalanche", help="bit-flip probability profile")
    p.add_argument("--rounds", type=int, default=2)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--seed", type=_seed, default=_default_seed())
    p.add_argument("--out")
    p.set_defaults(func=cmd_avalanche)

    p = sub.add_parser("sweep", help="rotation-constant sweep")
    p.add_argument("--sets", default="16,12,8,7,4,2;7,9,13,18,4,2;17,13,9,5,3,2")
    p.add_argument("--trials", type=int, default=1 << 18)
    p.add_argument("--rounds", type=int, nargs="+", default=[4])
    p.add_argument("--seed", type=_seed, default=_default_seed())
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("bench", help="engine throughput and accuracy")
    p.add_argument("--size-mb", type=int, default=2)
    p.add_argument("--seed", type=_seed, default=_default_seed())
    p.add_argument("--skip-relative-check", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("report", help="full desk-scale campaign")
    p.add_argument("--mode", choices=["fixed", "variable"], default="fixed")
    p.add_argument("--blocks", type=int, default=10_000)
    p.add_argument("--trials", type=int, default=1 << 20)
    p.add_argument("--seed", type=_seed, default=_default_seed())
    p.add_argument("--preset", choices=sorted(cipher.SCHEDULE_PRESETS),
                   default="echacha-colrow-v1")
    p.add_argument("--out-dir", default="reports")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (OSError, dataset.DatasetFormatError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
