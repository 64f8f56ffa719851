"""Command-line entry point.

Commands: gen, scan, freq, diff, avalanche, sweep, bench, report.
Exit codes: 0 success, 1 usage error (a request too large for memory too),
2 analysis failure (a significance flag was raised on a CSPRNG baseline, or
a ``bench`` engine missed or invented a match), 3 I/O error.

The default RNG seed can be set with the KEYSTREAM_LAB_SEED environment
variable.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import os
import sys
import time
import warnings
from pathlib import Path

from . import cipher, dataset, diff, freq, report, search

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ANALYSIS = 2
EXIT_IO = 3


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


def _load_dataset(path: str) -> tuple[memoryview, dict]:
    """The dataset's keystream bytes, a read-only view of the loaded blocks
    (no copy on a little-endian host), and what identifies it: its header
    and a BLAKE2b digest of those bytes."""
    blocks, header = dataset.load(path)
    # flattened first: memoryview cannot cast a (0, 36) view to bytes
    words = blocks.astype("<u4", copy=False).reshape(-1)
    words.flags.writeable = False
    data = memoryview(words).cast("B")
    return data, {"header": header, "blake2b": hashlib.blake2b(data).hexdigest()}


def _run_config(args, dataset_id: dict | None = None) -> dict:
    """What a run's config hash covers: the parsed options except the
    output paths, and the identity of the dataset analysed, if any."""
    config = {k: v for k, v in vars(args).items() if k not in ("out", "out_dir")}
    if dataset_id is not None:
        config["dataset"] = dataset_id
    return config


# --- commands --------------------------------------------------------------

def _dataset_config(args) -> dataset.DatasetConfig:
    return dataset.DatasetConfig(
        mode=args.mode,
        n_blocks=args.blocks,
        rng_seed=args.seed,
        cipher=cipher.CipherConfig(schedule=args.preset),
        entropy=args.entropy,
    )


def cmd_gen(args) -> int:
    cfg = _dataset_config(args)
    blocks = dataset.generate_dataset(cfg)
    dataset.persist(blocks, cfg, args.out)
    print(f"wrote {len(blocks)} blocks to {args.out}")
    return EXIT_OK


def cmd_scan(args) -> int:
    # big-endian: 8 hex digits per word value, as freq_m32.csv and dataset
    # files write it (byteswap leaves a byte as it is)
    patterns = []
    for i, hex_pat in enumerate(args.pattern):
        symbols = search.SymbolStream.from_bytes(bytes.fromhex(hex_pat), args.alphabet).array
        patterns.append(search.WordPattern(symbols.byteswap().tolist(), f"p{i}", args.alphabet))
    if not patterns:
        print("no patterns given", file=sys.stderr)
        return EXIT_USAGE
    if args.engine == "hybrid":
        search.HybridConfig().window_symbols(args.alphabet, patterns)
    data, dataset_id = _load_dataset(args.dataset)
    text = search.SymbolStream.from_bytes(data, args.alphabet)
    if args.engine == "hybrid":
        by_id, flagged = search.hybrid_search(text, patterns)
        reports = list(by_id.values())
        for pid in sorted(flagged):
            print(f"flagged: {pid}")
    else:
        reports = [search.search(text, p, args.engine) for p in patterns]
    for rep in reports:
        print(f"{rep.pattern_id}: {len(rep.positions)} matches "
              f"({rep.comparisons} comparisons)")
    if args.out:
        report.write_match_csv(args.out, reports, _run_config(args, dataset_id))
    return EXIT_OK


def cmd_freq(args) -> int:
    if args.top < 1:
        raise ValueError("--top must be >= 1")
    data, dataset_id = _load_dataset(args.dataset)
    for m in args.m:
        freq.check_length(len(data), m)
    run_config = _run_config(args, dataset_id)
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    # a list, not a generator: every width runs whatever the verdicts
    failures = [_freq_width(data, m, args, run_config, outdir) for m in args.m]
    if any(failures):
        print("significance flag raised on baseline data", file=sys.stderr)
        return EXIT_ANALYSIS
    return EXIT_OK


def _freq_width(data: memoryview, m: int, args, run_config: dict, outdir: Path) -> bool:
    """Count, test and report the m-bit grams; True if ``--baseline`` fails.
    One width's table is freed on return, before the next is counted."""
    table = freq.extract_mgrams(data, freq.MGramSpec(m_bits=m))
    # one plain stderr line per low-count warning, not warnings' display
    # of this file's path, line number and source line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        stat, ok = freq.chi_square(table)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    hits = freq.scan_significant(table)
    rows = []
    for pattern, count in freq.top_k(table, args.top):
        zres = freq.z_score(table, pattern)
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
    return args.baseline and bool(hits or not ok)


def _trial_config(args) -> diff.TrialConfig:
    return diff.TrialConfig(
        trials=args.trials, rounds=tuple(args.rounds), rng_seed=args.seed
    )


def cmd_diff(args) -> int:
    cfg = _trial_config(args)
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    deltas = diff.default_delta_set()
    if args.include_zero_control:
        deltas = [(0, 0, 0, 0)] + deltas
    results = diff.collision_trials(deltas, cfg)
    rows = [{"delta": "/".join(f"{d:08x}" for d in delta), **st.as_dict()}
            for delta, stats in zip(deltas, results) for st in stats.values()]
    report.write_csv(outdir / "collision_stats.csv", rows, _run_config(args))
    # the zero-delta control collides in every trial, so only the others pool
    pooled = [stats for delta, stats in zip(deltas, results) if any(delta)]
    pooled_p = [sum(stats[r].collisions for stats in pooled) / (len(pooled) * cfg.trials)
                for r in cfg.rounds]
    report.write_decay_chart(
        outdir / "collision_decay.svg", cfg.rounds, pooled_p,
        "near-collision probability vs rounds",
    )
    for r, p in zip(cfg.rounds, pooled_p):
        print(f"rounds={r} pooled_p_hat={p:.3e}")
    return EXIT_OK


def cmd_avalanche(args) -> int:
    if args.rounds < 1:
        # rounds=0 is the library's identity profile, not a measurement
        raise ValueError("--rounds must be >= 1")
    profile = diff.avalanche_profile(args.rounds, args.trials, rng_seed=args.seed)
    for name, mean in zip("abcd", profile.word_means):
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
    sets = [tuple(int(x) for x in spec.split(",")) for spec in args.sets.split(";")]
    results = diff.rotation_sweep(sets, _trial_config(args))
    for res in results:
        print(f"{res.rotations}: mean_flipped={res.mean_flipped_bits:.2f} "
              f"(se {res.flipped_bits_se:.3f}) "
              f"collision_p={res.collision.p_hat:.3e} "
              f"passes_bound={res.collision.passes_bound}")
    if args.out:
        report.write_csv(args.out, [r.as_dict() for r in results], _run_config(args))
    return EXIT_OK


def cmd_bench(args) -> int:
    if args.size_mb < 1:
        raise ValueError("--size-mb must be >= 1")
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
    for engine in search.ENGINES:
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
    if wrong:
        print(f"engines disagreeing with the brute-force oracle: {', '.join(wrong)}",
              file=sys.stderr)
        return EXIT_ANALYSIS
    return EXIT_OK


def cmd_report(args) -> int:
    """Run the full desk-scale campaign (dataset, frequency analysis and the
    differential decay table) as the ``gen``, ``freq`` and ``diff`` commands
    parsed from these options; stop at the first non-zero exit."""
    ds_path, seed = str(Path(args.out_dir) / "dataset.txt"), f"--seed={args.seed}"
    parse = _parser().parse_args
    steps = [parse(argv) for argv in (
        ["gen", f"--mode={args.mode}", f"--blocks={args.blocks}",
         f"--preset={args.preset}", f"--out={ds_path}", seed],
        ["freq", f"--dataset={ds_path}", f"--out-dir={args.out_dir}"],
        ["diff", f"--trials={args.trials}", "--rounds", "1", "2", "4",
         "--include-zero-control", f"--out-dir={args.out_dir}", seed],
    )]
    # reject the gen and diff options before any step writes
    _dataset_config(steps[0])
    _trial_config(steps[-1])
    Path(args.out_dir).mkdir(parents=True, exist_ok=True)
    for step in steps:
        rc = _run(step)
        if rc != EXIT_OK:
            return rc
    return EXIT_OK


def _run(args) -> int:
    """Run the command that ``args`` were parsed for.  The function is looked
    up by name on each call, so a cached parser holds none."""
    return globals()[f"cmd_{args.command}"](args)


@functools.lru_cache(maxsize=4)
def _parser_for(default_seed: str) -> argparse.ArgumentParser:
    # keyed on the --seed default, the one input build_parser reads from the
    # environment; building the parser costs about 15 parses
    return build_parser()


def _parser() -> argparse.ArgumentParser:
    return _parser_for(_default_seed())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="keystream-lab")
    sub = parser.add_subparsers(dest="command", required=True)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_seed, default=_default_seed())
    # the dataset options of gen, which report passes on to it
    dataset_opts = argparse.ArgumentParser(add_help=False, parents=[seeded])
    dataset_opts.add_argument("--mode", choices=["fixed", "variable"], default="fixed")
    dataset_opts.add_argument("--blocks", type=int, default=10_000)
    dataset_opts.add_argument("--preset", choices=sorted(cipher.SCHEDULE_PRESETS),
                              default="echacha-colrow-v1")

    p = sub.add_parser("gen", parents=[dataset_opts], help="generate a keystream dataset")
    p.add_argument("--entropy", choices=["seeded", "os"], default="seeded")
    p.add_argument("--out", required=True)

    p = sub.add_parser("scan", help="search patterns in a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--pattern", action="append", default=[],
                   help="hex-encoded pattern, 8 digits per word value with "
                   "--alphabet word (repeatable)")
    p.add_argument("--engine", choices=list(search.ENGINES), default="kmp")
    p.add_argument("--alphabet", choices=["byte", "word"], default="word")
    p.add_argument("--out")

    p = sub.add_parser("freq", help="m-gram frequency analysis")
    p.add_argument("--dataset", required=True)
    p.add_argument("--m", type=int, nargs="+", default=[8, 16, 32],
                   choices=[8, 16, 32])
    p.add_argument("--top", type=int, default=10)
    p.add_argument("--baseline", action="store_true",
                   help="treat input as a CSPRNG baseline; flags exit 2")
    p.add_argument("--out-dir", default="reports")

    p = sub.add_parser("diff", parents=[seeded], help="rotational-differential campaign")
    p.add_argument("--trials", type=int, default=1 << 20)
    p.add_argument("--rounds", type=int, nargs="+", default=[1, 2, 4, 8])
    p.add_argument("--include-zero-control", action="store_true")
    p.add_argument("--out-dir", default="reports")

    p = sub.add_parser("avalanche", parents=[seeded], help="bit-flip probability profile")
    p.add_argument("--rounds", type=int, default=2)
    p.add_argument("--trials", type=int, default=10_000)
    p.add_argument("--out")

    p = sub.add_parser("sweep", parents=[seeded], help="rotation-constant sweep")
    p.add_argument("--sets", default="16,12,8,7,4,2;7,9,13,18,4,2;17,13,9,5,3,2")
    p.add_argument("--trials", type=int, default=1 << 18)
    p.add_argument("--rounds", type=int, nargs=1, default=[4])
    p.add_argument("--out")

    p = sub.add_parser("bench", parents=[seeded], help="engine throughput and accuracy")
    p.add_argument("--size-mb", type=int, default=2)
    p.add_argument("--out")

    p = sub.add_parser("report", parents=[dataset_opts], help="full desk-scale campaign")
    p.add_argument("--trials", type=int, default=1 << 20)
    p.add_argument("--out-dir", default="reports")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return _run(args)
    except (OSError, dataset.DatasetFormatError) as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # numpy's names the allocation: "Unable to allocate 7.28 TiB for ..."
        print(f"usage error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
