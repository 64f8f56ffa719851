"""One benchmark process: set up one workload, run its passes, check them.

``run.py`` starts this file once per set-up sample (with ``--setup-only``)
and once for the measured run. The process prints ``ready`` when
keystream_lab is imported and the workload's inputs exist, then one JSON
line: with ``--setup-only`` only the peak RSS of the set-up, otherwise also
the pass times, the check counts, the peak RSS after the first pass and,
with ``--trace 1``, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import tracing
from workloads import SIZES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 3      # so that an untraced run has at least two warm passes


def import_package(root: Path = ROOT):
    """Import keystream_lab from ``root/src`` and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    ks = importlib.import_module("keystream_lab")
    importlib.import_module("keystream_lab.cli")
    if src not in Path(ks.__file__).resolve().parents:
        raise ImportError(f"keystream_lab imported from {ks.__file__}, not {src}")
    return ks


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_pass(wl, log) -> tuple[object, float]:
    wl.clean()
    gc.collect()
    with contextlib.redirect_stdout(log):
        t0 = time.perf_counter()
        outputs = wl.run_pass()
        elapsed = time.perf_counter() - t0
    return outputs, elapsed


def measure(wl, seconds: float, trace: bool, log, spans_path=None) -> dict:
    """Closed loop of passes until ``seconds`` of pass time are measured
    and at least MIN_PASSES passes ran. With ``trace``, the first pass runs
    untraced, as the baseline of the tracing overhead, and the following
    passes are traced."""
    wl.prepare_checks()
    tracer = tracing.Tracer(sys.modules["keystream_lab"]) if trace else None
    untraced: list[float] = []
    traced: list[float] = []
    per_pass: list[dict] = []
    attempted = failed = 0
    first_pass_rss = None
    while (len(untraced) + len(traced) < MIN_PASSES
           or sum(untraced) + sum(traced) < seconds):
        if tracer is None or not untraced:
            outputs, elapsed = _timed_pass(wl, log)
            untraced.append(elapsed)
        else:
            tracer.pass_id += 1
            tracer.install()
            try:
                outputs, elapsed = _timed_pass(wl, log)
            finally:
                tracer.uninstall()
            traced.append(elapsed)
            per_pass.append(tracing.per_layer(tracer, tracer.pass_id, elapsed, untraced[0]))
        if first_pass_rss is None:
            # before the check, whose oracles hold copies of the outputs
            first_pass_rss = peak_rss_mb()
        a, f = wl.check(outputs)
        attempted += a
        failed += f

    result: dict = {"warnings": []}
    if tracer is not None:
        result["per_layer"] = {
            k: {"value": statistics.median(p[k] for p in per_pass), "unit": tracing.UNITS[k]}
            for k in per_pass[0]}
        result["traced_pass_s"] = traced
        result["shares"] = tracing.share_table(tracer, 1, traced[0])
        result["warnings"] += [f"traced name missing, its metrics are absent: {m}"
                               for m in tracer.missing]
        result["warnings"] += [f"trace counter failed: {e}" for e in sorted(tracer.counter_errors)]
        if spans_path is not None:
            tracer.write(spans_path)
    # the first pass warms up; a traced run has no other untraced pass
    warm = slice(1, len(untraced)) if len(untraced) > 1 else slice(0, 1)
    result.update(
        attempted=attempted,
        failed=failed,
        pass_s=untraced,
        mean_pass_s=statistics.fmean(untraced[warm]),
        peak_rss_mb=first_pass_rss,
        derived={
            **wl.rates(warm),
            "failed_frac": {"value": failed / max(attempted, 1), "unit": "ratio"},
        },
    )
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--out-dir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    ks = import_package()
    args.out_dir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=args.out_dir))
    try:
        # the program's own prints go to a log, keeping stdout for run.py
        with open(workdir / "program.log", "w") as log:
            wl = WORKLOADS[args.workload](ks, args.seed, args.size, workdir)
            with contextlib.redirect_stdout(log):
                wl.setup()
            print("ready", flush=True)
            setup_rss = {"setup_rss_mb": peak_rss_mb()}
            if args.setup_only:
                print(json.dumps(setup_rss), flush=True)
                return 0
            spans_path = args.out_dir / f"spans-{args.workload}-seed{args.seed}.npz"
            result = measure(wl, args.seconds, bool(args.trace), log,
                             spans_path if args.trace else None)
            result.update(setup_rss)
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
