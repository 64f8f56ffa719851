"""keystream-lab benchmark: one workload, one seed, one result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: keystream_and_scan, diff_and_encrypt (see README.md here).
The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result.

With ``--trace 0`` the last stdout line carries the end-to-end metrics
(setup_s, mean_pass_s, peak_rss_mb); with ``--trace 1`` the per-layer metrics.
The full record of the run, with the machine description, each part's
rate and the failure fraction, goes to
``.perfbench_out/result-<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 170.0   # every child is killed by then, so the run ends < 180 s
SETUP_SAMPLES = 5    # setup_s is their median


def machine() -> dict:
    """Description of the host, recorded with every result set."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass

    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "thread_env": {v: "1" for v in THREAD_VARS},
        "loadavg_1m_at_start": os.getloadavg()[0],
    }


def spawn(args, deadline: float, extra: list[str]):
    """Run worker.py; return (seconds from spawn to its ``ready`` line,
    the lines it printed after that). Kills it at ``deadline``."""
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size, "--out-dir", str(OUT), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read().splitlines()
    finally:
        proc.stdout.close()
        proc.wait()
        killer.cancel()
        killer.join()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker failed (exit {proc.returncode})")
    return ready_s, rest


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full",
                    help="'tiny' shrinks every workload for the self-tests")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "keystream_lab" / "__init__.py").is_file():
        print(f"perfbench: no keystream_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    host = machine()
    warnings = []
    if host["loadavg_1m_at_start"] > (host["nproc"] or 1):
        warnings.append(f"1-minute load average {host['loadavg_1m_at_start']:.2f} "
                        f"exceeds nproc {host['nproc']}; timings may be disturbed")

    try:
        setup, setup_rss = [], []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                ready_s, lines = spawn(args, deadline, ["--setup-only"])
                setup.append(ready_s)
                setup_rss.append(json.loads(lines[-1])["setup_rss_mb"])
        ready_s, lines = spawn(args, deadline, [])
        run = json.loads(lines[-1])
        setup.append(ready_s)
        setup_rss.append(run["setup_rss_mb"])
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    end_to_end = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "mean_pass_s": {"value": run["mean_pass_s"], "unit": "s"},
        "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MiB"},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "machine": host,
        "setup_samples_s": setup,
        "setup_rss_mb": setup_rss,
        "pass_s": run["pass_s"],
        "end_to_end": end_to_end,
        "derived": run["derived"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "warnings": warnings + run["warnings"],
    }
    if args.trace:
        record["traced_pass_s"] = run["traced_pass_s"]
        record["per_layer"] = run["per_layer"]
        record["shares"] = run["shares"]
        metrics = record["per_layer"]
    else:
        metrics = end_to_end
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)

    for w in record["warnings"]:
        print(f"perfbench warning: {w}", file=sys.stderr)
    if args.trace:
        print(f"{'layer':40s} {'self s':>9s} {'share':>7s}", file=sys.stderr)
        for name, self_s, share in run["shares"]:
            print(f"{name:40s} {self_s:9.3f} {share:7.1%}", file=sys.stderr)
    print(json.dumps({
        "correct": run["failed"] == 0 and run["attempted"] > 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
