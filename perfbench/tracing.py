"""Span tracer that wraps keystream_lab's public names at run time.

A traced pass installs wrappers around the functions listed in ``TARGETS``.
Each call records a span (name, start, end, parent span, pass id) in memory;
``per_layer`` turns the spans of one pass into the per-layer metrics listed
in BENCHMARK.json. A self time is a span's duration minus the time covered
by its direct child spans. Rates (``*_per_s``) use the whole span.

A target that no longer exists, for example after a rename, is reported in
``Tracer.missing``; the metrics that depend on it are left out of the result
with a warning, and everything else is still measured.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

from workloads import ENGINES

MIB = float(1 << 20)
BLOCK_BYTES = 144
SYMBOL_BYTES = {"byte": 1, "word": 4}


@functools.cache
def _signature(fn):
    return inspect.signature(fn)


def _arg(fn, args, kwargs, name):
    bound = _signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _file_size(path) -> int:
    with open(path, "rb") as fh:
        return fh.seek(0, 2)


# Each target: dotted name under keystream_lab, span name (or a function of
# the call returning it), and an optional counter(fn, args, kwargs, result)
# returning {counter: amount} to add to the span name's totals.
TARGETS = [
    ("cipher.init_state", "cipher.init_state", None),
    ("cipher.block", "cipher.block", None),
    ("cipher.block_words_batch", "cipher.block_words_batch",
     lambda fn, a, k, r: {"blocks": np.shape(_arg(fn, a, k, "states"))[1]}),
    ("cipher.qrf_vec", "cipher.qrf_vec",
     lambda fn, a, k, r: {"lanes": np.size(_arg(fn, a, k, "a"))}),
    ("cipher.keystream", "cipher.keystream", None),
    ("cipher.xor_encrypt", "cipher.xor_encrypt", None),
    ("dataset.SeededGenerator.words", "dataset.keydraw", None),
    ("dataset.generate_dataset", "dataset.generate", None),
    ("dataset.persist", "dataset.persist",
     lambda fn, a, k, r: {"bytes": _file_size(_arg(fn, a, k, "path"))}),
    ("dataset.load", "dataset.load",
     lambda fn, a, k, r: {"bytes": _file_size(_arg(fn, a, k, "path"))}),
    ("dataset.dataset_bytes", "dataset.serialise", None),
    ("freq.extract_mgrams",
     lambda fn, a, k: f"freq.extract.m{_arg(fn, a, k, 'spec').m_bits}",
     lambda fn, a, k, r: {"distinct": len(r.counts)}),
    ("freq.chi_square", "freq.chi_square", None),
    ("freq.top_k", "freq.top_k", None),
    ("freq.scan_significant", "freq.scan_significant",
     lambda fn, a, k, r: {"flagged": len(r)}),
    ("search.SymbolStream.from_bytes",
     lambda fn, a, k: f"search.symbolstream.{_arg(fn, a, k, 'alphabet')}", None),
    ("search.search",
     lambda fn, a, k: (f"search.{_arg(fn, a, k, 'engine')}."
                       f"{_arg(fn, a, k, 'text').alphabet}"),
     lambda fn, a, k, r: {"comparisons": r.comparisons,
                          "symbols": len(_arg(fn, a, k, "text"))}),
    ("search.hybrid_search",
     lambda fn, a, k: f"search.hybrid.{_arg(fn, a, k, 'text').alphabet}",
     lambda fn, a, k, r: {
         "comparisons": sum(rep.comparisons for rep in r[0].values()),
         "windows": sum(rep.windows_scanned for rep in r[0].values()),
         "symbols": len(_arg(fn, a, k, "text")) * len(_arg(fn, a, k, "patterns")),
     }),
    ("diff.collision_trial_batch", "diff.collision_trial_batch", None),
    ("diff.avalanche_profile", "diff.avalanche_profile", None),
    ("diff.rotation_sweep", "diff.rotation_sweep", None),
    ("report.write_csv", "report.write_csv",
     lambda fn, a, k, r: {"bytes": _file_size(_arg(fn, a, k, "path"))}),
    ("report.write_bar_chart", "report.write_svg",
     lambda fn, a, k, r: {"bytes": _file_size(_arg(fn, a, k, "path"))}),
    ("report.write_decay_chart", "report.write_svg",
     lambda fn, a, k, r: {"bytes": _file_size(_arg(fn, a, k, "path"))}),
]


def _resolve(package, dotted):
    """(owner, attribute, raw value) for a dotted name, or None if absent."""
    owner = package
    *path, attr = dotted.split(".")
    try:
        for part in path:
            owner = getattr(owner, part)
        return owner, attr, vars(owner)[attr]
    except (AttributeError, KeyError, TypeError):
        return None


class Tracer:
    """Records spans around the wrapped names while installed."""

    def __init__(self, package):
        self.package = package
        self.spans: list = []          # (name, start, end, parent, pass_id)
        self.counts = defaultdict(lambda: defaultdict(float))  # pass -> key -> n
        self.missing: list[str] = []
        self.counter_errors: set[str] = set()
        self.pass_id = 0
        self._stack: list[int] = []
        self._restore: list = []

    # --- installation ----------------------------------------------------

    def install(self) -> None:
        self.missing = []
        modules = [m for n, m in sys.modules.items()
                   if n.startswith(self.package.__name__ + ".") and m is not None]
        for dotted, namer, counter in TARGETS:
            found = _resolve(self.package, dotted)
            if found is None:
                self.missing.append(dotted)
                continue
            owner, attr, raw = found
            if inspect.ismodule(owner):
                wrapper = self._wrap(raw, namer, counter)
                # rebind every module-level alias, e.g. names imported with
                # ``from .cipher import block_words_batch``
                for mod in modules:
                    for alias, value in list(vars(mod).items()):
                        if value is raw:
                            self._restore.append((mod, alias, raw))
                            setattr(mod, alias, wrapper)
            else:
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, namer, counter))
                else:
                    wrapped = self._wrap(raw, namer, counter)
                self._restore.append((owner, attr, raw))
                setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore = []

    def _wrap(self, fn, namer, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = namer if isinstance(namer, str) else tracer._call(
                namer, fn, args, kwargs, "unnamed")
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.pass_id)
            if counter is not None:
                totals = tracer.counts[tracer.pass_id]
                for key, n in tracer._call(counter, fn, args, kwargs, {}, result).items():
                    totals[f"{name}.{key}"] += n
            return result

        return traced

    def _call(self, hook, fn, args, kwargs, fallback, *extra):
        # a counter that no longer fits the wrapped signature must not stop
        # the run; its metric reads 0 and the error is reported once
        try:
            return hook(fn, args, kwargs, *extra)
        except Exception as exc:  # noqa: BLE001 - reported, run continues
            self.counter_errors.add(f"{fn.__qualname__}: {exc!r}")
            return fallback

    # --- results ---------------------------------------------------------

    def layer_times(self, pass_id: int) -> dict[str, dict[str, float]]:
        """name -> {calls, total_s, self_s, top_s} over the spans of one pass;
        top_s is the time of spans that have no traced parent."""
        child = defaultdict(float)
        for name, start, end, parent, pid in self.spans:
            if parent >= 0 and pid == pass_id:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "top_s": 0.0})
        for idx, (name, start, end, parent, pid) in enumerate(self.spans):
            if pid != pass_id:
                continue
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[idx]
            if parent < 0:
                row["top_s"] += end - start
        return out

    def write(self, path) -> None:
        """Write every recorded span as columns of an .npz file."""
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        np.savez(
            path,
            names=np.array(names),
            name=np.array([ids[s[0]] for s in self.spans], dtype=np.int32),
            start=np.array([s[1] for s in self.spans]),
            end=np.array([s[2] for s in self.spans]),
            parent=np.array([s[3] for s in self.spans], dtype=np.int64),
            pass_id=np.array([s[4] for s in self.spans], dtype=np.int32),
        )


# --- per-layer metrics -----------------------------------------------------

def _rate(amount, seconds):
    return amount / seconds if seconds > 0 else 0.0


# Metric rows: (metric, unit, wrapped names it needs, value(times, counts, extra)).
# ``times`` maps a span name to its calls/total_s/self_s, ``counts`` holds
# the counter totals and ``extra`` the pass-level times.

def _self_s(span, target):
    return (f"{span}.self_s", "s", [target], lambda t, c, e: t[span]["self_s"])


def _calls(span, target):
    return (f"{span}.calls", "count", [target], lambda t, c, e: t[span]["calls"])


def _per_call(metric, span, counter, unit, target):
    return (metric, unit, [target],
            lambda t, c, e: _rate(c[f"{span}.{counter}"], t[span]["calls"]))


def _mib_per_s(metric, span, counter, scale, target):
    """Counter x ``scale`` bytes per second of the span's whole duration."""
    return (metric, "MiB/s", [target],
            lambda t, c, e: _rate(c[f"{span}.{counter}"] * scale / MIB, t[span]["total_s"]))


def _count(metric, unit, targets, *keys):
    return (metric, unit, targets, lambda t, c, e: sum(c[k] for k in keys))


def _metric_table():
    bwb, qrf = "cipher.block_words_batch", "cipher.qrf_vec"
    rows = [
        _self_s(bwb, bwb), _calls(bwb, bwb),
        _per_call(f"{bwb}.blocks_per_call", bwb, "blocks", "blocks", bwb),
        _mib_per_s(f"{bwb}.mb_per_s", bwb, "blocks", BLOCK_BYTES, bwb),
        _self_s(qrf, qrf), _calls(qrf, qrf),
        _per_call(f"{qrf}.lanes_per_call", qrf, "lanes", "lanes", qrf),
        _self_s("cipher.block", "cipher.block"), _calls("cipher.block", "cipher.block"),
        _self_s("cipher.keystream", "cipher.keystream"),
        _self_s("cipher.xor_encrypt", "cipher.xor_encrypt"),
        _self_s("cipher.init_state", "cipher.init_state"),
        _calls("cipher.init_state", "cipher.init_state"),
        _self_s("dataset.keydraw", "dataset.SeededGenerator.words"),
        _calls("dataset.keydraw", "dataset.SeededGenerator.words"),
        _self_s("dataset.generate", "dataset.generate_dataset"),
        _self_s("dataset.persist", "dataset.persist"),
        _mib_per_s("dataset.persist.mb_per_s", "dataset.persist", "bytes", 1, "dataset.persist"),
        _self_s("dataset.load", "dataset.load"),
        _mib_per_s("dataset.load.mb_per_s", "dataset.load", "bytes", 1, "dataset.load"),
        _self_s("dataset.serialise", "dataset.dataset_bytes"),
        _count("dataset.file_bytes", "B", ["dataset.persist"], "dataset.persist.bytes"),
    ]
    rows += [_self_s(f"freq.extract.m{m}", "freq.extract_mgrams") for m in (8, 16, 32)]
    rows += [
        _count("freq.extract.m32.distinct", "count", ["freq.extract_mgrams"],
               "freq.extract.m32.distinct"),
        _self_s("freq.top_k", "freq.top_k"),
        _self_s("freq.chi_square", "freq.chi_square"),
        _self_s("freq.scan_significant", "freq.scan_significant"),
        _count("freq.scan_significant.flagged", "count", ["freq.scan_significant"],
               "freq.scan_significant.flagged"),
    ]
    rows += [_self_s(f"search.symbolstream.{a}", "search.SymbolStream.from_bytes")
             for a in ("byte", "word")]
    for alphabet, engines in ENGINES.items():
        for engine in engines:
            span = f"search.{engine}.{alphabet}"
            target = "search.hybrid_search" if engine == "hybrid" else "search.search"
            rows += [
                _self_s(span, target),
                _mib_per_s(f"{span}.mb_per_s", span, "symbols", SYMBOL_BYTES[alphabet], target),
                (f"{span}.comparisons_per_symbol", "ratio", [target],
                 lambda t, c, e, span=span: _rate(c[f"{span}.comparisons"],
                                                  c[f"{span}.symbols"])),
            ]
        rows.append(_count(f"search.hybrid.{alphabet}.windows", "count",
                           ["search.hybrid_search"], f"search.hybrid.{alphabet}.windows"))
    rows += [_self_s(f"diff.{fn}", f"diff.{fn}")
             for fn in ("collision_trial_batch", "avalanche_profile", "rotation_sweep")]
    svg = ["report.write_bar_chart", "report.write_decay_chart"]
    rows += [
        _self_s("report.write_csv", "report.write_csv"),
        ("report.write_svg.self_s", "s", svg, lambda t, c, e: t["report.write_svg"]["self_s"]),
        _count("report.bytes_written", "B", ["report.write_csv", *svg],
               "report.write_csv.bytes", "report.write_svg.bytes"),
        ("cli.self_s", "s", [], lambda t, c, e: e["pass_s"] - e["attributed_s"]),
        ("trace.overhead_s", "s", [], lambda t, c, e: e["pass_s"] - e["untraced_pass_s"]),
        ("trace.attributed_frac", "ratio", [],
         lambda t, c, e: _rate(e["attributed_s"], e["pass_s"])),
    ]
    return rows


METRICS = _metric_table()
UNITS = {name: unit for name, unit, _, _ in METRICS}


def per_layer(tracer: Tracer, pass_id: int, pass_s: float, untraced_pass_s: float):
    """Per-layer metrics of one traced pass. Metrics whose wrapped name is
    missing are left out."""
    times = tracer.layer_times(pass_id)
    counts = tracer.counts[pass_id]
    extra = {
        "pass_s": pass_s,
        "untraced_pass_s": untraced_pass_s,
        "attributed_s": sum(row["top_s"] for row in times.values()),
    }
    missing = set(tracer.missing)
    return {
        name: float(value(times, counts, extra))
        for name, unit, needs, value in METRICS
        if not missing.intersection(needs)
    }


def share_table(tracer: Tracer, pass_id: int, pass_s: float) -> list[tuple[str, float, float]]:
    """(span name, self seconds, share of the pass) sorted by self time,
    ending with the unattributed remainder."""
    times = tracer.layer_times(pass_id)
    rows = sorted(((n, r["self_s"]) for n, r in times.items()), key=lambda x: -x[1])
    attributed = sum(r["top_s"] for r in times.values())
    rows.append(("(unattributed)", pass_s - attributed))
    return [(n, s, s / pass_s) for n, s in rows]
