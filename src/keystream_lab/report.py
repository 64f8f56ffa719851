"""CSV and SVG emission for analysis results.

Every CSV starts with a comment line naming the config hash so outputs can
be traced back to the exact run configuration.  Plots are static SVG built
directly (bar charts for top-K pattern frequencies, a log-scale decay line
for collision probabilities).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math


def config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def write_csv(path, rows: list[dict], config, fieldnames=None) -> None:
    """The rows under a header of ``fieldnames``, by default the first
    row's keys (none if there are no rows)."""
    if fieldnames is None:
        fieldnames = list(rows[0].keys()) if rows else []
    with open(path, "w", newline="") as fh:
        fh.write(f"# config_hash={config_hash(config)}\n")
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)


def write_match_csv(path, reports, config) -> None:
    """One row per match of each report; the header even if none matched."""
    fields = ["pattern_id", "position", "engine", "comparisons"]
    rows = [dict(zip(fields, (rep.pattern_id, pos, rep.engine, rep.comparisons)))
            for rep in reports for pos in rep.positions]
    write_csv(path, rows, config, fields)


WIDTH, HEIGHT = 640, 360   # chart size in pixels
FLOOR = 2.0 ** -34          # where the decay chart draws a zero estimate


def _frame(title: str, margin, base) -> list[str]:
    """The opening of a chart: SVG header, title and x axis."""
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}">\n',
        f'<text x="{WIDTH/2}" y="20" text-anchor="middle" font-size="14">{title}</text>\n',
        f'<line x1="{margin}" y1="{base}" x2="{WIDTH-margin}" y2="{base}" '
        'stroke="black"/>\n',
    ]


def write_bar_chart(path, labels, values, title: str) -> None:
    """Minimal static SVG bar chart (one bar per label)."""
    margin, base = 50, HEIGHT - 60
    vmax = max(values) if values else 1
    vmax = vmax or 1
    n = max(len(values), 1)
    slot = (WIDTH - 2 * margin) / n
    parts = _frame(title, margin, base)
    for i, (label, value) in enumerate(zip(labels, values)):
        bar_h = (value / vmax) * (base - 50)
        x = margin + i * slot + slot * 0.1
        parts.append(
            f'<rect x="{x:.1f}" y="{base - bar_h:.1f}" width="{slot * 0.8:.1f}" '
            f'height="{bar_h:.1f}" fill="#4878a8"/>\n'
        )
        parts.append(
            f'<text x="{x + slot * 0.4:.1f}" y="{base + 14}" text-anchor="middle" '
            f'font-size="9">{label}</text>\n'
        )
        parts.append(
            f'<text x="{x + slot * 0.4:.1f}" y="{base - bar_h - 4:.1f}" '
            f'text-anchor="middle" font-size="9">{value}</text>\n'
        )
    parts.append("</svg>\n")
    with open(path, "w") as fh:
        fh.writelines(parts)


def write_decay_chart(path, rounds, probabilities, title: str) -> None:
    """Log-scale line chart of collision probability versus round count.

    Zero estimates are drawn at ``FLOOR`` and marked as upper bounds.
    """
    margin, base, top = 60, HEIGHT - 50, 40
    logs = [math.log2(p) if p > 0 else math.log2(FLOOR) for p in probabilities]
    lo, hi = min(logs + [math.log2(FLOOR)]), max(logs + [0.0])
    span = (hi - lo) or 1.0

    def xy(i, lg):
        x = margin + i * (WIDTH - 2 * margin) / max(len(rounds) - 1, 1)
        y = base - (lg - lo) / span * (base - top)
        return x, y

    parts = _frame(title, margin, base)
    pts = [xy(i, lg) for i, lg in enumerate(logs)]
    poly = " ".join(f"{x:.1f},{y:.1f}" for x, y in pts)
    parts.append(f'<polyline points="{poly}" fill="none" stroke="#a84848" '
                 'stroke-width="2"/>\n')
    for (x, y), r, p in zip(pts, rounds, probabilities):
        label = f"2^{math.log2(p):.1f}" if p > 0 else "0"
        parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3" fill="#a84848"/>\n')
        parts.append(f'<text x="{x:.1f}" y="{y - 8:.1f}" text-anchor="middle" '
                     f'font-size="9">{label}</text>\n')
        parts.append(f'<text x="{x:.1f}" y="{base + 14}" text-anchor="middle" '
                     f'font-size="10">r={r}</text>\n')
    parts.append("</svg>\n")
    with open(path, "w") as fh:
        fh.writelines(parts)
