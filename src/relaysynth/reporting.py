"""Run reports (JSON + CSV) and static SVG rendering of placements."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List

from .instances import Instance, InstanceError, SolutionGraph, serialize_instance

REPORT_VERSION = 1

CSV_COLUMNS = [
    "report_version",
    "index",
    "instance_hash",
    "generator",
    "n_terminals",
    "algorithm",
    "k",
    "backend",
    "n_steiner",
    "cost",
    "tau_star",
    "tau_integral",
    "opt",
    "ratio_vs_taustar",
    "tau_over_opt",
    "taustar_over_opt",
    "feasible",
    "certified",
    "wall_time_s",
]

TIMING_FIELDS = ("wall_time_s",)


def instance_hash(instance: Instance) -> str:
    digest = hashlib.sha256(serialize_instance(instance).encode()).hexdigest()
    return digest[:12]


@dataclass
class RunReport:
    config: Dict[str, object]
    rows: List[Dict[str, object]] = field(default_factory=list)

    def add_row(self, **fields) -> None:
        row = {col: fields.get(col) for col in CSV_COLUMNS}
        row["report_version"] = REPORT_VERSION
        self.rows.append(row)

    def to_json(self, include_timing: bool = True) -> str:
        rows = self.rows
        if not include_timing:
            rows = [
                {k: v for k, v in row.items() if k not in TIMING_FIELDS}
                for row in rows
            ]
        payload = {
            "report_version": REPORT_VERSION,
            "config": self.config,
            "rows": rows,
        }
        return json.dumps(payload, sort_keys=True, indent=1)

    def to_csv(self) -> str:
        lines = [",".join(CSV_COLUMNS)]
        for row in self.rows:
            lines.append(
                ",".join("" if row.get(c) is None else str(row.get(c)) for c in CSV_COLUMNS)
            )
        return "\n".join(lines) + "\n"


def render_svg(solution: SolutionGraph) -> str:
    """Static picture: edges, terminals (unstable highlighted), relay points."""
    scale = 80.0  # pixels per unit length
    metric = solution.instance.metric
    if solution.abstract or metric.kind != "euclidean" or metric.dim != 2:
        raise InstanceError("SVG rendering needs planar coordinates")
    coords = [solution.point_of(v).coords for v in range(solution.n_nodes)]
    xs = [c[0] for c in coords]
    ys = [c[1] for c in coords]
    pad = 0.6
    minx, maxx = min(xs) - pad, max(xs) + pad
    miny, maxy = min(ys) - pad, max(ys) + pad

    def tx(x):
        return (x - minx) * scale

    def ty(y):
        return (maxy - y) * scale

    width = (maxx - minx) * scale
    height = (maxy - miny) * scale
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%.0f" height="%.0f" '
        'viewBox="0 0 %.0f %.0f">' % (width, height, width, height)
    ]
    for (a, b) in sorted(solution.edges):
        xa, ya = coords[a]
        xb, yb = coords[b]
        parts.append(
            '<line x1="%.2f" y1="%.2f" x2="%.2f" y2="%.2f" '
            'stroke="#888" stroke-width="1.5"/>'
            % (tx(xa), ty(ya), tx(xb), ty(yb))
        )
    unstable = solution.instance.unstable
    for v in range(solution.n_terminals):
        x, y = coords[v]
        fill = "#c0392b" if v in unstable else "#2c6fbb"
        parts.append(
            '<circle cx="%.2f" cy="%.2f" r="6" fill="%s"/>' % (tx(x), ty(y), fill)
        )
    for v in solution.steiner_ids():
        x, y = coords[v]
        parts.append(
            '<rect x="%.2f" y="%.2f" width="9" height="9" fill="#e67e22"/>'
            % (tx(x) - 4.5, ty(y) - 4.5)
        )
    parts.append("</svg>")
    return "\n".join(parts)
