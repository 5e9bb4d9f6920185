"""Report records and their serialized forms.

The JSON file is the deterministic artifact: two runs with the same
scenario ids, parameters and master seed must produce byte-identical
bytes, so nothing wall-clock dependent is allowed into it.  Timing goes
into the CSV summary instead, which is the human hand-off and makes no
byte-level promises.

A witness is a flat name -> value mapping of named scalars: numbers,
strings, a complex number as its [real, imaginary] pair, and a short
list of ints where the case is a point, a form or a triple.  It is
diffable across implementations.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

SCHEMA = "fflab-report/1"

CSV_COLUMNS = ["scenario", "prime", "dim", "trials", "seed", "status",
               "metric", "runtime_ms"]


def _json_float(x: float):
    """x itself, or its repr ('nan', 'inf', '-inf'), which JSON can hold."""
    return x if math.isfinite(x) else repr(x)


def witness_values(**kw) -> dict:
    """Scalar witness: plain JSON-safe values keyed by name."""
    vals = {}
    for k, v in kw.items():
        if isinstance(v, (np.integer,)):
            v = int(v)
        elif isinstance(v, (float, np.floating)):
            v = _json_float(float(v))
        elif isinstance(v, complex):
            v = [_json_float(v.real), _json_float(v.imag)]
        vals[k] = v
    return {"kind": "values", "values": vals}


@dataclass(frozen=True)
class ScenarioReport:
    """One scenario execution.

    metric_name is "max_deviation" for exact-identity and exponent
    arithmetic scenarios and "measured_constant" for constant-tracked
    ones.  A fail must carry a witness; runtime_ms is carried for the
    CSV only and never serialized into JSON.  A non-finite metric, which
    always fails, is written to JSON as null; its witness keeps the value.
    """

    scenario: str
    kind: str
    prime: int
    dim: int
    trials: int
    seed: int
    status: str
    metric_name: str
    metric: float
    tolerance: Optional[float] = None
    baseline_constant: Optional[float] = None
    baseline_slack: Optional[float] = None
    witness: Optional[dict] = None
    runtime_ms: float = 0.0

    def __post_init__(self):
        if self.status not in ("pass", "fail", "report_only"):
            raise ValueError(f"unknown status {self.status!r}")
        if self.metric_name not in ("max_deviation", "measured_constant"):
            raise ValueError(f"unknown metric name {self.metric_name!r}")
        if self.status == "fail" and self.witness is None:
            raise ValueError("a failing report must carry a witness")

    def to_json_dict(self) -> dict:
        out = {
            "scenario": self.scenario,
            "kind": self.kind,
            "prime": self.prime,
            "dim": self.dim,
            "trials": self.trials,
            "seed": self.seed,
            "status": self.status,
            "metric_name": self.metric_name,
            "metric": self.metric if math.isfinite(self.metric) else None,
            "tolerance": self.tolerance,
            "baseline_constant": self.baseline_constant,
            "baseline_slack": self.baseline_slack,
            "witness": self.witness,
        }
        return out

    def to_csv_row(self) -> list:
        return [self.scenario, self.prime, self.dim, self.trials, self.seed,
                self.status, repr(self.metric), f"{self.runtime_ms:.1f}"]


def reports_to_json(reports) -> str:
    doc = {"schema": SCHEMA,
           "reports": [r.to_json_dict() for r in reports]}
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def reports_to_csv(reports) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for r in reports:
        w.writerow(r.to_csv_row())
    return buf.getvalue()
