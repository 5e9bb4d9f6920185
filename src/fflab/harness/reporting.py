"""Report records and their serialized forms.

The JSON file is the deterministic artifact: two runs with the same
scenario ids, parameters and master seed must produce byte-identical
bytes, so nothing wall-clock dependent is allowed into it.  Timing goes
into the CSV summary instead, which is the human hand-off and makes no
byte-level promises.

Witness payloads are built to be diffable across implementations:

- complex arrays are base64 of little-endian float64 pairs, real and
  imaginary interleaved in C order, with the shape stored alongside
  (decode_witness_array reads them back);
- everything else is a flat name -> scalar mapping.
"""

from __future__ import annotations

import base64
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


def witness_array(arr: np.ndarray, label: str = "data") -> dict:
    """Dense complex array witness, base64 of interleaved LE float64."""
    a = np.ascontiguousarray(np.asarray(arr, dtype=complex))
    inter = np.empty(a.size * 2, dtype="<f8")
    inter[0::2] = a.real.ravel()
    inter[1::2] = a.imag.ravel()
    return {
        "kind": "complex_array",
        "label": label,
        "shape": list(a.shape),
        "data": base64.b64encode(inter.tobytes()).decode("ascii"),
    }


def decode_witness_array(w: dict) -> np.ndarray:
    if w.get("kind") != "complex_array":
        raise ValueError("not a complex_array witness")
    inter = np.frombuffer(base64.b64decode(w["data"]), dtype="<f8")
    out = inter[0::2] + 1j * inter[1::2]
    return out.reshape(w["shape"])


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
