"""Scenario harness: registry, baselines, reports.

The public surface is re-exported here so callers can write
``from fflab.harness import run_scenario`` without caring which file a
piece lives in.
"""

from .reporting import (
    ScenarioReport,
    witness_values,
    witness_array,
    decode_witness_array,
    reports_to_json,
    reports_to_csv,
)
from .baselines import BaselineStore, BaselineMismatch, BaselineMissing, SLACK
from .scenarios import (
    Scenario,
    REGISTRY,
    run_scenario,
    sweep,
    exponent_table,
    regenerate_baselines,
    trial_seed,
)

__all__ = [
    "ScenarioReport",
    "witness_values",
    "witness_array",
    "decode_witness_array",
    "reports_to_json",
    "reports_to_csv",
    "BaselineStore",
    "BaselineMismatch",
    "BaselineMissing",
    "SLACK",
    "Scenario",
    "REGISTRY",
    "run_scenario",
    "sweep",
    "exponent_table",
    "regenerate_baselines",
    "trial_seed",
]
