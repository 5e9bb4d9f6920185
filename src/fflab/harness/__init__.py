"""Scenario harness: registry, runners, baselines, reports.

The public surface is re-exported here so callers can write
``from fflab.harness import run_scenario`` without caring which file a
piece lives in.
"""

from .reporting import (
    ScenarioReport,
    witness_values,
    reports_to_json,
    reports_to_csv,
)
from .baselines import BaselineStore, BaselineMismatch, BaselineMissing, SLACK
from .scenarios import (
    Scenario,
    REGISTRY,
    run_scenario,
    sweep,
    regenerate_baselines,
    trial_seed,
)
# importing the runners registers every scenario
from .runners import exponent_table

__all__ = [
    "ScenarioReport",
    "witness_values",
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
