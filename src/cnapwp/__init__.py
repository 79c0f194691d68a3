"""Continual next-activity prediction for drifting business-process event streams.

An online test-then-train predictor built on a small multi-head attention
backbone whose continual behaviour lives in learned prompts: one shared prompt
plus per-task and per-bucket expert prompts, with tasks recognized on the fly
from drift signals via prefix-tree fingerprints.
"""

__version__ = "0.1.0"

from .baselines import (
    ABLATION_CONDITIONS,
    CNAPWP,
    E_ONLY,
    G_ONLY,
    LANDMARK,
    LAST_DRIFT,
    NO_PROMPT,
    STRATEGIES,
)
from .engine import EngineConfig, OnlineEngine, RunReport, StrategySpec, run_session
from .errors import ConfigurationError, NumericError, StreamParseError
from .stream import DriftSchedule, Event, EventStream, generate_drift_stream, parse_event_log, split_validation
from .synthetic import builtin_processes, sample_pool

__all__ = [
    "__version__",
    "ABLATION_CONDITIONS",
    "CNAPWP",
    "ConfigurationError",
    "DriftSchedule",
    "E_ONLY",
    "EngineConfig",
    "Event",
    "EventStream",
    "G_ONLY",
    "LANDMARK",
    "LAST_DRIFT",
    "NO_PROMPT",
    "NumericError",
    "OnlineEngine",
    "RunReport",
    "STRATEGIES",
    "StrategySpec",
    "StreamParseError",
    "builtin_processes",
    "generate_drift_stream",
    "parse_event_log",
    "run_session",
    "sample_pool",
    "split_validation",
]
