"""Small synthetic processes used to build concept pools for drift experiments.

The three built-in concepts share one alphabet but disagree on the control
flow, so a predictor must carry concept identity to do well on all of them;
the prefix alone does not always reveal which concept is live.
"""
from __future__ import annotations

import os
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .stream import Event, EventStream, write_event_log


@dataclass(frozen=True)
class ProcessSpec:
    """A toy process: weighted trace variants."""

    name: str
    variants: tuple[tuple[float, tuple[str, ...]], ...]

    def __post_init__(self):
        total = sum(w for w, _ in self.variants)
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(f"variant weights of {self.name!r} sum to {total}, expected 1")
        if any(not trace for _, trace in self.variants):
            raise ConfigurationError(f"process {self.name!r} has an empty variant")


def sample_pool(spec: ProcessSpec, n_traces: int, seed: int) -> list[tuple[str, ...]]:
    """Draw a fixed pool of traces for one concept, each a weighted draw of one variant."""
    if n_traces < 1:
        raise ConfigurationError("n_traces must be >= 1")
    rng = np.random.default_rng([seed, zlib.crc32(spec.name.encode("utf-8"))])
    weights = np.array([w for w, _ in spec.variants])
    return [spec.variants[int(rng.choice(len(spec.variants), p=weights))][1] for _ in range(n_traces)]


def builtin_processes() -> dict[str, ProcessSpec]:
    """Three structurally distinct concepts over one shared alphabet.

    All three route the same twelve claim-handling activities but through
    conflicting control flow: the step after Register, Assess, Approve,
    Review, Validate, Escalate, and Notify all depend on which concept is
    live. Each concept also branches over eight weighted variants, so a
    single small predictor stays capacity-bound on the union of the three.
    """
    # triage-first linear flow, audits only after approval
    pipeline = ProcessSpec(
        "pipeline",
        (
            (0.22, ("Register", "Triage", "Validate", "Assess", "Approve",
                    "Audit", "Notify", "Close", "Archive")),
            (0.16, ("Register", "Triage", "Validate", "Assess", "Reject",
                    "Notify", "Close", "Archive")),
            (0.14, ("Register", "Triage", "Assess", "Validate", "Approve",
                    "Audit", "Notify", "Close", "Archive")),
            (0.12, ("Register", "Triage", "Escalate", "Review", "Assess",
                    "Approve", "Audit", "Notify", "Close", "Archive")),
            (0.10, ("Register", "Triage", "Validate", "Assess", "Approve",
                    "Notify", "Close", "Archive")),
            (0.10, ("Register", "Triage", "Assess", "Reject", "Notify",
                    "Close", "Archive")),
            (0.08, ("Register", "Triage", "Escalate", "Review", "Assess",
                    "Reject", "Notify", "Close", "Archive")),
            (0.08, ("Register", "Triage", "Validate", "Assess", "Approve",
                    "Audit", "Close", "Archive")),
        ),
    )
    # fast track: assess first, validation deferred until after approval
    expedite = ProcessSpec(
        "expedite",
        (
            (0.22, ("Register", "Assess", "Approve", "Validate", "Notify", "Archive")),
            (0.16, ("Register", "Assess", "Reject", "Notify", "Archive")),
            (0.14, ("Register", "Escalate", "Assess", "Approve", "Validate",
                    "Notify", "Archive")),
            (0.12, ("Register", "Assess", "Review", "Approve", "Validate",
                    "Notify", "Archive")),
            (0.10, ("Register", "Assess", "Approve", "Validate", "Archive")),
            (0.10, ("Register", "Escalate", "Assess", "Reject", "Notify", "Archive")),
            (0.08, ("Register", "Assess", "Approve", "Notify", "Archive")),
            (0.08, ("Register", "Assess", "Review", "Reject", "Notify", "Archive")),
        ),
    )
    # committee review: validate first, review cycles, audit before close
    review_loop = ProcessSpec(
        "review_loop",
        (
            (0.22, ("Register", "Validate", "Review", "Assess", "Review",
                    "Approve", "Audit", "Close", "Archive")),
            (0.16, ("Register", "Validate", "Review", "Assess", "Review",
                    "Assess", "Review", "Approve", "Audit", "Close", "Archive")),
            (0.14, ("Register", "Validate", "Escalate", "Review", "Assess",
                    "Approve", "Audit", "Close", "Archive")),
            (0.12, ("Register", "Validate", "Review", "Reject", "Notify",
                    "Close", "Archive")),
            (0.10, ("Register", "Validate", "Review", "Assess", "Approve",
                    "Audit", "Close", "Archive")),
            (0.10, ("Register", "Validate", "Assess", "Review", "Approve",
                    "Audit", "Close", "Archive")),
            (0.08, ("Register", "Validate", "Review", "Assess", "Review",
                    "Reject", "Notify", "Close", "Archive")),
            (0.08, ("Register", "Validate", "Escalate", "Review", "Assess",
                    "Reject", "Notify", "Close", "Archive")),
        ),
    )
    return {"pipeline": pipeline, "expedite": expedite, "review_loop": review_loop}


def write_pool_csv(path: str | os.PathLike, traces: list[tuple[str, ...]]) -> None:
    """Write the traces as an event log, trace i as case ``p<i>``."""
    events = tuple(Event(f"p{i}", act) for i, trace in enumerate(traces) for act in trace)
    write_event_log(EventStream(events), path)
