"""Named run conditions, the process-pool width and the job runner.

The full predictor, its prompt ablations, and two reference baselines:

* landmark retrains a fresh backbone on every sample seen so far at each
  update, an upper-effort reference with unbounded memory;
* last_drift keeps one backbone but trains only on samples since the most
  recent drift, the classic adapt-and-forget reference.
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence

from .engine import ALL_MEMORY, SINCE_DRIFT_MEMORY, StrategySpec
from .errors import ConfigurationError

CNAPWP = StrategySpec("cnapwp", use_general=True, use_expert=True)
G_ONLY = StrategySpec("g_only", use_general=True, use_expert=False)
E_ONLY = StrategySpec("e_only", use_general=False, use_expert=True)
NO_PROMPT = StrategySpec(
    "no_prompt", use_general=False, use_expert=False, freeze_after=500
)
LANDMARK = StrategySpec(
    "landmark", use_general=False, use_expert=False, reinit_on_update=True, training_memory=ALL_MEMORY
)
LAST_DRIFT = StrategySpec(
    "last_drift", use_general=False, use_expert=False, training_memory=SINCE_DRIFT_MEMORY
)

STRATEGIES: dict[str, StrategySpec] = {
    s.name: s for s in (CNAPWP, G_ONLY, E_ONLY, NO_PROMPT, LANDMARK, LAST_DRIFT)
}

# Ablation grid: "full" is the complete predictor, the others switch prompt kinds off.
ABLATION_CONDITIONS: dict[str, StrategySpec] = {
    "no_prompt": NO_PROMPT,
    "g_only": G_ONLY,
    "e_only": E_ONLY,
    "full": CNAPWP,
}


def worker_cap(requested: int | None = None) -> int:
    """Process-pool width: CPUs, capped by CNAPWP_THREADS and the caller."""
    cap = os.cpu_count() or 1
    env = os.environ.get("CNAPWP_THREADS", "").strip()
    if env:
        try:
            cap = min(cap, max(1, int(env)))
        except ValueError:
            raise ConfigurationError(f"CNAPWP_THREADS={env!r} is not an integer") from None
    if requested is not None:
        cap = min(cap, max(1, requested))
    return max(1, cap)


def map_jobs(fn: Callable, jobs: Sequence[tuple], workers: int) -> list:
    """``fn(*job)`` for every job, results in job order.

    Runs in this process when ``min(workers, len(jobs)) <= 1``, otherwise in
    a process pool of that width.
    """
    width = min(workers, len(jobs))
    if width <= 1:
        return [fn(*job) for job in jobs]
    with ProcessPoolExecutor(max_workers=width) as pool:
        return list(pool.map(fn, *zip(*jobs)))

