"""Online test-then-train engine over an event stream.

Every arriving event is first a test (predict its activity from the case's
in-window history), then training material (the encoded sample joins the
sliding window). Every ``window_size``-th event triggers an update pass whose
extent depends on the strategy: the window itself, everything since the run
started, or everything since the last drift. Strategies with expert prompts
additionally run task recognition: a signaled drift starts buffering, the
buffered events are fingerprinted as a prefix tree, and the tree either
re-activates a stored task or founds a new one with freshly initialized
prompts.

The same engine instance serves the warm-up pass (records discarded) and the
measured pass, so vocabulary, model, prompts, and task store carry over.
"""
from __future__ import annotations

import logging
import math
import time
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .metrics import (
    PredictionRecord,
    average_accuracy,
    forgetting_matrix,
    latency_summary,
    rolling_accuracy_curve,
    write_accuracy_curve_csv,
    write_forgetting_csv,
    write_json,
    write_records_csv,
    write_timings_csv,
)
from .model import (
    PREFIX_MODE,
    AttentionPredictor,
    ModelConfig,
    PromptSet,
    grow_vocabulary,
    init_prompts,
    train_window,
)
from .preprocessing import ActivityVocabulary, BucketConfig, EncodedSample, build_prefix, encode, fit_buckets
from .preprocessing import prefix_length
from .stream import Event, EventStream, split_validation
from .task_recognition import PrefixTree, TaskRecord, build_from_buffer, match_task
from .window import SlidingWindow, partition_batches

log = logging.getLogger(__name__)

WINDOW_MEMORY = "window"
ALL_MEMORY = "all"
SINCE_DRIFT_MEMORY = "since_drift"


@dataclass(frozen=True)
class StrategySpec:
    """What a run adapts and what it trains on.

    ``reinit_on_update`` rebuilds the backbone from its seed before every
    update pass; ``freeze_after`` freezes every layer except the classifier
    head once that many events (warm-up included) have been processed: the
    engine sets the model's ``backbone_frozen`` after that event's update.
    """

    name: str
    use_general: bool = True
    use_expert: bool = True
    reinit_on_update: bool = False
    training_memory: str = WINDOW_MEMORY
    freeze_after: int | None = None  # backbone freezes there; the classifier head keeps training

    def __post_init__(self):
        if self.training_memory not in (WINDOW_MEMORY, ALL_MEMORY, SINCE_DRIFT_MEMORY):
            raise ConfigurationError(f"unknown training memory {self.training_memory!r}")
        if self.freeze_after is not None and self.freeze_after < 0:
            raise ConfigurationError("freeze_after must be >= 0")

    @property
    def needs_drift_info(self) -> bool:
        return self.use_expert or self.training_memory == SINCE_DRIFT_MEMORY


@dataclass(frozen=True)
class EngineConfig:
    """Everything a run depends on besides the stream and the strategy."""

    window_size: int = 250
    buffer_size: int = 100
    threshold: float = 0.5
    buckets: int = 4
    max_len: int = 8
    lr: float = 0.01
    batch_size: int = 25
    epochs: int = 10
    prompt_len: int = 5
    heads: int = 4
    layers: int = 2
    dropout: float = 0.1
    general_layers: tuple[int, ...] = (0,)
    expert_layers: tuple[int, ...] = (1,)
    prompt_mode: str = PREFIX_MODE
    seed: int = 1
    validation_fraction: float = 0.15
    fingerprint_cap: int = 500
    curve_window: int | None = None

    def __post_init__(self):
        if self.window_size < 1:
            raise ConfigurationError("window_size must be >= 1")
        if self.buffer_size < 1:
            raise ConfigurationError("buffer_size must be >= 1")
        if not 0.0 < self.threshold <= 1.0:
            raise ConfigurationError("threshold must be in (0, 1]")
        if self.buckets < 2:
            raise ConfigurationError("buckets must be >= 2")
        if self.batch_size < 1 or self.epochs < 0:
            raise ConfigurationError("batch_size must be >= 1 and epochs >= 0")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigurationError(f"lr must be a finite positive number, got {self.lr}")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ConfigurationError("validation_fraction must be in (0, 1)")
        if self.fingerprint_cap < 1:
            raise ConfigurationError("fingerprint_cap must be >= 1")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        if self.curve_window is not None and self.curve_window < 0:
            raise ConfigurationError(f"curve_window must be >= 0 or none, got {self.curve_window}")
        self.model_config(StrategySpec("any"))  # a bad backbone or prompt layout fails here, before any output

    def model_config(self, strategy: StrategySpec) -> ModelConfig:
        return ModelConfig(
            max_len=self.max_len,
            heads=self.heads,
            layers=self.layers,
            dropout=self.dropout,
            prompt_len=self.prompt_len,
            general_layers=self.general_layers if strategy.use_general else (),
            expert_layers=self.expert_layers if strategy.use_expert else (),
            prompt_mode=self.prompt_mode,
        )


class OnlineEngine:
    """Stateful online loop: prepare once, then consume streams in order."""

    def __init__(self, config: EngineConfig, strategy: StrategySpec):
        self.config = config
        self.strategy = strategy
        self.vocab = ActivityVocabulary()
        self.bucket_config: BucketConfig | None = None
        self.model: AttentionPredictor | None = None
        self.general: PromptSet | None = None  # without general layers, a set with no blocks
        self.tasks: dict[int, TaskRecord] = {}
        self.active_task_id = 0
        self.buffer: list[Event] | None = None  # the events since a drift signal, until resolved
        self.window = SlidingWindow(config.window_size)
        self.events_seen = 0
        self.segment_ordinal = 1
        self._memory: list[EncodedSample] = []  # the training memory, unless it is the window
        self._dropout_rng = np.random.default_rng([config.seed, 7])

    # -- setup ---------------------------------------------------------------

    def prepare(self, stream: EventStream) -> None:
        """Fit vocabulary and length buckets from a preliminary stream, then
        build the backbone, the shared prompt (with no blocks when the strategy
        has none) and, with expert prompts, the first task."""
        histogram: Counter[int] = Counter()
        probe = SlidingWindow(self.config.window_size)
        for event in stream.events:
            histogram[prefix_length(build_prefix(event.case_id, probe, self.config.max_len))] += 1
            probe.push(event.case_id, self.vocab.intern(event.activity))
        if histogram:
            self.bucket_config = fit_buckets(histogram, self.config.buckets, self.config.max_len)
        else:
            log.warning("empty preparation stream, using a single length bucket")
            self.bucket_config = BucketConfig((self.config.max_len,))
        self._build_model()
        self.general = init_prompts(self.model, self.model.cfg.general_layers, (), [self.config.seed, 101], "general")
        if self.strategy.use_expert:
            self._create_task(PrefixTree())
        log.info(
            "prepared: vocab=%d buckets=%s d_model=%d",
            len(self.vocab),
            self.bucket_config.boundaries,
            self.model.d_model,
        )

    # -- the online loop -------------------------------------------------------

    def consume(self, stream: EventStream, record: bool = True) -> list[PredictionRecord]:
        if self.model is None:
            raise ConfigurationError("prepare() must run before consume()")
        drift_set = set(stream.drift_indices)
        records: list[PredictionRecord] = []
        for i, event in enumerate(stream.events):
            rec = self.process_event(event, i, is_drift=i in drift_set)
            if record:
                records.append(rec)
        return records

    def process_event(self, event: Event, index: int, is_drift: bool = False) -> PredictionRecord:
        t0 = time.perf_counter_ns()
        cfg, strat = self.config, self.strategy

        if is_drift:
            self.segment_ordinal += 1
            if strat.use_expert and self.buffer is None:
                self.buffer = []
            if strat.training_memory == SINCE_DRIFT_MEMORY:
                self._memory.clear()

        buffering = self.buffer is not None
        if buffering:
            self.buffer.append(event)

        # Test: the case's in-window history is the prefix, this activity the target.
        prefix = build_prefix(event.case_id, self.window, cfg.max_len)
        sample = encode(prefix, event.activity, self.vocab, self.bucket_config)
        if self.vocab.width > self.model.input_width:
            self._grow()
        task_at_prediction = self.active_task_id if strat.use_expert else self.segment_ordinal
        _, y_hat_ord = self.model.predict(sample, self._prompts())
        correct = y_hat_ord == sample.target

        # Fingerprinting: buffered events feed only the buffer; everything else
        # extends the active task's tree while it is under the cap.
        if buffering and len(self.buffer) == cfg.buffer_size:
            self._resolve_buffer()
        elif strat.use_expert and not buffering:
            tree = self.tasks[self.active_task_id].tree
            if tree.event_count < cfg.fingerprint_cap:
                tree.extend_case(event.case_id, event.activity)

        # Train: the sample joins the window (and any longer memory) before the
        # update check, so the event that completes a window trains too.
        self.window.push(event.case_id, sample.target, sample)
        if strat.training_memory != WINDOW_MEMORY:
            self._memory.append(sample)
        self.events_seen += 1
        if self.events_seen % cfg.window_size == 0:
            self._train()
        # Freeze after the update so the threshold event still trains in full.
        if strat.freeze_after is not None and not self.model.backbone_frozen and self.events_seen >= strat.freeze_after:
            self.model.backbone_frozen = True
            log.info("backbone frozen at event %d", self.events_seen)

        return PredictionRecord(
            index=index,
            case_id=event.case_id,
            y=event.activity,
            y_hat=self.vocab.label_of(y_hat_ord),
            correct=correct,
            task_id=task_at_prediction,
            buffering=buffering,
            latency_ns=time.perf_counter_ns() - t0,
        )

    # -- internals ---------------------------------------------------------------

    def _build_model(self) -> None:
        """A fresh backbone from the seed, sized for the current vocabulary."""
        model_cfg = self.config.model_config(self.strategy)
        self.model = AttentionPredictor(model_cfg, self.vocab.width, max(1, len(self.vocab)), self.config.seed)

    def _prompts(self) -> tuple[PromptSet, ...]:
        """The active prompt sets in attachment order: the shared set, then the active task's."""
        if self.strategy.use_expert:
            return self.general, self.tasks[self.active_task_id].prompts
        return (self.general,)

    def _grow(self) -> None:
        prompts = [self.general, *(t.prompts for t in self.tasks.values())]
        grow_vocabulary(self.model, self.vocab.width, len(self.vocab), prompts)

    def _create_task(self, tree: PrefixTree) -> int:
        task_id = max(self.tasks, default=0) + 1
        prompts = init_prompts(
            self.model,
            self.model.cfg.expert_layers,
            self.bucket_config.bucket_ids,
            [self.config.seed, 211, task_id],
            f"task{task_id}",
        )
        self.tasks[task_id] = TaskRecord(task_id, tree, prompts)
        self.active_task_id = task_id
        log.info("created task %d (event %d)", task_id, self.events_seen)
        return task_id

    def _resolve_buffer(self) -> None:
        new_tree = build_from_buffer(self.buffer)
        matched = match_task(new_tree, list(self.tasks.values()), self.config.threshold)
        if matched is None:
            self._create_task(new_tree)
        else:
            task = self.tasks[matched]
            if matched != self.active_task_id:
                task.occurrences += 1
            self.active_task_id = matched
            log.info("matched task %d, occurrence %d (event %d)", matched, task.occurrences, self.events_seen)
        self.buffer = None

    def _train(self) -> None:
        strat = self.strategy
        samples = self.window.samples() if strat.training_memory == WINDOW_MEMORY else self._memory
        if strat.reinit_on_update:
            self._build_model()
        batches = partition_batches(samples, self.config.batch_size)
        train_window(self.model, batches, self.config.epochs, self.config.lr, self._prompts(), self._dropout_rng)

    # -- introspection --------------------------------------------------------

    def task_store_snapshot(self) -> dict:
        return {
            "active_task": self.active_task_id,
            "tasks": [
                {
                    "id": t.task_id,
                    "occurrences": t.occurrences,
                    "tree_events": t.tree.event_count,
                    "tree_nodes": t.tree.node_count(),
                    "tree": t.tree.to_dict(),
                }
                for t in self.tasks.values()
            ],
        }


# -- reports ---------------------------------------------------------------------


@dataclass
class RunReport:
    """Everything a finished run produces, with writers for the standard files."""

    strategy: str
    records: list[PredictionRecord]
    drift_indices: tuple[int, ...]
    task_labels: tuple[str, ...] | None
    curve_window: int
    task_store: dict
    config: EngineConfig
    total_runtime_s: float

    @property
    def segmentation_source(self) -> str:
        return "ground_truth" if self.task_labels is not None else "records"

    def forgetting(self):
        return forgetting_matrix(self.records, self.drift_indices, self.task_labels)

    def summary(self) -> dict:
        matrix = self.forgetting()
        return {
            "strategy": self.strategy,
            "events": len(self.records),
            "average_accuracy": average_accuracy(self.records),
            "accuracy_excluding_buffering": average_accuracy(self.records, include_buffering=False),
            "mean_positive_delta": matrix.mean_positive_delta,
            "segmentation": self.segmentation_source,
            "drift_indices": list(self.drift_indices),
            "task_labels": list(self.task_labels) if self.task_labels is not None else None,
            "time_per_event_ms": latency_summary(r.latency_ns for r in self.records),
            "tasks": len(self.task_store.get("tasks", [])),
            "total_runtime_s": self.total_runtime_s,
            "config": asdict(self.config),
        }

    def save(self, outdir: str | Path) -> None:
        outdir = Path(outdir)
        outdir.mkdir(parents=True, exist_ok=True)
        write_records_csv(self.records, outdir / "records.csv")
        write_timings_csv(self.records, outdir / "timings.csv")
        write_forgetting_csv(self.forgetting(), outdir / "forgetting.csv")
        curve = rolling_accuracy_curve(self.records, self.curve_window)
        write_accuracy_curve_csv(curve, outdir / "accuracy_curve.csv")
        write_json(self.summary(), outdir / "summary.json")
        write_json(self.task_store, outdir / "task_store.json")


def run_session(
    stream: EventStream, config: EngineConfig, strategy: StrategySpec, validation_only: bool = False
) -> RunReport:
    """Warm up on the leading validation split, then measure on the remainder.

    With ``validation_only`` the run prepares on and records the validation
    split itself, with no warm-up pass; tuning sweeps use it so the measured
    remainder never leaks into configuration choices.
    """
    t0 = time.perf_counter()
    warm, measured = split_validation(stream, config.validation_fraction)
    engine = OnlineEngine(config, strategy)
    engine.prepare(warm)
    if validation_only:
        measured = warm
    else:
        engine.consume(warm, record=False)
    records = engine.consume(measured, record=True)
    return RunReport(
        strategy=strategy.name,
        records=records,
        drift_indices=measured.drift_indices,
        task_labels=measured.task_labels,
        curve_window=config.window_size if config.curve_window is None else config.curve_window,
        task_store=engine.task_store_snapshot(),
        config=config,
        total_runtime_s=time.perf_counter() - t0,
    )
