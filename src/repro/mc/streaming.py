"""Streaming Monte Carlo: online statistics, adaptive stopping, resume.

The batch engine (:func:`repro.mc.engine.monte_carlo`) materialises the
whole sample population -- ``np.concatenate`` over every chunk -- before
any statistic is computed.  That is fine at the paper's 200-500 samples
and a hard ceiling at the million-sample scale the ROADMAP targets.
This module replaces concatenation with **mergeable online
accumulators**: every chunk is reduced into constant-size state the
moment it finishes, so peak memory is bounded by the chunk size
(``MCConfig.chunk_lanes``) regardless of how many samples a run draws.

Three capabilities fall out of the accumulator design:

* **Shard merging** -- accumulators combine exactly (Chan's parallel
  Welford update), so per-chunk partials can be folded in any grouping:
  across backend workers, across checkpointed run segments, or across
  machines.  The driver folds in task-submission order, which makes the
  final accumulator state **bit-identical across execution backends**.
* **Adaptive stopping** -- instead of a fixed sample count, a run can
  terminate as soon as the yield or variation-percent confidence
  interval is narrower than a requested width (:class:`AdaptiveStop`),
  which is where the sample-efficiency win of sequential estimation
  comes from (cf. importance-sampled timing yield and rare-event
  literature in PAPERS.md).
* **Checkpoint/resume** -- accumulator state plus the chunk cursor
  serialise to one ``.npz`` artefact, so long runs survive interruption
  and can be sharded across invocations (``max_chunks``); a resumed run
  reproduces the uninterrupted run bit-for-bit.

The driver (:func:`monte_carlo_streaming`) walks the *identical* chunk
plan and random streams as :func:`repro.mc.engine.monte_carlo` for a
given :class:`~repro.mc.engine.MCConfig`, so a streaming run reduces
exactly the population the batch engine would concatenate, and an
adaptively-stopped run reduces a prefix of it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .. import telemetry
from ..cache import atomic_write_npz, canonical_fingerprint
from ..errors import ReproError
from ..exec import resolve_backend
from ..process.pdk import ProcessKit
from .engine import MCConfig, _plan_single_chunks, _single_chunk_runner
from .statistics import PopulationSummary, _mean_is_degenerate

__all__ = [
    "StreamingMoments", "StreamingAccumulator", "YieldCounter", "AdaptiveStop",
    "StreamingResult", "monte_carlo_streaming",
]

#: Confidence level of every streaming interval (yield and variation).
CONFIDENCE = 0.95


class StreamingMoments:
    """Mergeable online mean/variance/min/max (Welford + Chan).

    Per-chunk updates use the batched Welford form (the chunk's own
    mean and second central moment, combined with Chan et al.'s exact
    parallel merge), so feeding one big array or many small ones gives
    the same state to float tolerance, and two accumulators merge
    *exactly* -- the merge is the same formula as the update.

    NaN samples are rejected (mirroring
    :func:`repro.mc.statistics.summarize`): a failed simulation lane
    must be repaired upstream, never silently averaged into a running
    statistic.
    """

    __slots__ = ("n", "mean", "m2", "minimum", "maximum")

    def __init__(self) -> None:
        self.n = 0
        self.mean = 0.0
        self.m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def update(self, values) -> "StreamingMoments":
        """Fold a batch of samples into the running moments."""
        values = np.asarray(values, dtype=float).reshape(-1)
        if values.size == 0:
            return self
        if np.any(np.isnan(values)):
            raise ValueError("samples contain NaN; repair failed lanes first")
        batch_n = values.size
        batch_mean = float(np.mean(values))
        batch_m2 = float(np.sum((values - batch_mean) ** 2))
        self._combine(batch_n, batch_mean, batch_m2,
                      float(np.min(values)), float(np.max(values)))
        return self

    def merge(self, other: "StreamingMoments") -> "StreamingMoments":
        """Fold another accumulator's state into this one (exact)."""
        if other.n:
            self._combine(other.n, other.mean, other.m2,
                          other.minimum, other.maximum)
        return self

    def _combine(self, n_b: int, mean_b: float, m2_b: float,
                 min_b: float, max_b: float) -> None:
        n_a = self.n
        n = n_a + n_b
        delta = mean_b - self.mean
        self.mean += delta * n_b / n
        self.m2 += m2_b + delta * delta * n_a * n_b / n
        self.n = n
        self.minimum = min(self.minimum, min_b)
        self.maximum = max(self.maximum, max_b)

    @property
    def variance(self) -> float:
        """Sample variance (``ddof=1``); needs at least two samples."""
        if self.n < 2:
            raise ValueError("need at least two samples")
        return self.m2 / (self.n - 1)

    @property
    def std(self) -> float:
        """Sample standard deviation (``ddof=1``)."""
        return math.sqrt(max(self.variance, 0.0))

    def state(self) -> np.ndarray:
        """Serialisable state vector ``[n, mean, m2, min, max]``."""
        return np.array([float(self.n), self.mean, self.m2,
                         self.minimum, self.maximum])

    @classmethod
    def from_state(cls, state) -> "StreamingMoments":
        moments = cls()
        state = np.asarray(state, dtype=float)
        moments.n = int(state[0])
        moments.mean = float(state[1])
        moments.m2 = float(state[2])
        moments.minimum = float(state[3])
        moments.maximum = float(state[4])
        return moments


class StreamingAccumulator:
    """Per-performance streaming statistics over the running moments.

    The streaming counterpart of one entry of a batch MC result array.
    ``summary()`` produces the :class:`PopulationSummary` that
    :func:`repro.mc.statistics.summarize` computes from the materialised
    population.  Its retained state is the fixed-size moments vector,
    whatever the number of samples.
    """

    def __init__(self) -> None:
        self.moments = StreamingMoments()

    def update(self, values) -> "StreamingAccumulator":
        """Fold a batch of samples into the moments."""
        self.moments.update(values)
        return self

    def merge(self, other: "StreamingAccumulator") -> "StreamingAccumulator":
        """Fold another accumulator (a shard partial) into this one."""
        self.moments.merge(other.moments)
        return self

    @property
    def n(self) -> int:
        return self.moments.n

    def summary(self) -> PopulationSummary:
        """The population summary, shaped like :func:`summarize`'s."""
        moments = self.moments
        return PopulationSummary(n=moments.n, mean=moments.mean,
                                 std=moments.std, minimum=moments.minimum,
                                 maximum=moments.maximum)

    def relative_spread_pct(self) -> float:
        """``3 * std / |mean| * 100`` from the streaming moments
        (same semantics and guards as
        :func:`repro.mc.statistics.relative_spread_pct`)."""
        if _mean_is_degenerate(self.moments.mean):
            raise ValueError("population mean is zero; the relative spread "
                             "is undefined")
        return 3.0 * self.moments.std / abs(self.moments.mean) * 100.0

    def state(self) -> dict[str, np.ndarray]:
        return {"moments": self.moments.state()}

    @classmethod
    def from_state(cls, state: dict) -> "StreamingAccumulator":
        """Restore from :meth:`state`'s arrays; any other arrays (the
        quantile-sketch state older checkpoints carry) are ignored."""
        accumulator = cls()
        accumulator.moments = StreamingMoments.from_state(state["moments"])
        return accumulator


class YieldCounter:
    """Streaming pass/fail counts against a spec set.

    Accumulates the overall pass count (every spec must pass for a die
    to count) and per-spec pass counts chunk by chunk, so a yield
    estimate never needs the materialised population.
    """

    def __init__(self, specs) -> None:
        self.specs = specs
        self.passed = 0
        self.total = 0
        self.per_spec = {spec.name: 0 for spec in specs}

    def update(self, performance: dict) -> "YieldCounter":
        """Fold one chunk of performance arrays into the counts."""
        mask = self.specs.pass_mask(performance)
        self.passed += int(np.count_nonzero(mask))
        self.total += int(mask.size)
        for spec in self.specs:
            values = np.asarray(performance[spec.name])
            self.per_spec[spec.name] += int(
                np.count_nonzero(spec.satisfied(values)))
        return self

    def merge(self, other: "YieldCounter") -> "YieldCounter":
        """Fold another counter's counts into this one."""
        if other.specs.describe() != self.specs.describe():
            raise ReproError("cannot merge yield counters over different "
                             "spec sets")
        self.passed += other.passed
        self.total += other.total
        for name, count in other.per_spec.items():
            self.per_spec[name] += count
        return self

    @property
    def fraction(self) -> float:
        """Point estimate of the yield."""
        if self.total == 0:
            raise ValueError("no samples observed")
        return self.passed / self.total

    def interval(self, confidence: float = 0.95) -> tuple[float, float]:
        """Wilson score interval on the true yield."""
        # Runtime import: repro.yieldmodel depends on repro.mc, so the
        # reverse edge must not exist at module-import time.
        from ..yieldmodel.estimator import wilson_interval
        return wilson_interval(self.passed, self.total, confidence)

    def state(self) -> np.ndarray:
        return np.array([float(self.passed), float(self.total)] +
                        [float(self.per_spec[s.name]) for s in self.specs])

    def load_state(self, state) -> "YieldCounter":
        state = np.asarray(state, dtype=float)
        self.passed = int(state[0])
        self.total = int(state[1])
        for index, spec in enumerate(self.specs):
            self.per_spec[spec.name] = int(state[2 + index])
        return self


@dataclass(frozen=True)
class AdaptiveStop:
    """Sequential stopping rule of a streaming MC run.

    The run terminates once the confidence interval of the watched
    metric is narrower than ``ci_width`` (and at least ``min_samples``
    were drawn); otherwise it runs to ``MCConfig.n_samples``, which acts
    as the sample *cap*.

    Attributes
    ----------
    metric:
        ``"yield"`` -- full width of the Wilson interval on the yield
        fraction (requires ``specs``); ``"variation"`` -- full width, in
        percentage points, of the normal-theory confidence interval on
        the k-sigma relative variation of *every* tracked performance.
    ci_width:
        Target full CI width (yield fraction, or variation percentage
        points).
    min_samples:
        Never stop before this many samples (early chunks are too noisy
        for the asymptotic intervals).
    check_every:
        Chunks between stopping checks.  This is also the number of
        chunks dispatched to the backend per round, so the stopping
        decision -- and therefore the final sample count -- is
        **independent of the backend and worker count**; set it at or
        above the worker count to keep pools busy.

    Intervals are at :data:`CONFIDENCE`; the variation metric's
    guard band is the paper's 3-sigma.
    """

    metric: str = "yield"
    ci_width: float = 0.05
    min_samples: int = 64
    check_every: int = 1

    def __post_init__(self) -> None:
        if self.metric not in ("yield", "variation"):
            raise ReproError(
                f"AdaptiveStop.metric must be 'yield' or 'variation', "
                f"got {self.metric!r}")
        if not self.ci_width > 0.0:
            raise ReproError("AdaptiveStop.ci_width must be > 0")
        if self.min_samples < 2:
            raise ReproError("AdaptiveStop.min_samples must be >= 2")
        if self.check_every < 1:
            raise ReproError("AdaptiveStop.check_every must be >= 1")


def _variation_ci_width(moments: StreamingMoments) -> float:
    """Normal-theory CI full width of the 3-sigma relative variation.

    Delta-method standard error of the coefficient of variation for a
    normal population, ``se(cv) ~= cv * sqrt(1/(2(n-1)) + cv^2/n)``,
    scaled to the variation percentage ``100 * k * cv``.  Returns
    ``inf`` while the width is undefined (fewer than two samples, or a
    mean at zero where relative variation itself is undefined).
    """
    from ..yieldmodel.estimator import z_value
    if moments.n < 2 or _mean_is_degenerate(moments.mean):
        return math.inf
    cv = moments.std / abs(moments.mean)
    se = cv * math.sqrt(1.0 / (2.0 * (moments.n - 1))
                        + cv * cv / moments.n)
    return 2.0 * z_value(CONFIDENCE) * 100.0 * 3.0 * se


@dataclass
class StreamingResult:
    """Outcome of a streaming Monte-Carlo run.

    Attributes
    ----------
    accumulators:
        Per-performance streaming statistics (name ->
        :class:`StreamingAccumulator`).
    counter:
        Streaming yield counts, or ``None`` when no specs were given.
    samples_done, samples_cap:
        Samples reduced so far / the configured cap
        (``MCConfig.n_samples``).
    samples_resumed:
        Samples that were already reduced when this invocation started
        (restored from the checkpoint); ``samples_done -
        samples_resumed`` is the simulation work this invocation
        actually performed.
    chunks_done, chunks_total:
        Chunk-cursor position in the fixed chunk plan.
    stopped_early:
        The adaptive stopping rule fired before the cap.
    interrupted:
        The run hit ``max_chunks`` (or was resumed and re-interrupted)
        before completing; resume it by calling the driver again with
        the same checkpoint.
    """

    config: MCConfig
    accumulators: dict[str, StreamingAccumulator]
    counter: YieldCounter | None
    samples_done: int
    samples_cap: int
    chunks_done: int
    chunks_total: int
    samples_resumed: int = 0
    stopped_early: bool = False
    interrupted: bool = False
    adaptive: AdaptiveStop | None = None
    ci_width: float = field(default=math.inf)

    @property
    def complete(self) -> bool:
        """The run finished (adaptively or by exhausting the cap)."""
        return not self.interrupted

    @property
    def confidence(self) -> float:
        """Confidence level every reported interval uses (the one an
        adaptive rule stops on)."""
        return CONFIDENCE

    def variation_percent(self, name: str) -> float:
        """3-sigma relative variation of one performance, in percent."""
        return self.accumulators[name].relative_spread_pct()

    def describe(self) -> str:
        """Multi-line report: per-performance stats, yield, stop state."""
        lines = []
        for name, accumulator in sorted(self.accumulators.items()):
            summary = accumulator.summary()
            try:
                spread = f" spread(3s)={accumulator.relative_spread_pct():.3f}%"
            except ValueError:
                spread = ""
            lines.append(f"{name}: {summary.describe()}{spread}")
        if self.counter is not None and self.counter.total:
            confidence = self.confidence
            lo, hi = self.counter.interval(confidence)
            lines.append(
                f"yield {self.counter.passed}/{self.counter.total} = "
                f"{100.0 * self.counter.fraction:.2f}% "
                f"(Wilson {confidence:.0%} CI: "
                f"[{100 * lo:.2f}%, {100 * hi:.2f}%])")
        if self.interrupted:
            lines.append(f"interrupted at {self.samples_done}/"
                         f"{self.samples_cap} samples "
                         f"(chunk {self.chunks_done}/{self.chunks_total}; "
                         f"resume from the checkpoint)")
        elif self.stopped_early:
            lines.append(
                f"adaptive stop after {self.samples_done}/"
                f"{self.samples_cap} samples "
                f"({self.adaptive.metric} CI width "
                f"{self.ci_width:.4g} <= {self.adaptive.ci_width:g})")
        else:
            lines.append(f"completed {self.samples_done} samples")
        return "\n".join(lines)


def _fingerprint(config: MCConfig, pdk: ProcessKit, stage: str, specs,
                 adaptive: AdaptiveStop | None) -> str:
    """Checkpoint compatibility key (canonical fingerprint form).

    Covers every *inspectable* input that shapes the sample population
    or the accumulator state -- the MC configuration, the process kit's
    name, the stream stage, the spec set, the stopping rule -- plus the
    library version (via :func:`repro.cache.canonical_fingerprint`, so
    a code upgrade can never silently resume an old run's state), and
    deliberately excludes the backend/worker choice, which never
    affects numeric results.  The evaluator itself is an opaque
    callable the fingerprint cannot see: callers whose evaluator can
    change between invocations (e.g. a design under iteration) must
    scope the ``stage`` key to the design, as the flow's verification
    stage does by hashing the verified design parameters into it.
    """
    payload = {
        "pdk": pdk.name,
        "n_samples": config.n_samples,
        "seed": config.seed,
        "chunk_lanes": config.chunk_lanes,
        "include_global": config.include_global,
        "include_mismatch": config.include_mismatch,
        "specs": specs.describe() if specs is not None else "",
        "adaptive": ([adaptive.metric, adaptive.ci_width,
                      CONFIDENCE, adaptive.min_samples,
                      adaptive.check_every, 3.0]
                     if adaptive is not None else []),
        # The retired quantile sketch's default budget: kept so that
        # checkpoints written before it was removed still resume.
        "sketch_capacity": 4096,
    }
    return canonical_fingerprint("mc-streaming", payload, evaluator=stage)


def _write_checkpoint(path: Path, fingerprint: str, cursor: int,
                      accumulators: dict[str, StreamingAccumulator],
                      counter: YieldCounter | None) -> None:
    arrays: dict[str, np.ndarray] = {
        "cursor": np.array([cursor]),
        "fingerprint": np.frombuffer(
            fingerprint.encode(), dtype=np.uint8),
        "names": np.frombuffer(
            json.dumps(sorted(accumulators)).encode(),
            dtype=np.uint8),
    }
    for name, accumulator in accumulators.items():
        for key, data in accumulator.state().items():
            arrays[f"acc_{name}__{key}"] = data
    if counter is not None:
        arrays["yield_counts"] = counter.state()
    # Atomic and crash-safe: a kill mid-write leaves the previous
    # checkpoint intact, and concurrent jobs sharing a checkpoint path
    # get unique temp names (per pid and call) instead of clobbering
    # each other's half-written file.
    atomic_write_npz(path, arrays)


def _read_checkpoint(path: Path, fingerprint: str, specs):
    """Restore ``(cursor, accumulators, counter)`` from a checkpoint."""
    with np.load(path) as data:
        stored = bytes(data["fingerprint"]).decode("utf-8")
        if stored != fingerprint:
            raise ReproError(
                f"checkpoint {path} was written by an incompatible "
                f"configuration; delete it or match the original "
                f"config (expected {fingerprint}, found {stored})")
        names = json.loads(bytes(data["names"]).decode("utf-8"))
        accumulators = {}
        for name in names:
            state = {key[len(f"acc_{name}__"):]: data[key]
                     for key in data.files
                     if key.startswith(f"acc_{name}__")}
            accumulators[name] = StreamingAccumulator.from_state(state)
        counter = None
        if specs is not None:
            counter = YieldCounter(specs).load_state(data["yield_counts"])
        return int(data["cursor"][0]), accumulators, counter


def _ci_width_now(adaptive: AdaptiveStop,
                  accumulators: dict[str, StreamingAccumulator],
                  counter: YieldCounter | None) -> float:
    """Current full CI width of the watched metric (``inf`` = unsettled)."""
    if adaptive.metric == "yield":
        if counter is None or counter.total == 0:
            return math.inf
        lo, hi = counter.interval(CONFIDENCE)
        return hi - lo
    if not accumulators:
        return math.inf
    return max(_variation_ci_width(acc.moments)
               for acc in accumulators.values())


def monte_carlo_streaming(evaluator, pdk: ProcessKit,
                          config: MCConfig | None = None, *,
                          specs=None,
                          adaptive: AdaptiveStop | None = None,
                          checkpoint=None,
                          max_chunks: int | None = None,
                          stage: str = "mc-single",
                          progress=None) -> StreamingResult:
    """Streaming Monte Carlo on one design.

    The streaming counterpart of :func:`repro.mc.engine.monte_carlo`:
    the same evaluator contract, the same chunk plan and random streams
    (a streaming run reduces exactly the population the batch engine
    would concatenate), but every chunk is folded into mergeable
    accumulators the moment it completes, so peak memory is bounded by
    ``chunk_lanes`` lanes plus the constant accumulator state -- never
    by ``n_samples``.

    Parameters
    ----------
    evaluator:
        Callable ``(ProcessSample) -> dict[name, (S,) array]``, exactly
        as for :func:`monte_carlo`.
    specs:
        Optional :class:`repro.measure.specs.SpecSet`; when given, a
        :class:`YieldCounter` accumulates streaming pass counts
        (required for ``adaptive.metric == "yield"``).
    adaptive:
        Optional :class:`AdaptiveStop`; ``config.n_samples`` then acts
        as the sample cap rather than an exact count.
    checkpoint:
        Optional path.  If the file exists the run **resumes** from it
        (the configuration must match); the file is rewritten atomically
        after every completed round, so an interrupted run loses at most
        one round of work.
    max_chunks:
        Stop (with ``interrupted=True``) after this many chunks *in this
        invocation* -- the sharding/interruption hook: combined with
        ``checkpoint``, a long run can be spread over many invocations,
        and the final state is bit-identical to an uninterrupted run.
    stage:
        Random-stream stage key (matching :func:`monte_carlo`'s).
    progress:
        Optional callback ``(samples_done, samples_cap)``.

    Notes
    -----
    Chunk results are folded in task-submission order whatever the
    backend, so for a fixed configuration the final accumulator state is
    bit-identical across serial, thread, and forked-process execution --
    and adaptive runs stop at the same sample count on every backend,
    because rounds are sized by ``adaptive.check_every``, not by the
    worker count.
    """
    config = config or MCConfig()
    bounds = _plan_single_chunks(config, stage)
    run_chunk = _single_chunk_runner(evaluator, pdk, config)
    backend = resolve_backend(config.backend, config.workers)
    if adaptive is not None and adaptive.metric == "yield" and specs is None:
        raise ReproError("adaptive yield stopping needs a spec set")

    fingerprint = _fingerprint(config, pdk, stage, specs, adaptive)
    checkpoint_path = Path(checkpoint) if checkpoint else None
    accumulators: dict[str, StreamingAccumulator] = {}
    counter = YieldCounter(specs) if specs is not None else None
    cursor = 0
    if checkpoint_path is not None and checkpoint_path.exists():
        cursor, accumulators, counter = _read_checkpoint(
            checkpoint_path, fingerprint, specs)
    resumed_cursor = cursor

    if adaptive is not None:
        round_size = adaptive.check_every
    else:
        # No stopping decision between rounds: size them by the worker
        # count so pooled backends stay busy while the number of chunk
        # results held in memory at once stays bounded.
        round_size = max(1, backend.workers)

    def samples_done() -> int:
        return bounds[cursor - 1][1] if cursor else 0

    def at_check_boundary() -> bool:
        # Stopping checks happen only at absolute multiples of the
        # round size (or the end of the plan), never at whatever cursor
        # a max_chunks interruption happened to land on -- so a resumed
        # run evaluates the stop rule at exactly the cursors an
        # uninterrupted run would, keeping the bit-identical-resume
        # contract for any check_every.
        return cursor % round_size == 0 or cursor == len(bounds)

    stopped_early = False
    interrupted = False
    width = _ci_width_now(adaptive, accumulators, counter) \
        if adaptive is not None else math.inf
    if adaptive is not None and cursor and at_check_boundary() and \
            samples_done() >= adaptive.min_samples and \
            width <= adaptive.ci_width:
        stopped_early = True  # a resumed run that was already settled

    chunks_this_call = 0
    with telemetry.span("mc.stream", stage=stage, cap=config.n_samples,
                        resumed=resumed_cursor) as stream_span:
        while cursor < len(bounds) and not stopped_early:
            if max_chunks is not None and chunks_this_call >= max_chunks:
                interrupted = True
                break
            # Run to the next round boundary (re-aligning after a
            # mid-round interruption), clipped by this invocation's
            # chunk budget.
            take = round_size - cursor % round_size
            if max_chunks is not None:
                take = min(take, max_chunks - chunks_this_call)
            tasks = bounds[cursor:cursor + take]
            telemetry.counter_add("mc.stream.rounds")
            parts = backend.run(run_chunk, tasks)
            # Fold in task-submission order: deterministic on every
            # backend.
            for part in parts:
                for name, values in part.items():
                    if name not in accumulators:
                        accumulators[name] = StreamingAccumulator()
                    accumulators[name].update(values)
                if counter is not None:
                    counter.update(part)
            cursor += len(tasks)
            chunks_this_call += len(tasks)
            if checkpoint_path is not None:
                _write_checkpoint(checkpoint_path, fingerprint, cursor,
                                  accumulators, counter)
            if progress is not None:
                progress(samples_done(), config.n_samples)
            if adaptive is not None and at_check_boundary() and \
                    samples_done() >= adaptive.min_samples:
                width = _ci_width_now(adaptive, accumulators, counter)
                if width <= adaptive.ci_width:
                    stopped_early = True
        stream_span.set(samples=samples_done(), chunks=cursor,
                        stopped_early=stopped_early,
                        interrupted=interrupted)

    return StreamingResult(
        config=config,
        accumulators=accumulators,
        counter=counter,
        samples_done=samples_done(),
        samples_cap=config.n_samples,
        chunks_done=cursor,
        chunks_total=len(bounds),
        samples_resumed=(bounds[resumed_cursor - 1][1]
                         if resumed_cursor else 0),
        stopped_early=stopped_early,
        interrupted=interrupted,
        adaptive=adaptive,
        ci_width=width,
    )
