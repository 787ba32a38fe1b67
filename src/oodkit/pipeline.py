"""In-process callback-graph executors.

A detector is split into stages connected by FIFO topics and driven by a frame
source at a target rate, under one of three scheduling semantics:

  CHAIN_MT - one dedicated worker per stage, queues between stages (pipelined);
  MONO_ST  - a single worker executes every ready callback FIFO;
  MONO_MT  - a shared pool executes ready callbacks, except stateful stages,
             which stay mutually exclusive and in frame order.

All three share one executor core (per-stage FIFOs, routing and failure
handling) and differ only in their dispatch policy. Offline scoring uses the
same core with no threads: run_in_order drains each frame through the graph
in the calling thread. Score sequences are bit-identical across all of them;
only timing and throughput differ.
"""

from __future__ import annotations

import csv
import io
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .gasearch import CELL_FAILURES
from .oodcore import DetectorState, auroc, score_frame

CHAIN_MT = "chain_mt"
MONO_ST = "mono_st"
MONO_MT = "mono_mt"
EXECUTOR_KINDS = (CHAIN_MT, MONO_ST, MONO_MT)


@dataclass(frozen=True)
class ExecutorKind:
    kind: str
    workers: int = 2

    def __post_init__(self):
        if self.kind not in EXECUTOR_KINDS:
            raise ValueError(f"unknown executor kind {self.kind!r}")
        if self.kind == MONO_MT and self.workers < 2:
            raise ValueError("mono_mt needs at least 2 workers")


@dataclass
class Stage:
    """One callback. A stage with a state_factory is stateful: it takes
    fn(payload, state) with per-run state from the factory; otherwise it
    takes fn(payload). A stage with two or more incoming edges is a join: it
    receives a tuple of payloads, one per edge. Stateful and join stages run
    in frame order."""

    name: str
    fn: Callable
    state_factory: Optional[Callable] = None


class CallbackGraph:
    """Acyclic stage graph with a single source and a single sink."""

    def __init__(self, stages, edges):
        self.stages = list(stages)
        self.edges = [tuple(e) for e in edges]
        names = [s.name for s in self.stages]
        if len(set(names)) != len(names):
            raise ValueError("stage names must be unique")
        self.by_name = {s.name: s for s in self.stages}
        for a, b in self.edges:
            if a not in self.by_name or b not in self.by_name:
                raise ValueError(f"edge ({a!r}, {b!r}) references unknown stage")
        self.successors = {n: [b for a, b in self.edges if a == n] for n in names}
        self.predecessors = {n: [a for a, b in self.edges if b == n] for n in names}
        sources = [n for n in names if not self.predecessors[n]]
        sinks = [n for n in names if not self.successors[n]]
        if len(sources) != 1 or len(sinks) != 1:
            raise ValueError(f"need exactly one source and one sink, got {sources}/{sinks}")
        self.source = sources[0]
        self.sink = sinks[0]
        self._check_acyclic()

    def _check_acyclic(self):
        indeg = {n: len(self.predecessors[n]) for n in self.by_name}
        ready = [n for n, d in indeg.items() if d == 0]
        seen = 0
        while ready:
            n = ready.pop()
            seen += 1
            for m in self.successors[n]:
                indeg[m] -= 1
                if indeg[m] == 0:
                    ready.append(m)
        if seen != len(self.by_name):
            raise ValueError("callback graph contains a cycle")


class _Runner:
    """Per-run wrapper of one stage: owns its state and, for stateful or join
    stages, enforces mutually exclusive execution in frame order."""

    def __init__(self, stage: Stage, n_inputs: int):
        self.stage = stage
        self.n_inputs = max(n_inputs, 1)
        self.state = stage.state_factory() if stage.state_factory else None
        self.ordered = stage.state_factory is not None or self.n_inputs > 1
        self.lock = threading.Lock()
        self.next_seq = 0
        self.parts = {}

    def submit(self, seq: int, payload, branch: int):
        """Returns the list of (seq, output) that became ready (may be empty)."""
        if not self.ordered:
            return [(seq, self.stage.fn(payload))]
        with self.lock:
            self.parts.setdefault(seq, {})[branch] = payload
            done = []
            while (self.next_seq in self.parts
                   and len(self.parts[self.next_seq]) == self.n_inputs):
                parts = self.parts.pop(self.next_seq)
                args = tuple(parts[b] for b in range(self.n_inputs)) \
                    if self.n_inputs > 1 else parts[0]
                if self.stage.state_factory is not None:
                    out = self.stage.fn(args, self.state)
                else:
                    out = self.stage.fn(args)
                done.append((self.next_seq, out))
                self.next_seq += 1
            return done


@dataclass
class RunStats:
    """Per-frame stamps of one executor run: ingress (admission) and done
    (sink completion) in time.monotonic seconds, frames in sequence order."""

    scores: list
    ingress: np.ndarray
    done: np.ndarray
    pump_t0: float = 0.0

    @property
    def backlog_samples(self) -> list:
        """(t, backlog) at each frame's admission: the frames admitted but not
        yet completed at that moment, the admitted frame included."""
        completed = np.sort(self.done)
        # frames are admitted in sequence order, so seq + 1 have been admitted
        in_flight = (np.arange(1, self.ingress.size + 1)
                     - np.searchsorted(completed, self.ingress, side="right"))
        return list(zip(self.ingress.tolist(), in_flight.tolist()))


class _Run:
    """One run of a graph over n frames, shared by every dispatch policy: a
    runner and a FIFO of (seq, payload, branch) per stage, one route and one
    failure path. Policies differ only in which thread takes from which FIFO:
    served lists the stage groups that workers serve (None: no workers), and
    each group gets one wake-up condition, on which a worker with nothing to
    take sleeps until route or the end of the run notifies it."""

    def __init__(self, graph: CallbackGraph, n: int, served=None):
        self.order = [s.name for s in graph.stages]
        self.runners = {s.name: _Runner(s, len(graph.predecessors[s.name]))
                        for s in graph.stages}
        branch_of = {(p, m): i for m in self.order
                     for i, p in enumerate(graph.predecessors[m])}
        # (successor, input branch) per stage; key None is the frame source
        self.routes = {name: [(m, branch_of[(name, m)]) for m in graph.successors[name]]
                       for name in self.order}
        self.routes[None] = [(graph.source, 0)]
        self.pending = {name: deque() for name in self.order}
        self.lock = threading.Lock()
        self.wakeup = {}
        for names in set(map(tuple, served or ())):
            cv = threading.Condition(self.lock)
            self.wakeup.update(dict.fromkeys(names, cv))
        self.results = [None] * n
        self.done = np.zeros(n)
        self.n_done = 0
        self.errors = []
        self.over = threading.Event()

    def route(self, name, seq, out):
        """Queue one output of stage name (None: a frame from the source) for
        its successors, or record it as the frame's result at the sink."""
        succ = self.routes[name]
        if not succ:
            self.results[seq] = out
            self.done[seq] = time.monotonic()
            with self.lock:
                self.n_done += 1
                if self.n_done == len(self.results):
                    self._end()
            return
        with self.lock:
            for m, branch in succ:
                self.pending[m].append((seq, out, branch))
                if m in self.wakeup:
                    self.wakeup[m].notify()

    def fail(self, exc):
        with self.lock:
            self.errors.append(exc)
            self._end()

    def _end(self):
        self.over.set()
        for cv in set(self.wakeup.values()):
            cv.notify_all()

    def step(self, name) -> bool:
        """Run the oldest pending callback of one stage; False if there was
        none, the run is over, or the callback raised."""
        with self.lock:
            if self.over.is_set() or not self.pending[name]:
                return False
            seq, payload, branch = self.pending[name].popleft()
        try:
            outputs = self.runners[name].submit(seq, payload, branch)
        except Exception as exc:  # noqa: BLE001 - reported to the caller
            self.fail(exc)
            return False
        for oseq, out in outputs:
            self.route(name, oseq, out)
        return True

    def sweep(self, names) -> bool:
        """One pass over the stages in order, running at most one ready
        callback per stage (the collected-set semantics of a shared-executor
        node); True if any ran."""
        ran = False
        for name in names:
            ran = self.step(name) or ran
        return ran

    def serve(self, names):
        """Worker loop over the given stages until the run is over."""
        cv = self.wakeup[names[0]]
        while not self.over.is_set():
            if not self.sweep(names):
                with self.lock:
                    while not (self.over.is_set() or any(self.pending[n] for n in names)):
                        cv.wait()


def _execute(graph: CallbackGraph, kind: ExecutorKind, source: dict) -> RunStats:
    """Pump source["frames"] into the graph at source["rate_fps"] (None: all
    at once) under the kind's dispatch policy: CHAIN_MT gives every stage its
    own worker; MONO_ST and MONO_MT run 1 or kind.workers workers that each
    sweep all stages in registration order."""
    frames = list(source["frames"])
    rate = source.get("rate_fps")
    n = len(frames)
    if n == 0:
        raise ValueError("empty frame source")

    order = [s.name for s in graph.stages]
    if kind.kind == CHAIN_MT:
        served = [[name] for name in order]
    else:
        served = [order] * (1 if kind.kind == MONO_ST else kind.workers)
    run = _Run(graph, n, served)
    stats = RunStats(run.results, np.zeros(n), run.done)
    threads = [threading.Thread(target=run.serve, args=(names,), daemon=True)
               for names in served]
    for t in threads:
        t.start()

    stats.pump_t0 = time.monotonic()
    for seq, frame in enumerate(frames):
        if run.over.is_set():
            break  # a stage failed; the rest of the schedule would run for nothing
        if rate:
            target = stats.pump_t0 + seq / rate
            now = time.monotonic()
            if target > now:
                time.sleep(target - now)
        stats.ingress[seq] = time.monotonic()
        run.route(None, seq, frame)

    run.over.wait()
    for t in threads:
        t.join()
    if run.errors:
        raise run.errors[0]
    return stats


def run_in_order(graph: CallbackGraph, frames) -> list:
    """The graph run synchronously in the calling thread, each frame drained
    through every stage before the next is fed: no threads. Returns the sink
    output of every frame in frame order."""
    frames = list(frames)
    run = _Run(graph, len(frames))
    for seq, frame in enumerate(frames):
        run.route(None, seq, frame)
        while run.sweep(run.order):
            pass
        if run.errors:
            raise run.errors[0]
    return run.results


@dataclass(frozen=True)
class TimingReport:
    """Per-frame response times (seconds) with summary statistics, after the
    warm-up discard."""

    response_times: np.ndarray
    warmup_discarded: int
    count: int
    mean: float
    min: float
    q1: float
    median: float
    q3: float
    p95: float
    p99: float
    max: float

    @classmethod
    def from_samples(cls, rts: np.ndarray, warmup_discarded: int):
        if rts.size == 0:
            raise ValueError("no timed frames after warm-up discard")
        if np.any(rts <= 0):
            raise ValueError("response times must be positive")
        q = np.percentile(rts, [25, 50, 75, 95, 99])
        return cls(rts, warmup_discarded, int(rts.size), float(rts.mean()),
                   float(rts.min()), float(q[0]), float(q[1]), float(q[2]),
                   float(q[3]), float(q[4]), float(rts.max()))


def run_stream(graph: CallbackGraph, kind: ExecutorKind, source, warmup: int = 20):
    """Drive the graph over the source frames; returns (scores, TimingReport).

    scores is the per-frame emission sequence in frame order (None for frames
    the detector skipped while its flow history warmed up)."""
    stats = _execute(graph, kind, source)
    n = len(stats.scores)
    if n <= warmup:
        raise ValueError(f"need more than warmup={warmup} frames, got {n}")
    rts = (stats.done - stats.ingress)[warmup:]
    return list(stats.scores), TimingReport.from_samples(rts, warmup)


@dataclass(frozen=True)
class ThroughputEntry:
    rate_fps: float
    sustained_fps: float
    backlog_slope: float
    sustained: bool


@dataclass(frozen=True)
class ThroughputReport:
    entries: tuple

    def knee(self):
        """First offered rate the graph fails to sustain, or None."""
        for e in self.entries:
            if not e.sustained:
                return e.rate_fps
        return None


def throughput_sweep(graph: CallbackGraph, kind: ExecutorKind, rates,
                     duration_s: float, frame_factory) -> ThroughputReport:
    """Drive the graph at each offered rate for duration_s; sustained output
    is measured over the trailing half of the drive window, the backlog slope
    over the frames' admissions. Queues are unbounded, so overload shows up
    as backlog growth."""
    rates = list(rates)
    if any(r <= 0 for r in rates) or sorted(rates) != rates:
        raise ValueError("rates must be positive and ascending")
    entries = []
    for rate in rates:
        n = max(int(np.ceil(rate * duration_s)), 2)
        frames = [frame_factory(i) for i in range(n)]
        stats = _execute(graph, kind, {"frames": frames, "rate_fps": rate})
        # trailing 50% of the output span: under overload this covers the
        # saturated drain, so the measurement converges on service capacity
        t_last = float(stats.done.max())
        t_half = 0.5 * (stats.pump_t0 + t_last)
        in_window = int(np.sum(stats.done > t_half))
        sustained = min(in_window / max(t_last - t_half, 1e-9), float(rate))
        ts, bs = np.array(stats.backlog_samples, dtype=float).T
        slope = float(np.polyfit(ts - ts[0], bs, 1)[0])
        ok = sustained >= 0.95 * rate and slope <= max(0.05 * rate, 1.0)
        entries.append(ThroughputEntry(float(rate), float(sustained), slope, bool(ok)))
    return ThroughputReport(tuple(entries))


# ---------------------------------------------------------------------------
# Detector graphs

def build_graph(bundle) -> CallbackGraph:
    """The detector graph of a bundle: preprocess, then one encoder stage per
    branch, whose latents meet in postprocess. Postprocess keeps one CUSUM per
    branch and emits their max, or None while the frontend warms up."""
    pp = bundle.postprocess
    branches = bundle.branches
    names = [name for name, _, _ in branches]

    def encoder(i, model):
        return lambda inputs: None if inputs is None else model.encode(inputs[i])

    def post_fn(latents, states):
        if len(branches) == 1:
            latents = (latents,)  # a single edge delivers its payload bare
        if any(lat is None for lat in latents):
            return None
        return max(score_frame(state, lat, calib, pp)[1]
                   for state, lat, (_, _, calib) in zip(states, latents, branches))

    stages = [Stage("preprocess", *bundle.frontend())]
    stages += [Stage(name, encoder(i, model)) for i, (name, model, _) in enumerate(branches)]
    stages.append(Stage("postprocess", post_fn,
                        state_factory=lambda: [DetectorState(window=pp.window)
                                               for _ in branches]))
    edges = [("preprocess", n) for n in names] + [(n, "postprocess") for n in names]
    return CallbackGraph(stages, edges)


# ---------------------------------------------------------------------------
# Benchmark matrix

@dataclass(frozen=True)
class BenchConfig:
    """Phase-4 settings: the response-time matrix (n_frames offered at
    rate_fps, None for all at once, timing after warmup frames), the
    throughput sweep, and the mono_mt pool size."""

    n_frames: int = 200
    rate_fps: Optional[float] = 30.0
    warmup: int = 20
    throughput_rates: tuple = (5.0, 15.0, 30.0, 60.0)
    throughput_duration_s: float = 2.0
    mono_mt_workers: int = 2


def _stream_auroc(scores, labels):
    pairs = [(s, l) for s, l in zip(scores, labels) if s is not None]
    ids = [s for s, l in pairs if not l]
    oods = [s for s, l in pairs if l]
    if not ids or not oods:
        return None
    return auroc(ids, oods)


def bench_matrix(bundles: dict, precisions, kinds, frames, labels,
                 cfg: BenchConfig = BenchConfig()):
    """Measure the (precision x executor) cross product of one detector,
    bundles mapping precision -> bundle, under an identical frame source.
    Returns a list of row dicts. A cell that raises one of CELL_FAILURES
    carries an 'error' entry and the run continues; any other exception is a
    programming error and propagates. AUROC deltas are relative to the first
    scored f32 cell, wherever precisions lists f32 (score sequences are
    executor-invariant, so one baseline serves every row)."""
    frames = list(frames)[:cfg.n_frames]
    labels = list(labels)[:cfg.n_frames]
    family = next(iter(bundles.values())).genome.family
    rows = []
    for precision in precisions:
        bundle = bundles.get(precision)
        for kind in kinds:
            row = {"family": family, "precision": precision, "executor": kind.kind}
            if bundle is None:
                row["error"] = f"no {precision} bundle"
                rows.append(row)
                continue
            g = bundle.genome
            row["genome"] = (f"{g.size[0]}x{g.size[1]}/{g.interpolation}/"
                             f"{g.color or g.flow_depth}")
            row["input_size"] = f"{g.size[0]}x{g.size[1]}"
            try:
                scores, report = run_stream(
                    build_graph(bundle), kind,
                    {"frames": frames, "rate_fps": cfg.rate_fps}, warmup=cfg.warmup)
                row.update({
                    "mean_ms": report.mean * 1e3, "min_ms": report.min * 1e3,
                    "q1_ms": report.q1 * 1e3, "median_ms": report.median * 1e3,
                    "q3_ms": report.q3 * 1e3, "p95_ms": report.p95 * 1e3,
                    "p99_ms": report.p99 * 1e3, "max_ms": report.max * 1e3,
                })
                row["auroc"] = _stream_auroc(scores, labels)
            except CELL_FAILURES as exc:
                row["error"] = f"{type(exc).__name__}: {exc}"
            rows.append(row)
    base = [r["auroc"] for r in rows if r["precision"] == "f32" and r.get("auroc") is not None]
    for row in rows:
        if base and row.get("auroc") is not None:
            row["auroc_delta_vs_baseline"] = row["auroc"] - base[0]
    return rows


BENCH_CSV_COLUMNS = [
    "family", "genome", "precision", "executor", "input_size",
    "mean_ms", "min_ms", "q1_ms", "median_ms", "q3_ms", "p95_ms", "p99_ms",
    "max_ms", "auroc", "auroc_delta_vs_baseline", "error",
]


def bench_rows_to_csv(rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(BENCH_CSV_COLUMNS)
    for r in rows:
        writer.writerow([f"{v:.6g}" if isinstance(v, float) else v
                         for v in (r.get(c) for c in BENCH_CSV_COLUMNS)])
    return out.getvalue()
