"""Spans recorded from outside the program.

The tracer wraps the public calls into each oodkit layer (module functions,
layer methods and the stage callbacks of a built graph), keeps the spans in
memory, writes them as Chrome trace-event JSON, and derives the per-layer
metrics from that file. The wrappers are installed for one traced run and
removed afterwards; nothing inside oodkit is edited.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict

import numpy as np

from oodkit import dataset, imaging, oodcore, pipeline, workflow
from oodkit.network import layers, model, quantize

# the package re-exports the function train under the submodule's name
train = importlib.import_module("oodkit.network.train")

EXECUTORS = ("mono_st", "chain_mt", "mono_mt")
STAGES = ("preprocess", "encode", "encoder_u", "encoder_v", "join", "postprocess")
LAYER_KINDS = ("conv2d", "maxpool2d", "dense", "relu", "flatten", "unflatten", "upsample")
ENCODE_PHASES = ("stream", "fitness", "sweep", "quantize_eval")
PHASES = ("setup", "stream", "fitness", "sweep", "quantize_eval")

_LAYER_CLASSES = {"conv2d": layers.Conv2D, "maxpool2d": layers.MaxPool2D,
                  "dense": layers.Dense, "relu": layers.ReLU, "flatten": layers.Flatten,
                  "unflatten": layers.Unflatten, "upsample": layers.Upsample}


def per_layer_names():
    """Every per-layer metric a traced run reports, in report order."""
    names = []
    for x in EXECUTORS:
        for st in STAGES:
            names += [f"pipeline.{x}.{st}.service_p50_ms", f"pipeline.{x}.{st}.wait_p50_ms"]
        names += [f"pipeline.{x}.pump_late_p95_ms", f"pipeline.{x}.backlog_max",
                  f"pipeline.{x}.frames_failed"]
    names += ["imaging.resize_ms", "imaging.sharpen_ms", "imaging.to_grayscale_ms",
              "optflow.farneback_ms", "optflow.farneback_calls_per_frame",
              "quantize.forward_ms", "quantize.qconv_ms", "quantize.qdense_ms",
              "quantize.qmaxpool_ms", "network.encode_ms"]
    names += [f"network.encode_calls.{p}" for p in ENCODE_PHASES]
    for kind in LAYER_KINDS:
        names += [f"network.{kind}.forward_s", f"network.{kind}.backward_s"]
    names += ["network.train.batches", "oodcore.score_frame_ms", "oodcore.build_calibration_s",
              "workflow.train_bvae_s", "workflow.calibrate_bvae_s",
              "workflow.evaluate_streams_s", "dataset.generate_s"]
    return names


class Tracer:
    """In-memory span recorder. A span is (id, name, start, end, parent,
    frame, thread, phase, cell); times come from time.monotonic, the clock
    the executors stamp ingress and completion with."""

    def __init__(self):
        self.spans = []
        self.cells = []
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched = []

    # -- recording ---------------------------------------------------------

    def _call(self, name, frame, cell, fn, args, kwargs):
        stack = self._local.__dict__.setdefault("stack", [])
        if stack:
            parent, parent_frame, parent_cell = stack[-1]
            frame = parent_frame if frame is None else frame
            cell = parent_cell if cell is None else cell
        else:
            parent = None
        sid = next(self._ids)
        stack.append((sid, frame, cell))
        start = time.monotonic()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.monotonic()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, frame,
                               threading.get_ident(), self.phase, cell))

    def wrap(self, name, fn):
        """fn wrapped in a span; name may be a callable of the call's args."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args) if callable(name) else name
            return tracer._call(label, None, None, fn, args, kwargs)
        return traced

    def _patch(self, owner, attr, name):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def install(self):
        """Wrap the public entry points of every layer the workloads use."""
        for fn in ("resize", "sharpen", "to_grayscale"):
            self._patch(imaging, fn, f"imaging.{fn}")
        self._patch(workflow, "farneback_flow", "optflow.farneback")
        self._patch(quantize.QuantizedEncoder, "forward", "quantize.forward")
        self._patch(quantize._QConv, "run", "quantize.qconv")
        self._patch(quantize._QDense, "run", "quantize.qdense")
        self._patch(quantize._QMaxPool, "run", "quantize.qmaxpool")
        self._patch(model.DetectorModel, "encode",
                    lambda m, *a: f"network.encode.{m.precision}")
        for kind, cls in _LAYER_CLASSES.items():
            self._patch(cls, "forward", f"network.{kind}.forward")
            self._patch(cls, "backward", f"network.{kind}.backward")
        self._patch(train, "loss_and_grads", "network.train.batch")
        for owner in (pipeline, workflow):
            self._patch(owner, "score_frame", "oodcore.score_frame")
        for owner in (oodcore, workflow):
            self._patch(owner, "build_calibration", "oodcore.build_calibration")
        for fn in ("train_bvae", "calibrate_bvae", "evaluate_streams"):
            self._patch(workflow, fn, f"workflow.{fn}")
        self._patch(dataset, "generate_dataset", "dataset.generate")
        self._hook_submit()
        return self

    def _hook_submit(self):
        # Not a span: tells the stage wrappers of trace_graph which frame a
        # callback serves. Ordered stages run frames in sequence, so theirs
        # is the runner's next_seq; pure stages serve the submitted seq.
        original = pipeline._Runner.__dict__["submit"]
        local = self._local

        def submit(runner, seq, payload, branch):
            local.runner = (runner, seq)
            return original(runner, seq, payload, branch)
        self._patched.append((pipeline._Runner, "submit", original))
        pipeline._Runner.submit = submit

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- pipeline cells ----------------------------------------------------

    def trace_graph(self, graph, cell):
        """Wrap every stage callback of a built graph so each call records a
        span carrying its stage, frame and cell."""
        local = self._local

        def stage_fn(stage, fn):
            def traced(*args):
                runner, seq = local.runner
                frame = runner.next_seq if runner.ordered else seq
                return self._call(f"pipeline.{stage.name}", frame, cell, fn, args, {})
            return traced

        for stage in graph.stages:
            stage.fn = stage_fn(stage, stage.fn)
        return graph

    def add_cell(self, cell, executor, mode, rate, edges, stats, failed):
        self.cells.append({"cell": cell, "executor": executor, "mode": mode,
                           "rate_fps": rate, "edges": [list(e) for e in edges],
                           "pump_t0": stats.pump_t0, "ingress": list(map(float, stats.ingress)),
                           "backlog": [[t, b] for t, b in stats.backlog_samples],
                           "failed": failed})

    # -- export --------------------------------------------------------------

    def write_chrome(self, path):
        """Chrome trace-event JSON (chrome://tracing, Perfetto). Cell
        metadata rides on one instant event per cell."""
        tids = {}
        events = []
        for sid, name, start, end, parent, frame, tid, phase, cell in self.spans:
            events.append({"name": name, "ph": "X", "ts": start * 1e6,
                           "dur": (end - start) * 1e6, "pid": 1,
                           "tid": tids.setdefault(tid, len(tids) + 1),
                           "args": {"id": sid, "parent": parent, "frame": frame,
                                    "phase": phase, "cell": cell}})
        for c in self.cells:
            events.append({"name": "pipeline.cell", "ph": "i", "s": "g",
                           "ts": c.get("pump_t0", 0.0) * 1e6, "pid": 1, "tid": 0, "args": c})
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def _median_ms(durations):
    return float(np.median(durations)) * 1e3 if durations else 0.0


def summarize(path):
    """Per-layer metrics from a Chrome trace written by Tracer.write_chrome."""
    with open(path) as fh:
        events = json.load(fh)["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    cells = {e["args"]["cell"]: e["args"] for e in events if e["name"] == "pipeline.cell"}
    out = dict.fromkeys(per_layer_names(), 0.0)

    by_name = defaultdict(list)
    for e in spans:
        by_name[(e["name"], e["args"]["phase"])].append(e["dur"] * 1e-6)

    def durs(name, *phases):
        phases = phases or PHASES
        return [d for p in phases for d in by_name.get((name, p), [])]

    # pipeline: latency cells only, where each frame is due on the pump schedule
    stage_spans = defaultdict(dict)  # (cell, frame) -> stage -> (start, end)
    for e in spans:
        cell = e["args"]["cell"]
        if e["name"].startswith("pipeline.") and cell in cells and e["args"]["parent"] is None:
            stage = e["name"].split(".", 1)[1]
            stage_spans[(cell, e["args"]["frame"])][stage] = (e["ts"] * 1e-6,
                                                             (e["ts"] + e["dur"]) * 1e-6)
    for x in EXECUTORS:
        lat = [c for c in cells.values()
               if c["executor"] == x and c["mode"] == "latency" and "ingress" in c]
        out[f"pipeline.{x}.frames_failed"] = float(
            sum(c["failed"] for c in cells.values() if c["executor"] == x))
        if not lat:
            continue
        service = defaultdict(list)
        wait = defaultdict(list)
        late = []
        backlog = [0]
        for c in lat:
            preds = defaultdict(list)
            for a, b in c["edges"]:
                preds[b].append(a)
            ingress = c["ingress"]
            late += [(t - (c["pump_t0"] + i / c["rate_fps"])) * 1e3
                     for i, t in enumerate(ingress)]
            backlog += [b for _, b in c["backlog"]]
            for frame in range(len(ingress)):
                stages = stage_spans.get((c["cell"], frame), {})
                for stage, (start, end) in stages.items():
                    service[stage].append(end - start)
                    if preds[stage]:
                        ends = [stages[p][1] for p in preds[stage] if p in stages]
                        if len(ends) != len(preds[stage]):
                            continue
                        ready = max(ends)
                    else:
                        ready = ingress[frame]
                    wait[stage].append(start - ready)
        for st in STAGES:
            out[f"pipeline.{x}.{st}.service_p50_ms"] = _median_ms(service[st])
            out[f"pipeline.{x}.{st}.wait_p50_ms"] = _median_ms(wait[st])
        out[f"pipeline.{x}.pump_late_p95_ms"] = float(np.percentile(late, 95))
        out[f"pipeline.{x}.backlog_max"] = float(max(backlog))

    # layers under the stream cells
    for fn in ("resize", "sharpen", "to_grayscale"):
        out[f"imaging.{fn}_ms"] = _median_ms(durs(f"imaging.{fn}", "stream"))
    flow = durs("optflow.farneback", "stream")
    frames = sum(len(c.get("ingress", ())) for c in cells.values())
    out["optflow.farneback_ms"] = _median_ms(flow)
    out["optflow.farneback_calls_per_frame"] = len(flow) / frames if frames else 0.0
    out["quantize.forward_ms"] = _median_ms(durs("quantize.forward", "stream"))
    for op in ("qconv", "qdense", "qmaxpool"):
        out[f"quantize.{op}_ms"] = _median_ms(durs(f"quantize.{op}", "stream"))

    # f32 encoder inference of the design loop, and encode calls per phase
    out["network.encode_ms"] = _median_ms(durs("network.encode.f32", "fitness", "sweep"))
    for p in ENCODE_PHASES:
        out[f"network.encode_calls.{p}"] = float(len(durs("network.encode.f32", p)))

    # training, inside the GA fitness evaluation
    train_spans = [e for e in spans if e["name"] == "workflow.train_bvae"]
    windows = [(e["ts"], e["ts"] + e["dur"]) for e in train_spans]

    def in_training(e):
        return any(t0 <= e["ts"] <= t1 for t0, t1 in windows)
    for kind in LAYER_KINDS:
        for direction in ("forward", "backward"):
            name = f"network.{kind}.{direction}"
            out[f"{name}_s"] = sum(e["dur"] for e in spans
                                   if e["name"] == name and in_training(e)) * 1e-6
    out["network.train.batches"] = float(len(durs("network.train.batch", "fitness")))

    out["oodcore.score_frame_ms"] = _median_ms(durs("oodcore.score_frame"))
    calib = durs("oodcore.build_calibration")
    out["oodcore.build_calibration_s"] = float(np.median(calib)) if calib else 0.0
    for fn in ("train_bvae", "calibrate_bvae", "evaluate_streams"):
        out[f"workflow.{fn}_s"] = sum(durs(f"workflow.{fn}", "fitness"))
    setups = len(durs("perfbench.setup", "setup"))
    out["dataset.generate_s"] = sum(durs("dataset.generate", "setup")) / max(setups, 1)
    return out
