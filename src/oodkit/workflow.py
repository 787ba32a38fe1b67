"""Glue between the phases: genome-driven preprocessing, detector bundles,
stream scoring, and the per-branch train/calibrate path that the GA fitness
loop and the CLI phases both drive."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import imaging
from .gasearch import BVAE, GRAY, Genome
from .imaging import Image
from .network import DetectorModel, TrainOpts, bvae_spec, of_encoder_spec, train
from .network.model import VAR
from .oodcore import (
    CalibrationSet,
    PostprocessConfig,
    auroc,
    build_calibration,
    check_calibration,
    harmonic_fitness,
    score_frame,  # noqa: F401 - perfbench's tracer patches workflow.score_frame
)
from .optflow import (
    FarnebackParams,
    FlowPyramid,
    expand_frame,
    farneback_flow,
    farneback_flows,
)
from .pipeline import build_graph, run_in_order


def preprocess_bvae(img: Image, genome: Genome) -> np.ndarray:
    """Genome-tuned preprocessing: color conversion, resize, scale to [0,1]."""
    if genome.color == GRAY:
        img = imaging.to_grayscale(img)
    h, w = genome.size
    img = imaging.resize(img, w, h, genome.interpolation)
    return img.pixels.astype(np.float32).transpose(2, 0, 1) / 255.0


@dataclass
class FlowHistory:
    """Streaming state of the flow frontend: the previous frame's expansion
    and the last `depth` (H, W, 2) flows, oldest first."""

    depth: int
    prev: Optional[FlowPyramid] = None
    flows: list = field(default_factory=list)


def _flow_frame(img: Image, genome: Genome) -> Image:
    """The flow frontend's per-image half: resize, sharpen, gray."""
    h, w = genome.size
    frame = imaging.resize(img, w, h, genome.interpolation)
    return imaging.to_grayscale(imaging.sharpen(frame))


def _uv_planes(flows) -> np.ndarray:
    """The read-only (2, T, H, W) f32 u and v planes of a run of T (H, W, 2)
    flows, given as one array or as a list."""
    uv = np.moveaxis(flows, -1, 0).copy()
    uv.flags.writeable = False
    return uv


def of_preprocess_step(img: Image, genome: Genome, fb: FarnebackParams,
                       hist: FlowHistory):
    """One frame through the flow frontend: resize, sharpen, polynomial
    expansion (kept for the next pair), dense flow against the previous
    frame, then channel stacking. Returns (u_stack, v_stack), each a
    read-only (depth, H, W) f32 array, or None while the history is warming
    up."""
    frame = expand_frame(_flow_frame(img, genome), fb)
    if hist.prev is not None:
        hist.flows.append(farneback_flow(hist.prev, frame, fb))
        del hist.flows[:-hist.depth]
    hist.prev = frame
    if len(hist.flows) < hist.depth:
        return None
    u, v = _uv_planes(hist.flows)
    return u, v


class _Detector:
    """A bundle: each encoder branch's calibration belongs to its model."""

    def __post_init__(self):
        for _, model, calib in self.branches:
            check_calibration(model, calib)


@dataclass
class BvaeBundle(_Detector):
    """Everything one image-detector deployment needs."""

    genome: Genome
    model: DetectorModel
    calib: CalibrationSet
    postprocess: PostprocessConfig

    @property
    def branches(self):
        """(stage name, model, calibration) of each encoder branch."""
        return (("encode", self.model, self.calib),)

    def frontend(self):
        """(preprocess callback, state factory): one input per branch."""
        genome = self.genome
        return (lambda img: (preprocess_bvae(img, genome),)), None


@dataclass
class FlowBundle(_Detector):
    """Flow-detector deployment: twin encoders with their own calibrations."""

    genome: Genome
    model_u: DetectorModel
    model_v: DetectorModel
    calib_u: CalibrationSet
    calib_v: CalibrationSet
    postprocess: PostprocessConfig
    farneback: FarnebackParams = FarnebackParams()

    @property
    def branches(self):
        return (("encoder_u", self.model_u, self.calib_u),
                ("encoder_v", self.model_v, self.calib_v))

    def frontend(self):
        """The callback returns (u_stack, v_stack), or None while the flow
        history warms up."""
        genome, fb = self.genome, self.farneback
        return (lambda img, hist: of_preprocess_step(img, genome, fb, hist),
                lambda: FlowHistory(depth=genome.flow_depth))


def score_stream(bundle, frames) -> np.ndarray:
    """Per-frame scores of one stream from the deployed detector graph, run in
    frame order in the calling thread with fresh state; warm-up frames that
    the detector leaves unscored are dropped."""
    return np.asarray([s for s in run_in_order(build_graph(bundle), frames)
                       if s is not None])


def evaluate_streams(score_stream_fn, streams: dict) -> tuple:
    """Per-factor AUROC of OOD streams against the 'id' streams, plus the
    harmonic-mean fitness. streams: partition name -> list of frame lists."""
    if "id" not in streams:
        raise ValueError("streams must include an 'id' partition")
    per_stream = {name: [score_stream_fn(seq) for seq in seqs]
                  for name, seqs in streams.items()}
    id_scores = np.concatenate(per_stream["id"])
    factor_auroc = {}
    for name, chunks in per_stream.items():
        if name == "id":
            continue
        factor_auroc[name] = auroc(id_scores, np.concatenate(chunks))
    fitness = harmonic_fitness(list(factor_auroc.values())) if factor_auroc else 0.0
    return factor_auroc, fitness


# ---------------------------------------------------------------------------
# Phase 2/3 loops

def encoder_inputs(genome: Genome, items, fb: FarnebackParams = FarnebackParams()) -> list:
    """One input list per encoder branch of the genome's family: the
    preprocessed images for bvae, or the u and the v flow stacks produced by
    the frontend over frame sequences for optflow."""
    if genome.family == BVAE:
        return [[preprocess_bvae(img, genome) for img in items]]
    us, vs = flow_stacks_for_sequences(genome, items, fb)
    if not us:
        raise ValueError("no flow stacks produced; sequences shorter than flow depth?")
    return [us, vs]


def train_encoders(genome: Genome, inputs, opts: TrainOpts, n_latent: int, beta: float,
                   variance_parametrization: str = VAR) -> list:
    """One trained f32 model per encoder branch, in encoder_inputs' order.
    The flow encoder's spec fixes its own variance parametrization."""
    meta = {"genome": genome.to_dict()}
    if genome.family == BVAE:
        spec = bvae_spec(genome.size[0], genome.size[1],
                         1 if genome.color == GRAY else 3,
                         n_latent=n_latent, beta=beta,
                         variance_parametrization=variance_parametrization)
        return [train(spec, inputs[0], opts, metadata=meta)]
    spec = of_encoder_spec(*inputs[0][0].shape[1:], genome.flow_depth,
                           n_latent=n_latent, beta=beta)
    return [train(spec, data, opts, metadata=dict(meta, branch=branch))
            for branch, data in zip("uv", inputs)]


@dataclass
class BvaeTrainContext:
    """Data and budgets needed to take any genome to a scored detector."""

    train_images: list
    calib_images: list
    test_streams: dict                  # partition -> list of Image streams
    opts: TrainOpts = TrainOpts()
    postprocess: PostprocessConfig = PostprocessConfig()
    n_latent: int = 8
    beta: float = 1e-3
    variance_parametrization: str = VAR


def train_bvae(genome: Genome, ctx: BvaeTrainContext) -> DetectorModel:
    [model] = train_encoders(genome, encoder_inputs(genome, ctx.train_images), ctx.opts,
                             ctx.n_latent, ctx.beta, ctx.variance_parametrization)
    return model


def calibrate_bvae(model: DetectorModel, genome: Genome, calib_images,
                   cfg: PostprocessConfig) -> CalibrationSet:
    [data] = encoder_inputs(genome, calib_images)
    return build_calibration(model, data, cfg)


def bvae_bundle_for_genome(genome: Genome, ctx: BvaeTrainContext) -> BvaeBundle:
    model = train_bvae(genome, ctx)
    calib = calibrate_bvae(model, genome, ctx.calib_images, ctx.postprocess)
    return BvaeBundle(genome, model, calib, ctx.postprocess)


def bvae_fitness(genome: Genome, ctx: BvaeTrainContext):
    """The GA objective: full train/calibrate/evaluate loop for one genome."""
    bundle = bvae_bundle_for_genome(genome, ctx)
    factor_auroc, fitness = evaluate_streams(
        lambda seq: score_stream(bundle, seq), ctx.test_streams)
    return fitness, factor_auroc


@dataclass
class FlowTrainContext:
    train_sequences: list               # lists of Images (consecutive frames)
    calib_sequences: list
    test_streams: dict                  # partition -> list of Image sequences
    opts: TrainOpts = TrainOpts(epochs=15)
    postprocess: PostprocessConfig = PostprocessConfig()
    farneback: FarnebackParams = FarnebackParams()
    n_latent: int = 12
    beta: float = 1e-3


# Frame pairs per solved block: the block's float64 five-channel planes,
# (pairs, H, W, 5), take about this many bytes, which stays inside one core's
# L2 cache. A whole split in one batch leaves the cache and is slower than
# solving pair by pair.
FLOW_BLOCK_BYTES = 1 << 20
# Within a block most of each numpy operation runs without the interpreter
# lock, so two threads overlap; per-pair arrays are too small for that.
FLOW_THREADS = min(2, os.cpu_count() or 1)


def flow_stacks_for_sequences(genome: Genome, sequences, fb: FarnebackParams):
    """All (u_stack, v_stack) pairs produced by the frontend over sequences,
    bit for bit those that of_preprocess_step yields frame by frame. The
    flows of each sequence are solved in blocks of consecutive frame pairs
    on FLOW_THREADS threads; the stacks are read-only views of them."""
    h, w = genome.size
    pairs = max(1, FLOW_BLOCK_BYTES // (h * w * 5 * 8))
    frames = [[_flow_frame(img, genome) for img in seq] for seq in sequences]
    blocks = [(k, seq[s:s + pairs + 1])
              for k, seq in enumerate(frames) for s in range(0, len(seq) - 1, pairs)]
    chunks = [[] for _ in frames]
    with ThreadPoolExecutor(FLOW_THREADS) as pool:
        for (k, _), flows in zip(blocks, pool.map(lambda b: farneback_flows(b[1], fb), blocks)):
            chunks[k].append(flows)
    depth = genome.flow_depth
    us, vs = [], []
    for seq_chunks in filter(None, chunks):
        u, v = _uv_planes(np.concatenate(seq_chunks))
        for t in range(depth, len(u) + 1):
            us.append(u[t - depth:t])
            vs.append(v[t - depth:t])
    return us, vs


def flow_bundle_for_genome(genome: Genome, ctx: FlowTrainContext) -> FlowBundle:
    def inputs(seqs):
        return encoder_inputs(genome, seqs, ctx.farneback)
    models = train_encoders(genome, inputs(ctx.train_sequences), ctx.opts,
                            ctx.n_latent, ctx.beta)
    calibs = [build_calibration(m, data, ctx.postprocess)
              for m, data in zip(models, inputs(ctx.calib_sequences))]
    return FlowBundle(genome, *models, *calibs, ctx.postprocess, ctx.farneback)


def flow_fitness(genome: Genome, ctx: FlowTrainContext):
    bundle = flow_bundle_for_genome(genome, ctx)
    factor_auroc, fitness = evaluate_streams(
        lambda seq: score_stream(bundle, seq), ctx.test_streams)
    return fitness, factor_auroc


def with_decay(bundle, decay: float):
    """Same bundle with a different CUSUM decay."""
    return replace(bundle, postprocess=replace(bundle.postprocess, decay=decay))


def sweep_decay(bundle, test_streams: dict, grid) -> tuple:
    """Evaluate fitness per decay value; returns (best_decay, table).
    Ties prefer the smaller decay."""
    grid = list(grid)
    if not grid:
        raise ValueError("decay grid is empty")
    table = []
    for d in grid:
        b = with_decay(bundle, d)
        _, fitness = evaluate_streams(lambda seq: score_stream(b, seq), test_streams)
        table.append((float(d), float(fitness)))
    best = max(table, key=lambda df: (df[1], -df[0]))
    return best[0], table
