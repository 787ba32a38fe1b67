from dataclasses import replace

import numpy as np
import pytest

from oodkit import imaging, workflow
from oodkit.config import default_config
from oodkit.dataset import (
    DatasetConfig,
    bvae_test_streams,
    generate_dataset,
    of_sequences,
    of_test_streams,
    split_images,
)
from oodkit.gasearch import Genome
from oodkit.imaging import SceneParams
from oodkit.network import TrainOpts, model_checksum, quantize_model
from oodkit.oodcore import CalibrationMismatchError, PostprocessConfig, build_calibration
from oodkit.optflow import FarnebackParams, farneback_flow
from oodkit.workflow import (
    BvaeBundle,
    BvaeTrainContext,
    FlowBundle,
    FlowHistory,
    FlowTrainContext,
    bvae_bundle_for_genome,
    bvae_fitness,
    evaluate_streams,
    flow_bundle_for_genome,
    flow_stacks_for_sequences,
    of_preprocess_step,
    preprocess_bvae,
    score_stream,
    sweep_decay,
    with_decay,
)

SCENE = SceneParams(width=32, height=32, shift_per_frame=2)


@pytest.fixture(scope="module")
def bvae_data():
    cfg = DatasetConfig(scenes=2, runs=3, frames_per_run=9, seed=3, scene=SCENE)
    return generate_dataset(cfg)


@pytest.fixture(scope="module")
def bvae_ctx(bvae_data):
    rows, images = bvae_data
    return BvaeTrainContext(
        train_images=split_images(rows, images, "train"),
        calib_images=split_images(rows, images, "calib"),
        test_streams=bvae_test_streams(rows, images),
        opts=TrainOpts(epochs=2, batch_size=16, seed=0),
        postprocess=PostprocessConfig(decay=0.1),
        n_latent=4, beta=1e-4)


def test_preprocess_bvae_shapes(bvae_data):
    rows, images = bvae_data
    img = images[rows[0].path]
    g_rgb = Genome("bvae", (16, 16), "bilinear", color="rgb")
    g_gray = Genome("bvae", (12, 12), "nearest", color="gray")
    a = preprocess_bvae(img, g_rgb)
    b = preprocess_bvae(img, g_gray)
    assert a.shape == (3, 16, 16) and b.shape == (1, 12, 12)
    assert a.dtype == np.float32
    assert 0.0 <= a.min() and a.max() <= 1.0


def test_bvae_fitness_pipeline_deterministic(bvae_ctx):
    genome = Genome("bvae", (16, 16), "bilinear", color="gray")
    f1, fa1 = bvae_fitness(genome, bvae_ctx)
    f2, fa2 = bvae_fitness(genome, bvae_ctx)
    assert f1 == f2 and fa1 == fa2
    assert set(fa1) == {"rain", "brightness"}
    assert 0.0 <= f1 <= 1.0


def test_score_stream_resets_state(bvae_ctx):
    genome = Genome("bvae", (16, 16), "bilinear", color="gray")
    bundle = bvae_bundle_for_genome(genome, bvae_ctx)
    stream = bvae_ctx.test_streams["id"][0]
    a = score_stream(bundle, stream)
    b = score_stream(bundle, stream)
    assert np.array_equal(a, b)
    assert len(a) == len(stream)


def test_bundle_refuses_another_models_calibration(bvae_ctx):
    genome = Genome("bvae", (16, 16), "bilinear", color="gray")
    bundle = bvae_bundle_for_genome(genome, bvae_ctx)
    reseeded = replace(bvae_ctx, opts=replace(bvae_ctx.opts, seed=1))
    other = bvae_bundle_for_genome(genome, reseeded)
    assert other.calib.precision_tag == bundle.model.precision
    with pytest.raises(CalibrationMismatchError, match="model checksum"):
        BvaeBundle(genome, bundle.model, other.calib, bundle.postprocess)


def test_bundle_refuses_a_calibration_of_another_quantization(bvae_ctx):
    """One f32 model quantized on two input sets: the int8 weights are equal,
    the activation sites are not, and neither the checksums nor the bundles
    mix them up."""
    genome = Genome("bvae", (16, 16), "bilinear", color="gray")
    model = bvae_bundle_for_genome(genome, bvae_ctx).model
    [calib] = workflow.encoder_inputs(genome, bvae_ctx.calib_images)
    [train] = workflow.encoder_inputs(genome, bvae_ctx.train_images)
    qa, qb = quantize_model(model, calib), quantize_model(model, train)
    assert qa.quantized.weights.keys() == qb.quantized.weights.keys()
    for name, t in qa.quantized.weights.items():
        assert np.array_equal(t.data, qb.quantized.weights[name].data), name
    assert model_checksum(qa) != model_checksum(qb)
    calib_b = build_calibration(qb, calib, bvae_ctx.postprocess)
    BvaeBundle(genome, qb, calib_b, bvae_ctx.postprocess)
    with pytest.raises(CalibrationMismatchError, match="model checksum"):
        BvaeBundle(genome, qa, calib_b, bvae_ctx.postprocess)


def test_evaluate_streams_requires_id():
    with pytest.raises(ValueError, match="'id'"):
        evaluate_streams(lambda s: np.zeros(len(s)), {"rain": [[1, 2]]})


def test_constant_scorer_gives_half_auroc(bvae_ctx):
    factor_auroc, fitness = evaluate_streams(
        lambda seq: np.zeros(len(seq)), bvae_ctx.test_streams)
    assert all(v == 0.5 for v in factor_auroc.values())
    assert fitness == 0.5


def test_all_id_partition_scores_near_half(bvae_ctx):
    # evaluating against an "OOD" partition that is actually ID data: no signal
    genome = Genome("bvae", (16, 16), "bilinear", color="gray")
    bundle = bvae_bundle_for_genome(genome, bvae_ctx)
    id_stream = bvae_ctx.test_streams["id"][0]
    half = len(id_stream) // 2
    streams = {"id": [id_stream[:half]], "fake_ood": [id_stream[half:]]}
    factor_auroc, _ = evaluate_streams(
        lambda s: score_stream(bundle, s), streams)
    assert abs(factor_auroc["fake_ood"] - 0.5) <= 0.2


def test_sweep_decay_single_point_and_tie(bvae_ctx):
    genome = Genome("bvae", (16, 16), "bilinear", color="gray")
    bundle = bvae_bundle_for_genome(genome, bvae_ctx)
    best, table = sweep_decay(bundle, bvae_ctx.test_streams, [0.3])
    assert best == 0.3 and len(table) == 1
    with pytest.raises(ValueError):
        sweep_decay(bundle, bvae_ctx.test_streams, [])
    b2 = with_decay(bundle, 0.7)
    assert b2.postprocess.decay == 0.7
    assert b2.model is bundle.model


def test_of_preprocess_warmup_contract():
    cfg = DatasetConfig(family="optflow", scenes=1, runs=4, frames_per_run=8,
                        seed=2, scene=SCENE)
    rows, images = generate_dataset(cfg)
    seq = of_sequences(rows, images, "train")[0]
    genome = Genome("optflow", (24, 32), "area", flow_depth=3)
    hist = FlowHistory(depth=3)
    fb = FarnebackParams(pyramid_levels=2)
    outs = [of_preprocess_step(img, genome, fb, hist) for img in seq]
    # frame 0 has no flow; flows accumulate until depth 3 is reached at frame 3
    assert outs[0] is None and outs[1] is None and outs[2] is None
    assert outs[3] is not None
    assert all(o is not None for o in outs[3:])
    for u, v in outs[3:]:
        assert u.shape == (3, 24, 32) and v.shape == (3, 24, 32)
        assert u.dtype == v.dtype == np.float32
        assert not u.flags.writeable and not v.flags.writeable
    assert len(hist.flows) == 3


def image_pair_stacks(genome, sequences, fb):
    """Reference frontend: each flow from a pair of Images, so every frame
    is expanded twice, once as next and once as prev."""
    us, vs = [], []
    h, w = genome.size
    for seq in sequences:
        frames = [imaging.to_grayscale(imaging.sharpen(
            imaging.resize(img, w, h, genome.interpolation))) for img in seq]
        flows = [farneback_flow(a, b, fb) for a, b in zip(frames, frames[1:])]
        for i in range(genome.flow_depth, len(flows) + 1):
            window = flows[i - genome.flow_depth:i]
            us.append(np.stack([f[..., 0] for f in window]))
            vs.append(np.stack([f[..., 1] for f in window]))
    return us, vs


@pytest.mark.parametrize("genome,fb", [
    (default_config("optflow").genome, default_config("optflow").farneback),
    (Genome("optflow", (24, 32), "area", flow_depth=3), FarnebackParams(pyramid_levels=2)),
])
def test_flow_stacks_equal_image_pair_reference(genome, fb):
    cfg = DatasetConfig(family="optflow", scenes=1, runs=4, frames_per_run=9,
                        seed=4, scene=SceneParams(width=96, height=64, shift_per_frame=2))
    rows, images = generate_dataset(cfg)
    seqs = of_sequences(rows, images, "train")
    got = flow_stacks_for_sequences(genome, seqs, fb)
    want = image_pair_stacks(genome, seqs, fb)
    assert len(got[0]) == len(want[0]) > 0
    for g_list, w_list in zip(got, want):
        for g, w in zip(g_list, w_list):
            assert g.shape == (genome.flow_depth,) + genome.size
            assert np.array_equal(g, w)


def stream_stacks(genome, sequences, fb):
    """Reference frontend: the deployed of_preprocess_step, frame by frame."""
    us, vs = [], []
    for seq in sequences:
        hist = FlowHistory(depth=genome.flow_depth)
        for img in seq:
            stacks = of_preprocess_step(img, genome, fb, hist)
            if stacks is not None:
                us.append(stacks[0])
                vs.append(stacks[1])
    return us, vs


def assert_same_stacks(got, want):
    assert len(got[0]) == len(want[0]) == len(got[1]) == len(want[1])
    for g_list, w_list in zip(got, want):
        for g, w in zip(g_list, w_list):
            assert g.dtype == w.dtype == np.float32
            assert np.array_equal(g, w)


def test_flow_hook_called_once_per_frame_pair(monkeypatch):
    """Tracers time the per-pair flow by wrapping workflow.farneback_flow:
    the stream goes through it once per frame pair. The set-up solves
    blocks of pairs instead, and must yield the stream's stacks."""
    cfg = DatasetConfig(family="optflow", scenes=2, runs=4, frames_per_run=7,
                        seed=2, scene=SCENE)
    rows, images = generate_dataset(cfg)
    genome = Genome("optflow", (24, 32), "area", flow_depth=2)
    fb = FarnebackParams(pyramid_levels=2)
    calls = []
    original = workflow.farneback_flow

    def counted(prev, nxt, params):
        calls.append(1)
        return original(prev, nxt, params)
    for seq in of_sequences(rows, images, "train"):
        assert_same_stacks(flow_stacks_for_sequences(genome, [seq], fb),
                           stream_stacks(genome, [seq], fb))
    monkeypatch.setattr(workflow, "farneback_flow", counted)
    ctx = FlowTrainContext(
        train_sequences=of_sequences(rows, images, "train"),
        calib_sequences=of_sequences(rows, images, "calib"),
        test_streams=of_test_streams(rows, images),
        opts=TrainOpts(epochs=1, batch_size=8, seed=0),
        farneback=fb, n_latent=4, beta=1e-4)
    bundle = flow_bundle_for_genome(genome, ctx)
    frames = ctx.test_streams["id"][0]
    calls.clear()
    scores = score_stream(bundle, frames)
    assert len(calls) == len(frames) - 1
    assert len(scores) == len(frames) - genome.flow_depth


def test_flow_bundle_and_scoring_small():
    cfg = DatasetConfig(family="optflow", scenes=2, runs=4, frames_per_run=10,
                        seed=2, scene=SCENE)
    rows, images = generate_dataset(cfg)
    genome = Genome("optflow", (24, 32), "area", flow_depth=2)
    ctx = FlowTrainContext(
        train_sequences=of_sequences(rows, images, "train"),
        calib_sequences=of_sequences(rows, images, "calib"),
        test_streams=of_test_streams(rows, images),
        opts=TrainOpts(epochs=2, batch_size=8, seed=0),
        postprocess=PostprocessConfig(decay=0.1),
        farneback=FarnebackParams(pyramid_levels=2),
        n_latent=4, beta=1e-4)
    bundle = flow_bundle_for_genome(genome, ctx)
    assert bundle.calib_u.precision_tag == "f32"
    with pytest.raises(CalibrationMismatchError, match="model checksum"):
        FlowBundle(genome, bundle.model_u, bundle.model_v, bundle.calib_v, bundle.calib_u,
                   bundle.postprocess, bundle.farneback)
    scores = score_stream(bundle, ctx.test_streams["id"][0])
    assert len(scores) == 10 - genome.flow_depth  # warm-up frames skipped
    factor_auroc, fitness = evaluate_streams(
        lambda s: score_stream(bundle, s), ctx.test_streams)
    assert set(factor_auroc) == {"rain", "snow"}
    assert 0.0 <= fitness <= 1.0


# (height, width): three pyramid levels fit 64 x 64 at scale 0.5
BLOCK_GENOME_SIZE = (64, 64)


@pytest.fixture(scope="module")
def block_sequences():
    """Sequences of 0, 1, 6, 7, 2, 8 and 3 frames; at 3 pairs a block, the
    8-frame one spans three blocks, the last holding a single pair."""
    cfg = DatasetConfig(family="optflow", scenes=1, runs=4, frames_per_run=8,
                        seed=5, scene=SceneParams(width=96, height=64, shift_per_frame=2))
    rows, images = generate_dataset(cfg)
    seq = of_sequences(rows, images, "train")[0]
    return [seq[:0], seq[:1], seq[:6], seq[:7], seq[:2], seq, seq[:3]]


@pytest.mark.parametrize("interpolation", imaging.RESIZE_METHODS)
@pytest.mark.parametrize("depth", [2, 6])
@pytest.mark.parametrize("levels,iterations", [(1, 3), (2, 1), (3, 2)])
def test_flow_blocks_equal_per_frame_steps(monkeypatch, block_sequences,
                                           interpolation, depth, levels, iterations):
    genome = Genome("optflow", BLOCK_GENOME_SIZE, interpolation, flow_depth=depth)
    fb = FarnebackParams(window_size=9, pyramid_levels=levels, iterations=iterations)
    h, w = BLOCK_GENOME_SIZE
    monkeypatch.setattr(workflow, "FLOW_BLOCK_BYTES", 3 * h * w * 5 * 8)
    got = flow_stacks_for_sequences(genome, block_sequences, fb)
    want = stream_stacks(genome, block_sequences, fb)
    assert len(got[0]) == sum(max(0, len(s) - depth) for s in block_sequences) > 0
    assert_same_stacks(got, want)
    for stack in got[0] + got[1]:
        assert stack.shape == (depth,) + BLOCK_GENOME_SIZE
        assert not stack.flags.writeable


def test_flow_blocks_of_one_pair_and_of_a_whole_sequence(monkeypatch, block_sequences):
    genome = Genome("optflow", BLOCK_GENOME_SIZE, "bilinear", flow_depth=3)
    fb = FarnebackParams(pyramid_levels=3)
    want = stream_stacks(genome, block_sequences, fb)
    for block_bytes in (1, 1 << 40):
        monkeypatch.setattr(workflow, "FLOW_BLOCK_BYTES", block_bytes)
        assert_same_stacks(flow_stacks_for_sequences(genome, block_sequences, fb), want)


def test_flow_blocks_under_frequent_thread_switches(monkeypatch, block_sequences):
    """More threads than cores, one pair a block, the kernels' shared caches
    filled from the workers, and a thread switch every 10 µs."""
    import sys

    from oodkit import optflow
    genome = Genome("optflow", BLOCK_GENOME_SIZE, "nearest", flow_depth=2)
    fb = FarnebackParams(pyramid_levels=3, iterations=2)
    want = stream_stacks(genome, block_sequences, fb)
    monkeypatch.setattr(workflow, "FLOW_THREADS", 4)
    monkeypatch.setattr(workflow, "FLOW_BLOCK_BYTES", 1)
    for cached in (optflow._edge_index, optflow._gaussian_taps, optflow._border_scale,
                   optflow._pixel_grid, optflow._pair_offsets):
        cached.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = flow_stacks_for_sequences(genome, block_sequences, fb)
    finally:
        sys.setswitchinterval(interval)
    assert_same_stacks(got, want)


def poisoned(original, when):
    def kernel(*args):
        out = original(*args)
        if when(*args):
            out = out.copy()
            out[..., 1, 2, 0] = np.nan
        return out
    return kernel


@pytest.mark.parametrize("failure", ["nan_flow", "worker_raises"])
def test_flow_block_failures_surface_and_threads_end(monkeypatch, block_sequences, failure):
    import threading

    from oodkit import optflow
    genome = Genome("optflow", BLOCK_GENOME_SIZE, "area", flow_depth=2)
    fb = FarnebackParams(pyramid_levels=2)
    h, w = BLOCK_GENOME_SIZE
    monkeypatch.setattr(workflow, "FLOW_BLOCK_BYTES", 3 * h * w * 5 * 8)
    before = threading.active_count()
    flow_stacks_for_sequences(genome, block_sequences, fb)
    assert threading.active_count() == before
    if failure == "nan_flow":
        # only the single-pair blocks' flows turn non-finite
        monkeypatch.setattr(optflow, "_solve", poisoned(
            optflow._solve, lambda planes0, planes1, params: planes0[0].shape[:-3] == (1,)))
        expected = pytest.raises(ValueError, match="flow field contains non-finite values")
    else:
        original = workflow.farneback_flows

        def flows(frames, params):
            if len(frames) == 2:
                raise RuntimeError("worker failed")
            return original(frames, params)
        monkeypatch.setattr(workflow, "farneback_flows", flows)
        expected = pytest.raises(RuntimeError, match="worker failed")
    with expected:
        flow_stacks_for_sequences(genome, block_sequences, fb)
    assert threading.active_count() == before
