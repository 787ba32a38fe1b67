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
from oodkit.optflow import FarnebackParams, farneback_flow, stack_flows
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
    u, v = outs[3]
    assert u.shape == (3, 24, 32) and v.shape == (3, 24, 32)
    assert all(o is not None for o in outs[3:])


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
            u, v = stack_flows(flows[:i], genome.flow_depth)
            us.append(u)
            vs.append(v)
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


def test_flow_hook_called_once_per_frame_pair(monkeypatch):
    """Tracers time the per-pair flow by wrapping workflow.farneback_flow:
    the set-up and the stream both go through it once per frame pair."""
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
    monkeypatch.setattr(workflow, "farneback_flow", counted)
    for seq in of_sequences(rows, images, "train"):
        calls.clear()
        flow_stacks_for_sequences(genome, [seq], fb)
        assert len(calls) == len(seq) - 1
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
