"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The heavy end-to-end criteria drive the same CLI/workflow paths a user would,
at desk scale with fixed seeds, and assert the stated tolerances.
"""

import json
import time

import numpy as np
import pytest

from oodkit.cli import main as cli_main
from oodkit.config import config_to_dict, default_config
from oodkit.dataset import bvae_test_streams, generate_dataset, of_test_streams, split_images
from oodkit.gasearch import (
    BVAE,
    Bucket,
    GAConfig,
    Genome,
    MemoizedEvaluator,
    run_ga,
)
from oodkit.imaging import adjust_brightness, augment_rain, synth_scene
from oodkit.network import TrainOpts, mig_score
from oodkit.network.model import (
    BatchNormSpec,
    ConvSpec,
    DenseSpec,
    FlattenSpec,
    LOG_VAR,
    MaxPoolSpec,
    ModelSpec,
    ReluSpec,
    VAR,
    build_encoder,
)
from oodkit.oodcore import auroc, harmonic_fitness, icp_pvalue, kl_nonconformity, \
    mixture_martingale, CalibrationSet, PostprocessConfig
from oodkit.optflow import farneback_flow
from oodkit.pipeline import (
    CHAIN_MT,
    MONO_MT,
    MONO_ST,
    CallbackGraph,
    ExecutorKind,
    Stage,
    build_graph,
    run_stream,
    throughput_sweep,
)
from oodkit.tensor import calibrate_quant_params, dequantize, f32_to_f16, quantize_affine
from oodkit.workflow import (
    BvaeTrainContext,
    FlowTrainContext,
    bvae_bundle_for_genome,
    bvae_fitness,
    evaluate_streams,
    flow_bundle_for_genome,
    score_stream,
)

from test_network import run_gradcheck
from test_optflow import textured_frame
from test_tensor import f16_bits_reference


def report(criterion, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. Formula suite

def mixture_integral_oracle(ps, n_points=200001):
    eps = np.linspace(0.0, 1.0, n_points)[1:]
    logf = len(ps) * np.log(eps) + (eps - 1.0) * np.sum(np.log(ps))
    return float(np.trapezoid(np.exp(logf), dx=1.0 / (n_points - 1)))


def test_criterion_1_formula_suite():
    t0 = time.time()
    for n in range(1, 21):
        assert abs(mixture_martingale([1.0] * n) - 1.0 / (n + 1)) <= 1e-6
    assert abs(mixture_martingale([0.5]) - mixture_integral_oracle([0.5])) <= 1e-4

    calib = CalibrationSet(np.arange(1.0, 10.0), "f32", "00000000")
    assert icp_pvalue(10.0, calib) == 0.1
    assert icp_pvalue(0.0, calib) == 1.0
    assert icp_pvalue(5.0, calib) == 0.6

    from oodkit.network.model import LatentOutput
    assert abs(kl_nonconformity(LatentOutput(np.float64([1.0]), np.float64([1.0]))) - 0.5) <= 1e-9
    expected = 0.5 * (0.25 - np.log(0.25) - 1)
    assert abs(kl_nonconformity(LatentOutput(np.float64([0.0]), np.float64([0.25])))
               - expected) <= 1e-9
    assert abs(harmonic_fitness([0.823, 0.5]) - 0.6221) <= 1e-4

    rng = np.random.default_rng(1001)
    for _ in range(200):
        n_id = int(rng.integers(1, 51))
        n_ood = int(rng.integers(1, 51))
        ids = rng.integers(0, 8, n_id) / 2.0
        oods = rng.integers(0, 8, n_ood) / 2.0
        fast = auroc(ids, oods)
        brute = sum(1.0 if o > i else 0.5 if o == i else 0.0
                    for o in oods for i in ids) / (n_id * n_ood)
        assert fast == pytest.approx(brute, abs=1e-12)

    qp = calibrate_quant_params([np.float32([-4.0, 6.0])], "asymmetric")
    xs = rng.uniform(-4.0, 6.0, 100_000).astype(np.float32)
    err = np.abs(xs - dequantize(quantize_affine(xs, qp)).data)
    assert err.max() <= qp.scale / 2 + 1e-7

    vals = np.concatenate([
        rng.uniform(-70000, 70000, 4000),
        rng.uniform(-1.0, 1.0, 4000),
        rng.uniform(-1e-4, 1e-4, 2000),
    ]).astype(np.float32)
    for v in vals:
        assert f32_to_f16(v) == f16_bits_reference(v)

    elapsed = time.time() - t0
    report(1, elapsed < 20, f"formula suite exact/tolerance checks ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. Gradient check

def test_criterion_2_gradient_check():
    t0 = time.time()
    spec = ModelSpec((8, 8), 1,
                     (ConvSpec(2, 3, 1, 1), BatchNormSpec(), ReluSpec(), MaxPoolSpec(2),
                      FlattenSpec(), DenseSpec(4), ReluSpec()),
                     2, 0.5, LOG_VAR)
    worst = run_gradcheck(spec, seed=42, h=1e-3, subsample=None)  # every parameter
    elapsed = time.time() - t0
    report(2, worst < 1e-3 and elapsed < 30,
           f"max relative gradient error {worst:.2e} over all layer kinds ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 3. Dense optical flow

def test_criterion_3_farneback():
    t0 = time.time()
    frame = textured_frame(7, size=64)
    still = farneback_flow(frame, frame)
    max_still = max(np.abs(still[..., 0]).max(), np.abs(still[..., 1]).max())

    prev = textured_frame(7, size=64, shift=0)
    nxt = textured_frame(7, size=64, shift=3)
    flow = farneback_flow(prev, nxt)
    inner = np.s_[8:56, 8:56]  # central 75%
    epe = np.sqrt((flow[..., 0][inner] - 3.0) ** 2 + flow[..., 1][inner] ** 2).mean()
    elapsed = time.time() - t0
    report(3, max_still <= 0.1 and epe <= 0.5 and elapsed < 10,
           f"still max {max_still:.3f}px, (3,0) translation mean EPE {epe:.3f}px ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# Shared desk-scale artifacts

@pytest.fixture(scope="module")
def bvae_cfg():
    return default_config(BVAE)


@pytest.fixture(scope="module")
def bvae_data(bvae_cfg):
    return generate_dataset(bvae_cfg.dataset)


@pytest.fixture(scope="module")
def bvae_run(tmp_path_factory, bvae_cfg):
    """Criterion 5 driven through the CLI: the phase 1-3 command sequence."""
    run = tmp_path_factory.mktemp("bvae_run")
    cfg_path = run / "cfg.json"
    cfg_path.write_text(json.dumps(config_to_dict(bvae_cfg)))
    r = str(run)
    assert cli_main(["--run-dir", r, "--config", str(cfg_path), "dataset-generate"]) == 0
    assert cli_main(["--run-dir", r, "train"]) == 0
    assert cli_main(["--run-dir", r, "calibrate", "--precision", "f32"]) == 0
    assert cli_main(["--run-dir", r, "sweep-delta"]) == 0
    assert cli_main(["--run-dir", r, "evaluate", "--precision", "f32"]) == 0
    assert cli_main(["--run-dir", r, "quantize"]) == 0
    assert cli_main(["--run-dir", r, "evaluate", "--precision", "qint8"]) == 0
    return run


def test_criterion_5_bvae_end_to_end(bvae_run):
    f32 = json.loads((bvae_run / "eval" / "evaluate_f32.json").read_text())
    q = json.loads((bvae_run / "eval" / "evaluate_qint8.json").read_text())
    delta = abs(q["fitness"] - f32["fitness"])
    report(5, f32["fitness"] >= 0.85 and delta <= 0.05,
           f"f32 fitness {f32['fitness']:.4f} (>= 0.85), qint8 fitness {q['fitness']:.4f}, "
           f"|delta| {delta:.4f} (<= 0.05), swept decay {f32['decay']:g}")


# ---------------------------------------------------------------------------
# 4. Variance parametrization and disentanglement

def test_criterion_4_variance_parametrization(bvae_cfg, bvae_data):
    t0 = time.time()
    # range invariants with a ReLU head, by construction
    spec_kwargs = dict(n_latent=6, beta=1e-3)
    from oodkit.network import bvae_spec
    rng = np.random.default_rng(5)
    from oodkit.network.model import DetectorModel
    ranges_ok = True
    for vp, check in ((LOG_VAR, lambda v: v.min() >= 1.0 - 1e-6),
                      ("neg_log_var", lambda v: v.max() <= 1.0 + 1e-6)):
        spec = bvae_spec(32, 32, 1, variance_parametrization=vp, **spec_kwargs)
        model = DetectorModel(spec, "f32", build_encoder(spec, rng))
        for _ in range(25):
            lat = model.encode(rng.uniform(0, 1, (1, 32, 32)).astype(np.float32))
            ranges_ok = ranges_ok and bool(check(lat.var))

    # trained comparison on the factor-labeled probe set
    rows, images = bvae_data
    train_imgs = split_images(rows, images, "train")
    genome = bvae_cfg.genome
    from oodkit.workflow import preprocess_bvae, train_bvae

    rain_levels = [0.0, 0.003, 0.006, 0.009]
    bright_levels = [-0.6, -0.2, 0.2, 0.6]
    probe, rain_f, bright_f = [], [], []
    k = 0
    for scene in range(5):
        for fi in range(4):
            for ri, r in enumerate(rain_levels):
                for bi, b in enumerate(bright_levels):
                    img = synth_scene(scene, fi * 7, bvae_cfg.dataset.scene)
                    if r > 0:
                        img = augment_rain(img, r, seed=k)
                    img = adjust_brightness(img, b)
                    probe.append(preprocess_bvae(img, genome))
                    rain_f.append(ri)
                    bright_f.append(bi)
                    k += 1
    factors = {"rain": np.array(rain_f), "brightness": np.array(bright_f)}

    migs = {}
    for vp in (VAR, LOG_VAR):
        ctx = BvaeTrainContext(train_images=train_imgs, calib_images=[], test_streams={},
                               opts=TrainOpts(epochs=30, batch_size=16, lr=1e-3, seed=0),
                               n_latent=16, beta=1e-3, variance_parametrization=vp)
        migs[vp] = mig_score(train_bvae(genome, ctx), probe, factors, n_bins=20)
    elapsed = time.time() - t0
    report(4, ranges_ok and migs[VAR] > migs[LOG_VAR] and elapsed < 300,
           f"sigma^2 ranges exact; MIG var={migs[VAR]:.4f} > log_var={migs[LOG_VAR]:.4f} "
           f"({elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 6. GA suite

def synthetic_12_genome_table(bucket):
    interp_gain = {"nearest": 0.00, "bilinear": 0.05, "bicubic": 0.02}
    table = {}
    for size in sorted(bucket.sizes):
        for interp in bucket.interpolations:
            for color in bucket.colors:
                f = (0.55 + (0.12 if size == max(bucket.sizes) else 0.0)
                     + interp_gain[interp] + (0.04 if color == "gray" else 0.0)
                     + (0.02 if (interp == "bilinear" and color == "gray") else 0.0))
                table[Genome(BVAE, size, interp, color=color)] = round(f, 6)
    return table


@pytest.fixture(scope="module")
def mini_real_ga(bvae_data):
    """A small GA over real trainings, shared with criterion 7(c)."""
    rows, images = bvae_data
    winners = {}
    evaluators = {}
    histories = {}
    buckets = {"S": [12, 16], "M": [24, 32], "L": [48, 56]}
    for name, widths in buckets.items():
        bucket = Bucket(name, BVAE, tuple((w, w) for w in widths),
                        ("nearest", "bilinear", "bicubic"), ("rgb", "gray"))
        ctx = BvaeTrainContext(
            train_images=split_images(rows, images, "train"),
            calib_images=split_images(rows, images, "calib"),
            test_streams=bvae_test_streams(rows, images),
            opts=TrainOpts(epochs=1, batch_size=16, seed=0),
            postprocess=PostprocessConfig(window=20, decay=0.1),
            n_latent=8, beta=1e-4)
        evaluator = MemoizedEvaluator(lambda g, c=ctx: bvae_fitness(g, c))
        best, hist = run_ga(bucket, GAConfig(population=3, generations=1, seed=0),
                            evaluator)
        winners[name] = best
        evaluators[name] = evaluator
        histories[name] = hist
    return winners, evaluators, histories


def test_criterion_6_ga_suite(mini_real_ga):
    t0 = time.time()
    bucket = Bucket("T", BVAE, ((8, 8), (12, 12)),
                    ("nearest", "bilinear", "bicubic"), ("rgb", "gray"))
    table = synthetic_12_genome_table(bucket)
    optimum = max(table.values())
    hits = 0
    for seed in range(100):
        ev = MemoizedEvaluator(lambda g: (table[g], {}))
        best, hist = run_ga(bucket, GAConfig(population=5, mutation_rate=0.2,
                                             generations=16, seed=seed), ev)
        if table[best] == optimum:
            hits += 1
        curve = hist.best_curve()
        assert all(b >= a for a, b in zip(curve, curve[1:]))

    _, evaluators, histories = mini_real_ga
    memo_ok = True
    for name, ev in evaluators.items():
        distinct = len({r.genome for r in histories[name].records})
        memo_ok = memo_ok and ev.evaluations <= distinct
    elapsed = time.time() - t0
    report(6, hits >= 95 and memo_ok,
           f"synthetic optimum found in {hits}/100 seeds (>= 95); real-run trainings "
           f"<= distinct genomes in all buckets ({elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 7. Executor suite

def _load_run_bundle(run):
    from oodkit.cli import _load_bundle
    from oodkit.config import load_config

    class _Args:
        pass

    cfg = load_config(run / "config.json")
    return _load_bundle(run, cfg, "f32")


def test_criterion_7_executors(bvae_run, bvae_data, mini_real_ga, bvae_cfg):
    t0 = time.time()
    # (a) bit-equivalence on a 200-frame stream of the real detector
    bundle = _load_run_bundle(bvae_run)
    rows, images = bvae_data
    streams = bvae_test_streams(rows, images)
    base = streams["id"][0] + streams["rain"][0]
    frames = (base * ((200 // len(base)) + 1))[:200]
    kinds = (ExecutorKind(CHAIN_MT), ExecutorKind(MONO_ST), ExecutorKind(MONO_MT, workers=2))
    seqs = []
    for kind in kinds:
        scores, _ = run_stream(build_graph(bundle), kind,
                               {"frames": frames, "rate_fps": None}, warmup=20)
        seqs.append(scores)
    equal = seqs[0] == seqs[1] == seqs[2]

    # (b) synthetic-delay graphs
    def sleep_graph():
        def stage(x):
            time.sleep(0.01)
            return x
        return CallbackGraph([Stage("s1", stage), Stage("s2", stage), Stage("s3", stage)],
                             [("s1", "s2"), ("s2", "s3")])

    _, rep = run_stream(sleep_graph(), ExecutorKind(MONO_ST),
                        {"frames": [0] * 40, "rate_fps": 5}, warmup=10)
    mono_ok = 0.8 * 0.030 <= rep.mean <= 1.2 * 0.030
    tp = throughput_sweep(sleep_graph(), ExecutorKind(CHAIN_MT), [200], 1.5, lambda i: 0)
    chain_cap = tp.entries[0].sustained_fps
    chain_ok = 0.8 * 100 <= chain_cap <= 1.2 * 100

    # (c) response time strictly increasing in input size across bucket winners
    winners, _, _ = mini_real_ga
    means = []
    for name in ("S", "M", "L"):
        genome = winners[name]
        ctx = BvaeTrainContext(
            train_images=split_images(rows, images, "train"),
            calib_images=split_images(rows, images, "calib"),
            test_streams={}, opts=TrainOpts(epochs=1, batch_size=16, seed=0),
            postprocess=PostprocessConfig(window=20, decay=0.1),
            n_latent=8, beta=1e-4)
        wb = bvae_bundle_for_genome(genome, ctx)
        _, wrep = run_stream(build_graph(wb), ExecutorKind(MONO_ST),
                             {"frames": frames[:120], "rate_fps": 20}, warmup=20)
        means.append((genome.size[0], wrep.mean))
    trend_ok = means[0][1] < means[1][1] < means[2][1]
    elapsed = time.time() - t0
    report(7, equal and mono_ok and chain_ok and trend_ok and elapsed < 300,
           f"scores bit-identical across executors; mono_st mean {rep.mean * 1e3:.1f}ms "
           f"(~30ms); chain capacity {chain_cap:.0f}fps (~100); winner responses "
           f"{[(s, round(m * 1e3, 2)) for s, m in means]} strictly increasing ({elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# 8. Optical-flow end to end

def test_criterion_8_optical_flow_end_to_end():
    t0 = time.time()
    cfg = default_config("optflow")
    rows, images = generate_dataset(cfg.dataset)
    genome = Genome("optflow", (48, 64), "area", flow_depth=6)
    from oodkit.dataset import of_sequences
    ctx = FlowTrainContext(
        train_sequences=of_sequences(rows, images, "train"),
        calib_sequences=of_sequences(rows, images, "calib"),
        test_streams=of_test_streams(rows, images),
        opts=TrainOpts(epochs=10, batch_size=16, lr=1e-3, seed=0),
        postprocess=PostprocessConfig(window=20, decay=0.1),
        farneback=cfg.farneback, n_latent=12, beta=1e-4)
    bundle = flow_bundle_for_genome(genome, ctx)
    factor_auroc, fitness = evaluate_streams(
        lambda s: score_stream(bundle, s), ctx.test_streams)

    id_frames = ctx.test_streams["id"][0]
    tp = throughput_sweep(build_graph(bundle), ExecutorKind(MONO_ST), [4.0, 150.0], 1.5,
                          lambda i: id_frames[i % len(id_frames)])
    knee = tp.knee()
    low = tp.entries[0]
    elapsed = time.time() - t0
    report(8, fitness >= 0.8 and low.sustained and knee == 150.0 and elapsed < 1200,
           f"fitness {fitness:.4f} (>= 0.8) with {({k: round(v, 3) for k, v in factor_auroc.items()})}; "
           f"sustained at 4fps, capacity knee at {knee}fps ({elapsed:.0f}s)")
