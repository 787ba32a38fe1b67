"""The executor core: offline scoring runs the deployed detector graph in frame
order, matches the per-frame scoring loops and every threaded executor, and
every kind of run ends its threads when a stage fails."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import oodkit
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
from oodkit.network import bvae_spec, of_encoder_spec
from oodkit.network.model import DetectorModel, build_encoder
from oodkit.oodcore import (
    CalibrationMismatchError,
    DetectorState,
    PostprocessConfig,
    build_calibration,
    score_frame,
)
from oodkit.optflow import FarnebackParams
from oodkit.pipeline import (
    CHAIN_MT,
    MONO_MT,
    MONO_ST,
    CallbackGraph,
    ExecutorKind,
    Stage,
    _execute,
    build_graph,
    run_in_order,
    run_stream,
)
from oodkit.tensor import F32
from oodkit.workflow import (
    BvaeBundle,
    FlowBundle,
    FlowHistory,
    calibrate_bvae,
    flow_stacks_for_sequences,
    of_preprocess_step,
    preprocess_bvae,
    score_stream,
)

SCENE = SceneParams(width=32, height=32, shift_per_frame=2)
KINDS = (ExecutorKind(CHAIN_MT), ExecutorKind(MONO_ST), ExecutorKind(MONO_MT, workers=3))
PP = PostprocessConfig(window=5, decay=0.1)


@pytest.fixture(scope="module")
def bvae_case():
    """Seeded untrained encoder with its calibration, and one id+rain stream."""
    rows, images = generate_dataset(DatasetConfig(scenes=2, runs=3, frames_per_run=9,
                                                  seed=3, scene=SCENE))
    genome = Genome("bvae", (16, 16), "bilinear", color="gray")
    spec = bvae_spec(16, 16, 1, n_latent=4)
    model = DetectorModel(spec, F32, build_encoder(spec, np.random.default_rng(7)))
    calib = calibrate_bvae(model, genome, split_images(rows, images, "calib"), PP)
    streams = bvae_test_streams(rows, images)
    return BvaeBundle(genome, model, calib, PP), streams["id"][0] + streams["rain"][0]


@pytest.fixture(scope="module")
def flow_case():
    """Seeded untrained twin encoders with their calibrations, and one stream."""
    rows, images = generate_dataset(DatasetConfig(family="optflow", scenes=1, runs=4,
                                                  frames_per_run=10, seed=2, scene=SCENE))
    genome = Genome("optflow", (24, 32), "area", flow_depth=2)
    fb = FarnebackParams(pyramid_levels=2)
    calib_u, calib_v = flow_stacks_for_sequences(
        genome, of_sequences(rows, images, "calib"), fb)
    spec = of_encoder_spec(24, 32, genome.flow_depth, n_latent=4)
    rng_u, rng_v = (np.random.default_rng(s) for s in (11, 12))
    model_u = DetectorModel(spec, F32, build_encoder(spec, rng_u))
    model_v = DetectorModel(spec, F32, build_encoder(spec, rng_v))
    bundle = FlowBundle(genome, model_u, model_v, build_calibration(model_u, calib_u, PP),
                        build_calibration(model_v, calib_v, PP), PP, fb)
    return bundle, of_test_streams(rows, images)["rain"][0]


def bvae_oracle(bundle, images):
    """The per-frame scoring loop: preprocess, encode, score_frame."""
    state = DetectorState(window=bundle.postprocess.window)
    scores = []
    for img in images:
        latent = bundle.model.encode(preprocess_bvae(img, bundle.genome))
        state, s = score_frame(state, latent, bundle.calib, bundle.postprocess)
        scores.append(s)
    return np.asarray(scores)


def flow_oracle(bundle, images):
    """The per-frame flow scoring loop: one state per encoder, warm-up skipped."""
    hist = FlowHistory(depth=bundle.genome.flow_depth)
    state_u = DetectorState(window=bundle.postprocess.window)
    state_v = DetectorState(window=bundle.postprocess.window)
    scores = []
    for img in images:
        stacks = of_preprocess_step(img, bundle.genome, bundle.farneback, hist)
        if stacks is None:
            continue
        lat_u = bundle.model_u.encode(stacks[0])
        lat_v = bundle.model_v.encode(stacks[1])
        state_u, s_u = score_frame(state_u, lat_u, bundle.calib_u, bundle.postprocess)
        state_v, s_v = score_frame(state_v, lat_v, bundle.calib_v, bundle.postprocess)
        scores.append(max(s_u, s_v))
    return np.asarray(scores)


def test_score_stream_matches_per_frame_loops(bvae_case, flow_case):
    bundle, frames = bvae_case
    got, want = score_stream(bundle, frames), bvae_oracle(bundle, frames)
    assert got.dtype == want.dtype and len(got) == len(frames)
    assert np.array_equal(got, want)
    bundle, frames = flow_case
    got, want = score_stream(bundle, frames), flow_oracle(bundle, frames)
    assert got.dtype == want.dtype and len(got) == len(frames) - bundle.genome.flow_depth
    assert np.array_equal(got, want)


@pytest.mark.parametrize("case", ["bvae_case", "flow_case"])
def test_score_stream_matches_every_executor(case, request):
    bundle, frames = request.getfixturevalue(case)
    offline = score_stream(bundle, frames)
    for kind in KINDS:
        scores, _ = run_stream(build_graph(bundle), kind,
                               {"frames": frames, "rate_fps": None}, warmup=2)
        assert np.array_equal(offline, np.asarray([s for s in scores if s is not None]))


@pytest.mark.parametrize("case,stages,edges", [
    ("bvae_case", ["preprocess", "encode", "postprocess"],
     [("preprocess", "encode"), ("encode", "postprocess")]),
    ("flow_case", ["preprocess", "encoder_u", "encoder_v", "postprocess"],
     [("preprocess", "encoder_u"), ("preprocess", "encoder_v"),
      ("encoder_u", "postprocess"), ("encoder_v", "postprocess")]),
])
def test_graph_shape_pinned(case, stages, edges, request):
    """The stage names and edges of each family's graph: the benchmark's
    per-stage metric keys. Only the flow frontend keeps state, so mono_mt may
    run bvae preprocessing in parallel. Every build makes fresh stages, since
    tracers wrap stage callbacks in place."""
    bundle, _ = request.getfixturevalue(case)
    graph = build_graph(bundle)
    assert [st.name for st in graph.stages] == stages
    assert graph.edges == edges
    assert (graph.stages[0].state_factory is not None) == (case == "flow_case")
    again = build_graph(bundle)
    assert all(a is not b for a, b in zip(graph.stages, again.stages))


def test_flow_bundle_refuses_another_models_calib_v(flow_case):
    """Each branch is checked: the u pair is right, calib_v is model_u's."""
    b, _ = flow_case
    with pytest.raises(CalibrationMismatchError, match="model checksum"):
        FlowBundle(b.genome, b.model_u, b.model_v, b.calib_u, b.calib_u,
                   b.postprocess, b.farneback)


def test_pipeline_does_not_import_workflow():
    """The graph layer stands below the bundles: workflow imports pipeline,
    never the reverse."""
    code = ("import sys, oodkit.pipeline; "
            "assert 'oodkit.workflow' not in sys.modules")
    src = str(Path(oodkit.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                   check=True)


def _diamond(fail_at=None):
    """Diamond graph whose v branch raises on frame value fail_at."""
    def v(x):
        if x == fail_at:
            raise RuntimeError("stage fault")
        return x + 100
    return CallbackGraph(
        [Stage("pre", lambda x: x), Stage("u", lambda x: x * 10), Stage("v", v),
         Stage("j", lambda pair: pair[0] + pair[1]),
         Stage("post", lambda x, st: x, state_factory=dict)],
        [("pre", "u"), ("pre", "v"), ("u", "j"), ("v", "j"), ("j", "post")])


@pytest.mark.parametrize("at", [0, 17])
def test_failure_propagates_and_threads_end(at):
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="stage fault"):
        run_in_order(_diamond(at), range(40))
    assert threading.active_count() == before
    for kind in KINDS:
        with pytest.raises(RuntimeError, match="stage fault"):
            _execute(_diamond(at), kind, {"frames": list(range(40)), "rate_fps": None})
        assert threading.active_count() == before, kind


@pytest.mark.parametrize("kind,groups", [(ExecutorKind(CHAIN_MT), 3), (ExecutorKind(MONO_ST), 1),
                                         (ExecutorKind(MONO_MT, workers=3), 3)])
def test_one_thread_per_served_group(kind, groups):
    """An executor run starts one thread per served stage group and no other."""
    before = threading.active_count()
    seen = []

    def stage(x):
        seen.append(threading.active_count())
        return x
    graph = CallbackGraph([Stage("a", stage), Stage("b", stage), Stage("c", stage)],
                          [("a", "b"), ("b", "c")])
    _execute(graph, kind, {"frames": list(range(20)), "rate_fps": None})
    assert len(seen) == 60 and set(seen) == {before + groups}


def test_run_in_order_starts_no_thread():
    seen = set()

    def stage(x):
        seen.add(threading.get_ident())
        return x
    graph = CallbackGraph([Stage("a", stage), Stage("b", stage)], [("a", "b")])
    assert run_in_order(graph, range(5)) == list(range(5))
    assert seen == {threading.get_ident()}


def test_executors_under_fast_thread_switching():
    """More workers than cores and a short switch interval: every kind must
    finish and give the in-order results."""
    frames = list(range(300))
    want = run_in_order(_diamond(), frames)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for kind in KINDS + (ExecutorKind(MONO_MT, workers=6),):
            out = []
            t = threading.Thread(target=lambda: out.append(_execute(
                _diamond(), kind, {"frames": frames, "rate_fps": None})))
            t.start()
            t.join(timeout=60)
            assert not t.is_alive(), kind
            assert out and out[0].scores == want, kind
    finally:
        sys.setswitchinterval(old)
