import time

import numpy as np
import pytest

from oodkit.pipeline import (
    CHAIN_MT,
    MONO_MT,
    MONO_ST,
    BenchConfig,
    CallbackGraph,
    ExecutorKind,
    Stage,
    TimingReport,
    _execute,
    bench_matrix,
    bench_rows_to_csv,
    run_stream,
    throughput_sweep,
)

ALL_KINDS = (ExecutorKind(CHAIN_MT), ExecutorKind(MONO_ST), ExecutorKind(MONO_MT, workers=3))


def chain_graph():
    return CallbackGraph(
        [Stage("a", lambda x: x * 2),
         Stage("b", lambda x: x + 1),
         Stage("c", lambda x, st: st.__setitem__("s", st["s"] + x) or st["s"],
               state_factory=lambda: {"s": 0})],
        [("a", "b"), ("b", "c")])


def diamond_graph():
    return CallbackGraph(
        [Stage("pre", lambda x: x),
         Stage("u", lambda x: x * 10),
         Stage("v", lambda x: x + 100),
         Stage("j", lambda pair: pair[0] + pair[1]),
         Stage("post", lambda x, st: x + st.pop("bias", 0),
               state_factory=lambda: {"bias": 0})],
        [("pre", "u"), ("pre", "v"), ("u", "j"), ("v", "j"), ("j", "post")])


def sleep_graph(dt=0.01):
    def stage(x):
        time.sleep(dt)
        return x
    return CallbackGraph(
        [Stage("s1", stage), Stage("s2", stage), Stage("s3", stage)],
        [("s1", "s2"), ("s2", "s3")])


def test_graph_validation():
    with pytest.raises(ValueError, match="cycle"):
        CallbackGraph([Stage("a", lambda x: x), Stage("b", lambda x: x),
                       Stage("src", lambda x: x), Stage("snk", lambda x: x)],
                      [("src", "a"), ("a", "b"), ("b", "a"), ("a", "snk")])
    with pytest.raises(ValueError, match="unknown stage"):
        CallbackGraph([Stage("a", lambda x: x)], [("a", "ghost")])
    with pytest.raises(ValueError):
        ExecutorKind(MONO_MT, workers=1)
    with pytest.raises(ValueError):
        ExecutorKind("turbo")


def test_score_sequences_identical_across_kinds():
    src = {"frames": list(range(200)), "rate_fps": None}
    seqs = [run_stream(chain_graph(), k, src, warmup=5)[0] for k in ALL_KINDS]
    assert seqs[0] == seqs[1] == seqs[2]
    dseqs = [run_stream(diamond_graph(), k, src, warmup=5)[0] for k in ALL_KINDS]
    assert dseqs[0] == dseqs[1] == dseqs[2]


def test_stateful_stage_sees_frames_in_order():
    # the accumulator result of the final frame encodes full ordered history
    src = {"frames": list(range(64)), "rate_fps": None}
    expected = sum(x * 2 + 1 for x in range(64))
    for k in ALL_KINDS:
        scores, _ = run_stream(chain_graph(), k, src, warmup=5)
        assert scores[-1] == expected


def test_mono_st_response_is_stage_sum():
    scores, rep = run_stream(sleep_graph(), ExecutorKind(MONO_ST),
                             {"frames": [0] * 40, "rate_fps": 5}, warmup=10)
    assert 0.8 * 0.030 <= rep.mean <= 1.2 * 0.030
    assert rep.min >= 0.029  # no frame can respond faster than its stage sum


def test_chain_response_not_faster_than_mono():
    _, rep_chain = run_stream(sleep_graph(), ExecutorKind(CHAIN_MT),
                              {"frames": [0] * 40, "rate_fps": 5}, warmup=10)
    _, rep_mono = run_stream(sleep_graph(), ExecutorKind(MONO_ST),
                             {"frames": [0] * 40, "rate_fps": 5}, warmup=10)
    assert rep_chain.mean >= rep_mono.mean - 0.5e-3  # hop overhead, noise allowance


def test_chain_pipelines_vs_mono_throughput():
    tp_chain = throughput_sweep(sleep_graph(), ExecutorKind(CHAIN_MT), [90], 1.5, lambda i: 0)
    tp_mono = throughput_sweep(sleep_graph(), ExecutorKind(MONO_ST), [90], 1.5, lambda i: 0)
    assert tp_chain.entries[0].sustained_fps >= 0.8 * 90
    assert tp_chain.entries[0].sustained
    mono = tp_mono.entries[0]
    assert 0.8 * 33 <= mono.sustained_fps <= 1.2 * 34
    assert not mono.sustained
    assert mono.backlog_slope > 1.0
    assert tp_chain.entries[0].sustained_fps > mono.sustained_fps


def test_backlog_derives_from_frame_stamps():
    # mono_st serves ~33 fps of the 3x10 ms graph, so at 90 fps the frames in
    # the graph pile up; each admission samples the frames not yet completed
    stats = _execute(sleep_graph(), ExecutorKind(MONO_ST), {"frames": [0] * 90, "rate_fps": 90})
    samples = stats.backlog_samples
    assert len(samples) == 90
    for seq, (t, backlog) in enumerate(samples):
        assert t == stats.ingress[seq]
        assert backlog == (seq + 1) - int(np.sum(stats.done <= t))
    assert samples[-1][1] >= 40


def test_throughput_low_rate_matches_input():
    tp = throughput_sweep(sleep_graph(), ExecutorKind(MONO_ST), [5, 10], 1.2, lambda i: 0)
    for e in tp.entries:
        assert e.sustained_fps >= 0.95 * e.rate_fps
        assert e.sustained_fps <= e.rate_fps
        assert e.sustained
    assert tp.knee() is None


def test_throughput_capacity_knee():
    tp = throughput_sweep(sleep_graph(), ExecutorKind(CHAIN_MT), [50, 200], 1.2, lambda i: 0)
    assert tp.entries[0].sustained
    cap = tp.entries[1]
    assert not cap.sustained
    assert 0.8 * 100 <= cap.sustained_fps <= 1.2 * 100
    assert tp.knee() == 200
    with pytest.raises(ValueError):
        throughput_sweep(sleep_graph(), ExecutorKind(MONO_ST), [10, 5], 1.0, lambda i: 0)


def test_timing_report_consistency():
    rng = np.random.default_rng(0)
    rts = rng.uniform(0.01, 0.02, 100)
    rep = TimingReport.from_samples(rts, warmup_discarded=20)
    assert rep.count == 100
    assert rep.min <= rep.q1 <= rep.median <= rep.q3 <= rep.p95 <= rep.p99 <= rep.max
    assert rep.mean == pytest.approx(rts.mean())
    with pytest.raises(ValueError):
        TimingReport.from_samples(np.array([]), 0)


def test_run_stream_needs_frames_beyond_warmup():
    with pytest.raises(ValueError):
        run_stream(chain_graph(), ExecutorKind(MONO_ST), {"frames": [1, 2], "rate_fps": None},
                   warmup=20)


def test_stage_error_propagates():
    def boom(x):
        raise RuntimeError("stage fault")
    g = CallbackGraph([Stage("a", lambda x: x), Stage("b", boom)], [("a", "b")])
    for k in ALL_KINDS:
        with pytest.raises(RuntimeError, match="stage fault"):
            run_stream(g, k, {"frames": [1] * 30, "rate_fps": None}, warmup=5)


class _FakeBundle:
    """Quacks like a detector bundle for matrix accounting tests."""

    def __init__(self, scale, fail=False):
        from oodkit.gasearch import Genome
        self.genome = Genome("bvae", (8, 8), "nearest", color="gray")
        self.scale = scale
        self.fail = fail
        self.postprocess = None


def _fake_graph(bundle):
    if bundle.fail:
        def stage(x):
            raise RuntimeError("cell failure")
    else:
        def stage(x):
            return x * bundle.scale
    return CallbackGraph([Stage("only", stage), Stage("sink", lambda x: float(x))],
                         [("only", "sink")])


def test_bench_matrix_accounting(monkeypatch):
    import oodkit.pipeline as pl
    monkeypatch.setattr(pl, "build_graph", _fake_graph)
    bundles = {"f32": _FakeBundle(1.0), "f16": _FakeBundle(1.1),
               "qint8": _FakeBundle(0.0, fail=True)}
    kinds = (ExecutorKind(MONO_ST), ExecutorKind(CHAIN_MT))
    frames = list(np.linspace(0.0, 1.0, 60))
    labels = [i >= 30 for i in range(60)]
    rows = pl.bench_matrix(bundles, ["f32", "f16", "qint8"], kinds, frames, labels,
                           BenchConfig(n_frames=60, rate_fps=None, warmup=10))
    assert len(rows) == 3 * 2
    baseline = [r for r in rows if r["precision"] == "f32"]
    assert all(r["auroc_delta_vs_baseline"] == 0.0 for r in baseline)
    failed = [r for r in rows if "error" in r]
    assert len(failed) == 2  # the failing qint8 bundle across both executors
    assert all("cell failure" in r["error"] for r in failed)
    ok = [r for r in rows if "error" not in r]
    assert all(r["mean_ms"] > 0 for r in ok)
    csv = bench_rows_to_csv(rows)
    assert csv.count("\n") == len(rows) + 1
    assert csv.splitlines()[0].startswith("family,genome,precision,executor,input_size")


def test_bench_matrix_baseline_listed_last(monkeypatch):
    # the f32 cell is the AUROC baseline wherever precisions lists it
    import oodkit.pipeline as pl
    monkeypatch.setattr(pl, "build_graph", _fake_graph)
    bundles = {"f32": _FakeBundle(1.0), "f16": _FakeBundle(-1.0)}
    frames = list(np.linspace(0.0, 1.0, 60))
    labels = [i >= 30 for i in range(60)]
    rows = pl.bench_matrix(bundles, ["f16", "f32"], (ExecutorKind(MONO_ST),), frames, labels,
                           BenchConfig(n_frames=60, rate_fps=None, warmup=10))
    assert [(r["precision"], r["auroc"], r["auroc_delta_vs_baseline"]) for r in rows] == [
        ("f16", 0.0, -1.0), ("f32", 1.0, 0.0)]
