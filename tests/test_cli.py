import csv
import io
import json

import numpy as np
import pytest

from oodkit.cli import main

FAST_CONFIG = {
    "family": "bvae",
    "dataset": {"family": "bvae", "scenes": 2, "runs": 3, "frames_per_run": 9, "seed": 3,
                "scene": {"width": 32, "height": 32, "shift_per_frame": 2,
                          "n_scenes": 5, "texture_seed": 1234},
                "ranges": {"rain_id": [0.0, 0.003], "rain_ood": [0.004, 0.01],
                           "brightness_id": [-0.5, 0.5], "brightness_ood": [0.5, 1.0],
                           "of_level": 0.003}},
    "genome": {"family": "bvae", "size": [16, 16], "interpolation": "bilinear",
               "color": "gray", "flow_depth": None},
    "n_latent": 4,
    "beta": 0.0001,
    "train": {"epochs": 2, "batch_size": 16, "lr": 0.001, "seed": 0, "optimizer": "adam"},
    "delta_grid": [0.0, 0.2],
    "precisions": ["f32", "qint8"],
    "executors": ["mono_st"],
    "ga": {"population": 3, "mutation_rate": 0.2, "generations": 2, "elitism": 1,
           "tournament_k": 2, "seed": 0, "train_epochs": 1,
           "buckets": {"S": [8, 12], "M": [16, 20], "L": [24, 28]}},
    "bench": {"n_frames": 12, "rate_fps": 100.0, "warmup": 3,
              "throughput_rates": [40.0], "throughput_duration_s": 0.5,
              "mono_mt_workers": 2},
    "requirements": {"min_auroc": 0.51, "max_response_ms": 400.0,
                     "min_throughput_fps": 5.0},
}


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    run = tmp_path_factory.mktemp("cli_run")
    cfg_path = run / "cfg.json"
    cfg_path.write_text(json.dumps(FAST_CONFIG))
    assert main(["--run-dir", str(run), "--config", str(cfg_path), "dataset-generate"]) == 0
    assert main(["--run-dir", str(run), "train"]) == 0
    assert main(["--run-dir", str(run), "calibrate", "--precision", "f32"]) == 0
    # every artifact report reads, so each test also passes when run alone
    assert main(["--run-dir", str(run), "quantize"]) == 0
    for precision in ("f32", "qint8"):
        assert main(["--run-dir", str(run), "evaluate", "--precision", precision]) == 0
    return run


def test_dataset_artifacts(run_dir):
    manifest = (run_dir / "dataset" / "manifest.jsonl").read_text().splitlines()
    assert len(manifest) == 2 * 3 * 9
    pnms = list((run_dir / "dataset").glob("*.pnm"))
    assert len(pnms) == len(manifest)


def test_dataset_regeneration_identical(run_dir, tmp_path):
    other = tmp_path / "again"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(FAST_CONFIG))
    assert main(["--run-dir", str(other), "--config", str(cfg_path), "dataset-generate"]) == 0
    for p in sorted((run_dir / "dataset").glob("*.pnm")):
        assert p.read_bytes() == (other / "dataset" / p.name).read_bytes()


def test_config_validation_error_exit_code(tmp_path):
    bad = dict(FAST_CONFIG, dataset=dict(FAST_CONFIG["dataset"],
                                         ranges=dict(FAST_CONFIG["dataset"]["ranges"],
                                                     rain_ood=[0.001, 0.01])))
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(bad))
    assert main(["--run-dir", str(tmp_path / "r"), "--config", str(cfg_path),
                 "dataset-generate"]) == 2


def test_calibrate_row_count_matches_split(run_dir):
    csv = (run_dir / "calib" / "main_f32.csv").read_text().splitlines()
    manifest = [json.loads(l) for l in (run_dir / "dataset" / "manifest.jsonl").read_text().splitlines()]
    n_calib = sum(r["split"] == "calib" for r in manifest)
    assert len(csv) == n_calib + 2  # header comment + column row
    assert csv[0].startswith("# precision=f32")


def test_evaluate_deterministic(run_dir):
    assert main(["--run-dir", str(run_dir), "evaluate", "--precision", "f32"]) == 0
    first = json.loads((run_dir / "eval" / "evaluate_f32.json").read_text())
    assert main(["--run-dir", str(run_dir), "evaluate", "--precision", "f32"]) == 0
    second = json.loads((run_dir / "eval" / "evaluate_f32.json").read_text())
    assert first == second
    assert 0.0 <= first["fitness"] <= 1.0


def test_sweep_delta_argmax_and_state(run_dir):
    assert main(["--run-dir", str(run_dir), "sweep-delta"]) == 0
    sweep = json.loads((run_dir / "sweep" / "delta.json").read_text())
    best = sweep["best_delta"]
    table = {d: f for d, f in sweep["table"]}
    assert table[best] == max(table.values())
    ties = [d for d, f in table.items() if f == table[best]]
    assert best == min(ties)
    # later phases score with the swept decay, read from sweep/delta.json
    assert main(["--run-dir", str(run_dir), "evaluate", "--precision", "f32"]) == 0
    assert json.loads((run_dir / "eval" / "evaluate_f32.json").read_text())["decay"] == best
    assert not (run_dir / "state.json").exists()


def test_quantize_and_tag_mismatch_detection(run_dir):
    assert (run_dir / "models" / "main_qint8.oodm").exists()
    assert not (run_dir / "models" / "main_f16.oodm").exists()  # f16 is not listed
    assert (run_dir / "calib" / "main_qint8.csv").exists()
    # calibration regenerated for qint8 differs from the f32 set
    f32_scores = (run_dir / "calib" / "main_f32.csv").read_text().splitlines()[2:]
    q_scores = (run_dir / "calib" / "main_qint8.csv").read_text().splitlines()[2:]
    assert f32_scores != q_scores
    # wiring a mismatched calibration into the detector is refused
    from oodkit.network import load_model
    from oodkit.oodcore import CalibrationMismatchError, CalibrationSet
    from oodkit.workflow import BvaeBundle
    from oodkit.gasearch import Genome
    from oodkit.oodcore import PostprocessConfig
    model = load_model((run_dir / "models" / "main_qint8.oodm").read_bytes())
    f32_calib = CalibrationSet.from_csv((run_dir / "calib" / "main_f32.csv").read_text())
    with pytest.raises(CalibrationMismatchError):
        BvaeBundle(Genome.from_dict(model.metadata["genome"]), model, f32_calib,
                   PostprocessConfig())


def test_evaluate_qint8(run_dir):
    assert main(["--run-dir", str(run_dir), "evaluate", "--precision", "qint8"]) == 0
    data = json.loads((run_dir / "eval" / "evaluate_qint8.json").read_text())
    assert set(data["per_factor_auroc"]) == {"rain", "brightness"}


def test_ga_search_accounting_and_resume(run_dir, tmp_path):
    assert main(["--run-dir", str(run_dir), "ga-search", "--bucket", "S"]) == 0
    csv_lines = (run_dir / "ga" / "S" / "history.csv").read_text().strip().splitlines()
    pop, gens = 3, 2
    records = csv_lines[1:]
    assert len(records) == pop * (gens + 1)
    cache_hits = sum(line.rsplit(",", 1)[1] == "1" for line in records)
    fresh = len(records) - cache_hits
    assert fresh == pop * (gens + 1) - cache_hits
    best = json.loads((run_dir / "ga" / "S" / "best_genome.json").read_text())
    assert best["size"][0] in (8, 12)
    # resume from the stored checkpoint reproduces the same final history
    resumed = tmp_path / "resumed"
    import shutil
    shutil.copytree(run_dir, resumed)
    assert main(["--run-dir", str(resumed), "ga-search", "--bucket", "S"]) == 0
    assert (resumed / "ga" / "S" / "history.csv").read_text() == \
        (run_dir / "ga" / "S" / "history.csv").read_text()
    # the best genome file trains as written, its fitness entry included
    best_file = resumed / "ga" / "S" / "best_genome.json"
    assert main(["--run-dir", str(resumed), "train", "--genome-file", str(best_file)]) == 0
    from oodkit.network import load_model
    model = load_model((resumed / "models" / "main_f32.oodm").read_bytes())
    assert model.metadata["genome"] == {k: v for k, v in best.items() if k != "fitness"}


def test_bench_throughput_and_report(run_dir):
    assert main(["--run-dir", str(run_dir), "bench"]) == 0
    bench = (run_dir / "bench" / "bench.csv").read_text().strip().splitlines()
    assert len(bench) == 1 + 2 * 1  # two precisions, one executor
    assert main(["--run-dir", str(run_dir), "throughput"]) == 0
    rc = main(["--run-dir", str(run_dir), "report"])
    report = json.loads((run_dir / "report.json").read_text())
    assert report["verdict"] in ("pass", "fail")
    assert rc == (0 if report["verdict"] == "pass" else 1)
    assert json.loads(json.dumps(report)) == report
    # each cell names its latency statistics; the gate reads the mean
    assert report["requirements"]["response_statistic"] == "mean_ms"
    with (run_dir / "bench" / "bench.csv").open(newline="") as fh:
        rows = {(r["precision"], r["executor"]): r for r in csv.DictReader(fh)}
    cells = report["nonfunctional"]["cells"]
    assert len(cells) == len(rows) == 2
    req = FAST_CONFIG["requirements"]
    for cell in cells:
        row = rows[(cell["precision"], cell["executor"])]
        for stat in ("mean_ms", "p95_ms", "p99_ms"):
            assert cell[stat] == float(row[stat])
        assert cell["pass"] == (cell["mean_ms"] <= req["max_response_ms"]
                                and cell.get("max_sustained_fps", 0.0) >= req["min_throughput_fps"])
    # flipping requirements flips the verdict
    state_cfg = json.loads((run_dir / "config.json").read_text())
    state_cfg["requirements"]["min_auroc"] = 0.999
    (run_dir / "config.json").write_text(json.dumps(state_cfg))
    assert main(["--run-dir", str(run_dir), "report"]) == 1
    state_cfg["requirements"]["min_auroc"] = 0.51
    (run_dir / "config.json").write_text(json.dumps(state_cfg))


def test_bench_runs_no_throughput_sweep(run_dir, monkeypatch):
    """bench measures response times only; the sweep belongs to throughput."""
    import oodkit.pipeline as pl
    from oodkit.pipeline import BENCH_CSV_COLUMNS

    sweeps = []

    def no_sweep(*args, **kwargs):
        sweeps.append(args)  # seen even if a caller turned the raise into an exit code
        raise AssertionError("bench ran a throughput sweep")
    monkeypatch.setattr(pl, "throughput_sweep", no_sweep)
    assert main(["--run-dir", str(run_dir), "bench"]) == 0
    assert sweeps == []
    with (run_dir / "bench" / "bench.csv").open(newline="") as fh:
        assert next(csv.reader(fh)) == BENCH_CSV_COLUMNS


def test_bench_csv_keeps_commas_in_fields():
    from oodkit.pipeline import bench_rows_to_csv
    rows = [{"precision": "f32", "executor": "mono_st", "mean_ms": 1.23456789},
            {"precision": "qint8", "executor": "mono_st",
             "error": "ValueError: shapes (1, 2) and (3,) differ"}]
    parsed = list(csv.DictReader(io.StringIO(bench_rows_to_csv(rows))))
    assert parsed[0]["mean_ms"] == "1.23457" and parsed[0]["error"] == ""
    assert parsed[1]["error"] == rows[1]["error"]


def test_report_incomplete_enumerates_gaps(tmp_path):
    run = tmp_path / "empty_run"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(FAST_CONFIG))
    rc = main(["--run-dir", str(run), "--config", str(cfg_path), "report"])
    assert rc == 2
    report = json.loads((run / "report.json").read_text())
    assert report["verdict"] == "incomplete"
    assert any("evaluation" in g for g in report["gaps"])
    assert any("bench" in g for g in report["gaps"])


OF_CONFIG = {
    "family": "optflow",
    "dataset": {"family": "optflow", "scenes": 2, "runs": 4, "frames_per_run": 8, "seed": 2,
                "scene": {"width": 32, "height": 32, "shift_per_frame": 2,
                          "n_scenes": 5, "texture_seed": 1234},
                "ranges": {"rain_id": [0.0, 0.003], "rain_ood": [0.004, 0.01],
                           "brightness_id": [-0.5, 0.5], "brightness_ood": [0.5, 1.0],
                           "of_level": 0.003}},
    "genome": {"family": "optflow", "size": [24, 32], "interpolation": "area",
               "color": None, "flow_depth": 2},
    "n_latent": 4,
    "beta": 0.0001,
    "train": {"epochs": 1, "batch_size": 8, "lr": 0.001, "seed": 0, "optimizer": "adam"},
    "delta_grid": [0.1],
    "precisions": ["f32", "qint8"],
    "executors": ["mono_st"],
    "farneback": {"window_size": 9, "iterations": 2, "pyramid_levels": 2,
                  "pyramid_scale": 0.5, "poly_n": 5, "poly_sigma": 1.1},
    "bench": {"n_frames": 14, "rate_fps": 50.0, "warmup": 4,
              "throughput_rates": [20.0], "throughput_duration_s": 0.5,
              "mono_mt_workers": 2},
    "requirements": {"min_auroc": 0.5, "max_response_ms": 1000.0,
                     "min_throughput_fps": 2.0},
}


def test_optflow_family_cli(tmp_path):
    run = tmp_path / "of_run"
    cfg_path = tmp_path / "of.json"
    cfg_path.write_text(json.dumps(OF_CONFIG))
    r = str(run)
    assert main(["--run-dir", r, "--config", str(cfg_path), "dataset-generate"]) == 0
    assert main(["--run-dir", r, "train"]) == 0
    assert (run / "models" / "main_u_f32.oodm").exists()
    assert (run / "models" / "main_v_f32.oodm").exists()
    assert main(["--run-dir", r, "calibrate", "--precision", "f32"]) == 0
    assert (run / "calib" / "main_u_f32.csv").exists()
    assert main(["--run-dir", r, "evaluate", "--precision", "f32"]) == 0
    data = json.loads((run / "eval" / "evaluate_f32.json").read_text())
    assert set(data["per_factor_auroc"]) == {"rain", "snow"}
    assert main(["--run-dir", r, "quantize"]) == 0
    assert (run / "calib" / "main_u_qint8.csv").exists()
    assert (run / "calib" / "main_v_qint8.csv").exists()
    assert not list((run / "models").glob("*_f16.oodm"))
    assert main(["--run-dir", r, "evaluate", "--precision", "qint8"]) == 0
    assert main(["--run-dir", r, "bench"]) == 0
    bench = (run / "bench" / "bench.csv").read_text()
    assert "optflow" in bench


def test_missing_artifact_message(tmp_path):
    run = tmp_path / "no_model"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(FAST_CONFIG))
    assert main(["--run-dir", str(run), "--config", str(cfg_path), "dataset-generate"]) == 0
    assert main(["--run-dir", str(run), "evaluate", "--precision", "f32"]) == 2


def _fresh_run(tmp_path, name, cfg_dict, *phases):
    run = tmp_path / name
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(cfg_dict))
    assert main(["--run-dir", str(run), "--config", str(cfg_path), "dataset-generate"]) == 0
    for phase in phases:
        assert main(["--run-dir", str(run), *phase]) == 0
    return run


def test_cli_bvae_models_match_ga_loop(run_dir):
    from oodkit.config import load_config
    from oodkit.dataset import load_dataset, split_images
    from oodkit.network import save_model
    from oodkit.oodcore import CalibrationSet
    from oodkit.workflow import BvaeTrainContext, bvae_bundle_for_genome, train_bvae
    cfg = load_config(run_dir / "config.json")
    rows, images = load_dataset(run_dir / "dataset")
    ctx = BvaeTrainContext(split_images(rows, images, "train"),
                           split_images(rows, images, "calib"), {}, cfg.train,
                           cfg.postprocess, cfg.n_latent, cfg.beta,
                           cfg.variance_parametrization)
    assert save_model(train_bvae(cfg.genome, ctx)) == \
        (run_dir / "models" / "main_f32.oodm").read_bytes()
    bundle = bvae_bundle_for_genome(cfg.genome, ctx)
    cli_calib = CalibrationSet.from_csv((run_dir / "calib" / "main_f32.csv").read_text())
    assert np.array_equal(cli_calib.scores, bundle.calib.scores)


def test_cli_optflow_models_match_ga_loop(tmp_path):
    from oodkit.config import load_config
    from oodkit.dataset import load_dataset, of_sequences
    from oodkit.network import save_model
    from oodkit.oodcore import CalibrationSet
    from oodkit.workflow import FlowTrainContext, flow_bundle_for_genome
    run = _fresh_run(tmp_path, "of_run", OF_CONFIG, ["train"], ["calibrate"])
    cfg = load_config(run / "config.json")
    rows, images = load_dataset(run / "dataset")
    ctx = FlowTrainContext(of_sequences(rows, images, "train"),
                           of_sequences(rows, images, "calib"), {}, cfg.train,
                           cfg.postprocess, cfg.farneback, cfg.n_latent, cfg.beta)
    bundle = flow_bundle_for_genome(cfg.genome, ctx)
    for branch, model, calib in (("u", bundle.model_u, bundle.calib_u),
                                 ("v", bundle.model_v, bundle.calib_v)):
        assert save_model(model) == (run / "models" / f"main_{branch}_f32.oodm").read_bytes()
        cli_calib = CalibrationSet.from_csv(
            (run / "calib" / f"main_{branch}_f32.csv").read_text())
        assert np.array_equal(cli_calib.scores, calib.scores)


def test_train_without_flow_stacks_reports_it(tmp_path, capsys):
    short = dict(OF_CONFIG, dataset=dict(OF_CONFIG["dataset"], frames_per_run=2))
    run = _fresh_run(tmp_path, "short", short)
    assert main(["--run-dir", str(run), "train"]) == 2
    assert "no flow stacks produced" in capsys.readouterr().err


def test_ga_search_uses_configured_optimizer(tmp_path):
    histories = {}
    for optimizer in ("adam", "sgd"):
        cfg = dict(FAST_CONFIG, train=dict(FAST_CONFIG["train"], optimizer=optimizer))
        run = _fresh_run(tmp_path, optimizer, cfg, ["ga-search", "--bucket", "S"])
        histories[optimizer] = (run / "ga" / "S" / "history.csv").read_text()
    assert histories["adam"] != histories["sgd"]


def test_bench_failed_cell_surfaces(tmp_path, monkeypatch, capsys):
    import oodkit.pipeline as pl

    def broken(*args, **kwargs):
        raise RuntimeError("detector stage crashed")
    run = _fresh_run(tmp_path, "broken", dict(FAST_CONFIG, precisions=["f32"]),
                     ["train"], ["calibrate"])
    monkeypatch.setattr(pl, "run_stream", broken)
    assert main(["--run-dir", str(run), "bench"]) == 2
    assert "1 of 1 bench cells failed" in capsys.readouterr().err
    with (run / "bench" / "bench.csv").open(newline="") as fh:
        [row] = list(csv.DictReader(fh))
    assert row["error"] == "RuntimeError: detector stage crashed"
    assert main(["--run-dir", str(run), "report"]) == 2
    report = json.loads((run / "report.json").read_text())
    assert report["verdict"] == "incomplete"
    assert "bench cell f32/mono_st failed: RuntimeError: detector stage crashed" \
        in report["gaps"]


def test_bench_programming_error_propagates(tmp_path, monkeypatch, capsys):
    import oodkit.pipeline as pl

    def buggy(*args, **kwargs):
        raise AssertionError("executor invariant broken")
    run = _fresh_run(tmp_path, "buggy", dict(FAST_CONFIG, precisions=["f32"]),
                     ["train"], ["calibrate"])
    monkeypatch.setattr(pl, "run_stream", buggy)
    capsys.readouterr()
    # not a failed cell: the bug leaves bench_matrix and the CLI boundary exits 2
    assert main(["--run-dir", str(run), "bench"]) == 2
    err = capsys.readouterr().err
    assert "error: executor invariant broken" in err and "cells failed" not in err
    assert not (run / "bench" / "bench.csv").exists()


def test_ga_search_programming_error_fails_the_search(tmp_path, monkeypatch, capsys):
    import oodkit.cli as cli

    def buggy(genome, ctx):
        raise AssertionError("training invariant broken")
    run = _fresh_run(tmp_path, "ga_bug", FAST_CONFIG)
    monkeypatch.setattr(cli, "bvae_fitness", buggy)
    capsys.readouterr()
    # a bug is not a candidate that scored 0: the search stops at the CLI boundary
    assert main(["--run-dir", str(run), "ga-search", "--bucket", "S"]) == 2
    assert "error: training invariant broken" in capsys.readouterr().err
    assert not (run / "ga" / "S" / "best_genome.json").exists()


def test_throughput_without_bundles_fails(tmp_path, capsys):
    run = _fresh_run(tmp_path, "no_models", FAST_CONFIG)
    capsys.readouterr()
    assert main(["--run-dir", str(run), "throughput"]) == 2
    err = capsys.readouterr().err
    assert "skipping f32" in err and "skipping qint8" in err
    assert "no bundles available" in err
    assert not (run / "bench" / "throughput.csv").exists()


def test_evaluate_refuses_stale_calibration(tmp_path, capsys):
    cfg = dict(FAST_CONFIG, precisions=["f32", "f16"])
    run = _fresh_run(tmp_path, "stale", cfg, ["train"], ["calibrate"], ["quantize"])
    assert not (run / "models" / "main_qint8.oodm").exists()  # qint8 is not listed
    # quantize calibrated the f16 model on its own scores, under its own checksum
    assert main(["--run-dir", str(run), "evaluate", "--precision", "f16"]) == 0
    retrained = tmp_path / "retrained.json"
    retrained.write_text(json.dumps(dict(cfg, train=dict(cfg["train"], seed=1))))
    assert main(["--run-dir", str(run), "--config", str(retrained), "train"]) == 0
    capsys.readouterr()
    assert main(["--run-dir", str(run), "evaluate", "--precision", "f32"]) == 2
    assert "model checksum" in capsys.readouterr().err


def test_branch_models_of_different_genomes_refused(tmp_path, capsys):
    from oodkit.network import load_model, save_model
    run = _fresh_run(tmp_path, "mixed", OF_CONFIG, ["train"], ["calibrate"])
    # main_v as a train for another interpolation leaves it, had it stopped
    # before writing main_u: the geometry is the same, the genome is not
    path_v = run / "models" / "main_v_f32.oodm"
    model = load_model(path_v.read_bytes())
    model.metadata["genome"]["interpolation"] = "bilinear"
    path_v.write_bytes(save_model(model))
    capsys.readouterr()
    for phase in (["calibrate"], ["evaluate", "--precision", "f32"], ["quantize"]):
        assert main(["--run-dir", str(run), *phase]) == 2
        err = capsys.readouterr().err
        assert "main_u_f32.oodm" in err and "main_v_f32.oodm" in err
        assert "'area'" in err and "'bilinear'" in err


def test_quantize_calibrates_f16_on_its_own_scores(tmp_path):
    from oodkit.dataset import load_dataset, split_images
    from oodkit.gasearch import Genome
    from oodkit.network import load_model, model_checksum
    from oodkit.oodcore import CalibrationSet, PostprocessConfig, build_calibration
    from oodkit.workflow import encoder_inputs
    cfg = dict(FAST_CONFIG, precisions=["f32", "f16"])
    run = _fresh_run(tmp_path, "f16", cfg, ["train"], ["calibrate"], ["quantize"])
    model = load_model((run / "models" / "main_f16.oodm").read_bytes())
    rows, images = load_dataset(run / "dataset")
    [data] = encoder_inputs(Genome.from_dict(model.metadata["genome"]),
                            split_images(rows, images, "calib"))
    calib = CalibrationSet.from_csv((run / "calib" / "main_f16.csv").read_text())
    expected = build_calibration(model, data, PostprocessConfig())
    assert np.array_equal(calib.scores, expected.scores)
    assert calib.model_checksum == model_checksum(model)
    assert calib.precision_tag == "f16"
    f32 = CalibrationSet.from_csv((run / "calib" / "main_f32.csv").read_text())
    assert not np.array_equal(calib.scores, f32.scores)


def test_quantize_after_retrain_calibrates_the_new_f16_model(tmp_path):
    from oodkit.network import load_model, model_checksum
    from oodkit.oodcore import CalibrationSet
    cfg = dict(FAST_CONFIG, precisions=["f32", "f16"])
    run = _fresh_run(tmp_path, "retrain_f16", cfg, ["train"], ["calibrate"], ["quantize"])
    old = CalibrationSet.from_csv((run / "calib" / "main_f16.csv").read_text())
    retrained = tmp_path / "retrained.json"
    retrained.write_text(json.dumps(dict(cfg, train=dict(cfg["train"], seed=1))))
    assert main(["--run-dir", str(run), "--config", str(retrained), "train"]) == 0
    # the f32 calibration is stale, but quantize does not read it
    assert main(["--run-dir", str(run), "quantize"]) == 0
    model = load_model((run / "models" / "main_f16.oodm").read_bytes())
    calib = CalibrationSet.from_csv((run / "calib" / "main_f16.csv").read_text())
    assert calib.model_checksum == model_checksum(model) != old.model_checksum
    assert main(["--run-dir", str(run), "evaluate", "--precision", "f16"]) == 0


def test_quantize_without_derived_precision_reads_nothing(tmp_path, monkeypatch):
    import oodkit.cli as cli

    def no_inputs(*args, **kwargs):
        raise AssertionError("quantize read the dataset or computed encoder inputs")
    run = _fresh_run(tmp_path, "f32_only", dict(FAST_CONFIG, precisions=["f32"]),
                     ["train"], ["calibrate"])
    before = {p: p.read_bytes() for p in run.rglob("*") if p.is_file()}
    monkeypatch.setattr(cli, "encoder_inputs", no_inputs)
    monkeypatch.setattr(cli, "load_dataset", no_inputs)
    assert main(["--run-dir", str(run), "quantize"]) == 0
    assert {p: p.read_bytes() for p in run.rglob("*") if p.is_file()} == before


def test_ga_search_resumes_after_interrupted_checkpoint(tmp_path, monkeypatch):
    from pathlib import Path

    full = _fresh_run(tmp_path, "ga_full", FAST_CONFIG, ["ga-search", "--bucket", "S"])
    run = _fresh_run(tmp_path, "ga_cut", FAST_CONFIG)
    write_text = Path.write_text
    writes = []

    def torn(self, data, *args, **kwargs):
        if "checkpoint" in self.name:
            writes.append(self.name)
            if len(writes) == 2:
                write_text(self, data[:len(data) // 2], *args, **kwargs)
                raise OSError("disk full")
        return write_text(self, data, *args, **kwargs)
    with monkeypatch.context() as m:
        m.setattr(Path, "write_text", torn)
        assert main(["--run-dir", str(run), "ga-search", "--bucket", "S"]) == 2
    assert main(["--run-dir", str(run), "ga-search", "--bucket", "S"]) == 0
    for name in ("history.csv", "best_genome.json"):
        assert (run / "ga" / "S" / name).read_bytes() == (full / "ga" / "S" / name).read_bytes()
