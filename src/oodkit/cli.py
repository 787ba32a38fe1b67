"""Command-line orchestration of the four methodology phases.

Subcommands: dataset-generate, train, calibrate, evaluate, ga-search,
sweep-delta, quantize, bench, throughput, report. A run directory accumulates
the artifacts each phase produces and later phases discover them by layout.

Exit codes: 0 requirements pass, 1 requirements failed, 2 execution error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import replace
from pathlib import Path

from .config import (
    PRECISIONS,
    ExperimentConfig,
    bucket_from_config,
    default_config,
    load_config,
    save_config,
)
from .dataset import (
    bvae_test_streams,
    generate_dataset,
    load_dataset,
    of_sequences,
    of_test_streams,
    save_dataset,
    split_images,
    validate_manifest,
)
from .fileio import write_atomic
from .gasearch import BVAE, Genome, MemoizedEvaluator, OPTFLOW, run_ga
from .network import cast_model_f16, load_model, quantize_model, save_model
from .oodcore import CalibrationSet, PostprocessConfig, build_calibration
from .pipeline import (
    ExecutorKind,
    bench_matrix,
    bench_rows_to_csv,
    build_graph,
    throughput_sweep,
)
from .workflow import (
    BvaeBundle,
    BvaeTrainContext,
    FlowBundle,
    FlowTrainContext,
    bvae_fitness,
    encoder_inputs,
    evaluate_streams,
    flow_fitness,
    score_stream,
    sweep_decay,
    train_encoders,
)


def _config(args, run: Path) -> ExperimentConfig:
    stored = run / "config.json"
    if args.config:
        cfg = load_config(args.config)
        save_config(cfg, stored)
    elif stored.exists():
        cfg = load_config(stored)
    else:
        cfg = default_config()
        save_config(cfg, stored)
    return cfg.validate()


def _postprocess(cfg: ExperimentConfig, run: Path) -> PostprocessConfig:
    """The config's post-processing, with the decay sweep-delta picked once
    sweep/delta.json exists."""
    sweep = run / "sweep" / "delta.json"
    if not sweep.exists():
        return cfg.postprocess
    return replace(cfg.postprocess, decay=float(json.loads(sweep.read_text())["best_delta"]))


def _dataset(run: Path):
    ds_dir = run / "dataset"
    if not (ds_dir / "manifest.jsonl").exists():
        raise FileNotFoundError(f"no dataset in {ds_dir}; run dataset-generate first")
    return load_dataset(ds_dir)


# artifact name of each encoder branch, in encoder_inputs' order
BRANCHES = {BVAE: ("main",), OPTFLOW: ("main_u", "main_v")}


def _model_paths(run: Path, family: str, precision: str):
    return [run / "models" / f"{b}_{precision}.oodm" for b in BRANCHES[family]]


def _calib_paths(run: Path, family: str, precision: str):
    return [run / "calib" / f"{b}_{precision}.csv" for b in BRANCHES[family]]


def _load_models(run: Path, family: str, precision: str):
    """The models of every branch, and the genome they were all trained for."""
    paths = _model_paths(run, family, precision)
    models = []
    for p in paths:
        if not p.exists():
            raise FileNotFoundError(f"missing model {p}; run train/quantize first")
        models.append(load_model(p.read_bytes()))
    genomes = [Genome.from_dict(m.metadata["genome"]) for m in models]
    for p, genome in zip(paths[1:], genomes[1:]):
        if genome != genomes[0]:
            raise ValueError(f"{paths[0]} was trained for {genomes[0]} but {p} for {genome}; "
                             "run train again")
    return models, genomes[0]


def _load_bundle(run: Path, cfg: ExperimentConfig, precision: str):
    """The detector of one precision; the bundle refuses a calibration that
    was made for another model."""
    models, genome = _load_models(run, cfg.family, precision)
    calibs = []
    for p in _calib_paths(run, cfg.family, precision):
        if not p.exists():
            raise FileNotFoundError(f"missing calibration {p}; run calibrate first")
        calibs.append(CalibrationSet.from_csv(p.read_text()))
    pp = _postprocess(cfg, run)
    if cfg.family == BVAE:
        return BvaeBundle(genome, *models, *calibs, pp)
    return FlowBundle(genome, *models, *calibs, pp, cfg.farneback)


def _split(cfg, rows, images, split):
    """One dataset split as the family's detector reads it: images for bvae,
    frame sequences for optflow."""
    return (split_images(rows, images, split) if cfg.family == BVAE
            else of_sequences(rows, images, split))


def _encoder_inputs(cfg, genome, rows, images, split):
    """Per-branch encoder inputs of one dataset split."""
    return encoder_inputs(genome, _split(cfg, rows, images, split), cfg.farneback)


def _test_streams(cfg, rows, images):
    return (bvae_test_streams(rows, images) if cfg.family == BVAE
            else of_test_streams(rows, images))


# ---------------------------------------------------------------------------
# Subcommands

def cmd_dataset_generate(args, run, cfg):
    rows, images = generate_dataset(cfg.dataset)
    validate_manifest(rows)
    save_dataset(rows, images, run / "dataset")
    counts = {s: sum(r.split == s for r in rows) for s in ("train", "calib", "test")}
    print(f"dataset: {len(rows)} images  train/calib/test = "
          f"{counts['train']}/{counts['calib']}/{counts['test']}")
    return 0


def _genome_from_args(args, cfg) -> Genome:
    if getattr(args, "genome_file", None):
        d = json.loads(Path(args.genome_file).read_text())
        d.pop("fitness", None)  # ga-search's best_genome.json carries its fitness
        return Genome.from_dict(d)
    return cfg.genome


def cmd_train(args, run, cfg):
    rows, images = _dataset(run)
    genome = _genome_from_args(args, cfg)
    models = train_encoders(genome, _encoder_inputs(cfg, genome, rows, images, "train"),
                            cfg.train, cfg.n_latent, cfg.beta, cfg.variance_parametrization)
    for model, path in zip(models, _model_paths(run, cfg.family, "f32")):
        write_atomic(path, save_model(model))
        print(f"trained {genome.size[0]}x{genome.size[1]} encoder -> {path} "
              f"(final loss {model.metadata['loss_history'][-1]:.5f})")
    return 0


def _calibrate(run, cfg, precision, models, inputs):
    """Write one calibration CSV per branch; returns the score counts."""
    counts = []
    for model, data, path in zip(models, inputs, _calib_paths(run, cfg.family, precision)):
        calib = build_calibration(model, data, cfg.postprocess)
        write_atomic(path, calib.to_csv())
        counts.append(len(calib))
    return counts


def cmd_calibrate(args, run, cfg):
    rows, images = _dataset(run)
    models, genome = _load_models(run, cfg.family, args.precision)
    counts = _calibrate(run, cfg, args.precision, models,
                        _encoder_inputs(cfg, genome, rows, images, "calib"))
    print(f"calibration ({args.precision}): {counts} scores")
    return 0


def cmd_quantize(args, run, cfg):
    """Derive each listed precision from the f32 models and calibrate it on
    its own scores."""
    derived = [p for p in cfg.precisions if p != "f32"]
    if not derived:
        print("quantize: precisions lists no derived precision; nothing to do")
        return 0
    rows, images = _dataset(run)
    f32_models, genome = _load_models(run, cfg.family, "f32")
    inputs = _encoder_inputs(cfg, genome, rows, images, "calib")
    derive = {"qint8": quantize_model, "f16": lambda model, data: cast_model_f16(model)}
    for precision in derived:
        models = [derive[precision](m, data) for m, data in zip(f32_models, inputs)]
        paths = _model_paths(run, cfg.family, precision)
        for model, path in zip(models, paths):
            write_atomic(path, save_model(model))
        counts = _calibrate(run, cfg, precision, models, inputs)
        print(f"{precision} models: {', '.join(p.name for p in paths)}; "
              f"calibrated on {counts} scores")
    return 0


def cmd_evaluate(args, run, cfg):
    rows, images = _dataset(run)
    bundle = _load_bundle(run, cfg, args.precision)
    streams = _test_streams(cfg, rows, images)
    factor_auroc, fitness = evaluate_streams(
        lambda seq: score_stream(bundle, seq), streams)
    out = {"precision": args.precision, "fitness": fitness,
           "per_factor_auroc": factor_auroc,
           "decay": bundle.postprocess.decay}
    write_atomic(run / "eval" / f"evaluate_{args.precision}.json",
                 json.dumps(out, indent=2, sort_keys=True) + "\n")
    for k, v in sorted(factor_auroc.items()):
        print(f"auroc[{k}] = {v:.4f}")
    print(f"harmonic fitness = {fitness:.4f}")
    return 0


def cmd_sweep_delta(args, run, cfg):
    rows, images = _dataset(run)
    bundle = _load_bundle(run, cfg, args.precision)
    streams = _test_streams(cfg, rows, images)
    best, table = sweep_decay(bundle, streams, cfg.delta_grid)
    write_atomic(run / "sweep" / "delta.json",
                 json.dumps({"best_delta": best, "table": table}, indent=2) + "\n")
    for d, f in table:
        marker = " <- best" if d == best else ""
        print(f"delta={d:g}: fitness={f:.4f}{marker}")
    return 0


def cmd_ga_search(args, run, cfg):
    bucket = bucket_from_config(cfg, args.bucket)
    rows, images = _dataset(run)
    ga_dir = run / "ga" / args.bucket
    data = (_split(cfg, rows, images, "train"), _split(cfg, rows, images, "calib"),
            _test_streams(cfg, rows, images),
            replace(cfg.train, epochs=cfg.ga.train_epochs), _postprocess(cfg, run))
    if cfg.family == BVAE:
        ctx = BvaeTrainContext(*data, n_latent=cfg.n_latent, beta=cfg.beta,
                               variance_parametrization=cfg.variance_parametrization)
        fitness = bvae_fitness
    else:
        ctx = FlowTrainContext(*data, farneback=cfg.farneback, n_latent=cfg.n_latent,
                               beta=cfg.beta)
        fitness = flow_fitness
    evaluator = MemoizedEvaluator(lambda g: fitness(g, ctx))

    ckpt_path = ga_dir / "checkpoint.json"
    state = json.loads(ckpt_path.read_text()) if ckpt_path.exists() else None
    if state is not None:
        print(f"resuming from checkpoint at generation {state['generation']}")

    def checkpoint(s):
        write_atomic(ckpt_path, json.dumps(s) + "\n")

    best, history = run_ga(bucket, cfg.ga, evaluator, state=state, checkpoint=checkpoint)
    write_atomic(ga_dir / "history.csv", history.to_csv())
    best_fitness = evaluator.cache[best][0]
    write_atomic(ga_dir / "best_genome.json",
                 json.dumps(dict(best.to_dict(), fitness=best_fitness), indent=2) + "\n")
    fresh = sum(1 for r in history.records if not r.cache_hit)
    print(f"bucket {args.bucket}: best {best.to_dict()} fitness={best_fitness:.4f} "
          f"({fresh} trainings, {len(history.records) - fresh} cache hits)")
    return 0


def _executor_kinds(cfg):
    return [ExecutorKind(e, workers=cfg.bench.mono_mt_workers) for e in cfg.executors]


def _bench_source(cfg, rows, images):
    """One ID stream followed by one OOD stream, with is_ood labels."""
    streams = _test_streams(cfg, rows, images)
    ood_part = sorted(k for k in streams if k != "id")[0]
    id_frames = streams["id"][0]
    ood_frames = streams[ood_part][0]
    frames = list(id_frames) + list(ood_frames)
    labels = [False] * len(id_frames) + [True] * len(ood_frames)
    return frames, labels


def _bundles(run: Path, cfg: ExperimentConfig) -> dict:
    """precision -> bundle for every configured precision whose artifacts
    exist; says what it skips, and raises if nothing is left."""
    bundles = {}
    for precision in cfg.precisions:
        try:
            bundles[precision] = _load_bundle(run, cfg, precision)
        except FileNotFoundError as exc:
            print(f"skipping {precision}: {exc}", file=sys.stderr)
    if not bundles:
        raise FileNotFoundError("no bundles available; run train/calibrate/quantize")
    return bundles


def cmd_bench(args, run, cfg):
    rows, images = _dataset(run)
    bundles = _bundles(run, cfg)
    frames, labels = _bench_source(cfg, rows, images)
    rows_out = bench_matrix(bundles, list(cfg.precisions), _executor_kinds(cfg),
                            frames, labels, cfg.bench)
    write_atomic(run / "bench" / "bench.csv", bench_rows_to_csv(rows_out))
    for r in rows_out:
        if "error" in r:
            print(f"{r['precision']}/{r['executor']}: FAILED {r['error']}")
        else:
            print(f"{r['precision']}/{r['executor']}: mean={r['mean_ms']:.1f}ms "
                  f"p95={r['p95_ms']:.1f}ms auroc={r['auroc']:.3f}")
    failed = sum("error" in r for r in rows_out)
    if failed:
        print(f"error: {failed} of {len(rows_out)} bench cells failed", file=sys.stderr)
        return 2
    return 0


def cmd_throughput(args, run, cfg):
    rows, images = _dataset(run)
    frames, _ = _bench_source(cfg, rows, images)
    lines = [["precision", "executor", "rate_fps", "sustained_fps", "backlog_slope",
              "sustained"]]
    for precision, bundle in _bundles(run, cfg).items():
        for kind in _executor_kinds(cfg):
            graph = build_graph(bundle)
            report = throughput_sweep(graph, kind, list(cfg.bench.throughput_rates),
                                      cfg.bench.throughput_duration_s,
                                      lambda i: frames[i % len(frames)])
            for e in report.entries:
                lines.append([precision, kind.kind, f"{e.rate_fps:g}",
                              f"{e.sustained_fps:.3f}", f"{e.backlog_slope:.3f}",
                              int(e.sustained)])
                print(f"{precision}/{kind.kind}@{e.rate_fps:g}fps: "
                      f"sustained={e.sustained_fps:.1f} ({'ok' if e.sustained else 'backlog'})")
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(lines)
    write_atomic(run / "bench" / "throughput.csv", out.getvalue())
    return 0


# the bench.csv column the max_response_ms gate reads, and the latency
# statistics report.json copies into each cell
RESPONSE_STATISTIC = "mean_ms"
REPORT_LATENCY_STATS = (RESPONSE_STATISTIC, "p95_ms", "p99_ms")


def cmd_report(args, run, cfg):
    req = cfg.requirements
    gaps = []

    functional = {}
    for precision in cfg.precisions:
        path = run / "eval" / f"evaluate_{precision}.json"
        if not path.exists():
            gaps.append(f"missing evaluation for {precision} (run evaluate)")
            continue
        data = json.loads(path.read_text())
        functional[precision] = {
            "fitness": data["fitness"],
            "per_factor_auroc": data["per_factor_auroc"],
            "pass": data["fitness"] >= req.min_auroc,
        }

    bench_path = run / "bench" / "bench.csv"
    tp_path = run / "bench" / "throughput.csv"
    cells = {}
    if bench_path.exists():
        with bench_path.open(newline="") as fh:
            for vals in csv.DictReader(fh):
                if vals.get("error"):
                    gaps.append(f"bench cell {vals['precision']}/{vals['executor']} "
                                f"failed: {vals['error']}")
                    continue
                key = (vals["precision"], vals["executor"])
                cells[key] = {stat: float(vals[stat]) for stat in REPORT_LATENCY_STATS}
    else:
        gaps.append("missing bench results (run bench)")
    if tp_path.exists():
        with tp_path.open(newline="") as fh:
            for vals in csv.DictReader(fh):
                key = (vals["precision"], vals["executor"])
                if key in cells:
                    fps = float(vals["sustained_fps"]) if int(vals["sustained"]) else 0.0
                    cells[key]["max_sustained_fps"] = max(
                        cells[key].get("max_sustained_fps", 0.0), fps)
    else:
        gaps.append("missing throughput results (run throughput)")

    cell_rows = []
    nonfunctional_pass = False
    passing = []
    for (precision, executor), c in sorted(cells.items()):
        ok = (c[RESPONSE_STATISTIC] <= req.max_response_ms
              and c.get("max_sustained_fps", 0.0) >= req.min_throughput_fps)
        cell_rows.append({"precision": precision, "executor": executor, **c, "pass": ok})
        if ok:
            nonfunctional_pass = True
            if functional.get(precision, {}).get("pass"):
                passing.append({"precision": precision, "executor": executor})

    if gaps:
        verdict = "incomplete"
    elif passing:
        verdict = "pass"
    else:
        verdict = "fail"
    report = {
        "requirements": {"min_auroc": req.min_auroc,
                         "max_response_ms": req.max_response_ms,
                         "response_statistic": RESPONSE_STATISTIC,
                         "min_throughput_fps": req.min_throughput_fps},
        "functional": functional,
        "nonfunctional": {"cells": cell_rows, "pass": nonfunctional_pass},
        "passing_configurations": passing,
        "verdict": verdict,
        "gaps": gaps,
    }
    write_atomic(run / "report.json", json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"verdict: {verdict}")
    for g in gaps:
        print(f"  gap: {g}")
    for p in passing:
        print(f"  meets all requirements: {p['precision']}/{p['executor']}")
    return {"pass": 0, "fail": 1, "incomplete": 2}[verdict]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="oodkit",
        description="Design, tune, quantize, deploy, and verify deep OOD detectors.")
    parser.add_argument("--run-dir", required=True, help="artifact directory of this run")
    parser.add_argument("--config", help="experiment config JSON (stored into the run dir)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("dataset-generate", help="synthesize the dataset and manifest")

    p = sub.add_parser("train", help="phase 2: train the detector network(s)")
    p.add_argument("--genome-file", help="JSON genome overriding the config preprocessing")

    p = sub.add_parser("calibrate", help="build the conformal calibration set")
    p.add_argument("--precision", default="f32", choices=PRECISIONS)

    p = sub.add_parser("evaluate", help="per-factor AUROC and harmonic fitness")
    p.add_argument("--precision", default="f32", choices=PRECISIONS)

    p = sub.add_parser("ga-search", help="phase 3: search one preprocessing bucket")
    p.add_argument("--bucket", required=True)

    p = sub.add_parser("sweep-delta", help="pick the CUSUM decay by parameter sweep")
    p.add_argument("--precision", default="f32", choices=PRECISIONS)

    sub.add_parser("quantize", help="phase 3: derive the listed qint8 and f16 models")
    sub.add_parser("bench", help="phase 4: response-time matrix over executors")
    sub.add_parser("throughput", help="phase 4: sustained-throughput sweep")
    sub.add_parser("report", help="verdict against the requirements")
    return parser


COMMANDS = {
    "dataset-generate": cmd_dataset_generate,
    "train": cmd_train,
    "calibrate": cmd_calibrate,
    "evaluate": cmd_evaluate,
    "ga-search": cmd_ga_search,
    "sweep-delta": cmd_sweep_delta,
    "quantize": cmd_quantize,
    "bench": cmd_bench,
    "throughput": cmd_throughput,
    "report": cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        run = Path(args.run_dir)
        run.mkdir(parents=True, exist_ok=True)
        return int(COMMANDS[args.command](args, run, _config(args, run)))
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
