"""Experiment configuration: one JSON document that drives every phase, with
validation of the requirement/range invariants."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .dataset import DatasetConfig, FactorRanges
from .fileio import write_atomic
from .gasearch import BVAE, OPTFLOW, GAConfig, Genome
from .imaging import SceneParams
from .network import TrainOpts
from .network.model import VAR, VAR_PARAMS
from .oodcore import PostprocessConfig
from .optflow import FarnebackParams
from .pipeline import EXECUTOR_KINDS, BenchConfig

PRECISIONS = ("f32", "f16", "qint8")


@dataclass(frozen=True)
class Requirements:
    min_auroc: float = 0.8
    max_response_ms: float = 150.0
    min_throughput_fps: float = 10.0

    def validate(self):
        if not 0.5 <= self.min_auroc <= 1.0:
            raise ValueError(f"min_auroc out of [0.5, 1]: {self.min_auroc}")
        if self.max_response_ms <= 0 or self.min_throughput_fps <= 0:
            raise ValueError("response/throughput requirements must be positive")


@dataclass(frozen=True)
class GaSection(GAConfig):
    """The GA settings plus the per-candidate budget and the size buckets."""

    train_epochs: int = 6           # reduced budget per candidate
    buckets: dict = field(default_factory=lambda: {
        "S": [16, 24], "M": [32, 48], "L": [56, 64]})


@dataclass(frozen=True)
class ExperimentConfig:
    family: str = BVAE
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    requirements: Requirements = field(default_factory=Requirements)
    genome: Genome = None
    n_latent: int = 16
    beta: float = 1e-4
    variance_parametrization: str = "var"
    train: TrainOpts = field(default_factory=lambda: TrainOpts(epochs=25, batch_size=16))
    postprocess: PostprocessConfig = field(default_factory=PostprocessConfig)
    delta_grid: tuple = (0.0, 0.05, 0.1, 0.2, 0.4, 0.8)
    precisions: tuple = PRECISIONS
    executors: tuple = ("mono_st", "chain_mt", "mono_mt")
    ga: GaSection = field(default_factory=GaSection)
    bench: BenchConfig = field(default_factory=BenchConfig)
    farneback: FarnebackParams = field(default_factory=FarnebackParams)

    def __post_init__(self):
        if self.genome is None:
            default = (Genome(BVAE, (48, 48), "bilinear", color="rgb")
                       if self.family == BVAE
                       else Genome(OPTFLOW, (48, 64), "bilinear", flow_depth=6))
            object.__setattr__(self, "genome", default)

    def validate(self):
        if self.family not in (BVAE, OPTFLOW):
            raise ValueError(f"unknown family {self.family!r}")
        if self.family != self.dataset.family:
            raise ValueError("config family and dataset family disagree")
        if self.genome.family != self.family:
            raise ValueError("genome family and config family disagree")
        self.dataset.validate()
        self.requirements.validate()
        if not self.delta_grid:
            raise ValueError("delta_grid must be nonempty")
        for p in self.precisions:
            if p not in PRECISIONS:
                raise ValueError(f"unknown precision {p!r}")
        for e in self.executors:
            if e not in EXECUTOR_KINDS:
                raise ValueError(f"unknown executor {e!r}")
        if self.variance_parametrization not in VAR_PARAMS:
            raise ValueError(
                f"unknown variance_parametrization {self.variance_parametrization!r}")
        if self.family == OPTFLOW and self.variance_parametrization != VAR:
            raise ValueError(f"the optflow encoders are {VAR!r}-parametrized, "
                             f"got {self.variance_parametrization!r}")
        if self.beta <= 0 or self.n_latent < 1:
            raise ValueError("beta must be > 0 and n_latent >= 1")
        return self


def default_config(family: str = BVAE) -> ExperimentConfig:
    if family == BVAE:
        return ExperimentConfig(
            dataset=DatasetConfig(seed=7, scene=SceneParams(width=64, height=64,
                                                            shift_per_frame=3)))
    return ExperimentConfig(
        family=OPTFLOW,
        dataset=DatasetConfig(family=OPTFLOW, scenes=5, runs=4, frames_per_run=30,
                              seed=11,
                              scene=SceneParams(width=128, height=96, shift_per_frame=3)),
        genome=Genome(OPTFLOW, (48, 64), "bilinear", flow_depth=6),
        n_latent=12,
        beta=1e-4,
        train=TrainOpts(epochs=10, batch_size=16),
        ga=GaSection(generations=100, buckets={
            "S": [[24, 32], [48, 64]],
            "M": [[72, 96], [96, 128]],
            "L": [[120, 160], [150, 200]],
        }),
    )


def config_to_dict(cfg: ExperimentConfig) -> dict:
    d = asdict(cfg)
    d["genome"] = cfg.genome.to_dict()
    return d


def config_from_dict(d: dict) -> ExperimentConfig:
    d = dict(d)
    family = d.get("family", BVAE)
    base = config_to_dict(default_config(family))
    for key, val in d.items():
        if key not in base:
            raise ValueError(f"unknown config key {key!r}")
        if isinstance(base[key], dict) and isinstance(val, dict) and key != "genome":
            base[key] = {**base[key], **val}
        else:
            base[key] = val
    ds = base["dataset"]
    scene = SceneParams(**ds.pop("scene"))
    ranges = FactorRanges(**{k: tuple(v) if isinstance(v, list) else v
                             for k, v in ds.pop("ranges").items()})
    dataset = DatasetConfig(scene=scene, ranges=ranges, **ds)
    ga = dict(base["ga"])
    ga["buckets"] = {k: list(v) for k, v in ga["buckets"].items()}
    bench = dict(base["bench"])
    bench["throughput_rates"] = tuple(bench["throughput_rates"])
    cfg = ExperimentConfig(
        family=family,
        dataset=dataset,
        requirements=Requirements(**base["requirements"]),
        genome=Genome.from_dict(base["genome"]),
        n_latent=base["n_latent"],
        beta=base["beta"],
        variance_parametrization=base["variance_parametrization"],
        train=TrainOpts(**base["train"]),
        postprocess=PostprocessConfig(**base["postprocess"]),
        delta_grid=tuple(base["delta_grid"]),
        precisions=tuple(base["precisions"]),
        executors=tuple(base["executors"]),
        ga=GaSection(**ga),
        bench=BenchConfig(**bench),
        farneback=FarnebackParams(**base["farneback"]),
    )
    return cfg.validate()


def load_config(path) -> ExperimentConfig:
    return config_from_dict(json.loads(Path(path).read_text()))


def save_config(cfg: ExperimentConfig, path):
    write_atomic(path, json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n")


def bucket_from_config(cfg: ExperimentConfig, name: str):
    """Desk-scale Bucket for one of the config's GA buckets."""
    from .gasearch import BVAE_INTERPOLATIONS, OF_INTERPOLATIONS, Bucket
    sizes = cfg.ga.buckets[name]
    if cfg.family == BVAE:
        return Bucket(name, BVAE, tuple((int(w), int(w)) for w in sizes),
                      BVAE_INTERPOLATIONS, ("rgb", "gray"))
    return Bucket(name, OPTFLOW, tuple(tuple(int(x) for x in hw) for hw in sizes),
                  OF_INTERPOLATIONS, flow_depths=tuple(range(2, 7)))
