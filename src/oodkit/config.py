"""Experiment configuration: one JSON document that drives every phase, with
validation of the requirement/range invariants."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path

from .dataset import DatasetConfig
from .fileio import write_atomic
from .gasearch import (
    BVAE,
    BVAE_INTERPOLATIONS,
    GRAY,
    OF_INTERPOLATIONS,
    OPTFLOW,
    RGB,
    Bucket,
    GAConfig,
    Genome,
)
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
    genome: Genome = None  # default_config sets each family's default genome
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
        for d in self.delta_grid:
            if not (_is_number(d) and math.isfinite(d) and d >= 0):
                raise ValueError(f"delta_grid entries must be finite numbers >= 0, got {d!r}")
        for key, values, known in (("precision", self.precisions, PRECISIONS),
                                   ("executor", self.executors, EXECUTOR_KINDS)):
            for v in values:
                if v not in known:
                    raise ValueError(f"unknown {key} {v!r}")
            if not values or len(set(values)) != len(values):
                raise ValueError(f"{key}s must be nonempty, without repeats, got {list(values)}")
        rate = self.bench.rate_fps
        if rate is not None and not (_is_number(rate) and rate > 0):
            raise ValueError(f"bench.rate_fps must be null or > 0, got {rate!r}")
        duration = self.bench.throughput_duration_s
        if not (_is_number(duration) and duration > 0):
            raise ValueError(f"bench.throughput_duration_s must be > 0, got {duration!r}")
        if self.variance_parametrization not in VAR_PARAMS:
            raise ValueError(
                f"unknown variance_parametrization {self.variance_parametrization!r}")
        if self.family == OPTFLOW and self.variance_parametrization != VAR:
            raise ValueError(f"the optflow encoders are {VAR!r}-parametrized, "
                             f"got {self.variance_parametrization!r}")
        if self.beta <= 0 or self.n_latent < 1:
            raise ValueError("beta must be > 0 and n_latent >= 1")
        if not isinstance(self.ga.buckets, dict):
            raise ValueError(f"ga.buckets must be an object, got {self.ga.buckets!r}")
        for name in self.ga.buckets:
            bucket_from_config(self, name)
        return self


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def default_config(family: str = BVAE) -> ExperimentConfig:
    if family == BVAE:
        return ExperimentConfig(
            dataset=DatasetConfig(seed=7, scene=SceneParams(width=64, height=64,
                                                            shift_per_frame=3)),
            genome=Genome(BVAE, (48, 48), "bilinear", color=RGB))
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


def _merge(default, value, path: str):
    """`value`, parsed from JSON, laid over `default`: a dataclass section
    field by field at every depth (its checks run again), a genome gene by
    gene, any other value whole, a list as a tuple where the default is one."""
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"config key {path!r} must be a list, got {value!r}")
        return tuple(value)
    if not is_dataclass(default):
        return value
    if not isinstance(value, dict):
        raise ValueError(f"config section {path!r} must be an object, got {value!r}")
    if isinstance(default, Genome):
        return Genome.from_dict({**default.to_dict(), **value})
    names = {f.name for f in fields(default)}
    changes = {}
    for key, val in value.items():
        where = f"{path}.{key}" if path else key
        if key not in names:
            raise ValueError(f"unknown config key {where!r}")
        changes[key] = _merge(getattr(default, key), val, where)
    return replace(default, **changes)


def config_from_dict(d: dict) -> ExperimentConfig:
    """The family's default config with `d` laid over it, validated."""
    if not isinstance(d, dict):
        raise ValueError(f"a config must be a JSON object, got {d!r}")
    return _merge(default_config(d.get("family", BVAE)), d, "").validate()


def load_config(path) -> ExperimentConfig:
    return config_from_dict(json.loads(Path(path).read_text()))


def save_config(cfg: ExperimentConfig, path):
    write_atomic(path, json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n")


def bucket_from_config(cfg: ExperimentConfig, name: str) -> Bucket:
    """Desk-scale Bucket for one of the config's GA buckets: widths of square
    frames for the image detector, (height, width) pairs for the flow one."""
    if name not in cfg.ga.buckets:
        raise ValueError(f"unknown GA bucket {name!r}; the config has "
                         f"{', '.join(map(repr, cfg.ga.buckets)) or 'none'}")
    sizes = cfg.ga.buckets[name]
    try:
        if cfg.family == BVAE:
            return Bucket(name, BVAE, tuple((w, w) for w in sizes),
                          BVAE_INTERPOLATIONS, (RGB, GRAY))
        return Bucket(name, OPTFLOW, tuple(tuple(hw) for hw in sizes),
                      OF_INTERPOLATIONS, flow_depths=tuple(range(2, 7)))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"GA bucket {name!r} {sizes!r}: {exc}") from exc
