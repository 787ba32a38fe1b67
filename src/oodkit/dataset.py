"""Synthetic scene datasets with controlled ID/OOD factor partitions, plus the
manifest that records every image's split, factors, and partition tag."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .fileio import write_atomic
from .gasearch import BVAE, OPTFLOW
from .imaging import (
    MAX_STRENGTH,
    Image,
    SceneParams,
    adjust_brightness,
    augment_rain,
    augment_snow,
    decode_pnm,
    encode_pnm,
    synth_scene,
)


@dataclass(frozen=True)
class FactorRanges:
    rain_id: tuple = (0.0, 0.003)
    rain_ood: tuple = (0.004, 0.01)
    brightness_id: tuple = (-0.5, 0.5)
    brightness_ood: tuple = (0.5, 1.0)  # absolute value; sign drawn at random
    of_level: float = 0.003             # rain/snow strength for flow OOD frames

    def validate(self):
        # the ranges the rain and brightness operators accept
        for name, (lo, hi) in (("rain_id", (0.0, MAX_STRENGTH)),
                               ("rain_ood", (0.0, MAX_STRENGTH)),
                               ("brightness_id", (-1.0, 1.0)),
                               ("brightness_ood", (-1.0, 1.0))):
            bounds = getattr(self, name)
            low, high = bounds
            if low > high:
                raise ValueError(f"{name} {bounds} has low > high")
            if low < lo or high > hi:
                raise ValueError(f"{name} {bounds} is outside [{lo}, {hi}]")
        if self.rain_id[1] >= self.rain_ood[0]:
            raise ValueError(
                f"rain ID range {self.rain_id} overlaps OOD range {self.rain_ood}")
        if self.brightness_id[1] > self.brightness_ood[0] or \
                -self.brightness_id[0] > self.brightness_ood[0]:
            raise ValueError(
                f"brightness ID range {self.brightness_id} overlaps OOD range "
                f"+/-{self.brightness_ood}")
        if not 0 < self.of_level <= MAX_STRENGTH:
            raise ValueError(f"flow OOD level out of (0, {MAX_STRENGTH}]: {self.of_level}")


@dataclass(frozen=True)
class DatasetConfig:
    family: str = BVAE
    scenes: int = 5
    runs: int = 4
    frames_per_run: int = 24
    seed: int = 0
    scene: SceneParams = field(default_factory=SceneParams)
    ranges: FactorRanges = field(default_factory=FactorRanges)

    def validate(self):
        if self.family not in (BVAE, OPTFLOW):
            raise ValueError(f"unknown dataset family {self.family!r}")
        if self.scenes < 1 or self.runs < 2 or self.frames_per_run < 1:
            raise ValueError("need at least 1 scene, 2 runs, 1 frame per run")
        if self.scenes > self.scene.n_scenes:
            raise ValueError(f"scene generator provides only {self.scene.n_scenes} scenes")
        if self.family == BVAE and self.frames_per_run % 3 != 0:
            raise ValueError("bvae datasets need frames_per_run divisible by 3 "
                             "(test frames split 1/1/1 into id/rain/brightness)")
        if self.family == BVAE and ((self.runs - 1) * self.frames_per_run * self.scenes) % 3 != 0:
            raise ValueError("ID pool must be divisible by 3 for the exact 2/1 split")
        if self.family == OPTFLOW and (self.runs - 1) % 3 != 0:
            raise ValueError("optflow datasets need runs-1 divisible by 3 "
                             "(per-run 2/1 train/calib split)")
        self.ranges.validate()


@dataclass
class ManifestRow:
    path: str
    scene_id: int
    run: int
    frame_index: int
    split: str       # train | calib | test
    rain: float
    snow: float
    brightness: float
    is_ood: bool
    partition: str   # "" for ID rows; OOD factor name otherwise

    def to_json(self):
        return json.dumps(self.__dict__, sort_keys=True)

    @classmethod
    def from_json(cls, line):
        return cls(**json.loads(line))


def _image_rng(cfg: DatasetConfig, scene: int, run: int, frame: int, salt: int = 0):
    return np.random.default_rng(
        np.random.SeedSequence([cfg.seed, scene, run, frame, salt]))


def _render_bvae(cfg, scene, run, frame, rain, brightness, rng) -> Image:
    img = synth_scene(scene, run * cfg.frames_per_run + frame, cfg.scene)
    if rain > 0:
        img = augment_rain(img, rain, int(rng.integers(0, 2**63)))
    return adjust_brightness(img, brightness)


def generate_dataset(cfg: DatasetConfig):
    """Deterministic dataset from the config seed: (manifest rows, images).

    images maps each manifest path to an in-memory Image; persisting to disk
    is the caller's concern (see save_dataset/load_dataset).
    """
    cfg.validate()
    return (_generate_bvae(cfg) if cfg.family == BVAE else _generate_of(cfg))


def _generate_bvae(cfg: DatasetConfig):
    rows = []
    images = {}
    r = cfg.ranges
    id_index = 0
    for scene in range(cfg.scenes):
        for run in range(cfg.runs):
            test_run = run == cfg.runs - 1
            for frame in range(cfg.frames_per_run):
                rng = _image_rng(cfg, scene, run, frame)
                if test_run:
                    kind = ("id", "rain", "brightness")[frame % 3]
                else:
                    kind = "id"
                rain = float(rng.uniform(*r.rain_id))
                brightness = float(rng.uniform(*r.brightness_id))
                if kind == "rain":
                    rain = float(rng.uniform(*r.rain_ood))
                elif kind == "brightness":
                    sign = 1.0 if rng.random() < 0.5 else -1.0
                    brightness = float(sign * rng.uniform(*r.brightness_ood))
                if test_run:
                    split = "test"
                else:
                    split = "calib" if id_index % 3 == 2 else "train"
                    id_index += 1
                img = _render_bvae(cfg, scene, run, frame, rain, brightness, rng)
                path = f"s{scene}_r{run}_f{frame:03d}.pnm"
                rows.append(ManifestRow(path, scene, run, frame, split, rain, 0.0,
                                        brightness, kind != "id",
                                        "" if kind == "id" else kind))
                images[path] = img
    return rows, images


def _generate_of(cfg: DatasetConfig):
    rows = []
    images = {}
    r = cfg.ranges
    id_runs = cfg.runs - 1
    calib_count = id_runs // 3
    for scene in range(cfg.scenes):
        for run in range(cfg.runs):
            test_run = run == cfg.runs - 1
            if test_run:
                variants = ("id", "rain", "snow")
                split = "test"
            else:
                variants = ("id",)
                split = "calib" if run >= id_runs - calib_count else "train"
            for variant in variants:
                for frame in range(cfg.frames_per_run):
                    rng = _image_rng(cfg, scene, run, frame,
                                     salt=("id", "rain", "snow").index(variant))
                    img = synth_scene(scene, run * cfg.frames_per_run + frame, cfg.scene)
                    rain = snow = 0.0
                    if variant == "rain":
                        rain = r.of_level
                        img = augment_rain(img, rain, int(rng.integers(0, 2**63)))
                    elif variant == "snow":
                        snow = r.of_level
                        img = augment_snow(img, snow, int(rng.integers(0, 2**63)))
                    tag = "" if variant == "id" else f"_{variant}"
                    path = f"s{scene}_r{run}{tag}_f{frame:03d}.pnm"
                    rows.append(ManifestRow(path, scene, run, frame, split, rain, snow,
                                            0.0, variant != "id",
                                            "" if variant == "id" else variant))
                    images[path] = img
    return rows, images


def validate_manifest(rows):
    """Consistency checks: 2/1 train/calib, 1/1 ID/OOD per test partition,
    no path in two splits."""
    paths = [r.path for r in rows]
    if len(set(paths)) != len(paths):
        raise ValueError("duplicate image paths in manifest")
    n_train = sum(r.split == "train" for r in rows)
    n_calib = sum(r.split == "calib" for r in rows)
    if n_calib == 0 or n_train != 2 * n_calib:
        raise ValueError(f"train/calib split {n_train}/{n_calib} is not 2/1")
    test = [r for r in rows if r.split == "test"]
    n_id = sum(not r.is_ood for r in test)
    partitions = {r.partition for r in test if r.is_ood}
    for p in partitions:
        n_p = sum(r.partition == p for r in test)
        if n_p != n_id:
            raise ValueError(f"test partition {p!r} has {n_p} OOD vs {n_id} ID rows (need 1/1)")
    return True


def save_dataset(rows, images, out_dir):
    """Write the images, then the manifest that lists them. Any old manifest
    goes first: an interrupted write leaves no dataset, never a short or a
    stale one."""
    out_dir = Path(out_dir)
    (out_dir / "manifest.jsonl").unlink(missing_ok=True)
    for path, img in images.items():
        write_atomic(out_dir / path, encode_pnm(img))
    write_atomic(out_dir / "manifest.jsonl", "".join(row.to_json() + "\n" for row in rows))


def load_dataset(out_dir):
    out_dir = Path(out_dir)
    rows = [ManifestRow.from_json(line)
            for line in (out_dir / "manifest.jsonl").read_text().splitlines() if line]
    images = {r.path: decode_pnm((out_dir / r.path).read_bytes()) for r in rows}
    return rows, images


# ---------------------------------------------------------------------------
# Views used by the training/evaluation workflow

def split_images(rows, images, split):
    return [images[r.path] for r in rows if r.split == split]


def bvae_test_streams(rows, images):
    """Per-partition frame streams, ordered by (scene, frame)."""
    test = sorted((r for r in rows if r.split == "test"),
                  key=lambda r: (r.scene_id, r.frame_index))
    streams = {"id": [[images[r.path] for r in test if not r.is_ood]]}
    for part in sorted({r.partition for r in test if r.is_ood}):
        streams[part] = [[images[r.path] for r in test if r.partition == part]]
    return streams


def of_sequences(rows, images, split, partition=""):
    """Frame sequences (one per scene/run/variant), ordered by frame index."""
    chosen = [r for r in rows if r.split == split and r.partition == partition]
    keys = sorted({(r.scene_id, r.run) for r in chosen})
    seqs = []
    for scene, run in keys:
        frames = sorted((r for r in chosen if (r.scene_id, r.run) == (scene, run)),
                        key=lambda r: r.frame_index)
        seqs.append([images[r.path] for r in frames])
    return seqs


def of_test_streams(rows, images):
    streams = {"id": of_sequences(rows, images, "test", "")}
    for part in sorted({r.partition for r in rows if r.split == "test" and r.is_ood}):
        streams[part] = of_sequences(rows, images, "test", part)
    return streams
