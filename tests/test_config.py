import json
import re
from dataclasses import replace

import numpy as np
import pytest

from oodkit.cli import main
from oodkit.config import (
    Requirements,
    bucket_from_config,
    config_from_dict,
    config_to_dict,
    default_config,
    load_config,
    save_config,
)
from oodkit.gasearch import Genome, random_genome
from oodkit.imaging import RESIZE_METHODS

def test_default_configs_validate():
    default_config("bvae").validate()
    default_config("optflow").validate()


def test_roundtrip_json(tmp_path):
    for family in ("bvae", "optflow"):
        cfg = default_config(family)
        save_config(cfg, tmp_path / "c.json")
        assert load_config(tmp_path / "c.json") == cfg


def test_partial_dict_merges_with_defaults():
    cfg = config_from_dict({"n_latent": 4, "train": {"epochs": 3}})
    assert cfg.n_latent == 4
    assert cfg.train.epochs == 3
    assert cfg.train.lr == default_config().train.lr


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown config key"):
        config_from_dict({"turbo": True})
    # a removed setting fails at load time, not silently
    path = tmp_path / "c.json"
    for removed, name in (({"postprocess": {"martingale": "power"}}, "postprocess.martingale"),
                          ({"recalibrate": {"f16": True}}, "recalibrate")):
        path.write_text(json.dumps(removed))
        with pytest.raises(ValueError, match=name):
            load_config(path)
        assert main(["--run-dir", str(tmp_path / "run"), "--config", str(path),
                     "dataset-generate"]) == 2


@pytest.mark.parametrize("family", ["bvae", "optflow"])
def test_partial_nested_override_keeps_family_defaults(family):
    default = default_config(family)
    cfg = config_from_dict({"family": family,
                            "dataset": {"scene": {"shift_per_frame": 2},
                                        "ranges": {"rain_ood": [0.005, 0.01]}}})
    assert cfg.dataset.scene == replace(default.dataset.scene, shift_per_frame=2)
    assert cfg.dataset.ranges == replace(default.dataset.ranges, rain_ood=(0.005, 0.01))
    assert replace(cfg, dataset=default.dataset) == default


@pytest.mark.parametrize("override,message", [
    ({"train": {"epoch": 3}}, "unknown config key 'train.epoch'"),
    ({"dataset": {"scene": {"widht": 32}}}, "unknown config key 'dataset.scene.widht'"),
    ({"train": 5}, "config section 'train' must be an object"),
    ({"dataset": {"ranges": [0.0, 0.003]}}, "config section 'dataset.ranges' must be an object"),
    ({"delta_grid": 0.1}, "config key 'delta_grid' must be a list"),
])
def test_malformed_nested_key_refused_by_path(override, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        config_from_dict(override)


def test_family_mismatch_rejected():
    base = config_to_dict(default_config("bvae"))
    base["dataset"]["family"] = "optflow"
    base["dataset"]["runs"] = 4
    with pytest.raises(ValueError):
        config_from_dict(base)


def test_overlapping_ranges_rejected_at_config_level():
    base = config_to_dict(default_config("bvae"))
    base["dataset"]["ranges"]["rain_ood"] = [0.002, 0.01]
    with pytest.raises(ValueError, match="overlap"):
        config_from_dict(base)


def test_requirements_validation():
    with pytest.raises(ValueError):
        Requirements(min_auroc=0.2).validate()
    with pytest.raises(ValueError):
        Requirements(max_response_ms=-1).validate()


def test_bucket_from_config():
    cfg = default_config("bvae")
    b = bucket_from_config(cfg, "S")
    assert all(h == w for h, w in b.sizes)
    assert b.colors == ("rgb", "gray")
    ocfg = default_config("optflow")
    ob = bucket_from_config(ocfg, "L")
    assert (120, 160) in ob.sizes and (150, 200) in ob.sizes
    assert ob.flow_depths == (2, 3, 4, 5, 6)


def test_unknown_bucket_names_the_configured_ones():
    with pytest.raises(ValueError, match="unknown GA bucket 'X'; the config has 'S', 'M', 'L'"):
        bucket_from_config(default_config("bvae"), "X")


@pytest.mark.parametrize("family,sizes", [("bvae", [[16, 20]]), ("optflow", [24])])
def test_malformed_bucket_refused_at_load(tmp_path, family, sizes):
    buckets = dict(default_config(family).ga.buckets, M=sizes)
    with pytest.raises(ValueError, match="GA bucket 'M'"):
        config_from_dict({"family": family, "ga": {"buckets": buckets}})
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"family": family, "ga": {"buckets": buckets}}))
    assert main(["--run-dir", str(tmp_path / "run"), "--config", str(path),
                 "dataset-generate"]) == 2


@pytest.mark.parametrize("override,message", [
    ({"bench": {"rate_fps": -5}}, "bench.rate_fps must be null or > 0, got -5"),
    ({"bench": {"rate_fps": 0}}, "bench.rate_fps must be null or > 0, got 0"),
    ({"bench": {"rate_fps": "fast"}}, "bench.rate_fps must be null or > 0, got 'fast'"),
    ({"bench": {"throughput_duration_s": 0}}, "bench.throughput_duration_s must be > 0, got 0"),
    ({"bench": {"throughput_duration_s": -1.5}},
     "bench.throughput_duration_s must be > 0, got -1.5"),
    ({"delta_grid": [0.1, -0.2]}, "delta_grid entries must be finite numbers >= 0, got -0.2"),
    ({"delta_grid": [0.1, "a"]}, "delta_grid entries must be finite numbers >= 0, got 'a'"),
    ({"delta_grid": [0.1, None]}, "delta_grid entries must be finite numbers >= 0, got None"),
    ({"delta_grid": [True]}, "delta_grid entries must be finite numbers >= 0, got True"),
    ({"precisions": []}, "precisions must be nonempty, without repeats, got []"),
    ({"precisions": ["f32", "qint8", "f32"]},
     "precisions must be nonempty, without repeats, got ['f32', 'qint8', 'f32']"),
    ({"executors": []}, "executors must be nonempty, without repeats, got []"),
    ({"executors": ["mono_st", "mono_st"]},
     "executors must be nonempty, without repeats, got ['mono_st', 'mono_st']"),
])
def test_bench_sweep_and_matrix_settings_refused_at_load(tmp_path, capsys, override, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        config_from_dict(override)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(override))
    # the phase that reads the key fails at load, before it writes anything
    phase = "sweep-delta" if "delta_grid" in override else "bench"
    run = tmp_path / "run"
    assert main(["--run-dir", str(run), "--config", str(path), phase]) == 2
    assert message in capsys.readouterr().err
    assert list(run.iterdir()) == []


def test_bench_settings_accept_their_edge_values():
    cfg = config_from_dict({"bench": {"rate_fps": None, "throughput_duration_s": 0.1},
                            "delta_grid": [0, 0.5], "precisions": ["qint8"],
                            "executors": ["mono_mt"]})
    assert cfg.bench.rate_fps is None and cfg.delta_grid == (0, 0.5)
    with pytest.raises(ValueError, match="delta_grid entries"):
        config_from_dict({"delta_grid": [float("nan")]})
    with pytest.raises(ValueError, match="delta_grid entries"):
        config_from_dict({"delta_grid": [float("inf")]})


def test_variance_parametrization_validated():
    with pytest.raises(ValueError, match="variance_parametrization"):
        config_from_dict({"variance_parametrization": "std"})
    assert config_from_dict({"variance_parametrization": "log_var"}) \
        .variance_parametrization == "log_var"
    # the flow encoders are always var-parametrized; any other value would do nothing
    with pytest.raises(ValueError, match="optflow"):
        config_from_dict({"family": "optflow", "variance_parametrization": "log_var"})


def test_ga_settings_validated_at_load(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"ga": {"population": 1}}))
    with pytest.raises(ValueError, match="population"):
        load_config(path)


@pytest.mark.parametrize("family,size", [("bvae", [16, 16]), ("optflow", [24, 32])])
def test_partial_genome_override_keeps_family_default(family, size):
    default = default_config(family).genome
    cfg = config_from_dict({"family": family, "genome": {"size": size}})
    assert cfg.genome == replace(default, size=tuple(size))


def test_genome_unknown_key_refused(tmp_path):
    with pytest.raises(ValueError, match=re.escape("unknown genome keys ['colour']")):
        config_from_dict({"genome": {"colour": "gray"}})
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"genome": {"colour": "gray"}}))
    assert main(["--run-dir", str(tmp_path / "run"), "--config", str(path),
                 "dataset-generate"]) == 2


@pytest.mark.parametrize("family,genome,match", [
    ("bvae", {"interpolation": "lanczos"}, "unknown interpolation 'lanczos'"),
    ("optflow", {"size": [0, -3]}, "size (0, -3) is not a (height, width) pair"),
    ("bvae", {"size": [48.5, 48.5]}, "size (48.5, 48.5) is not a (height, width) pair"),
    ("bvae", {"size": 48}, "size 48 is not a (height, width) pair"),
])
def test_malformed_genome_refused_at_load(tmp_path, family, genome, match):
    doc = {"family": family, "genome": genome}
    with pytest.raises(ValueError, match=re.escape(match)):
        config_from_dict(doc)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    assert main(["--run-dir", str(tmp_path / "run"), "--config", str(path),
                 "dataset-generate"]) == 2


@pytest.mark.parametrize("family", ["bvae", "optflow"])
@pytest.mark.parametrize("method", RESIZE_METHODS)
def test_genome_takes_every_resize_method(family, method):
    # the GA draws bvae interpolations from three methods; a configured bvae
    # genome may still name any that imaging.resize takes, area included
    cfg = config_from_dict({"family": family, "genome": {"interpolation": method}})
    assert cfg.genome.interpolation == method


@pytest.mark.parametrize("missing", ["family", "size", "interpolation"])
def test_genome_from_dict_names_a_missing_gene(missing):
    d = {"family": "bvae", "size": [16, 16], "interpolation": "bilinear", "color": "gray"}
    del d[missing]
    with pytest.raises(ValueError, match=f"missing '{missing}'"):
        Genome.from_dict(d)


@pytest.mark.parametrize("family", ["bvae", "optflow"])
def test_complete_genomes_load_unchanged(family):
    """A genome written by to_dict loads as itself, alone or as a config's
    genome section; so does one that leaves out the other family's gene."""
    cfg = default_config(family)
    rng = np.random.default_rng(0)
    for name in cfg.ga.buckets:
        bucket = bucket_from_config(cfg, name)
        for _ in range(10):
            g = random_genome(bucket, rng)
            d = g.to_dict()
            assert Genome.from_dict(d) == g
            assert config_from_dict({"family": family, "genome": d}).genome == g
            short = {k: v for k, v in d.items() if v is not None}
            assert config_from_dict({"family": family, "genome": short}).genome == g


@pytest.mark.parametrize("doc", [[1, 2], "bvae", 3])
def test_config_top_level_must_be_an_object(tmp_path, doc):
    with pytest.raises(ValueError, match="a config must be a JSON object"):
        config_from_dict(doc)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    assert main(["--run-dir", str(tmp_path / "run"), "--config", str(path),
                 "dataset-generate"]) == 2
