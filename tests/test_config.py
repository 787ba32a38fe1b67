import json

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
    for removed, error, name in (({"postprocess": {"martingale": "power"}}, TypeError,
                                  "martingale"),
                                 ({"recalibrate": {"f16": True}}, ValueError, "recalibrate")):
        path.write_text(json.dumps(removed))
        with pytest.raises(error, match=name):
            load_config(path)
        assert main(["--run-dir", str(tmp_path / "run"), "--config", str(path),
                     "dataset-generate"]) == 2


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
