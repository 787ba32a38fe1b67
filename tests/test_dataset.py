import pytest

from oodkit.dataset import (
    DatasetConfig,
    FactorRanges,
    ManifestRow,
    bvae_test_streams,
    generate_dataset,
    load_dataset,
    of_sequences,
    of_test_streams,
    save_dataset,
    split_images,
    validate_manifest,
)
from oodkit.imaging import SceneParams

FAST_SCENE = SceneParams(width=32, height=32, shift_per_frame=2)


def bvae_cfg(**kw):
    base = dict(family="bvae", scenes=2, runs=3, frames_per_run=6, seed=5, scene=FAST_SCENE)
    base.update(kw)
    return DatasetConfig(**base)


def test_ratios_and_partitions():
    rows, images = generate_dataset(bvae_cfg())
    validate_manifest(rows)
    n_train = sum(r.split == "train" for r in rows)
    n_calib = sum(r.split == "calib" for r in rows)
    assert n_train == 2 * n_calib
    test = [r for r in rows if r.split == "test"]
    n_id = sum(not r.is_ood for r in test)
    for part in ("rain", "brightness"):
        assert sum(r.partition == part for r in test) == n_id
    assert len(images) == len(rows)


def test_factor_ranges_respected():
    rows, _ = generate_dataset(bvae_cfg())
    for r in rows:
        if r.partition == "rain":
            assert 0.004 <= r.rain <= 0.01
            assert -0.5 <= r.brightness <= 0.5
        elif r.partition == "brightness":
            assert 0.5 <= abs(r.brightness) <= 1.0
            assert r.rain <= 0.003
        else:
            assert r.rain <= 0.003
            assert -0.5 <= r.brightness <= 0.5


def test_determinism():
    rows_a, images_a = generate_dataset(bvae_cfg())
    rows_b, images_b = generate_dataset(bvae_cfg())
    assert [r.to_json() for r in rows_a] == [r.to_json() for r in rows_b]
    for path in images_a:
        assert images_a[path] == images_b[path]
    rows_c, _ = generate_dataset(bvae_cfg(seed=6))
    assert [r.to_json() for r in rows_a] != [r.to_json() for r in rows_c]


def test_overlapping_ranges_rejected():
    with pytest.raises(ValueError, match="overlap"):
        bvae_cfg(ranges=FactorRanges(rain_id=(0.0, 0.005), rain_ood=(0.004, 0.01))).validate()
    with pytest.raises(ValueError, match="overlap"):
        bvae_cfg(ranges=FactorRanges(brightness_id=(-0.7, 0.7),
                                     brightness_ood=(0.5, 1.0))).validate()


def test_config_validation():
    with pytest.raises(ValueError):
        bvae_cfg(frames_per_run=7).validate()  # test split not 1/1/1
    with pytest.raises(ValueError):
        DatasetConfig(family="optflow", runs=3, scene=FAST_SCENE).validate()
    with pytest.raises(ValueError):
        bvae_cfg(family="audio").validate()


def test_save_load_roundtrip(tmp_path):
    rows, images = generate_dataset(bvae_cfg())
    save_dataset(rows, images, tmp_path / "ds")
    rows2, images2 = load_dataset(tmp_path / "ds")
    assert [r.to_json() for r in rows] == [r.to_json() for r in rows2]
    for path in images:
        assert images[path] == images2[path]


def test_interrupted_save_leaves_no_dataset(tmp_path, monkeypatch):
    """A save killed mid-images leaves no manifest, neither a short one nor
    the previous one, so the directory never loads as a smaller dataset."""
    import oodkit.dataset as ds
    rows, images = generate_dataset(bvae_cfg())
    save_dataset(rows, images, tmp_path / "ds")
    encode = ds.encode_pnm
    calls = []

    def dying(img):
        calls.append(img)
        if len(calls) == 5:
            raise KeyboardInterrupt
        return encode(img)
    monkeypatch.setattr(ds, "encode_pnm", dying)
    with pytest.raises(KeyboardInterrupt):
        save_dataset(rows, images, tmp_path / "ds")
    assert not (tmp_path / "ds" / "manifest.jsonl").exists()


def test_bvae_streams_shape():
    rows, images = generate_dataset(bvae_cfg())
    streams = bvae_test_streams(rows, images)
    assert set(streams) == {"id", "rain", "brightness"}
    assert len(streams["id"][0]) == len(streams["rain"][0]) == len(streams["brightness"][0])
    assert split_images(rows, images, "train")


def of_cfg():
    return DatasetConfig(family="optflow", scenes=2, runs=4, frames_per_run=8,
                         seed=5, scene=FAST_SCENE)


def test_of_dataset_structure():
    rows, images = generate_dataset(of_cfg())
    validate_manifest(rows)
    train = of_sequences(rows, images, "train")
    calib = of_sequences(rows, images, "calib")
    assert len(train) == 2 * len(calib)  # runs split 2/1 per scene
    for seq in train + calib:
        assert len(seq) == 8
    streams = of_test_streams(rows, images)
    assert set(streams) == {"id", "rain", "snow"}
    for part in streams.values():
        assert len(part) == 2  # one sequence per scene
    # snow frames differ from their clean counterparts
    clean = streams["id"][0][3]
    snowy = streams["snow"][0][3]
    assert clean != snowy


def test_manifest_row_roundtrip():
    row = ManifestRow("x.pnm", 1, 2, 3, "test", 0.005, 0.0, -0.1, True, "rain")
    assert ManifestRow.from_json(row.to_json()) == row


def test_validate_manifest_catches_bad_ratio():
    rows, _ = generate_dataset(bvae_cfg())
    broken = [r for r in rows if not (r.split == "calib" and r.frame_index == 2)]
    with pytest.raises(ValueError, match="2/1"):
        validate_manifest(broken)
