import hashlib
from dataclasses import replace

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


# sha256 of every file a save writes, for two small configs
BVAE_DIGESTS = {
    "manifest.jsonl":
        "935bf0b9e7ddc27421549aa67728a18714be267b74120ec596dfeea05b5f657f",
    "s0_r0_f000.pnm":
        "e3b8d6d660c49c50c33c2e3c4ae96e8c750d036b016e486a016e24bbda0a0bdf",
    "s0_r0_f001.pnm":
        "c6815b8ce9bb38a37af762df459819c3537d2e0a9667e8bd11e6404a7136fd4f",
    "s0_r0_f002.pnm":
        "8fa6c499e9021ae03ea05dd85da1d15accd25658fd85700a73abf32b36a44e24",
    "s0_r0_f003.pnm":
        "fe5b76e8322ec528a59836dc583c00bf7f7aaadf8a9b89e5a3039be6b8af093a",
    "s0_r0_f004.pnm":
        "d20a5a327e156991a9de6775dc9adf7e83ff29aad54ff58af918279706aceb75",
    "s0_r0_f005.pnm":
        "dcf734149cc95ea9c9085b3f16718cd17998059c968b268726f25cc2c99a107f",
    "s0_r1_f000.pnm":
        "13feba81ebea75c1e97092ccc844ae0abb528466004f0f4fd90cf7cbf807be11",
    "s0_r1_f001.pnm":
        "e6ca791938eb6bc2e16a382861efbbf1354fee5a0a8f94cdb9e8691eaa0b4bc9",
    "s0_r1_f002.pnm":
        "d217b889abb418eb0d5219640070224cb4a04ad29f673ab5b6e2a0893625a648",
    "s0_r1_f003.pnm":
        "a61931a8a13bc25d8646924c60fa21def26667f46e6edd92b142478b3c1db5e8",
    "s0_r1_f004.pnm":
        "d4e340b0cba07be82feefb7619df2c68120c828dce7b5583eb4b6923f1dd2a5d",
    "s0_r1_f005.pnm":
        "d33b14095dd1d45b1b404922e20bd654223ed3da4131a2490a6aa55f1095b357",
}
OPTFLOW_DIGESTS = {
    "manifest.jsonl":
        "b222d1edf7d956d7926735e14687013457c086356cbbd965d3c2f44adcaa612f",
    "s0_r0_f000.pnm":
        "2f62a83a2996daa9184f4831e68fff70bd3a3c7632f42d5c75edeb925e67f625",
    "s0_r0_f001.pnm":
        "ee6693534fb0510ea1ca98e4ab680d709eb771860c3edde470c026277e9ec0ab",
    "s0_r1_f000.pnm":
        "df0987ca372a3237895ba78e21449b6b90c62b964b311c592c8e53ebc0bece13",
    "s0_r1_f001.pnm":
        "b3298500e7aafbb0063110747310ed080964339547e9fc3e1a26fb743006d781",
    "s0_r2_f000.pnm":
        "72499330c5e95632a7138c79d64c5671dd64710f7e29501aba58c89e8d9c1b92",
    "s0_r2_f001.pnm":
        "3ebbd5a6ddf4b59842d0097a8729131f547e99595c1812b4f5f07b8a662b28f2",
    "s0_r3_f000.pnm":
        "43e3fc58ffe9e905c4f2843d3bdaf2ed07f3f9ea5eb16ae030d02d35f76bdbc0",
    "s0_r3_f001.pnm":
        "c329ccf603fc407869eac258af3a7230710ba2ae4489cfd7a87ccb5bf1a9e0a3",
    "s0_r3_rain_f000.pnm":
        "ac6a2c0faec49ae5abd7f316387cbad8b6f2bd4d8a7e359f27a969b90d8688c7",
    "s0_r3_rain_f001.pnm":
        "4eb62a2a0e4bf057c48c5c06cbcb99601d5e38fa28d6938f7627e233c14efe1d",
    "s0_r3_snow_f000.pnm":
        "f43b269621b86d083867a9ce02eb2a07a1047758469e0a8d71231232c18dfff8",
    "s0_r3_snow_f001.pnm":
        "7353d892af3c52139c595792d1f68aca03a2f7540a7288e84a0137b678187a4f",
}


@pytest.mark.parametrize("cfg, digests", [
    (DatasetConfig(family="bvae", scenes=1, runs=2, frames_per_run=6, seed=5,
                   scene=SceneParams(width=40, height=32, shift_per_frame=2)), BVAE_DIGESTS),
    (DatasetConfig(family="optflow", scenes=1, runs=4, frames_per_run=2, seed=5,
                   scene=SceneParams(width=40, height=32, shift_per_frame=2),
                   ranges=FactorRanges(of_level=0.01)), OPTFLOW_DIGESTS),
], ids=["bvae", "optflow"])
def test_dataset_digests_pinned(tmp_path, cfg, digests):
    """Every image and the manifest hash as pinned: the bvae rows carry rain at
    ID and OOD strengths, the optflow test run has rain and snow frames."""
    rows, images = generate_dataset(cfg)
    assert {r.partition for r in rows} == ({"", "rain", "brightness"} if cfg.family == "bvae"
                                           else {"", "rain", "snow"})
    save_dataset(rows, images, tmp_path)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.iterdir())}
    assert got == digests


@pytest.mark.parametrize("field, bounds, message", [
    ("rain_ood", (0.004, 0.02), "outside"),
    ("rain_id", (-0.002, 0.003), "outside"),
    ("brightness_ood", (0.5, 1.5), "outside"),
    ("brightness_id", (-1.5, 0.4), "outside"),
    ("rain_ood", (0.01, 0.005), "low > high"),
    ("brightness_id", (0.3, -0.3), "low > high"),
])
def test_factor_ranges_refused_before_generation(field, bounds, message):
    """A range the rain or brightness operator would refuse, or a reversed one,
    is refused by validate, before any frame is rendered, naming the field."""
    cfg = bvae_cfg(ranges=replace(FactorRanges(), **{field: bounds}))
    with pytest.raises(ValueError, match=f"^{field} .*{message}"):
        cfg.validate()
    with pytest.raises(ValueError, match=f"^{field} "):
        generate_dataset(cfg)
