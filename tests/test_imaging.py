import numpy as np
import pytest

from oodkit.imaging import (
    AREA,
    BICUBIC,
    BILINEAR,
    NEAREST,
    RESIZE_METHODS,
    Image,
    PnmHeaderError,
    PnmMagicError,
    PnmTruncatedError,
    SceneParams,
    _round_u8,
    adjust_brightness,
    augment_rain,
    augment_snow,
    decode_pnm,
    encode_pnm,
    resize,
    sharpen,
    synth_scene,
    to_grayscale,
)


def gray(arr):
    return Image(np.asarray(arr, dtype=np.uint8)[:, :, None])


def test_pnm_p5_roundtrip():
    data = b"P5 2 2 255 " + bytes([1, 2, 3, 4])
    img = decode_pnm(data)
    assert (img.width, img.height, img.channels) == (2, 2, 1)
    assert decode_pnm(encode_pnm(img)) == img


def test_pnm_p6_roundtrip_with_comment():
    payload = bytes(range(12))
    raw = b"P6\n# a comment\n2 2\n255\n" + payload
    img = decode_pnm(raw)
    assert img.channels == 3
    assert img.pixels.tobytes() == payload
    assert decode_pnm(encode_pnm(img)) == img
    # re-encoding reproduces the input byte-for-byte modulo the comment line
    assert encode_pnm(img) == raw.replace(b"# a comment\n", b"")


def test_pnm_error_cases():
    with pytest.raises(PnmMagicError):
        decode_pnm(b"P3 1 1 255 x")
    with pytest.raises(PnmHeaderError):
        decode_pnm(b"P5 a 2 255 ")
    with pytest.raises(PnmHeaderError):
        decode_pnm(b"P5 2 2 65535 " + bytes(8))
    with pytest.raises(PnmTruncatedError):
        decode_pnm(b"P5 2 2 255 " + bytes(3))


def test_grayscale_examples():
    white = Image(np.full((1, 1, 3), 255, np.uint8))
    assert to_grayscale(white).pixels[0, 0, 0] == 255
    red = Image(np.array([[[255, 0, 0]]], np.uint8))
    assert to_grayscale(red).pixels[0, 0, 0] == 76  # round(0.299*255)
    g = gray([[10, 20]])
    assert to_grayscale(g) is g


def test_resize_identity_and_constant():
    rng = np.random.default_rng(0)
    img = Image(rng.integers(0, 256, (7, 9, 3), dtype=np.uint8))
    const = gray(np.full((5, 6), 7))
    for m in RESIZE_METHODS:
        assert resize(img, 9, 7, m) == img
        assert np.all(resize(const, 11, 3, m).pixels == 7)


def test_resize_bilinear_hand_case():
    img = gray([[0, 100]])
    out = resize(img, 3, 1, BILINEAR)
    assert out.pixels[0, :, 0].tolist() == [0, 50, 100]


def test_resize_area_exact_mean():
    img = gray([[10, 20], [30, 40]])
    assert resize(img, 1, 1, AREA).pixels[0, 0, 0] == 25


def test_resize_bounds():
    rng = np.random.default_rng(1)
    img = Image(rng.integers(40, 200, (16, 12, 3), dtype=np.uint8))
    lo, hi = img.pixels.min(), img.pixels.max()
    for m in (NEAREST, BILINEAR, AREA):
        out = resize(img, 7, 21, m).pixels
        assert out.min() >= lo and out.max() <= hi
    out = resize(img, 7, 21, BICUBIC).pixels  # may overshoot but stays clamped
    assert out.min() >= 0 and out.max() <= 255
    with pytest.raises(ValueError):
        resize(img, 0, 4, NEAREST)


def test_grayscale_resize_commute_within_one_level():
    rng = np.random.default_rng(2)
    img = Image(rng.integers(0, 256, (20, 24, 3), dtype=np.uint8))
    a = to_grayscale(resize(img, 10, 12, BILINEAR)).pixels.astype(int)
    b = resize(to_grayscale(img), 10, 12, BILINEAR).pixels.astype(int)
    assert np.abs(a - b).max() <= 1


def test_sharpen():
    const = Image(np.full((4, 5, 3), 99, np.uint8))
    assert sharpen(const) == const
    spot = np.zeros((5, 5), np.uint8)
    spot[2, 2] = 255
    out = sharpen(gray(spot)).pixels[:, :, 0]
    assert out[2, 2] == 255
    assert out[1, 2] == out[3, 2] == out[2, 1] == out[2, 3] == 0


def test_brightness():
    img = gray([[100, 200]])
    assert adjust_brightness(img, 0.0) == img
    assert np.all(adjust_brightness(img, -1.0).pixels == 0)
    assert adjust_brightness(img, 0.5).pixels[0, 0, 0] == 150
    with pytest.raises(ValueError):
        adjust_brightness(img, 1.5)


def test_augmentations_identity_and_determinism():
    base = synth_scene(0, 0, SceneParams(width=64, height=64))
    for fn in (augment_rain, augment_snow):
        assert fn(base, 0.0, 42) == base
        assert fn(base, 0.005, 42) == fn(base, 0.005, 42)
        assert fn(base, 0.005, 42) != fn(base, 0.005, 43)


def full_frame_snow(img, strength, seed):
    """Reference snow: every disc's mask evaluated over the whole frame."""
    count = int(round(strength * img.width * img.height))
    if count == 0:
        return img
    rng = np.random.default_rng(np.random.PCG64(seed))
    canvas = img.pixels.astype(np.float64).copy()
    h, w = canvas.shape[:2]
    yy, xx = np.mgrid[0:h, 0:w]
    for _ in range(count):
        cx = rng.uniform(0, w)
        cy = rng.uniform(0, h)
        r = rng.uniform(0.8, 2.0)
        value = rng.uniform(225, 250)
        mask = (xx - cx) ** 2 + (yy - cy) ** 2 <= r * r
        canvas[mask] = (1 - 0.9) * canvas[mask] + 0.9 * value
    return Image(_round_u8(canvas))


def test_snow_matches_full_frame_reference():
    rng = np.random.default_rng(17)
    hit_border = 0
    for _ in range(150):
        h, w = (int(n) for n in rng.integers(4, 41, 2))
        c = int(rng.choice([1, 3]))
        img = Image(rng.integers(0, 256, (h, w, c)).astype(np.uint8))
        strength = float(rng.uniform(0.0, 0.01)) if rng.random() < 0.8 else 0.01
        seed = int(rng.integers(0, 2**31))
        got, want = augment_snow(img, strength, seed), full_frame_snow(img, strength, seed)
        assert np.array_equal(got.pixels, want.pixels), (h, w, c, strength, seed)
        edge = np.zeros((h, w), bool)
        edge[[0, -1], :] = edge[:, [0, -1]] = True
        hit_border += bool(np.any(got.pixels != img.pixels, axis=2)[edge].any())
    assert hit_border > 20  # discs clipped by the frame are covered


def test_augmentation_strength_monotone():
    base = synth_scene(1, 0, SceneParams(width=64, height=64))
    for fn in (augment_rain, augment_snow):
        weak = fn(base, 0.003, 99).pixels.astype(int)
        strong = fn(base, 0.01, 99).pixels.astype(int)
        orig = base.pixels.astype(int)
        changed_weak = int(np.any(weak != orig, axis=2).sum())
        changed_strong = int(np.any(strong != orig, axis=2).sum())
        assert changed_strong > changed_weak


def test_synth_scene_determinism_and_distinct_scenes():
    p = SceneParams()
    assert synth_scene(2, 5, p) == synth_scene(2, 5, p)
    assert synth_scene(0, 5, p) != synth_scene(1, 5, p)
    with pytest.raises(ValueError):
        synth_scene(p.n_scenes, 0, p)


def test_synth_scene_shift_correlation_peak():
    # brute-force cross-correlation over lags on a background row
    p = SceneParams(width=96, height=64, shift_per_frame=3)
    a = to_grayscale(synth_scene(0, 7, p)).pixels[10, :, 0].astype(np.float64)
    b = to_grayscale(synth_scene(0, 8, p)).pixels[10, :, 0].astype(np.float64)
    a -= a.mean()
    b -= b.mean()
    corr = [np.dot(np.roll(a, -lag), b) for lag in range(p.width)]
    assert int(np.argmax(corr)) == p.shift_per_frame
