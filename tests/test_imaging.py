from collections import Counter

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


def test_image_refuses_bad_shapes():
    for bad in ([1, 2, 3], np.zeros((2, 2, 2)), np.zeros((1, 2, 3, 4))):
        with pytest.raises(ValueError, match="got shape"):
            Image(bad)


def test_augmentations_identity_and_determinism():
    base = synth_scene(0, 0, SceneParams(width=64, height=64))
    for fn in (augment_rain, augment_snow):
        assert fn(base, 0.0, 42) == base
        assert fn(base, 0.005, 42) == fn(base, 0.005, 42)
        assert fn(base, 0.005, 42) != fn(base, 0.005, 43)


def full_frame_snow(img, strength, seed, discs=None):
    """Reference snow: every disc's mask evaluated over the whole frame and
    blended on its own, in draw order. Each disc's mask is appended to
    `discs` when given."""
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
        if discs is not None:
            discs.append(mask)
    return Image(_round_u8(canvas))


def sequential_rain(img, strength, seed, streaks=None):
    """Reference rain: each streak rasterized and blended on its own, in draw
    order. For each streak, its set of (y, x) pixels and whether the frame
    clipped it are appended to `streaks` when given."""
    count = int(round(strength * img.width * img.height))
    if count == 0:
        return img
    rng = np.random.default_rng(np.random.PCG64(seed))
    canvas = img.pixels.astype(np.float64).copy()
    h, w = canvas.shape[:2]
    base_len = max(img.height // 4, 6)
    for _ in range(count):
        x0 = rng.uniform(0, img.width)
        y0 = rng.uniform(0, img.height)
        length = int(rng.integers(base_len, base_len * 2))
        angle = rng.uniform(np.deg2rad(55), np.deg2rad(80))
        value = rng.uniform(200, 245)
        ts = np.arange(length)
        xr = np.round(x0 + ts * np.cos(angle)).astype(int)
        yr = np.round(y0 + ts * np.sin(angle)).astype(int)
        xs = np.clip(xr, 0, w - 1)
        ys = np.clip(yr, 0, h - 1)
        canvas[ys, xs] = (1 - 0.65) * canvas[ys, xs] + 0.65 * value
        if streaks is not None:
            streaks.append((set(zip(ys.tolist(), xs.tolist())),
                            bool(np.any(xr != xs) or np.any(yr != ys))))
    return Image(_round_u8(canvas))


def random_frames(seed, n):
    """(image, strength, seed) cases: 4-40 px frames of 1 or 3 channels at
    strengths up to 0.01, a fifth of them at 0.01."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        h, w = (int(n) for n in rng.integers(4, 41, 2))
        c = int(rng.choice([1, 3]))
        img = Image(rng.integers(0, 256, (h, w, c)).astype(np.uint8))
        strength = float(rng.uniform(0.0, 0.01)) if rng.random() < 0.8 else 0.01
        yield img, strength, int(rng.integers(0, 2**31))


def test_snow_matches_full_frame_reference():
    hit_border = overlapped = 0
    for img, strength, seed in random_frames(17, 150):
        discs = []
        got, want = augment_snow(img, strength, seed), full_frame_snow(img, strength, seed, discs)
        assert np.array_equal(got.pixels, want.pixels), (img, strength, seed)
        edge = np.zeros((img.height, img.width), bool)
        edge[[0, -1], :] = edge[:, [0, -1]] = True
        hit_border += bool(np.any(got.pixels != img.pixels, axis=2)[edge].any())
        overlapped += bool(discs) and int(np.sum(discs, axis=0).max()) >= 2
    assert hit_border > 20  # discs clipped by the frame are covered
    assert overlapped > 10  # so are pixels under two or more discs


def test_rain_matches_sequential_reference():
    clipped = overlapped = 0
    for img, strength, seed in random_frames(23, 150):
        streaks = []
        got, want = augment_rain(img, strength, seed), sequential_rain(img, strength, seed, streaks)
        assert np.array_equal(got.pixels, want.pixels), (img, strength, seed)
        clipped += any(clip for _, clip in streaks)
        hits = Counter(p for pixels, _ in streaks for p in pixels)
        overlapped += max(hits.values(), default=0) >= 2
    assert clipped > 20  # streaks that run off the frame are covered
    assert overlapped > 20  # so are pixels under two or more streaks


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
