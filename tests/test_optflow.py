import math

import numpy as np
import pytest

from oodkit import optflow
from oodkit.imaging import Image
from oodkit.optflow import (
    FarnebackParams,
    _border_scale,
    _box_filter,
    _correlate_axis,
    _poly_channels,
    _update_matrices,
    expand_frame,
    farneback_flow,
    farneback_flows,
)


def textured_frame(seed, size=64, shift=0):
    """Smooth random texture; shift rolls it horizontally with wraparound."""
    rng = np.random.default_rng(seed)
    freq = rng.uniform(1, 5, size=(8, 2))
    phase = rng.uniform(0, 2 * np.pi, size=8)
    amp = rng.uniform(0.3, 1.0, size=8)
    xs = np.arange(size)[None, :]
    ys = np.arange(size)[:, None]
    img = np.zeros((size, size))
    for (fx, fy), ph, a in zip(freq, phase, amp):
        img += a * np.sin(2 * np.pi * fx * xs / size + ph) * np.cos(2 * np.pi * fy * ys / size)
    img = (img - img.min()) / np.ptp(img) * 255
    img = np.roll(img, shift, axis=1)
    return Image(np.floor(img + 0.5).astype(np.uint8)[:, :, None])


def poly_fit_oracle(img, cx, cy, poly_n, poly_sigma):
    """Direct Gaussian-weighted least squares at one pixel."""
    n = poly_n // 2
    offs = np.arange(-n, n + 1)
    g = np.exp(-offs.astype(float) ** 2 / (2 * poly_sigma**2))
    g /= g.sum()
    rows = []
    vals = []
    wts = []
    for dy in offs:
        for dx in offs:
            rows.append([1.0, dx, dy, dx * dx, dy * dy, dx * dy])
            vals.append(float(img[cy + dy, cx + dx]))
            wts.append(g[dy + n] * g[dx + n])
    A = np.asarray(rows)
    b = np.asarray(vals)
    w = np.sqrt(np.asarray(wts))
    coef, *_ = np.linalg.lstsq(A * w[:, None], b * w, rcond=None)
    return coef  # (c, bx, by, axx, ayy, axy)


def poly_planes(img, poly_n, poly_sigma):
    """The named coefficient planes of Farneback's quadratic fit."""
    r = _poly_channels(np.asarray(img, dtype=np.float32), poly_n, poly_sigma)
    by, bx, ayy, axx, axy2 = np.moveaxis(r, -1, 0)
    return {"by": by, "bx": bx, "ayy": ayy, "axx": axx, "axy2": axy2}


def test_poly_expansion_constant():
    img = np.full((12, 14), 9.5, dtype=np.float32)
    pe = poly_planes(img, 5, 1.1)
    inner = np.s_[3:-3, 3:-3]
    for plane in pe.values():
        assert np.allclose(plane[inner], 0.0, atol=1e-4)


def test_poly_expansion_linear_ramp():
    xs = np.arange(16, dtype=np.float32)
    img = np.tile(2.0 * xs, (12, 1))
    pe = poly_planes(img, 5, 1.1)
    inner = np.s_[3:-3, 3:-3]
    assert np.allclose(pe["bx"][inner], 2.0, atol=1e-3)
    assert np.allclose(pe["by"][inner], 0.0, atol=1e-3)
    assert np.allclose(pe["axx"][inner], 0.0, atol=1e-3)


def test_poly_expansion_quadratic_matches_lsq_oracle():
    size = 21
    xs = np.arange(size, dtype=np.float64) - size // 2
    img = np.tile(xs**2, (size, 1))
    pe = poly_planes(img, 5, 1.1)
    cx = cy = size // 2
    coef = poly_fit_oracle(img, cx, cy, 5, 1.1)
    assert coef[3] == pytest.approx(1.0, abs=1e-6)  # oracle recovers the quadratic exactly
    assert pe["axx"][cy, cx] == pytest.approx(coef[3], abs=1e-3)
    assert pe["axx"][cy, cx] == pytest.approx(1.0, abs=1e-3)
    assert pe["ayy"][cy, cx] == pytest.approx(0.0, abs=1e-3)


# kernels are bounded against exact float64 references: within 1e-12 of the
# largest input magnitude
KERNEL_TOL = 1e-12


def correlate_reference(arr, kernel, axis):
    """Edge-padded correlation along axis, one output line at a time, each
    tap sum taken exactly (math.fsum) over float64 inputs."""
    r = len(kernel) // 2
    pad = [(0, 0)] * arr.ndim
    pad[axis] = (r, r)
    padded = np.moveaxis(np.pad(np.asarray(arr, np.float64), pad, mode="edge"), axis, 0)
    out = np.empty((arr.shape[axis],) + padded.shape[1:])
    for i in range(out.shape[0]):
        for idx in np.ndindex(*out.shape[1:]):
            out[(i,) + idx] = math.fsum(kernel[t] * padded[(i + t,) + idx]
                                        for t in range(len(kernel)))
    return np.moveaxis(out, 0, axis)


def box_reference(arr, win):
    """Mean of each pixel's win x win edge-padded window in every channel
    of an (H, W, C) array, summed exactly."""
    r = win // 2
    pad = [(r, r), (r, r), (0, 0)]
    padded = np.pad(np.asarray(arr, np.float64), pad, mode="edge")
    out = np.empty(arr.shape)
    for i, j in np.ndindex(*arr.shape[:2]):
        window = padded[i:i + win, j:j + win].reshape(win * win, -1)
        out[i, j] = [math.fsum(col) / (win * win) for col in window.T]
    return out


def gauss_kernel(taps, sigma):
    xs = np.arange(-(taps // 2), taps // 2 + 1, dtype=np.float64)
    k = np.exp(-(xs**2) / (2 * sigma**2))
    return k / k.sum(), xs * k / k.sum()


@pytest.mark.parametrize("shape", [(12, 17), (9, 14, 5)], ids=["2d", "3d"])
@pytest.mark.parametrize("taps,sigma", [(5, 1.1), (9, 1.5)])
@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_correlate_axis_matches_bruteforce(shape, taps, sigma, axis, dtype):
    rng = np.random.default_rng(taps + axis)
    arr = (rng.standard_normal(shape) * 40 + 100).astype(dtype)
    for kernel in gauss_kernel(taps, sigma):  # a smoothing and a zero-sum kernel
        got = _correlate_axis(arr, kernel, axis)
        assert got.dtype == np.float64 and got.shape == arr.shape
        err = np.abs(got - correlate_reference(arr, kernel, axis)).max()
        assert err <= KERNEL_TOL * np.abs(arr).max()


@pytest.mark.parametrize("shape", [(12, 30, 5), (20, 12, 5), (12, 12, 5), (31, 40, 5)],
                         ids=["short_rows", "short_cols", "short_both", "larger"])
def test_box_filter_matches_bruteforce(shape):
    rng = np.random.default_rng(len(shape) + shape[0])
    arr = (rng.standard_normal(shape) * 1e3).astype(np.float32)
    got = _box_filter(arr, 15)
    assert got.dtype == np.float64 and got.shape == arr.shape
    err = np.abs(got - box_reference(arr, 15)).max()
    assert err <= KERNEL_TOL * np.abs(arr).max()


def update_matrices_fancy_index(r0, r1, flow):
    """_update_matrices with its bilinear neighbours read by 2-D fancy
    indexing r1[y, x]: the oracle of the flat-index gather."""
    h, w = flow.shape[:2]
    u = flow[..., 0]
    v = flow[..., 1]
    gy, gx = np.mgrid[0:h, 0:w]
    fx = gx + u
    fy = gy + v
    x1 = np.floor(fx).astype(np.int64)
    y1 = np.floor(fy).astype(np.int64)
    valid = (fx >= 0) & (fx <= w - 1) & (fy >= 0) & (fy <= h - 1)
    x1c = np.clip(x1, 0, w - 2)
    y1c = np.clip(y1, 0, h - 2)
    tx = (fx - x1c).astype(np.float32)
    ty = (fy - y1c).astype(np.float32)

    a00 = ((1 - tx) * (1 - ty))[..., None]
    a01 = (tx * (1 - ty))[..., None]
    a10 = ((1 - tx) * ty)[..., None]
    a11w = (tx * ty)[..., None]
    r1w = (a00 * r1[y1c, x1c] + a01 * r1[y1c, x1c + 1]
           + a10 * r1[y1c + 1, x1c] + a11w * r1[y1c + 1, x1c + 1])

    byw = np.where(valid, r1w[..., 0], 0.0)
    bxw = np.where(valid, r1w[..., 1], 0.0)
    r4 = np.where(valid, (r0[..., 2] + r1w[..., 2]) * 0.5, r0[..., 2])
    r5 = np.where(valid, (r0[..., 3] + r1w[..., 3]) * 0.5, r0[..., 3])
    r6 = np.where(valid, (r0[..., 4] + r1w[..., 4]) * 0.25, r0[..., 4] * 0.5)

    r2 = (r0[..., 0] - byw) * 0.5 + r4 * v + r6 * u
    r3 = (r0[..., 1] - bxw) * 0.5 + r6 * v + r5 * u

    scale = _border_scale(h, w)
    r2, r3, r4, r5, r6 = (x * scale for x in (r2, r3, r4, r5, r6))

    m = np.empty((h, w, 5), dtype=np.float32)
    m[..., 0] = r4 * r4 + r6 * r6
    m[..., 1] = (r4 + r5) * r6
    m[..., 2] = r5 * r5 + r6 * r6
    m[..., 3] = r4 * r2 + r6 * r3
    m[..., 4] = r6 * r2 + r5 * r3
    return m


@pytest.mark.parametrize("h,w", [(12, 16), (24, 32), (7, 5)])
def test_update_matrices_bit_equal_to_fancy_index(h, w):
    rng = np.random.default_rng(h * w)
    r0 = rng.standard_normal((h, w, 5)).astype(np.float32)
    r1 = rng.standard_normal((h, w, 5)).astype(np.float32)
    # fractional, whole-pixel (far edges sampled exactly) and off-image shifts
    flows = [rng.uniform(-3, 3, (h, w, 2)), np.round(rng.uniform(-2, 2, (h, w, 2))),
             np.zeros((h, w, 2)), np.full((h, w, 2), 50.0)]
    for flow in flows:
        flow = flow.astype(np.float32)
        assert np.array_equal(_update_matrices(r0, r1, flow),
                              update_matrices_fancy_index(r0, r1, flow))


def test_flow_identical_frames():
    img = textured_frame(3)
    f = farneback_flow(img, img)
    assert np.abs(f[..., 0]).max() <= 0.1
    assert np.abs(f[..., 1]).max() <= 0.1


def test_flow_translation():
    prev = textured_frame(7, size=64, shift=0)
    nxt = textured_frame(7, size=64, shift=3)  # content moves +3 px in x
    f = farneback_flow(prev, nxt)
    inner = np.s_[8:-8, 8:-8]
    assert 2.5 <= float(np.mean(f[..., 0][inner])) <= 3.5
    assert float(np.mean(np.abs(f[..., 1][inner]))) <= 0.3


def test_flow_constant_frames():
    img = Image(np.full((48, 48, 1), 77, np.uint8))
    f = farneback_flow(img, img)
    assert np.abs(f[..., 0]).max() <= 0.1
    assert np.abs(f[..., 1]).max() <= 0.1


def test_flow_shift_antisymmetry():
    inner = np.s_[8:-8, 8:-8]
    for s in (1, 2, 4):
        a = textured_frame(11, size=64, shift=0)
        b = textured_frame(11, size=64, shift=s)
        fab = farneback_flow(a, b)
        fba = farneback_flow(b, a)
        assert abs(np.mean(fab[..., 0][inner]) + np.mean(fba[..., 0][inner])) <= 0.5, f"shift {s}"


def test_farneback_flow_contract(monkeypatch):
    """The per-pair flow is the read-only (H, W, 2) f32 array that each slice
    of the batched flows is, and a non-finite solve is refused."""
    fb = FarnebackParams(pyramid_levels=2, iterations=2)
    a = textured_frame(6, size=32, shift=0)
    b = textured_frame(6, size=32, shift=1)
    f = farneback_flow(a, b, fb)
    assert f.shape == (32, 32, 2) and f.dtype == np.float32
    assert not f.flags.writeable
    with pytest.raises(ValueError):
        f[0, 0, 0] = 1.0
    assert np.array_equal(f, farneback_flows([a, b], fb)[0])
    monkeypatch.setattr(optflow, "_solve",
                        lambda planes0, planes1, params: np.full((32, 32, 2), np.nan, np.float32))
    with pytest.raises(ValueError, match="flow field contains non-finite values"):
        farneback_flow(a, b, fb)


def test_flow_dimension_mismatch():
    a = textured_frame(1, size=32)
    b = textured_frame(1, size=64)
    with pytest.raises(ValueError):
        farneback_flow(a, b)


def test_flow_from_pyramids_equals_flow_from_images():
    fb = FarnebackParams(pyramid_levels=3, iterations=2)
    a = textured_frame(5, size=64, shift=0)
    b = textured_frame(5, size=64, shift=2)
    want = farneback_flow(a, b, fb)
    pa, pb = expand_frame(a, fb), expand_frame(b, fb)
    assert len(pa.planes) == 3 and (pa.width, pa.height) == (64, 64)
    for prev, nxt in ((pa, pb), (a, pb), (pa, b)):
        got = farneback_flow(prev, nxt, fb)
        assert np.array_equal(got, want)


def test_pyramid_must_match_params_and_size():
    fb = FarnebackParams(pyramid_levels=2)
    a = textured_frame(2, size=32)
    pa = expand_frame(a, fb)
    with pytest.raises(ValueError, match="pyramid built with"):
        farneback_flow(pa, a, FarnebackParams(pyramid_levels=2, poly_sigma=1.2))
    with pytest.raises(ValueError, match="pyramid built with"):
        farneback_flow(a, pa)  # default params differ from fb
    with pytest.raises(ValueError, match="dimensions differ"):
        farneback_flow(pa, expand_frame(textured_frame(2, size=48), fb), fb)
    with pytest.raises(ValueError, match="dimensions differ"):
        farneback_flow(textured_frame(2, size=48), pa, fb)


def test_pyramid_is_read_only():
    pa = expand_frame(textured_frame(4, size=32))
    with pytest.raises(ValueError):
        pa.planes[0][0, 0, 0] = 1.0
    with pytest.raises(AttributeError):
        pa.planes = ()


def test_farneback_params_validation():
    with pytest.raises(ValueError):
        FarnebackParams(window_size=4)
    with pytest.raises(ValueError):
        FarnebackParams(pyramid_scale=1.0)
    with pytest.raises(ValueError):
        FarnebackParams(iterations=0)
    with pytest.raises(ValueError):
        FarnebackParams(poly_n=4)
