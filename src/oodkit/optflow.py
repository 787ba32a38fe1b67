"""Dense optical flow: Gaussian-weighted quadratic expansion of image
neighborhoods and coarse-to-fine displacement estimation, the (H, W, 2) f32
flow with (u right, v down) in the last axis.

The kernels take any number of leading axes and index the image axes from the
end, so one call can solve a block of frame pairs: every float operation is
elementwise or a sequential running sum along an image axis, so a batched
result equals the per-pair one bit for bit."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.array_utils import normalize_axis_index

from .imaging import LUMA_WEIGHTS, Image


@dataclass(frozen=True)
class FarnebackParams:
    window_size: int = 15      # averaging neighborhood for the displacement solve
    iterations: int = 3
    pyramid_levels: int = 3
    pyramid_scale: float = 0.5
    poly_n: int = 5            # odd window of the quadratic fit
    poly_sigma: float = 1.1

    def __post_init__(self):
        if self.window_size < 3 or self.window_size % 2 == 0:
            raise ValueError(f"window_size must be odd and >= 3, got {self.window_size}")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.pyramid_levels < 1:
            raise ValueError("pyramid_levels must be >= 1")
        if not 0.0 < self.pyramid_scale < 1.0:
            raise ValueError("pyramid_scale must lie in (0, 1)")
        if self.poly_n < 3 or self.poly_n % 2 == 0:
            raise ValueError(f"poly_n must be odd and >= 3, got {self.poly_n}")
        if self.poly_sigma <= 0:
            raise ValueError("poly_sigma must be > 0")
        # solved here once, so no flow call, on whatever thread, runs LAPACK
        _poly_taps(self.poly_n, self.poly_sigma)


def _require_finite(flow: np.ndarray):
    if not np.isfinite(flow).all():
        raise ValueError("flow field contains non-finite values")


def _gray_f32(img: Image) -> np.ndarray:
    p = img.pixels.astype(np.float32)
    if img.channels == 1:
        return p[:, :, 0]
    return (LUMA_WEIGHTS[0] * p[:, :, 0] + LUMA_WEIGHTS[1] * p[:, :, 1]
            + LUMA_WEIGHTS[2] * p[:, :, 2]).astype(np.float32)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=128)
def _edge_index(length: int, n: int) -> np.ndarray:
    """Gather index that replicates the n border samples on each side."""
    return _frozen(np.clip(np.arange(-n, length + n), 0, length - 1))


def _along(axis: int, start, stop) -> tuple:
    """Index of the samples start:stop along axis."""
    return (slice(None),) * axis + (slice(start, stop),)


def _correlate_axis(arr: np.ndarray, kernel: np.ndarray, axis: int) -> np.ndarray:
    """Correlation along one axis, borders replicated: the float64 sum of
    kernel[t] * padded[t:t + n], taken in ascending tap order."""
    axis = normalize_axis_index(axis, arr.ndim)
    n = arr.shape[axis]
    # the gather builds the same array as np.pad(mode="edge") without its
    # per-call overhead; the cast keeps float32 input summed in float64
    padded = np.take(arr, _edge_index(n, len(kernel) // 2), axis=axis)
    padded = padded.astype(np.float64, copy=False)
    out = kernel[0] * padded[_along(axis, 0, n)]
    for t in range(1, len(kernel)):
        out += kernel[t] * padded[_along(axis, t, t + n)]
    return out


@lru_cache(maxsize=128)
def _gaussian_taps(sigma: float, ksize: int) -> np.ndarray:
    """The normalized float64 Gaussian of the odd ksize window."""
    xs = np.arange(-(ksize // 2), ksize // 2 + 1, dtype=np.float64)
    k = np.exp(-(xs**2) / (2 * sigma**2))
    k /= k.sum()
    return _frozen(k)


@lru_cache(maxsize=128)
def _poly_taps(poly_n: int, poly_sigma: float) -> tuple:
    """The expansion's three separable taps (g, x*g, x^2*g) and the entries
    (ig11, ig03, ig33, ig55) of its inverse normal-equation matrix."""
    n = poly_n // 2
    xs = np.arange(-n, n + 1, dtype=np.float64)
    g = _gaussian_taps(poly_sigma, poly_n)

    # normal-equation matrix over the basis (1, x, y, x^2, y^2, xy)
    wx = g[None, :] * g[:, None]
    X, Y = np.meshgrid(xs, xs)
    basis = np.stack([np.ones_like(X), X, Y, X**2, Y**2, X * Y])
    G = np.einsum("iyx,jyx,yx->ij", basis, basis, wx)
    inv = np.linalg.inv(G)
    return (g, _frozen(xs * g), _frozen(xs * xs * g),
            inv[1, 1], inv[0, 3], inv[3, 3], inv[5, 5])


def _poly_channels(f: np.ndarray, poly_n: int, poly_sigma: float):
    """Gaussian-weighted quadratic fit f(x) ~ x^T A x + b^T x + c over the odd
    poly_n window at every pixel, borders replicated: the (..., H, W, 5) f32
    coefficient planes in channel order (by, bx, ayy, axx, 2*axy)."""
    g, xg, xxg, ig11, ig03, ig33, ig55 = _poly_taps(poly_n, poly_sigma)

    f = f.astype(np.float64)
    v0 = _correlate_axis(f, g, axis=-2)
    v1 = _correlate_axis(f, xg, axis=-2)
    v2 = _correlate_axis(f, xxg, axis=-2)

    m1 = _correlate_axis(v0, g, axis=-1)
    mx = _correlate_axis(v0, xg, axis=-1)
    mxx = _correlate_axis(v0, xxg, axis=-1)
    my = _correlate_axis(v1, g, axis=-1)
    mxy = _correlate_axis(v1, xg, axis=-1)
    myy = _correlate_axis(v2, g, axis=-1)

    r = np.empty(f.shape + (5,), dtype=np.float32)
    r[..., 0] = ig11 * my
    r[..., 1] = ig11 * mx
    r[..., 2] = ig33 * myy + ig03 * m1
    r[..., 3] = ig33 * mxx + ig03 * m1
    r[..., 4] = ig55 * mxy
    return r


_BORDER_W = np.float32([0.14, 0.14, 0.4472, 0.4472, 0.4472])


@lru_cache(maxsize=128)
def _border_scale(h: int, w: int) -> np.ndarray:
    sx = np.ones(w, dtype=np.float32)
    sy = np.ones(h, dtype=np.float32)
    k = len(_BORDER_W)
    for i in range(min(k, (w + 1) // 2)):
        sx[i] *= _BORDER_W[i]
        sx[w - 1 - i] *= _BORDER_W[i]
    for i in range(min(k, (h + 1) // 2)):
        sy[i] *= _BORDER_W[i]
        sy[h - 1 - i] *= _BORDER_W[i]
    return _frozen(sy[:, None] * sx[None, :])


@lru_cache(maxsize=128)
def _pixel_grid(h: int, w: int):
    gy, gx = np.mgrid[0:h, 0:w]
    return _frozen(gy), _frozen(gx)


@lru_cache(maxsize=128)
def _pair_offsets(lead: tuple, hw: int) -> np.ndarray:
    """Flat index of each pair's first pixel in a (*lead, H, W) block."""
    return _frozen((np.arange(np.prod(lead, dtype=np.int64)) * hw).reshape(lead + (1, 1)))


def _update_matrices(r0: np.ndarray, r1: np.ndarray, flow: np.ndarray) -> np.ndarray:
    """Per-pixel normal equations for the displacement increment, from the two
    coefficient fields and the current flow estimate (used to warp r1); any
    leading axes index frame pairs."""
    lead = flow.shape[:-3]
    h, w = flow.shape[-3:-1]
    u = flow[..., 0]
    v = flow[..., 1]
    gy, gx = _pixel_grid(h, w)
    fx = gx + u
    fy = gy + v
    x1 = np.floor(fx).astype(np.int64)
    y1 = np.floor(fy).astype(np.int64)
    # clamp so positions on the far edge sample it exactly; only positions
    # outside the image rectangle fall back to the single-frame estimate
    valid = (fx >= 0) & (fx <= w - 1) & (fy >= 0) & (fy <= h - 1)
    x1c = np.clip(x1, 0, w - 2)
    y1c = np.clip(y1, 0, h - 2)
    tx = (fx - x1c).astype(np.float32)
    ty = (fy - y1c).astype(np.float32)

    a00 = ((1 - tx) * (1 - ty))[..., None]
    a01 = (tx * (1 - ty))[..., None]
    a10 = ((1 - tx) * ty)[..., None]
    a11w = (tx * ty)[..., None]
    # the four neighbours, gathered from the (pairs*h*w, 5) view at flat indices
    r1f = r1.reshape(-1, 5)
    i00 = y1c * w + x1c
    if lead:
        i00 += _pair_offsets(lead, h * w)
    r1w = (a00 * np.take(r1f, i00, axis=0) + a01 * np.take(r1f, i00 + 1, axis=0)
           + a10 * np.take(r1f, i00 + w, axis=0) + a11w * np.take(r1f, i00 + w + 1, axis=0))

    byw = np.where(valid, r1w[..., 0], 0.0)
    bxw = np.where(valid, r1w[..., 1], 0.0)
    r4 = np.where(valid, (r0[..., 2] + r1w[..., 2]) * 0.5, r0[..., 2])
    r5 = np.where(valid, (r0[..., 3] + r1w[..., 3]) * 0.5, r0[..., 3])
    r6 = np.where(valid, (r0[..., 4] + r1w[..., 4]) * 0.25, r0[..., 4] * 0.5)

    r2 = (r0[..., 0] - byw) * 0.5 + r4 * v + r6 * u
    r3 = (r0[..., 1] - bxw) * 0.5 + r6 * v + r5 * u

    scale = _border_scale(h, w)
    r2 = r2 * scale
    r3 = r3 * scale
    r4 = r4 * scale
    r5 = r5 * scale
    r6 = r6 * scale

    m = np.empty(lead + (h, w, 5), dtype=np.float32)
    m[..., 0] = r4 * r4 + r6 * r6
    m[..., 1] = (r4 + r5) * r6
    m[..., 2] = r5 * r5 + r6 * r6
    m[..., 3] = r4 * r2 + r6 * r3
    m[..., 4] = r6 * r2 + r5 * r3
    return m


def _box_filter(arr: np.ndarray, win: int) -> np.ndarray:
    """Mean over the win x win window of each pixel, borders replicated: along
    each axis, a float64 running sum S over the edge-padded samples (S[0] = 0)
    gives (S[i + win] - S[i]) / win (Crow 1984, summed-area tables). The
    window axes are the two before the last (channel) axis."""
    out = arr
    for axis in (arr.ndim - 3, arr.ndim - 2):
        n = out.shape[axis]
        padded = np.take(out, _edge_index(n, win // 2), axis=axis)
        s = np.zeros(padded.shape[:axis] + (n + win,) + padded.shape[axis + 1:])
        np.cumsum(padded, axis=axis, dtype=np.float64, out=s[_along(axis, 1, None)])
        out = (s[_along(axis, win, None)] - s[_along(axis, None, n)]) / win
    return out


def _update_flow(m: np.ndarray, window_size: int) -> np.ndarray:
    g11, g12, g22, h1, h2 = np.moveaxis(_box_filter(m, window_size), -1, 0)
    # +lambda*I keeps the solve finite on textureless regions
    lam = 1e-6 * (g11 + g22) + 1e-12
    g11 = g11 + lam
    g22 = g22 + lam
    det = g11 * g22 - g12 * g12
    flow = np.empty(m.shape[:-1] + (2,), dtype=np.float32)
    flow[..., 0] = (g11 * h2 - g12 * h1) / det
    flow[..., 1] = (g22 * h1 - g12 * h2) / det
    return flow


def _resize_bilinear_f32(arr: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resize of the (..., H, W, C) array's image axes."""
    h, w = arr.shape[-3:-1]
    if (h, w) == (out_h, out_w):
        return arr
    ys = np.clip((np.arange(out_h) + 0.5) * (h / out_h) - 0.5, 0, h - 1)
    xs = np.clip((np.arange(out_w) + 0.5) * (w / out_w) - 0.5, 0, w - 1)
    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0).astype(np.float32)
    fx = (xs - x0).astype(np.float32)
    # weights broadcast over the rows, columns and the channel axis
    fy = fy.reshape(out_h, 1, 1)
    fx = fx.reshape(out_w, 1)
    rows0 = arr[..., y0, :, :]
    rows1 = arr[..., y1, :, :]
    top = rows0[..., x0, :] * (1 - fx) + rows0[..., x1, :] * fx
    bot = rows1[..., x0, :] * (1 - fx) + rows1[..., x1, :] * fx
    return (top * (1 - fy) + bot * fy).astype(np.float32)


def _gaussian_blur(arr: np.ndarray, sigma: float, ksize: int) -> np.ndarray:
    """Separable Gaussian blur of the (..., H, W) array's image axes."""
    k = _gaussian_taps(sigma, ksize)
    return _correlate_axis(_correlate_axis(arr, k, axis=-2), k, axis=-1).astype(np.float32)


_MIN_PYR_SIZE = 16


@dataclass(frozen=True)
class FlowPyramid:
    """The per-frame half of Farneback flow: the read-only (H, W, 5)
    coefficient planes of each pyramid level, coarsest first, with the frame
    size and the parameters they were built with."""

    planes: tuple
    width: int
    height: int
    params: FarnebackParams


def _expand(gray: np.ndarray, params: FarnebackParams) -> list:
    """Gaussian pyramid and polynomial expansion of the (..., H, W) gray
    frames: the (..., h, w, 5) coefficient planes of each level, coarsest
    first."""
    h, w = gray.shape[-2:]

    levels = 0
    scale = 1.0
    for _ in range(params.pyramid_levels - 1):
        scale *= params.pyramid_scale
        if min(w, h) * scale < _MIN_PYR_SIZE:
            break
        levels += 1

    planes = []
    for k in range(levels, -1, -1):
        s = params.pyramid_scale ** k
        if k > 0:
            lw = max(int(round(w * s)), 1)
            lh = max(int(round(h * s)), 1)
            sigma = (1.0 / s - 1.0) * 0.5
            ksize = max(int(round(sigma * 5)) | 1, 3)
            blurred = _gaussian_blur(gray, sigma, ksize)[..., None]
            level = _resize_bilinear_f32(blurred, lh, lw)[..., 0]
        else:
            level = gray
        planes.append(_frozen(_poly_channels(level, params.poly_n, params.poly_sigma)))
    return planes


def expand_frame(img: Image, params: FarnebackParams = FarnebackParams()) -> FlowPyramid:
    """Gray conversion, Gaussian pyramid and polynomial expansion of one frame."""
    gray = _gray_f32(img)
    h, w = gray.shape
    return FlowPyramid(tuple(_expand(gray, params)), w, h, params)


def _expanded(frame: Image | FlowPyramid, params: FarnebackParams) -> FlowPyramid:
    if not isinstance(frame, FlowPyramid):
        return expand_frame(frame, params)
    if frame.params != params:
        raise ValueError(f"pyramid built with {frame.params}, flow asked for {params}")
    return frame


def farneback_flow(prev: Image | FlowPyramid, next: Image | FlowPyramid,
                   params: FarnebackParams = FarnebackParams()) -> np.ndarray:
    """Coarse-to-fine dense flow from prev to next: the read-only (H, W, 2)
    f32 flow, (u, v) in the last axis, finite everywhere. Either frame may
    come already expanded by expand_frame with the same params."""
    if (prev.width, prev.height) != (next.width, next.height):
        raise ValueError(
            f"frame dimensions differ: {prev.width}x{prev.height} vs {next.width}x{next.height}")
    flow = _solve(_expanded(prev, params).planes, _expanded(next, params).planes, params)
    _require_finite(flow)
    return _frozen(flow)


def farneback_flows(frames, params: FarnebackParams = FarnebackParams()) -> np.ndarray:
    """Dense flow of each consecutive pair of a block of equal-sized frames:
    the (len(frames) - 1, H, W, 2) f32 flows, (u, v) in the last axis. Each
    one equals farneback_flow of its pair bit for bit, and non-finite flows
    are refused as it refuses them."""
    planes = _expand(np.stack([_gray_f32(img) for img in frames]), params)
    flow = _solve([p[:-1] for p in planes], [p[1:] for p in planes], params)
    _require_finite(flow)
    return flow


def _solve(planes0, planes1, params: FarnebackParams) -> np.ndarray:
    """Coarse-to-fine flow (..., H, W, 2) from the coefficient planes of each
    pyramid level of the earlier and the later frames."""
    flow = None
    for r0, r1 in zip(planes0, planes1):
        lh, lw = r0.shape[-3:-1]
        if flow is None:
            flow = np.zeros(r0.shape[:-1] + (2,), dtype=np.float32)
        else:
            flow = _resize_bilinear_f32(flow, lh, lw) * (1.0 / params.pyramid_scale)
        m = _update_matrices(r0, r1, flow)
        for it in range(params.iterations):
            flow = _update_flow(m, params.window_size)
            if it < params.iterations - 1:
                m = _update_matrices(r0, r1, flow)
    return flow
