"""8-bit raster images: PNM I/O, the tunable preprocessing operators, and the
augmentations that define the ID/OOD partitions of the synthetic datasets."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NEAREST = "nearest"
BILINEAR = "bilinear"
BICUBIC = "bicubic"
AREA = "area"

RESIZE_METHODS = (NEAREST, BILINEAR, BICUBIC, AREA)

LUMA_WEIGHTS = (0.299, 0.587, 0.114)  # ITU-R BT.601

MAX_STRENGTH = 0.01  # the largest rain or snow strength


class PnmError(ValueError):
    pass


class PnmMagicError(PnmError):
    pass


class PnmHeaderError(PnmError):
    pass


class PnmTruncatedError(PnmError):
    pass


class Image:
    """Immutable 8-bit raster, row-major, channel-interleaved; 1 or 3 channels."""

    __slots__ = ("pixels",)

    def __init__(self, pixels: np.ndarray):
        arr = np.ascontiguousarray(pixels, dtype=np.uint8)
        if arr.ndim == 2:
            arr = arr[:, :, None]
        if arr.ndim != 3 or arr.shape[2] not in (1, 3):
            raise ValueError(f"expected HxWx{{1,3}} pixel array, got shape {arr.shape}")
        arr.flags.writeable = False
        object.__setattr__(self, "pixels", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Image is immutable")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def channels(self) -> int:
        return self.pixels.shape[2]

    def __eq__(self, other):
        return isinstance(other, Image) and np.array_equal(self.pixels, other.pixels)

    def __repr__(self):
        return f"Image({self.width}x{self.height}x{self.channels})"


# ---------------------------------------------------------------------------
# PNM (binary P5 / P6, maxval 255)

def encode_pnm(img: Image) -> bytes:
    magic = b"P5" if img.channels == 1 else b"P6"
    header = b"%s\n%d %d\n255\n" % (magic, img.width, img.height)
    return header + img.pixels.tobytes()


def _read_pnm_token(buf: bytes, pos: int) -> tuple[bytes, int]:
    n = len(buf)
    while pos < n:
        c = buf[pos:pos + 1]
        if c == b"#":  # comment runs to end of line
            while pos < n and buf[pos:pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not buf[pos:pos + 1].isspace() and buf[pos:pos + 1] != b"#":
        pos += 1
    if start == pos:
        raise PnmHeaderError("unexpected end of header")
    return buf[start:pos], pos


def decode_pnm(data: bytes) -> Image:
    if len(data) < 2 or data[:2] not in (b"P5", b"P6"):
        raise PnmMagicError(f"not a binary PNM file (magic {data[:2]!r})")
    channels = 1 if data[:2] == b"P5" else 3
    pos = 2
    fields = []
    for _ in range(3):
        tok, pos = _read_pnm_token(data, pos)
        if not tok.isdigit():
            raise PnmHeaderError(f"non-numeric header field {tok!r}")
        fields.append(int(tok))
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise PnmHeaderError(f"bad dimensions {width}x{height}")
    if maxval != 255:
        raise PnmHeaderError(f"only maxval 255 is supported, got {maxval}")
    if pos >= len(data) or not data[pos:pos + 1].isspace():
        raise PnmHeaderError("missing whitespace after maxval")
    pos += 1  # exactly one whitespace byte separates header from payload
    need = width * height * channels
    payload = data[pos:pos + need]
    if len(payload) < need:
        raise PnmTruncatedError(f"payload has {len(payload)} bytes, expected {need}")
    arr = np.frombuffer(payload, dtype=np.uint8).reshape(height, width, channels)
    return Image(arr)


# ---------------------------------------------------------------------------
# Preprocessing operators

def _round_u8(arr: np.ndarray) -> np.ndarray:
    # round half up, then clamp; keeps every operator bit-deterministic
    return np.clip(np.floor(arr + 0.5), 0, 255).astype(np.uint8)


def to_grayscale(img: Image) -> Image:
    """BT.601 luma; grayscale input passes through unchanged."""
    if img.channels == 1:
        return img
    p = img.pixels.astype(np.float64)
    y = LUMA_WEIGHTS[0] * p[:, :, 0] + LUMA_WEIGHTS[1] * p[:, :, 1] + LUMA_WEIGHTS[2] * p[:, :, 2]
    return Image(_round_u8(y)[:, :, None])


def _axis_taps(n_in: int, n_out: int, method: str):
    """Per-output (indices, weights) for one axis under the center-aligned
    convention src = (dst + 0.5) * (n_in / n_out) - 0.5, indices edge-clamped."""
    ratio = n_in / n_out
    dst = np.arange(n_out, dtype=np.float64)
    src = (dst + 0.5) * ratio - 0.5

    if method == NEAREST:
        idx = np.clip(np.floor(src + 0.5), 0, n_in - 1).astype(np.int64)
        return idx[:, None], np.ones((n_out, 1))

    if method == BILINEAR:
        x0 = np.floor(src).astype(np.int64)
        frac = src - x0
        idx = np.stack([x0, x0 + 1], axis=1)
        w = np.stack([1 - frac, frac], axis=1)
        return np.clip(idx, 0, n_in - 1), w

    if method == BICUBIC:
        # Catmull-Rom kernel (a = -0.5)
        a = -0.5
        x0 = np.floor(src).astype(np.int64)
        frac = src - x0
        idx = np.stack([x0 - 1, x0, x0 + 1, x0 + 2], axis=1)
        t = np.abs(src[:, None] - idx)
        w = np.where(
            t <= 1,
            (a + 2) * t**3 - (a + 3) * t**2 + 1,
            np.where(t < 2, a * t**3 - 5 * a * t**2 + 8 * a * t - 4 * a, 0.0),
        )
        return np.clip(idx, 0, n_in - 1), w

    if method == AREA:
        # fractional pixel coverage of the interval [dst*ratio, (dst+1)*ratio)
        taps = []
        for d in range(n_out):
            lo = d * ratio
            hi = (d + 1) * ratio
            first = int(np.floor(lo))
            last = int(np.ceil(hi)) - 1
            cols = np.arange(first, last + 1)
            cover = np.minimum(cols + 1.0, hi) - np.maximum(cols.astype(np.float64), lo)
            cover = np.clip(cover, 0.0, None)
            taps.append((np.clip(cols, 0, n_in - 1), cover / cover.sum()))
        width = max(len(t[0]) for t in taps)
        idx = np.zeros((n_out, width), dtype=np.int64)
        w = np.zeros((n_out, width))
        for d, (cols, cw) in enumerate(taps):
            idx[d, :len(cols)] = cols
            w[d, :len(cols)] = cw
        return idx, w

    raise ValueError(f"unknown resize method {method!r}")


def resize(img: Image, out_w: int, out_h: int, method: str = BILINEAR) -> Image:
    if out_w < 1 or out_h < 1:
        raise ValueError(f"target size must be at least 1x1, got {out_w}x{out_h}")
    if method not in RESIZE_METHODS:
        raise ValueError(f"unknown resize method {method!r}")
    p = img.pixels.astype(np.float64)
    yi, yw = _axis_taps(img.height, out_h, method)
    xi, xw = _axis_taps(img.width, out_w, method)
    # rows, then columns (separable for all four kernels)
    tmp = np.einsum("oawc,oa->owc", p[yi], yw)
    out = np.einsum("hoac,oa->hoc", tmp[:, xi], xw)
    return Image(_round_u8(out))


def sharpen(img: Image) -> Image:
    """3x3 kernel [[0,-1,0],[-1,5,-1],[0,-1,0]], replicate border."""
    p = np.pad(img.pixels.astype(np.float64), ((1, 1), (1, 1), (0, 0)), mode="edge")
    c = p[1:-1, 1:-1]
    out = 5 * c - p[:-2, 1:-1] - p[2:, 1:-1] - p[1:-1, :-2] - p[1:-1, 2:]
    return Image(_round_u8(out))


def adjust_brightness(img: Image, factor: float) -> Image:
    if not -1.0 <= factor <= 1.0:
        raise ValueError(f"brightness factor out of [-1, 1]: {factor}")
    return Image(_round_u8(img.pixels.astype(np.float64) * (1.0 + factor)))


# ---------------------------------------------------------------------------
# OOD augmentations

# Each augmentation draws its streaks or discs one at a time, in a fixed order,
# then rasterizes and blends them all at once. The result equals, bit for bit,
# blending them one by one in draw order.

_RAIN_ANGLES = (np.deg2rad(55), np.deg2rad(80))  # steep, mostly vertical
_SNOW_BOX = 6  # a disc of radius < 2 lies in the 6x6 pixels from floor(centre - r)


def _blend_hits(pixels: np.ndarray, pix: np.ndarray, values: np.ndarray,
                alpha: float) -> np.ndarray:
    """The (h, w, c) uint8 frame `pixels` with `values` blended into its flat
    pixel indices `pix`: (1 - alpha) * pixel + alpha * value, then rounded.

    Hits come in draw order, and one streak or disc hits a pixel at most once.
    A pixel's hits are applied in that order: each pass blends the first
    pending hit of every pixel, so no pass writes one pixel twice."""
    h, w, c = pixels.shape
    flat = pixels.reshape(h * w, c)
    canvas = flat.astype(np.float64)
    pending = np.argsort(pix, kind="stable")  # grouped by pixel, each group in draw order
    sorted_pix = pix[pending]
    while len(pending):
        first = np.ones(len(pending), bool)
        first[1:] = sorted_pix[1:] != sorted_pix[:-1]
        p = sorted_pix[first]
        canvas[p] = (1 - alpha) * canvas[p] + (alpha * values[pending[first]])[:, None]
        pending, sorted_pix = pending[~first], sorted_pix[~first]
    out = flat.copy()
    out[pix] = _round_u8(canvas[pix])  # rounding leaves every pixel no hit changed
    return out.reshape(h, w, c)


def augment_rain(img: Image, strength: float, seed: int) -> Image:
    """Superimpose semi-transparent bright diagonal streaks.

    Streak count is round(strength * width * height); each streak consumes a
    fixed number of draws from the seeded generator, so renders at increasing
    strength share their leading streaks.
    """
    if not 0.0 <= strength <= MAX_STRENGTH:
        raise ValueError(f"rain strength out of [0, {MAX_STRENGTH}]: {strength}")
    count = int(round(strength * img.width * img.height))
    if count == 0:
        return img
    rng = np.random.default_rng(np.random.PCG64(seed))
    h, w = img.height, img.width
    base_len = max(h // 4, 6)
    x0, y0, length, angle, value = np.array(
        [(rng.uniform(0, w), rng.uniform(0, h), rng.integers(base_len, base_len * 2),
          rng.uniform(*_RAIN_ANGLES), rng.uniform(200, 245)) for _ in range(count)]).T
    ts = np.arange(2 * base_len - 1)  # up to the longest length the draw allows
    xs = np.clip(np.round(x0[:, None] + ts * np.cos(angle)[:, None]).astype(int), 0, w - 1)
    ys = np.clip(np.round(y0[:, None] + ts * np.sin(angle)[:, None]).astype(int), 0, h - 1)
    pix = ys * w + xs
    keep = ts < length[:, None]
    # a streak runs right and down, so the pixels it repeats are adjacent
    keep[:, 1:] &= pix[:, 1:] != pix[:, :-1]
    return Image(_blend_hits(img.pixels, pix[keep],
                             np.broadcast_to(value[:, None], pix.shape)[keep], alpha=0.65))


def augment_snow(img: Image, strength: float, seed: int) -> Image:
    """Superimpose small bright discs; same count rule and determinism as rain."""
    if not 0.0 <= strength <= MAX_STRENGTH:
        raise ValueError(f"snow strength out of [0, {MAX_STRENGTH}]: {strength}")
    count = int(round(strength * img.width * img.height))
    if count == 0:
        return img
    rng = np.random.default_rng(np.random.PCG64(seed))
    h, w = img.height, img.width
    cx, cy, r, value = np.array(
        [(rng.uniform(0, w), rng.uniform(0, h), rng.uniform(0.8, 2.0), rng.uniform(225, 250))
         for _ in range(count)]).T
    steps = np.arange(_SNOW_BOX)
    xx = (np.floor(cx - r).astype(int)[:, None] + steps)[:, None, :]
    yy = (np.floor(cy - r).astype(int)[:, None] + steps)[:, :, None]
    cx, cy, r = cx[:, None, None], cy[:, None, None], r[:, None, None]
    mask = (((xx - cx) ** 2 + (yy - cy) ** 2 <= r * r)
            & (xx >= 0) & (xx < w) & (yy >= 0) & (yy < h))
    pix = yy * w + xx
    return Image(_blend_hits(img.pixels, pix[mask],
                             np.broadcast_to(value[:, None, None], mask.shape)[mask], alpha=0.9))


# ---------------------------------------------------------------------------
# Synthetic scenes

@dataclass(frozen=True)
class SceneParams:
    width: int = 96
    height: int = 64
    shift_per_frame: int = 3
    n_scenes: int = 5
    texture_seed: int = 1234


def synth_scene(scene_id: int, frame_index: int, params: SceneParams = SceneParams()) -> Image:
    """Deterministic RGB frame: scene-keyed textured background over a road
    band, the whole frame phase-shifted horizontally by shift_per_frame pixels
    per frame (wraparound), so consecutive frames are exact translations."""
    if not 0 <= scene_id < params.n_scenes:
        raise ValueError(f"scene_id {scene_id} outside [0, {params.n_scenes})")
    base = _scene_base(scene_id, params)
    shift = (params.shift_per_frame * frame_index) % params.width
    return Image(np.roll(base, -shift, axis=1))


_scene_cache: dict[tuple, np.ndarray] = {}


def _scene_base(scene_id: int, params: SceneParams) -> np.ndarray:
    key = (scene_id, params)
    cached = _scene_cache.get(key)
    if cached is not None:
        return cached
    h, w = params.height, params.width
    rng = np.random.default_rng(np.random.PCG64((params.texture_seed << 8) + scene_id))

    # smooth per-scene texture: low-frequency random sinusoids, distinct hue per scene
    xs = np.arange(w)[None, :]
    ys = np.arange(h)[:, None]
    tex = np.zeros((h, w))
    for _ in range(6):
        fx = rng.uniform(1.0, 4.0) * 2 * np.pi / w
        fy = rng.uniform(0.5, 3.0) * 2 * np.pi / h
        tex += rng.uniform(0.4, 1.0) * np.sin(fx * xs + rng.uniform(0, 2 * np.pi)) \
            * np.cos(fy * ys + rng.uniform(0, 2 * np.pi))
    tex = (tex - tex.min()) / (np.ptp(tex) + 1e-12)
    hue = np.array([[0.9, 0.6, 0.4], [0.4, 0.8, 0.5], [0.5, 0.5, 0.9],
                    [0.8, 0.8, 0.4], [0.7, 0.4, 0.8]])[scene_id % 5]
    frame = 40 + 170 * tex[:, :, None] * hue[None, None, :]

    # road band across the lower third with dashed center line
    road_top = int(h * 0.66)
    frame[road_top:, :] = 70.0
    line_y = (road_top + h) // 2
    dash = ((np.arange(w) // 8) % 2) == 0
    frame[max(line_y - 1, 0):line_y + 1, dash] = np.array([230.0, 220.0, 90.0])

    base = np.clip(np.floor(frame + 0.5), 0, 255).astype(np.uint8)
    _scene_cache[key] = base
    return base
