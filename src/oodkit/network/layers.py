"""Runtime layers with forward and backward passes on (N, C, H, W) arrays.

Parameters may be float32 (training/inference), float16 (storage precision,
f32 accumulate), or float64 (gradient checking); compute follows the wider of
input/parameter dtypes.

forward(training=False) stores nothing on the layer, so one model can encode
on several threads at once; forward(training=True) saves what the following
backward needs.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def _wide(arr: np.ndarray) -> np.ndarray:
    # f16 params are storage only; everything else computes as-is
    return arr.astype(np.float32) if arr.dtype == np.float16 else arr


class Layer:
    params: dict
    grads: dict

    def __init__(self):
        self.params = {}
        self.grads = {}

    def forward(self, x, training=False):
        raise NotImplementedError

    def backward(self, grad):
        raise NotImplementedError


class Conv2D(Layer):
    def __init__(self, in_channels, out_channels, kernel, stride=1, padding=0, rng=None):
        super().__init__()
        self.stride = stride
        self.padding = padding
        self.kernel = kernel
        if rng is None:
            w = np.zeros((out_channels, in_channels, kernel, kernel), np.float32)
        else:
            std = np.sqrt(2.0 / (in_channels * kernel * kernel))
            w = rng.normal(0.0, std, (out_channels, in_channels, kernel, kernel)).astype(np.float32)
        self.params = {"w": w, "b": np.zeros(out_channels, np.float32)}

    def forward(self, x, training=False):
        w = _wide(self.params["w"])
        b = _wide(self.params["b"])
        s, p = self.stride, self.padding
        if p:
            x = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        if training:
            self._xh = np.ascontiguousarray(x.transpose(0, 2, 3, 1))  # padded input, NHWC
        k = w.shape[2]
        win = sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::s, ::s]  # (N,C,OH,OW,k,k)
        cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(win.shape[0], win.shape[2], win.shape[3], -1)
        out = cols @ w.reshape(w.shape[0], -1).T + b
        return np.ascontiguousarray(out.transpose(0, 3, 1, 2))

    def backward(self, grad):
        w = _wide(self.params["w"])
        s, p = self.stride, self.padding
        xh = self._xh
        n, c = xh.shape[0], xh.shape[3]
        oc, _, k, _ = w.shape
        oh, ow = grad.shape[2], grad.shape[3]
        # Per tap (i, j), each np.dot gets exactly the operands (values,
        # shapes, memory layout) of np.tensordot(grad, x_patch,
        # ([0, 2, 3], [0, 2, 3])) and np.tensordot(grad, w[:, :, i, j],
        # ([1], [0])), so results equal that reference formulation bit for
        # bit: training amplifies any one-ulp difference into other weights.
        g_oc = grad.transpose(1, 0, 2, 3).reshape(oc, -1)  # (OC, N*OH*OW)
        g_rows = grad.transpose(0, 2, 3, 1).reshape(-1, oc)  # (N*OH*OW, OC)
        dxh = np.zeros_like(xh)
        dw = np.zeros_like(w)
        for i in range(k):
            for j in range(k):
                tap = (slice(None), slice(i, i + s * oh, s), slice(j, j + s * ow, s))
                dw[:, :, i, j] = np.dot(g_oc, xh[tap].reshape(-1, c))
                dxh[tap] += np.dot(g_rows, w[:, :, i, j]).reshape(n, oh, ow, c)
        self.grads["w"] = dw
        self.grads["b"] = grad.sum(axis=(0, 2, 3))
        # NCHW memory, as later reductions over this gradient sum in memory order
        dx = np.ascontiguousarray(dxh.transpose(0, 3, 1, 2))
        if p:
            dx = dx[:, :, p:-p, p:-p]
        return dx


def _pool_taps(x, k):
    """The k*k strided views x[:, :, i::k, j::k] cropped to whole windows,
    in row-major (i, j) order."""
    oh, ow = x.shape[2] // k, x.shape[3] // k
    return [x[:, :, i:i + oh * k:k, j:j + ow * k:k] for i in range(k) for j in range(k)]


def max_pool(x, k):
    """Max over non-overlapping k x k windows, dropping trailing rows and
    columns; exact on float and integer arrays alike."""
    taps = _pool_taps(x, k)
    out = taps[0].copy()
    for tap in taps[1:]:
        np.maximum(out, tap, out=out)
    return out


class MaxPool2D(Layer):
    def __init__(self, kernel):
        super().__init__()
        self.kernel = kernel

    def forward(self, x, training=False):
        out = max_pool(x, self.kernel)
        if training:
            self._x = x
            self._out = out
        return out

    def backward(self, grad):
        # each gradient goes to the first window position, row-major, that
        # holds the max: np.argmax's tie rule
        dx = np.zeros(self._x.shape, dtype=grad.dtype)
        free = np.ones(grad.shape, dtype=bool)
        for tap, dtap in zip(_pool_taps(self._x, self.kernel), _pool_taps(dx, self.kernel)):
            hit = free & (tap == self._out)
            np.copyto(dtap, grad, where=hit)
            free &= ~hit
        return dx


class Dense(Layer):
    def __init__(self, in_dim, out_dim, rng=None):
        super().__init__()
        if rng is None:
            w = np.zeros((in_dim, out_dim), np.float32)
        else:
            w = rng.normal(0.0, np.sqrt(2.0 / in_dim), (in_dim, out_dim)).astype(np.float32)
        self.params = {"w": w, "b": np.zeros(out_dim, np.float32)}

    def forward(self, x, training=False):
        if training:
            self._x = x
        return x @ _wide(self.params["w"]) + _wide(self.params["b"])

    def backward(self, grad):
        self.grads["w"] = self._x.T @ grad
        self.grads["b"] = grad.sum(axis=0)
        return grad @ _wide(self.params["w"]).T


class ReLU(Layer):
    def forward(self, x, training=False):
        mask = x > 0
        if training:
            self._mask = mask
        return x * mask

    def backward(self, grad):
        return grad * self._mask


class BatchNorm2D(Layer):
    def __init__(self, channels, eps=1e-5, momentum=0.1):
        super().__init__()
        self.eps = eps
        self.momentum = momentum
        self.params = {"gamma": np.ones(channels, np.float32), "beta": np.zeros(channels, np.float32)}
        self.running_mean = np.zeros(channels, np.float32)
        self.running_var = np.ones(channels, np.float32)

    def forward(self, x, training=False):
        gamma = _wide(self.params["gamma"])[None, :, None, None]
        beta = _wide(self.params["beta"])[None, :, None, None]
        if training:
            mu = x.mean(axis=(0, 2, 3))
            var = x.var(axis=(0, 2, 3))
            m = self.momentum
            self.running_mean = ((1 - m) * self.running_mean + m * mu).astype(self.running_mean.dtype)
            self.running_var = ((1 - m) * self.running_var + m * var).astype(self.running_var.dtype)
            self._x = x
            self._mu = mu
            self._inv_std = 1.0 / np.sqrt(var + self.eps)
            self._xhat = (x - mu[None, :, None, None]) * self._inv_std[None, :, None, None]
            return gamma * self._xhat + beta
        rm = _wide(self.running_mean)[None, :, None, None]
        rv = _wide(self.running_var)[None, :, None, None]
        scale = gamma / np.sqrt(rv + self.eps)
        return scale * (x - rm) + beta

    def backward(self, grad):
        gamma = _wide(self.params["gamma"])
        m = float(grad.shape[0] * grad.shape[2] * grad.shape[3])
        self.grads["gamma"] = (grad * self._xhat).sum(axis=(0, 2, 3))
        self.grads["beta"] = grad.sum(axis=(0, 2, 3))
        dxhat = grad * gamma[None, :, None, None]
        inv = self._inv_std[None, :, None, None]
        xc = self._x - self._mu[None, :, None, None]
        dvar = (dxhat * xc * -0.5 * inv**3).sum(axis=(0, 2, 3))
        dmu = (-dxhat * inv).sum(axis=(0, 2, 3)) + dvar * (-2.0 / m) * xc.sum(axis=(0, 2, 3))
        return (dxhat * inv
                + dvar[None, :, None, None] * 2.0 * xc / m
                + dmu[None, :, None, None] / m)


class Flatten(Layer):
    def forward(self, x, training=False):
        if training:
            self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad):
        return grad.reshape(self._shape)


class Unflatten(Layer):
    def __init__(self, chw):
        super().__init__()
        self.chw = tuple(chw)

    def forward(self, x, training=False):
        return x.reshape((x.shape[0],) + self.chw)

    def backward(self, grad):
        return grad.reshape(grad.shape[0], -1)


def _nearest_source(n_in, n_out):
    """Source index of each of n_out nearest-neighbor targets (non-decreasing)."""
    return np.minimum(np.floor((np.arange(n_out) + 0.5) * (n_in / n_out)).astype(np.int64), n_in - 1)


def _as_slice(idx):
    """An increasing index array as a slice when evenly spaced."""
    step = idx[1] - idx[0] if idx.size > 1 else 1
    return slice(idx[0], idx[-1] + 1, step) if np.all(np.diff(idx) == step) else idx


def _runs_by_offset(n_in, n_out):
    """(sources, targets) for r = 0, 1, ...: each source whose nearest-neighbor
    run has an r-th target, paired with that target."""
    src = _nearest_source(n_in, n_out)
    offset = np.arange(n_out) - np.searchsorted(src, src)
    runs = []
    for r in range(offset.max() + 1):
        tgt = np.flatnonzero(offset == r)
        runs.append((_as_slice(src[tgt]), _as_slice(tgt)))
    return runs


def _grid(rows, cols):
    """Index of the (rows x cols) grid of an NCHW array."""
    if isinstance(rows, slice) or isinstance(cols, slice):
        return (slice(None), slice(None), rows, cols)
    return (slice(None), slice(None), rows[:, None], cols)


class Upsample(Layer):
    """Nearest-neighbor resize to a fixed target size (inverse of pooling or
    strided convolution in mirrored decoders)."""

    def __init__(self, target_hw):
        super().__init__()
        self.target_hw = tuple(target_hw)

    def forward(self, x, training=False):
        th, tw = self.target_hw
        h, w = x.shape[2], x.shape[3]
        if training:
            self._in_hw = (h, w)
        return x[:, :, _nearest_source(h, th)][:, :, :, _nearest_source(w, tw)]

    def backward(self, grad):
        (h, w), (th, tw) = self._in_hw, self.target_hw
        dx = np.zeros(grad.shape[:2] + (h, w), dtype=grad.dtype)
        # Sums each source pixel's targets from zero in row-major target
        # order, as np.add.at does, one run offset (ry, rx) per slice add.
        col_runs = _runs_by_offset(w, tw)
        for ys, ty in _runs_by_offset(h, th):
            for xs, tx in col_runs:
                dx[_grid(ys, xs)] += grad[_grid(ty, tx)]
        return dx
