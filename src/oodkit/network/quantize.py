"""Static quantization of trained detectors: batchnorm folding, symmetric
per-tensor int8 weights, asymmetric activation ranges observed on a
calibration pass, and an integer execution plan for encode()."""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..tensor import (F16, F32, QINT8, QMIN, QuantParams, Tensor, calibrate_quant_params,
                      check_finite, quantize_affine, requantize)
from . import layers as L
from .model import DetectorModel, ModelSpec, build_decoder, build_encoder, named_arrays

MIN_CALIBRATION_IMAGES = 8


def fold_batchnorm(model: DetectorModel) -> DetectorModel:
    """Fold every batchnorm into the convolution immediately before it.

    Returns an f32, encoder-only model whose spec no longer contains the
    batchnorm layers; inference output is algebraically unchanged.
    """
    if model.precision != F32:
        raise ValueError("batchnorm folding expects an f32 model")
    spec = model.spec
    new_specs = []
    new_layers = []
    i = 0
    while i < len(spec.layers):
        ls = spec.layers[i]
        layer = model.encoder[i]
        if ls.kind == "batchnorm2d":
            raise ValueError(f"layer {i}: batchnorm without a preceding convolution")
        if ls.kind == "conv2d" and i + 1 < len(spec.layers) and spec.layers[i + 1].kind == "batchnorm2d":
            bn: L.BatchNorm2D = model.encoder[i + 1]
            scale = bn.params["gamma"] / np.sqrt(bn.running_var + bn.eps)
            folded = L.Conv2D(layer.params["w"].shape[1], ls.out_channels, ls.kernel,
                              ls.stride, ls.padding)
            folded.params["w"] = (layer.params["w"] * scale[:, None, None, None]).astype(np.float32)
            folded.params["b"] = ((layer.params["b"] - bn.running_mean) * scale
                                  + bn.params["beta"]).astype(np.float32)
            new_specs.append(ls)
            new_layers.append(folded)
            i += 2
            continue
        new_specs.append(ls)
        new_layers.append(layer)
        i += 1
    folded_spec = ModelSpec(spec.input_hw, spec.in_channels, tuple(new_specs),
                            spec.n_latent, spec.beta, spec.variance_parametrization)
    return DetectorModel(folded_spec, F32, new_layers, None, metadata=dict(model.metadata))


class _QConv:
    """Convolution on NHWC codes. The float64 GEMM is exact: each product of
    a centred code (|q - zp| <= 255) and a weight (|w| <= 128) is an integer,
    and so is every partial sum, all far below 2**53."""

    def __init__(self, wq, w_scale, bias, stride, padding, in_qp, out_qp, floor):
        self.kernel = wq.shape[2]
        # (k*k*C, OC), rows in (kh, kw, C) order: the columns then copy runs of
        # k*C contiguous NHWC codes, faster than the (C, kh, kw) order
        self.wmat = np.ascontiguousarray(
            wq.transpose(2, 3, 1, 0).reshape(-1, wq.shape[0]), dtype=np.float64)
        self.scale = in_qp.scale * float(w_scale)
        self.bias = bias.astype(np.float64)
        self.stride = stride
        self.padding = padding
        self.in_qp = in_qp
        self.out_qp = out_qp
        self.floor = floor

    def run(self, q):
        s, p, k = self.stride, self.padding, self.kernel
        n, h, w, c = q.shape
        oh = (h + 2 * p - k) // s + 1
        ow = (w + 2 * p - k) // s + 1
        xi = np.zeros((n, h + 2 * p, w + 2 * p, c))  # zero pad in real domain == pad codes with zp
        np.subtract(q, self.in_qp.zero_point, out=xi[:, p:p + h, p:p + w])
        win = sliding_window_view(xi, (k, k), axis=(1, 2))[:, ::s, ::s].transpose(
            0, 1, 2, 4, 5, 3)  # (N, OH, OW, kh, kw, C)
        out = np.empty((n, oh, ow, self.wmat.shape[1]))
        # the GEMM and the elementwise passes run on each block while it is in cache
        for blk, cols in L.column_blocks(n, (oh, ow, k * k * c), np.float64):
            cols.reshape(cols.shape[:3] + (k, k, c))[...] = win[blk]
            y = np.matmul(cols, self.wmat, out=out[blk])
            y *= self.scale
            y += self.bias
            requantize(y, self.out_qp, self.floor)
        return out


class _QDense:
    """Dense on codes; NHWC input is flattened here. The head (out_qp None)
    emits float32 real values floored at `floor`: 0.0 applies its ReLU."""

    def __init__(self, wq, w_scale, bias, in_qp, out_qp, floor):
        self.wmat = np.asarray(wq, dtype=np.float64)
        self.scale = in_qp.scale * float(w_scale)
        self.bias = bias.astype(np.float64)
        self.in_qp = in_qp
        self.out_qp = out_qp
        self.floor = floor

    def run(self, q):
        if q.ndim == 4:  # NHWC -> NCHW first, so rows match the float model's flatten order
            q = q.transpose(0, 3, 1, 2).reshape(q.shape[0], -1)
        y = (q - self.in_qp.zero_point) @ self.wmat
        y *= self.scale
        y += self.bias
        if self.out_qp is None:  # the cast is monotone and keeps zero: ReLU first
            return np.maximum(y, self.floor, out=y).astype(np.float32)
        return requantize(y, self.out_qp, self.floor)


class _QMaxPool:
    def __init__(self, kernel):
        self.kernel = kernel

    def run(self, q):
        return L.max_pool(q, self.kernel, axis=1)  # NHWC spatial axes


class QuantizedEncoder:
    """Integer inference plan: int8 codes between layers, held as integer-
    valued float64 in NHWC layout, exact integer accumulation inside them,
    f32 only at the head output. It keeps what its ops were built from, the
    quantized tensors (name -> Tensor) and the site table (name -> (scale,
    zero_point)): what a qint8 model file stores."""

    def __init__(self, weights: dict, sites: dict, ops, input_floor):
        self.weights = dict(weights)
        self.sites = dict(sites)
        self.input_qp = QuantParams(*self.sites["input"])
        self.input_floor = input_floor
        self.ops = ops

    def forward(self, xs: np.ndarray) -> np.ndarray:
        q = requantize(xs.astype(np.float64), self.input_qp, self.input_floor).transpose(0, 2, 3, 1)
        for op in self.ops:
            q = op.run(q)
        return q


ACT_PERCENTILE = 99.95  # clip activation-range outliers before deriving scales


def _percentile_qp(arr: np.ndarray):
    lo = float(np.percentile(arr, 100.0 - ACT_PERCENTILE))
    hi = float(np.percentile(arr, ACT_PERCENTILE))
    return calibrate_quant_params([np.float32([lo, hi])], "asymmetric")


def _observe_sites(folded: DetectorModel, calib: np.ndarray):
    """Asymmetric QuantParams per activation site: the model input plus the
    output of every conv/dense layer; monotone layers share their input site.
    Ranges are percentile-clipped so single outliers do not coarsen a site."""
    sites = {"input": _percentile_qp(calib)}
    t = calib
    for i, layer in enumerate(folded.encoder):
        t = layer.forward(t, training=False)
        if isinstance(layer, (L.Conv2D, L.Dense)):
            sites[f"out.{i}"] = _percentile_qp(t)
    return sites


def quantize_model(model: DetectorModel, calibration_images) -> DetectorModel:
    """f32 -> qint8: fold batchnorm, quantize weights symmetric per-tensor,
    observe activation ranges over the calibration inputs."""
    calib = np.stack([np.asarray(im, dtype=np.float32) for im in calibration_images])
    if calib.shape[0] < MIN_CALIBRATION_IMAGES:
        raise ValueError(
            f"need at least {MIN_CALIBRATION_IMAGES} calibration inputs, got {calib.shape[0]}")
    folded = fold_batchnorm(model)
    # a non-finite parameter would surface later as an empty activation range
    for name, arr in model.named_params():
        if name.startswith("enc."):
            check_finite(arr, f"cannot quantize {name}: ")
    sites = _observe_sites(folded, calib)
    weights = {}
    # each conv's and dense's w and b: the folded encoder has no other params
    for name, layer, key in named_arrays(folded.encoder, None, stored=False):
        w = layer.params[key]
        if key == "w":
            weights[name] = quantize_affine(w, calibrate_quant_params([w], "symmetric"))
        else:
            weights[name] = Tensor.f32(w)
    return rebuild_quantized(folded.spec, weights,
                             {k: (qp.scale, qp.zero_point) for k, qp in sites.items()},
                             dict(model.metadata))


def rebuild_quantized(spec: ModelSpec, weights: dict, sites: dict, metadata: dict) -> DetectorModel:
    """The qint8 model's integer execution plan, built from its quantized
    tensors and its site table (name -> (scale, zero_point)): one op per
    conv, max-pool and dense. A flatten is the next dense's reshape. A ReLU
    on codes is max(q, zp), which commutes with max-pool and flatten: it is
    the clip floor of the requantize that coded its site, as QMIN <= zp
    makes clip(y, zp, QMAX) == max(clip(y, QMIN, QMAX), zp)."""
    qps = {k: QuantParams(s, z) for k, (s, z) in sites.items()}
    last_dense = max(i for i, ls in enumerate(spec.layers) if ls.kind == "dense")
    at = ["input"]  # at[i]: the site of layer i's input codes, at[i + 1] of its output's
    for i, ls in enumerate(spec.layers):
        at.append(f"out.{i}" if ls.kind in ("conv2d", "dense") else at[-1])
    relu_sites = {at[i + 1] for i, ls in enumerate(spec.layers) if ls.kind == "relu"}

    def floor(site):
        return qps[site].zero_point if site in relu_sites else QMIN

    ops = []
    for i, ls in enumerate(spec.layers):
        in_qp, site = qps[at[i]], at[i + 1]
        if ls.kind in ("conv2d", "dense"):
            wt, bias = weights[f"enc.{i}.w"], weights[f"enc.{i}.b"].data
            if ls.kind == "conv2d":
                ops.append(_QConv(wt.data, wt.quant.scale, bias, ls.stride, ls.padding,
                                  in_qp, qps[site], floor(site)))
            elif i < last_dense:
                ops.append(_QDense(wt.data, wt.quant.scale, bias, in_qp, qps[site], floor(site)))
            else:
                ops.append(_QDense(wt.data, wt.quant.scale, bias, in_qp, None,
                                   0.0 if site in relu_sites else -np.inf))
        elif ls.kind == "maxpool2d":
            ops.append(_QMaxPool(ls.kernel))
        elif ls.kind not in ("relu", "flatten"):
            raise ValueError(f"cannot quantize layer kind {ls.kind!r}")
    return DetectorModel(spec, QINT8, [], None, metadata=metadata,
                         quantized=QuantizedEncoder(weights, sites, ops, floor("input")))


def cast_model_f16(model: DetectorModel) -> DetectorModel:
    """The f16 model: every parameter and batchnorm running statistic rounded
    through binary16 and kept as float32. binary16 is only the model file's
    storage precision, so the values save exactly and compute as f32."""
    if model.precision != F32:
        raise ValueError("f16 cast expects an f32 model")
    spec = model.spec
    dec = build_decoder(spec) if model.decoder is not None else None
    f16 = DetectorModel(spec, F16, build_encoder(spec), dec, metadata=dict(model.metadata))
    f16.set_params({name: arr.astype(np.float16).astype(np.float32)
                    for name, arr in model.named_params()})
    return f16
