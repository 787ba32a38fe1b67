"""Static quantization of trained detectors: batchnorm folding, symmetric
per-tensor int8 weights, asymmetric activation ranges observed on a
calibration pass, and an integer execution plan for encode()."""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..tensor import F16, F32, QINT8, QuantParams, Tensor, calibrate_quant_params, round_half_away
from . import layers as L
from .model import DetectorModel, ModelSpec, build_decoder, build_encoder

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
    def __init__(self, wq, w_scale, bias, stride, padding, in_qp, out_qp, emit_f32):
        self.wq = wq.astype(np.int64)
        self.w_scale = float(w_scale)
        self.bias = bias.astype(np.float64)
        self.stride = stride
        self.padding = padding
        self.in_qp = in_qp
        self.out_qp = out_qp
        self.emit_f32 = emit_f32

    def run(self, q):
        s, p = self.stride, self.padding
        xi = q - self.in_qp.zero_point  # zero pad in real domain == pad codes with zp
        if p:
            xi = np.pad(xi, ((0, 0), (0, 0), (p, p), (p, p)))
        k = self.wq.shape[2]
        win = sliding_window_view(xi, (k, k), axis=(2, 3))[:, :, ::s, ::s]
        cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(
            win.shape[0], win.shape[2], win.shape[3], -1).astype(np.int64)
        acc = cols @ self.wq.reshape(self.wq.shape[0], -1).T
        out = acc * (self.in_qp.scale * self.w_scale) + self.bias
        out = np.ascontiguousarray(out.transpose(0, 3, 1, 2))
        if self.emit_f32:
            return out.astype(np.float32)
        oq = round_half_away(out / self.out_qp.scale) + self.out_qp.zero_point
        return np.clip(oq, -128, 127).astype(np.int64)


class _QDense:
    def __init__(self, wq, w_scale, bias, in_qp, out_qp, emit_f32):
        self.wq = wq.astype(np.int64)
        self.w_scale = float(w_scale)
        self.bias = bias.astype(np.float64)
        self.in_qp = in_qp
        self.out_qp = out_qp
        self.emit_f32 = emit_f32

    def run(self, q):
        xi = (q - self.in_qp.zero_point).astype(np.int64)
        acc = xi @ self.wq
        out = acc * (self.in_qp.scale * self.w_scale) + self.bias
        if self.emit_f32:
            return out.astype(np.float32)
        oq = round_half_away(out / self.out_qp.scale) + self.out_qp.zero_point
        return np.clip(oq, -128, 127).astype(np.int64)


class _QRelu:
    def __init__(self, zero_point):
        self.zero_point = zero_point

    def run(self, q):
        if q.dtype == np.float32:  # head activation after the final dense
            return np.maximum(q, 0.0)
        return np.maximum(q, self.zero_point)


class _QMaxPool:
    def __init__(self, kernel):
        self.kernel = kernel

    def run(self, q):
        return L.max_pool(q, self.kernel)


class _QFlatten:
    def run(self, q):
        return q.reshape(q.shape[0], -1)


class QuantizedEncoder:
    """Integer inference plan: int8 codes between layers, >=32-bit accumulate
    inside them, f32 only at the head output."""

    def __init__(self, input_qp: QuantParams, ops):
        self.input_qp = input_qp
        self.ops = ops

    def forward(self, xs: np.ndarray) -> np.ndarray:
        q = round_half_away(xs.astype(np.float64) / self.input_qp.scale) + self.input_qp.zero_point
        q = np.clip(q, -128, 127).astype(np.int64)
        for op in self.ops:
            q = op.run(q)
        return q.astype(np.float32)


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
    calib = np.stack([np.asarray(im, dtype=np.float32) for im in calibration_images]) \
        if not isinstance(calibration_images, np.ndarray) else calibration_images.astype(np.float32)
    if calib.shape[0] < MIN_CALIBRATION_IMAGES:
        raise ValueError(
            f"need at least {MIN_CALIBRATION_IMAGES} calibration inputs, got {calib.shape[0]}")
    folded = fold_batchnorm(model)
    sites = _observe_sites(folded, calib)

    last_dense = max(i for i, ls in enumerate(folded.spec.layers) if ls.kind == "dense")
    ops = []
    weights = {}
    cur_site = "input"
    for i, (ls, layer) in enumerate(zip(folded.spec.layers, folded.encoder)):
        if ls.kind in ("conv2d", "dense"):
            w = layer.params["w"]
            wqp = calibrate_quant_params([w], "symmetric")
            wq = np.clip(round_half_away(w.astype(np.float64) / wqp.scale), -128, 127).astype(np.int8)
            out_site = f"out.{i}"
            emit_f32 = i == last_dense
            in_qp = sites[cur_site]
            out_qp = sites[out_site]
            if ls.kind == "conv2d":
                ops.append(_QConv(wq, wqp.scale, layer.params["b"], ls.stride, ls.padding,
                                  in_qp, out_qp, emit_f32))
            else:
                ops.append(_QDense(wq, wqp.scale, layer.params["b"], in_qp, out_qp, emit_f32))
            weights[f"enc.{i}.w"] = Tensor.qint8(wq, wqp)
            weights[f"enc.{i}.b"] = Tensor.f32(layer.params["b"])
            cur_site = out_site
        elif ls.kind == "relu":
            ops.append(_QRelu(sites[cur_site].zero_point))
        elif ls.kind == "maxpool2d":
            ops.append(_QMaxPool(ls.kernel))
        elif ls.kind == "flatten":
            ops.append(_QFlatten())
        else:
            raise ValueError(f"cannot quantize layer kind {ls.kind!r}")

    qenc = QuantizedEncoder(sites["input"], ops)
    meta = dict(model.metadata)
    qmodel = DetectorModel(folded.spec, QINT8, [], None, quantized=qenc, metadata=meta)
    qmodel.quant_weights = weights
    qmodel.quant_sites = {k: (v.scale, v.zero_point) for k, v in sites.items()}
    return qmodel


def rebuild_quantized(spec: ModelSpec, weights: dict, sites: dict, metadata: dict) -> DetectorModel:
    """Reassemble a qint8 model from its serialized tensors and site table."""
    qps = {k: QuantParams(s, z) for k, (s, z) in sites.items()}
    last_dense = max(i for i, ls in enumerate(spec.layers) if ls.kind == "dense")
    ops = []
    cur_site = "input"
    for i, ls in enumerate(spec.layers):
        if ls.kind in ("conv2d", "dense"):
            wt = weights[f"enc.{i}.w"]
            bias = weights[f"enc.{i}.b"].data
            out_site = f"out.{i}"
            if ls.kind == "conv2d":
                ops.append(_QConv(wt.data, wt.quant.scale, bias, ls.stride, ls.padding,
                                  qps[cur_site], qps[out_site], i == last_dense))
            else:
                ops.append(_QDense(wt.data, wt.quant.scale, bias,
                                   qps[cur_site], qps[out_site], i == last_dense))
            cur_site = out_site
        elif ls.kind == "relu":
            ops.append(_QRelu(qps[cur_site].zero_point))
        elif ls.kind == "maxpool2d":
            ops.append(_QMaxPool(ls.kernel))
        elif ls.kind == "flatten":
            ops.append(_QFlatten())
        else:
            raise ValueError(f"cannot rebuild quantized layer kind {ls.kind!r}")
    qmodel = DetectorModel(spec, QINT8, [], None,
                           quantized=QuantizedEncoder(qps["input"], ops), metadata=metadata)
    qmodel.quant_weights = dict(weights)
    qmodel.quant_sites = dict(sites)
    return qmodel


def cast_model_f16(model: DetectorModel) -> DetectorModel:
    """Store every parameter as binary16; inference accumulates in f32."""
    if model.precision != F32:
        raise ValueError("f16 cast expects an f32 model")
    spec = model.spec
    enc = build_encoder(spec)
    dec = build_decoder(spec) if model.decoder is not None else None
    for src_group, dst_group in ((model.encoder, enc), (model.decoder or [], dec or [])):
        for src, dst in zip(src_group, dst_group):
            for pname, arr in src.params.items():
                dst.params[pname] = arr.astype(np.float16)
            if isinstance(src, L.BatchNorm2D):
                dst.running_mean = src.running_mean.astype(np.float16)
                dst.running_var = src.running_var.astype(np.float16)
    return DetectorModel(spec, F16, enc, dec, metadata=dict(model.metadata))
