"""Model specifications, shape inference, mirrored decoders, and inference."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..tensor import QINT8
from . import layers as L

LOG_VAR = "log_var"
NEG_LOG_VAR = "neg_log_var"
VAR = "var"
VAR_PARAMS = (LOG_VAR, NEG_LOG_VAR, VAR)

EPS_VAR = 1e-6


@dataclass(frozen=True)
class ConvSpec:
    out_channels: int
    kernel: int
    stride: int = 1
    padding: int = 0
    kind: str = field(default="conv2d", init=False)


@dataclass(frozen=True)
class MaxPoolSpec:
    kernel: int
    kind: str = field(default="maxpool2d", init=False)


@dataclass(frozen=True)
class DenseSpec:
    out_dim: int
    kind: str = field(default="dense", init=False)


@dataclass(frozen=True)
class ReluSpec:
    kind: str = field(default="relu", init=False)


@dataclass(frozen=True)
class BatchNormSpec:
    kind: str = field(default="batchnorm2d", init=False)


@dataclass(frozen=True)
class FlattenSpec:
    kind: str = field(default="flatten", init=False)


@dataclass(frozen=True)
class UnflattenSpec:
    chw: tuple
    kind: str = field(default="unflatten", init=False)


@dataclass(frozen=True)
class UpsampleSpec:
    target_hw: tuple
    kind: str = field(default="upsample", init=False)


@dataclass(frozen=True)
class ModelSpec:
    """Encoder trunk from input geometry down to the 2*n_latent head."""

    input_hw: tuple
    in_channels: int
    layers: tuple
    n_latent: int
    beta: float
    variance_parametrization: str = VAR

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if self.n_latent < 1:
            raise ValueError(f"n_latent must be >= 1, got {self.n_latent}")
        if self.variance_parametrization not in VAR_PARAMS:
            raise ValueError(f"unknown variance parametrization {self.variance_parametrization!r}")
        infer_shapes(self)  # raises if the chain is inconsistent


def infer_shapes(spec: ModelSpec):
    """Per-layer input shapes; raises ValueError on an inconsistent chain."""
    shape = (spec.in_channels, spec.input_hw[0], spec.input_hw[1])
    shapes = []
    for i, ls in enumerate(spec.layers):
        shapes.append(shape)
        kind = ls.kind
        if kind == "conv2d":
            if len(shape) != 3:
                raise ValueError(f"layer {i}: conv2d needs (C,H,W) input, got {shape}")
            c, h, w = shape
            oh = (h + 2 * ls.padding - ls.kernel) // ls.stride + 1
            ow = (w + 2 * ls.padding - ls.kernel) // ls.stride + 1
            if oh < 1 or ow < 1:
                raise ValueError(f"layer {i}: conv2d collapses {h}x{w} to {oh}x{ow}")
            shape = (ls.out_channels, oh, ow)
        elif kind == "maxpool2d":
            c, h, w = shape
            oh, ow = h // ls.kernel, w // ls.kernel
            if oh < 1 or ow < 1:
                raise ValueError(f"layer {i}: maxpool2d collapses {h}x{w}")
            shape = (c, oh, ow)
        elif kind == "dense":
            if len(shape) != 1:
                raise ValueError(f"layer {i}: dense needs flattened input, got {shape}")
            shape = (ls.out_dim,)
        elif kind == "flatten":
            shape = (int(np.prod(shape)),)
        elif kind in ("relu",):
            pass
        elif kind == "batchnorm2d":
            if len(shape) != 3:
                raise ValueError(f"layer {i}: batchnorm2d needs (C,H,W) input, got {shape}")
        else:
            raise ValueError(f"layer {i}: unknown layer kind {kind!r} in encoder spec")
    if shape != (2 * spec.n_latent,):
        raise ValueError(
            f"encoder must end with 2*n_latent={2 * spec.n_latent} outputs, got {shape}")
    return shapes


def build_encoder(spec: ModelSpec, rng=None):
    shapes = infer_shapes(spec)
    out = []
    for ls, shape in zip(spec.layers, shapes):
        kind = ls.kind
        if kind == "conv2d":
            out.append(L.Conv2D(shape[0], ls.out_channels, ls.kernel, ls.stride, ls.padding, rng))
        elif kind == "maxpool2d":
            out.append(L.MaxPool2D(ls.kernel))
        elif kind == "dense":
            out.append(L.Dense(shape[0], ls.out_dim, rng))
        elif kind == "relu":
            out.append(L.ReLU())
        elif kind == "batchnorm2d":
            out.append(L.BatchNorm2D(shape[0]))
        elif kind == "flatten":
            out.append(L.Flatten())
        else:
            raise ValueError(f"unknown layer kind {kind!r}")
    return out


def mirror_decoder_spec(spec: ModelSpec):
    """Decoder layer specs: the encoder reversed, with nearest upsampling
    standing in for every pooling or strided-convolution resolution drop.
    Leading head activations are dropped so the latent enters a dense layer."""
    shapes = infer_shapes(spec)
    rev = []
    for ls, in_shape in zip(reversed(spec.layers), reversed(shapes)):
        kind = ls.kind
        if kind == "dense":
            rev.append(DenseSpec(in_shape[0]))
        elif kind == "flatten":
            rev.append(UnflattenSpec(in_shape))
        elif kind == "maxpool2d":
            rev.append(UpsampleSpec(in_shape[1:]))
        elif kind == "conv2d":
            if ls.kernel % 2 == 0:
                raise ValueError("mirrored decoders require odd convolution kernels")
            c, h, w = in_shape
            oh = (h + 2 * ls.padding - ls.kernel) // ls.stride + 1
            ow = (w + 2 * ls.padding - ls.kernel) // ls.stride + 1
            if (oh, ow) != (h, w):
                rev.append(UpsampleSpec((h, w)))
            rev.append(ConvSpec(c, ls.kernel, 1, ls.kernel // 2))
        elif kind in ("relu", "batchnorm2d"):
            rev.append(ls)
        else:
            raise ValueError(f"unknown layer kind {kind!r}")
    while rev and rev[0].kind in ("relu", "batchnorm2d"):
        rev.pop(0)
    return tuple(rev)


def build_decoder(spec: ModelSpec, rng=None):
    dec_specs = mirror_decoder_spec(spec)
    shape = (spec.n_latent,)
    out = []
    for ls in dec_specs:
        kind = ls.kind
        if kind == "dense":
            out.append(L.Dense(shape[0], ls.out_dim, rng))
            shape = (ls.out_dim,)
        elif kind == "unflatten":
            out.append(L.Unflatten(ls.chw))
            shape = tuple(ls.chw)
        elif kind == "upsample":
            out.append(L.Upsample(ls.target_hw))
            shape = (shape[0],) + tuple(ls.target_hw)
        elif kind == "conv2d":
            out.append(L.Conv2D(shape[0], ls.out_channels, ls.kernel, ls.stride, ls.padding, rng))
            shape = (ls.out_channels, shape[1], shape[2])
        elif kind == "relu":
            out.append(L.ReLU())
        elif kind == "batchnorm2d":
            out.append(L.BatchNorm2D(shape[0]))
        else:
            raise ValueError(f"unknown decoder layer kind {kind!r}")
    return out


def decode_variance(h: np.ndarray, parametrization: str) -> np.ndarray:
    if parametrization == LOG_VAR:
        return np.exp(h)
    if parametrization == NEG_LOG_VAR:
        return np.exp(-h)
    if parametrization == VAR:
        return np.maximum(h, EPS_VAR)
    raise ValueError(f"unknown variance parametrization {parametrization!r}")


def variance_grad(h: np.ndarray, parametrization: str) -> np.ndarray:
    """d var / d h for backprop through the head decoding."""
    if parametrization == LOG_VAR:
        return np.exp(h)
    if parametrization == NEG_LOG_VAR:
        return -np.exp(-h)
    if parametrization == VAR:
        return (h > EPS_VAR).astype(h.dtype)
    raise ValueError(f"unknown variance parametrization {parametrization!r}")


@dataclass(frozen=True)
class LatentOutput:
    """Latent mean and positive variance per dimension."""

    mu: np.ndarray
    var: np.ndarray

    def __post_init__(self):
        if self.mu.shape != self.var.shape:
            raise ValueError("mu and var must have equal shapes")
        if not np.all(self.var > 0):
            raise ValueError("latent variance must be strictly positive")


class DetectorModel:
    """Encoder (and optionally its mirrored decoder) at one precision."""

    def __init__(self, spec: ModelSpec, precision: str, encoder, decoder=None,
                 quantized=None, metadata: Optional[dict] = None):
        self.spec = spec
        self.precision = precision
        self.encoder = encoder
        self.decoder = decoder
        self.quantized = quantized  # QuantizedEncoder for qint8 models
        self.metadata = dict(metadata or {})
        if precision == QINT8 and quantized is None:
            raise ValueError("qint8 models need a quantized execution plan")

    def _check_geometry(self, x):
        want = (self.spec.in_channels,) + tuple(self.spec.input_hw)
        if tuple(x.shape[-3:]) != want:
            raise ValueError(f"input geometry {x.shape[-3:]} does not match spec {want}")

    def encode_batch(self, xs: np.ndarray):
        """(N, C, H, W) f32 batch -> (mu, var) arrays of shape (N, n_latent)."""
        xs = np.asarray(xs, dtype=np.float32)
        self._check_geometry(xs)
        if self.precision == QINT8:
            t = self.quantized.forward(xs)
        else:
            t = xs
            for layer in self.encoder:
                t = layer.forward(t, training=False)
        n = self.spec.n_latent
        mu = t[:, :n]
        var = decode_variance(t[:, n:], self.spec.variance_parametrization)
        if self.spec.variance_parametrization != VAR:
            var = np.maximum(var, EPS_VAR)
        return mu, var

    def encode(self, x: np.ndarray) -> LatentOutput:
        mu, var = self.encode_batch(np.asarray(x)[None])
        return LatentOutput(mu[0], var[0])

    def decode_batch(self, zs: np.ndarray) -> np.ndarray:
        if self.decoder is None:
            raise ValueError(f"{self.precision} model carries no decoder")
        t = np.asarray(zs, dtype=np.float32)
        for layer in self.decoder:
            t = layer.forward(t, training=False)
        return t

    def decode(self, z: np.ndarray) -> np.ndarray:
        return self.decode_batch(np.asarray(z)[None])[0]

    def named_params(self):
        """(name, array) pairs over encoder then decoder, serialization order."""
        out = []
        for prefix, group in (("enc", self.encoder), ("dec", self.decoder or [])):
            for i, layer in enumerate(group):
                for pname, arr in layer.params.items():
                    out.append((f"{prefix}.{i}.{pname}", arr))
                if isinstance(layer, L.BatchNorm2D):
                    out.append((f"{prefix}.{i}.running_mean", layer.running_mean))
                    out.append((f"{prefix}.{i}.running_var", layer.running_var))
        return out


def kl_standard_normal(mu: np.ndarray, var: np.ndarray, axis=-1) -> np.ndarray:
    return 0.5 * np.sum(mu**2 + var - np.log(var) - 1.0, axis=axis)


# ----------------------------------------------------------------------------
# Default desk-scale architectures

def bvae_spec(height: int, width: int, channels: int, n_latent: int = 8,
              beta: float = 2.32, variance_parametrization: str = VAR) -> ModelSpec:
    """Convolutional encoder: up to four conv(3x3)+ReLU+pool(2) blocks (as many
    as the geometry supports), dense 128, then the ReLU'd 2*n_latent head."""
    depths = [16, 16, 8, 8]
    n_blocks = max(1, min(4, int(np.floor(np.log2(max(min(height, width), 2) / 4))) + 1))
    specs = []
    for d in depths[:n_blocks]:
        specs += [ConvSpec(d, 3, 1, 1), ReluSpec(), MaxPoolSpec(2)]
    specs += [FlattenSpec(), DenseSpec(128), ReluSpec(), DenseSpec(2 * n_latent), ReluSpec()]
    return ModelSpec((height, width), channels, tuple(specs), n_latent, beta,
                     variance_parametrization)


def of_encoder_spec(height: int, width: int, depth: int, n_latent: int = 12,
                    beta: float = 1.0) -> ModelSpec:
    """Flow-stack encoder: four conv(5x5, stride 3)+BN+ReLU blocks then the head."""
    specs = []
    for d in (8, 16, 16, 32):
        specs += [ConvSpec(d, 5, 3, 2), BatchNormSpec(), ReluSpec()]
    specs += [FlattenSpec(), DenseSpec(2 * n_latent), ReluSpec()]
    return ModelSpec((height, width), depth, tuple(specs), n_latent, beta, VAR)
