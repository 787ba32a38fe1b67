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
    """The shape chain of the encoder: shapes[i] is layer i's input and
    shapes[i + 1] its output. Raises ValueError on an inconsistent chain."""
    shape = (spec.in_channels, spec.input_hw[0], spec.input_hw[1])
    shapes = [shape]
    for i, ls in enumerate(spec.layers):
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
            if len(shape) != 3:
                raise ValueError(f"layer {i}: maxpool2d needs (C,H,W) input, got {shape}")
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
        shapes.append(shape)
    if shape != (2 * spec.n_latent,):
        raise ValueError(
            f"encoder must end with 2*n_latent={2 * spec.n_latent} outputs, got {shape}")
    return shapes


# encoder layer of each spec kind, from its spec record and its input shape
_ENCODER_LAYERS = {
    "conv2d": lambda ls, shape, rng: L.Conv2D(shape[0], ls.out_channels, ls.kernel,
                                              ls.stride, ls.padding, rng),
    "maxpool2d": lambda ls, shape, rng: L.MaxPool2D(ls.kernel),
    "dense": lambda ls, shape, rng: L.Dense(shape[0], ls.out_dim, rng),
    "relu": lambda ls, shape, rng: L.ReLU(),
    "batchnorm2d": lambda ls, shape, rng: L.BatchNorm2D(shape[0]),
    "flatten": lambda ls, shape, rng: L.Flatten(),
}


def build_encoder(spec: ModelSpec, rng=None):
    shapes = infer_shapes(spec)
    return [_ENCODER_LAYERS[ls.kind](ls, shape, rng) for ls, shape in zip(spec.layers, shapes)]


def build_decoder(spec: ModelSpec, rng=None):
    """The encoder mirrored: its layers in reverse, each restoring its input
    shape, with nearest upsampling standing in for every pooling or strided-
    convolution resolution drop. Leading head activations are dropped so the
    latent enters a dense layer."""
    shapes = infer_shapes(spec)
    shape = (spec.n_latent,)
    out = []
    for i in reversed(range(len(spec.layers))):
        ls, in_shape = spec.layers[i], shapes[i]
        kind = ls.kind
        if kind in ("relu", "batchnorm2d"):
            if out:
                out.append(L.ReLU() if kind == "relu" else L.BatchNorm2D(shape[0]))
            continue
        if kind == "dense":
            out.append(L.Dense(shape[0], in_shape[0], rng))
        elif kind == "flatten":
            out.append(L.Unflatten(in_shape))
        elif kind == "maxpool2d":
            out.append(L.Upsample(in_shape[1:]))
        else:  # conv2d
            if ls.kernel % 2 == 0:
                raise ValueError("mirrored decoders require odd convolution kernels")
            if shapes[i + 1][1:] != in_shape[1:]:
                out.append(L.Upsample(in_shape[1:]))
            out.append(L.Conv2D(shape[0], in_shape[0], ls.kernel, 1, ls.kernel // 2, rng))
        shape = in_shape
    return out


def named_arrays(encoder, decoder, *, stored):
    """(name, layer, key) of each parameter of the layers, encoder then
    decoder, named "{enc|dec}.{layer index}.{key}"; with stored, each
    batchnorm's running statistics follow its parameters, so the walk covers
    every array a model file holds, in file order."""
    for prefix, group in (("enc", encoder), ("dec", decoder or [])):
        for i, layer in enumerate(group):
            keys = list(layer.params)
            if stored and isinstance(layer, L.BatchNorm2D):
                keys += ["running_mean", "running_var"]
            for key in keys:
                yield f"{prefix}.{i}.{key}", layer, key


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
        """(name, array) of every stored array, in file order (named_arrays)."""
        return [(name, layer.params[key] if key in layer.params else getattr(layer, key))
                for name, layer, key in named_arrays(self.encoder, self.decoder, stored=True)]

    def set_params(self, arrays: dict):
        """Replace every stored array by arrays[its name]."""
        for name, layer, key in named_arrays(self.encoder, self.decoder, stored=True):
            if key in layer.params:
                layer.params[key] = arrays[name]
            else:
                setattr(layer, key, arrays[name])


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
