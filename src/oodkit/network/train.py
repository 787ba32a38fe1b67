"""Seeded training loop for the variational detector networks."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..tensor import F32
from .layers import Conv2D
from .model import (
    DetectorModel,
    ModelSpec,
    build_decoder,
    build_encoder,
    decode_variance,
    kl_standard_normal,
    named_arrays,
    variance_grad,
)


@dataclass(frozen=True)
class TrainOpts:
    epochs: int = 30
    batch_size: int = 16
    lr: float = 1e-3
    seed: int = 0
    optimizer: str = "adam"

    def __post_init__(self):
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("bad training budget")


def loss_and_grads(encoder, decoder, spec: ModelSpec, batch: np.ndarray, eps_noise: np.ndarray):
    """Single training step's loss and parameter gradients.

    The reparametrization draw eps_noise is an explicit input so the whole map
    (params -> loss) is deterministic and finite-difference checkable.
    """
    n = spec.n_latent
    t = batch
    for layer in encoder:
        t = layer.forward(t, training=True)
    mu = t[:, :n]
    h = t[:, n:]
    var = decode_variance(h, spec.variance_parametrization)
    sigma = np.sqrt(var)
    z = mu + sigma * eps_noise

    x_hat = z
    for layer in decoder:
        x_hat = layer.forward(x_hat, training=True)

    nb = batch.shape[0]
    recon = np.mean((x_hat - batch) ** 2)
    kl = np.mean(kl_standard_normal(mu, var))
    total = recon + spec.beta * kl

    # backward: reconstruction path through the decoder
    g = 2.0 * (x_hat - batch) / x_hat.size
    for layer in reversed(decoder):
        g = layer.backward(g)
    dz = g

    dmu = dz + spec.beta * mu / nb
    dvar = dz * eps_noise * (0.5 / sigma) + spec.beta * 0.5 * (1.0 - 1.0 / var) / nb
    dh = dvar * variance_grad(h, spec.variance_parametrization)
    gt = np.concatenate([dmu, dh], axis=1)
    for i, layer in reversed(list(enumerate(encoder))):
        if i == 0 and isinstance(layer, Conv2D):
            layer.backward(gt, input_grad=False)  # the data's gradient: nothing reads it
        else:
            gt = layer.backward(gt)

    grads = {name: layer.grads[key]
             for name, layer, key in named_arrays(encoder, decoder, stored=False)}
    return float(total), float(recon), float(kl), grads


class Adam:
    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = {}
        self.v = {}
        self.t = 0

    def step(self, params: dict, grads: dict):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, p in params.items():
            g = grads[name]
            m = self.m.get(name)
            if m is None:
                m = np.zeros_like(g)
                self.v[name] = np.zeros_like(g)
            v = self.v[name]
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            self.m[name] = m
            self.v[name] = v
            m_hat = m / (1 - b1**self.t)
            v_hat = v / (1 - b2**self.t)
            p -= (self.lr * m_hat / (np.sqrt(v_hat) + self.eps)).astype(p.dtype)


class SGD:
    def __init__(self, lr):
        self.lr = lr

    def step(self, params: dict, grads: dict):
        for name, p in params.items():
            p -= (self.lr * grads[name]).astype(p.dtype)


def train(spec: ModelSpec, images, opts: TrainOpts = TrainOpts(),
          metadata: dict | None = None) -> DetectorModel:
    """Train an encoder/decoder pair; deterministic for a fixed seed.

    images: iterable of (C, H, W) float32 arrays scaled to [0, 1].
    """
    data = np.stack([np.asarray(im, dtype=np.float32) for im in images])
    if data.shape[0] == 0:
        raise ValueError("training dataset is empty")
    want = (spec.in_channels,) + tuple(spec.input_hw)
    if data.shape[1:] != want:
        raise ValueError(f"training images have geometry {data.shape[1:]}, spec wants {want}")

    ss = np.random.SeedSequence(opts.seed)
    init_rng, shuffle_rng, noise_rng = [np.random.default_rng(s) for s in ss.spawn(3)]

    encoder = build_encoder(spec, init_rng)
    decoder = build_decoder(spec, init_rng)
    params = {name: layer.params[key]
              for name, layer, key in named_arrays(encoder, decoder, stored=False)}
    opt = Adam(opts.lr) if opts.optimizer == "adam" else SGD(opts.lr)

    n = data.shape[0]
    history = []
    for epoch in range(opts.epochs):
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        batches = 0
        for start in range(0, n, opts.batch_size):
            idx = order[start:start + opts.batch_size]
            batch = data[idx]
            eps = noise_rng.standard_normal((len(idx), spec.n_latent)).astype(np.float32)
            total, recon, kl, grads = loss_and_grads(encoder, decoder, spec, batch, eps)
            if not np.isfinite(total):
                raise RuntimeError(
                    f"non-finite loss at epoch {epoch} batch {batches}: "
                    f"total={total} recon={recon} kl={kl}")
            opt.step(params, grads)
            epoch_loss += total
            batches += 1
        history.append(epoch_loss / max(batches, 1))
    for layer in encoder + decoder:  # the last batch's saved activations and gradients
        for name in [k for k in vars(layer) if k.startswith("_")]:
            delattr(layer, name)
        layer.grads = {}

    meta = dict(metadata or {})
    meta["loss_history"] = history
    meta["train_opts"] = asdict(opts)
    return DetectorModel(spec, F32, encoder, decoder, metadata=meta)
