import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from oodkit.network import (
    LOG_VAR,
    NEG_LOG_VAR,
    VAR,
    ModelSpec,
    TrainOpts,
    beta_vae_loss,
    bvae_spec,
    cast_model_f16,
    fold_batchnorm,
    load_model,
    mig_from_latents,
    of_encoder_spec,
    quantize_model,
    save_model,
    train,
)
from oodkit.network.layers import BatchNorm2D, Conv2D, Dense, MaxPool2D, ReLU, Upsample
from oodkit.network.model import (
    BatchNormSpec,
    ConvSpec,
    DenseSpec,
    FlattenSpec,
    LatentOutput,
    MaxPoolSpec,
    ReluSpec,
    build_decoder,
    build_encoder,
)
from oodkit.network.serial import OodmChecksumError, OodmError, OodmMagicError
from oodkit.network.train import loss_and_grads


def conv_reference(x, w, b, stride, padding):
    """Direct four-loop cross-correlation."""
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    n, c, h, wd = x.shape
    oc, _, k, _ = w.shape
    oh = (h - k) // stride + 1
    ow = (wd - k) // stride + 1
    out = np.zeros((n, oc, oh, ow))
    for ni in range(n):
        for o in range(oc):
            for y in range(oh):
                for xx in range(ow):
                    patch = x[ni, :, y * stride:y * stride + k, xx * stride:xx * stride + k]
                    out[ni, o, y, xx] = np.sum(patch * w[o]) + b[o]
    return out


def test_conv_examples():
    conv = Conv2D(1, 1, 2)
    conv.params["w"] = np.ones((1, 1, 2, 2), np.float32)
    out = conv.forward(np.ones((1, 1, 4, 4), np.float32))
    assert out.shape == (1, 1, 3, 3)
    assert np.allclose(out, 4.0)

    ident = Conv2D(1, 1, 1)
    ident.params["w"] = np.ones((1, 1, 1, 1), np.float32)
    x = np.random.default_rng(0).normal(size=(1, 1, 5, 5)).astype(np.float32)
    assert np.allclose(ident.forward(x), x)


def test_conv_matches_bruteforce_oracle():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
    conv = Conv2D(3, 4, 3, stride=2, padding=1, rng=rng)
    ref = conv_reference(x, conv.params["w"], conv.params["b"], 2, 1)
    assert np.allclose(conv.forward(x), ref, atol=1e-5)


def test_pool_dense_relu_batchnorm():
    pool = MaxPool2D(2)
    out = pool.forward(np.float32([[[[1, 2], [3, 4]]]]))
    assert out.shape == (1, 1, 1, 1) and out[0, 0, 0, 0] == 4

    relu = ReLU()
    assert np.array_equal(relu.forward(np.float32([-1, 0, 2])), [0, 0, 2])

    dense = Dense(3, 3)
    dense.params["w"] = np.eye(3, dtype=np.float32)
    x = np.float32([[1, -2, 3]])
    assert np.allclose(dense.forward(x), x)

    bn = BatchNorm2D(2)
    x = np.random.default_rng(2).normal(size=(3, 2, 4, 4)).astype(np.float32)
    out = bn.forward(x, training=False)  # gamma=1, beta=0, stats at init
    assert np.allclose(out, x, atol=1e-4)


def tiny_spec(var_param=LOG_VAR, beta=0.5, head_relu=True):
    head = (DenseSpec(4), ReluSpec()) if head_relu else (DenseSpec(4),)
    return ModelSpec((8, 8), 1,
                     (ConvSpec(2, 3, 1, 1), BatchNormSpec(), ReluSpec(), MaxPoolSpec(2),
                      FlattenSpec()) + head,
                     2, beta, var_param)


def test_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec((8, 8), 1, (FlattenSpec(), DenseSpec(3)), 2, 1.0, VAR)  # head != 2n
    with pytest.raises(ValueError):
        ModelSpec((2, 2), 1, (MaxPoolSpec(4), FlattenSpec(), DenseSpec(4)), 2, 1.0, VAR)
    with pytest.raises(ValueError):
        tiny_spec(beta=-1.0)
    with pytest.raises(ValueError):
        ModelSpec((8, 8), 1, (FlattenSpec(), DenseSpec(4)), 2, 1.0, "bogus")


def random_model(spec, seed=0):
    rng = np.random.default_rng(seed)
    from oodkit.network.model import DetectorModel
    return DetectorModel(spec, "f32", build_encoder(spec, rng), build_decoder(spec, rng))


@pytest.mark.parametrize("param,check", [
    (LOG_VAR, lambda v: np.all(v >= 1.0 - 1e-6)),
    (NEG_LOG_VAR, lambda v: np.all(v <= 1.0 + 1e-6)),
])
def test_variance_parametrization_ranges(param, check):
    # trailing ReLU head forces h >= 0, pinning the reachable variance range
    model = random_model(tiny_spec(param), seed=3)
    rng = np.random.default_rng(4)
    for _ in range(20):
        lat = model.encode(rng.uniform(0, 1, (1, 8, 8)).astype(np.float32))
        assert check(lat.var)


def test_var_parametrization_spans_both_sides():
    model = random_model(tiny_spec(VAR), seed=6)
    rng = np.random.default_rng(7)
    vars_seen = np.concatenate([
        model.encode(rng.uniform(0, 3, (1, 8, 8)).astype(np.float32)).var
        for _ in range(60)])
    assert vars_seen.min() < 1.0 < vars_seen.max()


def test_decoder_mirror_geometry():
    for spec in (bvae_spec(24, 24, 3, n_latent=4), of_encoder_spec(48, 64, 6)):
        model = random_model(spec, seed=1)
        out = model.decode(np.zeros(spec.n_latent, np.float32))
        assert out.shape == (spec.in_channels,) + tuple(spec.input_hw)


def test_decoder_zero_weights_constant_output():
    spec = tiny_spec()
    model = random_model(spec, seed=2)
    for layer in model.decoder:
        for k in layer.params:
            layer.params[k] = np.zeros_like(layer.params[k])
    out = model.decode(np.float32([1.0, -2.0]))
    assert np.allclose(out, out.reshape(-1)[0])


def test_beta_vae_loss_examples():
    x = np.zeros((1, 4, 4), np.float32)
    lat = LatentOutput(np.zeros(3), np.ones(3))
    total, recon, kl = beta_vae_loss(x, x, lat, 2.0)
    assert total == recon == kl == 0.0

    lat1 = LatentOutput(np.float64([1.0]), np.float64([1.0]))
    _, _, kl1 = beta_vae_loss(x, x, lat1, 1.0)
    assert kl1 == pytest.approx(0.5)

    t1, r1, _ = beta_vae_loss(x, x + 0.1, lat1, 1.0)
    t2, r2, _ = beta_vae_loss(x, x + 0.1, lat1, 2.0)
    assert (t2 - r2) == pytest.approx(2 * (t1 - r1))


def train_images(n=20, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 1, (n, 1, 8, 8)).astype(np.float32)


def test_train_lr_zero_keeps_weights():
    spec = tiny_spec()
    imgs = train_images()
    m = train(spec, imgs, TrainOpts(epochs=2, batch_size=8, lr=0.0, seed=5))
    fresh = build_encoder(spec, np.random.default_rng(
        np.random.SeedSequence(5).spawn(3)[0]))
    for got, want in zip(m.encoder, fresh):
        for k in want.params:
            assert np.array_equal(got.params[k], want.params[k])


def test_train_deterministic():
    spec = tiny_spec()
    imgs = train_images()
    a = train(spec, imgs, TrainOpts(epochs=2, batch_size=8, seed=9))
    b = train(spec, imgs, TrainOpts(epochs=2, batch_size=8, seed=9))
    for la, lb in zip(a.encoder, b.encoder):
        for k in la.params:
            assert np.array_equal(la.params[k], lb.params[k])
    assert a.metadata["loss_history"] == b.metadata["loss_history"]


def test_train_rejects_empty_and_bad_geometry():
    with pytest.raises(ValueError):
        train(tiny_spec(), [], TrainOpts(epochs=1))
    with pytest.raises(ValueError):
        train(tiny_spec(), np.zeros((3, 1, 9, 9), np.float32), TrainOpts(epochs=1))


def collect_params(encoder, decoder):
    out = {}
    for prefix, group in (("enc", encoder), ("dec", decoder)):
        for i, layer in enumerate(group):
            for pname, arr in layer.params.items():
                out[f"{prefix}.{i}.{pname}"] = arr
    return out


def run_gradcheck(spec, seed=42, h=1e-3, subsample=None):
    rng = np.random.default_rng(seed)
    enc = build_encoder(spec, rng)
    dec = build_decoder(spec, rng)
    for group in (enc, dec):
        for layer in group:
            for k in layer.params:
                layer.params[k] = layer.params[k].astype(np.float64)
            if isinstance(layer, BatchNorm2D):
                layer.running_mean = layer.running_mean.astype(np.float64)
                layer.running_var = layer.running_var.astype(np.float64)
    batch = rng.uniform(0, 1, (4, spec.in_channels) + tuple(spec.input_hw))
    eps = rng.standard_normal((4, spec.n_latent))
    _, _, _, grads = loss_and_grads(enc, dec, spec, batch, eps)
    params = collect_params(enc, dec)
    worst = 0.0
    for name, arr in params.items():
        flat = arr.reshape(-1)
        idx = range(flat.size) if subsample is None else \
            np.random.default_rng(0).choice(flat.size, min(subsample, flat.size), replace=False)
        for j in idx:
            orig = flat[j]
            flat[j] = orig + h
            lp = loss_and_grads(enc, dec, spec, batch, eps)[0]
            flat[j] = orig - h
            lm = loss_and_grads(enc, dec, spec, batch, eps)[0]
            flat[j] = orig
            fd = (lp - lm) / (2 * h)
            an = grads[name].reshape(-1)[j]
            worst = max(worst, abs(fd - an) / max(abs(fd) + abs(an), 1e-3))
    return worst


def test_gradcheck_all_layer_kinds():
    worst = run_gradcheck(tiny_spec(LOG_VAR), subsample=8)
    assert worst < 1e-3, f"worst relative gradient error {worst}"


def test_gradcheck_var_parametrizations():
    # no head ReLU here: it pins h at exactly 0, the kink of max(h, eps),
    # which breaks finite differences without indicating a gradient defect
    for vp in (VAR, NEG_LOG_VAR):
        worst = run_gradcheck(tiny_spec(vp, head_relu=False), subsample=4)
        assert worst < 1e-3, f"{vp}: worst relative gradient error {worst}"


def trained_tiny(seed=0):
    return train(tiny_spec(VAR, beta=0.01), train_images(24, seed),
                 TrainOpts(epochs=4, batch_size=8, seed=seed))


def test_training_halves_reconstruction_error():
    spec = tiny_spec(VAR, beta=0.01)
    imgs = train_images(24, seed=0)
    seeds = np.random.SeedSequence(0).spawn(3)
    rng = np.random.default_rng(seeds[0])
    from oodkit.network.model import DetectorModel
    untrained = DetectorModel(spec, "f32", build_encoder(spec, rng), build_decoder(spec, rng))
    trained = train(spec, imgs, TrainOpts(epochs=8, batch_size=8, seed=0))

    def recon_mse(model, x):
        lat = model.encode(x)
        return float(np.mean((model.decode(lat.mu) - x) ** 2))

    before = np.mean([recon_mse(untrained, x) for x in imgs[:6]])
    after = np.mean([recon_mse(trained, x) for x in imgs[:6]])
    assert after <= 0.5 * before, f"MSE {before:.4f} -> {after:.4f}"


def test_batchnorm_folding_identity():
    m = trained_tiny()
    folded = fold_batchnorm(m)
    xs = train_images(6, seed=3)
    mu_a, var_a = m.encode_batch(xs)
    mu_b, var_b = folded.encode_batch(xs)
    assert np.allclose(mu_a, mu_b, atol=1e-4)
    assert np.allclose(var_a, var_b, atol=1e-4)


def test_quantize_zero_weights_map_to_zero_point():
    m = random_model(tiny_spec(), seed=8)
    for layer in m.encoder:
        for k in layer.params:
            layer.params[k] = np.zeros_like(layer.params[k])
    q = quantize_model(m, train_images(8))
    for name, t in q.quant_weights.items():
        if name.endswith(".w"):
            assert np.all(t.data == t.quant.zero_point)


def test_quantize_requires_calibration_set():
    with pytest.raises(ValueError):
        quantize_model(trained_tiny(), train_images(4))


def test_quantized_latents_close_to_f32():
    m = trained_tiny(seed=2)
    calib = train_images(16, seed=4)
    q = quantize_model(m, calib)
    mu_f, _ = m.encode_batch(calib)
    mu_q, _ = q.encode_batch(calib)
    assert np.abs(mu_q - mu_f).mean() <= 0.15 * mu_f.std() + 1e-9


def test_f16_cast_roundtrip_and_deviation():
    m = trained_tiny(seed=5)
    h = cast_model_f16(m)
    for la, lb in zip(m.encoder, h.encoder):
        for k in la.params:
            assert lb.params[k].dtype == np.float16
            fine = np.abs(la.params[k]) > 1e-4
            rel = np.abs(la.params[k] - lb.params[k].astype(np.float32))[fine]
            if rel.size:
                assert np.all(rel / np.abs(la.params[k])[fine] <= 2**-11 + 1e-9)
    xs = train_images(10, seed=6)
    mu_f, _ = m.encode_batch(xs)
    mu_h, _ = h.encode_batch(xs)
    assert np.abs(mu_h - mu_f).mean() <= 0.05 * mu_f.std() + 1e-9


def test_f16_cast_identity_on_exact_weights():
    m = random_model(tiny_spec(), seed=9)
    for layer in m.encoder + m.decoder:
        for k in layer.params:
            layer.params[k] = np.round(layer.params[k] * 4) / 4  # exactly representable
    h = cast_model_f16(m)
    xs = train_images(4, seed=1)
    assert np.allclose(m.encode_batch(xs)[0], h.encode_batch(xs)[0], atol=1e-6)


def test_save_load_roundtrip_bit_exact():
    for make in (trained_tiny,
                 lambda: cast_model_f16(trained_tiny(1)),
                 lambda: quantize_model(trained_tiny(3), train_images(12))):
        m = make()
        raw = save_model(m)
        back = load_model(raw)
        xs = train_images(5, seed=7)
        mu_a, var_a = m.encode_batch(xs)
        mu_b, var_b = back.encode_batch(xs)
        assert np.array_equal(mu_a, mu_b)
        assert np.array_equal(var_a, var_b)
        assert back.precision == m.precision
        assert save_model(back) == raw


def test_save_load_errors():
    raw = save_model(trained_tiny())
    with pytest.raises(OodmMagicError):
        load_model(b"XXXX" + raw[4:])
    with pytest.raises(OodmError):
        load_model(raw[:40])
    corrupted = bytearray(raw)
    corrupted[-10] ^= 0xFF
    with pytest.raises(OodmChecksumError):
        load_model(bytes(corrupted))
    import json, struct
    hlen = struct.unpack("<II", raw[4:12])[1]
    header = json.loads(raw[12:12 + hlen])
    header["spec"]["layers"][0]["kind"] = "mystery"
    hb = json.dumps(header, sort_keys=True).encode()
    bad = raw[:4] + struct.pack("<II", 1, len(hb)) + hb + raw[12 + hlen:]
    with pytest.raises(OodmError, match="mystery"):
        load_model(bad)


def test_quantized_path_matches_f32_at_fine_scales():
    # synthetic fine-grained QuantParams: the integer path converges on f32
    from oodkit.network.quantize import QuantizedEncoder, _QDense, _QRelu
    from oodkit.tensor import QuantParams
    rng = np.random.default_rng(20)
    w = (rng.uniform(-0.1, 0.1, (4, 3)) * 1000).round() / 1000
    b = np.zeros(3)
    x = (rng.uniform(-0.1, 0.1, (5, 4)) * 1000).round() / 1000
    f32_out = np.maximum(x @ w + b, 0.0)
    s_w = 1e-3
    wq = np.round(w / s_w).astype(np.int8)
    in_qp = QuantParams(1e-3, 0)
    out_qp = QuantParams(1e-3, 0)
    enc = QuantizedEncoder(in_qp, [_QDense(wq, s_w, b, in_qp, out_qp, emit_f32=True),
                                   _QRelu(0)])
    q_out = enc.forward(x.astype(np.float32))
    assert np.allclose(q_out, f32_out, atol=1e-5)


def test_mig_single_informative_dim():
    rng = np.random.default_rng(10)
    n = 2000
    factor = rng.integers(0, 4, n)
    latents = rng.normal(size=(n, 6))
    latents[:, 0] = factor.astype(float)
    assert mig_from_latents(latents, {"f": factor}) >= 0.8


def test_mig_noise_is_low():
    rng = np.random.default_rng(11)
    n = 2000
    factor = rng.integers(0, 4, n)
    latents = rng.normal(size=(n, 6))
    assert mig_from_latents(latents, {"f": factor}) <= 0.1


def test_mig_duplicated_dims_cancel():
    rng = np.random.default_rng(12)
    n = 2000
    factor = rng.integers(0, 4, n)
    latents = rng.normal(size=(n, 4)) * 0.01
    latents[:, 0] = factor.astype(float)
    latents[:, 1] = factor.astype(float)
    assert mig_from_latents(latents, {"f": factor}) <= 0.05


def test_mig_degenerate_factor_errors():
    latents = np.random.default_rng(13).normal(size=(100, 3))
    with pytest.raises(ValueError):
        mig_from_latents(latents, {"f": np.zeros(100)})


# ----------------------------------------------------------------------------
# Reference kernels: the plain formulations the layers must reproduce bit for
# bit (same BLAS operands, same per-element summation order).

class RefConv2D(Conv2D):
    def forward(self, x, training=False):
        s, p = self.stride, self.padding
        if p:
            x = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
        self._x = x
        w = self.params["w"]
        k = w.shape[2]
        win = sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::s, ::s]
        cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(win.shape[0], win.shape[2], win.shape[3], -1)
        out = cols @ w.reshape(w.shape[0], -1).T + self.params["b"]
        return np.ascontiguousarray(out.transpose(0, 3, 1, 2))

    def backward(self, grad):
        w = self.params["w"]
        s, x = self.stride, self._x
        k = w.shape[2]
        oh, ow = grad.shape[2], grad.shape[3]
        dx = np.zeros_like(x)
        dw = np.zeros_like(w)
        for i in range(k):
            for j in range(k):
                patch = x[:, :, i:i + s * oh:s, j:j + s * ow:s]
                dw[:, :, i, j] = np.tensordot(grad, patch, axes=([0, 2, 3], [0, 2, 3]))
                dx[:, :, i:i + s * oh:s, j:j + s * ow:s] += np.tensordot(
                    grad, w[:, :, i, j], axes=([1], [0])).transpose(0, 3, 1, 2)
        self.grads["w"] = dw
        self.grads["b"] = grad.sum(axis=(0, 2, 3))
        p = self.padding
        return dx[:, :, p:-p, p:-p] if p else dx


class RefMaxPool2D(MaxPool2D):
    def forward(self, x, training=False):
        k = self.kernel
        n, c, h, w = x.shape
        oh, ow = h // k, w // k
        self._in_shape = x.shape
        win = x[:, :, :oh * k, :ow * k].reshape(n, c, oh, k, ow, k) \
            .transpose(0, 1, 2, 4, 3, 5).reshape(n, c, oh, ow, k * k)
        self._arg = np.argmax(win, axis=-1)
        return np.max(win, axis=-1)

    def backward(self, grad):
        k = self.kernel
        n, c, h, w = self._in_shape
        oh, ow = grad.shape[2], grad.shape[3]
        dwin = np.zeros((n, c, oh, ow, k * k), dtype=grad.dtype)
        np.put_along_axis(dwin, self._arg[..., None], grad[..., None], axis=-1)
        dx = np.zeros((n, c, h, w), dtype=grad.dtype)
        dx[:, :, :oh * k, :ow * k] = dwin.reshape(n, c, oh, ow, k, k) \
            .transpose(0, 1, 2, 4, 3, 5).reshape(n, c, oh * k, ow * k)
        return dx


class RefUpsample(Upsample):
    def forward(self, x, training=False):
        th, tw = self.target_hw
        h, w = x.shape[2], x.shape[3]
        self._in_hw = (h, w)
        self._yi = np.minimum(np.floor((np.arange(th) + 0.5) * (h / th)).astype(np.int64), h - 1)
        self._xi = np.minimum(np.floor((np.arange(tw) + 0.5) * (w / tw)).astype(np.int64), w - 1)
        return x[:, :, self._yi][:, :, :, self._xi]

    def backward(self, grad):
        h, w = self._in_hw
        dx = np.zeros(grad.shape[:2] + (h, w), dtype=grad.dtype)
        np.add.at(dx, (slice(None), slice(None), self._yi[:, None], self._xi[None, :]), grad)
        return dx


def assert_same_pass(layer, ref, x, rng):
    """Forward, dx and every grad bit-equal between a layer and its reference."""
    out = layer.forward(x, training=True)
    want = ref.forward(x, training=True)
    assert out.dtype == want.dtype and np.array_equal(out, want)
    grad = rng.normal(size=out.shape).astype(x.dtype)
    dx = layer.backward(grad)
    want_dx = ref.backward(grad)
    assert dx.dtype == want_dx.dtype and np.array_equal(dx, want_dx)
    assert layer.grads.keys() == ref.grads.keys()
    for name in ref.grads:
        assert np.array_equal(layer.grads[name], ref.grads[name]), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n,c,oc,hw,k,stride,pad", [
    (1, 3, 16, (12, 12), 3, 1, 1),   # bvae block
    (16, 16, 8, (12, 12), 3, 1, 1),
    (4, 6, 8, (48, 64), 5, 3, 2),    # flow encoder block
    (16, 16, 32, (2, 3), 5, 3, 2),   # flow encoder's last block: 1x1 output
    (3, 2, 4, (9, 7), 3, 2, 0),      # odd sizes, stride 2, no padding
    (2, 1, 1, (5, 5), 1, 1, 0),
])
def test_conv_bit_equal_to_reference(dtype, n, c, oc, hw, k, stride, pad):
    rng = np.random.default_rng(30)
    layer = Conv2D(c, oc, k, stride, pad, rng)
    layer.params = {name: v.astype(dtype) for name, v in layer.params.items()}
    layer.params["b"] += rng.normal(size=oc).astype(dtype)
    ref = RefConv2D(c, oc, k, stride, pad)
    ref.params = layer.params
    x = rng.normal(size=(n, c) + hw).astype(dtype)
    assert_same_pass(layer, ref, x, rng)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape,k", [
    ((16, 16, 48, 48), 2),
    ((3, 2, 9, 7), 2),    # trailing row and column dropped
    ((2, 3, 10, 11), 3),
])
def test_maxpool_bit_equal_to_reference_with_ties(dtype, shape, k):
    rng = np.random.default_rng(31)
    # coarse integer values, ReLU'd: most windows hold ties, many at zero
    x = np.maximum(rng.integers(-3, 3, shape), 0).astype(dtype)
    assert_same_pass(MaxPool2D(k), RefMaxPool2D(k), x, rng)


def test_maxpool_kernel_exact_on_integer_codes():
    from oodkit.network.quantize import _QMaxPool
    q = np.random.default_rng(32).integers(-128, 128, (2, 3, 9, 7))
    want = RefMaxPool2D(2).forward(q)
    got = _QMaxPool(2).run(q)
    assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("in_hw,target_hw", [((3, 3), (6, 6)), ((5, 7), (11, 16)),
                                             ((22, 8), (64, 16)), ((4, 4), (4, 4)),
                                             ((7, 5), (3, 4))])
def test_upsample_bit_equal_to_reference(dtype, in_hw, target_hw):
    rng = np.random.default_rng(33)
    x = rng.normal(size=(4, 3) + in_hw).astype(dtype)
    assert_same_pass(Upsample(target_hw), RefUpsample(target_hw), x, rng)


@pytest.mark.parametrize("cast", [False, True])
def test_inference_stores_nothing_on_layers(cast):
    for spec in (bvae_spec(24, 24, 3, n_latent=4), of_encoder_spec(48, 64, 6)):
        model = random_model(spec, seed=14)
        if cast:
            model = cast_model_f16(model)
        layers = model.encoder + model.decoder
        before = [dict(vars(layer)) for layer in layers]
        saved = [{k: v.copy() for k, v in layer.params.items()} for layer in layers]
        xs = np.random.default_rng(15).uniform(
            0, 1, (2, spec.in_channels) + tuple(spec.input_hw)).astype(np.float32)
        mu, _ = model.encode_batch(xs)
        model.decode_batch(mu)
        for layer, was, params in zip(layers, before, saved):
            now = vars(layer)
            assert now.keys() == was.keys(), type(layer).__name__
            assert all(now[k] is was[k] for k in was), type(layer).__name__
            assert all(np.array_equal(layer.params[k], params[k]) for k in params)
