import re
import struct

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from oodkit.network import (
    LOG_VAR,
    NEG_LOG_VAR,
    VAR,
    ModelSpec,
    TrainOpts,
    bvae_spec,
    cast_model_f16,
    fold_batchnorm,
    load_model,
    mig_from_latents,
    model_checksum,
    of_encoder_spec,
    quantize_model,
    save_model,
    train,
)
import oodkit.network.quantize as quantize
from oodkit.network.layers import BatchNorm2D, Conv2D, Dense, MaxPool2D, ReLU, Upsample
from oodkit.network.model import (
    BatchNormSpec,
    ConvSpec,
    DenseSpec,
    DetectorModel,
    FlattenSpec,
    MaxPoolSpec,
    ReluSpec,
    build_decoder,
    build_encoder,
)
from oodkit.network.serial import OodmChecksumError, OodmError, OodmMagicError
from oodkit.network.train import loss_and_grads
from oodkit.tensor import QuantParams, Tensor


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
    with pytest.raises(ValueError, match=re.escape("layer 1: maxpool2d needs (C,H,W) input")):
        ModelSpec((8, 8), 1, (FlattenSpec(), MaxPoolSpec(2), DenseSpec(4)), 2, 1.0, VAR)


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


def describe(layer):
    """A layer as text: its type, parameter shapes and geometry."""
    parts = [type(layer).__name__]
    parts += ["x".join(map(str, arr.shape)) for arr in layer.params.values()]
    for attr in ("stride", "padding", "target_hw", "chw"):
        if hasattr(layer, attr):
            parts.append(f"{attr}={getattr(layer, attr)}")
    return " ".join(parts)


def _bvae_blocks(blocks):
    """The mirror of bvae conv blocks (last block first), input to output."""
    out = []
    for conv, target in blocks:
        out += [f"Upsample target_hw={target}", "ReLU", f"{conv} stride=1 padding=1"]
    return out


DECODERS = {
    "bvae6_1block": (bvae_spec(6, 6, 1, n_latent=2), [
        "Dense 2x128 128", "ReLU", "Dense 128x144 144", "Unflatten chw=(16, 3, 3)",
    ] + _bvae_blocks([("Conv2D 1x16x3x3 1", (6, 6))])),
    "bvae12_2blocks": (bvae_spec(12, 12, 1, n_latent=3), [
        "Dense 3x128 128", "ReLU", "Dense 128x144 144", "Unflatten chw=(16, 3, 3)",
    ] + _bvae_blocks([("Conv2D 16x16x3x3 16", (6, 6)), ("Conv2D 1x16x3x3 1", (12, 12))])),
    "bvae24_3blocks": (bvae_spec(24, 24, 3, n_latent=4), [
        "Dense 4x128 128", "ReLU", "Dense 128x72 72", "Unflatten chw=(8, 3, 3)",
    ] + _bvae_blocks([("Conv2D 16x8x3x3 16", (6, 6)), ("Conv2D 16x16x3x3 16", (12, 12)),
                      ("Conv2D 3x16x3x3 3", (24, 24))])),
    "bvae48_4blocks": (bvae_spec(48, 48, 3, n_latent=16), [
        "Dense 16x128 128", "ReLU", "Dense 128x72 72", "Unflatten chw=(8, 3, 3)",
    ] + _bvae_blocks([("Conv2D 8x8x3x3 8", (6, 6)), ("Conv2D 16x8x3x3 16", (12, 12)),
                      ("Conv2D 16x16x3x3 16", (24, 24)), ("Conv2D 3x16x3x3 3", (48, 48))])),
    "flow": (of_encoder_spec(48, 64, 6), [
        "Dense 12x32 32", "Unflatten chw=(32, 1, 1)",
        "ReLU", "BatchNorm2D 32 32", "Upsample target_hw=(2, 3)",
        "Conv2D 16x32x5x5 16 stride=1 padding=2",
        "ReLU", "BatchNorm2D 16 16", "Upsample target_hw=(6, 8)",
        "Conv2D 16x16x5x5 16 stride=1 padding=2",
        "ReLU", "BatchNorm2D 16 16", "Upsample target_hw=(16, 22)",
        "Conv2D 8x16x5x5 8 stride=1 padding=2",
        "ReLU", "BatchNorm2D 8 8", "Upsample target_hw=(48, 64)",
        "Conv2D 6x8x5x5 6 stride=1 padding=2"]),
}


def test_decoder_mirror_geometry():
    """The decoder is the encoder reversed: dense layers and convolutions
    restore each encoder layer's input, nearest upsampling undoes each
    resolution drop, and the head's trailing ReLU is dropped."""
    for name, (spec, want) in DECODERS.items():
        model = random_model(spec, seed=1)
        assert [describe(layer) for layer in model.decoder] == want, name
        out = model.decode(np.zeros(spec.n_latent, np.float32))
        assert out.shape == (spec.in_channels,) + tuple(spec.input_hw), name


def test_decoder_zero_weights_constant_output():
    spec = tiny_spec()
    model = random_model(spec, seed=2)
    for layer in model.decoder:
        for k in layer.params:
            layer.params[k] = np.zeros_like(layer.params[k])
    out = model.decode(np.float32([1.0, -2.0]))
    assert np.allclose(out, out.reshape(-1)[0])


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


@pytest.mark.parametrize("spec", [bvae_spec(16, 16, 3, n_latent=4, beta=1e-3),
                                  of_encoder_spec(24, 32, 3, n_latent=4, beta=1e-3)])
def test_train_skipping_first_input_grad_is_exact(spec, monkeypatch):
    """The first conv computes no input gradient in training; the weights
    equal those of a run that computes that gradient and discards it."""
    rng = np.random.default_rng(2)
    data = [rng.random((spec.in_channels,) + spec.input_hw).astype(np.float32)
            for _ in range(20)]
    opts = TrainOpts(epochs=2, batch_size=8, seed=4)
    skipped = train(spec, data, opts)
    original = Conv2D.backward

    def full_backward(self, grad, input_grad=True):
        dx = original(self, grad)
        return dx if input_grad else None
    monkeypatch.setattr(Conv2D, "backward", full_backward)
    full = train(spec, data, opts)
    for a, b in zip(skipped.encoder, full.encoder):
        for k in a.params:
            assert np.array_equal(a.params[k], b.params[k]), k


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
    for name, t in q.quantized.weights.items():
        if name.endswith(".w"):
            assert np.all(t.data == t.quant.zero_point)


def test_quantize_refuses_non_finite_weight():
    """An inf weight read from an f32 model file is refused by its index, not
    saturated to an int8 code."""
    spec = ModelSpec((8, 8), 1, (FlattenSpec(), DenseSpec(4)), 2, 1.0, VAR)
    m = random_model(spec, seed=1)
    m.encoder[1].params["w"][5, 2] = np.inf
    loaded = load_model(save_model(m))
    with np.errstate(invalid="ignore"), \
            pytest.raises(ValueError, match=re.escape("non-finite input element at index (5, 2)")):
        quantize_model(loaded, train_images(8))


@pytest.mark.parametrize("name,idx,value", [
    ("enc.0.w", (1, 0, 2, 1), np.nan),   # conv
    ("enc.0.b", (1,), np.inf),
    ("enc.5.w", (3, 2), -np.inf),        # dense
    ("enc.5.b", (0,), np.nan),
])
def test_quantize_names_a_non_finite_parameter(name, idx, value, monkeypatch):
    """A NaN or inf conv or dense parameter is refused by its name and index
    before any activation range is observed."""
    m = random_model(tiny_spec(), seed=3)
    dict(m.named_params())[name][idx] = value

    def observe(*args):
        raise AssertionError("activations observed")
    monkeypatch.setattr(quantize, "_observe_sites", observe)
    message = f"cannot quantize {name}: non-finite input element at index {idx}"
    with pytest.raises(ValueError, match=re.escape(message)):
        quantize_model(m, train_images(8))


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
    m = trained_tiny(seed=5)  # batchnorm in encoder and decoder, trained statistics
    h = cast_model_f16(m)
    got, want = h.named_params(), m.named_params()
    names = [name for name, _ in want]
    assert [name for name, _ in got] == names
    assert {"enc.1.running_mean", "enc.1.running_var", "dec.4.running_var", "dec.5.w"} <= set(names)
    assert not np.array_equal(m.encoder[1].running_var, np.ones(2, np.float32))
    for (name, a), (_, b) in zip(got, want):
        # f16 is a storage precision: each stored array rounded through binary16, as float32
        assert a.dtype == np.float32, name
        assert np.array_equal(a, b.astype(np.float16).astype(np.float32)), name
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
    bad = edit_header(raw, lambda h: h["spec"]["layers"][0].update(kind="mystery"))
    with pytest.raises(OodmError, match="mystery"):
        load_model(bad)


@pytest.fixture(scope="module")
def float_files():
    m = trained_tiny()
    return {"f32": save_model(m), "f16": save_model(cast_model_f16(m))}


def _drop_tensor(name):
    return lambda header: header["tensors"].remove(
        next(e for e in header["tensors"] if e["name"] == name))


def _shrink_tensor(name):
    def edit(header):
        next(e for e in header["tensors"] if e["name"] == name)["shape"][0] -= 1
    return edit


@pytest.mark.parametrize("precision", ["f32", "f16"])
@pytest.mark.parametrize("name", ["enc.0.w", "enc.1.running_var", "dec.4.running_var", "dec.5.b"])
@pytest.mark.parametrize("edit,message", [(_drop_tensor, "missing tensor '{}'"),
                                          (_shrink_tensor, "tensor '{}' has shape")],
                         ids=["missing", "misshaped"])
def test_load_refuses_bad_float_file(float_files, precision, name, edit, message):
    raw = float_files[precision]
    assert load_model(edit_header(raw, lambda h: None)).precision == precision
    with pytest.raises(OodmError, match=re.escape(message.format(name))):
        load_model(edit_header(raw, edit(name)))


def _double_tensor_scale(header):
    next(e for e in header["tensors"] if e["name"] == "enc.0.w")["scale"] *= 2


def _double_site_scale(header):
    header["activation_quant"]["out.0"][0] *= 2


def _move_site_zero_point(header):
    header["activation_quant"]["out.0"][1] = 100  # leaves too few codes above it


def test_checksum_covers_every_stored_value():
    """A float model's checksum is the CRC32 of its payload, which its file
    ends with. A qint8 model's also covers what its header stores of the
    quantization: each tensor's scale and zero point, and the activation
    sites. Each edit below keeps the payload and changes the scores."""
    m = trained_tiny(3)
    for model in (m, cast_model_f16(m)):
        raw = save_model(model)
        assert model_checksum(model) == f"{struct.unpack('<I', raw[-4:])[0]:08x}"
    q = load_model(save_model(quantize_model(m, train_images(12))))
    raw = save_model(q)
    xs = train_images(6, seed=4)
    mu = q.encode_batch(xs)[0]
    for edit in (_double_tensor_scale, _double_site_scale, _move_site_zero_point):
        edited = load_model(edit_header(raw, edit))
        assert not np.array_equal(edited.encode_batch(xs)[0], mu), edit.__name__
        assert model_checksum(edited) != model_checksum(q), edit.__name__


@pytest.mark.parametrize("edit", [lambda layer: layer.pop("kernel"),
                                  lambda layer: layer.update(dilation=2)],
                         ids=["missing_field", "unknown_field"])
def test_load_refuses_malformed_layer_record(edit):
    raw = save_model(trained_tiny())
    assert load_model(raw).spec.layers[0].kind == "conv2d"
    bad = edit_header(raw, lambda h: edit(h["spec"]["layers"][0]))
    with pytest.raises(OodmError, match="layer 0"):
        load_model(bad)


def test_load_refuses_maxpool_after_flatten():
    raw = save_model(trained_tiny())
    layers = load_model(raw).spec.layers
    assert [ls.kind for ls in layers[4:6]] == ["flatten", "dense"]
    pool = {"kind": "maxpool2d", "kernel": 2}
    bad = edit_header(raw, lambda h: h["spec"]["layers"].insert(5, pool))
    with pytest.raises(OodmError, match=re.escape("layer 5: maxpool2d needs (C,H,W) input")):
        load_model(bad)


def edit_header(raw, edit):
    import json, struct
    hlen = struct.unpack("<II", raw[4:12])[1]
    header = json.loads(raw[12:12 + hlen])
    edit(header)
    hb = json.dumps(header, sort_keys=True).encode()
    return raw[:4] + struct.pack("<II", 1, len(hb)) + hb + raw[12 + hlen:]


def _set_site(name, scale=None, zero_point=None):
    def edit(header):
        s, z = header["activation_quant"][name]
        header["activation_quant"][name] = [s if scale is None else scale,
                                            z if zero_point is None else zero_point]
    return edit


def _transpose_weight(header):
    entry = next(e for e in header["tensors"] if e["name"] == "enc.0.w")
    entry["shape"] = entry["shape"][1:2] + entry["shape"][:1] + entry["shape"][2:]


@pytest.mark.parametrize("edit,match", [
    (_set_site("out.0", scale=0.0), "scale"),
    (_set_site("out.0", scale=-1e-3), "scale"),
    (_set_site("input", scale=float("inf")), "scale"),
    (_set_site("input", scale=float("nan")), "scale"),
    (_set_site("out.0", zero_point=128), "zero_point"),
    (_set_site("out.0", zero_point=-129), "zero_point"),
    (_set_site("out.0", zero_point=3.5), "zero_point"),
    (_transpose_weight, "shape"),
    (lambda h: h["activation_quant"].pop("out.0"), "site"),
    (lambda h: h["activation_quant"]["out.0"].pop(), "site"),
    (lambda h: h.pop("activation_quant"), "site"),
])
def test_load_refuses_invalid_qint8_model(edit, match, monkeypatch):
    from oodkit.network import serial
    raw = save_model(quantize_model(trained_tiny(3), train_images(12)))
    assert load_model(edit_header(raw, lambda h: None)).precision == "qint8"

    def unreachable(*args):
        raise AssertionError("rebuild_quantized reached")
    monkeypatch.setattr(serial, "rebuild_quantized", unreachable)
    with pytest.raises(OodmError, match=match):
        load_model(edit_header(raw, edit))


def test_quantized_path_matches_f32_at_fine_scales():
    # synthetic fine-grained QuantParams: the integer path converges on f32
    from oodkit.network.quantize import rebuild_quantized
    rng = np.random.default_rng(20)
    w = (rng.uniform(-0.1, 0.1, (4, 4)) * 1000).round() / 1000
    b = np.zeros(4)
    x = (rng.uniform(-0.1, 0.1, (5, 4)) * 1000).round() / 1000
    f32_out = np.maximum(x @ w + b, 0.0)
    s_w = 1e-3
    wq = np.round(w / s_w).astype(np.int8)
    spec = ModelSpec((1, 1), 4, (FlattenSpec(), DenseSpec(4), ReluSpec()), 2, 1.0)
    weights = {"enc.1.w": Tensor.qint8(wq, QuantParams(s_w, 0)), "enc.1.b": Tensor.f32(b)}
    q = rebuild_quantized(spec, weights, {"input": (1e-3, 0), "out.1": (1e-3, 0)}, {})
    q_out = q.quantized.forward(x.astype(np.float32)[:, :, None, None])  # (N, C, 1, 1) images
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

def whole_batch_forward(self, x, training=False):
    """The unblocked im2col forward: one column copy of the whole batch and
    one matmul; in training it saves the padded NHWC input that
    Conv2D.backward reads."""
    w = self.params["w"]
    b = self.params["b"]
    s, p = self.stride, self.padding
    if p:
        x = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    if training:
        self._xh = np.ascontiguousarray(x.transpose(0, 2, 3, 1))
    k = w.shape[2]
    win = sliding_window_view(x, (k, k), axis=(2, 3))[:, :, ::s, ::s]
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(win.shape[0], win.shape[2], win.shape[3], -1)
    out = cols @ w.reshape(w.shape[0], -1).T + b
    return np.ascontiguousarray(out.transpose(0, 3, 1, 2))


class RefConv2D(Conv2D):
    def forward(self, x, training=False):
        p = self.padding
        self._x = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p))) if p else x
        return whole_batch_forward(self, x)

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


CONV_CASES = [
    (1, 3, 16, (12, 12), 3, 1, 1),   # bvae block
    (16, 16, 8, (12, 12), 3, 1, 1),
    (4, 6, 8, (48, 64), 5, 3, 2),    # flow encoder block
    (16, 16, 32, (2, 3), 5, 3, 2),   # flow encoder's last block: 1x1 output
    (3, 2, 4, (9, 7), 3, 2, 0),      # odd sizes, stride 2, no padding
    (2, 1, 1, (5, 5), 1, 1, 0),
    # several column blocks, the last one partial
    (17, 16, 3, (48, 48), 3, 1, 1),  # bvae decoder's last conv
    (121, 16, 16, (24, 24), 3, 1, 1),
    (16, 6, 8, (48, 64), 5, 3, 2),   # flow encoder's first conv, window fill
    (16, 8, 6, (48, 64), 5, 1, 2),   # its mirror in the flow decoder
]


def conv_pair(dtype, c, oc, k, stride, pad, rng):
    layer = Conv2D(c, oc, k, stride, pad, rng)
    layer.params = {name: v.astype(dtype) for name, v in layer.params.items()}
    layer.params["b"] += rng.normal(size=oc).astype(dtype)
    ref = RefConv2D(c, oc, k, stride, pad)
    ref.params = layer.params
    return layer, ref


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n,c,oc,hw,k,stride,pad", CONV_CASES)
def test_conv_bit_equal_to_reference(dtype, n, c, oc, hw, k, stride, pad):
    rng = np.random.default_rng(30)
    layer, ref = conv_pair(dtype, c, oc, k, stride, pad, rng)
    x = rng.normal(size=(n, c) + hw).astype(dtype)
    assert_same_pass(layer, ref, x, rng)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n,c,oc,hw,k,stride,pad", CONV_CASES)
def test_conv_inference_bit_equal_to_reference(dtype, n, c, oc, hw, k, stride, pad):
    rng = np.random.default_rng(34)
    layer, ref = conv_pair(dtype, c, oc, k, stride, pad, rng)
    x = rng.normal(size=(n, c) + hw).astype(dtype)
    before = dict(vars(layer))
    out = layer.forward(x, training=False)
    want = ref.forward(x, training=False)
    assert out.dtype == want.dtype and out.flags.c_contiguous and np.array_equal(out, want)
    assert vars(layer).keys() == before.keys()
    assert all(vars(layer)[k] is v for k, v in before.items())


@pytest.mark.parametrize("spec", [bvae_spec(48, 48, 3, n_latent=16, beta=1e-4),
                                  of_encoder_spec(48, 64, 6, n_latent=12, beta=1e-4)],
                         ids=["bvae48", "flow"])
def test_training_bit_equal_to_whole_batch_kernel(spec, monkeypatch):
    """Two epochs with blocked columns train the very weights of the whole-
    batch kernel; a backward reading a differently built input would not."""
    rng = np.random.default_rng(35)
    data = rng.random((21,) + (spec.in_channels,) + spec.input_hw).astype(np.float32)
    opts = TrainOpts(epochs=2, batch_size=16, seed=6)
    blocked = train(spec, data, opts)
    monkeypatch.setattr(Conv2D, "forward", whole_batch_forward)
    whole = train(spec, data, opts)
    got, want = blocked.named_params(), whole.named_params()
    assert [name for name, _ in got] == [name for name, _ in want]
    for (name, a), (_, b) in zip(got, want):
        assert np.array_equal(a, b), name


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
    # the qint8 plan pools integer-valued float64 codes in NHWC layout
    from oodkit.network.quantize import _QMaxPool
    q = np.random.default_rng(32).integers(-128, 128, (2, 3, 9, 7))
    want = RefMaxPool2D(2).forward(q).transpose(0, 2, 3, 1)
    got = _QMaxPool(2).run(q.transpose(0, 2, 3, 1).astype(np.float64))
    assert got.dtype == np.float64 and np.array_equal(got, want)


# ----------------------------------------------------------------------------
# Reference integer plan: int64 codes in NCHW layout with int64 GEMMs, the
# formulation the float64 NHWC plan must reproduce bit for bit.

def ref_requantize(y, qp):
    y = y / qp.scale
    half_away = np.sign(y) * np.floor(np.abs(y) + 0.5)  # round half away from zero
    return np.clip(half_away + qp.zero_point, -128, 127).astype(np.int64)


class RefQConv:
    def __init__(self, wq, w_scale, bias, stride, padding, in_qp, out_qp):
        self.wq = wq.astype(np.int64)
        self.w_scale = float(w_scale)
        self.bias = bias.astype(np.float64)
        self.stride = stride
        self.padding = padding
        self.in_qp = in_qp
        self.out_qp = out_qp

    def run(self, q):
        s, p = self.stride, self.padding
        xi = q - self.in_qp.zero_point
        if p:
            xi = np.pad(xi, ((0, 0), (0, 0), (p, p), (p, p)))
        k = self.wq.shape[2]
        win = sliding_window_view(xi, (k, k), axis=(2, 3))[:, :, ::s, ::s]
        cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(
            win.shape[0], win.shape[2], win.shape[3], -1).astype(np.int64)
        acc = cols @ self.wq.reshape(self.wq.shape[0], -1).T
        out = acc * (self.in_qp.scale * self.w_scale) + self.bias
        return ref_requantize(np.ascontiguousarray(out.transpose(0, 3, 1, 2)), self.out_qp)


class RefQDense:
    def __init__(self, wq, w_scale, bias, in_qp, out_qp, emit_f32):
        self.wq = wq.astype(np.int64)
        self.w_scale = float(w_scale)
        self.bias = bias.astype(np.float64)
        self.in_qp = in_qp
        self.out_qp = out_qp
        self.emit_f32 = emit_f32

    def run(self, q):
        acc = (q - self.in_qp.zero_point).astype(np.int64) @ self.wq
        out = acc * (self.in_qp.scale * self.w_scale) + self.bias
        return out.astype(np.float32) if self.emit_f32 else ref_requantize(out, self.out_qp)


class RefQPool:
    def __init__(self, kernel):
        self.pool = RefMaxPool2D(kernel)

    def run(self, q):
        return self.pool.forward(q)


class RefQFlatten:
    def run(self, q):
        return q.reshape(q.shape[0], -1)


class RefQRelu:
    def __init__(self, zero_point):
        self.zero_point = zero_point

    def run(self, q):
        if q.dtype == np.float32:  # real values after the head dense
            return np.maximum(q, 0.0)
        return np.maximum(q, self.zero_point)


class RefQuantizedEncoder:
    """The int64 plan of a qint8 model, built from its tensors and sites:
    one op per layer, ReLU and flatten included."""

    def __init__(self, qmodel):
        spec, weights = qmodel.spec, qmodel.quantized.weights
        self.qps = {k: QuantParams(s, z) for k, (s, z) in qmodel.quantized.sites.items()}
        last_dense = max(i for i, ls in enumerate(spec.layers) if ls.kind == "dense")
        self.ops = []
        site = "input"
        for i, ls in enumerate(spec.layers):
            if ls.kind in ("conv2d", "dense"):
                wt, bias = weights[f"enc.{i}.w"], weights[f"enc.{i}.b"].data
                io = (self.qps[site], self.qps[f"out.{i}"])
                self.ops.append(
                    RefQConv(wt.data, wt.quant.scale, bias, ls.stride, ls.padding, *io)
                    if ls.kind == "conv2d" else
                    RefQDense(wt.data, wt.quant.scale, bias, *io, i == last_dense))
                site = f"out.{i}"
            elif ls.kind == "relu":
                self.ops.append(RefQRelu(self.qps[site].zero_point))
            elif ls.kind == "maxpool2d":
                self.ops.append(RefQPool(ls.kernel))
            else:
                self.ops.append(RefQFlatten())

    def forward(self, xs):
        q = ref_requantize(xs.astype(np.float64), self.qps["input"])
        for op in self.ops:
            q = op.run(q)
        return q.astype(np.float32)


def folded_flow_model(spec, seed):
    """A random flow encoder whose batchnorms carry non-trivial statistics."""
    model = random_model(spec, seed)
    rng = np.random.default_rng(seed + 1)
    for layer in model.encoder:
        if isinstance(layer, BatchNorm2D):
            c = layer.params["gamma"].shape[0]
            layer.params["gamma"] = rng.uniform(0.5, 1.5, c).astype(np.float32)
            layer.params["beta"] = rng.normal(0, 0.1, c).astype(np.float32)
            layer.running_mean = rng.normal(0, 0.1, c).astype(np.float32)
            layer.running_var = rng.uniform(0.5, 2.0, c).astype(np.float32)
    return model


def test_quantized_plan_rounds_ties_like_int64_reference():
    # power-of-two scales put many requantized values exactly on a half
    from oodkit.network.quantize import rebuild_quantized
    spec = bvae_spec(12, 12, 1, n_latent=8)
    rng = np.random.default_rng(42)
    q = quantize_model(random_model(spec, 43), rng.uniform(0, 1, (16, 1, 12, 12)).astype(np.float32))
    weights = {name: Tensor.qint8(t.data, QuantParams(2.0**-6, 0)) if t.quant
               else Tensor.f32(np.round(t.data * 64) / 64) for name, t in q.quantized.weights.items()}
    sites = {name: (2.0**-3, zp) for name, (_, zp) in q.quantized.sites.items()}
    tied = rebuild_quantized(spec, weights, sites, {})
    xs = (rng.integers(0, 32, (40, 1, 12, 12)) / 32).astype(np.float32)
    want = RefQuantizedEncoder(tied).forward(xs)
    assert np.array_equal(tied.quantized.forward(xs), want)


@pytest.mark.parametrize("spec", [
    bvae_spec(48, 48, 3, n_latent=16),   # default bvae
    bvae_spec(12, 12, 1, n_latent=8),    # 12 px gray
    bvae_spec(56, 56, 3, n_latent=8),    # 56 px GA winner geometry
    of_encoder_spec(48, 64, 6),          # BN-folded flow encoder, K up to 400
], ids=["bvae48", "bvae12gray", "bvae56", "flow"])
def test_quantized_plan_bit_equal_to_int64_reference(spec):
    model = folded_flow_model(spec, seed=40)
    shape = (spec.in_channels,) + tuple(spec.input_hw)
    rng = np.random.default_rng(41)
    q = quantize_model(model, rng.uniform(0, 1, (16,) + shape).astype(np.float32))
    xs = rng.uniform(0, 1, (120,) + shape).astype(np.float32)
    for m in (q, load_model(save_model(q))):
        ref = DetectorModel(m.spec, "qint8", [], quantized=RefQuantizedEncoder(m))
        for batch in (xs[:1], xs[57:58], xs[:57], xs):  # 57: a partial last block
            mu, var = m.encode_batch(batch)
            mu_ref, var_ref = ref.encode_batch(batch)
            assert np.array_equal(mu, mu_ref) and np.array_equal(var, var_ref)


_CONV, _POOL, _FLAT = ConvSpec(4, 3, 1, 1), MaxPoolSpec(2), FlattenSpec()


@pytest.mark.parametrize("layers", [
    (ReluSpec(), _CONV, ReluSpec(), _POOL, _FLAT, DenseSpec(8), ReluSpec(), DenseSpec(4)),
    (_CONV, _POOL, ReluSpec(), _FLAT, DenseSpec(8), DenseSpec(4), ReluSpec()),
    (_CONV, _POOL, _FLAT, ReluSpec(), DenseSpec(4)),
    (_CONV, ReluSpec(), ReluSpec(), _POOL, _FLAT, DenseSpec(8), ReluSpec(), ReluSpec(),
     DenseSpec(4), ReluSpec(), ReluSpec()),
], ids=["relu_first", "relu_after_pool", "relu_after_flatten", "relu_twice"])
def test_quantized_relu_fold_bit_equal_to_int64_reference(layers):
    # inputs and pre-ReLU sites span zero, so every ReLU's clip floor cuts codes
    spec = ModelSpec((8, 8), 2, layers, n_latent=2, beta=1.0)
    rng = np.random.default_rng(44)
    q = quantize_model(random_model(spec, 45), rng.uniform(-1, 1, (16, 2, 8, 8)).astype(np.float32))
    plan = q.quantized
    assert [type(op).__name__ for op in plan.ops] == [
        {"conv2d": "_QConv", "maxpool2d": "_QMaxPool", "dense": "_QDense"}[ls.kind]
        for ls in layers if ls.kind not in ("relu", "flatten")]
    xs = rng.uniform(-1, 1, (40, 2, 8, 8)).astype(np.float32)
    want = RefQuantizedEncoder(q).forward(xs)
    assert np.array_equal(plan.forward(xs), want)
    assert np.array_equal(load_model(save_model(q)).quantized.forward(xs), want)


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


def test_train_leaves_no_training_state_on_layers():
    for spec in (bvae_spec(24, 24, 3, n_latent=4), of_encoder_spec(48, 64, 3)):
        rng = np.random.default_rng(16)
        images = rng.uniform(0, 1, (6, spec.in_channels) + tuple(spec.input_hw))
        model = train(spec, images.astype(np.float32), TrainOpts(epochs=1, batch_size=4))
        fresh = build_encoder(spec) + build_decoder(spec)
        for layer, ref in zip(model.encoder + model.decoder, fresh):
            assert vars(layer).keys() == vars(ref).keys(), type(layer).__name__
            assert layer.grads == {}
