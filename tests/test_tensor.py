import struct

import numpy as np
import pytest

from oodkit.tensor import (
    QuantParams,
    Tensor,
    calibrate_quant_params,
    dequantize,
    f32_to_f16,
    quantize_affine,
    round_half_away,
)


def f16_bits_reference(x):
    """Bit-level f32 -> binary16 converter (round to nearest even), independent
    of the production path. Used as the oracle."""
    fbits = struct.unpack("<I", struct.pack("<f", float(np.float32(x))))[0]
    sign = ((fbits >> 31) & 1) << 15
    exp = (fbits >> 23) & 0xFF
    frac = fbits & 0x7FFFFF
    if exp == 0xFF:
        return sign | 0x7C00 | (0x200 if frac else 0)
    if exp == 0:
        # f32 subnormals are far below the binary16 subnormal range
        return sign
    e = exp - 127
    if e >= 16:
        return sign | 0x7C00
    sig = frac | 0x800000
    if e >= -14:
        shift = 13
        he = e + 15
    else:
        shift = 13 + (-14 - e)
        he = 0
    mant = sig >> shift
    rem = sig & ((1 << shift) - 1)
    half = 1 << (shift - 1)
    if rem > half or (rem == half and (mant & 1)):
        mant += 1
    if he > 0:
        return sign | ((he << 10) + (mant - 0x400))
    return sign | mant


def test_quantize_examples():
    qp = QuantParams(scale=0.1, zero_point=0)
    assert quantize_affine(np.float32([1.0]), qp).data[0] == 10
    assert quantize_affine(np.float32([100.0]), qp).data[0] == 127
    qp2 = QuantParams(scale=0.01, zero_point=-128)
    assert quantize_affine(np.float32([0.0]), qp2).data[0] == -128


def test_quantize_rounds_ties_away_from_zero():
    qp = QuantParams(scale=1.0, zero_point=0)
    assert quantize_affine(np.float32([0.5]), qp).data[0] == 1
    assert quantize_affine(np.float32([-0.5]), qp).data[0] == -1
    assert quantize_affine(np.float32([2.5]), qp).data[0] == 3


def test_round_half_away_equals_sign_floor_form():
    k = np.arange(0.0, 2.0**52, 2.0**52 / 997).round()
    ties = np.concatenate([k + 0.5, -(k + 0.5), [0.5, 1.5, -0.5, -1.5, 2.0**52 - 0.5]])
    near = np.concatenate([np.nextafter(ties, 0), np.nextafter(ties, np.inf)])
    x = np.concatenate([ties, near, [0.0, -0.0]])
    want = np.sign(x) * np.floor(np.abs(x) + 0.5)
    assert np.array_equal(round_half_away(x), want)
    assert np.array_equal(round_half_away(ties), ties + np.copysign(0.5, ties))
    out = x.copy()
    assert round_half_away(out, out=out) is out and np.array_equal(out, want)
    assert round_half_away(-2.5) == -3.0 and round_half_away(np.float32(2.5)) == 3.0


def test_quantize_rejects_non_finite():
    qp = QuantParams(scale=0.1, zero_point=0)
    with pytest.raises(ValueError, match=r"index \(1,\)"):
        quantize_affine(np.float32([0.0, np.nan, 1.0]), qp)


def test_dequantize_examples():
    t = Tensor.qint8([10], QuantParams(0.1, 0))
    assert dequantize(t).data[0] == pytest.approx(1.0)
    t2 = Tensor.qint8([-128], QuantParams(0.01, -128))
    assert dequantize(t2).data[0] == 0.0
    with pytest.raises(ValueError):
        dequantize(Tensor.f32([1.0]))


def test_roundtrip_bound_random():
    rng = np.random.default_rng(7)
    qp = calibrate_quant_params([np.float32([-3.0, 5.0])], "asymmetric")
    x = rng.uniform(-3.0, 5.0, size=5000).astype(np.float32)
    x_hat = dequantize(quantize_affine(x, qp)).data
    assert np.all(np.abs(x - x_hat) <= qp.scale / 2 + 1e-7)


def test_quantize_monotone():
    rng = np.random.default_rng(3)
    for _ in range(20):
        scale = float(rng.uniform(0.001, 2.0))
        zp = int(rng.integers(-128, 128))
        xs = np.sort(rng.uniform(-50, 50, size=200)).astype(np.float32)
        q = quantize_affine(xs, QuantParams(scale, zp)).data
        assert np.all(np.diff(q.astype(np.int32)) >= 0)


def test_calibrate_asymmetric():
    qp = calibrate_quant_params([np.float32([0.0, 1.0, 2.55])], "asymmetric")
    assert qp.scale == pytest.approx(0.01)
    assert qp.zero_point == -128
    # observed extremes map within [-128, 127] with error <= scale/2
    for v in (0.0, 2.55):
        q = quantize_affine(np.float32([v]), qp).data[0]
        assert -128 <= q <= 127
        assert abs(v - (int(q) - qp.zero_point) * qp.scale) <= qp.scale / 2 + 1e-9


def test_calibrate_symmetric_and_degenerate():
    qp = calibrate_quant_params([np.float32([-1.27, 0.4, 1.27])], "symmetric")
    assert qp.scale == pytest.approx(0.01)
    assert qp.zero_point == 0
    qp0 = calibrate_quant_params([np.float32([0.0, 0.0])], "asymmetric")
    assert qp0.scale == pytest.approx(1 / 127)
    assert qp0.zero_point == 0
    with pytest.raises(ValueError):
        calibrate_quant_params([])


def test_calibrate_zero_in_range_is_exact():
    qp = calibrate_quant_params([np.float32([-0.7, 1.9])], "asymmetric")
    q = quantize_affine(np.float32([0.0]), qp)
    assert dequantize(q).data[0] == 0.0


def test_f16_known_encodings():
    assert f32_to_f16(1.0) == 0x3C00
    assert f32_to_f16(0.1) == 0x2E66
    assert float(np.uint16(0x2E66).view(np.float16)) == pytest.approx(0.0999756, abs=1e-7)
    assert f32_to_f16(70000.0) == 0x7C00
    assert f32_to_f16(-70000.0) == 0xFC00
    assert f32_to_f16(5.96046448e-8) == 0x0001  # smallest binary16 subnormal


def test_f16_matches_reference_oracle():
    rng = np.random.default_rng(11)
    vals = np.concatenate([
        rng.uniform(-70000, 70000, 3000),
        rng.uniform(-1e-4, 1e-4, 3000),
        rng.normal(0, 1, 3000),
        np.float64([0.0, -0.0, 65504.0, 65520.0, 6.1e-5, -6.1e-5]),
    ]).astype(np.float32)
    for v in vals:
        assert f32_to_f16(v) == f16_bits_reference(v), f"mismatch at {v!r}"


def test_f16_roundtrip_idempotent():
    def decode(bits):
        return np.float32(np.uint16(bits).view(np.float16))

    rng = np.random.default_rng(13)
    for v in rng.normal(0, 100, 500).astype(np.float32):
        once = decode(f32_to_f16(v))
        twice = decode(f32_to_f16(once))
        assert once == twice


def test_tensor_invariants():
    with pytest.raises(ValueError):
        Tensor(np.zeros(3, np.int8), "qint8")  # missing QuantParams
    with pytest.raises(ValueError):
        Tensor(np.zeros(3), "f32", QuantParams(0.1, 0))
    t = Tensor.f32(np.arange(6).reshape(2, 3))
    assert t.shape == (2, 3) and t.size == 6
    with pytest.raises(Exception):
        t.data[0, 0] = 5.0


def test_tensor_byte_roundtrip():
    rng = np.random.default_rng(5)
    t = Tensor.f16(rng.normal(size=(3, 4)).astype(np.float16))
    back = Tensor.from_bytes(t.to_bytes(), "f16", t.shape)
    assert np.array_equal(t.data.view(np.uint16), back.data.view(np.uint16))
    q = Tensor.qint8(rng.integers(-128, 128, size=10, dtype=np.int8), QuantParams(0.5, 3))
    back_q = Tensor.from_bytes(q.to_bytes(), "qint8", q.shape, q.quant)
    assert np.array_equal(q.data, back_q.data)
