"""Dense n-d arrays with three precisions and affine static quantization."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

F32 = "f32"
F16 = "f16"
QINT8 = "qint8"

QMIN, QMAX = -128, 127

_NP_DTYPES = {F32: np.float32, F16: np.float16, QINT8: np.int8}


@dataclass(frozen=True)
class QuantParams:
    """Affine mapping between int8 codes and real values: x = (q - zero_point) * scale."""

    scale: float
    zero_point: int

    def __post_init__(self):
        if not (self.scale > 0 and np.isfinite(self.scale)):
            raise ValueError(f"quantization scale must be finite and > 0, got {self.scale}")
        if not QMIN <= self.zero_point <= QMAX:
            raise ValueError(f"zero_point must lie in [{QMIN}, {QMAX}], got {self.zero_point}")


class Tensor:
    """Immutable n-d array tagged with one of the precisions f32/f16/qint8.

    qint8 tensors always carry QuantParams; the other precisions never do.
    """

    __slots__ = ("data", "dtype", "quant")

    def __init__(self, data: np.ndarray, dtype: str, quant: QuantParams | None = None):
        if dtype not in _NP_DTYPES:
            raise ValueError(f"unknown precision {dtype!r}")
        if (dtype == QINT8) != (quant is not None):
            raise ValueError("QuantParams must be present iff dtype is qint8")
        arr = np.ascontiguousarray(data, dtype=_NP_DTYPES[dtype])
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "dtype", dtype)
        object.__setattr__(self, "quant", quant)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    @classmethod
    def f32(cls, data) -> "Tensor":
        return cls(np.asarray(data, dtype=np.float32), F32)

    @classmethod
    def f16(cls, data) -> "Tensor":
        return cls(np.asarray(data, dtype=np.float16), F16)

    @classmethod
    def qint8(cls, data, quant: QuantParams) -> "Tensor":
        return cls(np.asarray(data, dtype=np.int8), QINT8, quant)

    def to_bytes(self) -> bytes:
        """Little-endian, row-major element payload."""
        return self.data.astype(self.data.dtype.newbyteorder("<"), copy=False).tobytes(order="C")

    @classmethod
    def from_bytes(cls, raw: bytes, dtype: str, shape: Sequence[int],
                   quant: QuantParams | None = None) -> "Tensor":
        np_dtype = np.dtype(_NP_DTYPES[dtype]).newbyteorder("<")
        n = int(np.prod(shape)) if len(shape) else 1
        arr = np.frombuffer(raw, dtype=np_dtype, count=n).reshape(shape)
        return cls(arr.astype(_NP_DTYPES[dtype]), dtype, quant)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype})"


def round_half_away(x: np.ndarray, out=None) -> np.ndarray:
    """Round to nearest integer, ties away from zero (np.round ties to even),
    as trunc(x + copysign(0.5, x)). Its values equal sign(x) * floor(|x| + 0.5),
    since IEEE addition rounds x - 0.5 to exactly -(|x| + 0.5); only -0.0 keeps
    its sign."""
    return np.trunc(np.add(x, np.copysign(0.5, x), out=out), out=out)


def check_finite(arr: np.ndarray, context: str = ""):
    """Refuse an array with a NaN or inf, naming the first one's index."""
    bad = ~np.isfinite(arr)
    if bad.any():
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        raise ValueError(f"{context}non-finite input element at index {idx}")


def requantize(y: np.ndarray, qp: QuantParams, floor: int = QMIN) -> np.ndarray:
    """In place: the int8 code clip(round_half_away(y / scale) + zero_point,
    floor, QMAX) of each real value in the float64 buffer y, kept as float64.
    A floor at the zero point applies a ReLU: on codes it is max(q, zp)."""
    np.divide(y, qp.scale, out=y)
    round_half_away(y, out=y)
    y += qp.zero_point
    return np.clip(y, floor, QMAX, out=y)


def quantize_affine(x, qp: QuantParams) -> Tensor:
    """Quantize f32 values to int8: q = clamp(round(x/scale) + zero_point, -128, 127)."""
    arr = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float32)
    check_finite(arr)
    return Tensor.qint8(requantize(arr.astype(np.float64), qp), qp)


def dequantize(q: Tensor) -> Tensor:
    """Recover f32 values: x = (q - zero_point) * scale."""
    if q.dtype != QINT8 or q.quant is None:
        raise ValueError("dequantize requires a qint8 tensor with QuantParams")
    x = (q.data.astype(np.float32) - q.quant.zero_point) * np.float32(q.quant.scale)
    return Tensor.f32(x)


def calibrate_quant_params(samples: Iterable, mode: str = "asymmetric") -> QuantParams:
    """Derive QuantParams from the observed range of one or more f32 tensors.

    asymmetric: scale = (max-min)/255, zero_point = -128 - round(min/scale).
    symmetric:  scale = max(|min|,|max|)/127, zero_point = 0.
    All-equal input degenerates to scale = max(|v|,1)/127, zero_point = 0.
    """
    if mode not in ("asymmetric", "symmetric"):
        raise ValueError(f"unknown calibration mode {mode!r}")
    lo = np.inf
    hi = -np.inf
    seen = False
    for s in samples:
        arr = s.data if isinstance(s, Tensor) else np.asarray(s, dtype=np.float64)
        finite = arr[np.isfinite(arr)]
        if finite.size:
            seen = True
            lo = min(lo, float(finite.min()))
            hi = max(hi, float(finite.max()))
    if not seen:
        raise ValueError("calibration requires at least one finite element")
    if hi == lo:
        return QuantParams(scale=max(abs(hi), 1.0) / 127.0, zero_point=0)
    if mode == "symmetric":
        return QuantParams(scale=max(abs(lo), abs(hi)) / 127.0, zero_point=0)
    scale = (hi - lo) / 255.0
    zp = int(-128 - round_half_away(lo / scale))
    zp = int(np.clip(zp, QMIN, QMAX))
    return QuantParams(scale=scale, zero_point=zp)


def f32_to_f16(x: float) -> int:
    """IEEE-754 binary16 bit pattern of an f32 value (round to nearest even)."""
    with np.errstate(over="ignore"):  # overflow to inf is the defined behavior
        return int(np.float32(x).astype(np.float16).view(np.uint16))

