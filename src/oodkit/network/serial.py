"""Model file format "OODM": magic, version, JSON header with layer specs and
a tensor directory, little-endian row-major payload, trailing CRC32."""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import asdict

import numpy as np

from ..tensor import F16, F32, QINT8, QuantParams, Tensor
from .model import (
    BatchNormSpec,
    ConvSpec,
    DenseSpec,
    DetectorModel,
    FlattenSpec,
    MaxPoolSpec,
    ModelSpec,
    ReluSpec,
    build_decoder,
    build_encoder,
    named_arrays,
)
from .quantize import rebuild_quantized

MAGIC = b"OODM"
VERSION = 1


class OodmError(ValueError):
    pass


class OodmMagicError(OodmError):
    pass


class OodmVersionError(OodmError):
    pass


class OodmChecksumError(OodmError):
    pass


# encoder layer records are their spec dataclasses' fields
_SPEC_KINDS = {cls.kind: cls for cls in (ConvSpec, MaxPoolSpec, DenseSpec, ReluSpec,
                                          BatchNormSpec, FlattenSpec)}


def _spec_from_json(d) -> ModelSpec:
    layers = []
    for i, ld in enumerate(d["layers"]):
        fields = dict(ld)
        kind = fields.pop("kind", None)
        if kind not in _SPEC_KINDS:
            raise OodmError(f"layer {i}: unknown layer kind {kind!r} in model header")
        try:
            layers.append(_SPEC_KINDS[kind](**fields))
        except TypeError as exc:  # a missing or an unknown field
            raise OodmError(f"layer {i}: bad {kind} record: {exc}") from exc
    try:
        return ModelSpec(tuple(d["input_hw"]), d["in_channels"], tuple(layers),
                         d["n_latent"], d["beta"], d["variance_parametrization"])
    except ValueError as exc:  # an inconsistent shape chain or a bad field value
        raise OodmError(f"bad model spec: {exc}") from exc


def _stored_arrays(model: DetectorModel):
    """The tensor directory and the payload of every stored array."""
    if model.precision == QINT8:
        tensors = sorted(model.quantized.weights.items())
    else:
        tensors = [(name, Tensor(arr, model.precision)) for name, arr in model.named_params()]
    directory = []
    payload = bytearray()
    for name, t in tensors:
        entry = {"name": name, "dtype": t.dtype, "shape": list(t.shape),
                 "offset": len(payload)}
        if t.quant is not None:
            entry["scale"] = t.quant.scale
            entry["zero_point"] = t.quant.zero_point
        directory.append(entry)
        payload.extend(t.to_bytes())
    return directory, bytes(payload)


def save_model(model: DetectorModel) -> bytes:
    directory, payload = _stored_arrays(model)
    header = {
        "spec": asdict(model.spec),
        "precision": model.precision,
        "has_decoder": model.decoder is not None,
        "tensors": directory,
        "activation_quant": model.quantized.sites if model.precision == QINT8 else None,
        "metadata": model.metadata,
    }
    hbytes = json.dumps(header, sort_keys=True).encode("utf-8")
    out = bytearray()
    out += MAGIC
    out += struct.pack("<II", VERSION, len(hbytes))
    out += hbytes
    out += payload
    out += struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
    return bytes(out)


def model_checksum(model: DetectorModel) -> str:
    """CRC32 of every stored value that sets the model's scores: the tensor
    payload, then for a qint8 model each tensor's scale and zero point and
    the activation sites, as the header holds them."""
    directory, payload = _stored_arrays(model)
    crc = zlib.crc32(payload)
    if model.precision == QINT8:
        quant = {"tensors": directory, "activation_quant": model.quantized.sites}
        crc = zlib.crc32(json.dumps(quant, sort_keys=True).encode("utf-8"), crc)
    return f"{crc & 0xFFFFFFFF:08x}"


def _quant_params(what, pair) -> QuantParams:
    try:
        scale, zero_point = pair
        if not isinstance(zero_point, int):
            raise TypeError(f"zero_point must be an integer, got {zero_point!r}")
        return QuantParams(scale, zero_point)
    except (TypeError, ValueError) as exc:
        raise OodmError(f"{what}: {exc}") from exc


def _stored(tensors: dict, name: str, shape) -> Tensor:
    if name not in tensors:
        raise OodmError(f"model file missing tensor {name!r}")
    t = tensors[name]
    if tuple(t.shape) != tuple(shape):
        raise OodmError(f"tensor {name!r} has shape {t.shape}, expected {tuple(shape)}")
    return t


def _check_qint8(spec: ModelSpec, tensors: dict, sites: dict):
    """Refuse a qint8 file the integer plan cannot run on: each conv/dense
    needs a qint8 weight and an f32 bias shaped as its spec layer's, and
    every activation site the plan reads must be a valid affine mapping."""
    encoder = build_encoder(spec)
    for name, layer, key in named_arrays(encoder, None, stored=False):
        t = _stored(tensors, name, layer.params[key].shape)
        want = QINT8 if key == "w" else F32
        if t.dtype != want:
            raise OodmError(f"tensor {name!r} is {t.dtype}, expected {want}")
    needed = ["input"] + [f"out.{i}" for i, layer in enumerate(encoder) if layer.params]
    for name in needed:
        if name not in sites:
            raise OodmError(f"model file missing activation site {name!r}")
        _quant_params(f"activation site {name!r}", sites[name])


def load_model(data: bytes) -> DetectorModel:
    if data[:4] != MAGIC:
        raise OodmMagicError(f"bad magic {data[:4]!r}")
    if len(data) < 12:
        raise OodmError("truncated header")
    version, hlen = struct.unpack("<II", data[4:12])
    if version != VERSION:
        raise OodmVersionError(f"unsupported version {version}")
    if len(data) < 12 + hlen + 4:
        raise OodmError("truncated file")
    header = json.loads(data[12:12 + hlen].decode("utf-8"))
    payload = data[12 + hlen:-4]
    (crc,) = struct.unpack("<I", data[-4:])
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise OodmChecksumError("payload checksum mismatch")

    spec = _spec_from_json(header["spec"])
    tensors = {}
    for entry in header["tensors"]:
        n = int(np.prod(entry["shape"])) if entry["shape"] else 1
        size = n * {F32: 4, F16: 2, QINT8: 1}[entry["dtype"]]
        raw = payload[entry["offset"]:entry["offset"] + size]
        if len(raw) < size:
            raise OodmError(f"tensor {entry['name']!r} payload truncated")
        quant = None
        if "scale" in entry:
            quant = _quant_params(f"tensor {entry['name']!r}",
                                  (entry["scale"], entry["zero_point"]))
        tensors[entry["name"]] = Tensor.from_bytes(raw, entry["dtype"], entry["shape"], quant)

    precision = header["precision"]
    metadata = header.get("metadata", {})
    if precision == QINT8:
        sites = {k: tuple(v) for k, v in (header.get("activation_quant") or {}).items()}
        _check_qint8(spec, tensors, sites)
        return rebuild_quantized(spec, tensors, sites, metadata)

    decoder = build_decoder(spec) if header.get("has_decoder") else None
    model = DetectorModel(spec, precision, build_encoder(spec), decoder, metadata=metadata)
    # f16 is a storage precision: in memory every float model is float32
    model.set_params({name: _stored(tensors, name, arr.shape).data.astype(np.float32)
                      for name, arr in model.named_params()})
    return model
