from .mig import mig_from_latents, mig_score
from .model import (
    BatchNormSpec,
    ConvSpec,
    DenseSpec,
    DetectorModel,
    FlattenSpec,
    LatentOutput,
    LOG_VAR,
    MaxPoolSpec,
    ModelSpec,
    NEG_LOG_VAR,
    ReluSpec,
    VAR,
    bvae_spec,
    kl_standard_normal,
    of_encoder_spec,
)
from .quantize import cast_model_f16, fold_batchnorm, quantize_model
from .serial import (
    OodmChecksumError,
    OodmError,
    OodmMagicError,
    OodmVersionError,
    load_model,
    model_checksum,
    save_model,
)
from .train import TrainOpts, loss_and_grads, train

__all__ = [
    "BatchNormSpec", "ConvSpec", "DenseSpec", "DetectorModel", "FlattenSpec",
    "LatentOutput", "LOG_VAR", "MaxPoolSpec", "ModelSpec", "NEG_LOG_VAR",
    "ReluSpec", "VAR", "bvae_spec", "kl_standard_normal",
    "of_encoder_spec", "cast_model_f16", "fold_batchnorm", "quantize_model",
    "OodmChecksumError", "OodmError", "OodmMagicError",
    "OodmVersionError", "load_model", "model_checksum", "save_model",
    "TrainOpts", "loss_and_grads", "train", "mig_from_latents", "mig_score",
]
