"""Detection math downstream of the encoder: KL nonconformity, conformal
p-values, sliding-window mixture martingale, decaying CUSUM, AUROC, and the
search fitness."""

from __future__ import annotations

import io
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .network.model import LatentOutput, kl_standard_normal
from .network.serial import model_checksum


@dataclass(frozen=True)
class PostprocessConfig:
    window: int = 20
    decay: float = 0.1

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("martingale window must be >= 1")
        if self.decay < 0:
            raise ValueError("decay must be >= 0")


@dataclass
class DetectorState:
    """Streaming state of one detector instance: recent p-values and the
    running CUSUM statistic."""

    window: int
    p_window: deque = field(default_factory=deque)
    cusum_s: float = 0.0

    def push_p(self, p: float):
        if not 0.0 < p <= 1.0:
            raise ValueError(f"p-value out of (0, 1]: {p}")
        self.p_window.append(p)
        while len(self.p_window) > self.window:
            self.p_window.popleft()


class CalibrationMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class CalibrationSet:
    """Sorted nonconformity scores of the calibration images, tagged with the
    precision and the checksum of the model that scored them."""

    scores: np.ndarray
    precision_tag: str
    model_checksum: str

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        if scores.size == 0:
            raise ValueError("calibration set is empty")
        if not np.isfinite(scores).all():
            raise ValueError("calibration scores must be finite")
        if np.any(np.diff(scores) < 0):
            raise ValueError("calibration scores must be sorted ascending")
        scores.flags.writeable = False
        object.__setattr__(self, "scores", scores)

    def __len__(self):
        return int(self.scores.size)

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(f"# precision={self.precision_tag} model_checksum={self.model_checksum}\n")
        buf.write("score\n")
        for s in self.scores:
            buf.write(f"{float(s)!r}\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "CalibrationSet":
        """Parse to_csv's format; a malformed file raises ValueError saying
        what is wrong."""
        lines = text.strip().splitlines()
        if not lines or not lines[0].startswith("#"):
            raise ValueError("missing calibration header")
        tokens = lines[0][1:].split()
        if not all("=" in t for t in tokens):
            raise ValueError(f"calibration header {lines[0]!r} is not key=value tokens")
        fields = dict(t.split("=", 1) for t in tokens)
        missing = sorted({"precision", "model_checksum"} - fields.keys())
        if missing:
            raise ValueError(f"calibration header lacks {', '.join(missing)}")
        if lines[1:2] != ["score"]:
            raise ValueError("calibration column row must be 'score'")
        scores = [float(x) for x in lines[2:]]
        return cls(np.asarray(scores), fields["precision"], fields["model_checksum"])


def kl_nonconformity(latent: LatentOutput) -> float:
    """Divergence of the encoded posterior from the standard normal; zero iff
    mu=0, var=1."""
    mu = np.asarray(latent.mu, dtype=np.float64)
    var = np.asarray(latent.var, dtype=np.float64)
    if np.any(var <= 0):
        raise ValueError("latent variance must be positive")
    return float(kl_standard_normal(mu, var))


def icp_pvalue(score: float, calib: CalibrationSet) -> float:
    """Smoothed conformal p-value: (#{c >= score} + 1) / (N + 1)."""
    n = len(calib)
    idx = np.searchsorted(calib.scores, score, side="left")
    return float((n - idx + 1) / (n + 1))


EPSILON_GRID = 101  # odd, for Simpson's rule


def mixture_martingale(p_window) -> float:
    """Integral over epsilon in (0,1) of prod_i epsilon * p_i^(epsilon-1),
    by Simpson's rule on an odd uniform grid, evaluated in the log domain."""
    ps = np.asarray(list(p_window), dtype=np.float64)
    if ps.size == 0:
        raise ValueError("empty p-value window")
    if np.any(ps <= 0) or np.any(ps > 1):
        raise ValueError("p-values must lie in (0, 1]")
    n = ps.size
    s = float(np.log(ps).sum())
    eps = np.linspace(0.0, 1.0, EPSILON_GRID)
    with np.errstate(divide="ignore"):
        logf = n * np.log(eps) + (eps - 1.0) * s
    logf[0] = -np.inf  # integrand -> 0 as epsilon -> 0 for n >= 1
    w = np.ones(EPSILON_GRID)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (eps[1] - eps[0]) / 3.0
    peak = np.max(logf)
    vals = np.exp(logf - peak)
    return float(np.exp(peak) * np.dot(w, vals))


def cusum_update(s: float, m: float, decay: float) -> float:
    """S' = max(0, S + ln M - decay)."""
    if s < 0 or m <= 0 or decay < 0:
        raise ValueError("cusum_update requires S >= 0, M > 0, decay >= 0")
    return max(0.0, s + float(np.log(m)) - decay)


def score_frame(state: DetectorState, latent: LatentOutput, calib: CalibrationSet,
                cfg: PostprocessConfig):
    """Advance the stream state by one frame; the frame score is the running
    CUSUM statistic after the update."""
    state.push_p(icp_pvalue(kl_nonconformity(latent), calib))
    m = mixture_martingale(state.p_window)
    state.cusum_s = cusum_update(state.cusum_s, m, cfg.decay)
    return state, state.cusum_s


def auroc(id_scores, ood_scores) -> float:
    """Probability that an OOD score outranks an ID score, ties counted half."""
    a = np.asarray(list(id_scores), dtype=np.float64)
    b = np.asarray(list(ood_scores), dtype=np.float64)
    if a.size == 0 or b.size == 0:
        raise ValueError("auroc requires nonempty score sets on both sides")
    both = np.concatenate([a, b])
    if np.isnan(both).any():
        raise ValueError("auroc scores must not be NaN")
    # each value's rank, averaged over its tie group: a group of c values
    # ending at 1-based rank r holds ranks r-c+1 .. r, mean r - (c-1)/2
    _, group, counts = np.unique(both, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    rank_sum_ood = ranks[a.size:].sum()
    u = rank_sum_ood - b.size * (b.size + 1) / 2.0
    return float(u / (a.size * b.size))


def harmonic_fitness(aurocs) -> float:
    """Harmonic mean across per-factor AUROCs; 0 if any factor scores 0."""
    vals = np.asarray(list(aurocs), dtype=np.float64)
    if vals.size == 0:
        raise ValueError("harmonic_fitness requires at least one AUROC")
    if np.any(vals < 0) or np.any(vals > 1):
        raise ValueError("AUROC values must lie in [0, 1]")
    if np.any(vals == 0):
        return 0.0
    return float(vals.size / np.sum(1.0 / vals))


def build_calibration(model, calib_images, cfg: PostprocessConfig) -> CalibrationSet:
    """Sorted nonconformity scores of every calibration image under the model,
    tagged with the model's precision and checksum. The score has no
    settings, so cfg is not read."""
    xs = np.stack([np.asarray(im, dtype=np.float32) for im in calib_images])
    mu, var = model.encode_batch(xs)
    scores = np.sort(kl_standard_normal(mu, var, axis=1))
    return CalibrationSet(scores, model.precision, model_checksum(model))


def check_calibration(model, calib: CalibrationSet):
    """Refuse a calibration that was not built on this model's scores."""
    checksum = model_checksum(model)
    if calib.model_checksum != checksum:
        raise CalibrationMismatchError(
            f"calibration was built for model checksum {calib.model_checksum!r}, "
            f"the {model.precision} model has {checksum!r}; rerun calibrate")
