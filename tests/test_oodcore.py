import numpy as np
import pytest

from oodkit.network import model_checksum
from oodkit.network.model import LatentOutput
from oodkit.oodcore import (
    CalibrationMismatchError,
    CalibrationSet,
    DetectorState,
    PostprocessConfig,
    auroc,
    build_calibration,
    check_calibration,
    cusum_update,
    harmonic_fitness,
    icp_pvalue,
    kl_nonconformity,
    mixture_martingale,
    score_frame,
)


def lat(mu, var):
    return LatentOutput(np.asarray(mu, float), np.asarray(var, float))


def test_kl_nonconformity_examples():
    assert kl_nonconformity(lat([0, 0, 0], [1, 1, 1])) == pytest.approx(0.0, abs=1e-12)
    assert kl_nonconformity(lat([1.0], [1.0])) == pytest.approx(0.5, abs=1e-9)
    expected = 0.5 * (0.25 - np.log(0.25) - 1)
    assert kl_nonconformity(lat([0.0], [0.25])) == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(0.3181, abs=1e-4)
    with pytest.raises(ValueError):
        kl_nonconformity(lat([0.0], [0.0]))


CALIB = CalibrationSet(np.arange(1.0, 10.0), "f32", "00000000")


def test_icp_pvalue_examples():
    assert icp_pvalue(10.0, CALIB) == pytest.approx(0.1)
    assert icp_pvalue(0.0, CALIB) == pytest.approx(1.0)
    assert icp_pvalue(5.0, CALIB) == pytest.approx(0.6)  # ties count as >=


def test_icp_pvalue_limits_and_monotonicity():
    assert icp_pvalue(np.inf, CALIB) == pytest.approx(1 / 10)
    assert icp_pvalue(-np.inf, CALIB) == pytest.approx(1.0)
    probes = np.linspace(-5, 15, 200)
    ps = [icp_pvalue(s, CALIB) for s in probes]
    assert all(a >= b for a, b in zip(ps, ps[1:]))


def mixture_integral_oracle(ps, n_points=200001):
    """High-resolution trapezoid integration, independent of the Simpson path."""
    eps = np.linspace(0.0, 1.0, n_points)[1:]
    logf = len(ps) * np.log(eps) + (eps - 1.0) * np.sum(np.log(ps))
    return float(np.trapezoid(np.exp(logf), dx=1.0 / (n_points - 1)))


def test_martingale_all_ones_analytic():
    for n in range(1, 21):
        m = mixture_martingale([1.0] * n)
        assert m == pytest.approx(1.0 / (n + 1), abs=1e-6), f"window {n}"


def test_martingale_single_half():
    m = mixture_martingale([0.5])
    assert m == pytest.approx(mixture_integral_oracle([0.5]), abs=1e-4)
    assert m == pytest.approx(0.6387, abs=1e-4)


def test_martingale_small_pvalues_grow():
    m = mixture_martingale([0.01] * 20)
    assert m > 1e6
    assert m == pytest.approx(mixture_integral_oracle([0.01] * 20), rel=1e-3)


def test_martingale_validation():
    with pytest.raises(ValueError):
        mixture_martingale([])
    with pytest.raises(ValueError):
        mixture_martingale([0.0, 0.5])


def test_cusum_examples():
    assert cusum_update(0.0, np.exp(-3.0), 0.5) == 0.0
    assert cusum_update(1.0, np.exp(2.0), 0.5) == pytest.approx(2.5)
    assert cusum_update(3.0, 1.0, 0.0) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        cusum_update(-1.0, 1.0, 0.0)


def test_score_frame_first_frame_composition():
    state = DetectorState(window=20)
    cfg = PostprocessConfig(window=20, decay=0.0)
    # score far below calibration -> p = 1; M = integral of eps = 0.5; ln M < 0
    state, s = score_frame(state, lat([0.0], [1.0]), CALIB, cfg)
    assert s == 0.0
    assert list(state.p_window) == [1.0]


def test_score_frame_id_stream_stays_zero():
    cfg = PostprocessConfig(window=20, decay=0.0)
    state = DetectorState(window=cfg.window)
    for _ in range(50):
        state, s = score_frame(state, lat([0.0], [1.0]), CALIB, cfg)
        assert s == 0.0


def test_score_frame_sustained_ood_grows():
    cfg = PostprocessConfig(window=20, decay=0.1)
    state = DetectorState(window=cfg.window)
    scores = []
    for _ in range(40):
        state, s = score_frame(state, lat([10.0], [1.0]), CALIB, cfg)  # score >> calib
        scores.append(s)
    assert scores[-1] > scores[20] > 0
    assert all(b >= a for a, b in zip(scores[20:], scores[21:]))


def test_detection_delay_after_switch():
    # ID stream, then a switch to strongly nonconforming frames: the score
    # crosses a fixed threshold within window + a few frames of the switch
    cfg = PostprocessConfig(window=20, decay=0.1)
    state = DetectorState(window=cfg.window)
    threshold = 10.0
    for _ in range(40):
        state, s = score_frame(state, lat([0.0], [1.0]), CALIB, cfg)
    assert state.cusum_s < threshold
    crossed_at = None
    for k in range(cfg.window + 10):
        state, s = score_frame(state, lat([10.0], [1.0]), CALIB, cfg)
        if s >= threshold:
            crossed_at = k + 1
            break
    assert crossed_at is not None and crossed_at <= cfg.window + 5


def test_state_window_eviction():
    state = DetectorState(window=3)
    for p in (0.1, 0.2, 0.3, 0.4):
        state.push_p(p)
    assert list(state.p_window) == [0.2, 0.3, 0.4]


def auroc_bruteforce(id_scores, ood_scores):
    wins = 0.0
    for o in ood_scores:
        for i in id_scores:
            if o > i:
                wins += 1.0
            elif o == i:
                wins += 0.5
    return wins / (len(id_scores) * len(ood_scores))


def auroc_sequential(id_scores, ood_scores):
    """Rank-sum AUROC with tie ranks averaged by a scan over the sorted
    scores, one tie group at a time."""
    a = np.asarray(id_scores, dtype=np.float64)
    b = np.asarray(ood_scores, dtype=np.float64)
    both = np.concatenate([a, b])
    order = np.argsort(both, kind="mergesort")
    sorted_vals = both[order]
    ranks_sorted = np.arange(1, both.size + 1, dtype=np.float64)
    i = 0
    while i < both.size:
        j = i
        while j + 1 < both.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks_sorted[i:j + 1] = 0.5 * (i + 1 + j + 1)
        i = j + 1
    ranks = np.empty_like(both)
    ranks[order] = ranks_sorted
    u = ranks[a.size:].sum() - b.size * (b.size + 1) / 2.0
    return float(u / (a.size * b.size))


def test_auroc_bit_equal_to_sequential_ranks():
    rng = np.random.default_rng(23)
    for case in range(2000):
        n_id, n_ood = rng.integers(1, 60, 2)
        if case % 2:  # coarse grid: many ties, within and across the two sets
            ids = rng.integers(0, 12, n_id) / 8.0
            oods = rng.integers(0, 12, n_ood) / 8.0
        else:
            ids = rng.normal(size=n_id)
            oods = rng.normal(size=n_ood) + 0.5
        assert auroc(ids, oods) == auroc_sequential(ids, oods)
    assert auroc([-np.inf, 1.0], [np.inf, 1.0]) == auroc_sequential([-np.inf, 1.0], [np.inf, 1.0])


def test_auroc_refuses_nan():
    with pytest.raises(ValueError, match="NaN"):
        auroc([0.1, np.nan], [0.3])


def test_auroc_examples():
    assert auroc([0.1, 0.2], [0.3, 0.4]) == 1.0
    assert auroc([1, 2, 3], [1, 2, 3]) == 0.5
    assert auroc([0.1, 0.4], [0.2, 0.3]) == 0.5
    with pytest.raises(ValueError):
        auroc([], [1.0])


def test_auroc_matches_bruteforce_with_ties():
    rng = np.random.default_rng(21)
    for _ in range(200):
        n_id = int(rng.integers(1, 50))
        n_ood = int(rng.integers(1, 50))
        ids = rng.integers(0, 10, n_id) / 4.0  # coarse grid forces ties
        oods = rng.integers(0, 10, n_ood) / 4.0 + rng.choice([0.0, 0.25])
        assert auroc(ids, oods) == pytest.approx(auroc_bruteforce(ids, oods), abs=1e-12)


def test_auroc_identities():
    rng = np.random.default_rng(22)
    a = rng.normal(size=30)
    b = rng.normal(size=40)
    assert auroc(a, b) + auroc(b, a) == pytest.approx(1.0, abs=1e-12)
    # invariance under strictly monotone transforms
    assert auroc(np.exp(a), np.exp(b)) == pytest.approx(auroc(a, b), abs=1e-12)


def test_harmonic_fitness():
    assert harmonic_fitness([0.823, 0.5]) == pytest.approx(0.6221, abs=1e-4)
    assert harmonic_fitness([0.7, 0.7, 0.7]) == pytest.approx(0.7)
    assert harmonic_fitness([0.9, 0.0]) == 0.0
    vals = [0.6, 0.8, 0.9]
    assert harmonic_fitness(vals) <= np.mean(vals)
    with pytest.raises(ValueError):
        harmonic_fitness([])


def test_calibration_set_validation_and_csv():
    with pytest.raises(ValueError):
        CalibrationSet(np.array([]), "f32", "00000000")
    with pytest.raises(ValueError):
        CalibrationSet(np.array([2.0, 1.0]), "f32", "00000000")
    c = CalibrationSet(np.array([0.5, 1.5, 2.5]), "qint8", "deadbeef")
    back = CalibrationSet.from_csv(c.to_csv())
    assert np.array_equal(back.scores, c.scores)
    assert back.precision_tag == "qint8"
    assert back.model_checksum == "deadbeef"


class _StubModel:
    precision = "f32"

    def __init__(self, weight=1.0):
        self.weight = np.float32([weight])

    def named_params(self):
        return [("w", self.weight)]

    def encode_batch(self, xs):
        n = xs.shape[0]
        mu = np.arange(n, dtype=np.float64)[:, None] * np.ones((1, 3))
        return mu, np.ones((n, 3))


def test_build_calibration_sorted_and_deterministic():
    cfg = PostprocessConfig()
    imgs = [np.full((1, 2, 2), i, np.float32) for i in range(5)]
    c1 = build_calibration(_StubModel(), imgs, cfg)
    c2 = build_calibration(_StubModel(), imgs, cfg)
    assert np.array_equal(c1.scores, c2.scores)
    assert np.all(np.diff(c1.scores) >= 0)
    assert np.isfinite(c1.scores).all()
    assert c1.precision_tag == "f32"
    assert c1.model_checksum == model_checksum(_StubModel())


def test_check_calibration_refuses_another_models_scores():
    imgs = [np.full((1, 2, 2), i, np.float32) for i in range(5)]
    model, other = _StubModel(1.0), _StubModel(2.0)
    check_calibration(model, build_calibration(model, imgs, PostprocessConfig()))
    # same precision and the same scores, but built on another model's weights
    calib = build_calibration(other, imgs, PostprocessConfig())
    with pytest.raises(CalibrationMismatchError, match="model checksum"):
        check_calibration(model, calib)
    # a header with an empty checksum ("model_checksum=") names no model
    with pytest.raises(CalibrationMismatchError, match="model checksum"):
        check_calibration(model, CalibrationSet(calib.scores, "f32", ""))


@pytest.mark.parametrize("text, message", [
    ("1.0\n2.0\n", "missing calibration header"),
    ("# precision=f32 stray model_checksum=ab\nscore\n1.0\n", "not key=value"),
    ("# model_checksum=ab\nscore\n1.0\n", "lacks precision"),
    ("# precision=f32\nscore\n1.0\n", "lacks model_checksum"),
    ("# precision=f32 model_checksum=ab\n1.0\n2.0\n3.0\n", "column row"),
    ("# precision=f32 model_checksum=ab\nscore\n", "empty"),
    ("# precision=f32 model_checksum=ab\nscore\n1.0\nnan\n", "finite"),
])
def test_from_csv_refuses_malformed_file(text, message):
    with pytest.raises(ValueError, match=message):
        CalibrationSet.from_csv(text)


def test_postprocess_config_validation():
    with pytest.raises(ValueError):
        PostprocessConfig(window=0)
    with pytest.raises(ValueError):
        PostprocessConfig(decay=-0.1)
