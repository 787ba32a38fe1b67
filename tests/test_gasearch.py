import hashlib
import json

import numpy as np
import pytest

from oodkit.config import bucket_from_config, default_config
from oodkit.gasearch import (
    BVAE,
    BVAE_INTERPOLATIONS,
    Bucket,
    GAConfig,
    Genome,
    MemoizedEvaluator,
    OPTFLOW,
    crossover,
    mutate,
    random_genome,
    run_ga,
    select,
)


def tiny_bucket():
    """2 x 3 x 2 allele space: 12 genomes."""
    return Bucket("T", BVAE, ((8, 8), (12, 12)), ("nearest", "bilinear", "bicubic"),
                  ("rgb", "gray"))


def test_genome_validation():
    Genome(BVAE, (8, 8), "nearest", color="rgb")
    Genome(OPTFLOW, (24, 32), "area", flow_depth=6)
    with pytest.raises(ValueError):
        Genome(BVAE, (8, 10), "nearest", color="rgb")  # not square
    with pytest.raises(ValueError):
        Genome(BVAE, (8, 8), "nearest")  # missing color
    with pytest.raises(ValueError):
        Genome(OPTFLOW, (24, 32), "area", flow_depth=7)


def test_random_genome_bucket_ranges():
    rng = np.random.default_rng(0)
    s = Bucket("S", BVAE, tuple((w, w) for w in range(3, 77)), BVAE_INTERPOLATIONS,
               ("rgb", "gray"))
    for _ in range(50):
        g = random_genome(s, rng)
        assert 3 <= g.size[0] <= 76 and g.size[0] == g.size[1]
        assert g.color in ("rgb", "gray")
    large = bucket_from_config(default_config(OPTFLOW), "L")
    for _ in range(50):
        g = random_genome(large, rng)
        assert g.size in ((120, 160), (150, 200))
        assert 2 <= g.flow_depth <= 6
    # fixed seed -> same genome
    a = random_genome(s, np.random.default_rng(5))
    b = random_genome(s, np.random.default_rng(5))
    assert a == b


def test_mutate_rate_extremes():
    bucket = tiny_bucket()
    g = Genome(BVAE, (8, 8), "nearest", color="rgb")
    rng = np.random.default_rng(1)
    assert mutate(g, 0.0, rng, bucket) == g
    single = bucket.__class__("X", BVAE, ((8, 8),), ("nearest",), ("rgb",))
    m = mutate(Genome(BVAE, (8, 8), "nearest", color="rgb"), 1.0, rng, single)
    assert m.size == (8, 8) and m.interpolation == "nearest"  # redraw hits the same allele
    with pytest.raises(ValueError):
        mutate(Genome(BVAE, (99, 99), "nearest", color="rgb"), 0.5, rng, bucket)


def test_crossover_identity():
    g = Genome(OPTFLOW, (48, 64), "area", flow_depth=4)
    assert crossover(g, g, np.random.default_rng(2)) == g


def test_select_tournament_tiebreak():
    small = Genome(BVAE, (8, 8), "bilinear", color="rgb")
    big = Genome(BVAE, (12, 12), "bilinear", color="rgb")
    scored = [(big, 0.5), (small, 0.5)]
    rng = np.random.default_rng(3)
    # equal fitness: the smaller image area must win every tournament it enters
    winners = {select(scored, rng, k=2) for _ in range(20)}
    assert winners <= {small, big}
    assert all(select([(big, 0.5), (small, 0.5)], np.random.default_rng(i), k=2) in (small, big)
               for i in range(5))
    assert select([(big, 0.5), (small, 0.5)], np.random.default_rng(0), k=10) == small


def synthetic_fitness(bucket):
    """Deterministic plug-in fitness over the 12-genome space: additive gene
    effects plus a small interaction, the shape real preprocessing sweeps show."""
    interp_gain = {"nearest": 0.00, "bilinear": 0.05, "bicubic": 0.02}
    table = {}
    for size in sorted(bucket.sizes):
        for interp in bucket.interpolations:
            for color in bucket.colors:
                f = (0.55 + (0.12 if size == max(bucket.sizes) else 0.0)
                     + interp_gain[interp] + (0.04 if color == "gray" else 0.0)
                     + (0.02 if (interp == "bilinear" and color == "gray") else 0.0))
                table[Genome(BVAE, size, interp, color=color)] = round(f, 6)
    best = max(table, key=table.get)
    return table, best


def test_run_ga_finds_optimum_on_enumerable_space():
    bucket = tiny_bucket()
    table, _ = synthetic_fitness(bucket)
    oracle_best = max(table.values())
    hits = 0
    for seed in range(100):
        ev = MemoizedEvaluator(lambda g: (table[g], {}))
        cfg = GAConfig(population=5, mutation_rate=0.2, generations=16, seed=seed)
        best, hist = run_ga(bucket, cfg, ev)
        if table[best] == oracle_best:
            hits += 1
        assert ev.evaluations <= len(table)
        curve = hist.best_curve()
        assert all(b >= a for a, b in zip(curve, curve[1:]))
    assert hits >= 95, f"optimum found in only {hits}/100 seeds"


def test_run_ga_generations_zero():
    bucket = tiny_bucket()
    table, _ = synthetic_fitness(bucket)
    ev = MemoizedEvaluator(lambda g: (table[g], {}))
    best, hist = run_ga(bucket, GAConfig(population=5, generations=0, seed=7), ev)
    gen0 = [r for r in hist.records if r.generation == 0]
    assert len(gen0) == 5
    assert table[best] == max(r.fitness for r in gen0)


def test_run_ga_memoization_and_bucket_containment():
    bucket = tiny_bucket()
    table, _ = synthetic_fitness(bucket)
    calls = []

    def fn(g):
        calls.append(g)
        return table[g], {"a": table[g]}

    ev = MemoizedEvaluator(fn)
    _, hist = run_ga(bucket, GAConfig(population=5, generations=10, seed=3), ev)
    assert len(calls) == len(set(calls))  # never evaluated twice
    assert ev.evaluations <= 12
    for r in hist.records:
        assert bucket.contains(r.genome)
    total = len(hist.records)
    fresh = sum(1 for r in hist.records if not r.cache_hit)
    assert total == 5 * 11
    assert fresh == total - sum(1 for r in hist.records if r.cache_hit)
    assert fresh == len(calls)


def test_run_ga_deterministic():
    bucket = tiny_bucket()
    table, _ = synthetic_fitness(bucket)
    runs = []
    for _ in range(2):
        ev = MemoizedEvaluator(lambda g: (table[g], {}))
        best, hist = run_ga(bucket, GAConfig(population=4, generations=6, seed=11), ev)
        runs.append((best, [(r.generation, r.genome, r.fitness, r.cache_hit)
                            for r in hist.records]))
    assert runs[0] == runs[1]


def test_run_ga_failed_evaluation_scores_zero():
    bucket = tiny_bucket()

    def fn(g):
        if g.color == "gray":
            raise RuntimeError("boom")
        return 0.5, {}

    ev = MemoizedEvaluator(fn)
    best, hist = run_ga(bucket, GAConfig(population=5, generations=3, seed=1), ev)
    assert any(r.fitness == 0.0 for r in hist.records)
    assert best.color == "rgb"


def test_run_ga_checkpoint_resume_equivalence():
    bucket = tiny_bucket()
    table, _ = synthetic_fitness(bucket)
    cfg = GAConfig(population=5, generations=8, seed=4)

    ev_full = MemoizedEvaluator(lambda g: (table[g], {}))
    best_full, hist_full = run_ga(bucket, cfg, ev_full)

    snapshots = []
    ev_a = MemoizedEvaluator(lambda g: (table[g], {}))

    class Stop(Exception):
        pass

    def grab(state):
        snapshots.append(json.loads(json.dumps(state)))  # force the disk format
        if state["generation"] == 3:
            raise Stop

    try:
        run_ga(bucket, cfg, ev_a, checkpoint=grab)
    except Stop:
        pass
    ev_b = MemoizedEvaluator(lambda g: (table[g], {}))
    best_res, hist_res = run_ga(bucket, cfg, ev_b, state=snapshots[-1])

    assert best_res == best_full
    assert [(r.generation, r.genome, r.fitness) for r in hist_res.records] == \
           [(r.generation, r.genome, r.fitness) for r in hist_full.records]


def test_history_csv_shape():
    bucket = tiny_bucket()
    table, _ = synthetic_fitness(bucket)
    ev = MemoizedEvaluator(lambda g: (table[g], {"rain": 0.7, "brightness": 0.9}))
    _, hist = run_ga(bucket, GAConfig(population=3, generations=2, seed=0), ev)
    lines = hist.to_csv().strip().splitlines()
    assert lines[0] == ("generation,family,height,width,interpolation,color,flow_depth,"
                        "auroc_brightness,auroc_rain,fitness,cache_hit")
    assert len(lines) == 1 + 3 * 3


def test_bucket_validation():
    with pytest.raises(ValueError, match="unknown bucket family"):
        Bucket("X", "lidar", ((8, 8),), ("nearest",))
    with pytest.raises(ValueError, match="color alleles"):
        Bucket("X", BVAE, ((8, 8),), ("nearest",))
    with pytest.raises(ValueError, match="flow_depth alleles"):
        Bucket("X", OPTFLOW, ((8, 8),), ("nearest",), colors=("rgb",))
    for size in ((8,), (8, 0), (8.0, 8), 8):
        with pytest.raises(ValueError, match="height, width"):
            Bucket("X", BVAE, (size,), ("nearest",), ("rgb",))


def test_run_ga_draw_order_pinned():
    """run_ga's histories over both families' default buckets under a fixed
    synthetic fitness; the digest was recorded before the GA operators were
    written over the gene table, so it pins the order of every draw."""
    def fitness(g):
        h = int(hashlib.sha256(repr(g.to_dict()).encode()).hexdigest()[:8], 16)
        return (h % 1000) / 1000.0, {"rain": (h % 997) / 997.0}

    digest = hashlib.sha256()
    for family in (BVAE, OPTFLOW):
        for name in ("S", "M", "L"):
            bucket = bucket_from_config(default_config(family), name)
            for seed in range(4):
                best, hist = run_ga(bucket, GAConfig(population=5, generations=6, seed=seed,
                                                     mutation_rate=0.3),
                                    MemoizedEvaluator(fitness))
                digest.update(repr(best.to_dict()).encode())
                digest.update(hist.to_csv().encode())
    assert digest.hexdigest()[:16] == "d94ae8fa0d95575c"
