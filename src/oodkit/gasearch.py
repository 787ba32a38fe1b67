"""Bucketed genetic search over preprocessing genomes.

Each bucket (small/medium/large input sizes) is searched by its own GA;
fitness of a genome is the harmonic-mean AUROC of the fully trained,
calibrated, and evaluated candidate detector, memoized so no genome is ever
evaluated twice.
"""

from __future__ import annotations

import io
import logging
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, Optional

import numpy as np

from .imaging import RESIZE_METHODS

log = logging.getLogger(__name__)

BVAE = "bvae"
OPTFLOW = "optflow"

RGB = "rgb"
GRAY = "gray"

# what a candidate evaluation or a detector bench cell may raise on bad data,
# numerics or I/O; a bug such as an AssertionError, TypeError or
# AttributeError is not a measurement and propagates
CELL_FAILURES = (ValueError, RuntimeError, ArithmeticError, OSError)


def _check_size(size):
    if not (isinstance(size, tuple) and len(size) == 2
            and all(isinstance(x, int) and x > 0 for x in size)):
        raise ValueError(f"size {size!r} is not a (height, width) pair "
                         "of positive integers")


@dataclass(frozen=True)
class Genome:
    """One preprocessing configuration: the GA individual."""

    family: str
    size: tuple  # (height, width); square for the image detector
    interpolation: str
    color: Optional[str] = None       # image detector only
    flow_depth: Optional[int] = None  # flow detector only

    def __post_init__(self):
        _check_size(self.size)
        if self.interpolation not in RESIZE_METHODS:
            raise ValueError(f"unknown interpolation {self.interpolation!r}")
        if self.family == BVAE:
            if self.color not in (RGB, GRAY):
                raise ValueError(f"bvae genome needs color rgb/gray, got {self.color!r}")
            if self.flow_depth is not None:
                raise ValueError("bvae genome has no flow_depth gene")
            if self.size[0] != self.size[1]:
                raise ValueError(f"bvae genome is square, got {self.size}")
        elif self.family == OPTFLOW:
            if self.flow_depth is None or not 2 <= self.flow_depth <= 6:
                raise ValueError(f"optflow genome needs flow_depth in [2, 6], got {self.flow_depth}")
            if self.color is not None:
                raise ValueError("optflow genome has no color gene")
        else:
            raise ValueError(f"unknown genome family {self.family!r}")

    def sort_key(self):
        area = self.size[0] * self.size[1]
        return (area, self.size, self.interpolation, self.color or "", self.flow_depth or 0)

    def to_dict(self):
        return {"family": self.family, "size": list(self.size),
                "interpolation": self.interpolation, "color": self.color,
                "flow_depth": self.flow_depth}

    @classmethod
    def from_dict(cls, d):
        """The genome of a to_dict document; color and flow_depth may be left out."""
        unknown = d.keys() - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown genome keys {sorted(unknown)}")
        for f in fields(cls):
            if f.default is MISSING and f.name not in d:
                raise ValueError(f"genome {d!r} is missing {f.name!r}")
        size = d["size"]  # a JSON list; anything else reaches the size check as is
        return cls(**dict(d, size=tuple(size) if isinstance(size, list) else size))


# each family's genes, paired with the Bucket field that holds their alleles,
# in the order the GA draws them
GENES = {
    BVAE: (("size", "sizes"), ("interpolation", "interpolations"), ("color", "colors")),
    OPTFLOW: (("size", "sizes"), ("interpolation", "interpolations"),
              ("flow_depth", "flow_depths")),
}


@dataclass(frozen=True)
class Bucket:
    """Allele space of one GA: candidate sizes and the other gene ranges."""

    name: str
    family: str
    sizes: tuple
    interpolations: tuple
    colors: tuple = ()
    flow_depths: tuple = ()

    def __post_init__(self):
        if self.family not in GENES:
            raise ValueError(f"unknown bucket family {self.family!r}")
        for gene, alleles in GENES[self.family]:
            if not getattr(self, alleles):
                raise ValueError(f"{self.family} bucket needs {gene} alleles")
        for size in self.sizes:
            _check_size(size)

    def contains(self, g: Genome) -> bool:
        return g.family == self.family and all(
            getattr(g, gene) in getattr(self, alleles) for gene, alleles in GENES[self.family])


BVAE_INTERPOLATIONS = ("nearest", "bilinear", "bicubic")
OF_INTERPOLATIONS = ("nearest", "bilinear", "bicubic", "area")


@dataclass(frozen=True)
class GAConfig:
    population: int = 5
    mutation_rate: float = 0.2
    generations: int = 16
    elitism: int = 1
    tournament_k: int = 2
    seed: int = 0

    def __post_init__(self):
        if self.population < 2:
            raise ValueError("population must be >= 2")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation_rate must lie in [0, 1]")
        if not 0 <= self.elitism < self.population:
            raise ValueError("elitism must be < population")
        if self.tournament_k < 1:
            raise ValueError("tournament_k must be >= 1")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")


def _draw(alleles: tuple, rng: np.random.Generator):
    return alleles[rng.integers(len(alleles))]


def random_genome(bucket: Bucket, rng: np.random.Generator) -> Genome:
    return Genome(bucket.family, **{gene: _draw(getattr(bucket, alleles), rng)
                                    for gene, alleles in GENES[bucket.family]})


def mutate(g: Genome, rate: float, rng: np.random.Generator, bucket: Bucket) -> Genome:
    """Each gene independently resampled (within the bucket) with probability
    `rate`; a resample may redraw the same allele."""
    if not bucket.contains(g):
        raise ValueError(f"genome {g} not in bucket {bucket.name}")
    return Genome(g.family, **{
        gene: _draw(getattr(bucket, alleles), rng) if rng.random() < rate else getattr(g, gene)
        for gene, alleles in GENES[g.family]})


def crossover(a: Genome, b: Genome, rng: np.random.Generator) -> Genome:
    if a.family != b.family:
        raise ValueError("crossover requires genomes of the same family")
    return Genome(a.family, **{gene: getattr(a if rng.random() < 0.5 else b, gene)
                               for gene, _ in GENES[a.family]})


def select(scored, rng: np.random.Generator, k: int = 2) -> Genome:
    """Tournament of k uniform draws; highest fitness wins, ties broken by
    smaller image area then lexicographic genome."""
    entrants = [scored[rng.integers(len(scored))] for _ in range(k)]
    return min(entrants, key=lambda gf: (-gf[1],) + gf[0].sort_key())[0]


class MemoizedEvaluator:
    """Wraps the expensive genome -> (fitness, per-factor AUROC) evaluation;
    each distinct genome is evaluated at most once; an evaluation that raises
    one of CELL_FAILURES scores 0."""

    def __init__(self, fn: Callable):
        self.fn = fn
        self.cache: dict = {}
        self.evaluations = 0

    def __call__(self, genome: Genome):
        hit = genome in self.cache
        if not hit:
            self.evaluations += 1
            try:
                fitness, factors = self.fn(genome)
            except CELL_FAILURES:
                log.exception("fitness evaluation failed for %s; scoring 0", genome)
                fitness, factors = 0.0, {}
            self.cache[genome] = (float(fitness), dict(factors))
        fitness, factors = self.cache[genome]
        return fitness, factors, hit


@dataclass
class GARecord:
    generation: int
    genome: Genome
    fitness: float
    factors: dict
    cache_hit: bool


@dataclass
class GAHistory:
    records: list = field(default_factory=list)

    def best_curve(self):
        """Best fitness seen up to each generation (monotone by elitism)."""
        out = []
        best = -np.inf
        gens = sorted({r.generation for r in self.records})
        for g in gens:
            best = max([best] + [r.fitness for r in self.records if r.generation == g])
            out.append(best)
        return out

    def factor_names(self):
        names = set()
        for r in self.records:
            names.update(r.factors)
        return sorted(names)

    def to_csv(self) -> str:
        factors = self.factor_names()
        buf = io.StringIO()
        header = (["generation", "family", "height", "width", "interpolation", "color",
                   "flow_depth"] + [f"auroc_{f}" for f in factors] + ["fitness", "cache_hit"])
        buf.write(",".join(header) + "\n")
        for r in self.records:
            g = r.genome
            row = [str(r.generation), g.family, str(g.size[0]), str(g.size[1]),
                   g.interpolation, g.color or "", str(g.flow_depth or "")]
            row += [f"{r.factors[f]:.6f}" if f in r.factors else "" for f in factors]
            row += [f"{r.fitness:.6f}", str(int(r.cache_hit))]
            buf.write(",".join(row) + "\n")
        return buf.getvalue()


def _rank(scored):
    return sorted(scored, key=lambda gf: (-gf[1],) + gf[0].sort_key())


def run_ga(bucket: Bucket, cfg: GAConfig, evaluator: MemoizedEvaluator,
           state: Optional[dict] = None, checkpoint: Optional[Callable] = None):
    """Evolve within one bucket; deterministic for a fixed (cfg, evaluator).

    state/checkpoint allow resuming: `checkpoint(state_dict)` is called after
    every generation and `state=state_dict` continues an interrupted run with
    an identical final history.
    """
    rng = np.random.default_rng(np.random.PCG64(cfg.seed))
    history = GAHistory()
    start_gen = 0
    if state is not None:
        rng.bit_generator.state = state["rng_state"]
        population = [Genome.from_dict(d) for d in state["population"]]
        start_gen = state["generation"] + 1
        for rec in state["records"]:
            history.records.append(GARecord(rec["generation"], Genome.from_dict(rec["genome"]),
                                            rec["fitness"], rec["factors"], rec["cache_hit"]))
        for gd, (fit, fac) in state["cache"]:
            evaluator.cache[Genome.from_dict(gd)] = (fit, dict(fac))
    else:
        population = [random_genome(bucket, rng) for _ in range(cfg.population)]

    def dump_state(gen):
        return {
            "generation": gen,
            "rng_state": rng.bit_generator.state,
            "population": [g.to_dict() for g in population],
            "records": [{"generation": r.generation, "genome": r.genome.to_dict(),
                         "fitness": r.fitness, "factors": r.factors,
                         "cache_hit": r.cache_hit} for r in history.records],
            "cache": [(g.to_dict(), v) for g, v in evaluator.cache.items()],
        }

    for gen in range(start_gen, cfg.generations + 1):
        scored = []
        for g in population:
            fitness, factors, hit = evaluator(g)
            history.records.append(GARecord(gen, g, fitness, factors, hit))
            scored.append((g, fitness))
        if gen < cfg.generations:
            ranked = _rank(scored)
            nxt = [g for g, _ in ranked[:cfg.elitism]]
            while len(nxt) < cfg.population:
                p1 = select(scored, rng, cfg.tournament_k)
                p2 = select(scored, rng, cfg.tournament_k)
                child = mutate(crossover(p1, p2, rng), cfg.mutation_rate, rng, bucket)
                nxt.append(child)
            population = nxt
        if checkpoint is not None:
            checkpoint(dump_state(gen))

    best = min(evaluator.cache.items(), key=lambda kv: (-kv[1][0],) + kv[0].sort_key())
    return best[0], history
