"""Seeded exact-rational samplers and a generator of validated random models.

Samples live on a rational lattice (box plus step), so every sampled
coordinate is an exact Fraction and a (seed, config) pair reproduces the
same stream byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .families import FiniteFamily
from .minkowski import Point, rational
from .model import Model

Box = tuple[tuple[Fraction, Fraction], ...]

#: Half the side of the default sampling box, per axis.
BOX_HALF_WIDTH = 2
#: Most lattice steps a causal displacement takes in time.
MAX_STEPS = 8
#: Most scenarios a random model has.
MAX_SCENARIOS = 5


def default_box(dimension: int) -> Box:
    w = Fraction(BOX_HALF_WIDTH)
    return tuple((-w, w) for _ in range(dimension))


@dataclass(frozen=True)
class SamplerConfig:
    seed: int = 0
    cases: int = 1000
    box: Box | None = None
    step: Fraction = Fraction(1, 16)

    def resolved_box(self, dimension: int) -> Box:
        if self.box is None:
            return default_box(dimension)
        box = tuple((rational(lo), rational(hi)) for lo, hi in self.box)
        if len(box) != dimension:
            raise ValueError(f"box has {len(box)} coordinate ranges, model needs {dimension}")
        for lo, hi in box:
            if lo > hi:
                raise ValueError("box bounds out of order")
        return box


class Sampler:
    """Draws lattice points, causal displacements, and chains from one RNG."""

    def __init__(self, config: SamplerConfig, dimension: int):
        self.dimension = dimension
        self.step = rational(config.step)
        if self.step <= 0:
            raise ValueError("sampler step must be positive")
        self.box = config.resolved_box(dimension)
        self.rng = random.Random(config.seed)
        self._counts = [int((hi - lo) / self.step) for lo, hi in self.box]

    def fraction(self, axis: int) -> Fraction:
        lo, _ = self.box[axis]
        return lo + self.step * self.rng.randint(0, self._counts[axis])

    def point(self) -> Point:
        return Point(tuple(self.fraction(axis) for axis in range(self.dimension)))

    def causal_delta(self) -> tuple[Fraction, ...]:
        """A displacement (dt, delta...) with spatial length at most dt.

        The per-coordinate bound dt/(d-1) keeps the Euclidean length inside
        the cone exactly; in two dimensions the full cone including the
        lightlike edge is reachable.
        """
        k = self.rng.randint(1, MAX_STEPS)
        dt = self.step * k
        spatial_span = k // (self.dimension - 1)
        delta = tuple(
            self.step * self.rng.randint(-spatial_span, spatial_span)
            for _ in range(self.dimension - 1)
        )
        return (dt,) + delta

    def point_above(self, x: Point) -> Point:
        return x.translated(self.causal_delta())

    def ascending_chain(self, length: int, start: Point | None = None) -> list[Point]:
        current = start if start is not None else self.point()
        chain = [current]
        for _ in range(length - 1):
            current = self.point_above(current)
            chain.append(current)
        return chain

    def choice(self, items):
        return self.rng.choice(list(items))


# ---------------------------------------------------------------------------
# Random validated models
# ---------------------------------------------------------------------------

_POOL_X = (-2, -1, 0, 1, 2)
_POOL_T = (Fraction(0), Fraction(1, 4), Fraction(1, 2))


def random_model(rng: random.Random) -> Model:
    """A random finite model that is validated by construction.

    Each scenario gets a distinct bit vector over a pool of pairwise
    space-like lattice points; the splitting family of a pair is the set of
    pool points where the vectors differ.  Symmetric differences nest, so
    the triangle condition holds structurally, and distinct vectors make
    every family nonempty.  Pool points sit at least one unit apart in
    space with time spread at most one half, which keeps them pairwise
    space-like and keeps quarter-step oracle grids able to see between
    them.
    """
    pool_size = rng.randint(2, len(_POOL_X))
    xs = rng.sample(_POOL_X, pool_size)
    pool = [Point((rng.choice(_POOL_T), Fraction(x))) for x in sorted(xs)]

    n_scenarios = rng.randint(2, min(MAX_SCENARIOS, 2 ** pool_size))
    vectors: set[tuple[int, ...]] = set()
    while len(vectors) < n_scenarios:
        vectors.add(tuple(rng.randint(0, 1) for _ in range(pool_size)))
    ordered = sorted(vectors)
    labels = [f"s{i + 1}" for i in range(len(ordered))]

    families = []
    for (i, va), (j, vb) in combinations(enumerate(ordered), 2):
        diff = tuple(pool[k] for k in range(pool_size) if va[k] != vb[k])
        families.append(((labels[i], labels[j]), FiniteFamily(diff)))
    return Model(2, labels, families)
