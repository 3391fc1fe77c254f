"""Seeded exact-rational samplers and a generator of validated random models.

Samples live on a rational lattice (box plus step), so every sampled
coordinate is an exact Fraction and a (seed, config) pair reproduces the
same stream byte for byte.  The sampler keeps the lattice as integers over
one common denominator and builds each point from its integer form, with
no Fraction arithmetic per draw.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import lcm

from .families import FiniteFamily
from .minkowski import IntegerForm, Point, _sum_point, from_form, rational
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
        step = rational(config.step)
        if step <= 0:
            raise ValueError("sampler step must be positive")
        box = config.resolved_box(dimension)
        self.rng = random.Random(config.seed)
        self._den = lcm(step.denominator, *(lo.denominator for lo, _ in box))
        self._step = step.numerator * (self._den // step.denominator)
        self._low = tuple(lo.numerator * (self._den // lo.denominator) for lo, _ in box)
        self._counts = [int((hi - lo) / step) for lo, hi in box]

    def point(self) -> Point:
        return from_form(self._den, tuple([
            lo + self._step * self.rng.randint(0, n) for lo, n in zip(self._low, self._counts)]))

    def causal_delta(self) -> IntegerForm:
        """A displacement (dt, delta...) with spatial length at most dt, as an integer form.

        The per-coordinate bound dt/(d-1) keeps the Euclidean length inside
        the cone exactly; in two dimensions the full cone including the
        lightlike edge is reachable.
        """
        k = self.rng.randint(1, MAX_STEPS)
        spatial_span = k // (self.dimension - 1)
        return self._den, (self._step * k,) + tuple([
            self._step * self.rng.randint(-spatial_span, spatial_span)
            for _ in range(self.dimension - 1)])

    def point_above(self, x: Point) -> Point:
        return _sum_point(x.form, self.causal_delta())

    def point_below(self, x: Point) -> Point:
        d, nums = self.causal_delta()
        return _sum_point(x.form, (d, tuple([-n for n in nums])))

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
