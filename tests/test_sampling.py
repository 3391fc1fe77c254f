import random
from fractions import Fraction as F

import pytest

from minkbranch.minkowski import lt
from minkbranch.sampling import Sampler, SamplerConfig

from conftest import ReferenceSampler

CONFIGS = [
    (2, SamplerConfig(seed=1)),
    (2, SamplerConfig(seed=2, step=F(1, 8), box=(("-1", "1"), ("-1/2", "3/2")))),
    (2, SamplerConfig(seed=3, step=F(3, 7), box=((F(-1, 3), 2), (F(-3, 2), 1)))),
    (3, SamplerConfig(seed=4, step=F(1, 8))),
    (3, SamplerConfig(seed=5, step=F(3, 7), box=((0, 1), (F(-5, 6), F(1, 4)), (-2, 0)))),
    (4, SamplerConfig(seed=6, step=F(1, 5), box=((F(1, 2), F(1, 2)),) * 4)),
    (4, SamplerConfig(seed=7)),
]


@pytest.mark.parametrize("dimension, config", CONFIGS)
def test_sampler_draws_the_reference_lattice_points(dimension, config):
    sampler, ref = Sampler(config, dimension), ReferenceSampler(config, dimension)
    ops = random.Random(dimension * 100 + config.seed)
    x = y = ref.point()
    assert sampler.point() == x
    for _ in range(300):
        op = ops.choice(("point", "above", "below"))
        if op == "point":
            got, y = sampler.point(), ref.point()
            assert all(lo <= c <= hi for c, (lo, hi) in zip(y.coords, ref.box))
        elif op == "above":
            got, y = sampler.point_above(x), x.translated(ref.causal_delta())
            assert lt(x, y)
        else:
            got, y = sampler.point_below(x), x.translated(tuple(-c for c in ref.causal_delta()))
            assert lt(y, x)
        assert got == y and got.form == y.form, op
        x = y

