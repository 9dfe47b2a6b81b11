"""Label stacks as Point lists and back, for tests that take labels one at a time."""

import numpy as np

from cohspace.kernels import Point, sample_points


def points(coords, multipliers=None):
    """The Points of a label stack (n, d) and its multipliers ((n,) or None)."""
    mults = [None] * len(coords) if multipliers is None else multipliers
    return [Point(c, m) for c, m in zip(coords, mults)]


def sampled(space, rng, count):
    """sample_points as a list of Points."""
    return points(*sample_points(space, rng, count))


def chart_point(chart, u):
    """The Point of chart coordinates u (1,)."""
    return Point(chart.labels(np.asarray(u)[None])[0])


def stack(pts, dim):
    """(coords (n, dim), multipliers (n,) or None unless every Point has one) of Points."""
    coords = np.array([p.coords for p in pts], dtype=complex).reshape(len(pts), dim)
    mults = [p.multiplier for p in pts]
    return coords, None if None in mults else np.array(mults, dtype=complex)
