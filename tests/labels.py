"""Single labels as one-row stacks, for tests that take labels one at a time.

A label is the one-row stack (coords (1, d) complex, multipliers (1,) or
None) that eval_kernel, the flows and the charts take."""

import numpy as np

from cohspace.kernels import sample_points


def label(coords, multiplier=None):
    """The one-row stack of one label with coordinates (d,) and a multiplier or None."""
    return (np.asarray(coords, dtype=complex).reshape(1, -1),
            None if multiplier is None else np.array([multiplier], dtype=complex))


def multiplier(z):
    """The multiplier of a one-row stack z, or None."""
    return None if z[1] is None else complex(z[1][0])


def points(coords, multipliers=None):
    """The one-row stacks of the rows of a label stack (n, d) and its
    multipliers ((n,) or None)."""
    return [(coords[i:i + 1], None if multipliers is None else multipliers[i:i + 1])
            for i in range(len(coords))]


def sampled(space, rng, count):
    """sample_points as a list of one-row stacks."""
    return points(*sample_points(space, rng, count))


def chart_point(chart, u):
    """The label of chart coordinates u (1,)."""
    return chart.labels(np.asarray(u)[None]), None


def stack(pts, dim):
    """(coords (n, dim), multipliers (n,) or None unless every label has one) of one-row stacks."""
    coords = np.array([c[0] for c, _ in pts], dtype=complex).reshape(len(pts), dim)
    mults = [None if m is None else m[0] for _, m in pts]
    return coords, None if None in mults else np.array(mults, dtype=complex)
