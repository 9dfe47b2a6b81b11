"""The numerical-derivative rule, pinned bit for bit.

The generator route through ``qspace.richardson`` is compared byte for byte
(``.tobytes()``) with its formula written out by hand below: the
extrapolated central quotient of the quantized flow at steps s and s/2.
"""

import numpy as np
import pytest
import scipy.linalg

from cohspace.kernels import klauder_space, linear_point_map, sample_points, spin_space
from cohspace.qspace import build_quantum_space
from cohspace.quantize import generator_matrix, quantize_map

SEED = 23


def same_bits(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


# --------------------------------------------------------------- generators


def _hand_generator(qb, flow, s):
    def quotient(step):
        qp = quantize_map(qb, flow(step), tol=1.0)
        qm = quantize_map(qb, flow(-step), tol=1.0)
        return (qp.matrix - qm.matrix) / (2j * step)

    d1, d2 = quotient(s), quotient(s / 2.0)
    return (4.0 * d2 - d1) / 3.0


def _spin_generator(x):
    return lambda s: linear_point_map(scipy.linalg.expm(1j * s * x))


@pytest.mark.parametrize("n, x", [
    (2, np.diag([0.5, -0.5])),
    (3, np.array([[0.0, 0.5], [0.5, 0.0]])),
    (3, np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, -0.5]])),
    (4, np.array([[0.1, 0.4j], [-0.4j, 0.2]])),
])
def test_generator_matrix_is_the_hand_written_quotient(n, x):
    rng = np.random.default_rng(SEED + n)
    sp = spin_space(n)
    qb = build_quantum_space(sp, *sample_points(sp, rng, 2 * n + 4))
    gen = _spin_generator(np.asarray(x, dtype=complex))
    assert same_bits(generator_matrix(qb, gen, s=1e-3, tol=1e-6).matrix,
                     _hand_generator(qb, gen, 1e-3))


def test_klauder_generator_matrix_is_the_hand_written_quotient():
    labels = np.array([[0.0, 0.9 * np.exp(2j * np.pi * k / 12)] for k in range(12)])
    qb = build_quantum_space(klauder_space(1), labels)

    def gen(s):
        return lambda z: np.column_stack((z[:, 0], np.exp(1j * s) * z[:, 1]))

    assert same_bits(generator_matrix(qb, gen, s=1e-3, tol=1e-5).matrix,
                     _hand_generator(qb, gen, 1e-3))
