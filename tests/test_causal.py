"""Causality/normalization conditions on the 1+1D lattice example.

The array route of cohspace.causal is checked against the dict sections of
tests/oracles.py, which evaluate the kernel pair by pair: checked counts,
verdicts and named site pairs are equal, and the worst deviations agree
within 1e-14 absolute plus 1e-14 relative to the largest |K| met, the scale
of either route's rounding.
"""

import ast

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cohspace.causal import (
    check_causal_conditions,
    lattice_weyl_kernel,
    lightcone_commutator,
    triples_from_rows,
)
from cohspace.errors import ConfigError, NumericalError, PreconditionError
from oracles import causal_check_pairwise


def check(rows, nonlocal_violation=False, tol=1e-12):
    kernel, indep = lattice_weyl_kernel(nonlocal_violation)
    return check_causal_conditions(kernel, indep, triples_from_rows(rows), tol=tol)


def random_section(rng, t_range, x_range, n_sites):
    return [[int(rng.integers(*t_range)), int(rng.integers(*x_range)),
             float(rng.integers(-3, 4)), float(rng.integers(-3, 4))] for _ in range(n_sites)]


def spacelike_triples(rng, count):
    """j near x=-10, k near x=0, j' near x=+10; time extents small enough that
    every cross pair is strictly spacelike."""
    return [[random_section(rng, (-1, 2), (-12, -9), int(rng.integers(1, 4))),
             random_section(rng, (-1, 2), (-1, 2), int(rng.integers(1, 4))),
             random_section(rng, (-1, 2), (9, 12), int(rng.integers(1, 4)))]
            for _ in range(count)]


def test_commutator_support_is_the_closed_cone():
    assert lightcone_commutator(0, 0) == 0
    assert lightcone_commutator(2, 3) == 0
    assert lightcone_commutator(3, 3) == -0.5j
    assert lightcone_commutator(-3, 2) == 0.5j
    assert lightcone_commutator(-1, -2) == 0
    dt, dx = np.meshgrid(np.arange(-3, 4), np.arange(-4, 5), indexing="ij")
    w = lightcone_commutator(dt, dx)
    assert w.shape == dt.shape
    assert np.array_equal(w, -w[::-1, ::-1])  # antisymmetric
    assert np.array_equal(w != 0, (dt != 0) & (abs(dx) <= abs(dt)))


def test_weyl_kernel_satisfies_both_conditions_exactly():
    verdict = check(spacelike_triples(np.random.default_rng(3), 40))
    assert verdict.passed
    assert verdict.normal_checked == 40 and verdict.causal_checked == 40
    assert verdict.normal_max == 0.0  # spacelike pairs never touch W's support
    assert verdict.causal_max == 0.0  # s(j, k) = s(k, j') = s(k, k) = 0 exactly


def test_causal_condition_with_timelike_j_pair():
    # j and j' timelike-related: normalization does not apply, causality still must
    j, jp = [[0, 0, 1.0, 0.0]], [[3, 0, 2.0, 0.0]]  # j' inside j's cone
    k = [[0, 100, 1.0, 0.0]]                          # far away, independent of both
    verdict = check([[j, k, jp]])
    assert verdict.normal_checked == 0 and verdict.causal_checked == 1
    assert verdict.passed
    kernel, _ = lattice_weyl_kernel()
    assert kernel(0 - 3, 0 - 0) == 0.5j  # genuinely nontrivial: K(j, j') = exp(1j)


def test_precondition_violation_names_sites():
    j, jp = [[0, 0, 1.0, 0.0]], [[0, 10, 1.0, 0.0]]
    k = [[1, 1, 1.0, 0.0], [1, 1, 2.0, 0.0], [0, 5, 1.0, 0.0]]  # (1, 1) timelike to j, twice
    with pytest.raises(PreconditionError,
                       match=r"triple 1: k is not independent of j; .* \[\(\(1, 1\), \(0, 0\)\)\]$"):
        check([[j, [[0, 5, 1.0, 0.0]], jp], [j, k, jp]])
    k = [[t, 10, 1.0, 0.0] for t in range(1, 7)]  # six sites timelike to j', the first four named
    with pytest.raises(PreconditionError, match=r"of j'; offending site pairs "
                       r"\[\(\(1, 10\), \(0, 10\)\), .*, \(\(4, 10\), \(0, 10\)\)\]$"):
        check([[[[0, -20, 1.0, 0.0]], k, jp]])


def test_nonlocal_kernel_fails_normalization():
    j, jp = [[0, 0, 1.0, 0.0]], [[1, 10, 1.0, 0.0]]  # spacelike, but W ignores the cone
    verdict = check([[j, [[0, 100, 1.0, 0.0]], jp]], nonlocal_violation=True)
    assert not verdict.passed
    assert verdict.normal_max > 0.1


def test_section_addition_drops_cancelled_sites():
    # k's rows at (1, 1), timelike to j, add to 0: the site is in no support
    j, jp = [[0, 0, 1.0, 0.0]], [[0, 10, 1.0, 0.0]]
    k = [[1, 1, 1.0, 2.0], [0, 5, 3.0, 0.0], [1, 1, -1.0, -2.0]]
    verdict = check([[j, k, jp]])
    assert verdict.passed and verdict.causal_checked == 1 and verdict.normal_checked == 1
    with pytest.raises(PreconditionError, match=r"\(\(1, 1\), \(0, 0\)\)"):
        check([[j, k[:2], jp]])


def test_triples_from_rows_adds_repeated_sites():
    triples = triples_from_rows([[[[0, 0, 1.0, 0.0], [0, 0, 2.0, 1.0], [1, 2, 0.0, 0.0]],
                                  [], [[5, 7, 0.5, -1.0]]]])
    assert triples.amp.shape == triples.t.shape == triples.x.shape == (1, 3, 3)
    assert triples.t.dtype == triples.x.dtype == np.int64
    assert triples.amp[0, 0].tolist() == [1.0, 2 + 1j, 0.0]  # the kernel adds repeated rows
    assert triples.amp[0, 1].tolist() == [0, 0, 0] and triples.amp[0, 2, 0] == 0.5 - 1j
    assert (triples.t[0, 2, 0], triples.x[0, 2, 0]) == (5, 7)
    with pytest.raises(ConfigError, match=r"triples\[0\]"):
        triples_from_rows([[[[0, 0, 1.0]], [], []]])
    edge = triples_from_rows([[[], [], [[2**53, -2**53, 1.0, 0.0]]]])  # |t|, |x| = 2^53: a site
    assert (edge.t[0, 2, 0], edge.x[0, 2, 0]) == (2**53, -2**53)


def test_independence_relation_on_site_differences():
    _, indep = lattice_weyl_kernel()
    assert indep(0, 5) and indep(-2, 3)
    assert not indep(5, 2) and not indep(2, -2) and not indep(0, 0)
    assert indep(np.array([0, 5, 3]), np.array([1, 1, -4])).tolist() == [True, False, True]


def test_empty_triples_rejected():
    with pytest.raises(ConfigError):
        check([])


def test_an_overflowed_kernel_value_is_a_numerical_error():
    with pytest.raises(NumericalError, match="triple 0: a kernel value overflowed"):
        check([[[[0, 0, 100.0, 0.0]], [[0, 50, 1.0, 0.0]], [[5, 0, 0.0, -100.0]]]])


# rows in a few bands: j', and k, sometimes overlap j's cone; sites repeat
rows = st.lists(st.tuples(st.integers(0, 4), st.integers(-2, 2),
                          st.integers(-3, 3), st.integers(-3, 3)), max_size=4)


@st.composite
def triple_lists(draw):
    out = []
    for _ in range(draw(st.integers(1, 6))):
        shift_k = draw(st.sampled_from([0, 8, 20, 20, 20]))  # 8: sometimes, 20: never timelike
        shift_jp = draw(st.sampled_from([0, 40, 80]))
        out.append([[[t, x + dx, re / 2, im / 2] for t, x, re, im in draw(rows)]
                    for dx in (0, shift_k, shift_jp)])
    return out


@given(triple_lists(), st.booleans())
def test_array_route_matches_the_pairwise_oracle(triples, nonlocal_violation):
    try:
        want = causal_check_pairwise(triples, nonlocal_violation)
    except ValueError as exc:
        idx, name, bad = exc.args
        with pytest.raises(PreconditionError) as info:
            check(triples, nonlocal_violation)
        message = str(info.value)
        assert message.startswith(f"triple {idx}: k is not independent of {name}; ")
        named = ast.literal_eval(message.split("offending site pairs ")[1])
        assert len(named) == min(4, len(bad)) and set(named) <= bad
        return
    got = check(triples, nonlocal_violation)
    assert (got.normal_checked, got.causal_checked) == (want["normal_checked"],
                                                        want["causal_checked"])
    for key in ("normal_max", "causal_max"):
        assert abs(getattr(got, key) - want[key]) <= 1e-14 + 1e-14 * want["kernel_max"]
    assert got.passed == (max(want["normal_max"], want["causal_max"]) <= 1e-12)
