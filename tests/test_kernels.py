"""Kernel catalog: values, symmetry, positivity, distances, descriptors, features."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

import oracles
from labels import label, points, sampled, stack
from cohspace.errors import ConfigError, InvalidPointError, NumericalError
from cohspace.kernels import (
    MONOMIAL_MAX_DEGREE,
    check_coherence,
    check_stack,
    classical_limit_space,
    cross_gram,
    debranges_space,
    discrete_space,
    euclidean_subset,
    eval_kernel,
    feature_matrix,
    gram_matrix,
    gram_spectrum,
    heisenberg_space,
    icosahedron_space,
    icosahedron_vertices,
    kernel_diagonal,
    klauder_space,
    linear_point_map,
    monomial_weights,
    moebius_space,
    power_space,
    principal_power,
    sample_points,
    space_from_descriptor,
    spin_space,
    spin_t_space,
    trivial_space,
)

RNG_SEED = 0


def hermitian_catalog():
    return [
        trivial_space(3),
        euclidean_subset(2),
        klauder_space(1),
        klauder_space(2),
        spin_space(2),
        spin_space(3),
        power_space(trivial_space(2), 2),
        debranges_space([1j, 1.0]),
        debranges_space([-2.0, 3j, 1.0]),  # E = (z+i)(z+2i)
        moebius_space(),
        icosahedron_space(),
        classical_limit_space(2),
    ]


# ---------------------------------------------------------------- basic values


def test_trivial_kernel_is_standard_inner_product():
    sp = trivial_space(3)
    z = label([1 + 2j, 0.5, -1j])
    w = label([2.0, 1j, 0.25])
    assert eval_kernel(sp, z, w) == np.vdot(z[0][0], w[0][0])


def test_klauder_value_matches_closed_form():
    sp = klauder_space(1)
    z = label([0.3 + 0.1j, 0.2 - 0.5j])
    w = label([-0.1j, 0.4 + 0.2j])
    expected = np.exp(np.conj(0.3 + 0.1j) + (-0.1j) + np.conj(0.2 - 0.5j) * (0.4 + 0.2j))
    assert eval_kernel(sp, z, w) == pytest.approx(expected, rel=1e-15)


def test_spin_kernel_matches_monomial_embedding():
    # K = <z,z'>^n must equal the inner product of degree-n monomial vectors
    for n in (1, 2, 3, 4):
        sp = spin_space(n)
        rng = np.random.default_rng(RNG_SEED + n)
        z, w = sampled(sp, rng, 2)
        lhs = eval_kernel(sp, z, w)
        rhs = np.vdot(oracles.spin_monomial_embed(n, z[0][0]), oracles.spin_monomial_embed(n, w[0][0]))
        assert lhs == pytest.approx(rhs, rel=1e-12)


# ---------------------------------------------------------------- features

FEATURE_KINDS = [trivial_space(3), euclidean_subset(4, 2.0), icosahedron_space(),
                 *(spin_space(n) for n in (0, 1, 3, 8, 40))]
_FEATURE_IDS = ["trivial3", "euclidean4", "icosahedron", "spin0", "spin1", "spin3", "spin8",
                "spin40"]


@pytest.mark.parametrize("sp", FEATURE_KINDS, ids=_FEATURE_IDS)
def test_features_reproduce_the_kernel(sp):
    """K(a, b) = <phi(a), phi(b)> on sampled labels, to 1e-14 |phi(a)| |phi(b)|
    (both sides round a sum of at most 41 products)."""
    rng = np.random.default_rng(RNG_SEED)
    (a, _), (b, _) = sample_points(sp, rng, 7), sample_points(sp, rng, 5)
    phi_a, phi_b = feature_matrix(sp, a), feature_matrix(sp, b)
    scale = np.outer(np.linalg.norm(phi_a, axis=1), np.linalg.norm(phi_b, axis=1))
    assert (np.abs(phi_a.conj() @ phi_b.T - sp.kernel(a, b)) <= 1e-14 * scale).all()


@pytest.mark.parametrize("n", [0, 1, 3, 8, 40])
def test_spin_features_are_the_oracle_monomials(n):
    sp = spin_space(n)
    coords, _ = sample_points(sp, np.random.default_rng(RNG_SEED + n), 6)
    phi = feature_matrix(sp, coords)
    assert phi.shape == (6, n + 1)
    for row, z in zip(phi, coords):
        np.testing.assert_allclose(row, oracles.spin_monomial_embed(n, z), rtol=1e-14, atol=1e-15)


def test_monomial_weights_are_root_binomials():
    for n in (0, 1, 8, MONOMIAL_MAX_DEGREE):
        w = monomial_weights(n)
        assert w.shape == (n + 1,) and np.isfinite(w).all()
        assert w[0] == w[-1] == 1.0
    top = MONOMIAL_MAX_DEGREE + 1  # the degree limit is where the weights leave float64
    with pytest.raises(OverflowError):
        math.sqrt(math.comb(top, top // 2))
    with pytest.raises(ConfigError, match=f"spin monomials of degree {top} overflow float64; "
                                          f"the degree limit is MONOMIAL_MAX_DEGREE = 1029"):
        monomial_weights(top)
    assert monomial_weights(8)[4] ** 2 == pytest.approx(70.0, rel=1e-15)


_NO_FEATURES = {
    "klauder": klauder_space(1),
    "spin2.5": spin_space(2.5),
    "spin-2": spin_space(-2),
    "spin-above-max-degree": spin_space(MONOMIAL_MAX_DEGREE + 1),
    "spin_t": spin_t_space(2),
    "classical_limit": classical_limit_space(2),
    "power-of-spin": power_space(spin_space(2), 2),
    "power-of-trivial": power_space(trivial_space(2), 1),
    "debranges": debranges_space(),
    "moebius": moebius_space(),
    "discrete": discrete_space(np.eye(2)),
    "heisenberg": heisenberg_space(1),
}


@pytest.mark.parametrize("name", list(_NO_FEATURES))
def test_kinds_without_a_finite_feature_map_carry_no_features(name):
    # a power inherits its base's checks and sampler, never its base's features
    assert _NO_FEATURES[name].features is None


def test_a_non_finite_feature_raises_naming_its_entry():
    sp = dataclasses.replace(trivial_space(1), features=lambda a: a * 1e300)
    with pytest.raises(NumericalError, match=r"trivial: the feature value at entry \(1, 0\) "
                                             r"is not finite"):
        feature_matrix(sp, np.array([[1.0], [1e10]], dtype=complex))
    with pytest.raises(InvalidPointError, match="unit spinor norm"):
        feature_matrix(spin_space(2), np.array([[1.0, 1.0]], dtype=complex))


# ---------------------------------------------- PSD verdicts: feature SVD against eigvalsh

_CHECK_KINDS = {**{f"trivial{d}": (trivial_space(d), d) for d in (1, 2, 3, 4)},
                "euclidean3": (euclidean_subset(3, 2.0), 3), "icosahedron": (icosahedron_space(), 3),
                **{f"spin{n}": (spin_space(n), n + 1) for n in (*range(9), 40)}}
# every feature kind with fewer labels than its D features (where D > 1), D labels and more
_CHECK_CASES = {f"{name}-{rel}": (sp, dim, count) for name, (sp, dim) in _CHECK_KINDS.items()
                for rel, count in (("fewer", dim - 1), ("equal", dim), ("more", 2 * dim + 3))
                if count}


@pytest.mark.parametrize("sp, dim, count", _CHECK_CASES.values(), ids=list(_CHECK_CASES))
def test_a_feature_kind_check_matches_eigvalsh_of_its_gram(sp, dim, count):
    """The verdict from sigma^2 against eigvalsh of the Gram (features=None):
    the same `passed`, `gram_norm` within 1e-14 of itself, and `min_eigenvalue`
    exactly 0.0 past D labels, where the Gram's is rounding noise within
    1e-12 lam_max; up to D labels it is the smallest sigma^2, within
    1e-14 lam_max of eigvalsh's (both err by a few eps lam_max)."""
    coords, mults = sample_points(sp, np.random.default_rng(RNG_SEED), count)
    svd = check_coherence(sp, coords, mults)
    gram = check_coherence(dataclasses.replace(sp, features=None), coords, mults)
    assert svd.passed and gram.passed
    assert abs(svd.gram_norm - gram.gram_norm) <= 1e-14 * gram.gram_norm
    if count > dim:
        assert svd.min_eigenvalue == 0.0 and math.copysign(1.0, svd.min_eigenvalue) == 1.0
        assert abs(gram.min_eigenvalue) <= 1e-12 * gram.gram_norm
    else:
        assert svd.min_eigenvalue == gram_spectrum(sp, coords, mults)[0][count - 1] >= 0.0
        assert abs(svd.min_eigenvalue - gram.min_eigenvalue) <= 1e-14 * gram.gram_norm


def test_power_kernel_exact_for_small_exponents():
    base = trivial_space(2)
    rng = np.random.default_rng(RNG_SEED)
    pts = sampled(base, rng, 6)
    for n in (1, 2, 3):
        sp = power_space(base, n)
        for z in pts[:3]:
            for w in pts[3:]:
                assert eval_kernel(sp, z, w) == eval_kernel(base, z, w) ** n


def test_euclidean_subset_restriction_matches_trivial():
    sub = euclidean_subset(2)
    triv = trivial_space(2)
    rng = np.random.default_rng(RNG_SEED)
    coords, _ = sample_points(sub, rng, 8)
    assert np.array_equal(gram_matrix(sub, coords), gram_matrix(triv, coords))


def test_euclidean_subset_samples_lie_in_their_own_ball():
    rng = np.random.default_rng(RNG_SEED)
    for radius in (0.5, 3.0):
        sub = euclidean_subset(2, radius=radius)
        coords, _ = sample_points(sub, rng, 200)
        check_stack(sub, coords)   # raises on a sample outside the closed ball
    assert np.linalg.norm(coords, axis=1).max() > 1.0   # radius 3 reaches past the unit ball


def test_euclidean_subset_rejects_outside_points():
    sub = euclidean_subset(2)
    with pytest.raises(InvalidPointError):
        eval_kernel(sub, label([1.5, 0.0]), label([0.1, 0.0]))


# ------------------------------------------------------------ symmetry / PSD


def test_hermitian_symmetry_500_pairs():
    rng = np.random.default_rng(RNG_SEED)
    spaces = hermitian_catalog()
    pairs_per_space = 500 // len(spaces) + 1
    for sp in spaces:
        for _ in range(pairs_per_space):
            z, w = sampled(sp, rng, 2)
            k = eval_kernel(sp, z, w)
            k2 = eval_kernel(sp, w, z)
            assert abs(k - np.conj(k2)) <= 1e-12 * (1.0 + abs(k))


def test_positivity_50_seeded_samples():
    rng = np.random.default_rng(RNG_SEED)
    spaces = hermitian_catalog()
    runs = 0
    while runs < 50:
        for sp in spaces:
            n = int(rng.integers(2, 13))
            verdict = check_coherence(sp, *sample_points(sp, rng, n), tol=1e-8)
            assert verdict.passed, f"{sp.kind}: min eig {verdict.min_eigenvalue:.3e}"
            runs += 1
            if runs >= 50:
                break


def test_gram_exactly_hermitian_by_construction():
    rng = np.random.default_rng(RNG_SEED)
    for sp in (trivial_space(3), klauder_space(1), spin_space(3)):
        g = gram_matrix(sp, *sample_points(sp, rng, 7))
        assert np.array_equal(g, g.conj().T)


def test_gram_matches_bruteforce_oracle():
    rng = np.random.default_rng(RNG_SEED)
    sp = klauder_space(2)
    pts = sampled(sp, rng, 6)
    g = gram_matrix(sp, *stack(pts, 3))
    g0 = oracles.gram_bruteforce(lambda z, w: eval_kernel(sp, z, w), pts)
    np.testing.assert_allclose(g, g0, rtol=0, atol=1e-13 * max(1.0, np.abs(g0).max()))


def test_a_point_list_on_both_sides_is_validated_once(monkeypatch):
    import cohspace.kernels as kernels

    sp = heisenberg_space(1)  # projective: the multipliers pair up as well
    coords, mults = sample_points(sp, np.random.default_rng(RNG_SEED), 5)
    pts = points(coords, mults)
    rows = []
    check = kernels.check_stack
    monkeypatch.setattr(kernels, "check_stack",
                        lambda space, coords, mults=None: (rows.append(len(coords)),
                                                           check(space, coords, mults))[1])

    def count(fn, *args):
        rows.clear()
        out = fn(sp, *args)
        return list(rows), out

    n_same, same = count(cross_gram, coords, mults)
    n_apart, apart = count(cross_gram, coords, mults, coords.copy(), mults.copy())
    assert (n_same, n_apart) == ([5], [5, 5])  # one stacked check per distinct stack
    assert same.tobytes() == apart.tobytes()
    assert count(gram_matrix, coords, mults)[0] == [5]
    n_diag, diag = count(eval_kernel, pts[2], pts[2])
    assert n_diag == [1] and diag == same[2, 2]
    assert count(eval_kernel, pts[2], pts[3]) == ([1, 1], same[2, 3])


def _checked_catalog():
    """Every catalog kind, with the constraint, domain and line-bundle cases."""
    return hermitian_catalog() + [
        spin_space(2.5), spin_t_space(2), heisenberg_space(2),
        power_space(heisenberg_space(1), 2), power_space(spin_space(2), 3),
        discrete_space(np.eye(3)),
    ]


def _invalid_points(sp, good):
    """(label, verdict) for each way a label can go wrong in sp: True when it
    must be rejected, False when it must pass, None when the kind decides."""
    d, m = sp.label_dim, None if good[1] is None else good[1][0]
    cases = [(label(np.zeros(d + 1), m), True), (label(np.full(d, np.nan), m), True),
             (label(np.r_[np.inf, np.zeros(d - 1)], m), True),
             (label(np.full(d, complex(0.0, -np.inf)), m), True)]
    if sp.projective_degree is not None:
        cases += [(label(good[0][0]), True), (label(good[0][0], complex(np.nan, 1.0)), True),
                  (label(np.full(d, np.nan)), True)]
    if sp.constraint is not None or sp.domain is not None:
        unit = sp.constraint_name == "unit spinor norm"
        one_off = good[0][0] + np.r_[np.zeros(d - 1), 0.5]  # the last coordinate moved
        cases += [(label(np.full(d, 5.0), m), True),
                  (label(one_off, m), True if sp.constraint is not None else None),
                  (label(good[0][0] * (1 + 3e-12), m), True if unit else None),
                  (label(good[0][0] * (1 + 3e-13), m), False)]
    return cases


def _first_rejection(sp, pts):
    """(index, error class, text) of the first label the stacked check
    rejects on its own, or None: the per-point route, kept as the oracle."""
    for i, p in enumerate(pts):
        try:
            check_stack(sp, *stack([p], p[0].shape[1]))
        except InvalidPointError as exc:
            return i, type(exc), str(exc)
    return None


def _stacked_rejection(sp, pts):
    try:
        cross_gram(sp, *stack(pts, sp.label_dim))
    except InvalidPointError as exc:
        return type(exc), str(exc)
    return None


def test_the_stacked_check_agrees_with_the_per_point_route():
    rng = np.random.default_rng(RNG_SEED)
    for sp in _checked_catalog():
        good = sampled(sp, rng, 4)
        cases = _invalid_points(sp, good[0])
        for bad, verdict in cases:
            if verdict is not None:
                assert (_first_rejection(sp, [bad]) is not None) == verdict, (sp.kind, bad)
        # the labels a stack can hold: d coordinates, multipliers on a line bundle
        bad = [b for b, _ in cases if b[0][0].shape == (sp.label_dim,)
               and (b[1] is None) == (sp.projective_degree is None)]
        lists = ([good] + [good[:2] + [b] + good[2:] for b in bad]
                 + [[b, c] + good for b, c in zip(bad, bad[1:] + bad[:1])])
        for pts in lists:
            want = _first_rejection(sp, pts)
            if want is None:
                assert _stacked_rejection(sp, pts) is None, (sp.kind, pts)
                continue
            i, cls, text = want
            assert _stacked_rejection(sp, pts) == (cls, text), (sp.kind, pts)
            assert _stacked_rejection(sp, pts[:i]) is None  # the same first bad label


def test_spin_integer_exponents_are_coherent():
    rng = np.random.default_rng(RNG_SEED)
    for n in (0, 1, 2, 3, 4):
        sp = spin_space(n)
        verdict = check_coherence(sp, *sample_points(sp, rng, 12), tol=1e-8)
        assert verdict.passed


def test_spin_fractional_exponents_fail_psd():
    # documented 8-point sample, seed frozen; genuine negativity, not roundoff
    for ex in (0.5, 1.3):
        sp = spin_space(ex)
        rng = np.random.default_rng(RNG_SEED)
        verdict = check_coherence(sp, *sample_points(sp, rng, 8), tol=1e-8)
        assert not verdict.passed
        assert verdict.min_eigenvalue < -1e-6


def _old_principal_power(s, n):
    """The complex-log route the polar form replaced, kept as the oracle."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(s != 0, np.exp(n * np.log(s)), 0.0j)


@pytest.mark.parametrize("n", [0.5, 0.6, 2.5, 7.5, -0.5])
def test_fractional_spin_kernel_agrees_with_the_complex_log_route(n):
    sp = spin_space(n)
    worst = 0.0
    for seed in range(3):
        for count in (40, 90, 150):
            coords, _ = sample_points(sp, np.random.default_rng(seed), count)
            old = _old_principal_power(coords.conj() @ coords.T, n)
            new = cross_gram(sp, coords)
            worst = max(worst, float((np.abs(new - old) / np.abs(old)).max()))
    assert worst <= 1e-14


@pytest.mark.parametrize("n", [0.5, 2.5, -0.5])
def test_fractional_spin_kernel_is_zero_on_orthogonal_spinors(n):
    sp = spin_space(n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = cross_gram(sp, np.array([[1.0, 0.0], [0.0, 1.0j], [0.6, 0.8]]))
    assert g[0, 1] == 0 and g[1, 0] == 0
    assert not np.signbit(g[0, 1].real) and not np.signbit(g[0, 1].imag)
    assert g[0, 2] == np.exp(n * np.log(0.6)) and g[1, 2] != 0  # <(0, i), (0.6, 0.8)> = -0.8i


@pytest.mark.parametrize("n", [0.5, 0.6, 2.5, 7.5, -0.5])
def test_principal_power_takes_np_logs_branch_on_the_negative_axis(n):
    # arg(-x + 0i) = pi and arg(-x - 0i) = -pi, as for np.log
    s = np.array([-2.0, -0.3, -1.0, -1e-3]) + 0j
    below = s.copy()
    below.imag = -0.0
    assert not np.signbit(s.imag).any() and np.signbit(below.imag).all()
    for side in (s, below):
        new, old = principal_power(side, n), _old_principal_power(side, n)
        assert (np.abs(new - old) <= 1e-14 * np.abs(old)).all()
        assert (np.signbit(new.imag) == np.signbit(old.imag)).all()
    np.testing.assert_array_equal(principal_power(below, n), principal_power(s, n).conj())


@pytest.mark.parametrize("n", [0.6, 2.5, -0.5])
def test_fractional_spin_diagonal_is_exactly_real(n):
    sp = spin_space(n)
    coords, _ = sp.sampler(np.random.default_rng(1), 40)
    diag = kernel_diagonal(sp, coords)
    rows = coords[:, None]
    s = (rows.conj() @ rows.swapaxes(-1, -2))[:, 0, 0]  # |z|^2, as the kernel forms it
    assert (s.imag == 0).all() and (diag.imag == 0).all()
    np.testing.assert_array_equal(diag.real, np.exp(n * np.log(s.real)))


def test_psd_verdict_threshold_semantics():
    sp = trivial_space(2)
    rng = np.random.default_rng(RNG_SEED)
    v = check_coherence(sp, *sample_points(sp, rng, 5), tol=1e-8)
    assert v.passed == (v.min_eigenvalue >= -v.tolerance_used * max(1.0, v.gram_norm))
    assert v.gram_norm > 0


def test_classical_limit_gram_is_identity_on_real_points():
    sp = classical_limit_space(3)
    rng = np.random.default_rng(RNG_SEED)
    np.testing.assert_array_equal(gram_matrix(sp, *sample_points(sp, rng, 6)), np.eye(6))


# ------------------------------------------------------------------ distances


def test_triangle_inequality_1000_triples():
    rng = np.random.default_rng(RNG_SEED)
    spaces = [trivial_space(2), klauder_space(1), spin_space(2), spin_space(3),
              debranges_space([-2.0, 3j, 1.0]), moebius_space(), icosahedron_space()]
    per = 1000 // len(spaces) + 1
    for sp in spaces:
        for _ in range(per):
            g = gram_matrix(sp, *sample_points(sp, rng, 3)).real
            d = np.sqrt(np.maximum(np.add.outer(g.diagonal(), g.diagonal()) - 2.0 * g, 0.0))
            assert d[0, 2] <= d[0, 1] + d[1, 2] + 1e-9


# ----------------------------------------------------------------- de Branges


def test_debranges_default_is_constant_one():
    sp = debranges_space([1j, 1.0])  # E = z + i
    rng = np.random.default_rng(RNG_SEED)
    pts = sampled(sp, rng, 10)
    for z in pts[:5]:
        for w in pts[5:]:
            assert eval_kernel(sp, z, w) == pytest.approx(1.0, abs=1e-12)
        assert eval_kernel(sp, z, z) == pytest.approx(1.0, abs=1e-12)


def test_debranges_branch_consistency_order_one():
    # generic branch must converge to the diagonal branch as z' -> conj(z),
    # with convergence order >= 1
    sp = debranges_space([-2.0, 3j, 1.0])
    z = label([0.4 + 0.7j])
    diag = eval_kernel(sp, z, label([np.conj(z[0][0][0])]))
    hs = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    errs = []
    for h in hs:
        w = label([np.conj(z[0][0][0]) + h * np.exp(0.3j)])
        errs.append(abs(eval_kernel(sp, z, w) - diag))
    errs = np.array(errs)
    order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert order >= 0.9, f"observed order {order:.2f}"


def test_debranges_hermitian_across_branches():
    sp = debranges_space([-2.0, 3j, 1.0])
    z = label([0.2 - 0.9j])
    # z' exactly conjugate-diagonal: both orders must hit the diagonal branch
    w = label([np.conj(z[0][0][0])])
    k, k2 = eval_kernel(sp, z, w), eval_kernel(sp, w, z)
    assert abs(k - np.conj(k2)) <= 1e-13 * (1 + abs(k))


def test_debranges_diagonal_nonnegative():
    sp = debranges_space([-2.0, 3j, 1.0])
    rng = np.random.default_rng(RNG_SEED)
    for z in sampled(sp, rng, 20):
        kzz = eval_kernel(sp, z, z)
        assert abs(kzz.imag) < 1e-12 * (1 + abs(kzz))
        assert kzz.real >= -1e-12


# -------------------------------------------------------------------- Moebius


def test_moebius_kernel_psd_and_geometric_series():
    sp = moebius_space()
    rng = np.random.default_rng(RNG_SEED)
    pts = sampled(sp, rng, 10)
    assert check_coherence(sp, *stack(pts, 2)).passed
    # value agrees with the geometric-series feature expansion
    z, w = pts[0], pts[1]
    a = np.conj(z[0][0][0]) * w[0][0][0]
    b = np.conj(z[0][0][1]) * w[0][0][1]
    series = sum((b / a) ** n / a for n in range(200))
    assert eval_kernel(sp, z, w) == pytest.approx(series, rel=1e-12)


def mapped(label_map, z):
    """The image of the label z under a map of label stacks."""
    return label_map(z[0]), z[1]


def maps_into_domain(sp, matrix, pts):
    """Whether z -> matrix z keeps every point in the domain: eval_kernel
    raises InvalidPointError on an image outside it."""
    image = linear_point_map(matrix)
    try:
        for z in pts:
            eval_kernel(sp, z, mapped(image, z))
    except InvalidPointError:
        return False
    return True


def test_moebius_semigroup_members_and_nonmembers():
    sp = moebius_space()
    rng = np.random.default_rng(RNG_SEED)
    pts = sampled(sp, rng, 40)
    # points of the cone {|z1| > |z2|} right up to its boundary, all phases
    phases = np.exp(2j * np.pi * np.arange(16) / 16)
    pts += [label([1.0, 0.999 * ph]) for ph in phases]
    assert maps_into_domain(sp, np.diag([1.0, 0.5]), pts)
    assert maps_into_domain(sp, np.array([[2.0, 0.1], [0.05, 1.0]]), pts)
    # the swap map sends every point of the domain out of it
    assert not maps_into_domain(sp, np.array([[0.0, 1.0], [1.0, 0.0]]), pts)
    # |beta| > alpha: (1, -0.66) -> (1 - 0.99, -0.066) leaves the domain
    assert not maps_into_domain(sp, np.array([[1.0, 1.5], [0.0, 0.1]]), [label([1.0, -0.66])])


def test_moebius_semigroup_numbers_worked_by_hand():
    sp = moebius_space()
    # A = [[6, 0.5], [1, 4i]]: A (1, 0) = (6, 1), so K((1, 0), A (1, 0)) = 1/6
    member = np.array([[6.0, 0.5], [1.0, 4j]])
    image = mapped(linear_point_map(member), label([1.0, 0.0]))
    np.testing.assert_array_equal(image[0][0], [6.0, 1.0])
    assert eval_kernel(sp, label([1.0, 0.0]), image) == pytest.approx(1.0 / 6.0, rel=1e-15)
    edge = [label([1.0, 0.999 * np.exp(2j * np.pi * k / 32)]) for k in range(32)]
    assert maps_into_domain(sp, member, edge)
    # A = [[3, 1], [1, 4i]]: A (1, -0.9i) = (3 - 0.9i, 4.6), and |3 - 0.9i| < 4.6
    nonmember = np.array([[3.0, 1.0], [1.0, 4j]])
    image = mapped(linear_point_map(nonmember), label([1.0, -0.9j]))
    np.testing.assert_allclose(image[0][0], [3.0 - 0.9j, 4.6], rtol=0, atol=1e-15)
    assert not maps_into_domain(sp, nonmember, [label([1.0, -0.9j])])


def test_moebius_member_maps_preserve_domain_and_adjoint_identity():
    # A = [[2, 0.1], [0.05, 1]] maps {|z1| > |z2|} into itself, and the kernel
    # obeys K(z, A w) = K(A* z, w) with the GU(1,1) adjoint A* = J A^H J,
    # J = diag(1, -1); eval_kernel checks each image against the domain
    sp = moebius_space()
    rng = np.random.default_rng(RNG_SEED)
    pts = sampled(sp, rng, 12)
    a = np.array([[2.0, 0.1], [0.05, 1.0]], dtype=complex)
    j = np.diag([1.0, -1.0])
    fwd, adj = linear_point_map(a), linear_point_map(j @ a.conj().T @ j)
    for z, w in zip(pts[:6], pts[6:]):
        lhs, rhs = eval_kernel(sp, z, mapped(fwd, w)), eval_kernel(sp, mapped(adj, z), w)
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_moebius_invalid_image_raises():
    sp = moebius_space()
    rng = np.random.default_rng(RNG_SEED)
    pts = sampled(sp, rng, 4)
    swap = linear_point_map(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    for z, w in zip(pts[:2], pts[2:]):
        with pytest.raises(InvalidPointError):
            eval_kernel(sp, z, mapped(swap, w))


# ------------------------------------------------- non-Hermitian catalog items


def test_spin_t_involutive_identity():
    sp = spin_t_space(2)
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(50):
        z, w = sampled(sp, rng, 2)
        k = eval_kernel(sp, z, w)
        k_conj_labels = eval_kernel(sp, label(z[0][0].conj()), label(w[0][0].conj()))
        assert np.conj(k) == pytest.approx(k_conj_labels, rel=1e-12)
    with pytest.raises(InvalidPointError):
        check_coherence(sp, *sample_points(sp, rng, 3))


def test_heisenberg_projective_degree_one_exact():
    sp = heisenberg_space(1)
    assert sp.projective_degree == 1
    rng = np.random.default_rng(RNG_SEED)
    z, w = sampled(sp, rng, 2)
    for alpha in (2.0, -0.3 + 1.7j, 1j):
        scaled = z[0], alpha * z[1]
        assert eval_kernel(sp, scaled, w) == pytest.approx(alpha * eval_kernel(sp, z, w), rel=1e-12)


def test_heisenberg_involutive_identity_and_bilinearity():
    sp = heisenberg_space(1)
    rng = np.random.default_rng(RNG_SEED)
    z, w = sampled(sp, rng, 2)
    k = eval_kernel(sp, z, w)
    zc, wc = ((c.conj(), m.conj()) for c, m in (z, w))
    assert np.conj(k) == pytest.approx(eval_kernel(sp, zc, wc), rel=1e-12)
    # bilinear (not sesquilinear) in the multipliers
    assert eval_kernel(sp, (z[0], 1j * z[1]), w) == pytest.approx(1j * k, rel=1e-12)
    with pytest.raises(InvalidPointError):
        eval_kernel(sp, (z[0], None), w)  # missing multiplier


# ------------------------------------------------------- discrete / icosahedron


def test_icosahedron_gram_rank_three():
    sp = icosahedron_space()
    verts = icosahedron_vertices()
    g = gram_matrix(sp, verts.astype(complex))
    np.testing.assert_allclose(g, verts @ verts.T, atol=1e-14)
    eigs = np.linalg.eigvalsh(g)
    assert (eigs > 1e-8).sum() == 3
    np.testing.assert_allclose(eigs[-3:], 4.0, atol=1e-12)  # 12/3 by symmetry
    assert check_coherence(sp, verts.astype(complex)).passed


def test_icosahedron_rejects_non_vertex():
    sp = icosahedron_space()
    with pytest.raises(InvalidPointError):
        eval_kernel(sp, label([1.0, 0.0, 0.0]), label([0.0, 1.0, 0.0]))


def test_discrete_space_table_lookup():
    tab = np.array([[1.0, 0.5j], [-0.5j, 2.0]])
    sp = discrete_space(tab)
    assert eval_kernel(sp, label([0.0]), label([1.0])) == 0.5j
    assert sp.hermitian
    assert check_coherence(sp, np.array([[0.0], [1.0]], dtype=complex)).passed


# ------------------------------------------------------------------ descriptors


def test_descriptor_roundtrip_catalog():
    rng = np.random.default_rng(RNG_SEED)
    for sp in hermitian_catalog() + [spin_t_space(2), heisenberg_space(1),
                                     discrete_space(np.eye(3))]:
        sp2 = space_from_descriptor(sp.descriptor)
        assert sp2.descriptor == sp.descriptor
        assert sp2.kind == sp.kind and sp2.label_dim == sp.label_dim
        z, w = sampled(sp, rng, 2)
        assert eval_kernel(sp2, z, w) == eval_kernel(sp, z, w)


def test_descriptor_errors():
    with pytest.raises(ConfigError):
        space_from_descriptor({"kind": "nope"})
    with pytest.raises(ConfigError):
        space_from_descriptor({"kind": "spin"})  # missing exponent
    with pytest.raises(ConfigError):
        space_from_descriptor("spin")


def test_sampled_points_are_valid_everywhere():
    rng = np.random.default_rng(RNG_SEED)
    for sp in hermitian_catalog() + [spin_t_space(2), heisenberg_space(1)]:
        for p in sampled(sp, rng, 5):
            eval_kernel(sp, p, p)  # validates both slots


def test_point_shape_mismatch_raises():
    sp = trivial_space(3)
    with pytest.raises(InvalidPointError):
        eval_kernel(sp, label([1.0, 2.0]), label([1.0, 2.0, 3.0]))
    with pytest.raises(InvalidPointError):
        eval_kernel(sp, label([np.nan, 0.0, 0.0]), label([1.0, 2.0, 3.0]))
