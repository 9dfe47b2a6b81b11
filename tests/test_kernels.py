"""Kernel catalog: values, symmetry, positivity, distances, map admissibility."""

import math

import numpy as np
import pytest

import oracles
from cohspace.errors import CoherenceViolationError, ConfigError, InvalidPointError
from cohspace.kernels import (
    Point,
    check_coherence,
    check_coherent_map,
    check_stack,
    classical_limit_space,
    cross_gram,
    debranges_space,
    discrete_space,
    distance,
    euclidean_subset,
    eval_kernel,
    gram_matrix,
    gu11_adjoint,
    heisenberg_space,
    icosahedron_space,
    icosahedron_vertices,
    klauder_space,
    linear_point_map,
    moebius_semigroup_member,
    moebius_space,
    power_space,
    sample_points,
    space_from_descriptor,
    spin_space,
    spin_t_space,
    trivial_space,
    validate_point,
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
    z = Point([1 + 2j, 0.5, -1j])
    w = Point([2.0, 1j, 0.25])
    assert eval_kernel(sp, z, w) == np.vdot(z.coords, w.coords)


def test_klauder_value_matches_closed_form():
    sp = klauder_space(1)
    z = Point([0.3 + 0.1j, 0.2 - 0.5j])
    w = Point([-0.1j, 0.4 + 0.2j])
    expected = np.exp(np.conj(0.3 + 0.1j) + (-0.1j) + np.conj(0.2 - 0.5j) * (0.4 + 0.2j))
    assert eval_kernel(sp, z, w) == pytest.approx(expected, rel=1e-15)


def test_spin_kernel_matches_monomial_embedding():
    # K = <z,z'>^n must equal the inner product of degree-n monomial vectors
    for n in (1, 2, 3, 4):
        sp = spin_space(n)
        rng = np.random.default_rng(RNG_SEED + n)
        z, w = sample_points(sp, rng, 2)
        lhs = eval_kernel(sp, z, w)
        rhs = np.vdot(oracles.spin_monomial_embed(n, z.coords), oracles.spin_monomial_embed(n, w.coords))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_power_kernel_exact_for_small_exponents():
    base = trivial_space(2)
    rng = np.random.default_rng(RNG_SEED)
    pts = sample_points(base, rng, 6)
    for n in (1, 2, 3):
        sp = power_space(base, n)
        for z in pts[:3]:
            for w in pts[3:]:
                assert eval_kernel(sp, z, w) == eval_kernel(base, z, w) ** n


def test_euclidean_subset_restriction_matches_trivial():
    sub = euclidean_subset(2)
    triv = trivial_space(2)
    rng = np.random.default_rng(RNG_SEED)
    pts = sample_points(sub, rng, 8)
    assert np.array_equal(gram_matrix(sub, pts), gram_matrix(triv, pts))


def test_euclidean_subset_samples_lie_in_their_own_ball():
    rng = np.random.default_rng(RNG_SEED)
    for radius in (0.5, 3.0):
        sub = euclidean_subset(2, radius=radius)
        coords = np.array([p.coords for p in sample_points(sub, rng, 200)])
        check_stack(sub, coords)   # raises on a sample outside the closed ball
    assert np.linalg.norm(coords, axis=1).max() > 1.0   # radius 3 reaches past the unit ball


def test_euclidean_subset_rejects_outside_points():
    sub = euclidean_subset(2)
    with pytest.raises(InvalidPointError):
        eval_kernel(sub, Point([1.5, 0.0]), Point([0.1, 0.0]))


# ------------------------------------------------------------ symmetry / PSD


def test_hermitian_symmetry_500_pairs():
    rng = np.random.default_rng(RNG_SEED)
    spaces = hermitian_catalog()
    pairs_per_space = 500 // len(spaces) + 1
    for sp in spaces:
        for _ in range(pairs_per_space):
            z, w = sample_points(sp, rng, 2)
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
            pts = sample_points(sp, rng, n)
            verdict = check_coherence(sp, pts, tol=1e-8)
            assert verdict.passed, f"{sp.kind}: min eig {verdict.min_eigenvalue:.3e}"
            runs += 1
            if runs >= 50:
                break


def test_gram_exactly_hermitian_by_construction():
    rng = np.random.default_rng(RNG_SEED)
    for sp in (trivial_space(3), klauder_space(1), spin_space(3)):
        g = gram_matrix(sp, sample_points(sp, rng, 7))
        assert np.array_equal(g, g.conj().T)


def test_gram_matches_bruteforce_oracle():
    rng = np.random.default_rng(RNG_SEED)
    sp = klauder_space(2)
    pts = sample_points(sp, rng, 6)
    g = gram_matrix(sp, pts)
    g0 = oracles.gram_bruteforce(sp.eval, pts)
    np.testing.assert_allclose(g, g0, rtol=0, atol=1e-13 * max(1.0, np.abs(g0).max()))


def test_a_point_list_on_both_sides_is_validated_once(monkeypatch):
    import cohspace.kernels as kernels

    sp = heisenberg_space(1)  # projective: the multipliers pair up as well
    pts = sample_points(sp, np.random.default_rng(RNG_SEED), 5)
    rows = []
    check = kernels.check_stack
    monkeypatch.setattr(kernels, "check_stack",
                        lambda space, coords, mults=None: (rows.append(len(coords)),
                                                           check(space, coords, mults))[1])

    def count(fn, *args):
        rows.clear()
        out = fn(sp, *args)
        return list(rows), out

    n_same, same = count(cross_gram, pts, pts)
    n_apart, apart = count(cross_gram, pts, list(pts))
    assert (n_same, n_apart) == ([5], [5, 5])  # one stacked check per distinct list
    assert same.tobytes() == apart.tobytes()
    assert count(gram_matrix, pts)[0] == [5]
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
    d, m = sp.label_dim, good.multiplier
    cases = [(Point(np.zeros(d + 1), m), True), (Point(np.full(d, np.nan), m), True),
             (Point(np.r_[np.inf, np.zeros(d - 1)], m), True),
             (Point(np.full(d, complex(0.0, -np.inf)), m), True), ("not a point", True)]
    if sp.projective_degree is not None:
        cases += [(Point(good.coords), True), (Point(good.coords, complex(np.nan, 1.0)), True),
                  (Point(np.full(d, np.nan)), True)]
    if sp.constraint is not None or sp.domain is not None:
        unit = sp.constraint_name == "unit spinor norm"
        one_off = good.coords + np.r_[np.zeros(d - 1), 0.5]  # the last coordinate moved
        cases += [(Point(np.full(d, 5.0), m), True),
                  (Point(one_off, m), True if sp.constraint is not None else None),
                  (Point(good.coords * (1 + 3e-12), m), True if unit else None),
                  (Point(good.coords * (1 + 3e-13), m), False)]
    return cases


def _first_rejection(sp, pts):
    """(index, error class, text) of the first label validate_point rejects
    on its own, or None: the per-point route, kept as the oracle."""
    for i, p in enumerate(pts):
        try:
            validate_point(sp, p)
        except InvalidPointError as exc:
            return i, type(exc), str(exc)
    return None


def _stacked_rejection(sp, pts):
    try:
        cross_gram(sp, pts, pts)
    except InvalidPointError as exc:
        return type(exc), str(exc)
    return None


def test_the_stacked_check_agrees_with_the_per_point_route():
    rng = np.random.default_rng(RNG_SEED)
    for sp in _checked_catalog():
        good = sample_points(sp, rng, 4)
        cases = _invalid_points(sp, good[0])
        for bad, verdict in cases:
            if verdict is not None:
                assert (_first_rejection(sp, [bad]) is not None) == verdict, (sp.kind, bad)
        bad = [b for b, _ in cases]
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
        verdict = check_coherence(sp, sample_points(sp, rng, 12), tol=1e-8)
        assert verdict.passed


def test_spin_fractional_exponents_fail_psd():
    # documented 8-point sample, seed frozen; genuine negativity, not roundoff
    for ex in (0.5, 1.3):
        sp = spin_space(ex)
        rng = np.random.default_rng(RNG_SEED)
        pts = sample_points(sp, rng, 8)
        verdict = check_coherence(sp, pts, tol=1e-8)
        assert not verdict.passed
        assert verdict.min_eigenvalue < -1e-6


def test_psd_verdict_threshold_semantics():
    sp = trivial_space(2)
    rng = np.random.default_rng(RNG_SEED)
    v = check_coherence(sp, sample_points(sp, rng, 5), tol=1e-8)
    assert v.passed == (v.min_eigenvalue >= -v.tolerance_used * max(1.0, v.gram_norm))
    assert v.gram_norm > 0


def test_classical_limit_gram_is_identity_on_real_points():
    sp = classical_limit_space(3)
    rng = np.random.default_rng(RNG_SEED)
    pts = sample_points(sp, rng, 6)
    np.testing.assert_array_equal(gram_matrix(sp, pts), np.eye(6))


# ------------------------------------------------------------------ distances


def test_distance_zero_on_equal_points_and_symmetry():
    rng = np.random.default_rng(RNG_SEED)
    for sp in (trivial_space(2), klauder_space(1), spin_space(2)):
        z, w = sample_points(sp, rng, 2)
        assert distance(sp, z, z) == 0.0
        assert distance(sp, z, w) == pytest.approx(distance(sp, w, z), rel=1e-12)


def test_triangle_inequality_1000_triples():
    rng = np.random.default_rng(RNG_SEED)
    spaces = [trivial_space(2), klauder_space(1), spin_space(2), spin_space(3),
              debranges_space([-2.0, 3j, 1.0]), moebius_space(), icosahedron_space()]
    per = 1000 // len(spaces) + 1
    for sp in spaces:
        for _ in range(per):
            a, b, c = sample_points(sp, rng, 3)
            dab, dbc, dac = distance(sp, a, b), distance(sp, b, c), distance(sp, a, c)
            assert dac <= dab + dbc + 1e-9


def test_distance_error_on_noncoherent_kernel():
    # diagonal 1 but off-diagonal 1.2: squared distance is -0.4
    tab = np.array([[1.0, 1.2], [1.2, 1.0]], dtype=complex)
    sp = discrete_space(tab)
    with pytest.raises(CoherenceViolationError):
        distance(sp, Point([0.0]), Point([1.0]))


# ----------------------------------------------------------------- de Branges


def test_debranges_default_is_constant_one():
    sp = debranges_space([1j, 1.0])  # E = z + i
    rng = np.random.default_rng(RNG_SEED)
    pts = sample_points(sp, rng, 10)
    for z in pts[:5]:
        for w in pts[5:]:
            assert eval_kernel(sp, z, w) == pytest.approx(1.0, abs=1e-12)
        assert eval_kernel(sp, z, z) == pytest.approx(1.0, abs=1e-12)


def test_debranges_branch_consistency_order_one():
    # generic branch must converge to the diagonal branch as z' -> conj(z),
    # with convergence order >= 1
    sp = debranges_space([-2.0, 3j, 1.0])
    z = Point([0.4 + 0.7j])
    diag = eval_kernel(sp, z, Point([np.conj(z.coords[0])]))
    hs = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    errs = []
    for h in hs:
        w = Point([np.conj(z.coords[0]) + h * np.exp(0.3j)])
        errs.append(abs(eval_kernel(sp, z, w) - diag))
    errs = np.array(errs)
    order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert order >= 0.9, f"observed order {order:.2f}"


def test_debranges_hermitian_across_branches():
    sp = debranges_space([-2.0, 3j, 1.0])
    z = Point([0.2 - 0.9j])
    # z' exactly conjugate-diagonal: both orders must hit the diagonal branch
    w = Point([np.conj(z.coords[0])])
    k, k2 = eval_kernel(sp, z, w), eval_kernel(sp, w, z)
    assert abs(k - np.conj(k2)) <= 1e-13 * (1 + abs(k))


def test_debranges_diagonal_nonnegative():
    sp = debranges_space([-2.0, 3j, 1.0])
    rng = np.random.default_rng(RNG_SEED)
    for z in sample_points(sp, rng, 20):
        kzz = eval_kernel(sp, z, z)
        assert abs(kzz.imag) < 1e-12 * (1 + abs(kzz))
        assert kzz.real >= -1e-12


# -------------------------------------------------------------------- Moebius


def test_moebius_kernel_psd_and_geometric_series():
    sp = moebius_space()
    rng = np.random.default_rng(RNG_SEED)
    pts = sample_points(sp, rng, 10)
    assert check_coherence(sp, pts).passed
    # value agrees with the geometric-series feature expansion
    z, w = pts[0], pts[1]
    a = np.conj(z.coords[0]) * w.coords[0]
    b = np.conj(z.coords[1]) * w.coords[1]
    series = sum((b / a) ** n / a for n in range(200))
    assert eval_kernel(sp, z, w) == pytest.approx(series, rel=1e-12)


def test_moebius_semigroup_members_and_nonmembers():
    member = moebius_semigroup_member
    assert member(np.diag([1.0, 0.5])).member
    assert member(np.array([[2.0, 0.1], [0.05, 1.0]])).member
    # swap map leaves the domain: alpha = -1
    v = member(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert not v.member and v.alpha < 0
    # |beta| > alpha
    assert not member(np.array([[1.0, 1.5], [0.0, 0.1]])).member


def test_moebius_semigroup_numbers_worked_by_hand():
    # alpha = |A11|^2 - |A21|^2, beta = conj(A11) A12 - conj(A21) A22,
    # gamma = |A22|^2 - |A12|^2; member iff gamma <= alpha - 2 |beta| (and more)
    v = moebius_semigroup_member(np.array([[6.0, 0.5], [1.0, 4j]]))
    # alpha = 36 - 1, beta = 3 - 4i, gamma = 16 - 0.25 <= 35 - 2 * 5
    assert (v.member, v.alpha, v.beta_abs, v.gamma) == (True, 35.0, 5.0, 15.75)
    v = moebius_semigroup_member(np.array([[3.0, 1.0], [1.0, 4j]]))
    # alpha = 9 - 1, beta = 3 - 4i, gamma = 16 - 1 > 8 - 2 * 5
    assert (v.member, v.alpha, v.beta_abs, v.gamma) == (False, 8.0, 5.0, 15.0)


def test_moebius_member_maps_preserve_domain_and_adjoint_identity():
    sp = moebius_space()
    rng = np.random.default_rng(RNG_SEED)
    pts = sample_points(sp, rng, 12)
    a = np.array([[2.0, 0.1], [0.05, 1.0]], dtype=complex)
    assert moebius_semigroup_member(a).member
    fwd = linear_point_map(a)
    adj = linear_point_map(gu11_adjoint(a))
    samples = list(zip(pts[:6], pts[6:]))
    passed, worst = check_coherent_map(sp, fwd, adj, samples, tol=1e-10)
    assert passed, f"worst residual {worst:.3e}"


def test_moebius_invalid_image_raises():
    sp = moebius_space()
    rng = np.random.default_rng(RNG_SEED)
    pts = sample_points(sp, rng, 4)
    swap = linear_point_map(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    with pytest.raises(InvalidPointError):
        check_coherent_map(sp, swap, swap, list(zip(pts[:2], pts[2:])))


# ------------------------------------------------- non-Hermitian catalog items


def test_spin_t_involutive_identity():
    sp = spin_t_space(2)
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(50):
        z, w = sample_points(sp, rng, 2)
        k = eval_kernel(sp, z, w)
        k_conj_labels = eval_kernel(sp, sp.conjugate(z), sp.conjugate(w))
        assert np.conj(k) == pytest.approx(k_conj_labels, rel=1e-12)
    with pytest.raises(InvalidPointError):
        check_coherence(sp, sample_points(sp, rng, 3))


def test_heisenberg_projective_degree_one_exact():
    sp = heisenberg_space(1)
    assert sp.projective_degree == 1
    rng = np.random.default_rng(RNG_SEED)
    z, w = sample_points(sp, rng, 2)
    for alpha in (2.0, -0.3 + 1.7j, 1j):
        scaled = sp.scalar_mult(alpha, z)
        assert eval_kernel(sp, scaled, w) == pytest.approx(alpha * eval_kernel(sp, z, w), rel=1e-12)


def test_heisenberg_involutive_identity_and_bilinearity():
    sp = heisenberg_space(1)
    rng = np.random.default_rng(RNG_SEED)
    z, w = sample_points(sp, rng, 2)
    k = eval_kernel(sp, z, w)
    assert np.conj(k) == pytest.approx(eval_kernel(sp, sp.conjugate(z), sp.conjugate(w)), rel=1e-12)
    # bilinear (not sesquilinear) in the multipliers
    assert eval_kernel(sp, sp.scalar_mult(1j, z), w) == pytest.approx(1j * k, rel=1e-12)
    with pytest.raises(InvalidPointError):
        eval_kernel(sp, Point(z.coords), w)  # missing multiplier


# ------------------------------------------------------- discrete / icosahedron


def test_icosahedron_gram_rank_three():
    sp = icosahedron_space()
    verts = icosahedron_vertices()
    pts = [Point(v.astype(complex)) for v in verts]
    g = gram_matrix(sp, pts)
    np.testing.assert_allclose(g, verts @ verts.T, atol=1e-14)
    eigs = np.linalg.eigvalsh(g)
    assert (eigs > 1e-8).sum() == 3
    np.testing.assert_allclose(eigs[-3:], 4.0, atol=1e-12)  # 12/3 by symmetry
    assert check_coherence(sp, pts).passed


def test_icosahedron_rejects_non_vertex():
    sp = icosahedron_space()
    with pytest.raises(InvalidPointError):
        eval_kernel(sp, Point([1.0, 0.0, 0.0]), Point([0.0, 1.0, 0.0]))


def test_discrete_space_table_lookup():
    tab = np.array([[1.0, 0.5j], [-0.5j, 2.0]])
    sp = discrete_space(tab)
    assert eval_kernel(sp, Point([0.0]), Point([1.0])) == 0.5j
    assert sp.hermitian
    assert check_coherence(sp, [Point([0.0]), Point([1.0])]).passed


# ------------------------------------------------------------------ descriptors


def test_descriptor_roundtrip_catalog():
    rng = np.random.default_rng(RNG_SEED)
    for sp in hermitian_catalog() + [spin_t_space(2), heisenberg_space(1),
                                     discrete_space(np.eye(3))]:
        sp2 = space_from_descriptor(sp.descriptor)
        assert sp2.descriptor == sp.descriptor
        assert sp2.kind == sp.kind and sp2.label_dim == sp.label_dim
        z, w = sample_points(sp, rng, 2)
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
        for p in sample_points(sp, rng, 5):
            eval_kernel(sp, p, p)  # validates both slots


def test_point_shape_mismatch_raises():
    sp = trivial_space(3)
    with pytest.raises(InvalidPointError):
        eval_kernel(sp, Point([1.0, 2.0]), Point([1.0, 2.0, 3.0]))
    with pytest.raises(InvalidPointError):
        eval_kernel(sp, Point([np.nan, 0.0, 0.0]), Point([1.0, 2.0, 3.0]))
