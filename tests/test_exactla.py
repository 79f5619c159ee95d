import random
from fractions import Fraction

import pytest

from tests.matrix_route import u_minus_space
from tests.oracles import ad_nilpotent, echelon_span
from vermabranch import (
    MatrixElement,
    PairSpec,
    bracket,
    build_pair,
    nilpotent_subalgebra_test,
    parabolic_from_simple_subset,
    span_of_matrices,
    tau_split,
    weight_decomposition,
)

E = MatrixElement.unit


def sl2_basis():
    return E(2, 0, 1), E(2, 1, 0), MatrixElement.diagonal([1, -1])


def test_bracket_sl2_relation():
    e, f, h = sl2_basis()
    assert bracket(e, f) == h
    assert bracket(h, e) == e.scale(2)
    assert bracket(h, f) == f.scale(-2)


def test_matrix_entries_refuse_floats():
    # a float holds no exact rational: 0.1 is not 1/10
    with pytest.raises(TypeError):
        MatrixElement(2, {(0, 1): 0.1})
    with pytest.raises(TypeError):
        MatrixElement.diagonal([1, 0.5])
    with pytest.raises(TypeError):
        E(2, 0, 1).scale(0.5)


def test_bracket_antisymmetry():
    e, f, h = sl2_basis()
    assert bracket(e, e).is_zero()
    assert bracket(e, f) == -bracket(f, e)


def test_bracket_dimension_mismatch():
    with pytest.raises(ValueError):
        bracket(E(2, 0, 1), E(3, 0, 1))


def test_echelon_span_dependent_vectors():
    s = echelon_span([(1, 0), (2, 0)])
    assert s.dim == 1
    assert s.rows == [{0: 1}]


def test_echelon_span_independent_vectors():
    assert echelon_span([(1, 1), (1, -1)]).dim == 2


def test_echelon_span_empty_is_zero_subspace():
    s = echelon_span([], ambient_dim=4)
    assert s.dim == 0
    assert s.ambient_dim == 4


def test_borel_nilradical_of_sl2():
    e, f, h = sl2_basis()
    u_minus = span_of_matrices([f])
    assert u_minus.dim == 1


def test_echelon_idempotence():
    rng = random.Random(7)
    for _ in range(20):
        vecs = [
            tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(5))
            for _ in range(4)
        ]
        s = echelon_span(vecs)
        again = echelon_span([dict(r) for r in s.rows], ambient_dim=5)
        assert again == s


def test_subspace_membership_and_coordinates():
    s = echelon_span([(1, 0, 1), (0, 1, 1)])
    assert s.contains_vector((2, 3, 5))
    assert not s.contains_vector((1, 0, 0))
    assert s.coordinates_of((2, 3, 5)) == [Fraction(2), Fraction(3)]
    assert s.coordinates_of((0, 0, 1)) is None


def test_intersection_and_sum():
    a = echelon_span([(1, 0, 0), (0, 1, 0)])
    b = echelon_span([(0, 1, 0), (0, 0, 1)])
    meet = a.intersect(b)
    assert meet.dim == 1 and meet.contains_vector((0, 1, 0))
    assert a.sum(b).dim == 3


def gl(n):
    return span_of_matrices([E(n, i, j) for i in range(n) for j in range(n)])


def test_nilpotent_strictly_upper_3x3():
    s = span_of_matrices([E(3, 0, 1), E(3, 0, 2), E(3, 1, 2)])
    rep = nilpotent_subalgebra_test(s, gl(3))
    assert rep.bracket_closed and rep.nilpotent and rep.lcs_length == 2


def test_nilpotent_not_closed_sl2():
    e, f, h = sl2_basis()
    rep = nilpotent_subalgebra_test(span_of_matrices([e, f]), span_of_matrices([e, f, h]))
    assert not rep.bracket_closed and not rep.nilpotent


def test_nilpotent_projected_nilradical_sl4_pair():
    # pr_tau(u) for the standard Borel nilradical of (sl4, s(gl2+gl2))
    pair = build_pair(PairSpec("sl_s_glgl", p=2, q=2))
    borel = parabolic_from_simple_subset(pair.g, set())
    pr = tau_split(pair, borel.u_plus).pr
    rep = nilpotent_subalgebra_test(pr, pair.g.matrices.algebra)
    assert rep.bracket_closed and rep.nilpotent


def test_nilpotent_rejects_alien_subspace():
    e, f, h = sl2_basis()
    sl2 = span_of_matrices([e, f, h])
    with pytest.raises(ValueError):
        nilpotent_subalgebra_test(span_of_matrices([MatrixElement.identity(2)]), sl2)


def test_ad_nilpotent_cases():
    e, f, h = sl2_basis()
    sl2 = span_of_matrices([e, f, h])
    assert ad_nilpotent(e, sl2)
    assert not ad_nilpotent(h, sl2)
    # e + f is semisimple: ad eigenvalues are 2, 0, -2 in the e+f eigenbasis
    assert not ad_nilpotent(e + f, sl2)
    # in gl2 the scalar part is central: I and e + I are ad-nilpotent, h + I is not
    gl2 = gl(2)
    one = MatrixElement.identity(2)
    assert ad_nilpotent(one, gl2)
    assert ad_nilpotent(e + one, gl2)
    assert not ad_nilpotent(h + one, gl2)
    with pytest.raises(ValueError):
        ad_nilpotent(one, sl2)
    # outside the assumption ([g, g] = g, or [g, g] + QI = g with I in g) it
    # raises: ad h = 0 on span{h}, but the matrix h is not nilpotent
    for z in (h, MatrixElement.diagonal([1, 0])):
        with pytest.raises(ValueError, match=r"needs \[g, g\] = g"):
            ad_nilpotent(z, span_of_matrices([z]))


def test_weight_decomposition_sl2_adjoint():
    e, f, h = sl2_basis()
    sl2 = span_of_matrices([e, f, h])
    parts = weight_decomposition([h], sl2)
    weights = sorted((wt[0] for wt, _ in parts), reverse=True)
    assert weights == [2, 0, -2]
    assert all(space.dim == 1 for _, space in parts)


def test_weight_decomposition_sl3():
    n = 3
    units = [E(n, i, j) for i in range(n) for j in range(n) if i != j]
    cartan = [MatrixElement.diagonal([1, -1, 0]), MatrixElement.diagonal([0, 1, -1])]
    sl3 = span_of_matrices(units + cartan)
    probes = [E(n, i, i) for i in range(n)]
    parts = weight_decomposition(probes, sl3)
    nonzero = [(wt, sp) for wt, sp in parts if any(wt)]
    zero = [sp for wt, sp in parts if not any(wt)]
    assert len(nonzero) == 6 and all(sp.dim == 1 for _, sp in nonzero)
    assert len(zero) == 1 and zero[0].dim == 2


def test_weight_decomposition_so6_down_so5_nilradical():
    # j^tau-weights of the -tau part of the Borel nilradical opposite
    pair = build_pair(PairSpec("so_down_so", m=5))
    borel = parabolic_from_simple_subset(pair.g, set())
    minus = tau_split(pair, u_minus_space(borel)).minus
    parts = weight_decomposition(pair.matrices.j_tau_probes, minus)
    weights = sorted(tuple(w) for w, _ in parts)
    assert weights == [(-1, 0), (0, -1)]
    assert all(space.dim == 1 for _, space in parts)


def test_weight_decomposition_requires_diagonal_family():
    e, f, h = sl2_basis()
    with pytest.raises(ValueError):
        weight_decomposition([e], span_of_matrices([e, f, h]))


def test_weight_decomposition_rejects_space_that_is_not_ad_stable():
    # E01 + E10 splits into weights 2 and -2, whose pieces leave the span
    e, f, h = sl2_basis()
    with pytest.raises(ValueError, match="non-semisimple"):
        weight_decomposition([h], span_of_matrices([e + f]))


def test_weight_decomposition_exhausts_space():
    pair = build_pair(PairSpec("sp_down_gl", n=2))
    parts = weight_decomposition(pair.matrices.j_tau_probes, pair.g.matrices.algebra)
    assert sum(space.dim for _, space in parts) == pair.g.dim
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            assert parts[i][1].intersect(parts[j][1]).dim == 0


def test_jacobi_identity_random_triples():
    pair = build_pair(PairSpec("sl_s_glgl", p=2, q=2))
    basis = pair.g.matrices.algebra.matrices()
    rng = random.Random(20260810)

    def rand_elt():
        z = MatrixElement.zero(pair.g.matrices.matrix_dim)
        for b in rng.sample(basis, 4):
            c = rng.randint(-3, 3)
            if c:
                z = z + b.scale(c)
        return z

    for _ in range(12):
        x, y, z = rand_elt(), rand_elt(), rand_elt()
        total = (
            bracket(x, bracket(y, z))
            + bracket(y, bracket(z, x))
            + bracket(z, bracket(x, y))
        )
        assert total.is_zero()


def test_nilpotent_implies_ad_nilpotent_cross_check():
    # criterion (ii) implies criterion (iii) on basis elements and on 20
    # fixed-seed rational combinations with coefficients in {-3..3}
    pair = build_pair(PairSpec("sl_s_glgl", p=2, q=2))
    borel = parabolic_from_simple_subset(pair.g, set())
    pr = tau_split(pair, borel.u_plus).pr
    rep = nilpotent_subalgebra_test(pr, pair.g.matrices.algebra)
    assert rep.nilpotent
    mats = pr.matrices()
    for z in mats:
        assert ad_nilpotent(z, pair.g.matrices.algebra)
    rng = random.Random(20260810)
    for _ in range(20):
        z = MatrixElement.zero(pair.g.matrices.matrix_dim)
        for m in mats:
            c = rng.randint(-3, 3)
            if c:
                z = z + m.scale(c)
        if not z.is_zero():
            assert ad_nilpotent(z, pair.g.matrices.algebra)
