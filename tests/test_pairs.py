import itertools
from fractions import Fraction

import pytest

from tests.matrix_route import (
    check_involution,
    jtau_params_of_matrix,
    restricted_root_spaces,
    u_minus_space,
)
from tests.oracles import acts_trivially_on_j, build_classical
from vermabranch import (
    ClassicalType,
    Involution,
    MatrixElement,
    PairSpec,
    SymmetricPair,
    bracket,
    build_pair,
    parabolic_from_simple_subset,
    restricted_root_data,
    root_datum,
    tau_split,
)
from vermabranch.pairs import PAIR_KINDS, catalog_pairs


def test_pair_spec_parse_roundtrip():
    spec = PairSpec.parse("gl_down_gl:n=3,l=2")
    assert spec.kind == "gl_down_gl" and spec.get("n") == 3 and spec.get("l") == 2
    assert PairSpec.parse(spec.id) == spec


def test_catalog_ids_parse_back_to_themselves():
    for spec in catalog_pairs(7):
        assert PairSpec.parse(spec.id).id == spec.id
    # parameters may come in any order; the id lists them sorted
    assert PairSpec.parse("gl_down_gl:n=4,l=1").id == "gl_down_gl:l=1,n=4"


def test_pair_ids_with_leading_zeros_are_rejected():
    with pytest.raises(ValueError, match=r"^pair parameter m=04 is not canonical: write m=4$"):
        PairSpec.parse("so_down_so:m=04")
    with pytest.raises(ValueError, match=r"^pair parameter p=02 is not canonical: write p=2$"):
        PairSpec.parse("sl_s_glgl:p=02,q=2")
    with pytest.raises(ValueError, match=r"^group_case type 'A01' is not canonical: write A1$"):
        build_pair(PairSpec.parse("group_case:type=A01"))


def test_pair_spec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        PairSpec("mystery", n=1)


def test_pair_spec_rejects_unknown_and_missing_params():
    with pytest.raises(ValueError, match=r"^unknown parameter 'n' for so_down_so \(takes m\)$"):
        PairSpec.parse("so_down_so:m=5,n=3")
    with pytest.raises(ValueError, match=r"^unknown parameter 'q' for group_case \(takes type\)$"):
        PairSpec.parse("group_case:type=A1,q=7")
    with pytest.raises(ValueError, match=r"^missing parameter 'l' for gl_down_gl \(takes n, l\)$"):
        PairSpec("gl_down_gl", n=2)


def test_pair_spec_rejects_bad_params():
    with pytest.raises(ValueError):
        build_pair(PairSpec("gl_down_gl", n=2, l=5))
    with pytest.raises(ValueError):
        build_pair(PairSpec("so_down_so", m=3))
    with pytest.raises(ValueError):
        build_pair(PairSpec("sp_down_gl", n=1))


def test_build_sl4_glgl22(pairs):
    pair = pairs("sl_s_glgl", p=2, q=2)
    assert pair.g.dim == 15
    assert pair.matrices.fixed.dim == 7


def test_build_so5_so4(pairs):
    pair = pairs("so_down_so", m=4)
    assert pair.matrices.fixed.dim == 6  # dim so4


def test_build_sp4_gl2(pairs):
    pair = pairs("sp_down_gl", n=2)
    assert pair.matrices.fixed.dim == 4  # dim gl2


def test_build_group_case(pairs):
    pair = pairs("group_case", type="A1")
    assert pair.g.dim == 6 and pair.matrices.fixed.dim == 3
    assert not acts_trivially_on_j(pair)  # the factor swap is outer


@pytest.mark.parametrize(
    "family,rank,tau,message",
    [
        # diag(1, 1, 1, -1) does not fix the symplectic form of sp4
        ("C", 2, Involution(MatrixElement.diagonal([1, 1, 1, -1])), "preserve the algebra"),
        # [[1, 1], [0, -1]] squares to 1 but moves the diagonal Cartan of sl2
        ("A", 1, Involution(MatrixElement(2, {(0, 0): 1, (0, 1): 1, (1, 1): -1})),
         "preserve the Cartan"),
        # Z -> 3Z preserves everything but is no involution
        ("A", 1, lambda z: z.scale(3), "do not exhaust"),
    ],
)
def test_matrix_oracle_checks_the_conjugator(family, rank, tau, message):
    g = build_classical(ClassicalType(family, rank))
    with pytest.raises(AssertionError, match=message):
        check_involution(g, tau)


def test_involution_squares_to_identity(pairs):
    for kind, params in [
        ("sl_s_glgl", {"p": 2, "q": 2}),
        ("so_down_so", {"m": 5}),
        ("sp_down_gl", {"n": 2}),
        ("group_case", {"type": "A1"}),
    ]:
        pair = pairs(kind, **params)
        for b in pair.g.matrices.algebra.matrices():
            assert pair.matrices.tau(pair.matrices.tau(b)) == b


def test_involution_is_automorphism(pairs):
    pair = pairs("so_down_so", m=5)
    basis = pair.g.matrices.algebra.matrices()
    for x, y in itertools.islice(itertools.combinations(basis, 2), 40):
        assert pair.matrices.tau(bracket(x, y)) == bracket(pair.matrices.tau(x), pair.matrices.tau(y))


def test_eigenspace_split_dimensions(pairs):
    for kind, params in [
        ("gl_down_gl", {"n": 2, "l": 1}),
        ("sl_s_glgl", {"p": 2, "q": 2}),
        ("so_down_so", {"m": 4}),
        ("so_down_so", {"m": 5}),
        ("sp_down_gl", {"n": 2}),
        ("group_case", {"type": "A1"}),
    ]:
        pair = pairs(kind, **params)
        assert pair.matrices.fixed.dim + pair.matrices.minus.dim == pair.g.dim


def _killing_form(pair):
    """trace(ad x ad y) on the algebra basis, exactly."""
    basis = pair.g.matrices.algebra.matrices()
    coords = {}
    for i, b in enumerate(basis):
        col = []
        for c in basis:
            col.append(pair.g.matrices.algebra.coordinates_of(bracket(b, c).vectorize()))
        coords[i] = col

    def killing(i, j):
        total = Fraction(0)
        for k in range(len(basis)):
            # ad(b_i) ad(b_j) applied to b_k, coefficient of b_k
            inner = coords[j][k]
            acc = [Fraction(0)] * len(basis)
            for m, cm in enumerate(inner):
                if cm:
                    row = coords[i][m]
                    for t, ct in enumerate(row):
                        acc[t] += cm * ct
            total += acc[k]
        return total

    return killing


def test_killing_orthogonality_of_eigenspaces(pairs):
    pair = pairs("sp_down_gl", n=2)
    basis = pair.g.matrices.algebra.matrices()
    killing = _killing_form(pair)
    plus_idx = [i for i, b in enumerate(basis) if pair.matrices.fixed.contains_matrix(b)]
    minus_idx = [i for i, b in enumerate(basis) if pair.matrices.minus.contains_matrix(b)]
    # the echelon basis of sp4 splits under this diagonal involution
    assert len(plus_idx) + len(minus_idx) == len(basis)
    for i in plus_idx:
        for j in minus_idx:
            assert killing(i, j) == 0


def test_restricted_datum_so6_down_so5(pairs):
    pair = pairs("so_down_so", m=5)
    datum = restricted_root_data(pair)
    expected = {
        (1, -1), (1, 1), (1, 0), (0, 1),
    }
    assert set(datum.positive_roots) == expected  # type B2


def test_restricted_datum_sl4(pairs):
    pair = pairs("sl_s_glgl", p=2, q=2)
    datum = restricted_root_data(pair)
    expected = {(1, -1, 0, 0), (-1, 1, 0, 0),
                (0, 0, 1, -1), (0, 0, -1, 1)}
    assert set(datum.roots) == expected  # A1 x A1 plus center


def test_restricted_datum_group_case(pairs):
    pair = pairs("group_case", type="A1")
    datum = restricted_root_data(pair)
    assert set(datum.roots) == {(1, -1), (-1, 1)}


def test_restricted_datum_type_alternation(pairs):
    # so_down_so alternates between D and B restricted systems
    assert len(restricted_root_data(pairs("so_down_so", m=4)).roots) == 4   # D2
    assert len(restricted_root_data(pairs("so_down_so", m=5)).roots) == 8   # B2
    assert len(restricted_root_data(pairs("so_down_so", m=6)).roots) == 12  # D3
    # sp_down_gl restricts to type A (plus center)
    assert len(restricted_root_data(pairs("sp_down_gl", n=3)).roots) == 6   # A2


def test_tau_split_of_whole_algebra(pairs):
    pair = pairs("sl_s_glgl", p=2, q=2)
    split = tau_split(pair, pair.g.matrices.algebra)
    assert split.plus == pair.matrices.fixed
    assert split.minus == pair.matrices.minus
    assert split.pr == pair.matrices.fixed


def test_tau_split_borel_nilradical_so5(pairs):
    # weights of u_-^{-tau} for the standard Borel of so5 over so4
    pair = pairs("so_down_so", m=4)
    borel = parabolic_from_simple_subset(pair.g, set())
    split = tau_split(pair, u_minus_space(borel))
    from vermabranch import weight_decomposition

    parts = weight_decomposition(pair.matrices.j_tau_probes, split.minus)
    assert sorted(tuple(w) for w, _ in parts) == [(-1, 0), (0, -1)]


def test_tau_split_type_three_root_space(pairs):
    # a single root space with tau(alpha) != alpha: plus = minus = 0, pr is a line
    pair = pairs("so_down_so", m=5)
    alpha = (1, 0, -1)
    assert pair.tau_star(alpha) != alpha
    space = pair.g.matrices.root_spaces[alpha]
    split = tau_split(pair, space)
    assert split.plus.dim == 0 and split.minus.dim == 0 and split.pr.dim == 1


def test_tau_split_dimension_additivity_for_stable_spaces(pairs):
    pair = pairs("sp_down_gl", n=2)
    borel = parabolic_from_simple_subset(pair.g, set())
    split = tau_split(pair, borel.u_plus)
    assert split.plus.dim + split.minus.dim == borel.u_plus.dim


def test_jtau_is_cartan_of_fixed_algebra(pairs):
    # the zero weight space of g^tau under the probes is j^tau itself
    for kind, params in [
        ("sl_s_glgl", {"p": 2, "q": 2}),
        ("so_down_so", {"m": 5}),
        ("sp_down_gl", {"n": 2}),
        ("group_case", {"type": "A1"}),
    ]:
        pair = pairs(kind, **params)
        zero = (0,) * pair.restricted_eps_dim
        assert restricted_root_spaces(pair)[zero].dim == len(pair.matrices.j_tau_basis)


@pytest.mark.parametrize("weight", [(1, 0, 0, 0), (0, 0, 0, 0)], ids=["collide", "zero"])
def test_restricted_datum_rejects_a_second_vector_of_one_weight(monkeypatch, weight):
    # build_pair fills the root table, so the restriction is patched first
    monkeypatch.setattr(SymmetricPair, "restrict_weight", lambda self, w: weight)
    with pytest.raises(ValueError, match=r"restricted datum failed \(j\^tau is not a Cartan"):
        build_pair(PairSpec("sl_s_glgl", p=2, q=2))


def test_jtau_probes_span_jtau(pairs):
    for kind, params in [
        ("gl_down_gl", {"n": 3, "l": 2}),
        ("sl_s_glgl", {"p": 2, "q": 3}),
        ("so_down_so", {"m": 5}),
        ("group_case", {"type": "B2"}),
    ]:
        pair = pairs(kind, **params)
        for h in pair.matrices.j_tau_basis:
            # must be solvable, and agree with the solve on diagonals
            assert pair.jtau_params(pair.g.matrices.eps_params(h)) == jtau_params_of_matrix(pair, h)


def test_restrict_weight_group_case_adds_factors(pairs):
    pair = pairs("group_case", type="A1")
    w = (3, 1, Fraction(1, 2), 0)
    assert pair.restrict_weight(w) == (Fraction(7, 2), 1)


def test_probe_params_rows_are_integer():
    # restrict_finite_module applies these rows to integer displacements
    for spec in catalog_pairs(6):
        rows = build_pair(spec).probe_params
        assert all(type(c) is int for row in rows for c in row), spec.id


def test_acts_trivially_on_j_flags(pairs):
    assert acts_trivially_on_j(pairs("sl_s_glgl", p=2, q=2))
    assert acts_trivially_on_j(pairs("gl_down_gl", n=2, l=1))
    assert acts_trivially_on_j(pairs("sp_down_gl", n=2))
    assert acts_trivially_on_j(pairs("so_down_so", m=4))
    assert not acts_trivially_on_j(pairs("so_down_so", m=5))
    assert not acts_trivially_on_j(pairs("group_case", type="A1"))


def test_catalog_ids_are_unique_and_within_the_rank_bound():
    # `mf_scan` neither de-duplicates nor filters by rank: both hold here
    for rank_bound in range(1, 7):
        for simple_only in (False, True):
            specs = catalog_pairs(rank_bound, simple_only)
            ids = [s.id for s in specs]
            assert len(set(ids)) == len(ids)
            assert all(PAIR_KINDS[s.kind].rank(**dict(s.params)) <= rank_bound for s in specs), rank_bound


@pytest.mark.parametrize("spec", catalog_pairs(6) + [PairSpec("so_down_so", m=24)], ids=str)
def test_kind_row_rank_and_tau_star(spec):
    # the row's ambient rank is the semisimple rank of the algebra it builds,
    # and tau* is an involution of the eps-coordinates that maps the roots onto
    # themselves
    pair = build_pair(spec)
    datum = root_datum(pair.g)
    assert PAIR_KINDS[spec.kind].rank(**dict(spec.params)) == len(datum.simple_roots)
    n = pair.g.eps_dim
    assert sorted(k for k, _ in pair.tau) == list(range(n)) and {s for _, s in pair.tau} <= {1, -1}
    probe = tuple(range(1, n + 1))
    assert pair.tau_star(pair.tau_star(probe)) == probe
    assert set(map(pair.tau_star, datum.roots)) == set(datum.roots)
