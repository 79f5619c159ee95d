"""The matrix route to Cartan elements and tau-splits, kept as a test oracle.

The engine holds a pair by its root data, a Cartan element by its
eps-parameters, and splits a root set by tau*-orbits.  The functions here do
the same work with n x n matrices: `check_involution` runs the checks a
matrix-built pair once ran (tau g = g, tau j = j, tau^2 = 1), a Cartan
element is built from its parameters, tau acts by
conjugation, u_- is split by intersecting it with g^tau and g^{-tau}, the
Levi roots of l' are found by subspace containment, and l^tau, p^tau by
intersection with g^tau.
"""

from fractions import Fraction

from vermabranch import (
    MatrixElement,
    Subspace,
    restricted_root_data,
    span_of_matrices,
    weight_decomposition,
)
from vermabranch.liealg import _q, _solve
from vermabranch.pairs import tau_projection

from tests.oracles import negative_roots, reflection_element, weyl_apply_params


def check_involution(g, tau) -> None:
    """tau maps the matrix algebra g and its Cartan into themselves, and
    tau^2 = 1 on g, so the projections (Z +- tau Z)/2 are its eigenspaces and
    they exhaust g."""
    cartan = span_of_matrices(g.cartan_basis, g.matrix_dim)
    for space, name in ((g.algebra, "algebra"), (cartan, "Cartan")):
        for b in space.matrices():
            image = tau(b)
            if not space.contains_matrix(image):
                raise AssertionError("conjugator does not preserve the %s" % name)
            if tau(image) != b:
                raise AssertionError("tau^2 != 1: tau eigenspaces do not exhaust the algebra")


def cartan_matrix(g, params) -> MatrixElement:
    """The Cartan element with these eps-parameters."""
    coeffs = _solve(g.cartan_columns, tuple(params))
    if coeffs is None:
        raise ValueError("parameters not realizable in the Cartan")
    return MatrixElement.combination(g.matrices.matrix_dim, coeffs, g.matrices.cartan_basis)


def span_roots(p, roots, include_cartan=False) -> Subspace:
    """Span of the root spaces of `roots` (and of j) as a matrix subspace."""
    zero = [(0,) * p.g.eps_dim] if include_cartan else []
    return p.g.matrices.root_span(zero + list(roots))


def levi_space(p) -> Subspace:
    return span_roots(p, p.levi_roots, include_cartan=True)


def u_minus_space(p) -> Subspace:
    return span_roots(p, negative_roots(p))


def matrix_levi_split(pair, p) -> tuple:
    """(pr_tau(u), l^tau, p^tau): the projection of u's basis, and the Levi
    factor and p intersected with g^tau."""
    levi = levi_space(p)
    return (
        tau_projection(pair, p.u_plus),
        levi.intersect(pair.matrices.fixed),
        levi.sum(p.u_plus).intersect(pair.matrices.fixed),
    )


def fixed_matrix(pair, p) -> MatrixElement:
    """(H + tau H)/2 for the defining element H of p."""
    h = cartan_matrix(pair.g, p.params)
    return (h + pair.matrices.tau(h)).scale(Fraction(1, 2))


def jtau_params_of_matrix(pair, h) -> tuple:
    """Coordinates of a j^tau element in the probes, solved on diagonals."""
    columns = [q.diagonal_entries() for q in pair.matrices.j_tau_probes]
    sol = _solve(columns, h.diagonal_entries())
    if sol is None:
        raise ValueError("element is not in the span of the j^tau probes")
    return tuple(sol)


def jtau_element(pair, coeffs) -> MatrixElement:
    return MatrixElement.combination(pair.g.matrices.matrix_dim, coeffs, pair.matrices.j_tau_probes)


def level_params(pair, p) -> tuple:
    """j^tau coordinates of (H + tau H)/2, against which levels are read."""
    return tuple(map(_q, jtau_params_of_matrix(pair, fixed_matrix(pair, p))))


def restricted_weights(pair, space) -> dict:
    """j^tau-weight multiset of a subspace, by `weight_decomposition`."""
    if space.dim == 0:
        return {}
    parts = weight_decomposition(pair.matrices.j_tau_probes, space)
    return {tuple(map(_q, wt)): part.dim for wt, part in parts}


def u_minus_split(pair, p):
    """(weights of u_- cap g^tau, weights of u_- cap g^{-tau}, whether the
    two parts add up to u_-)."""
    u_minus = u_minus_space(p)
    plus, minus = u_minus.intersect(pair.matrices.fixed), u_minus.intersect(pair.matrices.minus)
    splits = plus.dim + minus.dim == u_minus.dim
    return restricted_weights(pair, plus), restricted_weights(pair, minus), splits


def restricted_root_spaces(pair) -> dict:
    """j^tau-weight -> its weight space in g^tau, by `weight_decomposition`."""
    m = pair.matrices
    return {tuple(map(_q, wt)): part for wt, part in weight_decomposition(m.j_tau_probes, m.fixed)}


def levi_prime_roots(pair, p) -> set:
    """Restricted roots whose g^tau root space lies in the Levi factor l."""
    spaces, l = restricted_root_spaces(pair), levi_space(p)
    return {b for b in restricted_root_data(pair).roots if l.contains_subspace(spaces[b])}


def census_actions(pair):
    """Census action: realize t as a Cartan element h, move the tau-fixed part
    h_+ by the restricted Weyl generator, keep h_-, read the parameters."""
    rdatum = restricted_root_data(pair)
    half = Fraction(1, 2)

    def make_action(sigma):
        def act(t):
            h = cartan_matrix(pair.g, t)
            hp = (h + pair.matrices.tau(h)).scale(half)
            moved = weyl_apply_params(sigma, jtau_params_of_matrix(pair, hp))
            return pair.g.matrices.eps_params(jtau_element(pair, moved) + (h - hp))

        return act

    return [make_action(reflection_element(rdatum, a)) for a in rdatum.simple_roots]
