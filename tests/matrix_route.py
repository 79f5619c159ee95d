"""The matrix route to Cartan elements and tau-splits, kept as a test oracle.

The engine holds a Cartan element by its eps-parameters and splits a root
set by tau*-orbits.  The functions here do the same work with n x n
matrices: a Cartan element is built from its parameters, tau acts by
conjugation, u_- is split by intersecting it with g^tau and g^{-tau}, and
the Levi roots of l' are found by subspace containment.
"""

from fractions import Fraction

from vermabranch import MatrixElement, Subspace, Weight, restricted_root_data, weight_decomposition
from vermabranch.liealg import _solve, reflection_element


def cartan_matrix(g, params) -> MatrixElement:
    """The Cartan element with these eps-parameters."""
    coeffs = _solve(g.cartan_columns, tuple(params))
    if coeffs is None:
        raise ValueError("parameters not realizable in the Cartan")
    return MatrixElement.combination(g.matrix_dim, coeffs, g.cartan_basis)


def span_roots(p, roots, include_cartan=False) -> Subspace:
    """Span of the root spaces of `roots` (and of j) as a matrix subspace."""
    datum = p.datum
    rows = [dict(r) for r in datum.zero_space.rows] if include_cartan else []
    for a in roots:
        rows.extend(dict(r) for r in datum.root_spaces[a].rows)
    return Subspace(p.g.matrix_dim ** 2, rows)


def levi_space(p) -> Subspace:
    return span_roots(p, p.levi_roots, include_cartan=True)


def u_minus_space(p) -> Subspace:
    return span_roots(p, p.negative_roots)


def fixed_matrix(pair, p) -> MatrixElement:
    """(H + tau H)/2 for the defining element H of p."""
    h = cartan_matrix(pair.g, p.params)
    return (h + pair.tau(h)).scale(Fraction(1, 2))


def jtau_params_of_matrix(pair, h) -> tuple:
    """Coordinates of a j^tau element in the probes, solved on diagonals."""
    columns = [q.diagonal_entries() for q in pair.j_tau_probes]
    sol = _solve(columns, h.diagonal_entries())
    if sol is None:
        raise ValueError("element is not in the span of the j^tau probes")
    return tuple(sol)


def jtau_element(pair, coeffs) -> MatrixElement:
    return MatrixElement.combination(pair.g.matrix_dim, coeffs, pair.j_tau_probes)


def level_params(pair, p) -> Weight:
    """j^tau coordinates of (H + tau H)/2, against which levels are read."""
    return Weight(jtau_params_of_matrix(pair, fixed_matrix(pair, p)))


def restricted_weights(pair, space) -> dict:
    """j^tau-weight multiset of a subspace, by `weight_decomposition`."""
    if space.dim == 0:
        return {}
    parts = weight_decomposition(pair.j_tau_probes, space)
    return {Weight(wt): part.dim for wt, part in parts}


def u_minus_split(pair, p):
    """(weights of u_- cap g^tau, weights of u_- cap g^{-tau}, whether the
    two parts add up to u_-)."""
    u_minus = u_minus_space(p)
    plus, minus = u_minus.intersect(pair.fixed), u_minus.intersect(pair.minus)
    splits = plus.dim + minus.dim == u_minus.dim
    return restricted_weights(pair, plus), restricted_weights(pair, minus), splits


def levi_prime_roots(pair, p) -> set:
    """Restricted roots whose g^tau root space lies in the Levi factor l."""
    rdatum = restricted_root_data(pair)
    l = levi_space(p)
    return {b for b in rdatum.roots if l.contains_subspace(rdatum.root_spaces[b])}


def census_actions(pair):
    """Census action: realize t as a Cartan element h, move the tau-fixed part
    h_+ by the restricted Weyl generator, keep h_-, read the parameters."""
    rdatum = restricted_root_data(pair)
    half = Fraction(1, 2)

    def make_action(sigma):
        def act(t):
            h = cartan_matrix(pair.g, t)
            hp = (h + pair.tau(h)).scale(half)
            moved = sigma.apply_params(jtau_params_of_matrix(pair, hp))
            return pair.g.eps_params(jtau_element(pair, moved) + (h - hp)).coords

        return act

    return [make_action(reflection_element(rdatum, a)) for a in rdatum.simple_roots]
