"""Pairs from root data against the matrix pairs they replace.

`build_pair` builds a pair from its kind's row of root data: the roots of
g, tau* as a signed permutation of eps-coordinates, the element h that gives
the sign of tau on the tau*-fixed roots, and the restriction rows to j^tau.  The
matrix realization (`pair.matrices`, conjugation by an explicit matrix)
stays as the oracle: on every pair of rank <= 6 it must give the same
tau*, restriction, `sigma`, signs on the tau*-fixed roots (a sign on a
root that tau* moves only normalizes a root vector, and no engine code
reads it), restricted roots, and the dimension of g^tau that `mf_scan`
counts from the table.  The checks a matrix-built pair ran on itself
(tau g = g, tau j = j, tau^2 = 1) run here too.
"""

import pytest

from tests.matrix_route import check_involution, restricted_root_spaces, restricted_weights
from vermabranch import (
    MatrixElement,
    PairSpec,
    RootDatum,
    SymmetricPair,
    build_pair,
    catalog_pairs,
    mf_scan,
    restricted_root_data,
    root_datum,
    span_of_matrices,
)
from vermabranch import pairs as pairs_module


@pytest.mark.parametrize("spec", catalog_pairs(6), ids=str)
def test_root_level_pair_matches_the_matrix_pair(pairs, spec):
    pair = pairs(spec.kind, **dict(spec.params))
    m = pair.matrices
    g, tau = m.g, m.tau
    check_involution(g, tau)
    assert g is pair.g.matrices and g.algebra.dim == pair.g.dim
    assert g.root_spaces[(0,) * g.eps_dim] == span_of_matrices(g.cartan_basis, g.matrix_dim)
    assert [g.eps_params(h) for h in g.cartan_basis] == list(pair.g.cartan_columns)
    units = [tuple(int(i == k) for i in range(g.eps_dim)) for k in range(g.eps_dim)]
    assert [g.eps_params(tau(p)) for p in g.eps_probes] == [pair.tau_star(u) for u in units]
    assert [g.eps_params(p) for p in m.j_tau_probes] == list(pair.probe_params)
    datum, table, rdatum = root_datum(pair.g), pair.root_table, restricted_root_data(pair)
    n = g.matrix_dim

    def root_vector(a):
        return MatrixElement.from_vector(n, g.root_spaces[a].rows[0])

    for i, a in enumerate(datum.roots):
        x, tau_x = root_vector(a), tau(root_vector(a))
        b = datum.roots[table.tau[i]]
        assert g.root_spaces[b].contains_matrix(tau_x)
        assert table.restriction[i] == pair.restrict_weight(a)
        if b == a:
            assert tau_x == x.scale(table.sign[i])
        if table.sigma[i] is None:
            assert b == a and m.minus.contains_matrix(x)
        else:
            # X_a + tau X_a spans the root space of sigma[i] in g^tau
            fixed_part = span_of_matrices([x + tau_x], n)
            assert m.fixed.contains_subspace(fixed_part)
            assert restricted_weights(pair, fixed_part) == {rdatum.roots[table.sigma[i]]: 1}
    # the restricted datum is the weight decomposition of g^tau, whose zero
    # weight space is j^tau
    spaces = restricted_root_spaces(pair)
    assert spaces.pop((0,) * pair.restricted_eps_dim).dim == len(m.j_tau_basis)
    assert all(space.dim == 1 for space in spaces.values())
    expected = RootDatum(pair.restricted_eps_dim, spaces)
    assert (rdatum.roots, rdatum.simple_roots, rdatum.rho) == (
        expected.roots, expected.simple_roots, expected.rho
    )
    # mf-scan's count: dim g^tau = dim j^tau + #{i < tau*(i)} + #{compact imaginary}
    orbits = sum(i < k or i == k and s > 0 for i, (k, s) in enumerate(zip(table.tau, table.sign)))
    assert m.fixed.dim == len(m.j_tau_basis) + orbits
    assert orbits == len(rdatum.roots)  # the count mf_scan reads off the restricted datum


def test_mf_scan_counts_the_dimensions_of_the_matrix_pairs(pairs):
    rows = mf_scan(6, include_failing=True)
    assert len(rows) == 32
    for row in rows:
        spec = PairSpec.parse(row.spec_id)
        m = pairs(spec.kind, **dict(spec.params)).matrices
        trace = int(spec.kind == "gl_down_gl")  # measured in its sl incarnation
        assert (row.dim_g, row.dim_fixed, row.rank_g, row.rank_fixed) == (
            m.g.algebra.dim - trace,
            m.fixed.dim - trace,
            len(m.g.cartan_basis) - trace,
            len(m.j_tau_basis) - trace,
        ), row.spec_id


def test_tau_star_must_be_an_involution_of_the_roots(monkeypatch):
    roots = root_datum(build_pair(PairSpec("so_down_so", m=5)).g).roots
    shifted = {a: roots[(i + 1) % len(roots)] for i, a in enumerate(roots)}
    monkeypatch.setattr(SymmetricPair, "tau_star", lambda self, a: shifted[a])
    with pytest.raises(AssertionError, match="tau\\* is not an involution of the roots"):
        build_pair(PairSpec("so_down_so", m=5))


def test_tau_star_must_keep_the_signs(monkeypatch):
    # h = e_0 on the group case: the root e_0 - e_1 of the first factor gets
    # the sign -1 and its tau*-image e_2 - e_3 the sign +1
    kind = pairs_module.PAIR_KINDS["group_case"]

    def with_h(**params):
        g, tau, h, rows = kind.root_data(**params)
        return g, tau, (1, 0, 0, 0), rows

    monkeypatch.setitem(pairs_module.PAIR_KINDS, "group_case", kind._replace(root_data=with_h))
    with pytest.raises(AssertionError, match="keeps the signs"):
        build_pair(PairSpec("group_case", type="A1"))
