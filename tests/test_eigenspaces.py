"""Eigenspaces by projection against the kernel solves they replaced.

Weight spaces, tau-eigenspaces and the so/sp form algebras are spans of
projections, and `_solve` reads the reduced echelon form of [A | b].  The
dense Gauss-Jordan kernel path that computed all of them before stays here
as the oracle: every catalog pair of rank <= 4 must give identical subspaces.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.oracles import build_classical
from vermabranch import (
    ClassicalType,
    MatrixElement,
    Subspace,
    build_pair,
    catalog_pairs,
    span_of_matrices,
    weight_decomposition,
)
from vermabranch.exactla import _as_sparse, _matrix_dim, _vec_axpy, bracket
from vermabranch.liealg import _inv, _solve
from vermabranch.realization import _anti_identity, _symplectic_form

# ---------------------------------------------------------------------------
# oracle: the dense kernel path
# ---------------------------------------------------------------------------


def oracle_gauss_jordan(rows, ncols):
    """Dense Gauss-Jordan on the first `ncols` columns, in place; returns the
    pivot columns (row i has its leading 1 in column pivots[i])."""
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = _inv(rows[r][c])
        rows[r] = [inv * v for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return pivots


def oracle_kernel_of_columns(columns, ncols):
    """Coefficient vectors kappa with sum_i kappa_i * columns[i] = 0."""
    rows = [[col.get(idx, 0) for col in columns] for idx in sorted(set().union(*columns))]
    pivots = oracle_gauss_jordan(rows, ncols)
    kernel = []
    for fc in range(ncols):
        if fc not in pivots:
            vec = [0] * ncols
            vec[fc] = 1
            for ri, pc in enumerate(pivots):
                vec[pc] = -rows[ri][fc]
            kernel.append(tuple(vec))
    return kernel


def oracle_kernel_on_subspace(images, space):
    """Kernel of a linear map given by basis images, as a subspace of `space`."""
    kappa = oracle_kernel_of_columns([_as_sparse(v) for v in images], space.dim)
    out = []
    for coeffs in kappa:
        vec = {}
        for c, row in zip(coeffs, space.rows):
            _vec_axpy(vec, c, row)
        out.append(vec)
    return Subspace(space.ambient_dim, out)


def oracle_weight_decomposition(commuting_family, space):
    """One kernel per candidate eigenvalue d_i - d_j of each family member."""
    _matrix_dim(space)
    parts = [((), space)]
    for h in commuting_family:
        if not h.is_diagonal():
            raise ValueError("weight_decomposition requires a diagonal family")
        diag = h.diagonal_entries()
        candidates = sorted({di - dj for di in diag for dj in diag}, reverse=True)
        new_parts = []
        for wt, part in parts:
            covered = 0
            for c in candidates:
                images = [(bracket(h, b) - c * b).vectorize() for b in part.matrices()]
                eig = oracle_kernel_on_subspace(images, part)
                if eig.dim:
                    new_parts.append((wt + (c,), eig))
                    covered += eig.dim
            if covered != part.dim:
                raise ValueError("non-semisimple action detected: invalid Cartan choice")
        parts = new_parts
    parts.sort(key=lambda p: p[0], reverse=True)
    return parts


def oracle_eigen_subspace(tau, algebra, sign):
    """Kernel of tau - sign on the algebra."""
    images = [(tau(b) - b.scale(sign)).vectorize() for b in algebra.matrices()]
    return oracle_kernel_on_subspace(images, algebra)


def oracle_form_algebra(m, g):
    """{X : X^T G + G X = 0} as the kernel of X -> X^T G + G X on matrix units."""
    units = [(i, j) for i in range(m) for j in range(m)]
    images = []
    for (i, j) in units:
        e = MatrixElement.unit(m, i, j)
        images.append(((e.transpose() @ g) + (g @ e)).vectorize())
    mats = []
    for coeffs in oracle_kernel_of_columns(images, len(units)):
        mats.append(MatrixElement(m, {u: c for c, u in zip(coeffs, units) if c}))
    return span_of_matrices(mats, m)


def oracle_solve(columns, target):
    """Dense Gauss-Jordan on [A | b]; free unknowns 0."""
    rows = [[col[i] for col in columns] + [Fraction(t)] for i, t in enumerate(target)]
    pivots = oracle_gauss_jordan(rows, len(columns))
    if any(row[-1] for row in rows[len(pivots):]):
        return None
    sol = [Fraction(0)] * len(columns)
    for ri, pc in enumerate(pivots):
        sol[pc] = rows[ri][-1]
    return sol


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


def _typed(parts):
    """Parts with the exact scalar types of their weights, for identity."""
    return [(wt, tuple(type(c) for c in wt), part) for wt, part in parts]


@pytest.mark.parametrize("spec", catalog_pairs(4), ids=lambda s: s.id)
def test_projections_match_kernel_oracle_on_catalog(spec):
    pair = build_pair(spec).matrices
    g, tau = pair.g, pair.tau
    fixed = oracle_eigen_subspace(tau, g.algebra, 1)
    assert pair.fixed == fixed
    assert pair.minus == oracle_eigen_subspace(tau, g.algebra, -1)
    cartan = span_of_matrices(g.cartan_basis, g.matrix_dim)
    assert pair.j_tau_basis == oracle_eigen_subspace(tau, cartan, 1).matrices()
    # the parts behind the root spaces, and those of g^tau
    assert _typed(weight_decomposition(g.eps_probes, g.algebra)) == _typed(
        oracle_weight_decomposition(g.eps_probes, g.algebra)
    )
    parts = weight_decomposition(pair.j_tau_probes, pair.fixed)
    assert _typed(parts) == _typed(oracle_weight_decomposition(pair.j_tau_probes, fixed))


@pytest.mark.parametrize(
    "family,rank",
    [("B", 2), ("B", 3), ("B", 4), ("C", 2), ("C", 3), ("C", 4), ("D", 3), ("D", 4)],
)
def test_form_algebra_matches_kernel_oracle(family, rank):
    g = build_classical(ClassicalType(family, rank))
    m = g.matrix_dim
    form = _symplectic_form(rank) if family == "C" else _anti_identity(m)
    assert g.algebra == oracle_form_algebra(m, form)


_ENTRIES = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])


@st.composite
def _systems(draw):
    nrows = draw(st.integers(1, 4))
    ncols = draw(st.integers(1, 4))
    columns = [tuple(draw(_ENTRIES) for _ in range(nrows)) for _ in range(ncols)]
    if draw(st.booleans()):  # consistent by construction, often underdetermined
        x = [draw(_ENTRIES) for _ in range(ncols)]
        target = tuple(sum(c[i] * xi for c, xi in zip(columns, x)) for i in range(nrows))
    else:
        target = tuple(draw(_ENTRIES) for _ in range(nrows))
    return columns, target


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(system=_systems())
def test_solve_matches_dense_oracle(system):
    columns, target = system
    sol = _solve(columns, target)
    assert sol == oracle_solve(columns, target)
    if sol is not None:
        assert all(isinstance(x, Fraction) for x in sol)
        for i, t in enumerate(target):
            assert sum(c[i] * x for c, x in zip(columns, sol)) == t


def test_solve_inconsistent_and_underdetermined():
    assert _solve([(1, 1)], (1, 2)) is None
    assert _solve([(1, 0), (0, 0)], (0, 1)) is None
    # free unknowns are 0: x0 + x1 = 3 reads x = (3, 0)
    assert _solve([(1,), (1,)], (3,)) == [Fraction(3), Fraction(0)]
