"""Matrix realizations of the catalog algebras and involutions.

Only `analyze` (its spot check of condition (iii)) and the tests read them;
`Algebra.matrices` and `SymmetricPair.matrices` build them on first use.
Each Cartan is diagonal: type A as trace-zero (or gl) matrices, B/D as so(m)
of the anti-diagonal symmetric form, C as sp(2n) of the anti-diagonal
symplectic form, and the group case as two diagonal blocks.  So weights are
read off the first diagonal entries, and the upper-triangular matrices hold
the standard Borel.  Each involution is conjugation by a diagonal matrix or
by the permutation that swaps two positions or the two factors.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from . import exactla
from .exactla import MatrixElement, Subspace, span_of_matrices
from .liealg import Algebra, Weight


class AlgebraRealization(Algebra):
    """A matrix Lie algebra with a distinguished diagonal Cartan, realizing
    the root data of an `Algebra`.

    `eps_probes` are diagonal matrices dual to the epsilon-coordinates: the
    tuple of ad-eigenvalues under the probes is the coordinate vector of a
    weight.  For type A (sl variant) the probes are the gl matrix units, which
    keeps root coordinates canonical (coordinates summing to zero).
    """

    def __init__(self, root: Algebra, matrix_dim: int, algebra: Subspace,
                 cartan_basis: list, eps_probes: list, eps_positions: list):
        super().__init__(root.type, root.roots, root.cartan_columns, root.factor)
        self.matrix_dim, self.algebra = matrix_dim, algebra
        self.cartan_basis, self.eps_probes, self.eps_positions = cartan_basis, eps_probes, eps_positions

    @property
    def matrices(self) -> "AlgebraRealization":
        return self

    def eps_params(self, h: MatrixElement) -> Weight:
        """Epsilon-parameters of a diagonal Cartan element."""
        if not h.is_diagonal():
            raise ValueError("not a diagonal Cartan element")
        diag = h.diagonal_entries()
        return Weight(diag[p] for p in self.eps_positions)

    @cached_property
    def root_spaces(self) -> dict:
        """Weight -> its weight space in the algebra: a line for each root and
        j for the zero weight, checked against the root data.  The split is
        `exactla.weight_decomposition`, read at call time (perfbench's tracer
        rebinds it)."""
        spaces = {Weight(w): s for w, s in exactla.weight_decomposition(self.eps_probes, self.algebra)}
        zero = Weight.zero(self.eps_dim)
        if set(spaces) != {zero, *self.roots} or spaces[zero].dim != self.rank or any(
            spaces[a].dim != 1 for a in self.roots
        ):
            raise AssertionError("the matrices do not realize the root data")
        return spaces

    def root_span(self, weights) -> Subspace:
        """The span of the weight spaces of these roots (the zero weight adds j)."""
        rows = [dict(r) for w in weights for r in self.root_spaces[w].rows]
        return Subspace(self.matrix_dim ** 2, rows)


def _anti_identity(m: int) -> MatrixElement:
    return MatrixElement(m, {(i, m - 1 - i): 1 for i in range(m)})


def _symplectic_form(n: int) -> MatrixElement:
    return MatrixElement(2 * n, {(i, 2 * n - 1 - i): 1 if i < n else -1 for i in range(2 * n)})


def _form_algebra(m: int, g: MatrixElement) -> Subspace:
    """{X : X^T G + G X = 0}: the fixed space of the involution
    X -> -G^T X^T G (G is an anti-diagonal signed permutation, so G^-1 = G^T),
    spanned by E - G^T E^T G over the matrix units E."""
    gt = g.transpose()
    units = [MatrixElement.unit(m, i, j) for i in range(m) for j in range(m)]
    return span_of_matrices([e - gt @ e.transpose() @ g for e in units], m)


def realize(g: Algebra) -> AlgebraRealization:
    """The matrix realization of a classical algebra, or of a group case as
    two diagonal blocks."""
    if g.factor is not None:
        f = realize(g.factor)
        m = f.matrix_dim

        def both(mats):
            return [_block_embed(b, 2 * m, 0) for b in mats] + [_block_embed(b, 2 * m, m) for b in mats]

        algebra = span_of_matrices(both(f.algebra.matrices()), 2 * m)
        positions = f.eps_positions + [p + m for p in f.eps_positions]
        return AlgebraRealization(g, 2 * m, algebra, both(f.cartan_basis), both(f.eps_probes), positions)
    fam, n = g.type.family, g.type.rank
    unit = MatrixElement.unit
    if fam == "A":
        m = n + 1
        probes = [unit(m, i, i) for i in range(m)]
        diag = probes if g.rank == m else [probes[i] - probes[i + 1] for i in range(n)]  # gl or sl
        units = [unit(m, i, j) for i in range(m) for j in range(m) if i != j]
        return AlgebraRealization(g, m, span_of_matrices(units + diag, m), diag, probes, list(range(m)))
    m = 2 * n + (fam == "B")
    algebra = _form_algebra(m, _symplectic_form(n) if fam == "C" else _anti_identity(m))
    cartan = [unit(m, i, i) - unit(m, m - 1 - i, m - 1 - i) for i in range(n)]
    return AlgebraRealization(g, m, algebra, cartan, list(cartan), list(range(n)))


def _block_embed(x: MatrixElement, total: int, offset: int) -> MatrixElement:
    return MatrixElement(total, {(i + offset, j + offset): v for (i, j), v in x.items()})


# ---------------------------------------------------------------------------
# involutions
# ---------------------------------------------------------------------------

class Involution:
    """Algebra involution realized as conjugation Z -> A Z A^{-1}."""

    def __init__(self, conjugator: MatrixElement):
        self.conjugator = conjugator
        if conjugator @ conjugator != MatrixElement.identity(conjugator.dim):
            raise ValueError("conjugator must square to the identity")

    def __call__(self, x: MatrixElement) -> MatrixElement:
        return self.conjugator @ x @ self.conjugator


class TauSplit(NamedTuple):
    plus: Subspace
    minus: Subspace
    pr: Subspace


class PairRealization:
    """The matrices of a catalog pair: g, tau as conjugation, the j^tau
    probes and a basis of j^tau, and g^{+-tau} (`fixed`, `minus`, filled on
    first use)."""

    def __init__(self, g: AlgebraRealization, tau: Involution, j_tau_probes: list):
        self.g, self.tau, self.j_tau_probes = g, tau, j_tau_probes
        cartan = span_of_matrices(g.cartan_basis, g.matrix_dim)
        self.j_tau_basis = self.eigenspace(cartan, 1).matrices()

    @cached_property
    def fixed(self) -> Subspace:
        """g^tau."""
        return self.eigenspace(self.g.algebra, 1)

    @cached_property
    def minus(self) -> Subspace:
        """g^{-tau}."""
        return self.eigenspace(self.g.algebra, -1)

    def eigenspace(self, space: Subspace, sign: int) -> Subspace:
        """Span of b + sign * tau(b) over the basis of V: the image of V under
        the projection onto the (sign)-eigenspace of tau, which is V's own
        (sign)-eigenspace when V is tau-stable."""
        return Subspace(
            space.ambient_dim,
            [(b + self.tau(b).scale(sign)).vectorize() for b in space.matrices()],
        )

    def split(self, space: Subspace) -> TauSplit:
        """(V cap g^tau, V cap g^{-tau}, pr_tau(V)) for a subspace V of g."""
        return TauSplit(space.intersect(self.fixed), space.intersect(self.minus), self.eigenspace(space, 1))


def realize_pair(pair) -> PairRealization:
    """The conjugator and the j^tau probes of a catalog pair, on the matrix
    realization of its algebra."""
    kind, get, g = pair.spec.kind, pair.spec.get, pair.g.matrices
    n, probes = g.matrix_dim, list(g.eps_probes)
    if kind == "so_down_so" and n % 2 == 0:  # so(2k+2) by the swap of positions k, k+1
        k = n // 2 - 1
        data = {(i, i): 1 for i in range(n) if i not in (k, k + 1)}
        data.update({(k, k + 1): 1, (k + 1, k): 1})
        return PairRealization(g, Involution(MatrixElement(n, data)), probes[:k])
    if kind == "group_case":  # the swap of the two factors
        half = len(probes) // 2
        conj = MatrixElement(n, {(i, (i + n // 2) % n): 1 for i in range(n)})
        return PairRealization(g, Involution(conj), [a + b for a, b in zip(probes, probes[half:])])
    if kind == "gl_down_gl":
        diag = [1] * n
        diag[get("l") - 1] = -1
    elif kind == "sl_s_glgl":
        diag = [1] * get("p") + [-1] * get("q")
    elif kind == "sp_down_gl":
        diag = [1] * (n // 2) + [-1] * (n // 2)
    else:  # so(2k+1): -1 at the middle position
        diag = [1] * n
        diag[n // 2] = -1
    return PairRealization(g, Involution(MatrixElement.diagonal(diag)), probes)
