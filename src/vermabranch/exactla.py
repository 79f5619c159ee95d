"""Exact rational linear algebra over vectorized matrix spaces.

Matrices are square grids of `fractions.Fraction` stored sparsely; subspaces
live in the column-major vectorization Q^(n*n) and are kept in reduced row
echelon form (`liealg._rref`, the engine's one elimination routine), so
equality, membership and dimension are exact and canonical.  No floating
point is used anywhere.  Only the matrix realization (`realization`), which
`analyze` and the tests read, imports this module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from .liealg import _q, _rref, _vec_axpy

Rational = Fraction

SparseVec = dict  # index -> nonzero Fraction


def _as_sparse(vector) -> SparseVec:
    if isinstance(vector, Mapping):
        return {int(k): _q(v) for k, v in vector.items() if v}
    return {i: _q(v) for i, v in enumerate(vector) if v}


# ---------------------------------------------------------------------------
# MatrixElement
# ---------------------------------------------------------------------------

class MatrixElement:
    """Immutable square matrix over Q with sparse storage."""

    __slots__ = ("dim", "_data", "_hash")

    def __init__(self, dim: int, data: Mapping):
        if dim <= 0:
            raise ValueError("matrix dimension must be positive")
        self.dim = dim
        self._data = {k: _q(v) for k, v in data.items() if v}
        self._hash = None

    # -- constructors

    @classmethod
    def zero(cls, dim: int) -> "MatrixElement":
        return cls(dim, {})

    @classmethod
    def identity(cls, dim: int) -> "MatrixElement":
        return cls(dim, {(i, i): 1 for i in range(dim)})

    @classmethod
    def unit(cls, dim: int, i: int, j: int) -> "MatrixElement":
        """The matrix unit E_ij (0-indexed)."""
        return cls(dim, {(i, j): 1})

    @classmethod
    def combination(cls, dim: int, coeffs, mats) -> "MatrixElement":
        """sum_i coeffs[i] * mats[i], exactly."""
        data = {}
        for c, m in zip(coeffs, mats):
            for k, v in m._data.items():
                data[k] = data.get(k, 0) + c * v
        return cls(dim, data)

    @classmethod
    def diagonal(cls, values: Sequence) -> "MatrixElement":
        return cls(len(values), {(i, i): _q(v) for i, v in enumerate(values) if v})

    # -- accessors

    def items(self):
        return self._data.items()

    def is_zero(self) -> bool:
        return not self._data

    def is_diagonal(self) -> bool:
        return all(i == j for (i, j) in self._data)

    def diagonal_entries(self):
        return tuple(self._data.get((i, i), 0) for i in range(self.dim))

    def transpose(self) -> "MatrixElement":
        return MatrixElement(self.dim, {(j, i): v for (i, j), v in self._data.items()})

    # -- arithmetic

    def _check(self, other: "MatrixElement") -> None:
        if self.dim != other.dim:
            raise ValueError("dimension mismatch: %d vs %d" % (self.dim, other.dim))

    def __add__(self, other: "MatrixElement") -> "MatrixElement":
        self._check(other)
        data = dict(self._data)
        for k, v in other._data.items():
            w = data.get(k, 0) + v
            if w:
                data[k] = w
            else:
                data.pop(k, None)
        return MatrixElement(self.dim, data)

    def __sub__(self, other: "MatrixElement") -> "MatrixElement":
        return self + (-other)

    def __neg__(self) -> "MatrixElement":
        return MatrixElement(self.dim, {k: -v for k, v in self._data.items()})

    def scale(self, c) -> "MatrixElement":
        c = _q(c)
        if not c:
            return MatrixElement.zero(self.dim)
        return MatrixElement(self.dim, {k: c * v for k, v in self._data.items()})

    def __rmul__(self, c) -> "MatrixElement":
        return self.scale(c)

    def __matmul__(self, other: "MatrixElement") -> "MatrixElement":
        self._check(other)
        by_row = {}
        for (k, j), v in other._data.items():
            by_row.setdefault(k, []).append((j, v))
        data = {}
        for (i, k), u in self._data.items():
            for j, v in by_row.get(k, ()):
                key = (i, j)
                w = data.get(key, 0) + u * v
                if w:
                    data[key] = w
                else:
                    data.pop(key, None)
        return MatrixElement(self.dim, data)

    # -- vectorization (column-major)

    def vectorize(self) -> SparseVec:
        n = self.dim
        return {j * n + i: v for (i, j), v in self._data.items()}

    @classmethod
    def from_vector(cls, dim: int, vec: Mapping) -> "MatrixElement":
        data = {}
        for idx, v in vec.items():
            if v:
                data[(idx % dim, idx // dim)] = _q(v)
        return cls(dim, data)

    # -- identity / hashing

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatrixElement)
            and self.dim == other.dim
            and self._data == other._data
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.dim, tuple(sorted(self._data.items()))))
        return self._hash

    def __repr__(self):
        if len(self._data) > 8:
            return "MatrixElement(dim=%d, %d entries)" % (self.dim, len(self._data))
        ent = ", ".join("E[%d,%d]=%s" % (i, j, v) for (i, j), v in sorted(self._data.items()))
        return "MatrixElement(dim=%d, %s)" % (self.dim, ent or "0")


def bracket(x: MatrixElement, y: MatrixElement) -> MatrixElement:
    """Lie bracket XY - YX, exact."""
    if x.dim != y.dim:
        raise ValueError("bracket: dimension mismatch %d vs %d" % (x.dim, y.dim))
    return (x @ y) - (y @ x)


# ---------------------------------------------------------------------------
# Subspace: canonical reduced row echelon span
# ---------------------------------------------------------------------------

class Subspace:
    """Span of vectors in Q^ambient_dim, held in reduced row echelon form.

    Rows are sparse dicts sorted by pivot; pivot entries are 1 and cleared
    from all other rows, so two equal subspaces have identical row data.
    """

    __slots__ = ("ambient_dim", "rows", "_hash")

    def __init__(self, ambient_dim: int, rows=(), _canonical=False):
        self.ambient_dim = ambient_dim
        if _canonical:
            self.rows = list(rows)
        else:
            self.rows = _rref([_as_sparse(r) for r in rows])
        self._hash = None

    @property
    def dim(self) -> int:
        return len(self.rows)

    def contains_vector(self, vector) -> bool:
        return self.coordinates_of(vector) is not None

    def contains_matrix(self, mat: MatrixElement) -> bool:
        return self.contains_vector(mat.vectorize())

    def coordinates_of(self, vector):
        """Coefficients w.r.t. the echelon basis, or None if not a member."""
        vec = _as_sparse(vector)
        coords = []
        for row in self.rows:
            piv = min(row)
            c = vec.get(piv, 0)
            coords.append(c)
            if c:
                _vec_axpy(vec, -c, row)
        return None if vec else coords

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains_vector(dict(r)) for r in other.rows)

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        rows = [dict(r) for r in self.rows] + [dict(r) for r in other.rows]
        return Subspace(self.ambient_dim, rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: echelonize (u|u) and (w|0); zero-left rows span the meet."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        n = self.ambient_dim
        doubled = []
        for r in self.rows:
            row = dict(r)
            row.update({k + n: v for k, v in r.items()})
            doubled.append(row)
        doubled.extend(dict(r) for r in other.rows)
        reduced = _rref(doubled)
        out = []
        for row in reduced:
            if min(row) >= n:
                out.append({k - n: v for k, v in row.items()})
        return Subspace(n, out, _canonical=True)

    def matrices(self):
        """Basis as matrices; ambient_dim must be a perfect square."""
        n = math.isqrt(self.ambient_dim)
        if n * n != self.ambient_dim:
            raise ValueError("ambient space is not a vectorized matrix space")
        return [MatrixElement.from_vector(n, row) for row in self.rows]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(
                (self.ambient_dim, tuple(tuple(sorted(r.items())) for r in self.rows))
            )
        return self._hash

    def __repr__(self):
        return "Subspace(ambient=%d, dim=%d)" % (self.ambient_dim, self.dim)


def span_of_matrices(mats: Iterable[MatrixElement], dim=None) -> Subspace:
    mats = list(mats)
    if dim is None:
        if not mats:
            raise ValueError("dim required for an empty spanning set")
        dim = mats[0].dim
    return Subspace(dim * dim, [m.vectorize() for m in mats])


# ---------------------------------------------------------------------------
# Lie-algebraic predicates
# ---------------------------------------------------------------------------

def _ambient_subspace(ambient) -> Subspace:
    return getattr(ambient, "algebra", ambient)


def _matrix_dim(space: Subspace) -> int:
    n = math.isqrt(space.ambient_dim)
    if n * n != space.ambient_dim:
        raise ValueError("ambient space is not a vectorized matrix space")
    return n


class NilpotencyReport(NamedTuple):
    bracket_closed: bool
    nilpotent: bool
    lcs_length: int


def nilpotent_subalgebra_test(sub: Subspace, ambient) -> NilpotencyReport:
    """Bracket closure and lower-central-series nilpotency of a subspace."""
    alg = _ambient_subspace(ambient)
    n = _matrix_dim(alg)
    if not alg.contains_subspace(sub):
        raise ValueError("subspace does not lie in the ambient algebra")

    def bracket_span(xs, ys):
        left, right = ([MatrixElement.from_vector(n, r) for r in rows] for rows in (xs, ys))
        return span_of_matrices([bracket(a, b) for a in left for b in right], n)

    basis = sub.rows
    nxt = bracket_span(basis, basis)  # [sub, sub], also the first term of the series
    if not sub.contains_subspace(nxt):
        return NilpotencyReport(False, False, 0)
    term, steps = sub, 0
    while term.dim:  # a zero subspace is vacuously nilpotent, with no steps
        steps += 1
        if nxt.dim == term.dim:
            return NilpotencyReport(True, False, steps)
        term = nxt
        nxt = bracket_span(basis, term.rows)
    return NilpotencyReport(True, True, steps)


def nilpotent_matrix(z: MatrixElement) -> bool:
    """Whether z^N = 0 for the N x N matrix z, by repeated squaring."""
    power, exponent = z, 1
    while exponent < z.dim and not power.is_zero():
        power, exponent = power @ power, 2 * exponent
    return power.is_zero()


def weight_decomposition(commuting_family, space: Subspace):
    """Simultaneous eigenspace split of a subspace under ad of a diagonal family.

    ad(diag(d)) scales the matrix unit E_ij by d_i - d_j, so each echelon row
    of `space` is split by the weight of its coordinates and every eigenspace
    is the span of its pieces.  Returns a list of (weight tuple, Subspace)
    pairs, sorted by weight (descending).  The pieces lie in `space` exactly
    when it is ad-stable; otherwise their dimensions add up to more than
    dim(space) and this raises.
    """
    n = _matrix_dim(space)
    family = list(commuting_family)
    if not all(h.is_diagonal() for h in family):
        raise ValueError("weight_decomposition requires a diagonal family")
    diags = [h.diagonal_entries() for h in family]
    pieces = {}
    for row in space.rows:
        split = {}
        for k, v in row.items():  # k is the unit E_ij with i = k mod n, j = k div n
            split.setdefault(tuple(d[k % n] - d[k // n] for d in diags), {})[k] = v
        for wt, piece in split.items():
            pieces.setdefault(wt, []).append(piece)
    parts = [(wt, Subspace(space.ambient_dim, rows)) for wt, rows in pieces.items()]
    if sum(part.dim for _, part in parts) != space.dim:
        raise ValueError("non-semisimple action detected: invalid Cartan choice")
    parts.sort(key=lambda p: p[0], reverse=True)
    return parts
