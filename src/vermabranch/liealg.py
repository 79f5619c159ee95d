"""Classical matrix Lie algebras, root data, characters and Weyl groups.

All realizations carry a diagonal Cartan: type A as trace-zero (or full gl)
matrices, types B/D as so(m) for the anti-diagonal symmetric form and type C
as sp(2n) for the anti-diagonal symplectic form.  With these choices the
upper-triangular intersection is the standard Borel and weights live in
epsilon-coordinates read off the first diagonal entries.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from operator import add, mul, sub
from typing import Iterable, Optional, Sequence

from . import PreconditionError
from .exactla import (
    MatrixElement,
    Subspace,
    _as_sparse,
    _frac,
    _q,
    _rref,
    span_of_matrices,
    weight_decomposition,
)

# size caps: exceeding one raises RankCapError
PAIR_RANK_CAP = 12  # ambient rank of a catalog pair, checked before it is built
WEYL_RANK_CAP = 6
MF_SCAN_RANK_CAP = 6
DEGREE_CAP = 12
LEVEL_CAP = 12


class RankCapError(PreconditionError):
    """Raised when a rank, degree or level exceeds its cap."""


def check_cap(name: str, value: int, cap: int) -> None:
    if value > cap:
        raise RankCapError("%s capped at %d" % (name, cap))


# ---------------------------------------------------------------------------
# Weights
# ---------------------------------------------------------------------------

class Weight:
    """A rational vector of epsilon-coordinates; exact component arithmetic.
    Coordinates are canonical `_q` scalars: int when integral, else Fraction."""

    __slots__ = ("coords", "_hash")

    def __init__(self, coords: Iterable):
        self.coords = tuple(map(_q, coords))
        self._hash = None

    def __len__(self):
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(a - b for a, b in zip(self.coords, other.coords))

    def __neg__(self) -> "Weight":
        return Weight(-a for a in self.coords)

    def dot(self, other: "Weight"):
        return sum(map(mul, self.coords, other.coords))

    def is_zero(self) -> bool:
        return not any(self.coords)

    def int_coords(self):
        if any(type(c) is not int for c in self.coords):
            raise ValueError("weight is not integral: %r" % (self,))
        return self.coords

    @classmethod
    def zero(cls, n: int) -> "Weight":
        return cls((0,) * n)

    def __eq__(self, other):
        return isinstance(other, Weight) and self.coords == other.coords

    def __hash__(self):  # cached: roots and weights are hashed often
        if self._hash is None:
            self._hash = hash(self.coords)
        return self._hash

    def __repr__(self):
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


# ---------------------------------------------------------------------------
# Classical types and realizations
# ---------------------------------------------------------------------------

_RANK_MIN = {"A": 1, "B": 2, "C": 2, "D": 3}


class ClassicalType:
    def __init__(self, family: str, rank: int):
        if family not in _RANK_MIN:
            raise ValueError("unsupported family %r" % (family,))
        if rank < _RANK_MIN[family]:
            raise ValueError(
                "rank %d below the validity bound for family %s" % (rank, family)
            )
        self.family, self.rank = family, rank

    def __str__(self):
        return "%s%d" % (self.family, self.rank)


class AlgebraRealization:
    """A matrix Lie algebra with a distinguished diagonal Cartan.

    `eps_probes` are diagonal matrices dual to the epsilon-coordinates: the
    tuple of ad-eigenvalues under the probes is the coordinate vector of a
    weight.  For type A (sl variant) the probes are the gl matrix units, which
    keeps root coordinates canonical (coordinates summing to zero).
    """

    def __init__(self, type: Optional[ClassicalType], matrix_dim: int, algebra: Subspace,
                 cartan_basis: list, eps_probes: list, eps_positions: list):
        self.type, self.matrix_dim, self.algebra = type, matrix_dim, algebra
        self.cartan_basis, self.eps_probes, self.eps_positions = cartan_basis, eps_probes, eps_positions
        self._datum = None  # the root datum, built by `root_datum`

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def rank(self) -> int:
        return len(self.cartan_basis)

    @property
    def eps_dim(self) -> int:
        return len(self.eps_probes)

    def eps_params(self, h: MatrixElement) -> Weight:
        """Epsilon-parameters of a diagonal Cartan element."""
        if not h.is_diagonal():
            raise ValueError("not a diagonal Cartan element")
        diag = h.diagonal_entries()
        return Weight(diag[p] for p in self.eps_positions)

    @cached_property
    def cartan_columns(self) -> list:
        """Epsilon-parameters of the Cartan basis, one tuple per element."""
        return [self.eps_params(h).coords for h in self.cartan_basis]

    def cartan_params(self, params) -> tuple:
        """Epsilon-parameters of a Cartan element, checked to be realizable."""
        if len(params) != self.eps_dim:
            raise ValueError("expected %d Cartan parameters" % self.eps_dim)
        if _solve(self.cartan_columns, tuple(params)) is None:
            raise ValueError("parameters not realizable in the Cartan")
        return tuple(params)


def _solve(columns, target):
    """Exact x with sum_j x_j * columns[j] = target (free unknowns 0), or None:
    the canonical RREF of [A | b] has a pivot in the b column exactly when
    there is no solution, else each pivot unknown is its row's b entry."""
    k = len(columns)
    rows = [_as_sparse([col[i] for col in columns] + [t]) for i, t in enumerate(target)]
    sol = [Fraction(0)] * k
    for row in _rref(rows):
        piv = min(row)
        if piv == k:
            return None
        sol[piv] = _frac(row.get(k, 0))
    return sol


def _anti_identity(m: int) -> MatrixElement:
    return MatrixElement(m, {(i, m - 1 - i): Fraction(1) for i in range(m)})


def _symplectic_form(n: int) -> MatrixElement:
    m = 2 * n
    data = {}
    for i in range(m):
        data[(i, m - 1 - i)] = Fraction(1 if i < n else -1)
    return MatrixElement(m, data)


def _form_algebra(m: int, g: MatrixElement) -> Subspace:
    """{X : X^T G + G X = 0}: the fixed space of the involution
    X -> -G^T X^T G (G is an anti-diagonal signed permutation, so G^-1 = G^T),
    spanned by E - G^T E^T G over the matrix units E."""
    gt = g.transpose()
    units = [MatrixElement.unit(m, i, j) for i in range(m) for j in range(m)]
    return span_of_matrices([e - gt @ e.transpose() @ g for e in units], m)


def build_classical(ctype: ClassicalType, with_center: bool = False) -> AlgebraRealization:
    """Standard split realization; `with_center` selects gl over sl in type A."""
    fam, n = ctype.family, ctype.rank
    if with_center and fam != "A":
        raise ValueError("central variant only exists for family A")
    if fam == "A":
        m = n + 1
        units = [MatrixElement.unit(m, i, j) for i in range(m) for j in range(m) if i != j]
        if with_center:
            diag = [MatrixElement.unit(m, i, i) for i in range(m)]
        else:
            diag = [
                MatrixElement.unit(m, i, i) - MatrixElement.unit(m, i + 1, i + 1)
                for i in range(m - 1)
            ]
        algebra = span_of_matrices(units + diag, m)
        probes = [MatrixElement.unit(m, i, i) for i in range(m)]
        return AlgebraRealization(
            type=ctype,
            matrix_dim=m,
            algebra=algebra,
            cartan_basis=diag,
            eps_probes=probes,
            eps_positions=list(range(m)),
        )
    m = 2 * n + (fam == "B")
    algebra = _form_algebra(m, _symplectic_form(n) if fam == "C" else _anti_identity(m))
    cartan = [
        MatrixElement.unit(m, i, i) - MatrixElement.unit(m, m - 1 - i, m - 1 - i)
        for i in range(n)
    ]
    for h in cartan:
        if not algebra.contains_matrix(h):
            raise AssertionError("Cartan element escaped the realization")
    return AlgebraRealization(
        type=ctype,
        matrix_dim=m,
        algebra=algebra,
        cartan_basis=cartan,
        eps_probes=list(cartan),
        eps_positions=list(range(n)),
    )


# ---------------------------------------------------------------------------
# Root data
# ---------------------------------------------------------------------------

def regular_order_key(w: Weight):
    """Sort key for the fixed regular functional (decreasing eps-weights)."""
    coords = w.coords
    n = len(coords)
    return (sum((n - i) * c for i, c in enumerate(coords)), coords)


def scaled_coords(coords, scale: int) -> tuple:
    """The integer tuple scale * coords; `scale` must clear every denominator."""
    return tuple(c.numerator * (scale // c.denominator) for c in coords)


def _dot(u, v):
    return sum(map(mul, u, v))


class RootDatum:
    """Roots of a Lie algebra in the coordinates of its Cartan (eps- or
    restricted coordinates), with the positive system of the fixed regular
    functional, its simple roots and rho.  Every root is an integer vector,
    which the integer kernels below rely on; only weights and rho carry
    denominators."""

    def __init__(self, eps_dim: int, root_spaces: dict, zero_space: Optional[Subspace] = None):
        roots = tuple(sorted(root_spaces, key=regular_order_key, reverse=True))
        for a in roots:
            if not all(type(c) is int for c in a.coords):
                raise ValueError("root %r is not an integer vector" % (a,))
        if any(regular_order_key(r)[0] == 0 for r in roots):
            raise ValueError("a root vanishes on the fixed regular element")
        positive = tuple(r for r in roots if regular_order_key(r)[0] > 0)
        if len(positive) * 2 != len(roots):
            raise ValueError("regular functional failed to split the roots")
        self.eps_dim, self.roots, self.positive_roots = eps_dim, roots, positive
        self.simple_roots = _indecomposables(positive)
        self.rho = Weight(Fraction(sum(a[i] for a in positive), 2) for i in range(eps_dim))
        self.root_spaces, self.zero_space = root_spaces, zero_space

    @cached_property
    def index(self) -> dict:
        """Root -> its position in `roots`."""
        return {a: i for i, a in enumerate(self.roots)}

    @cached_property
    def sum_table(self) -> list:
        """Row i maps j to k where roots[i] + roots[j] = roots[k]."""
        return [
            {j: k for j, b in enumerate(self.roots) if (k := self.index.get(a + b)) is not None}
            for a in self.roots
        ]

    @cached_property
    def negation(self) -> list:
        """Entry i is the index of -roots[i]."""
        return [self.index[-a] for a in self.roots]

    def sign_masks(self, params) -> tuple:
        """Root-index bitmasks (vanishing, positive) of the roots by their
        sign on eps-parameters; exact, as `params` is scaled to integers by a
        positive factor and the roots are integral."""
        t = scaled_coords(params, math.lcm(*(x.denominator for x in params)))
        zero = pos = 0
        bit = 1
        for a in self.roots:
            v = _dot(a.coords, t)
            if v > 0:
                pos |= bit
            elif v == 0:
                zero |= bit
            bit <<= 1
        return zero, pos

    def roots_of_mask(self, mask: int) -> frozenset:
        return frozenset(a for i, a in enumerate(self.roots) if mask >> i & 1)

    def coroot_pairing(self, lam: Weight, alpha: Weight) -> Fraction:
        return Fraction(2 * lam.dot(alpha), alpha.dot(alpha))

    def reflect(self, w: Weight, alpha: Weight) -> Weight:
        p = self.coroot_pairing(w, alpha)
        return Weight(x - p * a for x, a in zip(w.coords, alpha.coords))

    # -- the Weyl action on coordinate tuples, by simple reflections

    @cached_property
    def simple_coords(self) -> list:
        """(coordinates, squared length) of each simple root."""
        return [(a.coords, _dot(a.coords, a.coords)) for a in self.simple_roots]

    @cached_property
    def cartan(self) -> list:
        """Row i, <alpha_i, alpha_j^vee> over j: how s_i moves the labels."""
        return [[2 * _dot(a, b) // bb for b, bb in self.simple_coords] for a, _ in self.simple_coords]

    def labels(self, w) -> list:
        """<w, alpha_i^vee> over the simple roots of a coordinate tuple w, an
        int wherever the quotient is exact."""
        out = []
        for a, aa in self.simple_coords:
            q, r = divmod(p := 2 * _dot(w, a), aa)
            out.append(Fraction(p, aa) if r else q)
        return out

    def simple_reflection(self, w, labels, i) -> tuple:
        """(s_i w, its labels) from w and its labels: w - labels[i] alpha_i."""
        x = labels[i]
        return (tuple(y - x * z for y, z in zip(w, self.simple_coords[i][0])),
                [y - x * z for y, z in zip(labels, self.cartan[i])])

    def to_dominant(self, w, labels) -> tuple:
        """(w', labels', det): w reflected in the first simple root of negative
        label until none is left, and the sign of the element applied.  The
        labels may belong to a shift w + c of w (e.g. c = rho): then w' + c
        is the dominant conjugate of w + c."""
        det = 1
        while True:
            for i, x in enumerate(labels):
                if x < 0:
                    break
            else:
                return w, labels, det
            (w, labels), det = self.simple_reflection(w, labels, i), -det

    def is_dominant_integral(self, lam: Weight) -> bool:
        scale = math.lcm(*(c.denominator for c in lam.coords))
        return all(
            x >= 0 and x % scale == 0 for x in self.labels(scaled_coords(lam.coords, scale))
        )

    def dominant_representative(self, w: Weight) -> Weight:
        # w scaled by its common denominator d: every label is d <w, alpha^vee>
        scale = math.lcm(*(c.denominator for c in w.coords))
        t = scaled_coords(w.coords, scale)
        return Weight(Fraction(c, scale) for c in self.to_dominant(t, self.labels(t))[0])

    def sub_datum(self, roots: Iterable[Weight]) -> "RootDatum":
        """Datum of a root subsystem (e.g. a Levi factor), same coordinates."""
        rootset = set(roots)
        for r in rootset:
            if r not in self.root_spaces:
                raise ValueError("not a root of the ambient datum: %r" % (r,))
            if -r not in rootset:
                raise ValueError("root subset is not symmetric")
        return RootDatum(self.eps_dim, {r: self.root_spaces[r] for r in rootset}, self.zero_space)


def _indecomposables(positive: Sequence[Weight]) -> tuple:
    """Simple roots, ordered along the coordinate chain (lexicographically)."""
    pos = set(positive)
    simple = [
        a for a in positive
        if not any((a - b) in pos for b in pos if b != a)
    ]
    simple.sort(key=lambda a: a.coords, reverse=True)
    return tuple(simple)


def root_datum(g: AlgebraRealization) -> RootDatum:
    """Roots of g for its diagonal Cartan, with the fixed positive system."""
    if g._datum is None:
        root_spaces, zero_space = {}, None
        for wt, space in weight_decomposition(g.eps_probes, g.algebra):
            w = Weight(wt)
            if w.is_zero():
                zero_space = space
            elif space.dim != 1:
                raise ValueError("root space of dimension %d at %r" % (space.dim, w))
            else:
                root_spaces[w] = space
        if zero_space is None or zero_space.dim != g.rank:
            raise ValueError("zero-weight space does not match the Cartan")
        g._datum = RootDatum(g.eps_dim, root_spaces, zero_space)
    return g._datum


# ---------------------------------------------------------------------------
# Freudenthal weight multiplicities
# ---------------------------------------------------------------------------

def freudenthal_character(datum: RootDatum, lam: Weight) -> dict:
    """Full weight multiset of the simple module with highest weight lam.

    Standard Freudenthal recursion, processed level by level in the simple
    root lattice; non-dominant weights are filled in from their dominant
    Weyl representative.  The recursion runs on integer tuples: lam, rho and
    the (integral) roots times the lcm of the denominators of lam and rho,
    which scales every inner product by the same square and leaves the
    Freudenthal quotients as they are.
    """
    if not datum.is_dominant_integral(lam):
        raise ValueError("highest weight is not dominant integral: %r" % (lam,))
    scale = math.lcm(*(c.denominator for c in lam.coords + datum.rho.coords))
    simple = [tuple(scale * c for c in a) for a in datum.simple_roots]
    roots = [(a, _dot(a, a)) for a in (tuple(scale * c for c in a) for a in datum.positive_roots)]
    rho = scaled_coords(datum.rho.coords, scale)
    top = scaled_coords(lam.coords, scale)
    top_rho = tuple(map(add, top, rho))
    top_rho_sq = _dot(top_rho, top_rho)
    mult = {top: 1}
    level = [top]
    while level:
        nxt = []
        for mu in {tuple(map(sub, nu, a)) for nu in level for a in simple}:
            if all(_dot(mu, a) >= 0 for a in simple):
                m = _freudenthal_mult(mu, mult, roots, rho, top_rho_sq)
            else:
                m = mult.get(datum.to_dominant(mu, datum.labels(mu))[0], 0)
            if m:
                mult[mu] = m
                nxt.append(mu)
        level = nxt
    values = {c: Fraction(c, scale) for mu in mult for c in mu}
    return {Weight(values[c] for c in mu): m for mu, m in mult.items()}


def _freudenthal_mult(mu, mult, roots, rho, top_rho_sq) -> int:
    mu_rho = tuple(map(add, mu, rho))
    denom = top_rho_sq - _dot(mu_rho, mu_rho)
    if denom == 0:
        raise AssertionError("Freudenthal denominator vanished off the top weight")
    total = 0
    for a, aa in roots:
        nu = tuple(map(add, mu, a))
        d = _dot(nu, a)
        while m := mult.get(nu):
            total += m * d
            d += aa
            nu = tuple(map(add, nu, a))
    value, rem = divmod(2 * total, denom)
    if rem or value < 0:
        raise AssertionError("non-integral Freudenthal multiplicity")
    return value


def weyl_dimension(datum: RootDatum, lam: Weight) -> int:
    """Weyl dimension formula; independent oracle for character sizes."""
    num = Fraction(1)
    for a in datum.positive_roots:
        num *= Fraction((lam + datum.rho).dot(a), datum.rho.dot(a))
    if num.denominator != 1:
        raise AssertionError("Weyl dimension came out non-integral")
    return int(num)


# ---------------------------------------------------------------------------
# Weyl groups as signed permutations
# ---------------------------------------------------------------------------

class WeylElement:
    """Signed permutation of epsilon-coordinates: (w.v)[i] = signs[i]*v[perm[i]]."""

    __slots__ = ("perm", "signs")

    def __init__(self, perm: Sequence[int], signs: Sequence[int]):
        self.perm = tuple(perm)
        self.signs = tuple(signs)

    @classmethod
    def identity(cls, n: int) -> "WeylElement":
        return cls(tuple(range(n)), (1,) * n)

    def apply(self, w: Weight) -> Weight:
        return Weight(self.signs[i] * w[self.perm[i]] for i in range(len(self.perm)))

    def apply_params(self, params):
        return tuple(self.signs[i] * params[self.perm[i]] for i in range(len(self.perm)))

    def compose(self, other: "WeylElement") -> "WeylElement":
        """self after other: (self*other).v = self(other(v))."""
        perm = tuple(other.perm[self.perm[i]] for i in range(len(self.perm)))
        signs = tuple(self.signs[i] * other.signs[self.perm[i]] for i in range(len(self.perm)))
        return WeylElement(perm, signs)

    def inverse(self) -> "WeylElement":
        n = len(self.perm)
        perm = [0] * n
        signs = [1] * n
        for i in range(n):
            perm[self.perm[i]] = i
            signs[self.perm[i]] = self.signs[i]
        return WeylElement(perm, signs)

    def minus_count(self) -> int:
        return sum(1 for s in self.signs if s < 0)

    def __eq__(self, other):
        return (
            isinstance(other, WeylElement)
            and self.perm == other.perm
            and self.signs == other.signs
        )

    def __hash__(self):
        return hash((self.perm, self.signs))

    def __repr__(self):
        return "WeylElement(perm=%r, signs=%r)" % (self.perm, self.signs)


def reflection_element(datum: RootDatum, alpha: Weight) -> WeylElement:
    """The reflection s_alpha as a signed permutation of coordinates."""
    n = datum.eps_dim
    perm = [None] * n
    signs = [0] * n
    for k in range(n):
        e = Weight([int(i == k) for i in range(n)])
        img = datum.reflect(e, alpha)
        hits = [(i, c) for i, c in enumerate(img.coords) if c]
        if len(hits) != 1 or abs(hits[0][1]) != 1:
            raise ValueError("reflection is not a signed permutation")
        j, c = hits[0]
        # e_k maps to c*e_j, i.e. coordinate j of the image reads sign*coord k
        perm[j] = k
        signs[j] = 1 if c > 0 else -1
    return WeylElement(perm, signs)


def check_weyl_rank(datum: RootDatum) -> None:
    """Cap on the rank of any enumeration over W (the group, a Weyl orbit)."""
    if len(datum.simple_roots) > WEYL_RANK_CAP:
        raise RankCapError(
            "Weyl enumeration capped at rank %d" % WEYL_RANK_CAP
        )


def weyl_group(datum: RootDatum) -> list:
    """Full enumeration of the Weyl group generated by simple reflections."""
    check_weyl_rank(datum)
    gens = [reflection_element(datum, a) for a in datum.simple_roots]
    seen = {WeylElement.identity(datum.eps_dim)}
    frontier = list(seen)
    while frontier:
        new = []
        for w in frontier:
            for s in gens:
                x = s.compose(w)
                if x not in seen:
                    seen.add(x)
                    new.append(x)
        frontier = new
    return sorted(seen, key=lambda w: (w.perm, w.signs))
