"""Root data of reductive Lie algebras, characters and Weyl groups.

An algebra is held by its roots in epsilon-coordinates (Bourbaki, Lie VI,
Plates I-IV) and the eps-parameters of a basis of its Cartan j.  Its matrix
realization is built on first use of `Algebra.matrices` (module
`realization`), which only `analyze` and the tests read.  The one exact
elimination routine, `_rref`, lives here on every command's path, and
`exactla` imports it.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from functools import cached_property
from operator import add, mul, sub
from typing import Iterable, Optional, Sequence

from . import WEYL_RANK_CAP, RankCapError


# ---------------------------------------------------------------------------
# Exact scalars and the reduced row echelon form of sparse rows
# ---------------------------------------------------------------------------

def _q(x):
    """Canonical exact scalar: plain int when integral (much faster), else
    Fraction.  Mixed int/Fraction arithmetic stays exact in Python; a float
    (or any other type) is refused, since it holds no exact rational."""
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError("exact scalar expected (int or Fraction), got %r" % (x,))


def _inv(x):
    """Exact reciprocal; never uses integer division."""
    if isinstance(x, int):
        if x in (1, -1):
            return x
        return Fraction(1, x)
    return 1 / x


def _vec_axpy(dst: dict, c, src: dict) -> None:
    """dst += c*src in place for sparse rows (index -> nonzero scalar),
    dropping zero entries."""
    if not c:
        return
    for k, v in src.items():
        w = dst.get(k, 0) + c * v
        if w:
            dst[k] = w
        else:
            dst.pop(k, None)


def _rref(rows) -> list:
    """Reduced row echelon form of sparse rows; destructive on the input list."""
    basis, pivots = [], []  # sorted by pivot index; a row's pivot never moves
    for row in rows:
        for piv, b in zip(pivots, basis):
            c = row.get(piv)
            if c:
                _vec_axpy(row, -c, b)
        if not row:
            continue
        piv = min(row)
        inv = _inv(row[piv])
        if inv != 1:  # _q keeps integral entries as (faster) ints
            row = {k: _q(inv * v) for k, v in row.items()}
        for b in basis:
            c = b.get(piv)
            if c:
                _vec_axpy(b, -c, row)
        at = bisect.bisect(pivots, piv)
        basis.insert(at, row)
        pivots.insert(at, piv)
    return basis


def _solve(columns, target):
    """Exact x with sum_j x_j * columns[j] = target (free unknowns 0), or None:
    the canonical RREF of [A | b] has a pivot in the b column exactly when
    there is no solution, else each pivot unknown is its row's b entry."""
    k = len(columns)
    rows = [
        {j: _q(v) for j, v in enumerate([col[i] for col in columns] + [t]) if v}
        for i, t in enumerate(target)
    ]
    sol = [Fraction(0)] * k
    for row in _rref(rows):
        piv = min(row)
        if piv == k:
            return None
        sol[piv] = Fraction(row.get(k, 0))
    return sol


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
# Classical types and their root data
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


class Algebra:
    """A reductive Lie algebra by its root data: `roots` in eps-coordinates
    and `cartan_columns`, the eps-parameters of a basis of its Cartan j.
    `type` is its classical type, or None for the sum of two copies of
    `factor` (the group case)."""

    def __init__(self, type: Optional[ClassicalType], roots: tuple, cartan_columns: list,
                 factor: Optional["Algebra"] = None):
        self.type, self.roots, self.cartan_columns, self.factor = type, roots, cartan_columns, factor
        self.rank, self.eps_dim = len(cartan_columns), len(cartan_columns[0])
        self.dim = self.rank + len(roots)
        self._datum = None  # the root datum, built by `root_datum`

    def cartan_params(self, params) -> tuple:
        """Epsilon-parameters of a Cartan element, checked to be realizable."""
        if len(params) != self.eps_dim:
            raise ValueError("expected %d Cartan parameters" % self.eps_dim)
        if _solve(self.cartan_columns, tuple(params)) is None:
            raise ValueError("parameters not realizable in the Cartan")
        return tuple(params)

    @cached_property
    def matrices(self):
        """The matrix realization, a `realization.AlgebraRealization`."""
        from .realization import realize

        return realize(self)


def classical_algebra(ctype: ClassicalType, with_center: bool = False) -> Algebra:
    """Roots and Cartan basis of a classical type: e_i - e_j in type A (sl,
    or gl with `with_center`, the Cartan then spanned by the e_i), and
    +-e_i +- e_j with +-e_i (B) or +-2e_i (C) in types B, C, D."""
    fam, n = ctype.family, ctype.rank
    if with_center and fam != "A":
        raise ValueError("central variant only exists for family A")
    m = n + (fam == "A")
    unit = [Weight(int(i == k) for i in range(m)) for k in range(m)]
    if fam == "A":
        roots = [a - b for a in unit for b in unit if a != b]
        cartan = unit if with_center else [unit[i] - unit[i + 1] for i in range(n)]
    else:
        roots = [x + y for i, a in enumerate(unit) for b in unit[i + 1:]
                 for x in (a, -a) for y in (b, -b)]
        if fam != "D":
            roots += [x + x if fam == "C" else x for a in unit for x in (a, -a)]
        cartan = unit
    return Algebra(ctype, tuple(roots), [h.coords for h in cartan])


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

    def __init__(self, eps_dim: int, roots: Iterable[Weight]):
        roots = tuple(sorted(roots, key=regular_order_key, reverse=True))
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

    def orbit(self, start) -> list:
        """[(point, labels)] of the W-orbit of a coordinate tuple, walked
        breadth-first from `start` under the simple reflections; one whose
        label is 0 fixes the point and is skipped."""
        orbit, seen = [(start, self.labels(start))], {start}
        for w, labels in orbit:  # appended to while walked: breadth-first order
            for i, x in enumerate(labels):
                if x:
                    u, u_labels = self.simple_reflection(w, labels, i)
                    if u not in seen:
                        seen.add(u)
                        orbit.append((u, u_labels))
        return orbit

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
            if r not in self.index:
                raise ValueError("not a root of the ambient datum: %r" % (r,))
            if -r not in rootset:
                raise ValueError("root subset is not symmetric")
        return RootDatum(self.eps_dim, rootset)


def _indecomposables(positive: Sequence[Weight]) -> tuple:
    """Simple roots, ordered along the coordinate chain (lexicographically):
    the positive roots a with a - b a positive root for no positive root b.
    On integer coordinate tuples; `positive` is sorted by decreasing
    `regular_order_key`, so any such b lies after a."""
    coords = [a.coords for a in positive]
    pos = set(coords)
    simple = [
        positive[i] for i, a in enumerate(coords)
        if not any(tuple(map(sub, a, b)) in pos for b in coords[i + 1:])
    ]
    simple.sort(key=lambda a: a.coords, reverse=True)
    return tuple(simple)


def root_datum(g: Algebra) -> RootDatum:
    """Roots of g for its Cartan, with the fixed positive system."""
    if g._datum is None:
        g._datum = RootDatum(g.eps_dim, g.roots)
    return g._datum


# ---------------------------------------------------------------------------
# Freudenthal weight multiplicities
# ---------------------------------------------------------------------------

def freudenthal_character(datum: RootDatum, lam: Weight) -> dict:
    """Full weight multiset of the simple module with highest weight lam, as
    {d: m}: the weight lam + d, d an integer tuple, has multiplicity m.

    Standard Freudenthal recursion, processed level by level in the simple
    root lattice.  A dominant weight of positive multiplicity fills its
    whole W-orbit (`RootDatum.orbit`), so a non-dominant weight, whose
    dominant conjugate lies on a strictly higher level, is a lookup.  The
    recursion runs on integer tuples: lam, rho and the (integral) roots
    times the lcm of the denominators of lam and rho, which scales every
    inner product by the same square and leaves the Freudenthal quotients as
    they are; a weight's scaled offset from lam is that lcm times d.
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
    mult = {w: 1 for w, _ in datum.orbit(top)}
    level = [top]
    while level:
        nxt = []
        for mu in {tuple(map(sub, nu, a)) for nu in level for a in simple}:
            if all(_dot(mu, a) >= 0 for a in simple):
                m = _freudenthal_mult(mu, mult, roots, rho, top_rho_sq)
                if m:
                    mult.update((w, m) for w, _ in datum.orbit(mu))
            else:
                m = mult.get(mu, 0)
            if m:
                nxt.append(mu)
        level = nxt
    return {tuple((c - t) // scale for c, t in zip(mu, top)): m for mu, m in mult.items()}


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

    def compose(self, other: "WeylElement") -> "WeylElement":
        """self after other: (self*other).v = self(other(v))."""
        perm = tuple(other.perm[self.perm[i]] for i in range(len(self.perm)))
        signs = tuple(self.signs[i] * other.signs[self.perm[i]] for i in range(len(self.perm)))
        return WeylElement(perm, signs)

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
