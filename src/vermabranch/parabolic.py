"""Parabolic subalgebras p(H), closedness criteria and closed-orbit censuses.

A parabolic containing the diagonal Cartan is determined by the sign pattern
of the roots on its defining hyperbolic element, so Weyl orbits and census
deduplication work on root patterns; the exact subspaces are materialized
lazily when a report needs them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .exactla import (
    MatrixElement,
    NilpotencyReport,
    Subspace,
    _rref,
    _vec_axpy,
    bracket,
    lcs_report,
    nilpotent_matrix,
)
from .liealg import (
    AlgebraRealization,
    RootDatum,
    Weight,
    _solve,
    check_weyl_rank,
    reflection_element,
    root_datum,
    scaled_coords,
)
from .pairs import SymmetricPair, restricted_root_data, tau_projection


class IncompatibleRestrictionError(ValueError):
    """The parabolic is not stable under the pair involution."""


# ---------------------------------------------------------------------------
# ParabolicData
# ---------------------------------------------------------------------------

@dataclass
class ParabolicData:
    g: AlgebraRealization
    params: tuple  # eps-parameters of the defining H
    levi_roots: frozenset
    nilradical_roots: frozenset

    @property
    def pattern(self):
        """Canonical key: a parabolic containing j is its root sign pattern."""
        return (self.levi_roots, self.nilradical_roots)

    @cached_property
    def negative_roots(self) -> frozenset:
        """The roots of u_-: minus those of the nilradical."""
        return frozenset(-a for a in self.nilradical_roots)

    @property
    def datum(self) -> RootDatum:
        return root_datum(self.g)

    @cached_property
    def u_plus(self) -> Subspace:
        """The nilradical as a matrix subspace (for the spot check)."""
        spaces = self.datum.root_spaces
        rows = [dict(r) for a in self.nilradical_roots for r in spaces[a].rows]
        return Subspace(self.g.matrix_dim ** 2, rows)

    @property
    def is_borel(self) -> bool:
        return not self.levi_roots

    def levi_datum(self) -> RootDatum:
        return self.datum.sub_datum(self.levi_roots)

    def nilradical_abelian(self) -> bool:
        """[u, u] = 0: no two nilradical roots sum to a root."""
        roots = self.datum.root_spaces
        return not any(a + b in roots for a in self.nilradical_roots for b in self.nilradical_roots)

    def __eq__(self, other):
        return (
            isinstance(other, ParabolicData)
            and self.g is other.g
            and self.pattern == other.pattern
        )

    def __hash__(self):
        return hash(self.pattern)

    def __repr__(self):
        return "ParabolicData(levi=%d roots, nilradical=%d roots)" % (
            len(self.levi_roots),
            len(self.nilradical_roots),
        )


def _pattern_from_params(datum: RootDatum, params) -> tuple:
    """(levi, nilradical) root sets of the parabolic of `params`."""
    return tuple(datum.roots_of_mask(m) for m in datum.sign_masks(params))


def parabolic_from_params(g: AlgebraRealization, params) -> ParabolicData:
    """Parabolic defined by the sign of the roots on the Cartan element H with
    these eps-parameters (realizable ones: see `cartan_params`)."""
    params = tuple(map(Fraction, params))
    levi, nilrad = _pattern_from_params(root_datum(g), params)
    return ParabolicData(g=g, params=params, levi_roots=levi, nilradical_roots=nilrad)


def parabolic_from_H(g: AlgebraRealization, h: MatrixElement) -> ParabolicData:
    """Parabolic defined by the sign of the roots on a diagonal H in j."""
    if not h.is_diagonal() or not g.algebra.contains_matrix(h):
        raise ValueError("H must lie in the diagonal Cartan of the realization")
    return parabolic_from_params(g, g.eps_params(h).coords)


def parabolic_from_simple_subset(g: AlgebraRealization, subset) -> ParabolicData:
    """Standard parabolic whose Levi system is generated by the given simples.

    H is the sum of fundamental coweights dual to the simple roots outside
    the subset, solved exactly inside the Cartan; its eps-parameters are the
    same combination of those of the Cartan basis.
    """
    datum = root_datum(g)
    subset = set(subset)
    if not subset <= set(range(len(datum.simple_roots))):
        raise ValueError("subset must consist of simple root indices")
    hs = [Weight(h) for h in g.cartan_columns]
    columns = [tuple(a.dot(h) for a in datum.simple_roots) for h in hs]
    target = tuple(
        Fraction(0) if i in subset else Fraction(1)
        for i in range(len(datum.simple_roots))
    )
    coeffs = _solve(columns, target)
    if coeffs is None:
        raise AssertionError("coweight system has no solution")
    params = [sum(c * h[i] for c, h in zip(coeffs, hs)) for i in range(g.eps_dim)]
    return parabolic_from_params(g, params)


# ---------------------------------------------------------------------------
# compatibility and closedness
# ---------------------------------------------------------------------------

@dataclass
class CompatibilityReport:
    compatible: bool
    fixed_params: Optional[tuple]  # eps-parameters of (H + tau H)/2


@dataclass
class ClosednessReport:
    """pr_u, l_tau and p_tau are spans in the root coordinates of `_RootTables`."""

    closed: bool
    pr_u: Subspace
    nil_report: NilpotencyReport
    l_tau: Optional[Subspace] = None
    p_tau: Optional[Subspace] = None
    gk_dim: Optional[int] = None


def compatibility_report(p: ParabolicData, pair: SymmetricPair) -> CompatibilityReport:
    """tau-stability of p, equivalent to g^tau-compatibility for symmetric tau."""
    if p.g is not pair.g:
        raise ValueError("parabolic and pair live on different realizations")
    roots_of_p = p.levi_roots | p.nilradical_roots
    stable = {pair.tau_star(a) for a in roots_of_p} == roots_of_p
    fixed = pair.fixed_params(p.params) if stable else None
    if stable and _pattern_from_params(p.datum, fixed) != p.pattern:
        raise AssertionError("p(H + tau H) differs from p for a stable parabolic")
    return CompatibilityReport(compatible=stable, fixed_params=fixed)


class _RootTables:
    """g in root coordinates: i < R is the root vector X_i (the echelon row of
    the root space of `datum.roots[i]`), R + k the k-th Cartan row of
    `zero_space`.  Catalog involutions permute the root spaces up to sign and
    [X_a, X_b] = N_{a,b} X_{a+b}, so j^tau, tau and the brackets are tables
    read from the matrices (the last two at first use), each checked on read."""

    def __init__(self, pair: SymmetricPair):
        self.pair, self.datum = pair, root_datum(pair.g)
        roots, n, scale = self.datum.roots, pair.g.matrix_dim, self.datum.int_table().scale
        self.index = {a: i for i, a in enumerate(roots)}
        self.spaces = [self.datum.root_spaces[a] for a in roots] + [self.datum.zero_space]
        self.vectors = [MatrixElement.from_vector(n, s.rows[0]) for s in self.spaces[:-1]]
        self.ints = [scaled_coords(a.coords, scale) for a in roots]
        self.targets = {v: i for i, v in enumerate(self.ints + [(0,) * self.datum.eps_dim])}
        self._brackets, self._tau = {}, {}
        self._jtau = [self._read(h, len(roots), "j^tau") for h in pair.j_tau_basis]

    def _read(self, matrix, k, what) -> dict:
        """Root coordinates of a matrix that must be a multiple of X_k (k < R),
        lie in the Cartan (k == R) or vanish (k is None)."""
        coords = (Subspace(0) if k is None else self.spaces[k]).coordinates_of(matrix.vectorize())
        if coords is None:
            raise AssertionError("%s does not lie in its target space (%s)" % (what, k))
        return {k + m: c for m, c in enumerate(coords) if c}

    def row_bracket(self, x, y) -> dict:
        """Bracket of two rows on root vectors; [X_i, X_j] lies in g_{a+b}."""
        out = {}
        for i, a in x.items():
            for j, b in y.items():
                if (i, j) not in self._brackets:
                    k = self.targets.get(tuple(u + v for u, v in zip(self.ints[i], self.ints[j])))
                    xy = bracket(self.vectors[i], self.vectors[j])
                    self._brackets[i, j] = self._read(xy, k, "[X_a, X_b]")
                _vec_axpy(out, a * b, self._brackets[i, j])
        return out

    def tau_image(self, i) -> dict:
        """tau X_i, read once against tau*(datum.roots[i])."""
        if i not in self._tau:
            k = self.index.get(self.pair.tau_star(self.datum.roots[i]))
            self._tau[i] = self._read(self.pair.tau(self.vectors[i]), k, "tau X_a")
        return self._tau[i]

    def orbit_vector(self, i) -> dict:
        """X_i + tau X_i."""
        row = dict(self.tau_image(i))
        _vec_axpy(row, 1, {i: 1})
        return row

    def fixed_part(self, roots) -> Subspace:
        """(j + the root spaces of the index set `roots`) cap g^tau: j^tau plus
        X_i + tau X_i over the roots i whose tau-image stays in the set."""
        rows = [r for r in map(self.orbit_vector, roots) if r.keys() <= roots]
        return self.span([dict(r) for r in self._jtau] + rows)

    def span(self, rows) -> Subspace:
        """Span of fresh rows without zero entries (`_rref` consumes them)."""
        return Subspace(self.pair.g.dim, _rref([r for r in rows if r]), _canonical=True)


def _tables(pair: SymmetricPair) -> _RootTables:
    if pair._root_tables is None:
        pair._root_tables = _RootTables(pair)
    return pair._root_tables


def root_tau_split(pair: SymmetricPair, roots) -> tuple:
    """(plus, minus): one root per tau-eigenvector, of eigenvalue +1 or -1,
    in the tau-stable part of the span of the root spaces of `roots`.

    Counted over the tau*-orbits inside the set: an orbit {a, tau* a} of two
    roots gives X_a + tau X_a and X_a - tau X_a, one to each side (listed
    under a), and a fixed root a goes to the side of s in tau X_a = s X_a.
    """
    t = _tables(pair)
    indices = {t.index[a] for a in roots}
    plus, minus = [], []
    for i in sorted(indices):
        j = t.index[pair.tau_star(t.datum.roots[i])]
        if j == i:
            (plus if t.tau_image(i)[i] > 0 else minus).append(t.datum.roots[i])
        elif i < j and j in indices:
            plus.append(t.datum.roots[i])
            minus.append(t.datum.roots[i])
    return plus, minus


def closedness_report(p: ParabolicData, pair: SymmetricPair) -> ClosednessReport:
    """Closedness of the symmetric-subgroup orbit through p, via pr_tau(u),
    in the root coordinates of `_RootTables`: pr_tau(u) is spanned by
    X_a + tau X_a over the roots a of u."""
    if p.g is not pair.g:
        raise ValueError("parabolic and pair live on different realizations")
    t = _tables(pair)
    nilradical = {t.index[a] for a in p.nilradical_roots}
    pr = t.span(map(t.orbit_vector, nilradical))
    nil = lcs_report(pr, lambda xs, ys: t.span(t.row_bracket(x, y) for x in xs for y in ys))
    closed = nil.bracket_closed and nil.nilpotent
    if not closed:
        return ClosednessReport(closed=False, pr_u=pr, nil_report=nil)
    levi = {t.index[a] for a in p.levi_roots}
    l_tau = t.fixed_part(levi)
    p_tau = t.fixed_part(levi | nilradical)
    if p_tau.dim != l_tau.dim + pr.dim:
        raise AssertionError("Levi decomposition of p^tau failed the dimension check")
    if p_tau != l_tau.sum(pr):
        raise AssertionError("p^tau is not spanned by l^tau and pr_tau(u)")
    gk = pair.fixed.dim - p_tau.dim
    return ClosednessReport(
        closed=True, pr_u=pr, nil_report=nil, l_tau=l_tau, p_tau=p_tau, gk_dim=gk
    )


def condition_iii_spot_check(
    p: ParabolicData, pair: SymmetricPair, samples: int = 20, seed: int = 20260810
) -> bool:
    """Randomized check that pr_tau(u) consists of ad-nilpotent elements.

    Basis elements are always tested; `samples` fixed-seed rational
    combinations with coefficients in {-3,...,3} follow.  This is the
    validation layer for the implemented bracket criterion.  pr_tau(u) lies
    in [g, g], on which ad z is nilpotent exactly when the matrix z is
    (`exactla.ad_nilpotent`), so each element is tested by z^N = 0.
    """
    mats = tau_projection(pair, p.u_plus).matrices()
    if not all(map(nilpotent_matrix, mats)):
        return False
    rng = random.Random(seed)
    for _ in range(samples):
        coeffs = [rng.randint(-3, 3) for _ in mats]
        z = MatrixElement.combination(pair.g.matrix_dim, coeffs, mats)
        if not z.is_zero() and not nilpotent_matrix(z):
            return False
    return True


@dataclass
class TensorClosednessReport:
    closed: bool


def tensor_closedness(p1: ParabolicData, p2: ParabolicData) -> TensorClosednessReport:
    """Root-wise criterion: p1 cap p2 parabolic iff each root or its negative
    lies in both."""
    if p1.g is not p2.g:
        raise ValueError("parabolics live on different ambient algebras")
    datum = p1.datum
    r1 = p1.levi_roots | p1.nilradical_roots
    r2 = p2.levi_roots | p2.nilradical_roots
    ok = all(
        (a in r1 and a in r2) or (-a in r1 and -a in r2)
        for a in datum.positive_roots
    )
    return TensorClosednessReport(closed=ok)


# ---------------------------------------------------------------------------
# closed-orbit census
# ---------------------------------------------------------------------------

@dataclass
class OrbitCensusReport:
    total_parabolics_containing_j: int
    closed_count: int
    representatives: list  # (descriptor, ParabolicData, gk_dim)


def _union_find(items):
    """(find, union) on a partition of `items`, starting from singletons."""
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    return find, union


def _reflection(f, v):
    """The map t -> t - <f, t> v on eps-parameters."""

    def reflect(t):
        c = sum((a * x for a, x in zip(f, t) if a), Fraction(0))
        return tuple(x - c * y for x, y in zip(t, v))

    return reflect


def enumerate_weyl_translates(pair: SymmetricPair, subset):
    """Distinct parabolics containing j of the given standard type.

    They are the W(g)-orbit of the standard t0, one point per parabolic (the
    stabilizer of the dominant t0 is W_S), walked breadth-first under the
    simple reflections t -> t - <alpha^vee, t> alpha.

    Returns (pattern -> ParabolicData, pattern -> {its eps-params}).
    """
    g = pair.g
    datum = root_datum(g)
    check_weyl_rank(datum)
    reflections = [_reflection(a.scale(2 / a.dot(a)), a) for a in datum.simple_roots]
    orbit = [parabolic_from_simple_subset(g, subset).params]
    seen = set(orbit)
    for t in orbit:  # appended to while walked: breadth-first order
        for s in reflections:
            u = s(t)
            if u not in seen:
                seen.add(u)
                orbit.append(u)
    by_pattern = {p.pattern: p for p in (parabolic_from_params(g, t) for t in orbit)}
    if len(by_pattern) != len(orbit):
        raise AssertionError("two points of the Weyl orbit of t0 give one parabolic")
    return by_pattern, {key: {p.params} for key, p in by_pattern.items()}


def _census_generators(pair: SymmetricPair):
    """Census group generators as exact maps on ambient eps-parameters.

    The reflection in a simple restricted root beta of W(g^tau, j^tau),
    extended by the identity on j^{-tau}, moves only t_+, the parameters of
    (H + tau H)/2.  With t_+ = sum_k c(t_+)_k P_k (c(t_+) its coordinates in
    the j^tau probes, P_k the probes' parameters) it is the rank-one map
    t -> t - <c(t_+), beta^vee> sum_k beta_k P_k, whose functional is read
    off the images c(e_+) of the standard basis.
    """
    n = pair.g.eps_dim
    rdatum = restricted_root_data(pair)
    probes = pair.probe_params
    coords = [
        Weight(pair.jtau_params(pair.fixed_params([Fraction(int(i == c)) for i in range(n)])))
        for c in range(n)
    ]

    def generator(beta):
        f = [2 * c.dot(beta) / beta.dot(beta) for c in coords]
        v = [sum((b * p[i] for b, p in zip(beta, probes)), Fraction(0)) for i in range(n)]
        return _reflection(f, v)

    return [generator(b) for b in rdatum.simple_roots]


def closed_orbit_census(pair: SymmetricPair, subset) -> OrbitCensusReport:
    """Count closed orbits among parabolics containing j of a standard type.

    Orbits of the closed set are the connected components under the action
    of W(g^tau, j^tau), extended trivially to j^{-tau}.
    """
    by_pattern, _ = enumerate_weyl_translates(pair, subset)
    reports = {}
    for key, p in by_pattern.items():
        rep = closedness_report(p, pair)
        if rep.closed:
            reports[key] = rep

    find, union = _union_find(reports)
    datum = root_datum(pair.g)
    actions = _census_generators(pair)
    for key in reports:
        for act in actions:
            key2 = _pattern_from_params(datum, act(by_pattern[key].params))
            if key2 in reports:
                union(key, key2)

    classes = {}
    for key in reports:
        classes.setdefault(find(key), []).append(key)

    def canon(key):
        return tuple(sorted((a.coords for a in key[1])))

    representatives = []
    for members in classes.values():
        rep_key = min(members, key=canon)
        p = by_pattern[rep_key]
        descriptor = "H=(%s)" % ", ".join(str(c) for c in p.params)
        representatives.append((descriptor, p, reports[rep_key].gk_dim))
    representatives.sort(key=lambda r: (r[2], r[0]))
    return OrbitCensusReport(
        total_parabolics_containing_j=len(by_pattern),
        closed_count=len(classes),
        representatives=representatives,
    )


# ---------------------------------------------------------------------------
# double cosets (secondary census oracle for inner involutions)
# ---------------------------------------------------------------------------

def double_coset_count(elements, left_gens, right_gens) -> int:
    """|L \\ W / R| by orbit partitioning under generator multiplication."""
    index = {w: w for w in elements}
    find, union = _union_find(elements)
    for w in elements:
        for s in left_gens:
            union(w, index[s.compose(w)])
        for r in right_gens:
            union(w, index[w.compose(r)])
    return len({find(w) for w in elements})


def levi_weyl_generators(p: ParabolicData):
    """Reflections in the simple roots of the Levi factor."""
    levi = p.levi_datum()
    return [reflection_element(levi, a) for a in levi.simple_roots]
