"""Parabolic subalgebras p(H), closedness criteria and closed-orbit censuses.

A parabolic containing the diagonal Cartan is determined by the sign pattern
of the roots on its defining hyperbolic element, so Weyl orbits and census
deduplication work on root patterns; the exact subspaces are materialized
lazily when a report needs them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Optional

from . import PreconditionError
from .liealg import (
    Algebra,
    RootDatum,
    _dot,
    _q,
    _solve,
    check_weyl_rank,
    root_datum,
    scaled_coords,
)
from .pairs import SymmetricPair, restricted_root_data, tau_projection


class IncompatibleRestrictionError(PreconditionError):
    """The parabolic is not stable under the pair involution."""


# ---------------------------------------------------------------------------
# ParabolicData
# ---------------------------------------------------------------------------

class ParabolicData:
    def __init__(self, g: Algebra, params: tuple, pattern: tuple):
        self.g = g
        self.params = params  # eps-parameters of the defining H
        # canonical key: a parabolic containing j is its root sign pattern,
        # the (levi, nilradical) root-index masks of `RootDatum.sign_masks`
        self.pattern = pattern

    @cached_property
    def levi_roots(self) -> frozenset:
        return self.datum.roots_of_mask(self.pattern[0])

    @cached_property
    def nilradical_roots(self) -> frozenset:
        return self.datum.roots_of_mask(self.pattern[1])

    @property
    def datum(self) -> RootDatum:
        return root_datum(self.g)

    @cached_property
    def u_plus(self):
        """The nilradical as a matrix subspace (for the spot check)."""
        return self.g.matrices.root_span(self.nilradical_roots)

    def levi_datum(self) -> RootDatum:
        return self.datum.sub_datum(self.levi_roots)

    def __eq__(self, other):
        return (
            isinstance(other, ParabolicData)
            and self.g is other.g
            and self.pattern == other.pattern
        )

    def __hash__(self):
        return hash(self.pattern)

    def __repr__(self):
        counts = tuple(mask.bit_count() for mask in self.pattern)
        return "ParabolicData(levi=%d roots, nilradical=%d roots)" % counts


def parabolic_from_params(g: Algebra, params) -> ParabolicData:
    """Parabolic defined by the sign of the roots on the Cartan element H with
    these eps-parameters (realizable ones: see `cartan_params`)."""
    params = tuple(map(_q, params))
    return ParabolicData(g=g, params=params, pattern=root_datum(g).sign_masks(params))


def parabolic_from_H(g: Algebra, h) -> ParabolicData:
    """Parabolic defined by the sign of the roots on a diagonal matrix H in
    the Cartan of g's matrix realization."""
    m = g.matrices
    if not h.is_diagonal() or not m.algebra.contains_matrix(h):
        raise ValueError("H must lie in the diagonal Cartan of the realization")
    return parabolic_from_params(g, m.eps_params(h))


def parabolic_from_simple_subset(g: Algebra, subset) -> ParabolicData:
    """Standard parabolic whose Levi system is generated by the given simples.

    H is the sum of fundamental coweights dual to the simple roots outside
    the subset, solved exactly inside the Cartan; its eps-parameters are the
    same combination of those of the Cartan basis.
    """
    datum = root_datum(g)
    subset = set(subset)
    if not subset <= set(range(len(datum.simple_roots))):
        raise ValueError("subset must consist of simple root indices")
    columns = [tuple(_dot(a, h) for a in datum.simple_roots) for h in g.cartan_columns]
    target = tuple(int(i not in subset) for i in range(len(datum.simple_roots)))
    coeffs = _solve(columns, target)
    if coeffs is None:
        raise AssertionError("coweight system has no solution")
    params = [sum(c * h[i] for c, h in zip(coeffs, g.cartan_columns)) for i in range(g.eps_dim)]
    return parabolic_from_params(g, params)


# ---------------------------------------------------------------------------
# compatibility and closedness
# ---------------------------------------------------------------------------

class CompatibilityReport(NamedTuple):
    compatible: bool
    fixed_params: Optional[tuple]  # eps-parameters of (H + tau H)/2


class ClosednessReport(NamedTuple):
    closed: bool
    lcs_length: int  # non-empty terms of the lower central series of pr_tau(u)
    gk_dim: Optional[int] = None


def mask_indices(mask: int) -> list:
    """The root indices of a root-index bitmask."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def compatibility_report(p: ParabolicData, pair: SymmetricPair) -> CompatibilityReport:
    """tau-stability of p, equivalent to g^tau-compatibility for symmetric tau."""
    if p.g is not pair.g:
        raise ValueError("parabolic and pair live on different realizations")
    roots_of_p, tau = p.pattern[0] | p.pattern[1], pair.root_table.tau
    stable = all(roots_of_p >> tau[i] & 1 for i in mask_indices(roots_of_p))  # tau* is 1-1
    fixed = pair.fixed_params(p.params) if stable else None
    if stable and p.datum.sign_masks(fixed) != p.pattern:
        raise AssertionError("p(H + tau H) differs from p for a stable parabolic")
    return CompatibilityReport(compatible=stable, fixed_params=fixed)


def root_tau_split(pair: SymmetricPair, indices) -> tuple:
    """(plus, minus): the root indices of one tau-eigenvector each, of
    eigenvalue +1 or -1, in the tau-stable part of the span of the root
    spaces of the roots with these indices.

    Counted over the tau*-orbits inside the set: an orbit {a, tau* a} of two
    roots gives X_a + tau X_a and X_a - tau X_a, one to each side (listed
    under a), and a fixed root a goes to the side of s in tau X_a = s X_a.
    """
    table = pair.root_table
    indices = set(indices)
    plus, minus = [], []
    for i in sorted(indices):
        j = table.tau[i]
        if j == i:
            (plus if table.sign[i] > 0 else minus).append(i)
        elif i < j and j in indices:
            plus.append(i)
            minus.append(i)
    return plus, minus


def closedness_report(p: ParabolicData, pair: SymmetricPair) -> ClosednessReport:
    """Closedness of the symmetric-subgroup orbit through p, by sums of the
    restricted roots Sigma of (g^tau, j^tau).

    pr_tau(u) is spanned by X_a + tau X_a over the roots a of u, one root
    vector of g^tau per tau*-orbit (none for a noncompact imaginary root);
    the root spaces of Sigma are lines, so pr_tau(u) is the sum of those of
    the restrictions S (a and tau* a restrict alike).  As [g_c, g_d] =
    g_{c+d} for roots c, d, c + d of the reductive g^tau (Humphreys, GTM 9,
    8.4) and [g_c, g_-c] is a nonzero part of j^tau, it is a subalgebra iff
    S is closed and S cap -S is empty.  Then S lies in a positive system
    (Bourbaki, Lie VI 1.7 Prop. 22), the lower central series is S,
    [S, S], [S, [S, S]], ... down to the empty set, and pr_tau(u) is the
    nilradical of p^tau, of codimension |S|.
    """
    if p.g is not pair.g:
        raise ValueError("parabolic and pair live on different realizations")
    rdatum = restricted_root_data(pair)
    nilradical = p.pattern[1]
    s = {k for i, k in enumerate(pair.root_table.sigma) if nilradical >> i & 1 and k is not None}
    table = rdatum.sum_table

    def bracket(term):
        return {k for i in s for j, k in table[i].items() if j in term}

    if any(rdatum.negation[i] in s for i in s) or not bracket(s) <= s:
        return ClosednessReport(closed=False, lcs_length=0)
    steps, term = 0, s
    while term:  # the terms shrink: S lies in a positive system
        steps, nxt = steps + 1, bracket(term)
        if nxt == term:
            raise AssertionError("a closed S with S cap -S empty is not nilpotent")
        term = nxt
    return ClosednessReport(closed=True, lcs_length=steps, gk_dim=len(s))


def condition_iii_spot_check(
    p: ParabolicData, pair: SymmetricPair, samples: int = 20, seed: int = 20260810
) -> bool:
    """Randomized check that pr_tau(u) consists of ad-nilpotent elements.

    Basis elements are always tested; `samples` fixed-seed rational
    combinations with coefficients in {-3,...,3} follow.  This is the
    validation layer for the restricted-root criterion of `closedness_report`.  pr_tau(u) lies
    in [g, g], which is semisimple, and a faithful representation of a
    semisimple algebra preserves the Jordan decomposition (Humphreys, GTM 9,
    6.4): ad z is nilpotent exactly when the matrix z is, so each element is
    tested by z^N = 0.
    """
    import random  # only `analyze` samples

    from .exactla import MatrixElement, nilpotent_matrix

    mats = tau_projection(pair, p.u_plus).matrices()
    if not all(map(nilpotent_matrix, mats)):
        return False
    rng = random.Random(seed)
    for _ in range(samples):
        coeffs = [rng.randint(-3, 3) for _ in mats]
        z = MatrixElement.combination(pair.g.matrices.matrix_dim, coeffs, mats)
        if not z.is_zero() and not nilpotent_matrix(z):
            return False
    return True


# ---------------------------------------------------------------------------
# closed-orbit census
# ---------------------------------------------------------------------------

class OrbitCensusReport(NamedTuple):
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


def enumerate_weyl_translates(pair: SymmetricPair, subset):
    """Distinct parabolics containing j of the given standard type.

    They are the W(g)-orbit of the standard t0, one point per parabolic (the
    stabilizer of the dominant t0 is W_S), in the breadth-first order of
    `RootDatum.orbit` on t0 scaled to integers, which give the sign patterns.

    Returns (pattern -> ParabolicData, pattern -> {its eps-params}).
    """
    g = pair.g
    datum = root_datum(g)
    check_weyl_rank(datum)
    t0 = parabolic_from_simple_subset(g, subset).params
    scale = math.lcm(*(c.denominator for c in t0))
    orbit = datum.orbit(scaled_coords(t0, scale))
    points = (ParabolicData(g, tuple(_q(Fraction(c, scale)) for c in t), datum.sign_masks(t))
              for t, _ in orbit)
    by_pattern = {p.pattern: p for p in points}
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
    coords = [pair.jtau_params(pair.fixed_params([int(i == c) for i in range(n)])) for c in range(n)]

    def generator(beta):
        f = [_q(Fraction(2 * _dot(c, beta), _dot(beta, beta))) for c in coords]
        v = [sum(b * p[i] for b, p in zip(beta, probes)) for i in range(n)]

        def reflect(t):
            c = sum(a * x for a, x in zip(f, t) if a)
            return tuple(x - c * y for x, y in zip(t, v))

        return reflect

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
            key2 = datum.sign_masks(act(by_pattern[key].params))
            if key2 in reports:
                union(key, key2)

    classes = {}
    for key in reports:
        classes.setdefault(find(key), []).append(key)

    def canon(key):
        return tuple(sorted(by_pattern[key].nilradical_roots))

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
