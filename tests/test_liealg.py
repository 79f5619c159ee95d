import itertools
import math
import random
from fractions import Fraction
from operator import add, sub

import pytest

from vermabranch import (
    ClassicalType,
    MatrixElement,
    RankCapError,
    RootDatum,
    Weight,
    build_pair,
    freudenthal_character,
    parabolic_from_simple_subset,
    restricted_root_data,
    root_datum,
    weyl_group,
)
from tests.oracles import (
    absolute,
    bfs_weyl_group,
    build_classical,
    coroot_pairing,
    dominant_representative,
    is_dominant_integral,
    minus_count,
    reflect,
    weyl_apply,
    weyl_dimension,
    weyl_inverse,
)
from vermabranch.liealg import _dot, _freudenthal_mult, _indecomposables, regular_order_key, scaled_coords
from vermabranch.pairs import PairSpec, catalog_pairs


# ---------------------------------------------------------------------------
# independent oracle: Kostant multiplicity via a brute-force partition count
# ---------------------------------------------------------------------------

def _reg_value(w):
    n = len(w.coords)
    return sum((Fraction(n - i) * c for i, c in enumerate(w.coords)), Fraction(0))


def kostant_partition(datum, target, _memo=None):
    """Number of ways to write target as an N-combination of positive roots.

    Brute-force recursion; every positive root has positive value on the
    regular element, which bounds the coefficients.
    """
    roots = sorted(datum.positive_roots, key=lambda a: a.coords)
    memo = {} if _memo is None else _memo

    def rec(idx, rest):
        if not any(rest.coords):
            return 1
        if idx == len(roots) or _reg_value(rest) <= 0:
            return 0
        key = (idx, rest.coords)
        if key in memo:
            return memo[key]
        total = 0
        nxt = rest
        while _reg_value(nxt) >= 0:
            total += rec(idx + 1, nxt)
            nxt = nxt - roots[idx]
        memo[key] = total
        return total

    return rec(0, target)


def kostant_multiplicity(datum, lam, mu):
    """Weight multiplicity by the Kostant formula (Weyl sum over partitions)."""
    memo = {}
    total = 0
    for w in weyl_group(datum):
        sign = _det(w)
        target = weyl_apply(w, lam + datum.rho) - (mu + datum.rho)
        total += sign * kostant_partition(datum, target, memo)
    return total


def _det(w):
    perm = list(w.perm)
    sign = 1
    for s in w.signs:
        sign *= s
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


# ---------------------------------------------------------------------------
# realizations
# ---------------------------------------------------------------------------

def test_build_a1(algebras):
    g = algebras("A", 1)
    assert g.dim == 3 and g.rank == 1


def test_build_c2_dimension(algebras):
    assert algebras("C", 2).dim == 10


def test_build_d3_dimension_and_roots(algebras):
    g = algebras("D", 3)
    assert g.dim == 15
    datum = root_datum(g)
    # root count oracle: dim g minus rank
    assert len(datum.roots) == g.dim - g.rank == 12


def test_gl_variant_has_center(algebras):
    g = algebras("A", 2, True)
    assert g.dim == 9 and g.rank == 3
    assert g.algebra.contains_matrix(MatrixElement.identity(3))  # the center of gl3


def test_invalid_ranks_rejected():
    with pytest.raises(ValueError):
        ClassicalType("B", 1)
    with pytest.raises(ValueError):
        ClassicalType("D", 2)
    with pytest.raises(ValueError):
        ClassicalType("E", 6)


def test_classical_dimension_formulas(algebras):
    for fam, rank, expected in [
        ("A", 3, 15),
        ("B", 3, 21),
        ("C", 3, 21),
        ("D", 4, 28),
    ]:
        assert algebras(fam, rank).dim == expected


# ---------------------------------------------------------------------------
# root data
# ---------------------------------------------------------------------------

def test_a1_rho(algebras):
    datum = root_datum(algebras("A", 1))
    assert datum.rho == Weight((Fraction(1, 2), Fraction(-1, 2)))
    assert datum.positive_roots == (Weight((1, -1)),)


def test_b2_positive_system(algebras):
    datum = root_datum(algebras("B", 2))
    expected = {Weight((1, -1)), Weight((1, 1)), Weight((1, 0)), Weight((0, 1))}
    assert set(datum.positive_roots) == expected


def test_d3_positive_system(algebras):
    datum = root_datum(algebras("D", 3))
    expected = set()
    for i, j in itertools.combinations(range(3), 2):
        for sign in (1, -1):
            coords = [0, 0, 0]
            coords[i] = 1
            coords[j] = sign
            expected.add(Weight(coords))
    assert set(datum.positive_roots) == expected


def test_rho_pairs_to_one_with_simples(algebras):
    for fam, rank in [("A", 3), ("B", 3), ("C", 3), ("D", 3)]:
        datum = root_datum(algebras(fam, rank))
        for a in datum.simple_roots:
            assert coroot_pairing(datum.rho, a) == 1


def test_root_count_matches_dimension(algebras):
    for fam, rank in [("A", 2), ("A", 4), ("B", 4), ("C", 4), ("D", 4)]:
        g = algebras(fam, rank)
        assert len(root_datum(g).roots) == g.dim - g.rank


def test_cartan_is_self_centralizing(algebras):
    # the zero-weight space of the adjoint action is exactly the Cartan span
    from vermabranch import span_of_matrices

    for fam, rank in [("A", 2), ("B", 2), ("C", 2), ("D", 3)]:
        g = algebras(fam, rank)
        assert g.root_spaces[Weight.zero(g.eps_dim)] == span_of_matrices(g.cartan_basis, g.matrix_dim)


# ---------------------------------------------------------------------------
# Freudenthal characters
# ---------------------------------------------------------------------------

def test_freudenthal_a1_adjoint(algebras):
    datum = root_datum(algebras("A", 1))
    ch = freudenthal_character(datum, Weight((1, -1)))
    assert ch == {(0, 0): 1, (-1, 1): 1, (-2, 2): 1}  # displacements from lambda


def test_freudenthal_a2_adjoint_against_kostant(algebras):
    datum = root_datum(algebras("A", 2))
    lam = Weight((1, 0, -1))
    ch = freudenthal_character(datum, lam)
    assert sum(ch.values()) == 8
    assert ch[(-1, 0, 1)] == 2  # the zero weight
    for mu, mult in absolute(ch, lam).items():
        assert mult == kostant_multiplicity(datum, lam, mu)


def test_freudenthal_c2_adjoint_against_kostant(algebras):
    datum = root_datum(algebras("C", 2))
    lam = Weight((2, 0))
    ch = freudenthal_character(datum, lam)
    assert sum(ch.values()) == 10
    assert ch[(-2, 0)] == 2  # the zero weight
    for mu, mult in absolute(ch, lam).items():
        assert mult == kostant_multiplicity(datum, lam, mu)


def test_freudenthal_character_depends_only_on_the_labels():
    # gl(3)-style roots in 3 coordinates: a central shift keeps the labels
    roots = [Weight(tuple(int(k == i) - int(k == j) for k in range(3)))
             for i in range(3) for j in range(3) if i != j]
    datum = RootDatum(3, roots)
    lam, shifted = Weight((2, 1, 0)), Weight((Fraction(5, 2), Fraction(3, 2), Fraction(1, 2)))
    assert datum.labels(lam.coords) == datum.labels(shifted.coords) == [1, 1]
    assert freudenthal_character(datum, shifted) == freudenthal_character(datum, lam)


def test_freudenthal_rejects_non_dominant(algebras):
    datum = root_datum(algebras("A", 1))
    with pytest.raises(ValueError):
        freudenthal_character(datum, Weight((-1, 1)))


def _random_dominant(datum, rng):
    """A random weight with small coroot pairings (total budget keeps the
    representation desk-sized at rank 4)."""
    budget = 3 if len(datum.simple_roots) <= 3 else 2
    targets = [Fraction(0) for _ in datum.simple_roots]
    for _ in range(budget):
        targets[rng.randrange(len(targets))] += rng.randint(0, 1)
    rows = [
        [Fraction(2 * a[k], a.dot(a)) for k in range(datum.eps_dim)] + [t]
        for a, t in zip(datum.simple_roots, targets)
    ]
    # Gaussian elimination, free coordinates pinned to zero
    pivots = []
    r = 0
    for c in range(datum.eps_dim):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [inv * v for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    coords = [Fraction(0)] * datum.eps_dim
    for ri, pc in enumerate(pivots):
        coords[pc] = rows[ri][-1]
    lam = Weight(coords)
    assert is_dominant_integral(datum, lam)
    return lam


def test_freudenthal_total_matches_weyl_dimension(algebras):
    rng = random.Random(20260810)
    types = [("A", 1), ("A", 2), ("A", 3), ("A", 4),
             ("B", 2), ("B", 3), ("B", 4),
             ("C", 2), ("C", 3), ("C", 4),
             ("D", 3), ("D", 4)]
    for fam, rank in types:
        datum = root_datum(algebras(fam, rank))
        for _ in range(30):
            lam = _random_dominant(datum, rng)
            ch = freudenthal_character(datum, lam)
            assert sum(ch.values()) == weyl_dimension(datum, lam)


# ---------------------------------------------------------------------------
# Fraction oracle: the Freudenthal recursion on rational weights
# ---------------------------------------------------------------------------

def _fraction_is_dominant(datum, mu):
    return all(coroot_pairing(mu, a) >= 0 for a in datum.simple_roots)


def fraction_freudenthal(datum, lam):
    """Freudenthal recursion in `Fraction` arithmetic on `Weight`s."""
    if not is_dominant_integral(datum, lam):
        raise ValueError("highest weight is not dominant integral: %r" % (lam,))
    rho = datum.rho
    lam_rho_sq = (lam + rho).dot(lam + rho)
    mult = {lam: 1}
    level = {lam}
    while level:
        candidates = {mu - a for mu in level for a in datum.simple_roots}
        nxt = set()
        for mu in candidates:
            if _fraction_is_dominant(datum, mu):
                denom = lam_rho_sq - (mu + rho).dot(mu + rho)
                total = Fraction(0)
                for a in datum.positive_roots:
                    nu = mu + a
                    while mult.get(nu, 0):
                        total += mult[nu] * nu.dot(a)
                        nu = nu + a
                value = 2 * total / denom
                assert value.denominator == 1 and value >= 0
                m = int(value)
            else:
                m = mult.get(dominant_representative(datum, mu), 0)
            if m:
                mult[mu] = m
                nxt.add(mu)
        level = nxt
    return mult


def to_dominant_freudenthal(datum, lam):
    """The integer recursion with a per-weight fill: each non-dominant
    weight takes its multiplicity from its dominant conjugate, found by its
    own `RootDatum.to_dominant` chain; Weight keys."""
    if not is_dominant_integral(datum, lam):
        raise ValueError("highest weight is not dominant integral: %r" % (lam,))
    scale = math.lcm(*(c.denominator for c in lam.coords + datum.rho.coords))
    simple = [tuple(scale * c for c in a) for a in datum.simple_roots]
    roots = [(a, _dot(a, a)) for a in (tuple(scale * c for c in a) for a in datum.positive_roots)]
    rho = scaled_coords(datum.rho.coords, scale)
    top = scaled_coords(lam.coords, scale)
    top_rho = tuple(map(add, top, rho))
    mult = {top: 1}
    level = [top]
    while level:
        nxt = []
        for mu in {tuple(map(sub, nu, a)) for nu in level for a in simple}:
            if all(_dot(mu, a) >= 0 for a in simple):
                m = _freudenthal_mult(mu, mult, roots, rho, _dot(top_rho, top_rho))
            else:
                m = mult.get(datum.to_dominant(mu, datum.labels(mu))[0], 0)
            if m:
                mult[mu] = m
                nxt.append(mu)
        level = nxt
    return {Weight(Fraction(c, scale) for c in mu): m for mu, m in mult.items()}


def _catalog_levi_data():
    """Distinct Levi data (ambient l and restricted l') of every standard
    parabolic of the rank <= 3 catalog."""
    from vermabranch.branching import _levi_prime_datum

    seen = {}
    for spec in catalog_pairs(3):
        pair = build_pair(spec)
        nsimple = len(root_datum(pair.g).simple_roots)
        for k in range(nsimple + 1):
            for subset in itertools.combinations(range(nsimple), k):
                p = parabolic_from_simple_subset(pair.g, set(subset))
                for datum in (p.levi_datum(), _levi_prime_datum(p, pair)):
                    seen.setdefault((datum.eps_dim, datum.positive_roots), datum)
    return list(seen.values())


def _small_dominant_weights(datum):
    """Dominant integral weights with coordinates in {-1, 0, 1}, each also
    shifted by a central 1/3 and 1/2 where that stays dominant integral."""
    out = []
    for coords in itertools.product((-1, 0, 1), repeat=datum.eps_dim):
        for shift in (0, Fraction(1, 3), Fraction(1, 2)):
            lam = Weight(c + shift for c in coords)
            if is_dominant_integral(datum, lam):
                out.append(lam)
    return out


def test_integer_freudenthal_matches_fraction_oracle(algebras):
    """Freudenthal equals the Fraction recursion, the per-weight
    `to_dominant` fill and Weyl's dimension: on small weights of every Levi
    datum of the rank <= 3 catalog, and on random dominant weights of the
    classical types up to rank 4, whose larger orbits the fill walks."""
    rng = random.Random(20261020)
    inputs = [(datum, lam) for datum in _catalog_levi_data() for lam in _small_dominant_weights(datum)]
    for fam, rank in [("A", 3), ("A", 4), ("B", 3), ("B", 4), ("C", 3), ("C", 4), ("D", 4)]:
        datum = root_datum(algebras(fam, rank))
        inputs += [(datum, _random_dominant(datum, rng)) for _ in range(6)]
    for datum, lam in inputs:
        ch = freudenthal_character(datum, lam)
        assert absolute(ch, lam) == fraction_freudenthal(datum, lam) == to_dominant_freudenthal(datum, lam)
        assert sum(ch.values()) == weyl_dimension(datum, lam)
    assert len({id(d) for d, _ in inputs}) > 20 and len(inputs) > 1000


def test_freudenthal_rejects_what_the_fraction_oracle_rejects():
    rng = random.Random(20261021)
    outcomes = set()
    for datum in _catalog_levi_data():
        for _ in range(6):
            den = rng.randint(1, 3)
            lam = Weight(Fraction(rng.randint(-2 * den, 2 * den), den) for _ in range(datum.eps_dim))
            if is_dominant_integral(datum, lam):
                assert sum(freudenthal_character(datum, lam).values()) == weyl_dimension(datum, lam)
            else:
                with pytest.raises(ValueError, match="highest weight is not dominant integral"):
                    freudenthal_character(datum, lam)
            outcomes.add(is_dominant_integral(datum, lam))
    assert outcomes == {True, False}


def test_dominant_representative_matches_fraction_oracle(algebras):
    # `to_dominant` on w scaled by its common denominator, as genericity_check runs it
    rng = random.Random(20260810)
    for fam, rank in [("A", 3), ("B", 3), ("C", 3), ("D", 4)]:
        datum = root_datum(algebras(fam, rank))
        for _ in range(40):
            w = Weight(Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                       for _ in range(datum.eps_dim))
            scale = math.lcm(*(c.denominator for c in w.coords))
            t = scaled_coords(w.coords, scale)
            top = datum.to_dominant(t, datum.labels(t))[0]
            assert Weight(Fraction(c, scale) for c in top) == dominant_representative(datum, w)


# ---------------------------------------------------------------------------
# the Weyl walk on labels, and RootDatum against the former assembly
# ---------------------------------------------------------------------------

def _fraction_walk(datum, w):
    """(dominant conjugate, sign of the element applied) by `Fraction`
    reflections in the first simple root of negative coroot pairing."""
    det = 1
    while True:
        for a in datum.simple_roots:
            if coroot_pairing(w, a) < 0:
                w, det = reflect(w, a), -det
                break
        else:
            return w, det


def _random_weights(datum, rng, count):
    """Integral weights, then weights with denominators up to 4."""
    for k in range(count):
        den = 1 if k < count // 2 else rng.randint(2, 4)
        yield Weight(Fraction(rng.randint(-6, 6), den) for _ in range(datum.eps_dim))


@pytest.mark.parametrize("fam, rank", [("A", 3), ("B", 3), ("C", 2), ("C", 3), ("D", 4)])
def test_to_dominant_matches_the_fraction_reflection_oracle(algebras, fam, rank):
    datum = root_datum(algebras(fam, rank))
    for w in _random_weights(datum, random.Random(20261019), 60):
        top, det = _fraction_walk(datum, w)
        moved, labels, sign = datum.to_dominant(w.coords, datum.labels(w.coords))
        assert (Weight(moved), sign) == (top, det)
        assert labels == datum.labels(moved) and min(labels) >= 0
        # labels of a shift, as in the peel: moved + rho is the dominant conjugate of w + rho
        shifted, det = _fraction_walk(datum, w + datum.rho)
        moved, _, sign = datum.to_dominant(w.coords, datum.labels((w + datum.rho).coords))
        assert (Weight(moved) + datum.rho, sign) == (shifted, det)


@pytest.mark.parametrize("fam, rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
def test_simple_reflection_moves_labels_with_the_vector(algebras, fam, rank):
    datum = root_datum(algebras(fam, rank))
    assert datum.cartan == [
        [coroot_pairing(a, b) for b in datum.simple_roots] for a in datum.simple_roots
    ]
    for w in _random_weights(datum, random.Random(20261019), 20):
        for i, a in enumerate(datum.simple_roots):
            moved, labels = datum.simple_reflection(w.coords, datum.labels(w.coords), i)
            assert Weight(moved) == reflect(w, a)
            assert labels == datum.labels(moved)


def _weight_indecomposables(positive):
    """Simple roots by every difference a - b of positive roots formed as a
    `Weight`: the reference for `_indecomposables`."""
    pos = set(positive)
    simple = [a for a in positive if not any((a - b) in pos for b in pos if b != a)]
    simple.sort(key=lambda a: a.coords, reverse=True)
    return tuple(simple)


def test_indecomposables_match_the_weight_routine():
    specs = catalog_pairs(6) + [PairSpec("so_down_so", m=24)]
    for spec in specs:
        pair = build_pair(spec)
        for datum in (root_datum(pair.g), restricted_root_data(pair)):
            assert _indecomposables(datum.positive_roots) == _weight_indecomposables(datum.positive_roots)
    assert len(specs) > 50


def _former_assembly(eps_dim, roots, ambient=None):
    """(roots, positive roots, simple roots, rho) as `datum_from_decomposition`
    (ambient None) and `RootDatum.sub_datum` of an ambient datum assembled
    them before the constructor did."""
    ordered = tuple(sorted(roots, key=regular_order_key, reverse=True))
    if ambient is None:
        positive = tuple(r for r in ordered if regular_order_key(r)[0] > 0)
    else:
        positive = tuple(sorted((r for r in roots if r in set(ambient.positive_roots)),
                                key=regular_order_key, reverse=True))
    simple = _weight_indecomposables(positive)
    rho = Weight(Fraction(sum(a[i] for a in positive), 2) for i in range(eps_dim))
    return ordered, positive, simple, rho


@pytest.mark.parametrize("spec", catalog_pairs(4), ids=str)
def test_root_datum_matches_the_former_assembly(pairs, spec):
    from vermabranch.branching import _levi_prime_datum

    pair = pairs(spec.kind, **dict(spec.params))
    datum, rdatum = root_datum(pair.g), restricted_root_data(pair)
    checks = [(datum, None), (rdatum, None)]
    nsimple = len(datum.simple_roots)
    for k in range(nsimple + 1):
        for subset in itertools.combinations(range(nsimple), k):
            p = parabolic_from_simple_subset(pair.g, set(subset))
            checks += [(p.levi_datum(), datum), (_levi_prime_datum(p, pair), rdatum)]
    for d, ambient in checks:
        assert (d.roots, d.positive_roots, d.simple_roots, d.rho) == _former_assembly(
            d.eps_dim, d.roots, ambient
        )


# ---------------------------------------------------------------------------
# one weight representation: canonical exact coordinates, integer roots
# ---------------------------------------------------------------------------

def test_catalog_roots_are_int_vectors(pairs):
    for spec in catalog_pairs(3):
        pair = pairs(spec.kind, **dict(spec.params))
        for datum in (root_datum(pair.g), restricted_root_data(pair)):
            assert all(type(c) is int for a in datum.roots for c in a.coords), spec.id


def test_freudenthal_keys_are_int_tuples_for_integral_and_rational_lambda(algebras):
    # rho of B2 is (3/2, 1/2): the recursion runs at scale 2 and scales back;
    # a central 1/3 in gl-coordinates is a rational lambda of A2
    third = Fraction(1, 3)
    for fam, rank, lam in [("A", 2, (1, 0, -1)), ("B", 2, (1, 1)), ("C", 3, (2, 1, 0)),
                           ("A", 2, (1 + third, third, third - 1)), ("B", 2, (Fraction(3, 2), Fraction(1, 2)))]:
        ch = freudenthal_character(root_datum(algebras(fam, rank)), Weight(lam))
        assert all(type(d) is tuple and all(type(c) is int for c in d) for d in ch)


def test_root_datum_rejects_a_half_integer_root():
    half = Weight((Fraction(1, 2), Fraction(-1, 2)))
    with pytest.raises(ValueError, match="not an integer vector"):
        RootDatum(2, {half: None, -half: None})


def test_coroot_pairings_are_exact(algebras):
    # C2 has a long root (2, 0): 2 <lam, a> / <a, a> on ints would be a float
    datum = root_datum(algebras("C", 2))
    for lam in (Weight((3, 1)), Weight((Fraction(1, 2), -2))):
        for a in datum.roots:
            p = coroot_pairing(lam, a)
            assert isinstance(p, Fraction)
            assert p == 2 * sum(Fraction(x) * y for x, y in zip(lam, a)) / sum(y * y for y in a)


def test_weights_refuse_floats():
    with pytest.raises(TypeError):
        Weight((1, 0.1))
    assert Weight((Fraction(4, 2), Fraction(1, 2))).coords == (2, Fraction(1, 2))
    assert type(Weight((Fraction(4, 2),))[0]) is int


def test_freudenthal_weyl_invariance(algebras):
    datum = root_datum(algebras("B", 2))
    lam = Weight((2, 1))
    ch = absolute(freudenthal_character(datum, lam), lam)
    for w in weyl_group(datum):
        for mu, mult in ch.items():
            assert ch.get(weyl_apply(w, mu)) == mult


# ---------------------------------------------------------------------------
# Weyl groups
# ---------------------------------------------------------------------------

def test_weyl_orders(algebras):
    assert len(weyl_group(root_datum(algebras("A", 3)))) == 24
    assert len(weyl_group(root_datum(algebras("B", 2)))) == 8
    assert len(weyl_group(root_datum(algebras("D", 3)))) == 24
    assert len(weyl_group(root_datum(algebras("C", 3)))) == 48


def test_weyl_type_a_has_no_signs(algebras):
    for w in weyl_group(root_datum(algebras("A", 3))):
        assert all(s == 1 for s in w.signs)


def test_weyl_type_d_even_sign_count(algebras):
    for w in weyl_group(root_datum(algebras("D", 3))):
        assert minus_count(w) % 2 == 0


def test_weyl_group_axioms(algebras):
    group = weyl_group(root_datum(algebras("B", 2)))
    elements = set(group)
    for w in group:
        assert w.compose(weyl_inverse(w)) == weyl_inverse(w).compose(w)
        assert w.compose(weyl_inverse(w)).perm == tuple(range(2))
    for a, b in itertools.islice(itertools.product(group, group), 30):
        assert a.compose(b) in elements


def test_weyl_group_matches_the_breadth_first_oracle():
    """The orbit reading equals the search over composed reflections on
    every distinct ambient, restricted and standard Levi datum of the
    rank <= 6 catalog."""
    data = {}
    for spec in catalog_pairs(6):
        pair = build_pair(spec)
        datum = root_datum(pair.g)
        levis = (
            parabolic_from_simple_subset(pair.g, set(subset)).levi_datum()
            for k in range(len(datum.simple_roots))
            for subset in itertools.combinations(range(len(datum.simple_roots)), k)
        )
        for d in (datum, restricted_root_data(pair), *levis):
            data.setdefault((d.eps_dim, d.positive_roots), d)
    assert len(data) > 400
    for d in data.values():
        assert weyl_group(d) == bfs_weyl_group(d)


def test_weyl_group_rejects_a_datum_not_acting_by_signed_permutations():
    # the reflection in e1 + e2 + e3 is not a signed permutation, though it
    # takes the regular point (3, 2, 1) to (-1, -2, -3)
    alpha = Weight((1, 1, 1))
    datum = RootDatum(3, [alpha, -alpha])
    with pytest.raises(ValueError, match="signed permutation"):
        weyl_group(datum)
    with pytest.raises(ValueError, match="signed permutation"):
        bfs_weyl_group(datum)


def test_weyl_rank_cap():
    g = build_classical(ClassicalType("A", 7))
    with pytest.raises(RankCapError):
        weyl_group(root_datum(g))


# ---------------------------------------------------------------------------
# negation table
# ---------------------------------------------------------------------------

def test_negation_table(algebras):
    for family, rank in [("A", 3), ("B", 2), ("C", 3), ("D", 4)]:
        datum = root_datum(algebras(family, rank))
        neg = datum.negation
        assert all(datum.roots[neg[i]] == -a for i, a in enumerate(datum.roots))
        assert all(neg[neg[i]] == i for i in range(len(neg)))
