"""Oracles for condition (iii): the ad-operator image chain.

`ad_nilpotent` and `condition_iii_spot_check` test z^N = 0 for the N x N
matrix z.  The functions below are the engine's former route: the
(dim g)-square matrix of ad(z) in the echelon basis of the algebra, whose
image chain runs through a fraction-free forward elimination and reaches
zero exactly when ad(z) is nilpotent.  It shares no code with the matrix
test beyond the algebra's echelon basis, so the two are compared here.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from tests.oracles import ad_nilpotent
from vermabranch import bracket, condition_iii_spot_check
from vermabranch.exactla import MatrixElement, _ambient_subspace, _matrix_dim, _vec_axpy
from vermabranch.liealg import root_datum
from vermabranch.pairs import catalog_pairs, tau_projection
from vermabranch.parabolic import enumerate_weyl_translates, parabolic_from_simple_subset

# ---------------------------------------------------------------------------
# the operator-chain oracle
# ---------------------------------------------------------------------------


def ad_operator_columns(z, ambient) -> list:
    """Columns of ad(z) in the echelon basis coordinates of the algebra."""
    alg = _ambient_subspace(ambient)
    _matrix_dim(alg)
    if not alg.contains_matrix(z):
        raise ValueError("element does not lie in the ambient algebra")
    columns = []
    for b in alg.matrices():
        coords = alg.coordinates_of(bracket(z, b).vectorize())
        if coords is None:
            raise ValueError("ambient subspace is not bracket-closed")
        columns.append({i: c for i, c in enumerate(coords) if c})
    return columns


def _int_forward_echelon(rows) -> list:
    """Fraction-free forward elimination of sparse rows (rank/span only).

    Rows are scaled to integers and gcd-reduced after every elimination, so
    the arithmetic stays on small Python ints.
    """
    basis = []
    for row in rows:
        row = _integerize(row)
        while row:
            piv = min(row)
            hit = next((b for b in basis if min(b) == piv), None)
            if hit is None:
                break
            a, c = hit[piv], row[piv]
            row = {
                k: a * row.get(k, 0) - c * hit.get(k, 0)
                for k in set(row) | set(hit)
            }
            row = {k: v for k, v in row.items() if v}
            row = _gcd_reduce(row)
        if row:
            basis.append(row)
            basis.sort(key=min)
    return basis


def _integerize(row):
    lcm = 1
    for v in row.values():
        if isinstance(v, Fraction):
            lcm = lcm * v.denominator // math.gcd(lcm, v.denominator)
    if lcm == 1:
        return {k: int(v) for k, v in row.items() if v}
    return {k: int(v * lcm) for k, v in row.items() if v}


def _gcd_reduce(row):
    g = 0
    for v in row.values():
        g = math.gcd(g, abs(v))
        if g == 1:
            return row
    if g > 1:
        return {k: v // g for k, v in row.items()}
    return row


def nilpotent_operator_chain(columns: list) -> bool:
    """Whether the sparse coordinate operator has a vanishing image chain."""
    current = [dict(col) for col in columns if col]
    dim = None
    while True:
        basis = _int_forward_echelon(current)
        if not basis:
            return True
        if dim is not None and len(basis) >= dim:
            return False
        dim = len(basis)
        current = []
        for row in basis:
            vec = {}
            for j, c in row.items():
                _vec_axpy(vec, c, columns[j])
            current.append(vec)


def operator_chain_spot_check(p, pair, samples=20, seed=20260810) -> bool:
    """`condition_iii_spot_check` on the operator chain: the basis columns of
    ad are built once and combined per sample, since ad is linear."""
    mats = tau_projection(pair, p.u_plus).matrices()
    if not mats:
        return True
    basis_columns = [ad_operator_columns(z, pair.g.matrices.algebra) for z in mats]
    for columns in basis_columns:
        if not nilpotent_operator_chain(columns):
            return False
    rng = random.Random(seed)
    d = pair.g.matrices.algebra.dim
    for _ in range(samples):
        coeffs = [rng.randint(-3, 3) for _ in mats]
        combined = [{} for _ in range(d)]
        for c, columns in zip(coeffs, basis_columns):
            for tgt, col in zip(combined, columns):
                _vec_axpy(tgt, c, col)
        if any(combined) and not nilpotent_operator_chain(combined):
            return False
    return True


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------

def _standard_subsets(pair):
    nsimple = len(root_datum(pair.g).simple_roots)
    for r in range(nsimple + 1):
        yield from (set(s) for s in itertools.combinations(range(nsimple), r))


def _spread(items, count):
    """At most `count` items, evenly spaced through the list."""
    items = list(items)
    return items[:: -(-len(items) // count)] if items else []


def test_spot_check_matches_operator_chain(pairs):
    cases = [
        (pairs(spec.kind, **dict(spec.params)), subset)
        for spec in catalog_pairs(3)
        for subset in _standard_subsets(pairs(spec.kind, **dict(spec.params)))
    ]
    cases.append((pairs("sp_down_gl", n=4), {0, 1, 2}))  # the Siegel parabolic of sp8
    seen, values = set(), set()
    for pair, subset in cases:
        by_pattern, _ = enumerate_weyl_translates(pair, subset)
        for p in _spread(sorted(by_pattern.values(), key=lambda p: p.params), 20):
            spot = condition_iii_spot_check(p, pair)
            assert spot == operator_chain_spot_check(p, pair), (pair.spec.id, subset, p.params)
            values.add(spot)
        seen.add((pair.spec.id, frozenset(subset)))
    assert ("so_down_so:m=5", frozenset({1})) in seen
    assert ("sp_down_gl:n=4", frozenset({0, 1, 2})) in seen
    assert values == {True, False}


def test_ad_nilpotent_matches_operator_chain(pairs):
    algebras = {}
    for spec in catalog_pairs(3):
        pair = pairs(spec.kind, **dict(spec.params))
        algebras.setdefault(pair.g.matrices.algebra, pair)
    rng = random.Random(20260810)
    values = set()
    for pair in algebras.values():
        alg = pair.g.matrices.algebra
        n = pair.g.matrices.matrix_dim
        basis = alg.matrices()
        nilradical = parabolic_from_simple_subset(pair.g, set()).u_plus.matrices()
        elements = list(basis)
        for mats in (basis, nilradical, nilradical + basis[:1]):
            for _ in range(4):
                elements.append(
                    MatrixElement.combination(n, [rng.randint(-3, 3) for _ in mats], mats)
                )
        identity = MatrixElement.identity(n)
        if alg.contains_matrix(identity):
            elements += [identity, identity + nilradical[0], identity.scale(3) - basis[0]]
        else:
            with pytest.raises(ValueError):
                ad_nilpotent(identity, alg)
            with pytest.raises(ValueError):
                ad_operator_columns(identity, alg)
        for z in elements:
            got = ad_nilpotent(z, alg)
            assert got == nilpotent_operator_chain(ad_operator_columns(z, alg)), (pair.spec.id, z)
            values.add(got)
    assert values == {True, False}
