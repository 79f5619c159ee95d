"""Paper results and criteria that no command runs, kept as test oracles.

Schmid's decomposition of S(u_-^{-tau}) for an abelian nilradical, the
finiteness bound of the branching engine, the ad-nilpotency test on an
ambient algebra, the tensor-case closedness criterion and the double-coset
count of the inner-involution census are each checked against the engine
by the tests that import them.  They read engine internals, as the other
oracles here (``matrix_route``) do.
"""

import functools
from fractions import Fraction
from operator import mul
from typing import NamedTuple, Optional

from vermabranch.branching import (
    VermaSpec,
    _engine_context,
    _levi_prime_datum,
    _u_minus_split,
    decompose_character,
    sym_power_characters,
)
from vermabranch.exactla import (
    MatrixElement,
    Subspace,
    _ambient_subspace,
    _matrix_dim,
    bracket,
    nilpotent_matrix,
    span_of_matrices,
)
from vermabranch.liealg import Weight, reflection_element, regular_order_key
from vermabranch.pairs import SymmetricPair
from vermabranch.parabolic import (
    IncompatibleRestrictionError,
    ParabolicData,
    _union_find,
    compatibility_report,
)


# ---------------------------------------------------------------------------
# ad-nilpotency on an ambient algebra
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=16)
def _scalars_in(alg: Subspace) -> bool:
    """Whether the identity lies in `alg`, given [g, g] = g (False) or
    [g, g] + QI = g with I in g (True); raises ValueError otherwise."""
    n = _matrix_dim(alg)
    mats = alg.matrices()
    derived = span_of_matrices([bracket(a, b) for i, a in enumerate(mats) for b in mats[:i]], n)
    if derived == alg:
        return False
    if derived.sum(span_of_matrices([MatrixElement.identity(n)])) == alg:
        return True
    raise ValueError("ad_nilpotent needs [g, g] = g, or [g, g] + QI = g with I in g")


def ad_nilpotent(z: MatrixElement, ambient) -> bool:
    """Whether ad(z) is nilpotent on the ambient algebra.

    Assumes the ambient is reductive with centre zero or the scalars, as
    every catalog realization is, and raises ValueError unless [g, g] = g or
    [g, g] + QI = g with I in g, which that assumption implies.  Its derived
    algebra is then semisimple, and a faithful representation of a
    semisimple algebra preserves the Jordan decomposition (Humphreys, GTM 9,
    6.4): ad(z) is nilpotent exactly when z, less its scalar part
    (tr z / N) I when I lies in the ambient, is a nilpotent matrix.
    """
    alg = _ambient_subspace(ambient)
    n = _matrix_dim(alg)
    if not alg.contains_matrix(z):
        raise ValueError("element does not lie in the ambient algebra")
    if _scalars_in(alg):
        z = z - MatrixElement.identity(n).scale(Fraction(sum(z.diagonal_entries()), n))
    return nilpotent_matrix(z)

# ---------------------------------------------------------------------------
# tensor-case closedness
# ---------------------------------------------------------------------------

class TensorClosednessReport(NamedTuple):
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

# ---------------------------------------------------------------------------
# finiteness bound of the branching engine
# ---------------------------------------------------------------------------

def finiteness_bound(spec: VermaSpec, pair: SymmetricPair, displacement) -> Optional[int]:
    """Largest degree that can still contribute to a given displacement.

    Contributions at degree k move the level by at least k*a with a the
    minimal positive eigenvalue of -ad(H) on u_-'', so k <= level/a.
    """
    ctx = _engine_context(spec, pair)
    if not ctx.u_second_weights:
        return 0
    a_min = min(map(ctx.level_of, ctx.u_second_weights))
    lvl = ctx.level_of(displacement)
    if lvl < 0:
        return None
    return lvl // a_min

# ---------------------------------------------------------------------------
# strongly orthogonal roots and Schmid decompositions
# ---------------------------------------------------------------------------

def strongly_orthogonal_sequence(weights, ambient_roots) -> list:
    """Greedy maximal strongly orthogonal sequence from a weight set.

    At each step the highest remaining weight (fixed regular order) that is
    strongly orthogonal to everything selected so far is appended; alpha and
    beta are strongly orthogonal when neither the sum nor the difference is
    an ambient restricted root.
    """
    roots = set(ambient_roots)
    pool = sorted(set(weights), key=regular_order_key, reverse=True)
    seq = []
    for cand in pool:
        ok = all(
            (cand + prev) not in roots and (cand - prev) not in roots
            for prev in seq
        )
        if ok:
            seq.append(cand)
    return seq


class SchmidReport(NamedTuple):
    sequence: list
    support: dict  # displacement Weight -> its symmetric degree
    degree_bound: int
    multiplicity_free: bool


def schmid_decomposition(pair: SymmetricPair, p: ParabolicData, degree_bound: int) -> SchmidReport:
    """Decomposition of S(u_-^{-tau}) with the strongly-orthogonal support.

    Requires an abelian nilradical and a stable parabolic; verifies degree by
    degree that the decomposition is multiplicity-free with highest weights
    in the predicted cone and returns the truncated support.
    """
    if not p.nilradical_abelian():
        raise ValueError("nilradical is not abelian: hypothesis violated")
    comp = compatibility_report(p, pair)
    if not comp.compatible:
        raise IncompatibleRestrictionError(
            "parabolic is not stable under the involution"
        )
    weights = _u_minus_split(p, pair)[1]
    seq = strongly_orthogonal_sequence(
        map(Weight, weights), pair.ambient_restricted_roots()
    )
    eps = pair.restricted_eps_dim
    support = {Weight.zero(eps): 0}
    for total in range(1, degree_bound + 1):
        for comb in _decreasing_tuples(len(seq), total):
            support[Weight(sum(map(mul, comb, column)) for column in zip(*seq))] = total
    l_tau_datum = _levi_prime_datum(p, pair)
    powers = sym_power_characters(weights, degree_bound)
    for k in range(degree_bound + 1):
        char_k = powers[k] if powers[k] else ({(0,) * eps: 1} if k == 0 else {})
        constituents = decompose_character(char_k, l_tau_datum)
        expected = {w.coords for w, deg in support.items() if deg == k}
        found = set()
        for hw, mult in constituents:
            if mult != 1:
                raise AssertionError(
                    "multiplicity %d at degree %d: S(u_-^{-tau}) is not "
                    "multiplicity-free here" % (mult, k)
                )
            found.add(hw)
        if found != expected:
            raise AssertionError(
                "degree %d constituents do not match the strongly orthogonal "
                "support" % k
            )
    return SchmidReport(
        sequence=seq,
        support=support,
        degree_bound=degree_bound,
        multiplicity_free=True,
    )


def _decreasing_tuples(length: int, total: int):
    """Weakly decreasing tuples of naturals with the given sum."""
    if length == 0:
        if total == 0:
            yield ()
        return

    def rec(remaining, cap, acc):
        slots_left = length - len(acc)
        if slots_left == 0:
            if remaining == 0:
                yield tuple(acc)
            return
        for a in range(min(cap, remaining), -1, -1):
            if remaining - a > a * (slots_left - 1):
                continue
            yield from rec(remaining - a, a, acc + [a])

    yield from rec(total, total, [])
