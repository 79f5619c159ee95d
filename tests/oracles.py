"""Paper results and criteria that no command runs, kept as test oracles.

Root sets and predicates that no command reads (u_-, the ambient restricted
roots, `is_borel`, `acts_trivially_on_j`) and the abelian-nilradical test
come first, then the absolute forms of displacement characters and the
Weyl-element actions that only tests use, then the oracles that left the
package: Weyl's dimension formula (for Freudenthal), `echelon_span` and the
classical matrix realizations `build_classical`.  The term-by-term inverse
Euler expansion is the oracle of the layered one.  Schmid's decomposition of
S(u_-^{-tau}) for an abelian nilradical, the finiteness bound of the
branching engine, the ad-nilpotency test on an ambient algebra, the
tensor-case closedness criterion and the double-coset count of the
inner-involution census are each checked against the engine by the tests
that import them.  Last comes the argparse front end that ``cli`` parsed its
flags with before its table-driven parser, held to it by the parity tests.  They read engine internals, as the other
oracles here (``matrix_route``) do.
"""

import argparse
import functools
import math
import sys
from fractions import Fraction
from operator import mul
from typing import Iterable, Mapping, NamedTuple, Optional

from vermabranch import PreconditionError, cli
from vermabranch.branching import (
    VermaSpec,
    _engine_context,
    _levi_prime_datum,
    _u_minus_split,
    _vsum,
    decompose_character,
    sym_power_characters,
)
from vermabranch.exactla import (
    MatrixElement,
    Subspace,
    _ambient_subspace,
    _as_sparse,
    _matrix_dim,
    bracket,
    nilpotent_matrix,
    span_of_matrices,
)
from vermabranch.liealg import (
    ClassicalType,
    RootDatum,
    Weight,
    WeylElement,
    classical_algebra,
    reflection_element,
    regular_order_key,
)
from vermabranch.pairs import SymmetricPair
from vermabranch.parabolic import (
    IncompatibleRestrictionError,
    ParabolicData,
    _union_find,
    compatibility_report,
)
from vermabranch.realization import AlgebraRealization, realize


# ---------------------------------------------------------------------------
# root sets
# ---------------------------------------------------------------------------

def negative_roots(p: ParabolicData) -> frozenset:
    """The roots of u_-: minus those of the nilradical."""
    return frozenset(-a for a in p.nilradical_roots)


def nilradical_abelian(p: ParabolicData) -> bool:
    """[u, u] = 0: no two nilradical roots sum to a root."""
    roots = p.datum.index
    return not any(a + b in roots for a in p.nilradical_roots for b in p.nilradical_roots)


def ambient_restricted_roots(pair: SymmetricPair) -> set:
    """Nonzero j^tau-weights of g: the restrictions of the roots of g (none
    is zero: a root fixed by tau* vanishes on j^{-tau}, and `root_table`
    checks the others)."""
    return set(pair.root_table.restriction)


def is_borel(p: ParabolicData) -> bool:
    return not p.pattern[0]


def acts_trivially_on_j(pair: SymmetricPair) -> bool:
    return all(pair.fixed_params(c) == tuple(c) for c in pair.g.cartan_columns)


# ---------------------------------------------------------------------------
# absolute forms and Weyl-element actions
# ---------------------------------------------------------------------------

def absolute(char: dict, base: Optional[Weight]) -> dict:
    """Weight-keyed form {base + d: m} of a displacement character (base 0
    when None), e.g. of `freudenthal_character(datum, lam)` against lam."""
    return {(Weight(d) if base is None else base + Weight(d)): m for d, m in char.items()}


def weyl_apply_params(w, params) -> tuple:
    return tuple(w.signs[i] * params[w.perm[i]] for i in range(len(w.perm)))


def weyl_apply(w, weight: Weight) -> Weight:
    return Weight(weyl_apply_params(w, weight.coords))


def weyl_inverse(w):
    n = len(w.perm)
    perm, signs = [0] * n, [1] * n
    for i in range(n):
        perm[w.perm[i]] = i
        signs[w.perm[i]] = w.signs[i]
    return WeylElement(perm, signs)


def minus_count(w) -> int:
    return sum(1 for s in w.signs if s < 0)


# ---------------------------------------------------------------------------
# Weyl's dimension formula, echelon spans and classical realizations
# ---------------------------------------------------------------------------

def weyl_dimension(datum: RootDatum, lam: Weight) -> int:
    """Weyl dimension formula; independent oracle for character sizes."""
    num = Fraction(1)
    for a in datum.positive_roots:
        num *= Fraction((lam + datum.rho).dot(a), datum.rho.dot(a))
    if num.denominator != 1:
        raise AssertionError("Weyl dimension came out non-integral")
    return int(num)


def echelon_span(vectors: Iterable, ambient_dim=None) -> Subspace:
    """Canonical echelon span of coordinate vectors.

    Empty input yields the zero subspace (ambient_dim then required).
    """
    vectors = list(vectors)
    if ambient_dim is None:
        dense = [v for v in vectors if not isinstance(v, Mapping)]
        if not dense:
            raise ValueError("ambient_dim required for empty or sparse input")
        ambient_dim = len(dense[0])
    return Subspace(ambient_dim, [_as_sparse(v) for v in vectors])


def build_classical(ctype: ClassicalType, with_center: bool = False) -> AlgebraRealization:
    """Standard split realization; `with_center` selects gl over sl in type A."""
    return realize(classical_algebra(ctype, with_center))


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
# the term-by-term inverse Euler expansion
# ---------------------------------------------------------------------------

def term_by_term_expand(start: dict, weights: dict, level_of, level_cap: int) -> dict:
    """Multiply a displacement multiset by prod (1-e^w)^{-mult}, truncated at
    the level cap, one start term and one weight at a time: the loop
    `branching._inv_euler_expand` ran before it expanded by layers."""
    current = dict(start)
    for w, m in sorted(weights.items()):
        step = level_of(w)
        if step <= 0:
            raise AssertionError("u_- weight with non-positive level")
        nxt = dict(current)
        for d, c in current.items():
            key = d
            for a in range(1, (level_cap - level_of(d)) // step + 1):
                key = _vsum(key, w)
                nxt[key] = nxt.get(key, 0) + c * math.comb(a + m - 1, m - 1)
        current = nxt
    return current

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
    if not nilradical_abelian(p):
        raise ValueError("nilradical is not abelian: hypothesis violated")
    comp = compatibility_report(p, pair)
    if not comp.compatible:
        raise IncompatibleRestrictionError(
            "parabolic is not stable under the involution"
        )
    weights = _u_minus_split(p, pair)[1]
    seq = strongly_orthogonal_sequence(
        map(Weight, weights), ambient_restricted_roots(pair)
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


# ---------------------------------------------------------------------------
# the argparse front end of the CLI
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Raises PreconditionError (exit 2) where argparse would exit."""

    def error(self, message):
        raise PreconditionError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vermabranch",
        description="Discretely decomposable restrictions of generalized "
        "Verma modules to symmetric subalgebras",
    )
    default = cli.RunConfig._field_defaults
    parser.add_argument("command", choices=cli.COMMANDS)
    parser.add_argument("--pair", dest="pair_id")
    parser.add_argument("--parabolic", default=None)
    parser.add_argument("--lambda", dest="lam", default=default["lam"])
    parser.add_argument("--degree", type=int, default=default["degree"])
    parser.add_argument("--level", type=int, default=default["level"])
    parser.add_argument("--law")
    parser.add_argument("--n", type=int)
    parser.add_argument("--l", type=int)
    parser.add_argument("--rank-bound", type=int, default=default["rank_bound"])
    parser.add_argument("--format", choices=("text", "json"), default=default["format"])
    parser.add_argument("--cache-dir")
    parser.add_argument("--seed", type=int, default=default["seed"])
    parser.add_argument("--config", dest="config_file")
    return parser


def config_from_args(argv) -> cli.RunConfig:
    """Flags win over `--config` file values, which win over the defaults."""
    parser = build_parser()
    values = vars(parser.parse_args(argv))
    config_file = values.pop("config_file")
    if config_file:
        defaults = cli._read_config_file(config_file)
        for key in defaults:
            if key not in values:
                raise PreconditionError("unknown config key %r" % key)
        for key, choices in ((a.dest, a.choices) for a in parser._actions if a.choices):
            if key in defaults and defaults[key] not in choices:  # set_defaults skips this
                raise PreconditionError("config %s must be one of %s" % (key, ", ".join(choices)))
        # string defaults pass through the same type checks as the flags
        parser.set_defaults(**defaults)
        values = vars(parser.parse_args(argv))
        values.pop("config_file")
    return cli.RunConfig(**values)


def reject_arguments(argv, exc) -> int:
    """Exit 2 for arguments that form no config; the command and format are
    read leniently so that --format json still gets its envelope."""
    lenient = argparse.ArgumentParser(add_help=False)
    lenient.add_argument("command", nargs="?")
    lenient.add_argument("--format")
    known = lenient.parse_known_args(argv)[0]
    if known.format != "json":
        print("error: %s" % exc, file=sys.stderr)
        return 2
    payload = {"schema": cli.SCHEMA_VERSION, "engine": cli.ENGINE_VERSION, "command": known.command,
               "result": "precondition violation", "error": str(exc)}
    return cli._write_out(cli.serialize_envelope(cli.ResultEnvelope(payload=payload)), 2)


def main(argv) -> int:
    """`cli.main` on the argparse front end."""
    try:
        config = config_from_args(argv)
    except (ValueError, OSError) as exc:  # a rejected flag or config file
        return reject_arguments(argv, exc)
    env, code = cli.run_command(config)
    return cli._write_out(cli.serialize_envelope(env, config.format), code)
