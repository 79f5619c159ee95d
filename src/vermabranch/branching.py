"""Branching engine for restrictions of generalized Verma modules.

Everything is graded exactly: the symmetric algebra of u_-'' is expanded
degree by degree, tensored with the restricted Levi module and peeled into
irreducible l'-constituents, which accumulates the branching multiplicities
of the character identity.  All series arithmetic lives in the integer
displacement lattice relative to lambda restricted to j'; genericity
constraints ride along as symbolic assumptions and are never evaluated
inside the lattice.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from operator import add
from typing import Iterable, NamedTuple, Optional

from . import MF_SCAN_RANK_CAP, check_cap
from .liealg import RootDatum, Weight, _dot, _rref, freudenthal_character, root_datum, scaled_coords
from .pairs import PairSpec, SymmetricPair, build_pair, catalog_pairs, restricted_root_data
from .parabolic import (
    IncompatibleRestrictionError,
    ParabolicData,
    closedness_report,
    compatibility_report,
    mask_indices,
    parabolic_from_simple_subset,
    root_tau_split,
)


# ---------------------------------------------------------------------------
# Verma data
# ---------------------------------------------------------------------------

class VermaSpec(NamedTuple):
    """A generalized Verma module datum: parabolic plus highest weight.

    `lam is None` means a formal generic weight of scalar type: its values
    on the Levi center stay symbolic and only displacements are tracked.
    """

    parabolic: ParabolicData
    lam: Optional[Weight]
    scalar_type: bool

    @classmethod
    def generic(cls, parabolic: ParabolicData) -> "VermaSpec":
        return cls(parabolic=parabolic, lam=None, scalar_type=True)

    @classmethod
    def of(cls, parabolic: ParabolicData, lam: Weight) -> "VermaSpec":
        datum = parabolic.datum
        for a in parabolic.levi_roots:
            pairing = datum.coroot_pairing(lam, a)
            if pairing.denominator != 1:
                raise ValueError("lambda is not integral on the Levi coroots")
            if a in set(datum.positive_roots) and pairing < 0:
                raise ValueError("lambda is not dominant for the Levi factor")
        scalar = all(datum.coroot_pairing(lam, a) == 0 for a in parabolic.levi_roots)
        return cls(parabolic=parabolic, lam=lam, scalar_type=scalar)


class BranchEntry(NamedTuple):
    delta_displacement: tuple
    multiplicity: int
    first_degree: int


class BranchingTable:
    """The summands (delta, m(delta; lambda)) of a branching identity."""

    def __init__(self, base_offset: Optional[Weight], entries: tuple, degree_bound: int,
                 genericity_assumptions: tuple):
        self.base_offset, self.entries = base_offset, entries
        self.degree_bound, self.genericity_assumptions = degree_bound, genericity_assumptions

    def as_dict(self):
        return {e.delta_displacement: e.multiplicity for e in self.entries}

    def degrees(self):
        return {e.delta_displacement: e.first_degree for e in self.entries}

    def is_multiplicity_free(self) -> bool:
        return all(e.multiplicity == 1 for e in self.entries)

    def __len__(self):
        return len(self.entries)


def _sorted_entries(entries: Iterable[BranchEntry]) -> tuple:
    return tuple(
        sorted(entries, key=lambda e: (e.first_degree, e.delta_displacement))
    )


# ---------------------------------------------------------------------------
# the PBW series of S(u_-)
# ---------------------------------------------------------------------------

def _vsum(u: tuple, v: tuple) -> tuple:
    return tuple(map(add, u, v))


def _expand(layers: list, weights: dict, grade) -> list:
    """Multiply the graded series `layers` (layer k: the terms of grade k) in
    place by prod (1 - e^w)^{-m} over the weights w of multiplicity m and
    grade(w) > 0, truncated at the top layer: degree a of w adds the
    binomial C(a+m-1, m-1) times layer k - a * grade(w) to layer k."""
    top = len(layers) - 1
    for w, m in sorted(weights.items()):
        step = grade(w)
        if step <= 0:
            raise AssertionError("u_- weight with non-positive level")
        shifts = [(tuple(a * x for x in w), math.comb(a + m - 1, m - 1))
                  for a in range(1, top // step + 1)]  # (a * w, its binomial)
        for k in range(top, step - 1, -1):  # layer k reads only the lower layers
            layer = layers[k]
            for a, (shift, coeff) in enumerate(shifts[:k // step], 1):
                for d, c in layers[k - a * step].items():
                    key = tuple(map(add, d, shift))  # _vsum, inlined in the hot loop
                    layer[key] = layer.get(key, 0) + c * coeff
    return layers


def sym_power_characters(weights, top: int) -> list:
    """All S^0 .. S^top weight multisets of a weight multiset of integer tuples.

    An empty weight set yields empty layers; callers treat degree 0 as the
    neutral element then.
    """
    ms = {w: m for w, m in weights.items() if m}
    if not ms:
        return [{} for _ in range(top + 1)]
    layers = [{(0,) * len(next(iter(ms))): 1}] + [{} for _ in range(top)]
    return _expand(layers, ms, lambda w: 1)


# ---------------------------------------------------------------------------
# Levi restriction and character peeling
# ---------------------------------------------------------------------------

def restrict_finite_module(pair: SymmetricPair, l_datum: RootDatum, lam: Weight) -> dict:
    """Weight multiset of F_lambda restricted to j', exactly, as {r: m}: the
    weight pair.restrict_weight(lam) + r, r an integer tuple, has
    multiplicity m.

    Freudenthal runs over the Levi root datum in ambient coordinates (the
    central part of lambda rides along in the coordinates); the integer rows
    `pair.probe_params` restrict each displacement d from lambda to r.
    """
    out = {}
    for d, m in freudenthal_character(l_datum, lam).items():
        r = tuple(_dot(row, d) for row in pair.probe_params)
        out[r] = out.get(r, 0) + m
    return out


def decompose_character(char: dict, datum: RootDatum, base: Optional[Weight] = None) -> list:
    """Peel a semisimple module character into highest weights.

    `char` maps integer displacements d to the multiplicity of the weight
    base + d (base 0 when None); the result lists (d, m), m > 0, for the
    highest weights base + d.  Racah-Speiser (Humphreys, GTM 9, 24.3): each
    weight nu adds sign(w) char(nu) to m_mu where w(nu + rho) = mu + rho is
    dominant, and nothing when nu + rho lies on a wall.  Exact checks reject
    what is not a module character: each weight is integral and keeps its
    multiplicity under every simple reflection, no m_mu is negative, and
    sum m_mu dim V_mu = sum char (Weyl's formula in integers).
    """
    roots = datum.positive_roots
    offs = [0] * len(roots) if base is None else [2 * base.dot(a) for a in roots]
    if any(x.denominator != 1 for x in offs):
        raise ValueError("weights not integral for the datum: not a module character")
    two_rho = scaled_coords(datum.rho.coords, 2)
    # per positive root: (alpha, |alpha|^2, 2 <base, alpha>, <2 rho, alpha>)
    pairing = {a: (a.coords, a.dot(a), int(x), _dot(two_rho, a.coords)) for a, x in zip(roots, offs)}
    simple = [pairing[a] for a in datum.simple_roots]
    found = {}
    for d, c in char.items():
        labels = []  # <base + d + rho, alpha^vee> over the simple roots
        for a, aa, off, _ in simple:
            q, r = divmod(2 * _dot(d, a) + off, aa)  # q = <base + d, alpha^vee>
            if r:
                raise ValueError("weight at %r not integral: not a module character" % (d,))
            if q and char.get(tuple(x - q * y for x, y in zip(d, a)), 0) != c:
                raise ValueError("multiplicity at %r not W-invariant: not a module character" % (d,))
            labels.append(q + 1)
        mu, labels, det = datum.to_dominant(d, labels)  # base + mu + rho is dominant
        if all(labels):  # regular: base + mu is a highest weight
            found[mu] = found.get(mu, 0) + det * c
    out, total, rho_dim = [], 0, math.prod(r2 for *_, r2 in pairing.values())
    for d, m in found.items():
        if m < 0:
            raise ValueError("negative multiplicity %d at %r: not a module character" % (m, d))
        if m:
            num = math.prod(2 * _dot(d, a) + off + r2 for a, _, off, r2 in pairing.values())
            out.append((d, m))
            total += m * (num // rho_dim)  # Weyl: prod <mu + rho, a> / <rho, a>
    if total != sum(char.values()):
        raise ValueError(
            "constituents of dimension %d for a character of dimension %d: "
            "not a module character" % (total, sum(char.values()))
        )
    return out


# ---------------------------------------------------------------------------
# the branching pipeline
# ---------------------------------------------------------------------------

def _u_minus_split(p: ParabolicData, pair: SymmetricPair) -> tuple:
    """j^tau-weight multisets (integer tuples) of u_-^tau and u_-^{-tau} from
    the tau*-orbits of the roots of u_-; tau* must map those roots onto
    themselves, so that the split gives one vector per root."""
    negation = p.datum.negation
    u_minus = [negation[i] for i in mask_indices(p.pattern[1])]
    plus, minus = root_tau_split(pair, u_minus)
    if len(plus) + len(minus) != len(u_minus):
        raise AssertionError("u_- failed to split under a stable parabolic")
    restriction = pair.root_table.restriction
    return (Counter(restriction[i].int_coords() for i in plus),
            Counter(restriction[i].int_coords() for i in minus))


def _levi_prime_datum(p: ParabolicData, pair: SymmetricPair) -> RootDatum:
    """Root datum of l' = l cap g^tau: the restricted roots carrying a nonzero
    tau-fixed vector of l (needs no tau-stability of p)."""
    plus, _ = root_tau_split(pair, mask_indices(p.pattern[0]))
    restriction = pair.root_table.restriction
    return restricted_root_data(pair).sub_datum({restriction[i] for i in plus})


class _EngineContext(NamedTuple):
    u_prime_weights: dict
    u_second_weights: dict
    l_prime_datum: RootDatum
    f_block: dict  # displacement of each weight of F_lambda|_{l'} from base
    base: Optional[Weight]
    level_scale: int  # s, the lcm of the denominators of the coordinates below
    level_vec: tuple  # -s * (j^tau coordinates of (H + tau H)/2)

    def level_of(self, d: tuple) -> int:
        """s times the ad(H)-level of an integer displacement."""
        return _dot(self.level_vec, d)


def _engine_context(spec: VermaSpec, pair: SymmetricPair) -> _EngineContext:
    p = spec.parabolic
    comp = compatibility_report(p, pair)
    if not comp.compatible:
        if closedness_report(p, pair).closed:  # decomposable, but the engine needs p^tau = p
            raise IncompatibleRestrictionError(
                "parabolic is closed but not tau-stable; the engine branches only "
                "g^tau-compatible parabolics"
            )
        raise IncompatibleRestrictionError(
            "restriction not discretely decomposable for this embedding"
        )
    u_prime, u_second = _u_minus_split(p, pair)
    l_prime = _levi_prime_datum(p, pair)
    if spec.lam is None:
        if not spec.scalar_type:
            raise ValueError("symbolic lambda requires scalar type")
        base = None
        f_block = {(0,) * pair.restricted_eps_dim: 1}
    else:
        base = pair.restrict_weight(spec.lam)
        f_block = restrict_finite_module(pair, p.levi_datum(), spec.lam)
    params = pair.jtau_params(comp.fixed_params)
    scale = math.lcm(*(c.denominator for c in params))
    level_vec = tuple(-c for c in scaled_coords(params, scale))
    return _EngineContext(
        u_prime_weights=u_prime,
        u_second_weights=u_second,
        l_prime_datum=l_prime,
        f_block=f_block,
        base=base,
        level_scale=scale,
        level_vec=level_vec,
    )


def _convolve(a: dict, b: dict) -> dict:
    out = {}
    for w1, m1 in a.items():
        for w2, m2 in b.items():
            key = _vsum(w1, w2)
            out[key] = out.get(key, 0) + m1 * m2
    return out


def _graded_characters(ctx: _EngineContext, degree_bound: int):
    """(k, displacement character of F_lambda|_{l'} (x) S^k(u_-'')) for
    k = 0..N, skipping k > 0 when u_-'' = 0."""
    powers = sym_power_characters(ctx.u_second_weights, degree_bound)
    yield 0, dict(ctx.f_block)
    for k in range(1, degree_bound + 1):
        if powers[k]:
            yield k, _convolve(ctx.f_block, powers[k])


def branch_multiplicities(spec: VermaSpec, pair: SymmetricPair, degree_bound: int) -> BranchingTable:
    """Branching multiplicities m(delta; lambda) up to symmetric degree N.

    The peel runs on displacements; with a numeric lambda it reads the
    absolute weights base + d (the Levi pairings of lambda matter there).
    """
    return _branching_table(_engine_context(spec, pair), spec, degree_bound)


def _branching_table(ctx: _EngineContext, spec: VermaSpec, degree_bound: int) -> BranchingTable:
    acc = {}
    for k, char_k in _graded_characters(ctx, degree_bound):
        for disp, mult in decompose_character(char_k, ctx.l_prime_datum, ctx.base):
            acc.setdefault(disp, [0, k])[0] += mult
    entries = [
        BranchEntry(delta_displacement=d, multiplicity=m, first_degree=k)
        for d, (m, k) in acc.items()
    ]
    return BranchingTable(
        base_offset=ctx.base,
        entries=_sorted_entries(entries),
        degree_bound=degree_bound,
        genericity_assumptions=_assumptions_for(spec),
    )


def _assumptions_for(spec: VermaSpec) -> tuple:
    notes = ["identity holds in the Grothendieck group of the restricted category"]
    if spec.lam is None:
        notes.append(
            "lambda generic of scalar type: central values stay symbolic"
        )
    return tuple(notes)


# ---------------------------------------------------------------------------
# character identity verification
# ---------------------------------------------------------------------------

def _inv_euler_expand(start: dict, weights: dict, level_of, level_cap: int) -> dict:
    """Multiply a displacement multiset by prod (1-e^w)^{-mult}, truncated at
    the level cap; every start key must lie at a level in 0..cap."""
    layers = [{} for _ in range(level_cap + 1)]
    for d, c in start.items():
        if not 0 <= (lvl := level_of(d)) <= level_cap:
            raise AssertionError("start term at level %d outside 0..%d" % (lvl, level_cap))
        layers[lvl][d] = c
    return {d: c for layer in _expand(layers, weights, level_of) for d, c in layer.items()}


def verify_character_identity(
    spec: VermaSpec,
    pair: SymmetricPair,
    level: int,
    table: Optional[BranchingTable] = None,
) -> bool:
    """Exact comparison of both sides of the branching character identity.

    The left side is the PBW character of the generalized Verma module
    restricted to j'; the right side is the sum of restricted-side Verma
    characters weighted by the branching table.  Both are truncated at the
    given ad(H)-level and compared as exact multisets.
    """
    ctx = _engine_context(spec, pair)
    level_cap = ctx.level_scale * level
    lev = ctx.level_of

    u_all = Counter(ctx.u_prime_weights) + Counter(ctx.u_second_weights)
    lhs = _inv_euler_expand(ctx.f_block, u_all, lev, level_cap)  # F_lambda sits at level 0

    if table is None:
        a_min = min(map(lev, ctx.u_second_weights), default=None)
        table = _branching_table(ctx, spec, 0 if a_min is None else level_cap // a_min)

    # the expansion is linear: expand sum_delta m_delta chi_delta once; a character
    # depends only on the labels of its highest weight, so entries sharing them share it
    base = Weight.zero(pair.restricted_eps_dim) if ctx.base is None else ctx.base
    datum, groups, rhs_start = ctx.l_prime_datum, {}, {}
    for delta, mult, _ in table.entries:
        if lev(delta) <= level_cap:
            lam = base + Weight(delta)
            groups.setdefault(tuple(datum.labels(lam.coords)), (lam, []))[1].append((delta, mult))
    for lam, group in groups.values():
        for d, m in freudenthal_character(datum, lam).items():
            for delta, mult in group:
                if lev(key := _vsum(delta, d)) <= level_cap:
                    rhs_start[key] = rhs_start.get(key, 0) + mult * m
    rhs = _inv_euler_expand(rhs_start, ctx.u_prime_weights, lev, level_cap)

    return lhs == {w: m for w, m in rhs.items() if m}


# ---------------------------------------------------------------------------
# closed-form laws
# ---------------------------------------------------------------------------

def closed_form_law(family: str, params: dict, degree_bound: int) -> BranchingTable:
    """The explicit multiplicity-free branching laws, emitted directly.

    AA: gl_{n+1} down gl_1 + gl_n at the l-th embedding; BD: so_{2n+1} down
    so_{2n}; DB: so_{2n+2} down so_{2n+1}.  Entries are displacement
    vectors against the generic base offset, all with multiplicity one.
    """
    fam = family.upper()
    entries = []
    if fam == "AA":
        n, l = params["n"], params["l"]
        if not 1 <= l <= n + 1:
            raise ValueError("AA requires 1 <= l <= n+1")
        others = [i for i in range(n + 1) if i != l - 1]
        for k in _boxed_tuples(n, degree_bound):
            disp = [0] * (n + 1)
            ind = 0
            for pos, ki in zip(others, k):
                if pos < l - 1:
                    disp[pos] = -ki
                    ind += ki
                else:
                    disp[pos] = ki
                    ind -= ki
            disp[l - 1] = ind
            entries.append(
                BranchEntry(tuple(disp), 1, sum(k))
            )
        labels = [str(i + 1) for i in others]
        assumptions = (
            "lambda_i - lambda_j not in Z for distinct i, j in {%s}" % ", ".join(labels),
        )
    elif fam in ("BD", "DB"):
        n = params["n"]
        for k in _boxed_tuples(n, degree_bound):
            entries.append(BranchEntry(tuple(-ki for ki in k), 1, sum(k)))
        assumptions = (
            "lambda_i +/- lambda_j not in Z for 1 <= i < j <= %d" % n,
        )
    else:
        raise ValueError("unknown closed-form family %r" % family)
    return BranchingTable(
        base_offset=None,
        entries=_sorted_entries(entries),
        degree_bound=degree_bound,
        genericity_assumptions=assumptions,
    )


def _boxed_tuples(length: int, total_cap: int):
    """All natural tuples with coordinate sum at most the cap, by stars and
    bars: the gaps of a length-subset of range(cap + length), less one."""
    for c in itertools.combinations(range(total_cap + length), length):
        yield tuple(b - a - 1 for a, b in zip((-1,) + c, c))


def law_setting(family: str, params: dict):
    """The (pair, Borel spec) whose engine table the closed form predicts."""
    fam = family.upper()
    if fam == "AA":
        pair = build_pair(PairSpec("gl_down_gl", n=params["n"], l=params["l"]))
    elif fam == "BD":
        pair = build_pair(PairSpec("so_down_so", m=2 * params["n"]))
    elif fam == "DB":
        pair = build_pair(PairSpec("so_down_so", m=2 * params["n"] + 1))
    else:
        raise ValueError("unknown closed-form family %r" % family)
    borel = parabolic_from_simple_subset(pair.g, set())
    return pair, VermaSpec.generic(borel)


# ---------------------------------------------------------------------------
# genericity and the multiplicity-free scan
# ---------------------------------------------------------------------------

class GenericityReport(NamedTuple):
    simple_certified: Optional[bool]
    distinct_infchar: Optional[bool]


def genericity_check(
    spec: VermaSpec,
    pair: Optional[SymmetricPair] = None,
    table: Optional[BranchingTable] = None,
) -> GenericityReport:
    """Simplicity certificate for the Verma module and, given a table, the
    pairwise-distinct infinitesimal character test for its entries."""
    simple = None
    if spec.lam is not None:
        datum = spec.parabolic.datum
        levi = set(spec.parabolic.levi_roots)
        simple = True
        for beta in datum.positive_roots:
            if beta in levi:
                continue
            val = datum.coroot_pairing(spec.lam + datum.rho, beta)
            if val.denominator == 1 and val >= 1:
                simple = False
                break
    distinct = None
    if table is not None:
        if pair is None or spec.lam is None:
            raise ValueError("distinct_infchar needs the pair and a numeric lambda")
        rdatum = restricted_root_data(pair)
        base = pair.restrict_weight(spec.lam)
        # two weights share a Weyl orbit iff their dominant conjugates agree
        dominant = [
            rdatum.dominant_representative(Weight(e.delta_displacement) + base + rdatum.rho)
            for e in table.entries
        ]
        distinct = len(set(dominant)) == len(dominant)
    return GenericityReport(simple_certified=simple, distinct_infchar=distinct)


class MfScanRow(NamedTuple):
    spec_id: str
    dim_g: int
    dim_fixed: int
    rank_g: int
    rank_fixed: int
    passes: bool


def mf_scan(rank_bound: int, include_failing: bool = False):
    """Evaluate dim g - dim g^tau <= rank g + rank g^tau over the catalog.

    Only pairs with simple ambient algebra participate; the gl-over-gl
    family is measured in its trace-projected sl incarnation.
    """
    check_cap("rank bound", rank_bound, MF_SCAN_RANK_CAP)
    rows = []
    for spec in catalog_pairs(rank_bound, simple_only=True):
        if spec.kind == "gl_down_gl" and spec.get("l") != 1:
            continue
        pair = build_pair(spec)
        table, g = pair.root_table, pair.g
        trace = g.rank - len(root_datum(g).simple_roots)  # the centre of gl: its sl part
        # dim j^tau: the rank of (x + tau x)/2 over a basis x of j
        rank_fixed = len(_rref(
            [{i: x for i, x in enumerate(pair.fixed_params(c)) if x} for c in g.cartan_columns]
        )) - trace
        # dim g^tau = dim j^tau + #{i < tau*(i)} + #{compact imaginary roots}
        dim_fixed = rank_fixed + sum(
            i < k or i == k and s > 0 for i, (k, s) in enumerate(zip(table.tau, table.sign))
        )
        dim_g, rank_g = g.dim - trace, g.rank - trace
        passes = dim_g - dim_fixed <= rank_g + rank_fixed
        rows.append(MfScanRow(spec.id, dim_g, dim_fixed, rank_g, rank_fixed, passes))
    if include_failing:
        return rows
    return [r for r in rows if r.passes]
