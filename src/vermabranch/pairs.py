"""Symmetric pair catalog: each involution as root data, the root table and
the restricted roots.

A catalog kind is one row of `PAIR_KINDS` (kinds of Cartan's list: Helgason,
Differential Geometry, Lie Groups, and Symmetric Spaces, Ch. X): parameters,
ambient rank, catalog range and root data, that is the roots of g in
Bourbaki's eps-coordinates (Lie VI, Plates I-IV), tau* as a signed
permutation of the coordinates, an element h of j with tau X_a =
(-1)^{a(h)} X_a on each tau*-fixed root a (tau is Ad exp(pi i h) on the
inner kinds; for so_down_so with m odd every fixed root is compact, and the
group case has none), and the rows that restrict a j-weight to j^tau.  The
root table holds tau*, these signs and the restricted roots
Sigma(g^tau, j^tau).  The matrices, which only `analyze` and the tests read,
are built on first use of `SymmetricPair.matrices` (module `realization`).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from typing import Callable, NamedTuple

from . import PAIR_RANK_CAP, check_cap
from .liealg import (
    Algebra,
    ClassicalType,
    RootDatum,
    _RANK_MIN,
    _dot,
    _q,
    _solve,
    _weight_text,
    classical_algebra,
    root_datum,
)

class PairSpec:
    """Catalog identifier with parameters, e.g. PairSpec('sl_s_glgl', p=2, q=2)."""

    def __init__(self, kind: str, **params):
        if kind not in PAIR_KINDS:
            raise ValueError("unknown pair kind %r (known: %s)" % (kind, ", ".join(PAIR_KINDS)))
        takes = PAIR_KINDS[kind].params
        wrong = [("unknown", k) for k in params if k not in takes]
        wrong += [("missing", k) for k in takes if k not in params]
        if wrong:
            raise ValueError("%s parameter %r for %s (takes %s)" % (*wrong[0], kind, ", ".join(takes)))
        self.kind = kind
        self.params = tuple(sorted(params.items()))

    def get(self, key):
        return dict(self.params)[key]

    @property
    def id(self) -> str:
        return self.kind + ":" + ",".join("%s=%s" % kv for kv in self.params)

    @classmethod
    def parse(cls, text: str) -> "PairSpec":
        kind, _, rest = text.partition(":")
        kind = kind.strip()
        params = {}
        if rest.strip():
            for item in rest.split(","):
                m = re.fullmatch(r"\s*(\w+)\s*=\s*([\w]+)\s*", item)
                if not m:
                    raise ValueError("malformed pair parameter %r" % item)
                key, val = m.group(1), m.group(2)
                if key in params:
                    raise ValueError("duplicate pair parameter %r" % key)
                if key != "type":
                    val = int(val)
                    if "%d" % val != m.group(2):
                        raise ValueError("pair parameter %s=%s is not canonical: write %s=%d"
                                         % (key, m.group(2), key, val))
                params[key] = val
        return cls(kind, **params)

    def __str__(self):
        return self.id

    def __eq__(self, other):
        return isinstance(other, PairSpec) and (self.kind, self.params) == (other.kind, other.params)

    def __hash__(self):
        return hash((self.kind, self.params))


class RootTable(NamedTuple):
    """Per-root data of a pair, by the index i of a root in `root_datum(g)`:
    tau*(root i) is root tau[i], and tau X_i = sign[i] X_{tau[i]} for root
    vectors X_i, with sign[i] = (-1)^{alpha_i(h)} (on a root that tau* moves
    the sign only normalizes X_{tau[i]}, and no code reads it there).
    restriction[i] is the restriction of root i to j^tau and sigma[i] its
    index in `restricted.roots`, None for a noncompact imaginary root (tau*
    fixes it and tau X_i = -X_i, so it gives no vector of g^tau).
    `restricted` is the root datum of (g^tau, j^tau)."""

    tau: tuple
    sign: tuple
    restriction: tuple
    sigma: tuple
    restricted: RootDatum


class SymmetricPair:
    """A catalog pair from its root data: g, tau* as the signed permutation
    `tau` ((tau* a)_i = s a_k for the entry (k, s) at i), h, and the
    restriction rows `probe_params` (row k restricts a j-weight to
    coordinate k of j^tau, and spans the j^tau parameters as column k)."""

    def __init__(self, spec: PairSpec, g: Algebra, tau: tuple, h: tuple, probe_params: list):
        self.spec, self.g, self.tau, self.h, self.probe_params = spec, g, tau, h, probe_params
        self.root_table = self._root_table()

    @cached_property
    def matrices(self):
        """The matrix realization, a `realization.PairRealization`: only
        `analyze` and the tests read it."""
        from .realization import realize_pair

        return realize_pair(self)

    @property
    def restricted_eps_dim(self) -> int:
        return len(self.probe_params)

    # -- weight and parameter plumbing between j and j^tau

    def restrict_weight(self, w: tuple) -> tuple:
        """Restriction of a j-weight to j^tau, in the pair's coordinates."""
        w = tuple(map(_q, w))
        return tuple(_q(_dot(w, row)) for row in self.probe_params)

    def jtau_params(self, params) -> tuple:
        """Probe coordinates of the j^tau element with these eps-parameters."""
        sol = _solve(self.probe_params, tuple(params))
        if sol is None:
            raise ValueError("element is not in the span of the j^tau probes")
        return tuple(sol)

    def tau_star(self, alpha: tuple) -> tuple:
        """Pullback of a j-weight along tau (tau permutes the root spaces)."""
        return tuple(s * _q(alpha[k]) for k, s in self.tau)

    def fixed_params(self, params) -> tuple:
        """eps-parameters of (h + tau h)/2 for h with these eps-parameters: tau acts on
        them by the transpose of tau* (alpha(tau h) = (tau* alpha)(h)), which is tau*."""
        return tuple(Fraction(t + s * params[k], 2) for t, (k, s) in zip(params, self.tau))

    def _root_table(self) -> RootTable:
        """tau* must permute the roots as an involution, with sign[i] =
        sign[tau[i]].  One root vector of g^tau per tau*-orbit is keyed by
        the restriction of a: X_a + tau X_a for a != tau* a, listed once,
        and X_a for a compact imaginary root; a noncompact imaginary root
        gives none.  Each spans a restricted root space, and j^tau is the
        zero space, when j^tau is a Cartan of g^tau."""
        datum = root_datum(self.g)
        roots = datum.roots
        tau = tuple(datum.index.get(self.tau_star(a)) for a in roots)
        sign = tuple(-1 if _dot(a, self.h) % 2 else 1 for a in roots)
        if any(k is None or tau[k] != i or sign[k] != sign[i] for i, k in enumerate(tau)):
            raise AssertionError("tau* is not an involution of the roots that keeps the signs")
        restriction = tuple(map(self.restrict_weight, roots))
        restricted = set()
        try:
            for i, (k, s, w) in enumerate(zip(tau, sign, restriction)):
                if i < k or i == k and s > 0:
                    if not any(w) or w in restricted:
                        raise ValueError("g^tau has a second vector of weight %s" % _weight_text(w))
                    restricted.add(w)
            rdatum = RootDatum(self.restricted_eps_dim, restricted)
        except ValueError as exc:
            raise ValueError(
                "restricted datum failed (j^tau is not a Cartan of g^tau?): %s" % exc
            ) from exc
        sigma = tuple(
            None if k == i and c < 0 else rdatum.index[w]
            for i, (k, c, w) in enumerate(zip(tau, sign, restriction))
        )
        return RootTable(tau, sign, restriction, sigma, rdatum)


def tau_projection(pair: SymmetricPair, space):
    """pr_tau(V) = {(Z + tau Z)/2 : Z in V} for a matrix subspace V of g."""
    return pair.matrices.eigenspace(space, 1)


def tau_split(pair: SymmetricPair, space):
    """(V cap g^tau, V cap g^{-tau}, pr_tau(V)) for a matrix subspace V of g."""
    return pair.matrices.split(space)


def restricted_root_data(pair: SymmetricPair) -> RootDatum:
    """Root datum of (g^tau, j^tau) in the pair's restricted coordinates."""
    return pair.root_table.restricted


# ---------------------------------------------------------------------------
# catalog construction
# ---------------------------------------------------------------------------

def _group_type(name: str) -> ClassicalType:
    """The factor type of a group case, e.g. type=B2."""
    m = re.fullmatch(r"([A-D])([0-9]+)", name)
    if not m:
        raise ValueError("group_case type %r is not a letter A-D followed by a rank, e.g. B2" % name)
    family, rank = m.group(1), int(m.group(2))
    if "%s%d" % (family, rank) != name:
        raise ValueError("group_case type %r is not canonical: write %s%d" % (name, family, rank))
    return ClassicalType(family, rank)


def _eye(n: int) -> list:
    return [tuple(int(i == k) for i in range(n)) for k in range(n)]


def _inner(family: str, rank: int, h, with_center: bool = False) -> tuple:
    """Root data of an inner kind, tau = Ad exp(pi i h): tau* and the restriction are the identity."""
    g = classical_algebra(ClassicalType(family, rank), with_center)
    return g, tuple((i, 1) for i in range(g.eps_dim)), h, _eye(g.eps_dim)


def _so_odd(n: int) -> tuple:
    """so(2n+2) over so(2n+1): tau* negates the last coordinate, which the restriction drops."""
    tau = tuple((i, 1) for i in range(n)) + ((n, -1),)
    return classical_algebra(ClassicalType("D", n + 1)), tau, (0,) * (n + 1), _eye(n + 1)[:n]


def _group_case(type: str) -> tuple:
    """g = f + f, a root of f padded by zeros in either half: tau* swaps the
    two halves, and the restriction sums them."""
    f = classical_algebra(_group_type(type))
    k, zero = f.eps_dim, (0,) * f.eps_dim
    roots = tuple(a + zero for a in f.roots) + tuple(zero + a for a in f.roots)
    cartan = [c + zero for c in f.cartan_columns] + [zero + c for c in f.cartan_columns]
    swap = tuple(((i + k) % (2 * k), 1) for i in range(2 * k))
    return Algebra(None, roots, cartan, f), swap, zero + zero, [u + u for u in _eye(k)]


class PairKind(NamedTuple):
    """A catalog kind; `rank`, `root_data` and the test in `requires` take its
    parameters by name.  The rows' comments name h (0 on the outer kinds)."""

    params: tuple  # the names of its parameters
    rank: Callable  # ambient rank (semisimple rank for gl)
    root_data: Callable  # (g, tau*, h, restriction rows)
    catalog: Callable  # rank bound -> parameters of its pairs up to it, in catalog order
    requires: tuple = ()  # (the parameters' domain as text, its test), if not every value is valid
    simple: bool = True  # g is simple or gl; the group case is not


PAIR_KINDS = {
    "gl_down_gl": PairKind(  # h: the indicator of coordinate l
        ("n", "l"), lambda n, l: n,
        lambda n, l: _inner("A", n, _eye(n + 1)[l - 1], with_center=True),
        lambda bound: ({"n": n, "l": l} for n in range(1, bound + 1) for l in range(1, n + 2)),
        ("n >= 1 and 1 <= l <= n+1", lambda n, l: n >= 1 and 1 <= l <= n + 1),
    ),
    "sl_s_glgl": PairKind(  # h: the indicator of the last q coordinates
        ("p", "q"), lambda p, q: p + q - 1,
        lambda p, q: _inner("A", p + q - 1, (0,) * p + (1,) * q),
        lambda bound: ({"p": p, "q": t - p} for t in range(2, bound + 2) for p in range(1, t // 2 + 1)),
        ("p, q >= 1", lambda p, q: p >= 1 and q >= 1),
    ),
    "so_down_so": PairKind(  # so(m + 1) over so(m); h = (1, ..., 1) for m even
        ("m",), lambda m: (m + 1) // 2,
        lambda m: _so_odd(m // 2) if m % 2 else _inner("B", m // 2, (1,) * (m // 2)),
        lambda bound: ({"m": m} for m in range(4, 2 * bound + 1)),  # (m + 1) // 2 <= bound
        ("m >= 4", lambda m: m >= 4),
    ),
    "sp_down_gl": PairKind(  # h = (1/2, ..., 1/2)
        ("n",), lambda n: n,
        lambda n: _inner("C", n, (Fraction(1, 2),) * n),
        lambda bound: ({"n": n} for n in range(2, bound + 1)),
        ("n >= 2", lambda n: n >= 2),
    ),
    "group_case": PairKind(
        ("type",), lambda type: 2 * _group_type(type).rank,
        _group_case,
        lambda bound: ({"type": "%s%d" % (fam, r)}
                       for fam, lo in _RANK_MIN.items() for r in range(lo, bound // 2 + 1)),
        simple=False,
    ),
}


def build_pair(spec: PairSpec) -> SymmetricPair:
    """Construct a catalog symmetric pair from its root data; its root table
    checks that tau* is an involutive permutation of the roots."""
    kind, params = PAIR_KINDS[spec.kind], dict(spec.params)
    check_cap("ambient rank", kind.rank(**params), PAIR_RANK_CAP)
    if kind.requires and not kind.requires[1](**params):
        raise ValueError("%s requires %s" % (spec.kind, kind.requires[0]))
    return SymmetricPair(spec, *kind.root_data(**params))


def catalog_pairs(rank_bound: int, simple_only: bool = False):
    """All catalog specs with ambient rank up to the bound."""
    return [PairSpec(name, **params) for name, kind in PAIR_KINDS.items()
            if kind.simple or not simple_only for params in kind.catalog(rank_bound)]
