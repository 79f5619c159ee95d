"""Symmetric pair catalog: each involution as root data, the root table and
the restricted roots.

A catalog pair is one row of root data (`_root_data`), for the kinds of
Cartan's list (Helgason, Differential Geometry, Lie Groups, and Symmetric
Spaces, Ch. X): the roots of g in Bourbaki's eps-coordinates (Lie VI,
Plates I-IV), tau* as a signed permutation of the coordinates, an element h
of j with tau X_a = (-1)^{a(h)} X_a on each tau*-fixed root a (tau is
Ad exp(pi i h) on the inner kinds; for so_down_so with m odd every fixed
root is compact, and the group case has none), and the rows that restrict a
j-weight to j^tau.  The root table holds tau*, these signs and the
restricted roots Sigma(g^tau, j^tau).  The matrices, which only `analyze`
and the tests read, are built on first use of `SymmetricPair.matrices`
(module `realization`).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .liealg import (
    PAIR_RANK_CAP,
    Algebra,
    ClassicalType,
    RootDatum,
    Weight,
    _solve,
    check_cap,
    classical_algebra,
    root_datum,
)

# pair kind -> the names of its parameters
PAIR_KINDS = {
    "gl_down_gl": ("n", "l"),
    "sl_s_glgl": ("p", "q"),
    "so_down_so": ("m",),
    "sp_down_gl": ("n",),
    "group_case": ("type",),
}


class PairSpec:
    """Catalog identifier with parameters, e.g. PairSpec('sl_s_glgl', p=2, q=2)."""

    def __init__(self, kind: str, **params):
        if kind not in PAIR_KINDS:
            raise ValueError("unknown pair kind %r (known: %s)" % (kind, ", ".join(PAIR_KINDS)))
        takes = PAIR_KINDS[kind]
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
                params[key] = val if key == "type" else int(val)
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
    """A catalog pair from its root data: g, tau* as rows (row k: the
    eps-parameters of tau applied to the k-th eps probe), h, and the
    restriction rows `probe_params` (row k restricts a j-weight to
    coordinate k of j^tau, and spans the j^tau parameters as column k)."""

    def __init__(self, spec: PairSpec, g: Algebra, tau_rows: list, h: Weight, probe_params: list):
        self.spec, self.g, self.tau_rows, self.h, self.probe_params = spec, g, tau_rows, h, probe_params
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

    def restrict_weight(self, w: Weight) -> Weight:
        """Restriction of a j-weight to j^tau, in the pair's coordinates."""
        return _apply_rows(self.probe_params, w)

    def jtau_params(self, params) -> tuple:
        """Probe coordinates of the j^tau element with these eps-parameters."""
        sol = _solve(self.probe_params, tuple(params))
        if sol is None:
            raise ValueError("element is not in the span of the j^tau probes")
        return tuple(sol)

    def tau_star(self, alpha: Weight) -> Weight:
        """Pullback of a j-weight along tau (tau permutes the root spaces)."""
        return _apply_rows(self.tau_rows, alpha)

    def fixed_params(self, params) -> tuple:
        """eps-parameters of (h + tau h)/2 for h with these eps-parameters.

        tau acts on parameters by the transpose of the tau* rows, since
        alpha(tau h) = (tau* alpha)(h)."""
        return tuple(
            (t + sum((r[i] * s for r, s in zip(self.tau_rows, params) if s), Fraction(0))) / 2
            for i, t in enumerate(params)
        )

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
        sign = tuple(-1 if a.dot(self.h) % 2 else 1 for a in roots)
        if any(k is None or tau[k] != i or sign[k] != sign[i] for i, k in enumerate(tau)):
            raise AssertionError("tau* is not an involution of the roots that keeps the signs")
        restriction = tuple(map(self.restrict_weight, roots))
        restricted = set()
        try:
            for i, (k, s, w) in enumerate(zip(tau, sign, restriction)):
                if i < k or i == k and s > 0:
                    if w.is_zero() or w in restricted:
                        raise ValueError("g^tau has a second vector of weight %r" % (w,))
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


def _apply_rows(rows, w: Weight) -> Weight:
    """The weight with coordinates row . w, one per row of a rational matrix."""
    return Weight(sum(a * r for a, r in zip(w.coords, row) if r) for row in rows)


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

def _group_type(spec: PairSpec) -> ClassicalType:
    """The factor type of a group case, e.g. type=B2."""
    tname = spec.get("type")
    m = re.fullmatch(r"([A-D])([0-9]+)", tname)
    if not m:
        raise ValueError("group_case type %r is not a letter A-D followed by a rank, e.g. B2" % tname)
    return ClassicalType(m.group(1), int(m.group(2)))


def _ambient_rank(spec: PairSpec) -> int:
    """Rank of g (semisimple rank for gl), read from the spec's parameters."""
    get = spec.get
    if spec.kind == "group_case":
        return 2 * _group_type(spec).rank
    if spec.kind == "sl_s_glgl":
        return get("p") + get("q") - 1
    if spec.kind == "so_down_so":
        return (get("m") + 1) // 2
    return get("n")  # gl_down_gl, sp_down_gl


def _eye(n: int) -> list:
    return [tuple(int(i == k) for i in range(n)) for k in range(n)]


def _root_data(spec: PairSpec):
    """(g, tau* rows, h, restriction rows) of a catalog pair.  tau* is the
    identity for the inner kinds, negates the last coordinate for so_down_so
    with m odd and swaps the two halves for the group case; the restriction
    to j^tau is the identity, drops the last coordinate or sums the halves.
    h is the indicator of coordinate l (gl_down_gl), of the last q
    coordinates (sl_s_glgl), (1, ..., 1) (so_down_so, m even), (1/2, ...,
    1/2) (sp_down_gl), and 0 for the outer kinds."""
    kind, get = spec.kind, spec.get
    if kind == "group_case":
        f = classical_algebra(_group_type(spec))
        k, zero = f.eps_dim, (0,) * f.eps_dim
        roots = tuple(Weight(a.coords + zero) for a in f.roots) + tuple(Weight(zero + a.coords) for a in f.roots)
        cartan = [c + zero for c in f.cartan_columns] + [zero + c for c in f.cartan_columns]
        eye = _eye(2 * k)
        return Algebra(None, roots, cartan, f), eye[k:] + eye[:k], Weight(zero + zero), [u + u for u in _eye(k)]
    if kind == "gl_down_gl":
        n, l = get("n"), get("l")
        if n < 1 or not 1 <= l <= n + 1:
            raise ValueError("gl_down_gl requires n >= 1 and 1 <= l <= n+1")
        g, h = classical_algebra(ClassicalType("A", n), with_center=True), _eye(n + 1)[l - 1]
    elif kind == "sl_s_glgl":
        p, q = get("p"), get("q")
        if p < 1 or q < 1 or p + q < 2:
            raise ValueError("sl_s_glgl requires p, q >= 1")
        g, h = classical_algebra(ClassicalType("A", p + q - 1)), (0,) * p + (1,) * q
    elif kind == "so_down_so":
        m = get("m")
        if m < 4:
            raise ValueError("so_down_so requires m >= 4")
        n = m // 2
        if m % 2:  # so(2n+2) over so(2n+1)
            eye = _eye(n + 1)
            g = classical_algebra(ClassicalType("D", n + 1))
            return g, eye[:n] + [tuple(-c for c in eye[n])], Weight.zero(n + 1), eye[:n]
        g, h = classical_algebra(ClassicalType("B", n)), (1,) * n  # so(2n+1) over so(2n)
    else:
        n = get("n")
        if n < 2:
            raise ValueError("sp_down_gl requires n >= 2")
        g, h = classical_algebra(ClassicalType("C", n)), (Fraction(1, 2),) * n
    eye = _eye(g.eps_dim)
    return g, eye, Weight(h), eye


def build_pair(spec: PairSpec) -> SymmetricPair:
    """Construct a catalog symmetric pair from its root data; its root table
    checks that tau* is an involutive permutation of the roots."""
    check_cap("ambient rank", _ambient_rank(spec), PAIR_RANK_CAP)
    return SymmetricPair(spec, *_root_data(spec))


def catalog_pairs(rank_bound: int, simple_only: bool = False):
    """All catalog specs with ambient rank up to the bound."""
    specs = []
    for n in range(1, rank_bound + 1):
        for l in range(1, n + 2):
            specs.append(PairSpec("gl_down_gl", n=n, l=l))
    for total in range(2, rank_bound + 2):
        for p in range(1, total):
            q = total - p
            if p <= q:
                specs.append(PairSpec("sl_s_glgl", p=p, q=q))
    for m in range(4, 2 * rank_bound + 1):  # ambient rank (m + 1) // 2 is within the bound
        specs.append(PairSpec("so_down_so", m=m))
    for n in range(2, rank_bound + 1):
        specs.append(PairSpec("sp_down_gl", n=n))
    if not simple_only:
        for fam, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3)):
            for r in range(lo, rank_bound // 2 + 1):
                specs.append(PairSpec("group_case", type="%s%d" % (fam, r)))
    return specs
