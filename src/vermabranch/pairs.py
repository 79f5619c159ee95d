"""Symmetric pair catalog: involutions, fixed subalgebras and restricted roots.

Every involution is stored as conjugation by an explicit rational matrix
(the factor swap of the group case is conjugation by the block permutation),
so fixed spaces, the projection (Z + tau Z)/2 and all nilpotency checks stay
pure exact linear algebra.  The distinguished Cartan is diagonal and every
catalog conjugator is diagonal or a permutation-reflection, hence tau j = j
(`build_pair` checks it, with tau g = g, before projecting).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .exactla import (
    MatrixElement,
    Subspace,
    span_of_matrices,
    weight_decomposition,
)
from .liealg import (
    AlgebraRealization,
    ClassicalType,
    PAIR_RANK_CAP,
    RootDatum,
    Weight,
    _solve,
    build_classical,
    check_cap,
    datum_from_decomposition,
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


class Involution:
    """Algebra involution realized as conjugation Z -> A Z A^{-1}."""

    def __init__(self, conjugator: MatrixElement, is_inner: bool):
        self.conjugator = conjugator
        self.is_inner = is_inner
        sq = conjugator @ conjugator
        if sq != MatrixElement.identity(conjugator.dim):
            raise ValueError("conjugator must square to the identity")

    def __call__(self, x: MatrixElement) -> MatrixElement:
        return self.conjugator @ x @ self.conjugator


class TauSplit(NamedTuple):
    plus: Subspace
    minus: Subspace
    pr: Subspace


class RootTable(NamedTuple):
    """Per-root data of a pair, by the index i of a root in `root_datum(g)`:
    tau*(root i) is root tau[i], tau X_i = sign[i] X_{tau[i]} for the root
    vectors X_i (the echelon rows of the root spaces), restriction[i] is the
    restriction of root i to j^tau and sigma[i] its index in
    `restricted_root_data(pair).roots`, None for a noncompact imaginary root
    (tau* fixes it and tau X_i = -X_i, so it gives no vector of g^tau)."""

    tau: tuple
    sign: tuple
    restriction: tuple
    sigma: tuple


class SymmetricPair:
    """A catalog pair: g, its involution tau, g^{+-tau} and the j^tau basis and
    probes; the restricted datum and the root table fill on use."""

    def __init__(self, spec: PairSpec, g: AlgebraRealization, tau: Involution, fixed: Subspace,
                 minus: Subspace, j_tau_basis: list, j_tau_probes: list):
        self.spec, self.g, self.tau, self.fixed, self.minus = spec, g, tau, fixed, minus
        self.j_tau_basis, self.j_tau_probes = j_tau_basis, j_tau_probes
        self._restricted_datum = None

    @property
    def restricted_eps_dim(self) -> int:
        return len(self.j_tau_probes)

    def acts_trivially_on_j(self) -> bool:
        return all(self.tau(h) == h for h in self.g.cartan_basis)

    # -- weight and parameter plumbing between j and j^tau

    @cached_property
    def probe_params(self) -> list:
        """eps-parameters of the j^tau probes: row k restricts a j-weight to
        coordinate k of j^tau, and spans the j^tau parameters as column k."""
        return [self.g.eps_params(p).coords for p in self.j_tau_probes]

    def restrict_weight(self, w: Weight) -> Weight:
        """Restriction of a j-weight to j^tau, in the pair's coordinates."""
        return _apply_rows(self.probe_params, w)

    def jtau_params(self, params) -> tuple:
        """Probe coordinates of the j^tau element with these eps-parameters."""
        sol = _solve(self.probe_params, tuple(params))
        if sol is None:
            raise ValueError("element is not in the span of the j^tau probes")
        return tuple(sol)

    @cached_property
    def _tau_rows(self) -> list:
        """Row k: eps-parameters of tau applied to the k-th eps probe."""
        return [self.g.eps_params(self.tau(p)).coords for p in self.g.eps_probes]

    def tau_star(self, alpha: Weight) -> Weight:
        """Pullback of a j-weight along tau (tau permutes the root spaces)."""
        return _apply_rows(self._tau_rows, alpha)

    def fixed_params(self, params) -> tuple:
        """eps-parameters of (h + tau h)/2 for h with these eps-parameters.

        tau acts on parameters by the transpose of the tau* rows, since
        alpha(tau h) = (tau* alpha)(h)."""
        return tuple(
            (t + sum((r[i] * s for r, s in zip(self._tau_rows, params) if s), Fraction(0))) / 2
            for i, t in enumerate(params)
        )

    @cached_property
    def root_table(self) -> RootTable:
        """Catalog involutions permute the root spaces up to sign: each tau X_i
        is read from the matrices once, at first use, and checked on read."""
        datum = root_datum(self.g)
        roots, spaces, n = datum.roots, datum.root_spaces, self.g.matrix_dim
        tau, sign = tuple(datum.index[self.tau_star(a)] for a in roots), []
        for a, k in zip(roots, tau):
            image = self.tau(MatrixElement.from_vector(n, spaces[a].rows[0]))
            coords = spaces[roots[k]].coordinates_of(image.vectorize())
            if coords is None:
                raise AssertionError("tau X_a does not lie in its target space (%s)" % k)
            sign.append(coords[0])
        restriction = tuple(map(self.restrict_weight, roots))
        sigma_of = restricted_root_data(self).index
        sigma = tuple(
            None if k == i and c < 0 else sigma_of[w]
            for i, (k, c, w) in enumerate(zip(tau, sign, restriction))
        )
        return RootTable(tau, tuple(sign), restriction, sigma)

    def ambient_restricted_roots(self) -> set:
        """Nonzero j^tau-weights of g: the restrictions of the roots of g (none
        is zero, as j^tau is a Cartan of g^tau; `root_table` checks it)."""
        return set(self.root_table.restriction)


def _apply_rows(rows, w: Weight) -> Weight:
    """The weight with coordinates row . w, one per row of a rational matrix."""
    return Weight(sum(a * r for a, r in zip(w.coords, row) if r) for row in rows)


def tau_projection(pair: SymmetricPair, space: Subspace) -> Subspace:
    """pr_tau(V) = {(Z + tau Z)/2 : Z in V} for a subspace V of g."""
    return _eigen_subspace(pair.tau, space, 1)


def _eigen_subspace(tau, space: Subspace, sign: int) -> Subspace:
    """Span of b + sign * tau(b) over the basis of V: the image of V under the
    projection onto the (sign)-eigenspace of tau, which is V's own
    (sign)-eigenspace when V is tau-stable."""
    return Subspace(
        space.ambient_dim,
        [(b + tau(b).scale(sign)).vectorize() for b in space.matrices()],
    )


def tau_split(pair: SymmetricPair, space: Subspace) -> TauSplit:
    """(V cap g^tau, V cap g^{-tau}, pr_tau(V)) for a subspace V of g."""
    return TauSplit(
        plus=space.intersect(pair.fixed),
        minus=space.intersect(pair.minus),
        pr=tau_projection(pair, space),
    )


def restricted_root_data(pair: SymmetricPair) -> RootDatum:
    """Root datum of (g^tau, j^tau) in the pair's restricted coordinates."""
    if pair._restricted_datum is None:
        parts = weight_decomposition(pair.j_tau_probes, pair.fixed)
        try:
            datum = datum_from_decomposition(pair.restricted_eps_dim, parts)
        except ValueError as exc:
            raise ValueError(
                "restricted datum failed (j^tau is not a Cartan of g^tau?): %s" % exc
            ) from exc
        pair._restricted_datum = datum
    return pair._restricted_datum


# ---------------------------------------------------------------------------
# catalog construction
# ---------------------------------------------------------------------------

def _block_embed(x: MatrixElement, total: int, offset: int) -> MatrixElement:
    return MatrixElement(total, {(i + offset, j + offset): v for (i, j), v in x.items()})


def _doubled_realization(factor: AlgebraRealization) -> AlgebraRealization:
    m = factor.matrix_dim
    total = 2 * m
    basis = factor.algebra.matrices()
    algebra = span_of_matrices(
        [_block_embed(b, total, 0) for b in basis]
        + [_block_embed(b, total, m) for b in basis],
        total,
    )
    cartan = [_block_embed(h, total, 0) for h in factor.cartan_basis] + [
        _block_embed(h, total, m) for h in factor.cartan_basis
    ]
    probes = [_block_embed(p, total, 0) for p in factor.eps_probes] + [
        _block_embed(p, total, m) for p in factor.eps_probes
    ]
    positions = list(factor.eps_positions) + [p + m for p in factor.eps_positions]
    return AlgebraRealization(
        type=None,
        label="%s+%s" % (factor.label, factor.label),
        matrix_dim=total,
        algebra=algebra,
        cartan_basis=cartan,
        eps_probes=probes,
        eps_positions=positions,
        has_center=factor.has_center,
    )


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


def _conjugator_and_probes(spec: PairSpec):
    kind = spec.kind
    if kind == "gl_down_gl":
        n, l = spec.get("n"), spec.get("l")
        if n < 1 or not 1 <= l <= n + 1:
            raise ValueError("gl_down_gl requires n >= 1 and 1 <= l <= n+1")
        g = build_classical(ClassicalType("A", n), with_center=True)
        diag = [1] * (n + 1)
        diag[l - 1] = -1
        conj = MatrixElement.diagonal(diag)
        return g, Involution(conj, is_inner=True), list(g.eps_probes)
    if kind == "sl_s_glgl":
        p, q = spec.get("p"), spec.get("q")
        if p < 1 or q < 1 or p + q < 2:
            raise ValueError("sl_s_glgl requires p, q >= 1")
        g = build_classical(ClassicalType("A", p + q - 1))
        conj = MatrixElement.diagonal([1] * p + [-1] * q)
        return g, Involution(conj, is_inner=True), list(g.eps_probes)
    if kind == "so_down_so":
        m = spec.get("m")
        if m < 4:
            raise ValueError("so_down_so requires m >= 4")
        if m % 2 == 0:
            n = m // 2
            g = build_classical(ClassicalType("B", n))  # ambient so_{2n+1}
            diag = [1] * (2 * n + 1)
            diag[n] = -1
            conj = MatrixElement.diagonal(diag)
            return g, Involution(conj, is_inner=True), list(g.eps_probes)
        n = (m - 1) // 2
        g = build_classical(ClassicalType("D", n + 1))  # ambient so_{2n+2}
        size = 2 * n + 2
        data = {(i, i): Fraction(1) for i in range(size) if i not in (n, n + 1)}
        data[(n, n + 1)] = Fraction(1)
        data[(n + 1, n)] = Fraction(1)
        conj = MatrixElement(size, data)
        return g, Involution(conj, is_inner=False), list(g.eps_probes[:n])
    if kind == "sp_down_gl":
        n = spec.get("n")
        if n < 2:
            raise ValueError("sp_down_gl requires n >= 2")
        g = build_classical(ClassicalType("C", n))
        conj = MatrixElement.diagonal([1] * n + [-1] * n)
        return g, Involution(conj, is_inner=True), list(g.eps_probes)
    # group case
    factor = build_classical(_group_type(spec))
    g = _doubled_realization(factor)
    m = factor.matrix_dim
    data = {}
    for i in range(m):
        data[(i, m + i)] = Fraction(1)
        data[(m + i, i)] = Fraction(1)
    conj = MatrixElement(2 * m, data)
    probes = [
        _block_embed(p, 2 * m, 0) + _block_embed(p, 2 * m, m)
        for p in factor.eps_probes
    ]
    return g, Involution(conj, is_inner=False), probes


def build_pair(spec: PairSpec) -> SymmetricPair:
    """Construct a catalog symmetric pair with all derived subspaces."""
    check_cap("ambient rank", _ambient_rank(spec), PAIR_RANK_CAP)
    g, tau, probes = _conjugator_and_probes(spec)
    cartan_space = span_of_matrices(g.cartan_basis, g.matrix_dim)
    # the projections below are the eigenspaces only on tau-stable spaces
    for space, name in ((g.algebra, "algebra"), (cartan_space, "Cartan")):
        for b in space.matrices():
            if not space.contains_matrix(tau(b)):
                raise AssertionError("conjugator does not preserve the %s" % name)
    fixed = _eigen_subspace(tau, g.algebra, 1)
    minus = _eigen_subspace(tau, g.algebra, -1)
    if fixed.dim + minus.dim != g.dim:
        raise AssertionError("tau eigenspaces do not exhaust the algebra")
    return SymmetricPair(
        spec=spec,
        g=g,
        tau=tau,
        fixed=fixed,
        minus=minus,
        j_tau_basis=_eigen_subspace(tau, cartan_space, 1).matrices(),
        j_tau_probes=probes,
    )


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
