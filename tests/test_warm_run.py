"""A warm branch, verify or census run builds no matrix and no Weyl group
element.

After set-up, Cartan elements are eps-parameters and the engine's tau-splits
are counted from the pair's root tables, which a first (cold) run fills.  So
the same run again constructs no `MatrixElement` and intersects no
subspaces.  The census walks the Weyl orbit of t0 and applies its generators
by reflection formulas on eps-parameters, so it constructs no `WeylElement`.
"""

import pytest

from vermabranch import (
    MatrixElement,
    PairSpec,
    Subspace,
    VermaSpec,
    Weight,
    WeylElement,
    branch_multiplicities,
    build_pair,
    closed_orbit_census,
    parabolic_from_simple_subset,
    verify_character_identity,
)

# (pair, standard parabolic, numeric lambda or None for generic)
CASES = [
    ("sp_down_gl:n=3", {0, 1}, None),  # siegel
    ("so_down_so:m=7", set(), None),
    ("so_down_so:m=8", set(), None),
    ("group_case:type=B2", set(), None),
    ("sl_s_glgl:p=2,q=3", {1, 2}, (1, 0, 0, 0, -1)),
]


def _run(pair, subset, lam):
    p = parabolic_from_simple_subset(pair.g, subset)
    spec = VermaSpec.generic(p) if lam is None else VermaSpec.of(p, Weight(lam))
    table = branch_multiplicities(spec, pair, 2)
    assert verify_character_identity(spec, pair, 2)
    census = closed_orbit_census(pair, subset)
    return table.entries, [(d, gk) for d, _, gk in census.representatives]


@pytest.mark.parametrize("pair_id, subset, lam", CASES, ids=[c[0] for c in CASES])
def test_warm_run_builds_no_matrix(monkeypatch, pair_id, subset, lam):
    pair = build_pair(PairSpec.parse(pair_id))
    cold = _run(pair, subset, lam)
    counts = {"matrices": 0, "intersections": 0, "weyl_elements": 0}
    init, intersect, weyl_init = MatrixElement.__init__, Subspace.intersect, WeylElement.__init__

    def counting_init(self, *args, **kwargs):
        counts["matrices"] += 1
        init(self, *args, **kwargs)

    def counting_weyl_init(self, *args, **kwargs):
        counts["weyl_elements"] += 1
        weyl_init(self, *args, **kwargs)

    def counting_intersect(self, other):
        counts["intersections"] += 1
        return intersect(self, other)

    monkeypatch.setattr(MatrixElement, "__init__", counting_init)
    monkeypatch.setattr(Subspace, "intersect", counting_intersect)
    monkeypatch.setattr(WeylElement, "__init__", counting_weyl_init)
    assert _run(pair, subset, lam) == cold
    assert counts == {"matrices": 0, "intersections": 0, "weyl_elements": 0}
