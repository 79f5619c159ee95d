"""A warm branch, verify or census run builds no matrix, no subspace and no
Weyl group element.

Cartan elements are eps-parameters and the engine's tau-splits and
restrictions are read from the pair's root table, which `build_pair` fills
from root data (a cold run builds no matrix either: `tests/test_cold_run.py`).
So the same run again constructs no `MatrixElement` and no `Subspace`
(census closedness is arithmetic on restricted roots).  The census walks the Weyl
orbit of t0 and applies its generators by reflection formulas on
eps-parameters, so it constructs no `WeylElement`, and it restricts no
weight to j^tau.
"""

import pytest

from vermabranch import (
    MatrixElement,
    PairSpec,
    Subspace,
    SymmetricPair,
    VermaSpec,
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
    spec = VermaSpec.generic(p) if lam is None else VermaSpec.of(p, lam)
    table = branch_multiplicities(spec, pair, 2)
    assert verify_character_identity(spec, pair, 2)
    census = closed_orbit_census(pair, subset)
    return table.entries, [(d, gk) for d, _, gk in census.representatives]


@pytest.mark.parametrize("pair_id, subset, lam", CASES, ids=[c[0] for c in CASES])
def test_warm_run_builds_no_matrix(monkeypatch, pair_id, subset, lam):
    pair = build_pair(PairSpec.parse(pair_id))
    cold = _run(pair, subset, lam)
    counted = {
        "matrices": (MatrixElement, "__init__"),
        "subspaces": (Subspace, "__init__"),
        "intersections": (Subspace, "intersect"),
        "weyl_elements": (WeylElement, "__init__"),
    }
    counts = dict.fromkeys(counted, 0)

    def counting(name, method):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return method(*args, **kwargs)

        return wrapper

    for name, (cls, attr) in counted.items():
        monkeypatch.setattr(cls, attr, counting(name, getattr(cls, attr)))
    assert _run(pair, subset, lam) == cold
    assert counts == dict.fromkeys(counted, 0)
    # census closedness reads restrictions from the pair's root table
    restrictions = counting("restrictions", SymmetricPair.restrict_weight)
    counts["restrictions"] = 0
    monkeypatch.setattr(SymmetricPair, "restrict_weight", restrictions)
    closed_orbit_census(pair, subset)
    assert counts["restrictions"] == 0
