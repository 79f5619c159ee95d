"""A cold census, branch or verify run builds no matrix; a cold analyze run
decomposes g once.

A pair is built from its root data, and the restricted roots of
(g^tau, j^tau) come from its root table, so a cold census, branch or
verify run never builds the matrix realization (`realization`) and never
calls `weight_decomposition`.  `analyze` alone builds it, for its spot
check of condition (iii): it splits g into root spaces once and builds
neither eigenspace g^{+-tau} of the whole algebra.
"""

import pytest

from vermabranch import exactla, pairs, realization
from vermabranch.cli import config_from_args, run_command

CASES = [
    "census --pair so_down_so:m=7 --parabolic borel",
    "census --pair group_case:type=B2 --parabolic 0",
    "branch --pair sp_down_gl:n=3 --parabolic siegel --degree 2",
    "branch --pair sl_s_glgl:p=2,q=3 --parabolic 1,2 --lambda 1,0,0,0,-1 --degree 2",
    "verify --pair so_down_so:m=8 --parabolic borel --level 2",
    "analyze --pair so_down_so:m=5 --parabolic 1",
]


@pytest.mark.parametrize("job", CASES)
def test_cold_run_builds_matrices_only_for_analyze(monkeypatch, job):
    monkeypatch.delenv("VERMABRANCH_CACHE_DIR", raising=False)
    built, decomposed, eigenspaces = [], [], []

    def recording(log, function):
        def wrapper(*args):
            log.append(args)
            return function(*args)

        return wrapper

    monkeypatch.setattr(
        exactla, "weight_decomposition", recording(decomposed, exactla.weight_decomposition)
    )
    monkeypatch.setattr(
        realization.PairRealization,
        "eigenspace",
        recording(eigenspaces, realization.PairRealization.eigenspace),
    )
    build = pairs.build_pair
    monkeypatch.setattr(pairs, "build_pair", lambda spec: built.append(build(spec)) or built[-1])
    env, code = run_command(config_from_args(job.split()))
    assert code == 0, env.payload
    (pair,) = built
    if not job.startswith("analyze"):
        assert decomposed == []
        assert "matrices" not in vars(pair) and "matrices" not in vars(pair.g)
        return
    g = pair.g.matrices
    assert [space for _, space in decomposed] == [g.algebra]
    assert not any(space is g.algebra for _, space, _ in eigenspaces)
    assert "fixed" not in vars(pair.matrices) and "minus" not in vars(pair.matrices)
