"""A cold census, branch, verify or analyze run decomposes only g.

The first run on a fresh pair splits g into root spaces once
(`root_datum`, the one `weight_decomposition` call).  The restricted roots
of (g^tau, j^tau) come from the pair's root table, one root vector
X_a + tau X_a of g^tau per tau*-orbit, so the run builds neither
eigenspace g^{+-tau} of the whole algebra.
"""

import pytest

from vermabranch import exactla, liealg, pairs
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
def test_cold_run_decomposes_only_g(monkeypatch, job):
    monkeypatch.delenv("VERMABRANCH_CACHE_DIR", raising=False)
    built, decomposed, eigenspaces = [], [], []

    def recording(log, function):
        def wrapper(*args):
            log.append(args)
            return function(*args)

        return wrapper

    for module in (exactla, liealg, pairs):  # every module that binds the name
        if hasattr(module, "weight_decomposition"):
            monkeypatch.setattr(
                module, "weight_decomposition", recording(decomposed, module.weight_decomposition)
            )
    monkeypatch.setattr(pairs, "_eigen_subspace", recording(eigenspaces, pairs._eigen_subspace))
    build = pairs.build_pair
    monkeypatch.setattr(pairs, "build_pair", lambda spec: built.append(build(spec)) or built[-1])
    env, code = run_command(config_from_args(job.split()))
    assert code == 0, env.payload
    (pair,) = built
    assert [space for _, space in decomposed] == [pair.g.algebra]
    assert not any(space is pair.g.algebra for _, space, _ in eigenspaces)
    assert "fixed" not in vars(pair) and "minus" not in vars(pair)
