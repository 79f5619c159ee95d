"""Root-level Cartan parameters and tau-splits against the matrix route."""

import itertools

import pytest

from tests.matrix_route import (
    cartan_matrix,
    fixed_matrix,
    level_params,
    levi_prime_roots,
    u_minus_split,
)
from vermabranch import (
    VermaSpec,
    compatibility_report,
    parabolic_from_H,
    parabolic_from_simple_subset,
)
from vermabranch.branching import _engine_context, _levi_prime_datum, _u_minus_split
from vermabranch.liealg import root_datum
from vermabranch.pairs import catalog_pairs


def _standard_parabolics(pair):
    nsimple = len(root_datum(pair.g).simple_roots)
    for r in range(nsimple + 1):
        for subset in itertools.combinations(range(nsimple), r):
            yield subset, parabolic_from_simple_subset(pair.g, set(subset))


@pytest.mark.parametrize("spec", catalog_pairs(4), ids=str)
def test_root_level_split_matches_matrix_route(pairs, spec):
    pair = pairs(spec.kind, **dict(spec.params))
    for subset, p in _standard_parabolics(pair):
        where = (spec.id, subset)
        h_fixed = fixed_matrix(pair, p)
        assert pair.fixed_params(p.params) == pair.g.matrices.eps_params(h_fixed), where
        assert parabolic_from_H(pair.g, cartan_matrix(pair.g, p.params)) == p, where
        assert set(_levi_prime_datum(p, pair).roots) == levi_prime_roots(pair, p), where
        plus, minus, splits = u_minus_split(pair, p)
        comp = compatibility_report(p, pair)
        assert comp.compatible == splits, where
        if not comp.compatible:
            with pytest.raises(AssertionError, match="u_- failed to split"):
                _u_minus_split(p, pair)
            continue
        assert comp.fixed_params == pair.g.matrices.eps_params(h_fixed), where
        ctx = _engine_context(VermaSpec.generic(p), pair)
        assert (ctx.u_prime_weights, ctx.u_second_weights) == (plus, minus), where
        scaled = tuple(-ctx.level_scale * c for c in level_params(pair, p))
        assert ctx.level_vec == scaled, where


def test_tau_on_parameters_moves_an_outer_cartan(pairs):
    # so_down_so:m=5 is outer: tau negates the last eps-parameter
    pair = pairs("so_down_so", m=5)
    t = (3, 2, 1)
    assert pair.fixed_params(t) == (3, 2, 0)
    assert pair.jtau_params(pair.fixed_params(t)) == (3, 2)
