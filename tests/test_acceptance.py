"""Acceptance criteria, one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS lines; all
checks are exact (rational arithmetic, no tolerances).
"""

import itertools
import random

from tests.matrix_route import matrix_levi_split
from tests.oracles import (
    absolute,
    acts_trivially_on_j,
    finiteness_bound,
    schmid_decomposition,
    weyl_dimension,
)
from vermabranch import (
    BranchingTable,
    MatrixElement,
    VermaSpec,
    Weight,
    branch_multiplicities,
    bracket,
    closed_form_law,
    closed_orbit_census,
    closedness_report,
    compatibility_report,
    condition_iii_spot_check,
    decompose_character,
    freudenthal_character,
    law_setting,
    mf_scan,
    parabolic_from_simple_subset,
    verify_character_identity,
)
from vermabranch.branching import BranchEntry
from vermabranch.liealg import root_datum
from vermabranch.pairs import catalog_pairs
from vermabranch.parabolic import enumerate_weyl_translates


class _Criterion:
    def __init__(self, number, text):
        self.number = number
        self.text = text

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print("ACCEPTANCE %2d %s: %s" % (self.number, verdict, self.text))
        return False


def _standard_subsets(pair):
    nsimple = len(root_datum(pair.g).simple_roots)
    for r in range(nsimple + 1):
        for subset in itertools.combinations(range(nsimple), r):
            yield set(subset)


def test_criterion_1_borel_census_sl4(pairs):
    with _Criterion(1, "closed-orbit census, Borel, (sl4, s(gl2+gl2)) = 6"):
        pair = pairs("sl_s_glgl", p=2, q=2)
        report = closed_orbit_census(pair, set())
        assert report.closed_count == 6


def test_criterion_2_heisenberg_census(pairs):
    with _Criterion(2, "Heisenberg census (p,q) in {(2,2),(2,3)}: 4 classes, gk dims"):
        for p, q in [(2, 2), (2, 3)]:
            pair = pairs("sl_s_glgl", p=p, q=q)
            nsimple = p + q - 1
            report = closed_orbit_census(pair, set(range(1, nsimple - 1)))
            assert report.closed_count == 4
            expected = sorted([2 * p - 3, p + q - 2, p + q - 2, 2 * q - 3])
            assert sorted(r[2] for r in report.representatives) == expected


def test_criterion_3_siegel_census(pairs):
    with _Criterion(3, "Siegel census (sp_n, gl_n), n in {2,3,4}: n+1 classes, gk j(n-j)"):
        for n in [2, 3, 4]:
            pair = pairs("sp_down_gl", n=n)
            report = closed_orbit_census(pair, set(range(n - 1)))
            assert report.closed_count == n + 1
            expected = sorted(j * (n - j) for j in range(n + 1))
            assert sorted(r[2] for r in report.representatives) == expected


def test_criterion_4_borel_census_counts(pairs):
    with _Criterion(4, "Borel censuses: gl chain n+1; so odd/even 2 and 1"):
        for n in [1, 2, 3]:
            pair = pairs("gl_down_gl", n=n, l=1)
            assert closed_orbit_census(pair, set()).closed_count == n + 1
        # the count does not depend on the embedding slot
        assert closed_orbit_census(pairs("gl_down_gl", n=2, l=2), set()).closed_count == 3
        for n in [2, 3]:
            pair = pairs("so_down_so", m=2 * n)
            assert closed_orbit_census(pair, set()).closed_count == 2
        pair = pairs("so_down_so", m=5)
        assert closed_orbit_census(pair, set()).closed_count == 1


def test_criterion_5_law_oracles(pairs):
    with _Criterion(5, "branch_multiplicities == closed_form_law (AA, BD, DB; N = 4)"):
        cases = []
        for n in [1, 2, 3]:
            for l in range(1, n + 2):
                cases.append(("AA", {"n": n, "l": l}))
        cases += [("BD", {"n": 2}), ("BD", {"n": 3}), ("DB", {"n": 2})]
        for fam, params in cases:
            pair, spec = law_setting(fam, params)
            engine = branch_multiplicities(spec, pair, 4)
            law = closed_form_law(fam, params, 4)
            assert engine.as_dict() == law.as_dict(), (fam, params)
            assert engine.degrees() == law.degrees(), (fam, params)
            assert engine.is_multiplicity_free()


def test_criterion_6_character_identity(pairs):
    with _Criterion(6, "character identity at L = 4 on every compatible rank<=4 triple"):
        checked = 0
        for spec_id in catalog_pairs(4):
            pair = pairs(spec_id.kind, **dict(spec_id.params))
            for subset in _standard_subsets(pair):
                p = parabolic_from_simple_subset(pair.g, subset)
                if not compatibility_report(p, pair).compatible:
                    continue
                vspec = VermaSpec.generic(p)
                assert verify_character_identity(vspec, pair, 4), (spec_id.id, subset)
                checked += 1
        assert checked >= 100
        # falsifiability control: a one-entry mutation must be detected
        pair, spec = law_setting("BD", {"n": 2})
        table = branch_multiplicities(spec, pair, 4)
        corrupted = BranchingTable(
            base_offset=table.base_offset,
            entries=tuple(
                BranchEntry(e.delta_displacement, e.multiplicity + (i == 0), e.first_degree)
                for i, e in enumerate(table.entries)
            ),
            degree_bound=table.degree_bound,
            genericity_assumptions=table.genericity_assumptions,
        )
        assert not verify_character_identity(spec, pair, 4, table=corrupted)


def _census_components(pair, by_pattern, params_of):
    """Partition all Weyl translates into census-group orbits."""
    from vermabranch.parabolic import _census_generators

    datum = root_datum(pair.g)
    actions = _census_generators(pair)
    parent = {key: key for key in by_pattern}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for key in by_pattern:
        for t in params_of[key]:
            for act in actions:
                key2 = datum.sign_masks(act(t))
                if key2 in parent:
                    ra, rb = find(key), find(key2)
                    if ra != rb:
                        parent[ra] = rb
    components = {}
    for key in by_pattern:
        components.setdefault(find(key), []).append(key)
    return list(components.values())


def test_criterion_7_criterion_equivalence(pairs):
    with _Criterion(7, "condition (ii) == randomized (iii); Borel closed == tau-stable"):
        for spec_id in catalog_pairs(4):
            pair = pairs(spec_id.kind, **dict(spec_id.params))
            group_case = spec_id.kind == "group_case"
            inner = acts_trivially_on_j(pair)
            rank4 = len(root_datum(pair.g).simple_roots) >= 4
            for subset in _standard_subsets(pair):
                by_pattern, params_of = enumerate_weyl_translates(pair, subset)
                if group_case:
                    # the census extension is not group-induced here: check
                    # every translate directly
                    components = [[key] for key in by_pattern]
                else:
                    components = _census_components(pair, by_pattern, params_of)
                if inner and rank4 and subset:
                    # W(g^tau)-translates are honest conjugates under the
                    # fixed subgroup when tau fixes j pointwise, so one
                    # verdict per component suffices at this size
                    verdicts = {
                        comp[0]: closedness_report(by_pattern[comp[0]], pair).closed
                        for comp in components
                    }
                else:
                    verdicts = {
                        key: closedness_report(p, pair).closed
                        for key, p in by_pattern.items()
                    }
                    for component in components:
                        assert len({verdicts[k] for k in component}) == 1, (
                            "closedness is not census-orbit invariant"
                        )
                if not subset:
                    # Borel specialization over every Weyl translate
                    for key, p in by_pattern.items():
                        stable = compatibility_report(p, pair).compatible
                        assert stable == verdicts[key], spec_id.id
                for component in components:
                    rep_key = component[0]
                    spot = condition_iii_spot_check(
                        by_pattern[rep_key], pair, samples=20
                    )
                    assert spot == verdicts[rep_key], (spec_id.id, subset)


def test_criterion_8_levi_decomposition(pairs):
    with _Criterion(8, "dim(p cap g^tau) = dim l^tau + dim pr_tau(u); gk = dim pr_tau(u)"):
        for spec_id in catalog_pairs(3):
            pair = pairs(spec_id.kind, **dict(spec_id.params))
            for subset in _standard_subsets(pair):
                by_pattern, _ = enumerate_weyl_translates(pair, subset)
                for p in by_pattern.values():
                    rep = closedness_report(p, pair)
                    if not rep.closed:
                        continue
                    pr, l_tau, p_tau = matrix_levi_split(pair, p)
                    assert p_tau.dim == l_tau.dim + pr.dim
                    assert rep.gk_dim == pair.matrices.fixed.dim - p_tau.dim == pr.dim


def test_criterion_9_mf_scan(pairs):
    with _Criterion(9, "mf-scan rank<=5 passes exactly (sl_{n+1}, gl_n) and (so_{n+1}, so_n)"):
        rows = mf_scan(5, include_failing=True)
        for row in rows:
            kind = row.spec_id.split(":")[0]
            params = dict(
                kv.split("=") for kv in row.spec_id.split(":")[1].split(",")
            )
            if kind == "gl_down_gl" or kind == "so_down_so":
                expected = True
            elif kind == "sl_s_glgl":
                expected = min(int(params["p"]), int(params["q"])) == 1
            else:
                expected = False
            assert row.passes == expected, row


def test_criterion_10_schmid_multiplicity_free(pairs):
    with _Criterion(10, "Schmid decompositions multiplicity one in every degree <= 4"):
        for n in [2, 3]:
            pair = pairs("sp_down_gl", n=n)
            siegel = parabolic_from_simple_subset(pair.g, set(range(n - 1)))
            report = schmid_decomposition(pair, siegel, 4)
            assert report.multiplicity_free
            assert len(report.sequence) == n
        pair = pairs("sl_s_glgl", p=2, q=2)
        p22 = parabolic_from_simple_subset(pair.g, {0, 2})
        report = schmid_decomposition(pair, p22, 4)
        assert report.multiplicity_free
        assert len(report.sequence) == 2


def test_criterion_11_property_suites(pairs, algebras):
    with _Criterion(11, "Jacobi, Weyl-dimension, peel round-trip, finiteness bound"):
        # Jacobi on random triples, exact
        pair = pairs("sp_down_gl", n=2)
        basis = pair.g.matrices.algebra.matrices()
        rng = random.Random(20260810)
        for _ in range(8):
            x, y, z = (
                sum(
                    (b.scale(rng.randint(-2, 2)) for b in rng.sample(basis, 3)),
                    MatrixElement.zero(pair.g.matrices.matrix_dim),
                )
                for _ in range(3)
            )
            total = (
                bracket(x, bracket(y, z))
                + bracket(y, bracket(z, x))
                + bracket(z, bracket(x, y))
            )
            assert total.is_zero()
        # Freudenthal total == Weyl dimension
        datum = root_datum(algebras("B", 3))
        for lam in [Weight((1, 1, 0)), Weight((2, 1, 1)), Weight((1, 0, 0))]:
            ch = freudenthal_character(datum, lam)
            assert sum(ch.values()) == weyl_dimension(datum, lam)
        # decompose_character round trip
        char = {}
        for lam, mult in [(Weight((2, 0, -2)), 2), (Weight((1, 0, -1)), 1)]:
            a2 = root_datum(algebras("A", 2))
            for w, m in absolute(freudenthal_character(a2, lam), lam).items():
                char[w.coords] = char.get(w.coords, 0) + mult * m
        assert dict(decompose_character(char, root_datum(algebras("A", 2)))) == {
            (2, 0, -2): 2,
            (1, 0, -1): 1,
        }
        # finiteness: recomputation at N+2 adds nothing below the bound
        pair, spec = law_setting("BD", {"n": 2})
        small = branch_multiplicities(spec, pair, 4)
        large = branch_multiplicities(spec, pair, 6)
        for disp, mult in small.as_dict().items():
            bound = finiteness_bound(spec, pair, disp)
            assert bound is not None
            if bound <= 4:
                assert large.as_dict()[disp] == mult
