import contextlib
import io
import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.oracles import (
    absolute,
    ambient_restricted_roots,
    finiteness_bound,
    schmid_decomposition,
    strongly_orthogonal_sequence,
    term_by_term_expand,
)
from vermabranch import (
    BranchingTable,
    IncompatibleRestrictionError,
    MatrixElement,
    VermaSpec,
    Weight,
    branch_multiplicities,
    closed_form_law,
    decompose_character,
    freudenthal_character,
    genericity_check,
    law_setting,
    mf_scan,
    parabolic_from_H,
    parabolic_from_simple_subset,
    restrict_finite_module,
    verify_character_identity,
)
from vermabranch import branching
from vermabranch.branching import (
    BranchEntry,
    _engine_context,
    _graded_characters,
    _inv_euler_expand,
    _levi_prime_datum,
    sym_power_characters,
)
from vermabranch.liealg import root_datum


def W(*coords):
    return Weight(coords)


# ---------------------------------------------------------------------------
# symmetric powers
# ---------------------------------------------------------------------------

def brute_force_sym_power(weights, k):
    """Oracle: enumerate degree-k monomials in an explicit basis."""
    expanded = []
    for w, m in weights.items():
        expanded.extend([w] * m)
    zero = (0,) * len(next(iter(weights)))
    out = {}
    for combo in itertools.combinations_with_replacement(range(len(expanded)), k):
        total = zero
        for i in combo:
            total = tuple(a + b for a, b in zip(total, expanded[i]))
        out[total] = out.get(total, 0) + 1
    return out


def test_sym_power_two_lines():
    result = sym_power_characters({(-1, 0): 1, (0, -1): 1}, 2)[2]
    assert result == {(-2, 0): 1, (-1, -1): 1, (0, -2): 1}


def test_sym_power_single_weight():
    layers = sym_power_characters({(2, 1): 1}, 3)
    assert layers == [{(2 * k, k): 1} for k in range(4)]


def test_sym_power_siegel_example():
    weights = {(-2, 0): 1, (-1, -1): 1, (0, -2): 1}
    result = sym_power_characters(weights, 2)[2]
    assert result == brute_force_sym_power(weights, 2)
    assert len(result) == 5 and result[(-2, -2)] == 2


def test_sym_power_with_multiplicities_matches_brute_force():
    rng = random.Random(11)
    for _ in range(6):
        weights = {}
        for _ in range(3):
            w = (rng.randint(-2, 2), rng.randint(-2, 2))
            weights[w] = weights.get(w, 0) + rng.randint(1, 2)
        layers = sym_power_characters(weights, 3)
        assert layers == [brute_force_sym_power(weights, k) for k in range(4)]


small_weights = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)), st.integers(1, 3), min_size=1, max_size=4
)


@settings(max_examples=40, deadline=None)
@given(small_weights)
def test_sym_power_layers_match_brute_force(weights):
    layers = sym_power_characters(weights, 6)
    assert layers == [brute_force_sym_power(weights, k) for k in range(7)]


def test_sym_power_of_no_weights_is_empty():
    assert sym_power_characters({}, 3) == [{}, {}, {}, {}]
    assert sym_power_characters({(1, 0): 0}, 2) == [{}, {}, {}]


def grade_of(vec):
    """A level functional: the dot product with an integer vector."""
    return lambda d: sum(x * y for x, y in zip(vec, d))


def at_level(g, y):
    """The integer tuple of level g under `grade_of((1, 3))` whose second
    coordinate is y."""
    return (g - 3 * y, y)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_inv_euler_expand_matches_term_by_term(data):
    # weights of grades 1..5 and start terms at levels 0..cap, caps up to 12
    cap = data.draw(st.integers(0, 12))
    weights = data.draw(st.dictionaries(
        st.builds(at_level, st.integers(1, 5), st.integers(-1, 1)), st.integers(1, 3), max_size=4
    ))
    start = data.draw(st.dictionaries(
        st.builds(at_level, st.integers(0, cap), st.integers(-2, 2)), st.integers(1, 4), max_size=4
    ))
    level = grade_of((1, 3))
    expected = term_by_term_expand(start, weights, level, cap)
    assert _inv_euler_expand(start, weights, level, cap) == expected


def test_inv_euler_expand_rejects_a_weight_of_grade_zero():
    with pytest.raises(AssertionError, match="u_- weight with non-positive level"):
        _inv_euler_expand({(0, 0): 1}, {(1, -1): 1}, grade_of((1, 1)), 4)


@pytest.mark.parametrize("start", [{(-1, 0): 1}, {(5, 0): 1}, {(0, 0): 1, (3, 2): 2}])
def test_inv_euler_expand_rejects_a_start_term_outside_the_cap(start):
    # level 4 is the cap: -1 and 5 lie outside 0..4
    with pytest.raises(AssertionError, match="start term at level -?[0-9]+ outside 0..4"):
        _inv_euler_expand(start, {(1, 0): 1}, grade_of((1, 1)), 4)


# ---------------------------------------------------------------------------
# restriction of the Levi module
# ---------------------------------------------------------------------------

def test_restrict_borel_case_single_weight(pairs):
    pair = pairs("so_down_so", m=4)
    borel = parabolic_from_simple_subset(pair.g, set())
    lam = W(Fraction(1, 2), Fraction(1, 3))
    spec = VermaSpec.of(borel, lam)
    out = restrict_finite_module(pair, borel.levi_datum(), lam)
    assert out == {(0, 0): 1}  # displacements from lambda restricted to j'


def test_restrict_scalar_heisenberg(pairs):
    # scalar type: the Levi module is one-dimensional
    pair = pairs("sl_s_glgl", p=2, q=2)
    heis = parabolic_from_simple_subset(pair.g, {1})
    spec = VermaSpec.of(heis, W(0, 0, 0, 0))
    assert spec.scalar_type
    out = restrict_finite_module(pair, heis.levi_datum(), W(0, 0, 0, 0))
    assert out == {(0, 0, 0, 0): 1}


def test_restrict_siegel_levi_regular_weight(pairs):
    pair = pairs("sp_down_gl", n=2)
    siegel = parabolic_from_simple_subset(pair.g, {0})
    lam = W(2, -1)  # <lam, (e1-e2)^> = 3: a four-dimensional gl2 module
    out = restrict_finite_module(pair, siegel.levi_datum(), lam)
    assert sum(out.values()) == 4
    assert set(out) == {(0, 0), (-1, 1), (-2, 2), (-3, 3)}
    assert set(absolute(out, pair.restrict_weight(lam))) == {W(2, -1), W(1, 0), W(0, 1), W(-1, 2)}


def test_restrict_rejects_non_dominant(pairs):
    pair = pairs("sp_down_gl", n=2)
    siegel = parabolic_from_simple_subset(pair.g, {0})
    with pytest.raises(ValueError):
        restrict_finite_module(pair, siegel.levi_datum(), W(-1, 2))


# ---------------------------------------------------------------------------
# character peeling
# ---------------------------------------------------------------------------

def test_decompose_torus_character(pairs):
    pair = pairs("so_down_so", m=4)
    borel = parabolic_from_simple_subset(pair.g, set())
    torus = _levi_prime_datum(borel, pair)
    char = {(1, 0): 2, (0, -1): 1}
    assert sorted(decompose_character(char, torus)) == [((0, -1), 1), ((1, 0), 2)]


def test_decompose_a1_adjoint_plus_trivial(algebras):
    datum = root_datum(algebras("A", 1))
    char = {(1, -1): 1, (0, 0): 2, (-1, 1): 1}
    out = decompose_character(char, datum)
    assert out == [((1, -1), 1), ((0, 0), 1)]
    # the same character shifted by a central base weight
    base = W(Fraction(1, 3), Fraction(1, 3))
    assert decompose_character(char, datum, base) == out


def test_decompose_siegel_sym_square(pairs):
    # Sym^2(Sym^2 C^2) = Sym^4 + det^2: highest weights (-2,-2) and (0,-4)
    pair = pairs("sp_down_gl", n=2)
    siegel = parabolic_from_simple_subset(pair.g, {0})
    ldatum = _levi_prime_datum(siegel, pair)
    char = sym_power_characters({(-2, 0): 1, (-1, -1): 1, (0, -2): 1}, 2)[2]
    out = decompose_character(char, ldatum)
    assert sorted(out) == [((-2, -2), 1), ((0, -4), 1)]


def test_decompose_roundtrip_random_characters(algebras):
    datum = root_datum(algebras("A", 2))
    rng = random.Random(20260810)
    dominants = [W(2, 0, -2), W(1, 0, -1), W(1, 1, -2), W(0, 0, 0), W(2, 1, -3)]
    for _ in range(5):
        combo = {}
        for lam in rng.sample(dominants, 3):
            m = rng.randint(0, 2)
            if m:
                combo[lam] = m
        char = {}
        for lam, mult in combo.items():
            for w, m in absolute(freudenthal_character(datum, lam), lam).items():
                char[w.coords] = char.get(w.coords, 0) + mult * m
        out = dict(decompose_character(char, datum))
        assert out == {lam.coords: m for lam, m in combo.items()}


def test_decompose_rejects_non_module_character(algebras):
    datum = root_datum(algebras("A", 1))
    reflected = "multiplicity at .* not W-invariant"
    with pytest.raises(ValueError, match=reflected):
        decompose_character({(1, -1): 1}, datum)  # missing the rest of F
    with pytest.raises(ValueError, match=reflected):
        # m = 1 at (1, -1) and 0 at (0, 0), but (-1, 1) is missing
        decompose_character({(1, -1): 1, (0, 0): 1}, datum)
    with pytest.raises(ValueError, match="negative multiplicity -1 at"):
        decompose_character({(1, -1): 2, (0, 0): 1, (-1, 1): 2}, datum)
    with pytest.raises(ValueError, match=reflected):
        # no dominant weight in the support
        decompose_character({(-1, 1): 1}, datum)
    with pytest.raises(ValueError, match=reflected):
        # m = 1 at (1, -1), 0 at (0, 0), and 3 = 3 in dimension, but (-2, 2)
        # is not the reflection of (1, -1)
        decompose_character({(1, -1): 1, (0, 0): 1, (-2, 2): 1}, datum)
    with pytest.raises(ValueError, match="not integral"):
        decompose_character({(0, 0): 1}, datum, W(Fraction(1, 4), Fraction(-1, 4)))


def test_decompose_dimension_check_catches_an_inconsistent_datum(algebras):
    # a W-invariant character with every m_mu >= 0 has the right dimension,
    # so only a fault in the peel or its datum reaches this check: here a
    # datum of A2 that leaves its highest root out of the positive roots
    datum = root_datum(algebras("A", 2))
    lam = W(1, 0, -1)
    adjoint = {w.coords: m for w, m in absolute(freudenthal_character(datum, lam), lam).items()}
    assert decompose_character(adjoint, datum) == [((1, 0, -1), 1)]
    partial = SimpleNamespace(
        positive_roots=datum.simple_roots, simple_roots=datum.simple_roots, rho=datum.rho,
        to_dominant=datum.to_dominant,
    )
    with pytest.raises(ValueError, match="dimension 4 for a character of dimension 8"):
        decompose_character(adjoint, partial)


def test_decompose_above_weyl_rank_six(algebras):
    # V (x) V = S^2 V + Lambda^2 V for the natural module V of gl_8, peeled
    # over the A7 datum (|W| = 8!)
    datum = root_datum(algebras("A", 7))
    units = [tuple(int(i == j) for j in range(8)) for i in range(8)]
    char = {}
    for u, v in itertools.product(units, units):
        key = tuple(x + y for x, y in zip(u, v))
        char[key] = char.get(key, 0) + 1
    assert sorted(decompose_character(char, datum)) == [
        ((1, 1, 0, 0, 0, 0, 0, 0), 1), ((2, 0, 0, 0, 0, 0, 0, 0), 1)
    ]


# ---------------------------------------------------------------------------
# peel oracles: they take absolute Weight characters and subtract Freudenthal
# characters of the constituents they find
# ---------------------------------------------------------------------------

def sweep_peel(char, datum):
    """One sweep down the support, sorted once by `regular_order_key`.  The
    other weights of V_mu lie strictly below mu, so a residual is final when
    the sweep reaches it; a nonzero one is a multiplicity, and that module's
    character is subtracted."""
    from vermabranch.liealg import regular_order_key

    work = {w: m for w, m in char.items() if m}
    out = []
    for mu in sorted(work, key=regular_order_key, reverse=True):
        mult = work.get(mu, 0)
        if not mult:
            continue
        if mult < 0 or not datum.is_dominant_integral(mu):
            raise ValueError("not a module character at %r" % (mu,))
        for w, m in absolute(freudenthal_character(datum, mu), mu).items():
            c = work.get(w, 0) - mult * m
            if c:
                work[w] = c
            else:
                del work[w]
        out.append((mu, mult))
    if work:
        raise ValueError("residual left off the swept support at %d weights" % len(work))
    return out


def greedy_peel(char, datum):
    """Peel by repeatedly taking the maximal remaining weight for
    `regular_order_key` and subtracting its Freudenthal character."""
    from vermabranch.liealg import regular_order_key

    work = {w: m for w, m in char.items() if m}
    out = []
    while work:
        mu = max(work, key=regular_order_key)
        mult = work[mu]
        if mult < 0 or not datum.is_dominant_integral(mu):
            raise ValueError("not a module character at %r" % (mu,))
        for w, m in absolute(freudenthal_character(datum, mu), mu).items():
            c = work.get(w, 0) - mult * m
            if c:
                work[w] = c
            else:
                work.pop(w, None)
        out.append((mu, mult))
    out.sort(key=lambda t: regular_order_key(t[0]), reverse=True)
    return out


def _peeled_characters(monkeypatch, argv):
    """Run one CLI job in process and record every character the engine
    peels, with the exit code."""
    from vermabranch.cli import main

    seen = []
    peel = branching.decompose_character

    def spy(char, datum, base=None):
        out = peel(char, datum, base)
        seen.append((dict(char), datum, base, out))
        return out

    monkeypatch.delenv("VERMABRANCH_CACHE_DIR", raising=False)
    monkeypatch.setattr(branching, "decompose_character", spy)
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv.split() + ["--format", "json"])
    return code, seen


def _peel_jobs():
    """The branch and verify jobs of the golden corpus, after three branch
    jobs at degree 4 (one character per degree), one with a rational
    central lambda."""
    from tests.test_golden import JOBS

    return list(dict.fromkeys([
        "branch --pair sp_down_gl:n=3 --parabolic siegel --degree 4",
        "branch --pair sl_s_glgl:p=2,q=3 --parabolic 1,2 --lambda 1,0,0,0,-1 --degree 4",
        "branch --pair sl_s_glgl:p=2,q=3 --parabolic 1,2 "
        "--lambda 1/3,4/3,1/3,-2/3,-4/3 --degree 4",
    ] + [j for j in JOBS if j.split()[0] in ("branch", "verify")]))


@pytest.mark.parametrize("argv", _peel_jobs())
def test_sweep_peel_matches_greedy_oracle(monkeypatch, argv):
    """The engine's Weyl-denominator peel, the sweep oracle and the greedy
    oracle agree on every character the job peels."""
    from tests.test_golden import INDEX, _load

    code, seen = _peeled_characters(monkeypatch, argv)
    assert code == _load(INDEX).get(argv, 0)
    assert bool(seen) == (code == 0)
    if "--degree 4" in argv:
        assert len(seen) == 5  # one character per degree 0..4
    for char, datum, base, out in seen:
        whole = absolute(char, base)
        expected = dict(sweep_peel(whole, datum))
        assert dict(greedy_peel(whole, datum)) == expected
        assert absolute(dict(out), base) == expected
        assert len(out) == len(expected) and all(m > 0 for _, m in out)


@pytest.mark.parametrize("argv, calls", [
    ("branch --pair sp_down_gl:n=3 --parabolic siegel --degree 6", 0),
    ("branch --pair sp_down_gl:n=3 --parabolic siegel --lambda 2,1,0 --degree 6", 1),
])
def test_branch_runs_freudenthal_only_for_the_levi_module(monkeypatch, argv, calls):
    from vermabranch import liealg

    counted = []
    real = liealg.freudenthal_character

    def counting(datum, lam):
        counted.append(lam)
        return real(datum, lam)

    monkeypatch.setattr(liealg, "freudenthal_character", counting)
    monkeypatch.setattr(branching, "freudenthal_character", counting)
    code, seen = _peeled_characters(monkeypatch, argv)
    assert code == 0 and len(seen) == 7
    assert len(counted) == calls


def test_verify_builds_fewer_weights_than_freudenthal_returns(monkeypatch):
    """`Weight`s are built only at the edges: a cold `verify` builds fewer
    of them than its Freudenthal characters hold weights."""
    from vermabranch import liealg

    counts = {"weights": 0, "returned": 0}
    init, real = Weight.__init__, liealg.freudenthal_character

    def counting_init(self, coords):
        counts["weights"] += 1
        init(self, coords)

    def counting(datum, lam):
        out = real(datum, lam)
        counts["returned"] += len(out)
        return out

    monkeypatch.setattr(Weight, "__init__", counting_init)
    monkeypatch.setattr(liealg, "freudenthal_character", counting)
    monkeypatch.setattr(branching, "freudenthal_character", counting)
    code, _ = _peeled_characters(monkeypatch, "verify --pair sp_down_gl:n=3 --parabolic siegel --level 6")
    assert code == 0 and counts["returned"] > 0
    assert counts["weights"] < counts["returned"]



@pytest.mark.parametrize("argv, runs, entries", [
    ("verify --pair sl_s_glgl:p=2,q=3 --parabolic 1,2 --lambda 1,0,0,0,-1 --level 6", 7, 50),
    ("verify --pair sp_down_gl:n=3 --parabolic siegel --level 6", 16, 23),
])
def test_verify_runs_freudenthal_once_per_label_vector(monkeypatch, argv, runs, entries):
    """The verify loop runs Freudenthal once per label vector of its entries'
    highest weights, and each entry's own character, computed afresh, is the
    one reused."""
    names = ("_engine_context", "_branching_table", "freudenthal_character")
    real, seen = {n: getattr(branching, n) for n in names}, {n: [] for n in names}

    def spy(name):
        def call(*args):
            seen[name].append((args, real[name](*args)))
            return seen[name][-1][1]
        return call

    for name in names:
        monkeypatch.setattr(branching, name, spy(name))
    code, _ = _peeled_characters(monkeypatch, argv)
    [(_, ctx)], [(_, table)] = seen["_engine_context"], seen["_branching_table"]
    datum = ctx.l_prime_datum
    made = [(lam, char) for (d, lam), char in seen["freudenthal_character"] if d is datum]
    reused = {tuple(datum.labels(lam.coords)): char for lam, char in made}
    assert code == 0 and len(reused) == len(made) == runs
    checked = 0
    for delta, _, _ in table.entries:
        lam = (Weight.zero(len(delta)) if ctx.base is None else ctx.base) + Weight(delta)
        char = reused.get(tuple(datum.labels(lam.coords)))
        if char is not None:
            assert real["freudenthal_character"](datum, lam) == char
            checked += 1
    assert checked >= entries  # the entries within the level: one run each before


# ---------------------------------------------------------------------------
# branching tables
# ---------------------------------------------------------------------------

def test_branch_gl2_down_tori(pairs):
    pair, spec = law_setting("AA", {"n": 1, "l": 1})
    table = branch_multiplicities(spec, pair, 3)
    assert table.as_dict() == {
        (0, 0): 1, (-1, 1): 1, (-2, 2): 1, (-3, 3): 1,
    }
    assert table.degrees() == {(0, 0): 0, (-1, 1): 1, (-2, 2): 2, (-3, 3): 3}


def test_branch_so5_down_so4(pairs):
    pair, spec = law_setting("BD", {"n": 2})
    table = branch_multiplicities(spec, pair, 2)
    assert table.is_multiplicity_free()
    assert set(table.as_dict()) == {
        (0, 0), (-1, 0), (0, -1), (-2, 0), (-1, -1), (0, -2),
    }


def test_branch_heisenberg_scalar_multiplicity_free(pairs):
    pair = pairs("sl_s_glgl", p=2, q=2)
    heis = parabolic_from_simple_subset(pair.g, {1})
    table = branch_multiplicities(VermaSpec.generic(heis), pair, 2)
    assert table.is_multiplicity_free()


def test_branch_incompatible_raises(pairs):
    pair = pairs("group_case", type="A1")
    twisted = parabolic_from_H(pair.g, MatrixElement.diagonal([1, -1, -1, 1]))
    with pytest.raises(IncompatibleRestrictionError):
        branch_multiplicities(VermaSpec.generic(twisted), pair, 1)


def test_engine_checks_that_u_minus_splits(pairs, monkeypatch):
    # a parabolic that is not tau-stable, passed off as compatible
    pair = pairs("group_case", type="A1")
    twisted = parabolic_from_H(pair.g, MatrixElement.diagonal([1, -1, -1, 1]))
    monkeypatch.setattr(
        branching, "compatibility_report",
        lambda p, pair: SimpleNamespace(compatible=True, fixed_params=None),
    )
    with pytest.raises(AssertionError, match="u_- failed to split"):
        branching._engine_context(VermaSpec.generic(twisted), pair)


def test_branch_group_case_kostant_multiplicities(pairs, algebras):
    # tensor of two A2 Vermas: m(lambda - beta) = Kostant partition of beta
    from tests.test_liealg import kostant_partition

    pair = pairs("group_case", type="A2")
    borel = parabolic_from_simple_subset(pair.g, set())
    table = branch_multiplicities(VermaSpec.generic(borel), pair, 3)
    datum = root_datum(algebras("A", 2))
    memo = {}
    for entry in table.entries:
        disp = Weight(entry.delta_displacement)
        expected = kostant_partition(datum, -disp, memo)
        if entry.first_degree + 3 <= 3 or True:
            # entries deep in the table may still be accumulating; compare
            # only those whose finiteness bound is inside the horizon
            bound = finiteness_bound(
                VermaSpec.generic(borel), pair, entry.delta_displacement
            )
            if bound is not None and bound <= 3:
                assert entry.multiplicity == expected


def test_graded_characters_degree_zero_is_levi_block(pairs):
    pair = pairs("sp_down_gl", n=2)
    siegel = parabolic_from_simple_subset(pair.g, {0})
    lam = W(2, -1)
    ctx = _engine_context(VermaSpec.of(siegel, lam), pair)
    assert ctx.base == pair.restrict_weight(lam)
    assert dict(_graded_characters(ctx, 2))[0] == restrict_finite_module(pair, siegel.levi_datum(), lam)


def test_graded_characters_displacements_are_weight_sums(pairs):
    pair, spec = law_setting("BD", {"n": 2})
    for deg, char in _graded_characters(_engine_context(spec, pair), 2):
        for disp, mult in char.items():
            assert mult > 0
            total = sum(-c for c in disp)
            assert total == deg  # each u'' weight lowers one coordinate by one


# ---------------------------------------------------------------------------
# character identity
# ---------------------------------------------------------------------------

def test_verify_identity_gl2(pairs):
    pair, spec = law_setting("AA", {"n": 1, "l": 1})
    assert verify_character_identity(spec, pair, 4)


def test_verify_identity_so5(pairs):
    pair, spec = law_setting("BD", {"n": 2})
    assert verify_character_identity(spec, pair, 3)


def test_verify_identity_detects_corruption(pairs):
    pair, spec = law_setting("BD", {"n": 2})
    table = branch_multiplicities(spec, pair, 2)
    corrupted = BranchingTable(
        base_offset=table.base_offset,
        entries=tuple(
            BranchEntry(e.delta_displacement, e.multiplicity + (i == 0), e.first_degree)
            for i, e in enumerate(table.entries)
        ),
        degree_bound=table.degree_bound,
        genericity_assumptions=table.genericity_assumptions,
    )
    assert not verify_character_identity(spec, pair, 2, table=corrupted)


def test_verify_identity_numeric_lambda(pairs):
    pair = pairs("sp_down_gl", n=2)
    siegel = parabolic_from_simple_subset(pair.g, {0})
    spec = VermaSpec.of(siegel, W(2, -1))
    assert verify_character_identity(spec, pair, 3)


# ---------------------------------------------------------------------------
# strongly orthogonal sequences and Schmid decomposition
# ---------------------------------------------------------------------------

def test_strongly_orthogonal_siegel(pairs):
    pair = pairs("sp_down_gl", n=2)
    seq = strongly_orthogonal_sequence(
        [W(-2, 0), W(-1, -1), W(0, -2)], ambient_restricted_roots(pair)
    )
    assert seq == [W(0, -2), W(-2, 0)]


def test_strongly_orthogonal_single_weight(pairs):
    pair = pairs("sp_down_gl", n=2)
    assert strongly_orthogonal_sequence([W(-1, -1)], ambient_restricted_roots(pair)) == [
        W(-1, -1)
    ]


def test_strongly_orthogonal_sl4_split_rank(pairs):
    from tests.matrix_route import u_minus_space
    from vermabranch import tau_split, weight_decomposition

    pair = pairs("sl_s_glgl", p=2, q=2)
    p22 = parabolic_from_simple_subset(pair.g, {0, 2})
    minus = tau_split(pair, u_minus_space(p22)).minus
    weights = [Weight(w) for w, _ in weight_decomposition(pair.matrices.j_tau_probes, minus)]
    seq = strongly_orthogonal_sequence(weights, ambient_restricted_roots(pair))
    assert len(seq) == 2  # min(p, q)


def test_strongly_orthogonal_greedy_is_maximal_each_step(pairs):
    # brute-force check of the greedy choice against all candidates
    from vermabranch.liealg import regular_order_key

    pair = pairs("sp_down_gl", n=3)
    roots = ambient_restricted_roots(pair)
    weights = [W(-2, 0, 0), W(0, -2, 0), W(0, 0, -2),
               W(-1, -1, 0), W(-1, 0, -1), W(0, -1, -1)]
    seq = strongly_orthogonal_sequence(weights, roots)
    chosen = []
    for nu in seq:
        candidates = [
            w for w in weights
            if w not in chosen
            and all((w + p) not in roots and (w - p) not in roots for p in chosen)
        ]
        assert nu == max(candidates, key=regular_order_key)
        chosen.append(nu)


def test_schmid_siegel_support(pairs):
    pair = pairs("sp_down_gl", n=2)
    siegel = parabolic_from_simple_subset(pair.g, {0})
    rep = schmid_decomposition(pair, siegel, 2)
    assert rep.multiplicity_free
    assert {tuple(w): d for w, d in rep.support.items()} == {
        (0, 0): 0,
        (0, -2): 1,
        (0, -4): 2,
        (-2, -2): 2,
    }


def test_schmid_sl4_22_parabolic(pairs):
    pair = pairs("sl_s_glgl", p=2, q=2)
    p22 = parabolic_from_simple_subset(pair.g, {0, 2})
    rep = schmid_decomposition(pair, p22, 2)
    assert rep.multiplicity_free and len(rep.sequence) == 2


def test_schmid_degree_zero(pairs):
    pair = pairs("sp_down_gl", n=2)
    siegel = parabolic_from_simple_subset(pair.g, {0})
    rep = schmid_decomposition(pair, siegel, 0)
    assert list(rep.support) == [W(0, 0)]


def test_schmid_rejects_non_abelian_nilradical(pairs):
    pair = pairs("sl_s_glgl", p=2, q=2)
    heis = parabolic_from_simple_subset(pair.g, {1})
    with pytest.raises(ValueError):
        schmid_decomposition(pair, heis, 2)


# ---------------------------------------------------------------------------
# closed-form laws
# ---------------------------------------------------------------------------

def test_closed_form_aa_small():
    table = closed_form_law("AA", {"n": 1, "l": 1}, 2)
    assert table.as_dict() == {(0, 0): 1, (-1, 1): 1, (-2, 2): 1}


def test_closed_form_bd_small():
    table = closed_form_law("BD", {"n": 2}, 1)
    assert set(table.as_dict()) == {(0, 0), (-1, 0), (0, -1)}


def test_closed_form_db_small():
    table = closed_form_law("DB", {"n": 2}, 1)
    assert set(table.as_dict()) == {(0, 0), (-1, 0), (0, -1)}


def test_boxed_tuples_match_product_and_filter():
    for length in range(5):
        for cap in range(7):
            oracle = [
                t for t in itertools.product(range(cap + 1), repeat=length) if sum(t) <= cap
            ]
            assert sorted(branching._boxed_tuples(length, cap)) == oracle


def test_closed_form_all_multiplicity_one():
    for fam, params in [("AA", {"n": 2, "l": 2}), ("BD", {"n": 3}), ("DB", {"n": 2})]:
        assert closed_form_law(fam, params, 3).is_multiplicity_free()


def test_law_oracle_equivalence_small(pairs):
    for fam, params in [
        ("AA", {"n": 2, "l": 1}),
        ("AA", {"n": 2, "l": 2}),
        ("BD", {"n": 2}),
        ("DB", {"n": 2}),
    ]:
        pair, spec = law_setting(fam, params)
        engine = branch_multiplicities(spec, pair, 3)
        law = closed_form_law(fam, params, 3)
        assert engine.as_dict() == law.as_dict()
        assert engine.degrees() == law.degrees()


# ---------------------------------------------------------------------------
# genericity and scans
# ---------------------------------------------------------------------------

def test_genericity_simple_certificate(algebras):
    g = algebras("A", 1)
    borel = parabolic_from_simple_subset(g, set())
    good = VermaSpec.of(borel, W(Fraction(-1, 4), Fraction(1, 4)))
    assert genericity_check(good).simple_certified is True
    zero = VermaSpec.of(borel, W(0, 0))
    assert genericity_check(zero).simple_certified is False


def test_genericity_distinct_infchar_bd(pairs):
    pair, _ = law_setting("BD", {"n": 2})
    borel = parabolic_from_simple_subset(pair.g, set())
    spec = VermaSpec.of(borel, W(Fraction(1, 2), Fraction(1, 3)))
    table = branch_multiplicities(spec, pair, 2)
    rep = genericity_check(spec, pair, table)
    assert rep.distinct_infchar is True


def test_genericity_collision_detected(pairs):
    # lambda = 0: delta + rho' = (1,0) and (-1,0) lie on one W(D2)-orbit
    pair, _ = law_setting("BD", {"n": 2})
    borel = parabolic_from_simple_subset(pair.g, set())
    spec = VermaSpec.of(borel, W(0, 0))
    table = branch_multiplicities(spec, pair, 2)
    rep = genericity_check(spec, pair, table)
    assert rep.distinct_infchar is False


def test_mf_scan_examples():
    rows = {r.spec_id: r for r in mf_scan(4, include_failing=True)}
    assert rows["gl_down_gl:l=1,n=2"].passes  # (sl3, gl2): 8 - 4 <= 2 + 2
    assert rows["so_down_so:m=4"].passes      # (so5, so4): 10 - 6 <= 2 + 2
    r = rows["sl_s_glgl:p=2,q=2"]
    assert not r.passes and r.dim_g - r.dim_fixed == 8  # 8 > 3 + 3


def test_mf_scan_passing_families_only():
    for row in mf_scan(5):
        kind = row.spec_id.split(":")[0]
        if kind == "sl_s_glgl":
            params = dict(kv.split("=") for kv in row.spec_id.split(":")[1].split(","))
            assert min(int(params["p"]), int(params["q"])) == 1
        else:
            assert kind in ("gl_down_gl", "so_down_so")


# ---------------------------------------------------------------------------
# finiteness and the scalar-type corollary
# ---------------------------------------------------------------------------

def test_finiteness_bound_and_stability(pairs):
    pair, spec = law_setting("BD", {"n": 2})
    small = branch_multiplicities(spec, pair, 2)
    large = branch_multiplicities(spec, pair, 4)
    for disp, mult in small.as_dict().items():
        bound = finiteness_bound(spec, pair, disp)
        assert type(bound) is int
        if bound <= 2:
            assert large.as_dict()[disp] == mult


def test_scalar_type_matches_schmid_support(pairs):
    # Corollary: scalar lambda with multiplicity-free u'' gives exactly the
    # strongly-orthogonal support, all multiplicities one
    pair = pairs("sp_down_gl", n=2)
    siegel = parabolic_from_simple_subset(pair.g, {0})
    table = branch_multiplicities(VermaSpec.generic(siegel), pair, 3)
    schmid = schmid_decomposition(pair, siegel, 3)
    assert table.is_multiplicity_free()
    assert set(table.as_dict()) == {w.int_coords() for w in schmid.support}
    assert table.degrees() == {
        w.int_coords(): d for w, d in schmid.support.items()
    }
