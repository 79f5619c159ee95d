"""Command bodies of the CLI: each fills the envelope payload of one command.

``cli.run_command`` imports this module on a cache miss only.  Engine
modules are imported inside each command, once ``--pair`` and the sizes are
checked, so a rejected size loads no engine module (the caps live in the
package root) and each call reads the engine module's current attribute
(perfbench's tracer rebinds them).  This module never imports
``vermabranch.cli``: under ``python -m vermabranch.cli`` that module is
``__main__``, and a second import would run it again with its own classes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from . import DEGREE_CAP, LEVEL_CAP, MF_SCAN_RANK_CAP, PreconditionError, check_cap

if TYPE_CHECKING:
    from .cli import RunConfig

# closed-form law -> smallest n whose pair exists in the catalog
LAW_MIN_N = {"AA": 1, "BD": 2, "DB": 2}

RATIONAL_DIGIT_CAP = 100  # digits of p and of q in one --lambda or H= entry

# command -> the RunConfig fields it reads besides format and cache_dir
READS = {
    "pairs": ("rank_bound",),
    "analyze": ("pair_id", "parabolic", "seed"),
    "census": ("pair_id", "parabolic"),
    "branch": ("pair_id", "parabolic", "lam", "degree"),
    "verify": ("pair_id", "parabolic", "lam", "level"),
    "verify --law": ("law", "n", "l", "degree"),
    "mf-scan": ("rank_bound",),
}


def _require_pair(config: RunConfig) -> None:
    if not config.pair_id:
        raise PreconditionError("%s needs --pair" % config.command)


def _resolve_pair(pair_id: str):
    from .pairs import PairSpec, build_pair, catalog_pairs

    try:
        spec = PairSpec.parse(pair_id)
        return build_pair(spec)
    except ValueError as exc:
        listing = ", ".join(s.id for s in catalog_pairs(3))
        raise PreconditionError(
            "cannot resolve pair %r (%s); catalog families: %s" % (pair_id, exc, listing)
        ) from exc


def _rational(text: str):
    """The Fraction a --lambda or H= entry spells: a signed integer, decimal
    or p/q in ASCII digits.  An exponent such as 1e5000 is refused, since it
    builds a 5001-digit integer from 6 characters."""
    from fractions import Fraction

    text = text.strip()
    if not set(text) <= set("+-./0123456789"):
        raise ValueError("%r is not an integer, decimal or p/q" % text)
    if any(sum(map(str.isdigit, part)) > RATIONAL_DIGIT_CAP for part in text.split("/")):
        raise ValueError("%r has over %d digits in p or q" % (text, RATIONAL_DIGIT_CAP))
    return Fraction(text)


def _resolve_parabolic(pair, descriptor: str):
    from .liealg import root_datum
    from .parabolic import parabolic_from_params, parabolic_from_simple_subset

    g = pair.g
    datum = root_datum(g)
    nsimple = len(datum.simple_roots)
    text = ("borel" if descriptor is None else descriptor).strip().lower()
    if text == "borel":
        return parabolic_from_simple_subset(g, set())
    if text == "full":
        return parabolic_from_simple_subset(g, set(range(nsimple)))
    if text == "heisenberg":
        if nsimple < 2:
            raise PreconditionError("heisenberg parabolic needs rank >= 2")
        return parabolic_from_simple_subset(g, set(range(1, nsimple - 1)))
    if text == "siegel":
        if g.type is None or g.type.family != "C":
            raise PreconditionError("siegel parabolic requires a symplectic pair")
        return parabolic_from_simple_subset(g, set(range(nsimple - 1)))
    if text.startswith("h="):
        try:
            params = g.cartan_params([_rational(v) for v in text[2:].split(",")])
        except (ValueError, ZeroDivisionError) as exc:
            raise PreconditionError(
                "bad Cartan parameters %r: %s" % (descriptor, exc)
            ) from exc
        return parabolic_from_params(g, params)
    items = text.split(",")
    if any(not v.strip() for v in items):
        raise PreconditionError("empty simple root index in parabolic descriptor %r" % descriptor)
    try:
        indices = [int(v) for v in items]
    except ValueError as exc:
        raise PreconditionError("bad parabolic descriptor %r" % descriptor) from exc
    subset = set(indices)
    if len(subset) != len(indices):
        repeated = next(i for i in indices if indices.count(i) > 1)
        raise PreconditionError(
            "repeated simple root index %d in parabolic descriptor %r" % (repeated, descriptor)
        )
    if not subset <= set(range(nsimple)):
        raise PreconditionError(
            "simple root indices out of range (0..%d)" % (nsimple - 1)
        )
    return parabolic_from_simple_subset(g, subset)


def _resolve_lambda(pair, parabolic, text: str):
    from .branching import VermaSpec

    text = text.strip()
    if text.lower() == "generic":
        return VermaSpec.generic(parabolic)
    try:
        coords = [_rational(v) for v in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise PreconditionError("bad lambda %r" % text) from exc
    if len(coords) != pair.g.eps_dim:
        raise PreconditionError(
            "lambda needs %d coordinates for this pair" % pair.g.eps_dim
        )
    try:
        return VermaSpec.of(parabolic, coords)
    except ValueError as exc:
        raise PreconditionError(str(exc)) from exc


def _table_json(table):
    return [
        {
            "delta_displacement": list(e.delta_displacement),
            "multiplicity": e.multiplicity,
            "degree": e.first_degree,
        }
        for e in table.entries
    ]


def _cmd_pairs(config: RunConfig, payload: dict):
    check_cap("rank bound", config.rank_bound, MF_SCAN_RANK_CAP)
    from .pairs import catalog_pairs

    payload["catalog"] = [s.id for s in catalog_pairs(config.rank_bound)]
    payload["result"] = "%d catalog pairs" % len(payload["catalog"])


def _cmd_analyze(config: RunConfig, payload: dict):
    _require_pair(config)
    from .parabolic import closedness_report, compatibility_report, condition_iii_spot_check

    pair = _resolve_pair(config.pair_id)
    p = _resolve_parabolic(pair, config.parabolic)
    comp = compatibility_report(p, pair)
    rep = closedness_report(p, pair)
    payload["compatible"] = comp.compatible
    payload["closed"] = rep.closed
    payload["gk_dim"] = rep.gk_dim
    payload["nilpotency"] = {  # pr_tau(u) is a nilpotent subalgebra iff p is closed
        "bracket_closed": rep.closed,
        "nilpotent": rep.closed,
        "lcs_length": rep.lcs_length,
    }
    payload["spot_check_iii"] = condition_iii_spot_check(p, pair, seed=config.seed)
    payload["result"] = "closed" if rep.closed else "not closed"


def _cmd_census(config: RunConfig, payload: dict):
    _require_pair(config)
    from .parabolic import closed_orbit_census

    pair = _resolve_pair(config.pair_id)
    p = _resolve_parabolic(pair, config.parabolic)
    # standard type of p: the zero labels of the dominant conjugate of its H
    _, labels, _ = p.datum.to_dominant(p.params, p.datum.labels(p.params))
    report = closed_orbit_census(pair, frozenset(i for i, x in enumerate(labels) if not x))
    payload["census"] = {
        "total_parabolics_containing_j": report.total_parabolics_containing_j,
        "closed_count": report.closed_count,
        "representatives": [
            {"descriptor": d, "gk_dim": gk} for d, _, gk in report.representatives
        ],
    }
    payload["closed"] = report.closed_count > 0
    payload["result"] = "%d closed classes" % report.closed_count


def _cmd_branch(config: RunConfig, payload: dict):
    _require_pair(config)
    check_cap("degree", config.degree, DEGREE_CAP)
    from .branching import branch_multiplicities, genericity_check
    from .parabolic import IncompatibleRestrictionError, closedness_report

    pair = _resolve_pair(config.pair_id)
    p = _resolve_parabolic(pair, config.parabolic)
    spec = _resolve_lambda(pair, p, config.lam)
    try:
        table = branch_multiplicities(spec, pair, config.degree)
    except IncompatibleRestrictionError:
        payload["compatible"] = False
        raise
    payload["compatible"] = True
    rep = closedness_report(p, pair)
    payload["closed"] = rep.closed
    payload["gk_dim"] = rep.gk_dim
    payload["summands"] = _table_json(table)
    payload["base_offset"] = None if table.base_offset is None else [str(c) for c in table.base_offset]
    payload["assumptions"] = list(table.genericity_assumptions)
    if spec.lam is not None:
        gen = genericity_check(spec, pair, table)
        payload["simple_certified"] = gen.simple_certified
        payload["distinct_infchar"] = gen.distinct_infchar
    payload["result"] = "%d summands up to degree %d" % (len(table), config.degree)


def _cmd_verify(config: RunConfig, payload: dict):
    if config.law is not None:
        n = config.n
        if n is None:
            raise PreconditionError("verify --law needs --n")
        family = config.law.upper()
        if n < LAW_MIN_N.get(family, n + 1):
            known = ", ".join("%s with --n >= %d" % kv for kv in LAW_MIN_N.items())
            raise PreconditionError("verify --law takes %s" % known)
        if family != "AA" and config.l is not None:  # l parametrizes law AA only
            raise PreconditionError("--l applies to law AA only, not %s" % family)
        params = {"n": n}
        if family == "AA":
            params["l"] = config.l if config.l is not None else 1
            if not 1 <= params["l"] <= n + 1:
                raise PreconditionError("law AA needs 1 <= --l <= n+1 = %d" % (n + 1))
        check_cap("degree", config.degree, DEGREE_CAP)
        from .branching import branch_multiplicities, closed_form_law, law_setting

        pair, spec = law_setting(config.law, params)
        engine = branch_multiplicities(spec, pair, config.degree)
        law = closed_form_law(config.law, params, config.degree)
        ok = engine.as_dict() == law.as_dict() and engine.degrees() == law.degrees()
        payload["law"] = family
        payload["result"] = "identity holds" if ok else "MISMATCH"
        payload["closed"] = ok
        if not ok:
            raise AssertionError("closed-form law disagrees with the engine")
        payload["assumptions"] = list(law.genericity_assumptions)
        return
    _require_pair(config)
    check_cap("level", config.level, LEVEL_CAP)
    from .branching import verify_character_identity

    pair = _resolve_pair(config.pair_id)
    p = _resolve_parabolic(pair, config.parabolic)
    spec = _resolve_lambda(pair, p, config.lam)
    ok = verify_character_identity(spec, pair, config.level)
    payload["closed"] = ok
    payload["result"] = "identity holds" if ok else "MISMATCH"
    if not ok:
        raise AssertionError("character identity failed")


def _cmd_mf_scan(config: RunConfig, payload: dict):
    check_cap("rank bound", config.rank_bound, MF_SCAN_RANK_CAP)
    from .branching import mf_scan

    rows = mf_scan(config.rank_bound, include_failing=True)
    payload["scan"] = [
        {
            "pair": r.spec_id,
            "dim_g": r.dim_g,
            "dim_fixed": r.dim_fixed,
            "rank_g": r.rank_g,
            "rank_fixed": r.rank_fixed,
            "passes": r.passes,
        }
        for r in rows
        if r.passes
    ]
    payload["scan_failing"] = [r.spec_id for r in rows if not r.passes]
    payload["result"] = "%d passing pairs" % len(payload["scan"])


DISPATCH = {
    "pairs": _cmd_pairs,
    "analyze": _cmd_analyze,
    "census": _cmd_census,
    "branch": _cmd_branch,
    "verify": _cmd_verify,
    "mf-scan": _cmd_mf_scan,
}
