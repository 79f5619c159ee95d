"""Command-line surface: reproducible runs, JSON serialization and caching.

Exit codes: 0 success, 2 precondition violation (unknown or missing
``--pair``, invalid parabolic, incompatible triple, rank caps), 1 internal
error.  Rationals are serialized as "p/q" strings, never floats, and
identical configurations produce byte-identical JSON.  Engine modules are
imported by the command that runs them, once ``--pair`` and the sizes are
checked; a cache hit or an argument the parser rejects loads none.
``hashlib`` and ``glob`` load only with a cache directory, ``random`` only
in ``analyze`` and through ``tempfile`` when a cache entry is written.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import NamedTuple, Optional

from . import __version__ as ENGINE_VERSION

SCHEMA_VERSION = "vb-schema-1"
CACHE_ENV_VAR = "VERMABRANCH_CACHE_DIR"

COMMANDS = ("pairs", "analyze", "census", "branch", "verify", "mf-scan")

# closed-form law -> smallest n whose pair exists in the catalog
LAW_MIN_N = {"AA": 1, "BD": 2, "DB": 2}


class PreconditionError(ValueError):
    """Configuration problems that map to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """Raises PreconditionError (exit 2) where argparse would exit."""

    def error(self, message):
        raise PreconditionError(message)


class RunConfig(NamedTuple):
    command: str
    pair_id: Optional[str] = None
    parabolic: Optional[str] = None
    lam: str = "generic"
    degree: int = 6
    level: int = 4
    law: Optional[str] = None
    n: Optional[int] = None
    l: Optional[int] = None
    rank_bound: int = 4
    format: str = "text"
    cache_dir: Optional[str] = None
    seed: int = 20260810

    def canonical_encoding(self) -> str:
        skip = {"format", "cache_dir"}
        items = [
            "%s=%s" % (k, v)
            for k, v in sorted(self._asdict().items())
            if k not in skip and v is not None
        ]
        return ";".join(items)

    def cache_key(self) -> str:
        import hashlib  # only a cache directory hashes: OpenSSL stays unloaded

        text = "%s|%s|%s" % (SCHEMA_VERSION, engine_digest(), self.canonical_encoding())
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=None)
def engine_digest() -> str:
    """sha256 of the package's *.py sources (names and bytes), once per process:
    any engine change moves every cache key."""
    import glob
    import hashlib

    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(os.path.dirname(__file__), "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode("utf-8") + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


class ResultEnvelope(NamedTuple):
    payload: dict


def serialize_envelope(env: ResultEnvelope, format: str = "json") -> str:
    if format == "json":
        return json.dumps(env.payload, sort_keys=True, separators=(",", ":")) + "\n"
    if format == "text":
        return _render_text(env.payload)
    raise PreconditionError("unknown format %r" % format)


def parse_envelope(text: str) -> ResultEnvelope:
    return ResultEnvelope(payload=json.loads(text))


def _render_text(payload: dict) -> str:
    lines = ["%s (engine %s)" % (payload.get("command"), payload.get("engine"))]
    for key in ("pair", "parabolic", "compatible", "closed", "gk_dim", "result", "error"):
        if payload.get(key) is not None:
            lines.append("%s: %s" % (key, payload[key]))
    if payload.get("census") is not None:
        c = payload["census"]
        lines.append(
            "census: %d closed classes among %d parabolics containing j"
            % (c["closed_count"], c["total_parabolics_containing_j"])
        )
        for rep in c["representatives"]:
            lines.append("  %s  gk_dim=%d" % (rep["descriptor"], rep["gk_dim"]))
    if payload.get("summands") is not None:
        base = payload.get("base_offset")
        base_txt = "lambda" if base is None else "(%s)" % ", ".join(base)
        lines.append("summands (%d):" % len(payload["summands"]))
        for s in payload["summands"]:
            disp = ", ".join("%+d" % d for d in s["delta_displacement"])
            lines.append(
                "  delta = %s + (%s)   multiplicity %d   degree %d"
                % (base_txt, disp, s["multiplicity"], s["degree"])
            )
    if payload.get("scan") is not None:
        lines.append("multiplicity-free scan (pass):")
        for row in payload["scan"]:
            lines.append("  %s" % row["pair"])
    if payload.get("catalog") is not None:
        lines.append("catalog:")
        for pid in payload["catalog"]:
            lines.append("  %s" % pid)
    for note in payload.get("assumptions") or ():
        lines.append("assuming: %s" % note)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------

def _check_size(name: str, value: int, cap: Optional[int] = None) -> None:
    if cap is not None:
        from .liealg import check_cap

        check_cap(name, value, cap)
    if value < 0:
        raise PreconditionError("%s must be non-negative, got %d" % (name, value))


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


def _resolve_parabolic(pair, descriptor: str):
    from fractions import Fraction

    from .liealg import root_datum
    from .parabolic import parabolic_from_params, parabolic_from_simple_subset

    g = pair.g
    datum = root_datum(g)
    nsimple = len(datum.simple_roots)
    text = (descriptor or "borel").strip().lower()
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
            params = g.cartan_params([Fraction(v) for v in text[2:].split(",")])
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
    from fractions import Fraction

    from .branching import VermaSpec
    from .liealg import Weight

    text = (text or "generic").strip()
    if text.lower() == "generic":
        return VermaSpec.generic(parabolic)
    try:
        coords = [Fraction(v.strip()) for v in text.split(",")]
    except (ValueError, ZeroDivisionError) as exc:
        raise PreconditionError("bad lambda %r" % text) from exc
    if len(coords) != pair.g.eps_dim:
        raise PreconditionError(
            "lambda needs %d coordinates for this pair" % pair.g.eps_dim
        )
    try:
        return VermaSpec.of(parabolic, Weight(coords))
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


# ---------------------------------------------------------------------------
# command dispatch
# ---------------------------------------------------------------------------

def _base_payload(config: RunConfig) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "engine": ENGINE_VERSION,
        "command": config.command,
        "config": config.canonical_encoding(),
        "pair": config.pair_id,
        "parabolic": config.parabolic,
        "closed": None,
        "compatible": None,
        "gk_dim": None,
        "summands": None,
        "assumptions": [],
    }


def _cmd_pairs(config: RunConfig, payload: dict):
    from .liealg import MF_SCAN_RANK_CAP

    _check_size("rank bound", config.rank_bound, MF_SCAN_RANK_CAP)
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
    from .liealg import DEGREE_CAP

    _check_size("degree", config.degree, DEGREE_CAP)
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
    payload["base_offset"] = (
        None
        if table.base_offset is None
        else [str(c) for c in table.base_offset.coords]
    )
    payload["assumptions"] = list(table.genericity_assumptions)
    if spec.lam is not None:
        gen = genericity_check(spec, pair, table)
        payload["simple_certified"] = gen.simple_certified
        payload["distinct_infchar"] = gen.distinct_infchar
    payload["result"] = "%d summands up to degree %d" % (len(table), config.degree)


def _cmd_verify(config: RunConfig, payload: dict):
    if config.law:
        n = config.n
        if n is None:
            raise PreconditionError("verify --law needs --n")
        family = config.law.upper()
        if n < LAW_MIN_N.get(family, n + 1):
            known = ", ".join("%s with --n >= %d" % kv for kv in LAW_MIN_N.items())
            raise PreconditionError("verify --law takes %s" % known)
        params = {"n": n}
        if family == "AA":
            params["l"] = config.l if config.l is not None else 1
            if not 1 <= params["l"] <= n + 1:
                raise PreconditionError("law AA needs 1 <= --l <= n+1 = %d" % (n + 1))
        from .liealg import DEGREE_CAP

        _check_size("degree", config.degree, DEGREE_CAP)
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
    from .liealg import LEVEL_CAP

    _check_size("level", config.level, LEVEL_CAP)
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
    from .liealg import MF_SCAN_RANK_CAP

    _check_size("rank bound", config.rank_bound, MF_SCAN_RANK_CAP)
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


_DISPATCH = {
    "pairs": _cmd_pairs,
    "analyze": _cmd_analyze,
    "census": _cmd_census,
    "branch": _cmd_branch,
    "verify": _cmd_verify,
    "mf-scan": _cmd_mf_scan,
}


def run_command(config: RunConfig):
    """Execute a config; returns (envelope, exit_code)."""
    payload = _base_payload(config)
    try:
        cached = cache_lookup(config)
        if cached is not None:
            return cached, 0
        _DISPATCH[config.command](config, payload)
    except Exception as exc:  # internal error contract, unless a precondition
        if _is_precondition(exc):
            payload["error"] = str(exc)
            payload["result"] = "precondition violation"
            payload["summands"] = None
            return ResultEnvelope(payload=payload), 2
        payload["error"] = "%s: %s" % (type(exc).__name__, exc)
        payload["result"] = "internal error"
        env = ResultEnvelope(payload=payload)
        return env, 1
    env = ResultEnvelope(payload=payload)
    cache_store(config, env)
    return env, 0


def _is_precondition(exc: Exception) -> bool:
    """PreconditionError, or the engine's RankCapError or
    IncompatibleRestrictionError.  Those two are looked up among the loaded
    modules only: the module that raised one is loaded."""
    if isinstance(exc, PreconditionError):
        return True
    for module, name in (("liealg", "RankCapError"), ("parabolic", "IncompatibleRestrictionError")):
        loaded = sys.modules.get("%s.%s" % (__package__, module))
        if loaded is not None and isinstance(exc, getattr(loaded, name)):
            return True
    return False


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

def _cache_dir(config: RunConfig) -> Optional[str]:
    return config.cache_dir or os.environ.get(CACHE_ENV_VAR)


def cache_lookup(config: RunConfig) -> Optional[ResultEnvelope]:
    """Content-addressed lookup; stale versions and corrupt files are misses."""
    root = _cache_dir(config)
    if not root:
        return None
    path = os.path.join(root, config.cache_key() + ".json")
    if not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            env = parse_envelope(fh.read())
    except (OSError, ValueError) as exc:
        import logging  # only this path logs

        logging.getLogger("vermabranch").warning("corrupt cache entry %s ignored: %s", path, exc)
        return None
    if env.payload.get("engine") != ENGINE_VERSION or env.payload.get("schema") != SCHEMA_VERSION:
        return None
    return env


def cache_store(config: RunConfig, env: ResultEnvelope) -> None:
    root = _cache_dir(config)
    if not root:
        return
    import tempfile

    os.makedirs(root, exist_ok=True)
    path = os.path.join(root, config.cache_key() + ".json")
    data = serialize_envelope(env, "json")
    fd, tmp = tempfile.mkstemp(dir=root, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except OSError:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _read_config_file(path: str) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise PreconditionError("bad config line %r" % line)
            out[key.strip().replace("-", "_")] = value.strip()
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="vermabranch",
        description="Discretely decomposable restrictions of generalized "
        "Verma modules to symmetric subalgebras",
    )
    default = RunConfig._field_defaults
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--pair", dest="pair_id")
    parser.add_argument("--parabolic", default=None)
    parser.add_argument("--lambda", dest="lam", default=default["lam"])
    parser.add_argument("--degree", type=int, default=default["degree"])
    parser.add_argument("--level", type=int, default=default["level"])
    parser.add_argument("--law")
    parser.add_argument("--n", type=int)
    parser.add_argument("--l", type=int)
    parser.add_argument("--rank-bound", type=int, default=default["rank_bound"])
    parser.add_argument("--format", choices=("text", "json"), default=default["format"])
    parser.add_argument("--cache-dir")
    parser.add_argument("--seed", type=int, default=default["seed"])
    parser.add_argument("--config", dest="config_file")
    return parser


def config_from_args(argv) -> RunConfig:
    """Flags win over `--config` file values, which win over the defaults."""
    parser = build_parser()
    values = vars(parser.parse_args(argv))
    config_file = values.pop("config_file")
    if config_file:
        defaults = _read_config_file(config_file)
        for key in defaults:
            if key not in values:
                raise PreconditionError("unknown config key %r" % key)
        for key, choices in ((a.dest, a.choices) for a in parser._actions if a.choices):
            if key in defaults and defaults[key] not in choices:  # set_defaults skips this
                raise PreconditionError("config %s must be one of %s" % (key, ", ".join(choices)))
        # string defaults pass through the same type checks as the flags
        parser.set_defaults(**defaults)
        values = vars(parser.parse_args(argv))
        values.pop("config_file")
    return RunConfig(**values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = config_from_args(argv)
    except (ValueError, OSError) as exc:  # a rejected flag or config file
        return _reject_arguments(argv, exc)
    env, code = run_command(config)
    sys.stdout.write(serialize_envelope(env, config.format))
    return code


def _reject_arguments(argv, exc) -> int:
    """Exit 2 for arguments that form no config; the command and format are
    read leniently so that --format json still gets its envelope."""
    lenient = argparse.ArgumentParser(add_help=False)
    lenient.add_argument("command", nargs="?")
    lenient.add_argument("--format")
    known = lenient.parse_known_args(argv)[0]
    if known.format != "json":
        print("error: %s" % exc, file=sys.stderr)
        return 2
    payload = {"schema": SCHEMA_VERSION, "engine": ENGINE_VERSION, "command": known.command,
               "result": "precondition violation", "error": str(exc)}
    sys.stdout.write(serialize_envelope(ResultEnvelope(payload=payload)))
    return 2


if __name__ == "__main__":
    sys.exit(main())
