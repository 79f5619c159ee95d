"""Command-line front end: flags, reproducible runs, the result cache and
JSON or text serialization.

Exit codes: 0 success, 2 precondition violation (unknown or missing
``--pair``, invalid parabolic, incompatible triple, rank caps) or unwritable
output, 1 internal error.  Rationals are serialized as "p/q" strings, never
floats, and identical configurations produce byte-identical JSON.  The
command bodies live in ``commands``, imported on a cache miss only, and they
import the engine modules they run; a cache hit or an argument the parser
rejects loads neither.  Cache keys hash with the interpreter's own SHA-256,
so no process loads OpenSSL (``_hashlib``) or ``glob``; ``random`` loads only
in ``analyze`` and through ``tempfile`` when a cache entry is written.  A
process runs ``run``, which skips interpreter teardown with ``os._exit``
once ``main`` has flushed the envelope; ``main`` only returns its code.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import NamedTuple, Optional

from . import PreconditionError, __version__ as ENGINE_VERSION

SCHEMA_VERSION = "vb-schema-1"
CACHE_ENV_VAR = "VERMABRANCH_CACHE_DIR"

COMMANDS = ("pairs", "analyze", "census", "branch", "verify", "mf-scan")


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
        text = "%s|%s|%s" % (SCHEMA_VERSION, engine_digest(), self.canonical_encoding())
        return _sha256(text.encode("utf-8")).hexdigest()


def _sha256(data: bytes = b""):
    """A SHA-256 hash from the interpreter's own module (``_sha2`` from 3.12,
    ``_sha256`` before), or from ``hashlib``, which loads OpenSSL, in a build
    that has neither."""
    for name in ("_sha2", "_sha256"):
        try:
            return __import__(name).sha256(data)
        except ImportError:
            pass
    import hashlib

    return hashlib.sha256(data)


@functools.lru_cache(maxsize=None)
def engine_digest() -> str:
    """sha256 of the package's *.py sources (names and bytes, in name order;
    hidden files left out), once per process: any engine change moves every
    cache key."""
    here = os.path.dirname(__file__)
    h = _sha256()
    for name in sorted(n for n in os.listdir(here) if n.endswith(".py") and not n.startswith(".")):
        with open(os.path.join(here, name), "rb") as fh:
            h.update(name.encode("utf-8") + b"\0" + fh.read() + b"\0")
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


def run_command(config: RunConfig):
    """Execute a config; returns (envelope, exit_code)."""
    payload = _base_payload(config)
    try:
        cached = cache_lookup(config)
        if cached is not None:
            return cached, 0
        from .commands import DISPATCH  # a cache hit compiles no command body

        DISPATCH[config.command](config, payload)
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
        _warn("corrupt cache entry %s ignored: %s", path, exc)
        return None
    if env.payload.get("engine") != ENGINE_VERSION or env.payload.get("schema") != SCHEMA_VERSION:
        return None
    return env


def cache_store(config: RunConfig, env: ResultEnvelope) -> None:
    """Write the entry atomically.  A directory that cannot hold it (a regular
    file, a path under one, a parent that is gone, a NUL byte from a config
    file) only warns: the computed envelope is still printed."""
    root = _cache_dir(config)
    if not root:
        return
    import tempfile

    path = os.path.join(root, config.cache_key() + ".json")
    data = serialize_envelope(env, "json")
    tmp = None
    try:
        os.makedirs(root, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=root, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except (OSError, ValueError) as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        _warn("cannot store cache entry %s: %s", path, exc)


def _warn(message: str, *args) -> None:
    import logging  # only a faulty cache logs

    logging.getLogger("vermabranch").warning(message, *args)


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
    return _write_out(serialize_envelope(env, config.format), code)


def _write_out(text: str, code: int) -> int:
    """Write and flush text on stdout, or exit 2: a lost envelope never exits 0."""
    try:
        if sys.stdout is None:
            raise OSError("stdout is closed")
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        try:
            sys.stderr.write("error: cannot write output: %s\n" % exc)
        except (AttributeError, OSError):  # a closed or failing stderr
            pass
        return 2
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
    return _write_out(serialize_envelope(ResultEnvelope(payload=payload)), 2)


def run() -> None:
    """Entry point of a CLI process: ``main``, then ``os._exit``.  Under a
    profiler or tracer, which reports at exit, the process exits normally."""
    code = main()
    monitoring = getattr(sys, "monitoring", None)  # where 3.12+ profilers hook in
    if sys.getprofile() or sys.gettrace() or monitoring and any(map(monitoring.get_tool, range(6))):
        sys.exit(code)
    try:
        sys.stderr.flush()
    except (AttributeError, OSError):  # a closed or failing stderr
        pass
    os._exit(code)


if __name__ == "__main__":
    run()
