"""Command-line front end: flags, reproducible runs, the result cache and
JSON or text serialization.

Exit codes: 0 success, 2 precondition violation (unknown or missing
``--pair``, invalid parabolic, incompatible triple, rank caps) or unwritable
output, 1 internal error.  Rationals are serialized as "p/q" strings, never
floats, and identical configurations produce byte-identical JSON.  The
command bodies live in ``commands``, imported on a cache miss only, and they
import the engine modules they run; a cache hit or an argument the parser
rejects loads neither.  The parser reads flags from one table built from
``RunConfig``'s fields, with argparse's grammar and messages but without
importing it.  Cache keys hash with the interpreter's own SHA-256,
so no process loads OpenSSL (``_hashlib``) or ``glob``; ``random`` loads only
in ``analyze`` and through ``tempfile`` when a cache entry is written.  A
process runs ``run``, which skips interpreter teardown with ``os._exit``
once ``main`` has flushed the envelope; ``main`` only returns its code, but
``-h`` prints the flags and raises ``SystemExit(0)``, as argparse did.
"""

from __future__ import annotations

import functools
import json
import os
import re  # loaded with json
import sys
from typing import NamedTuple, Optional

from . import PreconditionError, __version__ as ENGINE_VERSION

SCHEMA_VERSION = "vb-schema-1"
CACHE_ENV_VAR = "VERMABRANCH_CACHE_DIR"

COMMANDS = ("pairs", "analyze", "census", "branch", "verify", "mf-scan")


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
        from .commands import DISPATCH, READS  # a cache hit compiles no command body

        law = config.command == "verify" and config.law is not None  # else verify reads the pair
        reads = READS["verify --law" if law else config.command] + ("format", "cache_dir")
        unread = [_NAMES[f] for f, v in RunConfig._field_defaults.items()
                  if f not in reads and getattr(config, f) != v]
        if unread:  # a flag the command ignores would only split the cache key
            raise PreconditionError("%s does not read %s" % (config.command, ", ".join(unread)))
        DISPATCH[config.command](config, payload)
    except Exception as exc:  # internal error contract, unless a precondition
        if isinstance(exc, PreconditionError):  # RankCapError, IncompatibleRestrictionError too
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


# flag -> RunConfig field, in argparse's order: the one table behind the
# parser, the --config keys and the -h listing
_FLAGS = {"-h": "help", "--help": "help", **{
    "--" + {"pair_id": "pair", "lam": "lambda"}.get(f, f).replace("_", "-"): f
    for f in RunConfig._fields[1:]}, "--config": "config_file"}
_NAMES = {field: flag for flag, field in _FLAGS.items()}
_INTS = {"degree", "level", "n", "l", "rank_bound", "seed"}
_CHOICES = {"command": COMMANDS, "format": ("text", "json")}
_USAGE = "usage: vermabranch {%s} [--flag VALUE | --flag=VALUE]...\nflags: %s\n" % (
    ",".join(COMMANDS), " ".join(_FLAGS))


def _option(arg: str, flags: dict):
    """(field, attached value or None) of a flag, its "=" form, a unique
    prefix of a -- flag or a one-letter flag with text attached; (None, None)
    of an unknown flag; None of a value."""
    if arg[:1] != "-" or arg == "-":
        return None
    name, eq, value = arg.partition("=")
    if name in flags or arg[1] == "-":
        matches = [name] if name in flags else [f for f in flags if f.startswith(name)]
        value = value if eq else None
    else:
        matches, value = [f for f in flags if f == arg[:2]], arg[2:]
    if len(matches) > 1:
        raise PreconditionError("ambiguous option: %s could match %s" % (arg, ", ".join(matches)))
    if matches:
        return flags[matches[0]], value
    return None if re.match(r"-\d+$|-\d*\.\d+$", arg) or " " in arg else (None, None)


def _convert(field: str, text: str):
    """A value under its field's int type or choices."""
    name, choices = _NAMES.get(field, field), _CHOICES.get(field, (text,))
    if field in _INTS:
        try:
            return int(text)
        except ValueError:
            raise PreconditionError("argument %s: invalid int value: %r" % (name, text)) from None
    if text not in choices:
        raise PreconditionError("argument %s: invalid choice: %r (choose from %s)"
                                % (name, text, ", ".join(map(repr, choices))))
    return text


def _parse(argv, flags=_FLAGS, strict=True) -> dict:
    """The fields argv gives, read as argparse reads them: the first value is
    the command, every argument after "--" is a value, a flag takes its
    attached value or the next argument, and the last of a repeated flag
    wins.  Read leniently, unknown flags and extra values pass unchecked."""
    end = argv.index("--") if "--" in argv else len(argv)
    kinds = [_option(arg, flags) for arg in argv[:end]] + ["--"] + [None] * len(argv)
    given, extras, i = {}, [], 0
    while i < len(argv):
        kind, arg, i = kinds[i], argv[i], i + 1
        if kind == "--" and "command" not in given and i < len(argv):
            kind, arg, i = None, argv[i], i + 1
        if kind is None and "command" not in given:
            given["command"] = _convert("command", arg) if strict else arg
            i += kinds[i] == "--"
        elif kind is None or kind == "--" or kind[0] is None:
            extras.append(arg)
        elif kind[0] == "help":
            if kind[1] is not None:
                raise PreconditionError("argument -h/--help: ignored explicit argument %r" % kind[1])
            raise SystemExit(_write_out(_USAGE, 0))
        else:
            field, value = kind
            if value is None:
                if kinds[i] is not None:
                    raise PreconditionError("argument %s: expected one argument" % _NAMES[field])
                value, i = argv[i], i + 1
            given[field] = _convert(field, value) if strict else value
    if strict and ("command" not in given or extras):
        raise PreconditionError("unrecognized arguments: %s" % " ".join(extras) if "command" in given
                                else "the following arguments are required: command")
    return given


def config_from_args(argv) -> RunConfig:
    """Flags win over `--config` file values, which win over the defaults."""
    given = _parse(argv)
    path = given.pop("config_file", None)
    if path:
        defaults = _read_config_file(path)
        for key in defaults:  # the command is positional only
            if key not in RunConfig._fields[1:]:
                raise PreconditionError("unknown config key %r (keys: %s)"
                                        % (key, ", ".join(RunConfig._fields[1:])))
        for key, choices in _CHOICES.items():
            if defaults.get(key, choices[0]) not in choices:
                raise PreconditionError("config %s must be one of %s" % (key, ", ".join(choices)))
        # string values pass through the same checks as the flags
        given = {**{k: _convert(k, defaults[k]) for k in RunConfig._fields
                    if k in defaults and k not in given}, **given}
    return RunConfig(**given)


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
    try:
        known = _parse(argv, {"--format": "format"}, strict=False)
    except PreconditionError:  # a --format without its value
        known = {}
    if known.get("format") != "json":
        print("error: %s" % exc, file=sys.stderr)
        return 2
    payload = {"schema": SCHEMA_VERSION, "engine": ENGINE_VERSION, "command": known.get("command"),
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
