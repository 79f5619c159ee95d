"""The table-driven flag parser of ``cli`` against the argparse front end it
replaced (``oracles.config_from_args``, ``oracles.main``).

For each argument list, both give the same ``RunConfig``, or both reject it
with the same message, and then ``main`` exits with the same code and
prints the same bytes, in text and in JSON.  The lists are built from the
flag table: exact flags, unique and ambiguous prefixes, ``=`` forms, missing
values, negative numbers, repeated and unknown flags, extra values, ``--``
and ``--config`` files with bad keys or values.  ``-h`` is left out (its
listing is the parser's own), and so is a flag with ``=--`` attached, which
argparse turned into an empty list (exit 1 for ``--format=--``) and the
parser reads as the value ``--``.  Every benchmark job reads the same
``RunConfig`` through both front ends.
"""

import contextlib
import io
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tests import oracles
from vermabranch import cli

FLAGS = [flag for flag, field in cli._FLAGS.items() if field != "help"]
UNKNOWN = ["--frobnicate", "--x", "-x", "--pairs", "---", "-", "-hx", "--=json", "--p=1"]
NAMES = st.one_of(
    st.sampled_from(FLAGS),
    st.builds(lambda f, k: f[:k], st.sampled_from(FLAGS), st.integers(3, 8)),  # prefixes
    st.sampled_from(UNKNOWN),
)
VALUES = st.sampled_from([
    "3", "-3", "0", "12", " 7", "+2", "1_0", "x", "-1.5", "-.5", "1.5", "", "1 2", "-x y",
    "json", "text", "xml", "census", "branch", "so_down_so:m=4", "borel", "AA", "BD",
    "-3/2,1", "1/2,1/3", "generic",
])
ATTACHED = st.builds(lambda n, v: "%s=%s" % (n, v), NAMES, VALUES)
CONFIG_LINES = st.lists(
    st.one_of(
        st.builds(
            "{} = {}".format,
            st.sampled_from(list(cli.RunConfig._fields)
                            + ["pair", "lambda", "config_file", "rank-bound", "cache-dir", "help"]),
            st.sampled_from(["3", "x", "-1", "json", "xml", "census", "nope", "so_down_so:m=4", ""]),
        ),
        st.sampled_from(["# comment", "", "no equals sign"]),
    ),
    max_size=3,
)


@st.composite
def argvs(draw):
    """An argument list and the text of the config file it may name."""
    words = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.integers(0, 5))
        if kind < 2:
            words += [draw(NAMES), draw(VALUES)]  # a flag and a value
        elif kind == 2:
            words.append(draw(ATTACHED))
        elif kind == 3:
            words.append(draw(st.one_of(NAMES, VALUES, st.just("--"))))  # maybe a missing value
        else:
            words += draw(st.sampled_from([["--config", "{cfg}"], ["--conf", "{cfg}"], ["--config={cfg}"]]))
    if draw(st.integers(0, 9)):
        words.insert(draw(st.integers(0, len(words))), draw(st.sampled_from(cli.COMMANDS)))
    return words, "\n".join(draw(CONFIG_LINES)) + "\n"


def _outcome(parse, argv):
    try:
        return parse(argv), None
    except (ValueError, OSError) as exc:
        return None, str(exc)


def _main(main, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's lenient reader exits on a --format without value
            code = exc.code
    return code, out.getvalue().encode("utf-8")


def _check(argv):
    new = _outcome(cli.config_from_args, argv)
    assert new == _outcome(oracles.config_from_args, argv), argv
    if new[0] is None:  # rejected by both: the same exit and bytes
        assert _main(cli.main, argv) == _main(oracles.main, argv), argv
    return new


@settings(
    max_examples=400,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(case=argvs(), json_format=st.booleans())
def test_parser_matches_argparse(tmp_path, monkeypatch, case, json_format):
    monkeypatch.delenv(cli.CACHE_ENV_VAR, raising=False)
    words, config_text = case
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text, encoding="utf-8")
    argv = [w.replace("{cfg}", str(cfg)) for w in words]
    argv += ["--format", "json"] if json_format else []
    if any(w.endswith("=--") for w in argv):
        return
    _check(argv)


@pytest.mark.parametrize(
    "argv, message",
    [
        ("census --la 1", "ambiguous option: --la could match --lambda, --law"),
        ("census --p=x", "ambiguous option: --p=x could match --pair, --parabolic"),
        ("census --deg", "argument --degree: expected one argument"),
        ("census --lambda -3/2,1", "argument --lambda: expected one argument"),
        ("census --degree -1.5", "argument --degree: invalid int value: '-1.5'"),
        ("--degree 3", "the following arguments are required: command"),
        ("census extra -- --degree 3", "unrecognized arguments: extra -- --degree 3"),
        ("nope", "argument command: invalid choice: 'nope' (choose from 'pairs', 'analyze', "
                 "'census', 'branch', 'verify', 'mf-scan')"),
        ("census -hx", "argument -h/--help: ignored explicit argument 'x'"),
    ],
)
def test_rejections_carry_the_argparse_messages(argv, message):
    assert _check(argv.split()) == (None, message)


@pytest.mark.parametrize(
    "argv, fields",
    [
        ("census --deg=-3 --degree 5 --lev -2", {"degree": 5, "level": -2}),
        ("-- census", {}),
        ("--pair x census --", {"pair_id": "x"}),
        ("census --lambda=-3/2,1 --rank-b 2", {"lam": "-3/2,1", "rank_bound": 2}),
        ("census --format json --form text", {}),
    ],
)
def test_accepted_forms(argv, fields):
    config, _ = _check(argv.split())
    assert config == cli.RunConfig("census", **fields)


def test_an_attached_double_dash_is_a_value():
    assert cli.config_from_args(["census", "--pair=--"]).pair_id == "--"
    assert _outcome(cli.config_from_args, ["census", "--format=--"])[1].startswith(
        "argument --format: invalid choice: '--'")


def _perfbench_jobs():
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "jobs.py")
    with open(path, encoding="utf-8") as fh:
        namespace = {"__name__": "jobs", "__file__": path}
        exec(compile(fh.read(), path, "exec"), namespace)  # no byte code next to it
    return (namespace["interactive_pool"]() + namespace["CENSUS"] + namespace["BRANCH"]
            + namespace["VERIFY"])


def test_every_benchmark_job_reads_the_same_config(monkeypatch):
    """Both ``main``s run a config through the same engine, so the same
    config prints the same bytes; those are compared on a few cheap jobs,
    among them every invalid one the engine rejects."""
    monkeypatch.delenv(cli.CACHE_ENV_VAR, raising=False)
    jobs = _perfbench_jobs()
    assert len(jobs) > 200
    for job in jobs:
        argv = job.split() + ["--format", "json"]
        assert cli.config_from_args(argv) == oracles.config_from_args(argv), job
    fixed = jobs[:12]  # the interactive pool's fixed and invalid jobs first
    jobs = fixed[:1] + [j for j in fixed if "--law AA" in j or "--degree -1" in j or "nosuch" in j]
    assert len(jobs) == 5
    for job in jobs:
        for fmt in ("json", "text"):
            argv = job.split() + ["--format", fmt]
            assert _main(cli.main, argv) == _main(oracles.main, argv), argv