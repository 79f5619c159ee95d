"""The CLI as users start it, and what each of its processes loads.

(a) ``python -m vermabranch.cli`` in a fresh process prints the golden
envelope bytes and exit code of a census, a branch and an exit-2 input.
Such a process ends in ``os._exit`` (``cli.run``), so the tests of the
process path also check that a cache miss and hit, the warnings of a
corrupt cache entry and of a cache directory that cannot hold the entry, an
envelope larger than a pipe buffer and a ``cProfile`` table all still reach
the reader, and that output which cannot be written exits 2.

(b) A fresh interpreter runs ``cli.main`` and reports the ``vermabranch``
modules it loaded: a cache hit and an argument the parser rejects load
neither ``commands`` nor an engine module, a missing ``--pair`` or a
rejected ``--degree``, ``--level`` or ``--rank-bound`` loads ``commands``
and no engine module (the caps live in the package root), ``census`` and
``analyze`` load no ``branching``, only ``analyze`` loads ``exactla`` and
the matrix realization (``realization``), and no command loads
``dataclasses``.  No process loads ``argparse``, ``_hashlib`` (OpenSSL) or
``glob``, on a miss, a hit or a rejection, and without a cache directory
only ``analyze`` loads ``random``.  A ``python -m vermabranch.cli`` process
never imports ``vermabranch.cli`` besides its ``__main__``, and its ``-h``
names every flag and command.  Only module names are asserted, no timings.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

import vermabranch
from vermabranch import cli
from tests.test_golden import GOLDEN, INDEX, _file_name

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
CLI_ONLY = ["vermabranch", "vermabranch.cli"]
COMMANDS = CLI_ONLY + ["vermabranch.commands"]  # a cache miss
ENGINE = ["vermabranch." + m for m in ("liealg", "pairs", "parabolic")]
MATRICES = ["vermabranch.exactla", "vermabranch.realization"]  # only analyze loads them
OPENSSL = ["_hashlib", "glob"]  # what hashlib's sha256 and a glob of the sources would load
UNLOADED = {"argparse", "dataclasses", *OPENSSL}  # by every CLI process

# runs cli.main on its arguments, then prints [exit code, loaded modules]
# (the package's, and those of WATCHED if loaded) as the last line
WATCHED = ("vermabranch", "argparse", "dataclasses", "_hashlib", "glob", "random")
GUARD = (
    "import json, sys\n"
    "from vermabranch import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "names = (m for m in sys.modules if m.split('.')[0] in %r)\n"
    "print(json.dumps([code, sorted(names)]))\n"
) % (WATCHED,)


def _env(unbuffered=None):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("VERMABRANCH_CACHE_DIR", None)
    if unbuffered is not None:
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
    return env


def _run(args, unbuffered=None, stdout=subprocess.PIPE):
    return subprocess.run([sys.executable] + args, stdout=stdout, stderr=subprocess.PIPE,
                          env=_env(unbuffered), timeout=120)


def _cli(job, **kwargs):
    return _run(["-m", "vermabranch.cli"] + job.split() + ["--format", "json"], **kwargs)


def _guard(job):
    # -S: a .pth file of site-packages may import modules of its own
    proc = _run(["-S", "-c", GUARD] + job.split() + ["--format", "json"])
    assert proc.returncode == 0, proc.stderr.decode()
    return tuple(json.loads(proc.stdout.decode().splitlines()[-1]))


# runs ``python -m vermabranch.cli`` as the interpreter does, and prints the
# loaded modules on stderr when the process ends in os._exit
MAIN_GUARD = (
    "import json, os, runpy, sys\n"
    "def _exit(code, _exit=os._exit):\n"
    "    names = (m for m in sys.modules if m.split('.')[0] in %r)\n"
    "    sys.stderr.write(json.dumps(sorted(names)) + '\\n')\n"
    "    _exit(code)\n"
    "os._exit = _exit\n"
    "runpy._run_module_as_main('vermabranch.cli')\n"
) % (WATCHED,)


@pytest.mark.parametrize(
    "job",
    [
        "census --pair sl_s_glgl:p=2,q=2 --parabolic borel",
        "branch --pair so_down_so:m=4 --parabolic borel --degree 4",
        "branch --pair sl_s_glgl:p=2,q=2 --parabolic borel --degree 13",  # RankCapError
    ],
)
def test_entry_point_prints_the_golden_envelope(job):
    with open(INDEX, encoding="utf-8") as fh:
        code = json.load(fh)[job]
    with open(os.path.join(GOLDEN, _file_name(job)), "rb") as fh:
        recorded = fh.read()
    proc = _cli(job)
    assert (proc.returncode, proc.stdout) == (code, recorded)


def test_entry_point_cache_miss_and_hit_print_the_same_bytes(tmp_path):
    job = "census --pair so_down_so:m=5 --parabolic 1 --cache-dir %s" % tmp_path
    miss, hit = _cli(job), _cli(job)
    assert miss.returncode == hit.returncode == 0
    assert miss.stdout == hit.stdout
    (entry,) = tmp_path.iterdir()
    assert json.loads(entry.read_text(encoding="utf-8")) == json.loads(miss.stdout)


def test_entry_point_warns_of_a_corrupt_cache_entry(tmp_path):
    job = "census --pair so_down_so:m=5 --parabolic 1 --cache-dir %s" % tmp_path
    first = _cli(job)
    (entry,) = tmp_path.iterdir()
    entry.write_text("{not json", encoding="utf-8")
    proc = _cli(job)
    assert proc.returncode == 0
    assert proc.stdout == first.stdout
    assert "corrupt cache entry %s ignored" % entry in proc.stderr.decode()


def test_entry_point_warns_of_an_unusable_cache_dir(tmp_path):
    job = "census --pair so_down_so:m=5 --parabolic 1"
    root = tmp_path / "file"
    root.write_text("")
    proc = _cli(job + " --cache-dir %s" % root)
    assert (proc.returncode, proc.stdout) == (0, _cli(job).stdout)
    (line,) = proc.stderr.decode().splitlines()
    assert line.startswith("cannot store cache entry %s/" % root)


@pytest.mark.parametrize("unbuffered", [True, False])
def test_entry_point_delivers_an_envelope_larger_than_a_pipe_buffer(unbuffered):
    job = "branch --pair so_down_so:m=8 --parabolic borel --degree 12"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(job.split() + ["--format", "json"]) == 0
    expected = out.getvalue().encode("ascii")
    assert len(expected) > 65536
    proc = _cli(job, unbuffered=unbuffered)
    assert (proc.returncode, proc.stdout) == (0, expected)


def test_profiled_entry_point_prints_its_table():
    proc = _run(["-m", "cProfile", "-m", "vermabranch.cli", "pairs", "--rank-bound", "1",
                 "--format", "json"])
    assert proc.returncode == 0
    envelope, table = proc.stdout.decode().split("\n", 1)
    assert json.loads(envelope)["result"] == "3 catalog pairs"
    assert "function calls" in table


def test_script_entry_is_run_and_main_returns_its_code(capsys):
    with open(os.path.join(os.path.dirname(SRC), "pyproject.toml"), encoding="utf-8") as fh:
        assert 'vermabranch = "vermabranch.cli:run"' in fh.read().split("[project.scripts]")[1]
    assert cli.main(["pairs", "--rank-bound", "1"]) == 0
    assert cli.main(["pairs", "--rank-bound", "-1"]) == 2


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize(
    "job",
    [
        "census --pair sl_s_glgl:p=2,q=2 --parabolic borel",
        "branch --pair so_down_so:m=8 --parabolic borel --degree 12",  # fails inside write
        "census --frobnicate",  # the exit-2 envelope of a rejected flag
    ],
)
def test_unwritable_output_exits_two(job, unbuffered):
    with open("/dev/full", "wb") as full:
        proc = _cli(job, unbuffered=unbuffered, stdout=full)
    assert proc.returncode == 2
    assert proc.stderr.decode() == "error: cannot write output: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("unbuffered", [True, False])
@pytest.mark.parametrize(
    "redirect, message",
    [(">&-", "error: cannot write output: stdout is closed\n"), (">&- 2>&-", "")],
)
def test_closed_stdout_exits_two(redirect, message, unbuffered):
    job = "census --pair sl_s_glgl:p=2,q=2 --parabolic borel --format json"
    proc = subprocess.run(
        ["sh", "-c", '"$@" ' + redirect, "sh", sys.executable, "-m", "vermabranch.cli"]
        + job.split(),
        capture_output=True, env=_env(unbuffered), timeout=120,
    )
    assert (proc.returncode, proc.stderr.decode()) == (2, message)


def test_cache_hit_loads_no_engine_module(tmp_path):
    job = "census --pair sl_s_glgl:p=2,q=2 --parabolic borel --cache-dir %s" % tmp_path
    # the miss: no branching; tempfile, which writes the entry, loads random
    assert _guard(job) == (0, sorted(COMMANDS + ENGINE + ["random"]))
    assert _guard(job) == (0, CLI_ONLY)


@pytest.mark.parametrize(
    "job",
    [
        "branch --pair so_down_so:m=4 --degree x",
        "census --pair so_down_so:m=4 --frobnicate",
        "pairs --config /nonexistent/run.cfg",
    ],
)
def test_rejected_arguments_load_no_engine_module(job):
    assert _guard(job) == (2, CLI_ONLY)


@pytest.mark.parametrize(
    "job", ["analyze --parabolic borel", "census --parabolic borel", "branch --degree 2", "verify --level 2"]
)
def test_missing_pair_loads_no_engine_module(job):
    assert _guard(job) == (2, COMMANDS)


@pytest.mark.parametrize(
    "job, code",
    [
        ("census --pair sl_s_glgl:p=2,q=2 --parabolic borel", 0),
        ("census --pair so_down_so:m=4 --frobnicate", 2),  # rejected by the parser
        ("analyze --parabolic borel", 2),  # PreconditionError raised in commands
        ("branch --pair sl_s_glgl:p=2,q=2 --parabolic borel --degree 13", 2),  # RankCapError
    ],
)
def test_module_entry_point_never_imports_cli_again(tmp_path, job, code):
    argv = job.split() + ["--cache-dir", str(tmp_path), "--format", "json"]
    for _ in ("miss", "hit"):
        proc = _run(["-S", "-c", MAIN_GUARD] + argv)
        assert proc.returncode == code, proc.stderr.decode()
        assert json.loads(proc.stdout)["command"] == job.split()[0]
        modules = json.loads(proc.stderr.decode().splitlines()[-1])
        assert "vermabranch.cli" not in modules
        assert not UNLOADED & set(modules)


@pytest.mark.parametrize(
    "job",
    [
        "branch --pair sl_s_glgl:p=2,q=2 --parabolic borel --degree -1",
        "branch --pair sl_s_glgl:p=2,q=2 --parabolic borel --degree 13",
        "verify --pair sp_down_gl:n=2 --parabolic siegel --level -3",
        "verify --law AA --n 2 --degree -2",
        "pairs --rank-bound -1",
        "mf-scan --rank-bound 7",
    ],
)
def test_rejected_sizes_load_only_the_caps(job):
    # the caps live in the package root: no engine module is loaded
    assert _guard(job) == (2, COMMANDS)


@pytest.mark.parametrize("flag", ["-h", "--help", "--he"])
def test_help_lists_every_flag_and_command(flag):
    proc = _run(["-m", "vermabranch.cli", "census", flag, "--degree", "x"])
    assert proc.returncode == 0 and not proc.stderr
    listing = proc.stdout.decode()
    for word in [*cli._FLAGS, *cli.COMMANDS]:
        assert word in listing


@pytest.mark.parametrize(
    "job, loads_branching",
    [
        ("pairs --rank-bound 2", False),
        ("census --pair sl_s_glgl:p=2,q=2 --parabolic borel", False),
        ("analyze --pair so_down_so:m=5 --parabolic 1", False),
        ("branch --pair so_down_so:m=4 --parabolic borel --degree 2", True),
        ("verify --law AA --n 2 --l 1 --degree 2", True),
        ("verify --pair sp_down_gl:n=2 --parabolic siegel --level 2", True),
        ("mf-scan --rank-bound 2", True),
    ],
)
def test_each_command_loads_only_its_modules(job, loads_branching):
    code, modules = _guard(job)
    assert code == 0
    assert not UNLOADED & set(modules)
    assert ("vermabranch.branching" in modules) == loads_branching
    analyze = job.startswith("analyze")  # the spot check samples matrices
    assert ("random" in modules) == analyze
    assert {m: m in modules for m in MATRICES} == dict.fromkeys(MATRICES, analyze)


def test_package_names_resolve_on_first_use():
    proc = _run(["-c", "import sys, vermabranch; print(sorted(m for m in sys.modules if 'vermabranch' in m))"])
    assert proc.stdout.decode().split() == ["['vermabranch']"]
    for name in vermabranch.__all__:
        value = getattr(vermabranch, name)
        module = sys.modules["vermabranch." + vermabranch._MODULE_OF.get(name, "liealg")]
        assert value is getattr(module, name)  # RankCapError: the root's, re-imported by liealg
    assert set(vermabranch.__all__) <= set(dir(vermabranch))
    with pytest.raises(AttributeError):
        vermabranch.no_such_name
