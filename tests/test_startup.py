"""The CLI as users start it, and what each of its processes loads.

(a) ``python -m vermabranch.cli`` in a fresh process prints the golden
envelope bytes and exit code of a census, a branch and an exit-2 input.

(b) A fresh interpreter runs ``cli.main`` and reports the ``vermabranch``
modules it loaded: a cache hit, an argument the parser rejects and a
missing ``--pair`` load no engine module, a rejected ``--degree`` or
``--level`` loads no ``pairs``, ``parabolic`` or ``branching``, ``census``
and ``analyze`` load no ``branching``, and no command loads
``dataclasses``.  Without a cache directory no command loads ``_hashlib``
(OpenSSL) or ``glob``, and only ``analyze`` loads ``random``.  Only module
names are asserted, no timings.
"""

import json
import os
import subprocess
import sys

import pytest

import vermabranch
from tests.test_golden import GOLDEN, INDEX, _file_name

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
CLI_ONLY = ["vermabranch", "vermabranch.cli"]
ENGINE = ["vermabranch." + m for m in ("exactla", "liealg", "pairs", "parabolic")]
CACHE = ["_hashlib", "glob"]  # the cache key's sha256 of the package sources

# runs cli.main on its arguments, then prints [exit code, loaded modules]
# (the package's, and those of WATCHED if loaded) as the last line
WATCHED = ("vermabranch", "dataclasses", "_hashlib", "glob", "random")
GUARD = (
    "import json, sys\n"
    "from vermabranch import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "names = (m for m in sys.modules if m.split('.')[0] in %r)\n"
    "print(json.dumps([code, sorted(names)]))\n"
) % (WATCHED,)


def _run(args):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("VERMABRANCH_CACHE_DIR", None)
    return subprocess.run([sys.executable] + args, capture_output=True, env=env, timeout=120)


def _guard(job):
    # -S: a .pth file of site-packages may import modules of its own
    proc = _run(["-S", "-c", GUARD] + job.split() + ["--format", "json"])
    assert proc.returncode == 0, proc.stderr.decode()
    return tuple(json.loads(proc.stdout.decode().splitlines()[-1]))


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
    proc = _run(["-m", "vermabranch.cli"] + job.split() + ["--format", "json"])
    assert (proc.returncode, proc.stdout) == (code, recorded)


def test_cache_hit_loads_no_engine_module(tmp_path):
    job = "census --pair sl_s_glgl:p=2,q=2 --parabolic borel --cache-dir %s" % tmp_path
    # the miss: no branching; tempfile, which writes the entry, loads random
    assert _guard(job) == (0, sorted(CLI_ONLY + ENGINE + CACHE + ["random"]))
    assert _guard(job) == (0, sorted(CLI_ONLY + CACHE))


@pytest.mark.parametrize(
    "job",
    [
        "branch --pair so_down_so:m=4 --degree x",
        "census --pair so_down_so:m=4 --frobnicate",
        "pairs --config /nonexistent/run.cfg",
        "analyze --parabolic borel",
        "census --parabolic borel",
        "branch --degree 2",
        "verify --level 2",
    ],
)
def test_rejected_arguments_load_no_engine_module(job):
    assert _guard(job) == (2, CLI_ONLY)


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
    # the caps live in liealg; pairs, parabolic and branching stay unloaded
    assert _guard(job) == (2, sorted(CLI_ONLY + ["vermabranch.exactla", "vermabranch.liealg"]))


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
    assert not {"dataclasses", *CACHE} & set(modules)
    assert ("vermabranch.branching" in modules) == loads_branching
    assert ("random" in modules) == job.startswith("analyze")  # the spot check


def test_package_names_resolve_on_first_use():
    proc = _run(["-c", "import sys, vermabranch; print(sorted(m for m in sys.modules if 'vermabranch' in m))"])
    assert proc.stdout.decode().split() == ["['vermabranch']"]
    for name in vermabranch.__all__:
        value = getattr(vermabranch, name)
        assert value is getattr(sys.modules["vermabranch." + vermabranch._MODULE_OF[name]], name)
    assert set(vermabranch.__all__) <= set(dir(vermabranch))
    with pytest.raises(AttributeError):
        vermabranch.no_such_name
