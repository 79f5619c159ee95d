"""The CLI as users start it, and what each of its processes loads.

(a) ``python -m vermabranch.cli`` in a fresh process prints the golden
envelope bytes and exit code of a census, a branch and an exit-2 input.

(b) A fresh interpreter runs ``cli.main`` and reports the ``vermabranch``
modules it loaded: a cache hit and an argument the parser rejects load no
engine module, ``census`` and ``analyze`` load no ``branching``, and no
command loads ``dataclasses``.  Only module names are asserted, no timings.
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

# runs cli.main on its arguments, then prints [exit code, loaded modules]
# (the package's, and dataclasses if loaded) as the last line
GUARD = (
    "import json, sys\n"
    "from vermabranch import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "names = (m for m in sys.modules if m.split('.')[0] in ('vermabranch', 'dataclasses'))\n"
    "print(json.dumps([code, sorted(names)]))\n"
)


def _run(args):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("VERMABRANCH_CACHE_DIR", None)
    return subprocess.run([sys.executable] + args, capture_output=True, env=env, timeout=120)


def _guard(job):
    proc = _run(["-c", GUARD] + job.split() + ["--format", "json"])
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
    assert _guard(job) == (0, sorted(CLI_ONLY + ENGINE))  # the miss: no branching
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
    "job, loads_branching",
    [
        ("pairs --rank-bound 2", False),
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
    assert "dataclasses" not in modules
    assert ("vermabranch.branching" in modules) == loads_branching


def test_package_names_resolve_on_first_use():
    proc = _run(["-c", "import sys, vermabranch; print(sorted(m for m in sys.modules if 'vermabranch' in m))"])
    assert proc.stdout.decode().split() == ["['vermabranch']"]
    for name in vermabranch.__all__:
        value = getattr(vermabranch, name)
        assert value is getattr(sys.modules["vermabranch." + vermabranch._MODULE_OF[name]], name)
    assert set(vermabranch.__all__) <= set(dir(vermabranch))
    with pytest.raises(AttributeError):
        vermabranch.no_such_name
