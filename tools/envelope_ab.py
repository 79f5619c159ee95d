"""Byte-compare the CLI output of two revisions on a fixed corpus of jobs.

Run from the root of a checkout:

    python3 tools/envelope_ab.py --parent REV --change REV

Each revision is extracted from ``git archive REV`` into a directory of its
own, as ``tools/perf_ab.py`` does.  One process per revision runs every job
of the corpus through ``vermabranch.cli.main`` from that directory, once
with ``--format json`` and once with ``--format text``, with a result cache
of its own in a fresh temporary directory: the format is not part of the
cache key, so the text run of a job that exits 0 is a hit and its engine
runs once.  The corpus is read from this checkout:

- ``CENSUS``, ``BRANCH``, ``VERIFY`` and ``interactive_pool()`` of
  ``perfbench/jobs.py``;
- the jobs of ``tests/golden/index.json``;
- ``branch --degree 4`` and ``verify --level 4`` on every (pair, parabolic
  descriptor) of the rank <= 3 catalog that ``perfbench/jobs.py`` lists.
- ``LARGE``, eleven jobs whose S(u_-) series run to about 265000 terms at
  most, one of them past ``SERIES_TERM_CAP``.

Every job whose exit code or stdout differs is printed, and the tool exits 1
if any does, else 0.
"""

import argparse
import json
import os
import runpy
import subprocess
import sys
import tempfile

from perf_ab import extract

ROOT = os.getcwd()
FORMATS = ("json", "text")

# reads a JSON list of jobs on stdin and prints {format: {job: [exit, stdout]}}
WORKER = r"""
import contextlib, io, json, os, sys, tempfile
sys.path.insert(0, "src")
from vermabranch import cli
jobs = json.load(sys.stdin)
out = {}
with tempfile.TemporaryDirectory(prefix="envelope_ab-cache-") as cache:
    os.environ[cli.CACHE_ENV_VAR] = cache
    for fmt in %r:
        for job in jobs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(job.split() + ["--format", fmt])
            out.setdefault(fmt, {})[job] = [code, buf.getvalue()]
json.dump(out, sys.stdout)
""" % (FORMATS,)

# series large enough that the order in which the engine fills its layers
# shows; the sixth job trips SERIES_TERM_CAP and exits 2, the next two give
# verify a right-hand side of many entries with a numeric lambda, the second
# over a fractional base, and the last three an l' of rank 7, 7 and 10
LARGE = [
    "branch --pair sp_down_gl:n=4 --parabolic siegel --degree 12",
    "branch --pair sp_down_gl:n=5 --parabolic siegel --lambda 4,3,2,1,0 --degree 12",
    "verify --pair sp_down_gl:n=4 --parabolic siegel --level 12",
    "branch --pair group_case:type=B2 --parabolic borel --lambda 3,1,2,1 --degree 12",
    "branch --pair sl_s_glgl:p=3,q=3 --parabolic 0,2,4 --lambda 2,1,0,0,-1,-2 --degree 10",
    "verify --pair sl_s_glgl:p=6,q=6 --parabolic borel --level 12",
    "verify --pair sp_down_gl:n=4 --parabolic siegel --lambda 3,2,1,0 --level 8",
    "verify --pair sl_s_glgl:p=2,q=3 --parabolic 1,2 --lambda 1/3,4/3,1/3,-2/3,-4/3 --level 8",
    "verify --pair gl_down_gl:n=8,l=1 --parabolic 1,2,3,4,5,6,7 --level 6",
    "verify --pair gl_down_gl:n=9,l=1 --parabolic 1,2,3,4,5,6,7 --lambda 2,1,1,1,1,1,1,1,0,0 --level 4",
    "verify --pair gl_down_gl:n=11,l=1 --parabolic full --level 1",
]


def corpus(root=ROOT) -> list:
    """The jobs to compare, each once, in a fixed order."""
    jobs = runpy.run_path(os.path.join(root, "perfbench", "jobs.py"))
    with open(os.path.join(root, "tests", "golden", "index.json"), encoding="utf-8") as fh:
        golden = list(json.load(fh))
    catalog = [
        "%s --pair %s --parabolic %s %s" % (command, pair, d, tail)
        for pair, nsimple, symplectic in jobs["CATALOG_PAIRS"]
        for d in jobs["descriptors"](nsimple, symplectic)
        for command, tail in (("branch", "--degree 4"), ("verify", "--level 4"))
    ]
    listed = jobs["CENSUS"] + jobs["BRANCH"] + jobs["VERIFY"] + jobs["interactive_pool"]()
    return list(dict.fromkeys(listed + golden + catalog + LARGE))


def run_worker(root, jobs, name=None) -> dict:
    """{format: {job: [exit code, stdout]}} of every job, run by WORKER on the
    source tree at root (named `name` in an error)."""
    proc = subprocess.run(
        [sys.executable, "-c", WORKER], cwd=root, input=json.dumps(jobs),
        capture_output=True, text=True, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    if proc.returncode:
        raise SystemExit("the worker at %s exited %d:\n%s" % (name or root, proc.returncode, proc.stderr))
    return json.loads(proc.stdout)


def run_revision(rev, jobs) -> dict:
    """`run_worker` on a fresh extract of rev."""
    with tempfile.TemporaryDirectory(prefix="envelope_ab-") as copy:
        extract(rev, copy)
        return run_worker(copy, jobs, rev)


def compare(parent, change, jobs) -> list:
    """(format, job, what differs) for each job whose exit code or stdout
    differs between two results of `run_revision`; a job missing from
    either side differs."""
    diffs = []
    for fmt in FORMATS:
        for job in jobs:
            a, b = parent.get(fmt, {}).get(job), change.get(fmt, {}).get(job)
            if a is None or b is None:
                diffs.append((fmt, job, "missing on the %s side" % ("parent" if a is None else "change")))
            elif a[0] != b[0]:
                diffs.append((fmt, job, "exit %d -> %d" % (a[0], b[0])))
            elif a[1] != b[1]:
                diffs.append((fmt, job, "stdout"))
    return diffs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    args = parser.parse_args(argv)
    jobs = corpus()
    parent, change = run_revision(args.parent, jobs), run_revision(args.change, jobs)
    diffs = compare(parent, change, jobs)
    for fmt, job, what in diffs:
        print("DIFF %s (%s): %s" % (job, fmt, what))
    print("%d jobs x %d formats, %d differ" % (len(jobs), len(FORMATS), len(diffs)))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
