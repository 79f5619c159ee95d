"""Golden corpus: byte-identical JSON envelopes of short CLI jobs.

Every job in ``golden/index.json`` (job -> exit code) runs in this process through
``cli.main`` with ``--format json`` and no cache; its stdout and exit code
must equal the recorded ones.  Where ``perfbench/reference.json`` lists the
same job, the recorded bytes must also hash to its sha256.

Re-record (only when an output change is intended and documented):

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import re

import pytest

from vermabranch import cli

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
INDEX = os.path.join(GOLDEN, "index.json")
REFERENCE = os.path.join(os.path.dirname(HERE), "perfbench", "reference.json")

# each job is well under 1 s in-process
JOBS = [
    "pairs --rank-bound 4",
    "pairs --rank-bound 2",
    "analyze --pair sl_s_glgl:p=2,q=2 --parabolic borel",
    "analyze --pair so_down_so:m=5 --parabolic 1",
    "analyze --pair so_down_so:m=6 --parabolic heisenberg",
    "analyze --pair sp_down_gl:n=3 --parabolic siegel",
    "analyze --pair gl_down_gl:l=2,n=2 --parabolic heisenberg",
    "analyze --pair gl_down_gl:l=1,n=3 --parabolic 1",
    "analyze --pair group_case:type=A1 --parabolic borel",
    # not closed, and pr_tau(u) holds elements that are not ad-nilpotent
    "analyze --pair so_down_so:m=5 --parabolic H=1/2,-1/2,3/2",
    "analyze --pair group_case:type=A1 --parabolic H=1/2,-1/2,-1/2,1/2",
    "census --pair so_down_so:m=5 --parabolic 1",
    "census --pair sl_s_glgl:p=2,q=2 --parabolic borel",
    "census --pair sp_down_gl:n=3 --parabolic siegel",
    "census --pair group_case:type=A1 --parabolic borel",
    "census --pair so_down_so:m=6 --parabolic 0",
    "census --pair gl_down_gl:l=2,n=3 --parabolic heisenberg",
    "branch --pair sl_s_glgl:p=2,q=2 --parabolic heisenberg --degree 4",
    "branch --pair so_down_so:m=4 --parabolic borel --degree 4",
    "branch --pair sp_down_gl:n=3 --parabolic siegel --degree 6",
    "branch --pair sl_s_glgl:p=2,q=3 --parabolic 1,2 --lambda 1,0,0,0,-1 --degree 4",
    "verify --pair sp_down_gl:n=3 --parabolic siegel --level 6",
    "verify --law AA --n 2 --l 1 --degree 4",
    "verify --law BD --n 3 --degree 6",
    "mf-scan --rank-bound 6",
    "mf-scan --rank-bound 3",
    "branch --pair sl_s_glgl:p=2,q=2 --parabolic borel --degree 13",
    "verify --pair sp_down_gl:n=2 --parabolic siegel --level 13",
    "mf-scan --rank-bound 7",
    "census --pair nosuch:n=2 --parabolic borel",
]


def _file_name(job):
    return re.sub(r"[^A-Za-z0-9]+", "_", job).strip("_") + ".json"


def run_job(job):
    """(exit code, stdout bytes) of one in-process JSON run without a cache."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(job.split() + ["--format", "json"])
    return code, out.getvalue().encode("utf-8")


@functools.lru_cache(maxsize=None)
def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def test_corpus_matches_job_list():
    assert sorted(_load(INDEX)) == sorted(JOBS)
    assert sorted(os.listdir(GOLDEN)) == sorted([_file_name(j) for j in JOBS] + ["index.json"])


@pytest.mark.parametrize("job", JOBS)
def test_golden_envelope(job, monkeypatch):
    monkeypatch.delenv(cli.CACHE_ENV_VAR, raising=False)
    code = _load(INDEX)[job]
    with open(os.path.join(GOLDEN, _file_name(job)), "rb") as fh:
        recorded = fh.read()
    reference = _load(REFERENCE)["jobs"].get(job, {})
    if "sha256" in reference:  # known-defect entries hold the seed's output instead
        assert hashlib.sha256(recorded).hexdigest() == reference["sha256"]
        assert code == reference["exit"]
    assert run_job(job) == (code, recorded)


def record():
    os.environ.pop(cli.CACHE_ENV_VAR, None)
    os.makedirs(GOLDEN, exist_ok=True)
    index = {}
    for job in JOBS:
        code, out = run_job(job)
        with open(os.path.join(GOLDEN, _file_name(job)), "wb") as fh:
            fh.write(out)
        index[job] = code
    with open(INDEX, "w", encoding="utf-8") as fh:
        json.dump(index, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    record()
