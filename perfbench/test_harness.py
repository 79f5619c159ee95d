"""Self-test of the benchmark's output checks.

    python3 -m pytest -q perfbench/test_harness.py

A corrupted reference, a wrong expected exit code or a broken closed form
must count as a failure, so that the check cannot pass vacuously.
"""

import copy
import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
from jobs import KNOWN_DEFECTS, WORKLOADS  # noqa: E402

JOB = "pairs --rank-bound 4"
SL4_BOREL = "census --pair sl_s_glgl:p=2,q=2 --parabolic borel"


@pytest.fixture(scope="module")
def reference():
    return run.load_reference()


@pytest.fixture(scope="module")
def output():
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    proc = subprocess.run(run.cli_argv(JOB.split()), capture_output=True, env=env, cwd=REPO)
    return proc.returncode, proc.stdout


def digest(data):
    return hashlib.sha256(data).hexdigest()


def test_reference_output_passes(reference, output):
    assert run.check(JOB, output[0], output[1], reference) == "ok"


def test_corrupted_reference_fails(reference, output):
    ref = copy.deepcopy(reference)
    ref["jobs"][JOB]["sha256"] = "0" * 64
    assert run.check(JOB, output[0], output[1], ref) == "envelope differs from the reference"


def test_wrong_expected_exit_fails(reference, output):
    ref = copy.deepcopy(reference)
    ref["jobs"][JOB]["exit"] = 2
    assert run.check(JOB, output[0], output[1], ref) == "exit 0, expected 2"


def test_unreferenced_job_fails(reference, output):
    assert run.check("pairs --rank-bound 9", output[0], output[1], reference) != "ok"


def test_closed_form_checked_beyond_the_reference(reference):
    out = json.dumps({"census": {"closed_count": 5}, "result": "5 closed classes"}).encode()
    ref = copy.deepcopy(reference)
    ref["jobs"][SL4_BOREL] = {"exit": 0, "sha256": digest(out)}
    assert reference["closed_forms"][SL4_BOREL] == 6
    assert run.check(SL4_BOREL, 0, out, ref).startswith("census counts 5 closed classes")


def test_verify_mismatch_fails():
    job = "verify --law AA --n 2 --l 1 --degree 4"
    out = json.dumps({"result": "MISMATCH"}).encode()
    ref = {"jobs": {job: {"exit": 0, "sha256": digest(out)}}, "closed_forms": {}}
    assert run.check(job, 0, out, ref) == "verify result 'MISMATCH'"


def test_known_defect_outcomes():
    job = KNOWN_DEFECTS[0]
    seen = b'{"result":"internal error"}\n'
    ref = {"jobs": {job: {"exit": 2, "seed_defect": {"exit": 1, "sha256": digest(seen)}}}, "closed_forms": {}}
    assert run.check(job, 1, seen, ref) == "known_defect"
    assert run.check(job, 2, b"", ref) == "ok"
    assert run.check(job, 1, b"other\n", ref) != "ok"
    assert run.check(job, 0, seen, ref) != "ok"


def test_every_drawable_job_has_a_reference(reference):
    for workload in WORKLOADS.values():
        for seed in range(50):
            missing = [job for job in workload.jobs(seed) if job not in reference["jobs"]]
            assert not missing, (workload.name, seed, missing)


def test_known_defects_keep_the_documented_exit(reference):
    for job in KNOWN_DEFECTS:
        assert reference["jobs"][job]["exit"] == 2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    argv = [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
