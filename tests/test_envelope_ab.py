"""The comparison `tools/envelope_ab.py` applies to the outputs of two
revisions, on synthetic results, and the corpus it reads."""

import importlib.util
import os
import sys

_TOOLS = os.path.join(os.path.dirname(__file__), os.pardir, "tools")
sys.path.insert(0, _TOOLS)  # envelope_ab imports perf_ab, as it does when run as a script
_PATH = os.path.join(_TOOLS, "envelope_ab.py")
_SPEC = importlib.util.spec_from_file_location("envelope_ab", _PATH)
envelope_ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(envelope_ab)

JOBS = ["pairs --rank-bound 2", "census --pair nosuch:n=2 --parabolic borel"]


def _results(replace=()):
    """Both formats of JOBS, exit 0 and 2, with the entries in `replace`
    ({(format, index): [exit, stdout], or None to drop the entry}) replaced."""
    out = {fmt: {job: [2 * i, "%s %d\n" % (fmt, i)] for i, job in enumerate(JOBS)}
           for fmt in envelope_ab.FORMATS}
    for (fmt, i), value in dict(replace).items():
        if value is None:
            del out[fmt][JOBS[i]]
        else:
            out[fmt][JOBS[i]] = value
    return out


def test_equal_results_have_no_difference():
    assert envelope_ab.compare(_results(), _results(), JOBS) == []


def test_each_kind_of_difference_is_named():
    change = _results(replace={
        ("json", 0): [1, "json 0\n"],  # exit code
        ("text", 1): [2, "text 1 \n"],  # one byte of stdout
        ("text", 0): None,  # missing
    })
    assert envelope_ab.compare(_results(), change, JOBS) == [
        ("json", JOBS[0], "exit 0 -> 1"),
        ("text", JOBS[0], "missing on the change side"),
        ("text", JOBS[1], "stdout"),
    ]
    assert envelope_ab.compare(change, _results(), JOBS)[1] == ("text", JOBS[0], "missing on the parent side")


def test_a_difference_in_exit_code_is_reported_before_stdout():
    change = _results(replace={("json", 1): [0, "other\n"]})
    assert envelope_ab.compare(_results(), change, JOBS) == [("json", JOBS[1], "exit 2 -> 0")]


def test_corpus_holds_the_benchmark_golden_and_catalog_jobs():
    jobs = envelope_ab.corpus(os.path.join(os.path.dirname(__file__), os.pardir))
    assert len(jobs) == len(set(jobs)) > 400
    assert "verify --pair sp_down_gl:n=3 --parabolic siegel --level 6" in jobs  # VERIFY and golden
    assert "mf-scan --rank-bound 7" in jobs  # golden only
    assert "branch --pair so_down_so:m=6 --parabolic heisenberg --degree 4" in jobs  # catalog
    assert "verify --pair gl_down_gl:l=1,n=1 --parabolic full --level 4" in jobs
    assert "verify --pair sp_down_gl:n=4 --parabolic siegel --level 12" in jobs  # LARGE
    assert "verify --pair sl_s_glgl:p=2,q=3 --parabolic 1,2 --lambda 1/3,4/3,1/3,-2/3,-4/3 --level 8" in jobs
    assert "verify --pair gl_down_gl:n=11,l=1 --parabolic full --level 1" in jobs  # l' of rank 10


def test_the_worker_prints_what_cli_main_prints(monkeypatch):
    """The worker, whose text run of an exit-0 job is a hit in its own result
    cache, prints what cli.main prints without a cache, in both formats: on a
    job that exits 0, on one whose arguments are rejected and on one that
    trips a cap."""
    import contextlib
    import io

    from vermabranch import cli

    jobs = ["pairs --rank-bound 2", "branch --pair sp_down_gl:n=2 --degree x",
            "branch --pair sp_down_gl:n=2 --parabolic siegel --degree 13"]
    out = envelope_ab.run_worker(os.path.join(os.path.dirname(__file__), os.pardir), jobs)
    monkeypatch.delenv("VERMABRANCH_CACHE_DIR", raising=False)
    expected = {}
    for fmt in envelope_ab.FORMATS:
        for job in jobs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(job.split() + ["--format", fmt])
            expected.setdefault(fmt, {})[job] = [code, buf.getvalue()]
    assert out == expected
    assert [out["json"][job][0] for job in jobs] == [0, 2, 2]
    assert "capped at 12" in out["text"][jobs[2]][1] and out["text"][jobs[1]][1] == ""
