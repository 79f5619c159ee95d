"""Record ``reference.json``: the expected output of every benchmark job.

Run from the root of a checkout of the commit whose outputs are the
reference:

    python3 perfbench/record.py

For each job of every workload (on ``interactive``, every job the seeded
draw can produce) it stores the exit code and the sha256 of the JSON
envelope.  The known-defect jobs keep their documented exit code 2 as the
expectation and store the observed behaviour under ``seed_defect``.  The
closed-form census counts come from the paper, not from the engine:
6 Borel classes for (sl4, s(gl2+gl2)) and n+1 Siegel classes for
sp_down_gl:n.
"""

import json
import os
import sys

from jobs import BRANCH, CENSUS, KNOWN_DEFECTS, VERIFY, interactive_pool
from run import REFERENCE, job_env, run_fresh, sha256

DOCUMENTED_INVALID_EXIT = 2


def closed_form(job):
    argv = job.split()
    if argv[0] != "census":
        return None
    pair = argv[argv.index("--pair") + 1]
    parabolic = argv[argv.index("--parabolic") + 1]
    if pair == "sl_s_glgl:p=2,q=2" and parabolic == "borel":
        return 6
    if pair.startswith("sp_down_gl:n=") and parabolic == "siegel":
        return int(pair.split("=")[1]) + 1
    return None


def main():
    env = job_env()
    jobs = {}
    closed_forms = {}
    for job in dict.fromkeys(CENSUS + BRANCH + VERIFY + interactive_pool()):
        r = run_fresh(job.split(), env)
        entry = {"exit": r.code, "sha256": sha256(r.out)}
        if job in KNOWN_DEFECTS:
            entry = {"exit": DOCUMENTED_INVALID_EXIT, "seed_defect": entry}
        jobs[job] = entry
        count = closed_form(job)
        if count is not None:
            closed_forms[job] = count
        print("%6.3f s  exit %d  %s" % (r.wall_s, r.code, job), flush=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump({"jobs": jobs, "closed_forms": closed_forms}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %d jobs to %s" % (len(jobs), os.path.relpath(REFERENCE)), file=sys.stderr)


if __name__ == "__main__":
    main()
