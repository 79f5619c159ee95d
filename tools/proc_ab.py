"""Per-process CPU time and peak RSS of CLI jobs, parent against change.

Run from the root of a checkout:

    python3 tools/proc_ab.py --parent REV --change REV --reps 7 --out FILE

Each revision is extracted from ``git archive REV`` into a directory of its
own.  A small ``python3 -S`` launcher spawns every measured process with
``os.posix_spawn`` and reads its CPU time (ru_utime + ru_stime) and peak RSS
(ru_maxrss) from ``os.wait4``.  On Linux a spawned child's ru_maxrss is at
least its parent's high-water RSS, so a large parent, such as
``perfbench/run.py``, hides any saving below its own size; the launcher's
own high-water RSS is reported as the floor.

For each job in JOBS, a repetition runs ``python3 -m vermabranch.cli JOB
--format json`` twice on a new empty ``--cache-dir``: a miss, then the hit
that follows.  The budget splits the first job's hit into a bare interpreter
(``import os; os._exit(0)``), the imports (a process that imports the
modules the hit loads and hard-exits, less bare) and the rest (the hit less
the imports).  Parent and change alternate, the parent first on odd
repetitions.  FILE gets each side's medians and quartiles (inclusive
method), the repetitions in which the change used less CPU time than the
parent, a CPU verdict (``faster``, ``slower`` or ``unresolved``: one side
wins at least nine tenths of the repetitions and the medians differ by more
than the parent's interquartile range, ``perf_ab.verdict``), and whether
every process of a job, miss or hit, printed the same stdout bytes on both
sides.  Below ten repetitions a side must win every one.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

from perf_ab import spread, verdict

ROOT = os.getcwd()

JOBS = (
    "census --pair sl_s_glgl:p=2,q=2 --parabolic borel",
    "analyze --pair so_down_so:m=5 --parabolic 1",
    "census --pair sp_down_gl:n=3 --parabolic siegel",
    "analyze --pair group_case:type=A2 --parabolic borel",
    "pairs --rank-bound 3",
    "branch --pair sp_down_gl:n=4 --parabolic siegel --degree 4",
    "mf-scan --rank-bound 6",
    "verify --pair sp_down_gl:n=3 --parabolic siegel --level 6",
    "verify --pair sp_down_gl:n=4 --parabolic siegel --level 12",
    "branch --pair sp_down_gl:n=5 --parabolic siegel --degree 12",
)
BARE = "import os; os._exit(0)"

# reads "tag, stdout file, PYTHONPATH, argv..." lines (tab-separated) and
# prints "tag, exit status, CPU s, peak RSS KiB, wall s" per process, then
# its own high-water RSS
LAUNCHER = r"""
import os, sys, time
for line in sys.stdin:
    tag, out, path, *argv = line.rstrip("\n").split("\t")
    fd = os.open(out, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    actions = [(os.POSIX_SPAWN_DUP2, fd, 1), (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0)]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, dict(os.environ, PYTHONPATH=path), file_actions=actions)
    _, status, ru = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    os.close(fd)
    print(tag, status, ru.ru_utime + ru.ru_stime, ru.ru_maxrss, wall, sep="\t")
with open("/proc/self/status") as fh:
    print("launcher", [l.split()[1] for l in fh if l.startswith("VmHWM")][0], sep="\t")
"""

# prints the modules a ``python -m vermabranch.cli`` process has loaded when
# it reaches os._exit
MODULES = (
    "import os, runpy, sys\n"
    "def _exit(code, _exit=os._exit):\n"
    "    sys.stderr.write(' '.join(sorted(sys.modules)))\n"
    "    _exit(code)\n"
    "os._exit = _exit\n"
    "runpy._run_module_as_main('vermabranch.cli')\n"
)


def extract(rev, where):
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", rev], capture_output=True, check=True
    ).stdout
    os.makedirs(where)
    subprocess.run(["tar", "-x", "-C", where], input=archive, check=True)
    return os.path.join(where, "src")


def loaded_modules(src, argv, env):
    proc = subprocess.run([sys.executable, "-c", MODULES] + argv, capture_output=True,
                          env=dict(env, PYTHONPATH=src), check=False)
    return set(proc.stderr.decode().split())


def plan_runs(srcs, imports, reps, tmp):
    """(tag, stdout file, PYTHONPATH, argv) of every measured process, in order."""
    plan = []
    for rep in range(1, reps + 1):
        for side in ("parent", "change") if rep % 2 else ("change", "parent"):
            for j, job in enumerate(JOBS):
                cache = os.path.join(tmp, "cache-%s-%d-%d" % (side, j, rep))
                cmd = [sys.executable, "-m", "vermabranch.cli"] + job.split()
                cmd += ["--format", "json", "--cache-dir", cache]
                for mode in ("miss", "hit"):
                    out = os.path.join(tmp, "out-%s-%d-%d-%s" % (side, j, rep, mode))
                    plan.append(("%s|%d|%s" % (side, j, mode), out, srcs[side], cmd))
            plan.append(("%s|bare" % side, os.devnull, srcs[side], [sys.executable, "-c", BARE]))
            plan.append(("%s|imports" % side, os.devnull, srcs[side], [sys.executable, "-c", imports[side]]))
    return plan


def medians(rows):
    out = {"exit": sorted({os.waitstatus_to_exitcode(r[0]) for r in rows})}
    for name, column, unit in (("cpu_ms", 1, 1000), ("peak_rss_mb", 2, 1 / 1024), ("wall_ms", 3, 1000)):
        q1, median, q3 = spread([unit * r[column] for r in rows])
        out.update({name + "_q1": round(q1, 2), name + "_median": round(median, 2), name + "_q3": round(q3, 2)})
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--reps", type=int, default=7)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")

    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONUNBUFFERED="1")
    env.pop("VERMABRANCH_CACHE_DIR", None)
    with tempfile.TemporaryDirectory(prefix="proc_ab-") as tmp:
        srcs = {side: extract(getattr(args, side), os.path.join(tmp, side)) for side in ("parent", "change")}
        listing = [sys.executable, "-c", "import sys; print(' '.join(sys.modules))"]
        bare = set(subprocess.run(listing, capture_output=True, env=env, check=True).stdout.decode().split())
        hit = JOBS[0].split() + ["--format", "json", "--cache-dir"]
        imports = {}
        for side, src in srcs.items():
            warm = os.path.join(tmp, "warm-" + side)
            loaded_modules(src, hit + [warm], env)  # the miss fills warm
            names = sorted(loaded_modules(src, hit + [warm], env) - bare - {"__main__"})
            imports[side] = "import os; [__import__(m) for m in %r]; os._exit(0)" % (names,)
        plan = plan_runs(srcs, imports, args.reps, tmp)
        lines = "".join("\t".join([tag, out, src] + cmd) + "\n" for tag, out, src, cmd in plan)
        launcher = [sys.executable, "-S", "-c", LAUNCHER]
        launched = subprocess.run(launcher, input=lines, capture_output=True, text=True, env=env, check=True)
        *measured, floor = launched.stdout.splitlines()
        samples = {}
        for line in measured:
            tag, status, cpu, rss, wall = line.split("\t")
            samples.setdefault(tag, []).append((int(status), float(cpu), int(rss), float(wall)))
        outputs = {}
        for tag, out, _, _ in plan:
            if out != os.devnull:
                with open(out, "rb") as fh:
                    outputs.setdefault(tag.split("|")[1], set()).add(fh.read())

    rows = []
    for j, job in enumerate(JOBS):
        for mode in ("miss", "hit"):
            key = "%d|%s" % (j, mode)
            row = {"job": job, "cache": mode, "identical_output": len(outputs[str(j)]) == 1}
            for side in ("parent", "change"):
                row[side] = medians(samples["%s|%s" % (side, key)])
            parent, change = row["parent"], row["change"]
            row["rss_saved_mb"] = round(parent["peak_rss_mb_median"] - change["peak_rss_mb_median"], 2)
            row["cpu_saved_ms"] = round(parent["cpu_ms_median"] - change["cpu_ms_median"], 1)
            parent_cpu, change_cpu = ([r[1] for r in samples[side + "|" + key]] for side in ("parent", "change"))
            row["change_cpu_wins"] = sum(c < p for p, c in zip(parent_cpu, change_cpu))  # by repetition
            row["verdict"] = verdict(parent_cpu, change_cpu)
            rows.append(row)
    budget = {"job": JOBS[0] + " (cache hit)"}
    for side in ("parent", "change"):
        cpu = {k: medians(samples[side + "|" + k])["cpu_ms_median"] for k in ("bare", "imports", "0|hit")}
        budget[side] = {
            "bare_interpreter_ms": cpu["bare"],
            "imports_ms": round(cpu["imports"] - cpu["bare"], 1),
            "rest_ms": round(cpu["0|hit"] - cpu["imports"], 1),
            "whole_process_ms": cpu["0|hit"],
            "imports_exit": medians(samples["%s|imports" % side])["exit"],
        }
    report = {
        "parent": args.parent,
        "change": args.change,
        "reps_per_side": args.reps,
        "launcher_peak_rss_mb": round(int(floor.split("\t")[1]) / 1024, 2),
        "rows": rows,
        "budget": budget,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
