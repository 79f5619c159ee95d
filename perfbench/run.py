"""End-to-end benchmark of the vermabranch CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload census --seed 1 --seconds 27 --trace 0

A run executes the workload's job list (see ``jobs.py``) one job after
another, a closed loop with one client, and repeats whole passes over the
list while another pass still fits in ``--seconds``.  With ``--trace 0``
every job runs in a fresh ``python -m vermabranch.cli ... --format json``
process, exactly as a user runs it.  With ``--trace 1`` the same jobs run
in this process, alternating untraced and traced passes; the traced passes
record spans around the public functions of each engine module (see
``tracing.py``).

Every output is checked against ``reference.json`` (exit code and sha256 of
the envelope recorded at the seed commit) and against closed forms from the
paper.  Times are reported in seconds at reference speed (see CALIBRATIONS);
the summary lines also give the measured wall and CPU totals.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from jobs import WORKLOADS  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_SAMPLES = 7

# On a shared 2-core host the speed of this machine was seen to switch
# between two levels about 1.6x apart every few seconds, and to drift by up
# to 2x within minutes.  Every reported time is therefore multiplied by
# REF / (mean of the calibration samples taken just before and just after
# it): seconds at reference speed.  The calibration task is the kind of work
# that dominates the workload's jobs, which tracked their speed best: Python
# Fraction arithmetic for the engine workloads, a bare interpreter start for
# the interactive one.  Changing a REF rescales every time metric.
CAL_EVERY_S = 1.0

# Fixed cost of one invocation before command work: interpreter start,
# import, and construction of every pair the workload names.
SETUP_CODE = (
    "import sys, vermabranch as vb\n"
    "for pid in sys.argv[1:]:\n"
    "    pair = vb.build_pair(vb.PairSpec.parse(pid))\n"
    "    vb.root_datum(pair.g)\n"
    "    vb.restricted_root_data(pair)\n"
)


class BenchError(RuntimeError):
    """The program under test cannot be run at all."""


class JobResult:
    def __init__(self, code, out, wall_s, cpu_s=None, rss_mb=None):
        self.code = code
        self.out = out
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.rss_mb = rss_mb
        self.scale = 1.0  # reference seconds per measured second


def compute_calibration(env):
    """Wall time of a fixed pure-Python task of Fraction and dict work."""
    start = time.perf_counter()
    counts = {}
    for i in range(1, 1500):
        x = Fraction(i % 11 - 5, i % 13 + 1) * Fraction(i % 5 + 1, 7) + Fraction(1, 3)
        key = (x.numerator % 17, x.denominator % 19)
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - start


def start_calibration(env):
    """Wall time of starting an interpreter that does nothing."""
    return run_process([sys.executable, "-c", "pass"], env).wall_s


# kind -> (task, its time at reference speed in seconds)
CALIBRATIONS = {
    "compute": (compute_calibration, 0.012),
    "start": (start_calibration, 0.045),
}


class Calibrator:
    """Takes a calibration sample after a measured task once CAL_EVERY_S
    has passed since the last sample; a task's scale comes from the samples
    on either side of it."""

    def __init__(self, kind, env):
        self.task, self.ref = CALIBRATIONS[kind]
        self.env = env
        self.samples = []
        self.pending = []  # (result, index of the sample taken before it)
        self.sample()

    def sample(self):
        self.samples.append(self.task(self.env))
        self.last = time.perf_counter()

    def run(self, task, *args):
        """task(*args) -> JobResult; its scale is set by finish()."""
        result = task(*args)
        self.pending.append((result, len(self.samples) - 1))
        if time.perf_counter() - self.last >= CAL_EVERY_S:
            self.sample()
        return result

    def finish(self):
        """Set the scale of every result run so far."""
        self.sample()
        for result, i in self.pending:
            result.scale = self.ref / ((self.samples[i] + self.samples[i + 1]) / 2)
        self.pending = []

    def median_scale(self, first):
        """Reference seconds per second over the samples from index first."""
        return self.ref / statistics.median(self.samples[first:])


def job_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("VERMABRANCH_CACHE_DIR", None)
    return env


def cli_argv(argv):
    return [sys.executable, "-m", "vermabranch.cli"] + argv + ["--format", "json"]


def run_process(argv, env):
    """Run argv to completion; wall time, CPU time and max RSS of the child."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, cwd=ROOT
    )
    try:
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return JobResult(
        proc.returncode,
        out,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
    )


def run_fresh(argv, env):
    return run_process(cli_argv(argv), env)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

def load_reference(path=REFERENCE):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def check(job, code, out, reference):
    """Classify one job's output.

    Returns "ok", "known_defect" (the job still shows exactly the defect
    recorded at the seed commit) or a one-line reason for a failure.
    """
    ref = reference["jobs"].get(job)
    if ref is None:
        return "no reference for this job"
    seed = ref.get("seed_defect")
    if seed is not None:
        if code == ref["exit"]:
            return "ok"
        if code == seed["exit"] and sha256(out) == seed["sha256"]:
            return "known_defect"
        return "exit %d changed from the recorded defect" % code
    if code != ref["exit"]:
        return "exit %d, expected %d" % (code, ref["exit"])
    if sha256(out) != ref["sha256"]:
        return "envelope differs from the reference"
    return closed_form_violation(job, code, out, reference) or "ok"


def closed_form_violation(job, code, out, reference):
    """Checks that hold by the paper, independent of the recorded envelopes."""
    if code != 0:
        return None
    payload = json.loads(out)
    expected = reference["closed_forms"].get(job)
    if expected is not None and payload["census"]["closed_count"] != expected:
        return "census counts %d closed classes, the paper gives %d" % (
            payload["census"]["closed_count"],
            expected,
        )
    if job.startswith("verify") and payload["result"] != "identity holds":
        return "verify result %r" % payload["result"]
    return None


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def pass_items(workload, jobs, rng, cache_dir):
    """(phase, job, argv) in run order for one pass over the job list.

    On a caching workload a pass runs the list twice against one fresh
    cache directory: the first phase misses and stores, the second hits.
    """
    order = list(jobs)
    rng.shuffle(order)
    if not workload.uses_cache:
        return [("", job, job.split()) for job in order]
    items = [("miss", job, job.split() + ["--cache-dir", cache_dir]) for job in order]
    rng.shuffle(order)
    items += [("hit", job, job.split() + ["--cache-dir", cache_dir]) for job in order]
    return items


class Outcomes:
    """Checked outcomes of every job execution in a run."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.ok = 0
        self.known_defects = 0
        self.defect_jobs = set()
        self.failures = []

    def add(self, phase, job, result):
        self.attempted += 1
        outcome = check(job, result.code, result.out, self.reference)
        if outcome == "ok":
            self.ok += 1
        elif outcome == "known_defect":
            self.known_defects += 1
            self.defect_jobs.add(job)
        else:
            self.failures.append("%s %s: %s" % (phase, job, outcome))


class Samples:
    """Timings of one run, keyed by (phase, job)."""

    def __init__(self):
        self.by_job = {}

    def add(self, phase, job, result):
        self.by_job.setdefault((phase, job), []).append(result)

    def total(self, attr, scaled=True):
        """Sum over distinct jobs of the median per-job time."""
        return sum(
            statistics.median(getattr(r, attr) * (r.scale if scaled else 1) for r in rs)
            for rs in self.by_job.values()
        )

    def values(self, attr, scaled=True):
        return [getattr(r, attr) * (r.scale if scaled else 1) for rs in self.by_job.values() for r in rs]


def reset_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def run_passes(workload, seed, seconds, run_pass):
    """Run whole passes until another one would end after ``seconds``.

    ``run_pass(items, cache_dir)`` runs one pass (cache_dir is None unless
    the workload uses a cache); the first pass always runs.
    """
    rng = random.Random(seed)
    jobs = workload.jobs(seed)
    start = time.perf_counter()
    passes = 0
    while True:
        began = time.perf_counter()
        cache_dir = None
        if workload.uses_cache:
            cache_dir = os.path.join(WORK, "cache-%d" % passes)
            reset_dir(cache_dir)
        run_pass(pass_items(workload, jobs, rng, cache_dir), cache_dir)
        passes += 1
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return passes


def measure_setup(workload, env, calibrator):
    """SETUP_SAMPLES fresh set-up processes, run back to back."""
    argv = [sys.executable, "-c", SETUP_CODE] + workload.pairs
    results = [calibrator.run(run_process, argv, env) for _ in range(SETUP_SAMPLES)]
    if any(r.code != 0 for r in results):
        raise BenchError("set-up process exited %d" % max(r.code for r in results))
    return results


def untraced_run(workload, seed, seconds, outcomes):
    env = job_env()
    calibrator = Calibrator(workload.calibration, env)
    setup = measure_setup(workload, env, calibrator)
    samples = Samples()

    def run_pass(items, cache_dir):
        for phase, job, argv in items:
            result = calibrator.run(run_fresh, argv, env)
            outcomes.add(phase, job, result)
            samples.add(phase, job, result)

    passes = run_passes(workload, seed, seconds, run_pass)
    calibrator.finish()
    setup_s = statistics.median(r.wall_s * r.scale for r in setup)
    per_job = sorted(statistics.median(r.wall_s * r.scale for r in rs) for rs in samples.by_job.values())
    p50, p90 = (statistics.quantiles(per_job, n=10, method="inclusive")[i] for i in (4, 8))
    jobs = len(per_job)
    n = len(samples.values("wall_s"))
    cal = "%s calibration median %.5f s over %d samples, reference %.5f s" % (
        workload.calibration, statistics.median(calibrator.samples), len(calibrator.samples), calibrator.ref)
    return [
        ("wall_s", sum(per_job), "s",
         "sum over %d jobs of the median of %d passes; measured %.3f s, %s" % (jobs, passes, samples.total("wall_s", False), cal)),
        ("cpu_s", samples.total("cpu_s"), "s",
         "sum over %d jobs of the median child user+sys; measured %.3f s" % (jobs, samples.total("cpu_s", False))),
        ("peak_rss_mb", max(samples.values("rss_mb", False)), "MB", "max over %d job processes" % n),
        ("ok_ratio", outcomes.ok / outcomes.attempted, "ratio", "%d ok / %d attempted jobs" % (outcomes.ok, outcomes.attempted)),
        ("setup_s", setup_s, "s", "median of %d set-up processes building %d pairs" % (SETUP_SAMPLES, len(workload.pairs))),
        ("job_p50_s", p50, "s", "over the median latencies of %d jobs, %d samples" % (jobs, n)),
        ("job_p90_s", p90, "s", "over the median latencies of %d jobs, %d samples" % (jobs, n)),
    ]


def traced_run(workload, seed, seconds, outcomes, spans_path):
    import tracing

    runner = tracing.InProcessRunner(SRC)
    calibrator = Calibrator(workload.calibration, job_env())
    plain = Samples()
    traced = Samples()
    layer_passes = []

    def in_process(argv, tracer=None, job_id=None):
        return JobResult(*runner.run(argv, tracer, job_id))

    def run_pass(items, cache_dir):
        for phase, job, argv in items:
            result = calibrator.run(in_process, argv)
            outcomes.add(phase, job, result)
            plain.add(phase, job, result)
        if cache_dir is not None:
            reset_dir(cache_dir)  # the traced pass misses and hits like the untraced one
        first = len(calibrator.samples) - 1
        with runner.tracing() as tracer:
            for phase, job, argv in items:
                result = calibrator.run(in_process, argv, tracer, "%s %s" % (phase, job))
                outcomes.add(phase, job, result)
                traced.add(phase, job, result)
        layer_passes.append(tracer.aggregate(calibrator.median_scale(first)))

    passes = run_passes(workload, seed, seconds, run_pass)
    calibrator.finish()
    runner.write_spans(spans_path)
    untraced_wall = plain.total("wall_s")
    traced_wall = traced.total("wall_s")
    note = "in-process, sum of per-job medians over %d passes" % passes
    return tracing.per_layer_metrics(layer_passes) + [
        ("trace.untraced_wall_s", untraced_wall, "s", note),
        ("trace.traced_wall_s", traced_wall, "s", note),
        ("trace.overhead_s", traced_wall - untraced_wall, "s", "traced minus untraced wall"),
    ]


def print_report(args, outcomes, metrics):
    print("vermabranch benchmark: workload %s, seed %d, trace %d" % (args.workload, args.seed, args.trace))
    width = max(len(m[0]) for m in metrics)
    for name, value, unit, note in metrics:
        print("  %-*s %14.6f %-5s  %s" % (width, name, value, unit, note))
    missed = outcomes.attempted - outcomes.ok
    print(
        "  failed_ratio %.4f = %d jobs missing the documented contract / %d attempted"
        % (missed / outcomes.attempted, missed, outcomes.attempted)
    )
    if outcomes.defect_jobs:
        print(
            "  known defects (%d executions): %s"
            % (outcomes.known_defects, "; ".join(sorted(outcomes.defect_jobs)))
        )
    for line in outcomes.failures:
        print("  FAILED %s" % line)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "vermabranch", "cli.py")):
        print("error: no vermabranch sources under %s; run from a checkout root" % SRC, file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    outcomes = Outcomes(load_reference())
    os.makedirs(WORK, exist_ok=True)
    try:
        # Compile bytecode and warm the file cache before anything is timed.
        warm = run_process([sys.executable, "-c", "import vermabranch.cli"], job_env())
        if warm.code != 0:
            raise BenchError("importing vermabranch.cli exited %d" % warm.code)
        if args.trace:
            spans = os.path.join(WORK, "spans-%s-%d.jsonl" % (workload.name, args.seed))
            metrics = traced_run(workload, args.seed, args.seconds, outcomes, spans)
        else:
            metrics = untraced_run(workload, args.seed, args.seconds, outcomes)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print_report(args, outcomes, metrics)
    if args.trace:
        print("  spans written to %s" % os.path.relpath(spans, ROOT))
    result = {
        "correct": not outcomes.failures,
        "attempted": outcomes.attempted,
        "failed": len(outcomes.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, value, unit, _ in metrics},
    }
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
