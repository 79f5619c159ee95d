"""Steadiness check: two independent sets of benchmark runs per workload.

Run from the root of a checkout:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --workloads census --runs 5 --sets 1

Each set runs the command of ``BENCHMARK.json`` ``--runs`` times per
workload, each run with its own seed, workloads interleaved.  For every
end-to-end metric it prints each set's median and quartiles and the spread
(third minus first quartile, as a share of the median).  It flags a spread
above the metric's bound (not for ``setup_s``) or a second-set median worse
than the first by more than the bound, and marks spreads above a third of
the bound as unsteady.  Results go to ``.perfbench/steady.json``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    if proc.returncode != 0 or not last.startswith("{"):
        raise SystemExit("run failed (%s): exit %d\n%s%s" % (" ".join(argv), proc.returncode, proc.stdout, proc.stderr))
    result = json.loads(last)
    if not result["correct"]:
        raise SystemExit("incorrect output in %s:\n%s" % (" ".join(argv), proc.stdout))
    return {name: m["value"] for name, m in result["metrics"].items()}, proc.stdout.splitlines()[1]


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", help="comma list; default: all in BENCHMARK.json")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open("BENCHMARK.json", "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    values = {}  # (set, workload, metric) -> list
    notes = []  # the wall_s summary line of every run, with measured values
    for s in range(args.sets):
        for i in range(args.runs):
            seed = args.first_seed + s * args.runs + i
            for workload in workloads:
                got, note = run_once(bench["command"], workload, seed, bench["run_seconds"])
                notes.append("set %d seed %d %s:%s" % (s + 1, seed, workload, note))
                for m in metrics:
                    values.setdefault((s, workload, m["name"]), []).append(got[m["name"]])
                print("set %d run %d %s: %s" % (s + 1, i + 1, workload, " ".join("%s=%.4g" % kv for kv in sorted(got.items()))), flush=True)

    report = {}
    problems = 0
    for workload in workloads:
        print("\n%s" % workload)
        for m in metrics:
            bound = m["bound"]
            sets = [summarize(values[(s, workload, m["name"])]) for s in range(args.sets)]
            flags = []
            for k, st in enumerate(sets):
                if m["name"] != "setup_s" and st["spread"] > bound:
                    flags.append("FAIL spread set %d" % (k + 1))
                elif st["spread"] > bound / 3:
                    flags.append("unsteady set %d" % (k + 1))
            if len(sets) == 2 and sets[0]["median"]:
                change = (sets[1]["median"] - sets[0]["median"]) / sets[0]["median"]
                worse = change if m["better"] == "lower" else -change
                if worse > bound:
                    flags.append("FAIL second median worse by %.3f" % worse)
            problems += sum(f.startswith("FAIL") for f in flags)
            report.setdefault(workload, {})[m["name"]] = {"bound": bound, "sets": sets, "flags": flags}
            print(
                "  %-12s bound %.2f  %s  %s"
                % (
                    m["name"],
                    bound,
                    "  ".join(
                        "median %.5g [%.5g, %.5g] spread %.3f" % (st["median"], st["q1"], st["q3"], st["spread"])
                        for st in sets
                    ),
                    " ".join(flags),
                )
            )
    os.makedirs(".perfbench", exist_ok=True)
    with open(os.path.join(".perfbench", "steady.json"), "w", encoding="utf-8") as fh:
        json.dump({"runs": args.runs, "notes": notes, "values": {"|".join(map(str, k)): v for k, v in values.items()}, "report": report}, fh, indent=1)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
