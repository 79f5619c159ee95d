"""Alternating parent/change runs of the benchmark, each from a fresh copy.

Run from the root of a checkout:

    python3 tools/perf_ab.py --parent REV --change REV --workload census \
        --pairs 10 --seconds 27 --out ab-census.json

Pair k (k = 1..N) runs

    python3 perfbench/run.py --workload W --seed k --seconds S --trace 0

once for each revision, in a directory extracted for that run alone from
``git archive REV``, so that no run sees the ``.perfbench/`` directory, result
cache or byte code that another run left.  Odd seeds run the parent first,
even seeds the change.  FILE gets the final JSON line of every run and, per
metric, each side's median and quartiles (inclusive method), the pairs each
side won (ties count for neither) and whether the gain rule holds: the change
wins at least nine tenths of the pairs and the medians differ by more than the
parent's interquartile range.  Which direction is better, and the bound of an
end-to-end metric, come from ``BENCHMARK.json``; other metrics count lower as
better.  FILE is rewritten after every pair.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.getcwd()


def resolve(rev):
    out = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "--verify", rev + "^{commit}"],
        capture_output=True, text=True, check=True,
    )
    return out.stdout.strip()


def extract(rev, where):
    """Write the files of rev, from ``git archive``, into the directory where
    (made if missing)."""
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", "--format=tar", rev], capture_output=True, check=True
    ).stdout
    os.makedirs(where, exist_ok=True)
    subprocess.run(["tar", "-x", "-C", where], input=archive, check=True)


def run_once(rev, workload, seed, seconds):
    """Exit code and final JSON line of one run.py run in a fresh copy of rev."""
    with tempfile.TemporaryDirectory(prefix="perf_ab-") as copy:
        extract(rev, copy)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=copy, capture_output=True, text=True,
        )
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit("run.py at %s exited %d without a result:\n%s" % (rev, proc.returncode, proc.stderr))
    return proc.returncode, json.loads(lines[-1])


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent, change):
    """"faster", "slower" or "unresolved" for samples paired by position,
    lower reading better: a side is ahead when it wins at least nine tenths
    of the pairs (ties count for neither) and the medians differ by more than
    the parent's interquartile range."""
    q1, parent_median, q3 = spread(parent)
    gap = spread(change)[1] - parent_median
    if sum(c < p for p, c in zip(parent, change)) >= 0.9 * len(parent) and -gap > q3 - q1:
        return "faster"
    if sum(c > p for p, c in zip(parent, change)) >= 0.9 * len(parent) and gap > q3 - q1:
        return "slower"
    return "unresolved"


def summarize(pairs, directions, bounds):
    names = sorted({n for p in pairs for side in ("parent", "change") for n in p[side]["result"]["metrics"]})
    summary = {}
    for name in names:
        if not all(name in p[s]["result"]["metrics"] for p in pairs for s in ("parent", "change")):
            continue
        sign = -1.0 if directions.get(name, "lower") == "higher" else 1.0
        values = {s: [p[s]["result"]["metrics"][name]["value"] for p in pairs] for s in ("parent", "change")}
        wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
        losses = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        row = {"better": "higher" if sign < 0 else "lower", "change_wins": wins, "change_losses": losses}
        for side in ("parent", "change"):
            q1, median, q3 = spread(values[side])
            row.update({side + "_median": median, side + "_q1": q1, side + "_q3": q3})
        gain = sign * (row["parent_median"] - row["change_median"])
        row["gain_over_parent_iqr"] = gain > row["parent_q3"] - row["parent_q1"]
        signed = {side: [sign * v for v in values[side]] for side in ("parent", "change")}
        row["gain_shown"] = verdict(signed["parent"], signed["change"]) == "faster"
        if row["parent_median"]:
            row["worse_by_rel"] = -gain / abs(row["parent_median"])
        if name in bounds:
            row["bound_rel"] = bounds[name]
            row["within_bound"] = row.get("worse_by_rel", 0.0) <= bounds[name]
        summary[name] = row
    return summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    metrics = declared["end_to_end"] + declared.get("per_layer", [])
    directions = {m["name"]: m["better"] for m in metrics}
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    revs = {"parent": resolve(args.parent), "change": resolve(args.change)}
    report = {
        "parent": revs["parent"],
        "change": revs["change"],
        "workload": args.workload,
        "seconds": args.seconds,
        "command": "python3 perfbench/run.py --workload %s --seed K --seconds %g --trace 0"
        % (args.workload, args.seconds),
        "pairs": [],
    }
    for seed in range(1, args.pairs + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            code, result = run_once(revs[side], args.workload, seed, args.seconds)
            pair[side] = {"exit": code, "result": result}
            print("seed %d %s: exit %d, wall_s %s" % (
                seed, side, code, result["metrics"].get("wall_s", {}).get("value")), file=sys.stderr)
        report["pairs"].append(pair)
        report["correct_all"] = all(
            p[s]["result"]["correct"] for p in report["pairs"] for s in ("parent", "change")
        )
        report["summary"] = summarize(report["pairs"], directions, bounds)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
