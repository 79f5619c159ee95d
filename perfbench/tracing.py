"""In-process runs of the vermabranch CLI with per-layer spans.

The engine is not modified: ``InProcessRunner.tracing()`` rebinds the
public functions listed in ``TARGETS`` to timing wrappers, in the module
that defines them and in every ``vermabranch`` module that imported them
with ``from ... import``, and restores the originals afterwards.

A span is (id, parent id, job id, name, start, end).  Spans are kept in
memory and written out as JSON lines when the run ends.  A span's self time
is its duration minus the time covered by its child spans.  Per-layer times
are scaled to reference speed like the end-to-end ones (see run.py).
"""

import contextlib
import importlib
import io
import json
import os
import statistics
import sys
import time

MODULES = ("cli", "pairs", "liealg", "exactla", "parabolic", "branching")

TARGETS = {
    "cli": (
        "main",
        "config_from_args",
        "run_command",
        "cache_lookup",
        "cache_store",
        "serialize_envelope",
    ),
    "pairs": ("build_pair", "restricted_root_data", "tau_split"),
    "liealg": ("root_datum", "freudenthal_character", "weyl_group"),
    "exactla": ("nilpotent_subalgebra_test", "weight_decomposition", "Subspace.intersect"),
    "parabolic": (
        "closed_orbit_census",
        "enumerate_weyl_translates",
        "closedness_report",
        "compatibility_report",
        "condition_iii_spot_check",
        "parabolic_from_simple_subset",
        "parabolic_from_H",
    ),
    "branching": (
        "branch_multiplicities",
        "sym_power_characters",
        "restrict_finite_module",
        "decompose_character",
        "verify_character_identity",
        "closed_form_law",
        "genericity_check",
        "mf_scan",
    ),
}


def _cache_file_bytes(args, result):
    from vermabranch import cli

    root = cli._cache_dir(args[0])
    path = os.path.join(root, args[0].cache_key() + ".json") if root else None
    return {"bytes": os.path.getsize(path) if path and os.path.exists(path) else 0}


# Work counts recorded at a span's end:
# name -> (count keys, (args, result) -> {key: n}).  "translates" counts the
# distinct Weyl translates of the parameter vector, "distinct" the distinct
# parabolics among them; "closed" and "hits" are the numerators of RATIOS.
COUNTERS = {
    "parabolic.enumerate_weyl_translates": (
        ("translates", "distinct"),
        lambda a, r: {"translates": sum(len(ts) for ts in r[1].values()), "distinct": len(r[0])},
    ),
    "parabolic.closedness_report": (("closed",), lambda a, r: {"closed": int(r.closed)}),
    "liealg.freudenthal_character": (("weights",), lambda a, r: {"weights": len(r)}),
    "liealg.weyl_group": (("order",), lambda a, r: {"order": len(r)}),
    "branching.decompose_character": (("constituents",), lambda a, r: {"constituents": len(r)}),
    "branching.sym_power_characters": (
        ("terms",),
        lambda a, r: {"terms": sum(len(layer) for layer in r)},
    ),
    "cli.cache_lookup": (("hits",), lambda a, r: {"hits": int(r is not None)}),
    "cli.cache_store": (("bytes",), _cache_file_bytes),
    "cli.serialize_envelope": (("bytes",), lambda a, r: {"bytes": len(r.encode("utf-8"))}),
}

COUNT_UNITS = {"bytes": "B"}

# ratio name -> (numerator count, base count)
RATIOS = {
    "parabolic.closedness_report.closed_ratio": (
        "parabolic.closedness_report.closed",
        "parabolic.closedness_report.calls",
    ),
    "cli.cache_lookup.hit_ratio": ("cli.cache_lookup.hits", "cli.cache_lookup.calls"),
}


class Tracer:
    """Span recorder for one traced pass."""

    def __init__(self, spans):
        self.spans = spans  # shared list of finished spans of the whole run
        self.stack = []  # open spans: [id, name, start, child time]
        self.job = None
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.counts = {}

    def begin(self, name):
        span_id = len(self.spans) + len(self.stack)
        self.stack.append([span_id, name, time.perf_counter(), 0.0])

    def end(self):
        end = time.perf_counter()
        span_id, name, start, child = self.stack.pop()
        duration = end - start
        parent = self.stack[-1][0] if self.stack else None
        if self.stack:
            self.stack[-1][3] += duration
        self.spans.append((span_id, parent, self.job, name, start, end))
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - child

    def count(self, name, values):
        for key, n in values.items():
            full = "%s.%s" % (name, key)
            self.counts[full] = self.counts.get(full, 0) + n

    def wrap(self, name, fn):
        counter = COUNTERS.get(name, (None, None))[1]

        def traced(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end()
            if counter is not None:
                self.count(name, counter(args, result))
            return result

        return traced

    def aggregate(self, scale):
        """name -> value for this pass: calls, total_s, self_s and counts.

        Times are multiplied by ``scale`` (reference seconds per second).
        """
        out = {}
        for name, (calls, total, own) in self.stats.items():
            out[name + ".calls"] = calls
            out[name + ".total_s"] = total * scale
            out[name + ".self_s"] = own * scale
        out.update(self.counts)
        out["trace.spans"] = sum(calls for calls, _, _ in self.stats.values())
        return out


def metric_names():
    """(name, unit) of every per-layer metric, in report order."""
    names = [("harness.job.self_s", "s")]
    for module in MODULES:
        names.append(("%s.self_s" % module, "s"))
    for module in MODULES:
        for fn in TARGETS[module]:
            name = "%s.%s" % (module, fn)
            names += [(name + ".calls", "count"), (name + ".total_s", "s"), (name + ".self_s", "s")]
    for name, (keys, _) in COUNTERS.items():
        for key in keys:
            names.append(("%s.%s" % (name, key), COUNT_UNITS.get(key, "count")))
    names += [(ratio, "ratio") for ratio in RATIOS]
    names.append(("trace.spans", "count"))
    return names


def per_layer_metrics(passes):
    """Per-layer metrics: the median over traced passes of each per-pass value.

    Module self time is the sum of its functions' self times; the harness
    job span covers the in-process call of ``cli.main`` and output capture.
    """
    rows = []
    for stats in passes:
        row = dict(stats)
        for module in MODULES:
            row["%s.self_s" % module] = sum(
                v for k, v in stats.items() if k.startswith(module + ".") and k.endswith(".self_s")
            )
        for ratio, (num, base) in RATIOS.items():
            row[ratio] = row.get(num, 0) / row[base] if row.get(base) else 0.0
        rows.append(row)
    out = []
    for name, unit in metric_names():
        value = statistics.median(row.get(name, 0) for row in rows)
        note = "median of %d traced passes" % len(rows)
        if name in RATIOS:
            num, base = RATIOS[name]
            note = "%s / %s" % (num.rsplit(".", 1)[1], base)
        out.append((name, value, unit, note))
    return out


class InProcessRunner:
    """Runs CLI jobs through ``vermabranch.cli.main`` in this interpreter."""

    def __init__(self, src):
        if src not in sys.path:
            sys.path.insert(0, src)
        self.modules = {m: importlib.import_module("vermabranch." + m) for m in MODULES}
        self.spans = []

    def run(self, argv, tracer=None, job_id=None):
        """(exit code, stdout bytes, wall seconds) of one job."""
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        if tracer is not None:
            tracer.job = job_id
            tracer.begin("harness.job")
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.modules["cli"].main(argv + ["--format", "json"])
                except SystemExit as exc:  # argparse rejections
                    code = exc.code if isinstance(exc.code, int) else 1
        finally:
            if tracer is not None:
                tracer.end()
        return code, out.getvalue().encode("utf-8"), time.perf_counter() - start

    @contextlib.contextmanager
    def tracing(self):
        """Rebind every TARGETS function to a span wrapper for one pass."""
        tracer = Tracer(self.spans)
        package = [m for name, m in sys.modules.items() if name.split(".")[0] == "vermabranch"]
        restore = []
        try:
            for module, names in TARGETS.items():
                for name in names:
                    owner = self.modules[module]
                    attr = name
                    if "." in name:
                        cls, attr = name.split(".")
                        owner = getattr(owner, cls)
                    fn = owner.__dict__[attr]
                    wrapper = tracer.wrap("%s.%s" % (module, name), fn)
                    targets = [(owner, attr)] + [
                        (m, k) for m in package for k, v in vars(m).items() if v is fn and m is not owner
                    ]
                    for obj, key in targets:
                        setattr(obj, key, wrapper)
                        restore.append((obj, key, fn))
            yield tracer
        finally:
            for obj, key, fn in reversed(restore):
                setattr(obj, key, fn)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, job, name, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "job": job, "name": name, "start": start, "end": end}
                    )
                    + "\n"
                )
