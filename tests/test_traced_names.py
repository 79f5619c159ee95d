"""Every name that ``perfbench/tracing.py`` wraps is defined in vermabranch,
and its work counters read the results they are given.

A traced benchmark run (``--trace 1``) rebinds each name in ``TARGETS`` and
fails with ``KeyError`` when one is missing, so renaming or deleting a
traced function must update the harness too.  A counter in ``COUNTERS``
that cannot read a changed return value raises inside every traced call.
The per-layer list of ``BENCHMARK.json`` is the harness's metric list plus
its three trace-overhead metrics, so a rename there must update that file
too.  The harness file is only read here (compiled from its text; no
bytecode is written next to it).
"""

import importlib
import json
import os

from vermabranch import PairSpec, build_pair
from vermabranch.parabolic import enumerate_weyl_translates

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACING = os.path.join(ROOT, "perfbench", "tracing.py")


def _tracing_namespace() -> dict:
    with open(TRACING, encoding="utf-8") as fh:
        source = fh.read()
    namespace = {"__name__": "tracing", "__file__": TRACING}
    exec(compile(source, TRACING, "exec"), namespace)
    return namespace


def test_every_traced_name_is_defined():
    targets = _tracing_namespace()["TARGETS"]
    assert targets
    missing = []
    for module_name, names in targets.items():
        module = importlib.import_module("vermabranch." + module_name)
        for name in names:
            obj = module
            for part in name.split("."):
                obj = getattr(obj, part, None)
            if not callable(obj):
                missing.append("%s.%s" % (module_name, name))
    assert not missing, missing


def test_translate_counter_reads_a_census_enumeration():
    _, counter = _tracing_namespace()["COUNTERS"]["parabolic.enumerate_weyl_translates"]
    args = (build_pair(PairSpec("sl_s_glgl", p=2, q=2)), set())
    assert counter(args, enumerate_weyl_translates(*args)) == {"translates": 24, "distinct": 24}


def test_benchmark_per_layer_list_is_the_traced_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        per_layer = [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]
    overhead = [("trace." + key, "s") for key in ("untraced_wall_s", "traced_wall_s", "overhead_s")]
    assert per_layer == _tracing_namespace()["metric_names"]() + overhead
