"""The verdict rule that `tools/perf_ab.py` and `tools/proc_ab.py` apply to
paired parent/change samples, on synthetic samples (lower reads better)."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "perf_ab.py")
_SPEC = importlib.util.spec_from_file_location("perf_ab", _PATH)
perf_ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_ab)

PARENT = [100.0 + k for k in range(10)]  # quartiles 102.25 and 106.75: IQR 4.5


def _shifted(shifts):
    return [p + s for p, s in zip(PARENT, shifts)]


@pytest.mark.parametrize(
    "change,expected",
    [
        (_shifted([-20] * 10), "faster"),
        (_shifted([20] * 10), "slower"),
        (list(PARENT), "unresolved"),  # ties count for neither side
        (_shifted([-20] * 9 + [30]), "faster"),  # 9 of 10 wins
        (_shifted([-20] * 8 + [30] * 2), "unresolved"),  # 8 of 10
        (_shifted([-20] * 9 + [0]), "faster"),  # 9 wins and a tie
        (_shifted([-20] * 8 + [0] * 2), "unresolved"),  # 8 wins and 2 ties
        (_shifted([-4] * 10), "unresolved"),  # every pair won, gap 4 inside the IQR
        (_shifted([-5] * 10), "faster"),  # gap 5 beyond it
        (_shifted([5] * 10), "slower"),
    ],
)
def test_verdict_on_ten_pairs(change, expected):
    assert perf_ab.verdict(PARENT, change) == expected


def test_below_ten_pairs_a_side_must_win_every_one():
    parent = PARENT[:7]
    assert perf_ab.verdict(parent, [p - 20 for p in parent]) == "faster"
    assert perf_ab.verdict(parent, [p - 20 for p in parent[:6]] + [parent[6] + 20]) == "unresolved"


def test_identical_noisy_samples_are_unresolved():
    # the same spread on both sides, paired in another order
    change = PARENT[5:] + PARENT[:5]
    assert perf_ab.verdict(PARENT, change) == "unresolved"
