"""Workloads of the vermabranch benchmark as lists of CLI jobs.

A job is the argument list of one ``vermabranch`` invocation; the runner
appends ``--format json`` (and ``--cache-dir`` on the ``interactive``
workload).  The seed only shuffles job order and, on ``interactive``, draws
one (pair, parabolic) per catalog group; the engine sees nothing but the
jobs.

Jobs are kept under about 1.7 s and each fixed list under about 6.5 s (on
a shared 2-core x86 host, Python 3.11), so that a run fits four or more
passes and per-job medians reject the short bursts of a shared machine.
"""

import random

# Weyl-translate sweep, pattern classification, census union step and
# closedness_report; branching does no work.  sl_s_glgl:p=3,q=3 sweeps
# |W| = 720; so_down_so:m=5 with subset {1} is the outer-involution case in
# which "closed" and "tau-stable" differ.
CENSUS = [
    "census --pair sl_s_glgl:p=3,q=3 --parabolic heisenberg",
    "census --pair sl_s_glgl:p=3,q=3 --parabolic 0,2,4",
    "census --pair so_down_so:m=8 --parabolic 0,1",
    "census --pair so_down_so:m=7 --parabolic borel",
    "census --pair sp_down_gl:n=4 --parabolic siegel",
    "census --pair so_down_so:m=5 --parabolic 1",
    "census --pair sl_s_glgl:p=2,q=2 --parabolic borel",
]

# Symmetric-power convolution, Levi restriction and the Freudenthal peel;
# one closedness check per job.
BRANCH = [
    "branch --pair sp_down_gl:n=4 --parabolic siegel --degree 4",
    "branch --pair sp_down_gl:n=3 --parabolic siegel --degree 6",
    "branch --pair gl_down_gl:n=4,l=1 --parabolic borel --degree 8",
    "branch --pair so_down_so:m=8 --parabolic borel --degree 8",
    "branch --pair group_case:type=B2 --parabolic borel --degree 8",
    "branch --pair sl_s_glgl:p=2,q=3 --parabolic 1,2 --lambda 1,0,0,0,-1 --degree 4",
]

# Character identities (restricted-side Verma characters and the truncated
# inverse-Euler expansion) and the closed-form laws.
VERIFY = [
    "verify --pair sp_down_gl:n=3 --parabolic siegel --level 6",
    "verify --pair so_down_so:m=8 --parabolic borel --level 6",
    "verify --pair sl_s_glgl:p=2,q=3 --parabolic 1,2 --lambda 1,0,0,0,-1 --level 6",
    "verify --law AA --n 4 --l 1 --degree 8",
    "verify --law DB --n 4 --degree 8",
    "verify --law BD --n 4 --degree 8",
]

# Rank <= 3 catalog as (pair id, number of simple roots, symplectic), in
# groups of similar cost; the interactive draw takes one pair per group.
CATALOG_RANK3 = [
    [
        ("gl_down_gl:l=1,n=1", 1, False),
        ("gl_down_gl:l=2,n=1", 1, False),
        ("sl_s_glgl:p=1,q=1", 1, False),
    ],
    [
        ("gl_down_gl:l=1,n=2", 2, False),
        ("gl_down_gl:l=2,n=2", 2, False),
        ("gl_down_gl:l=3,n=2", 2, False),
        ("sl_s_glgl:p=1,q=2", 2, False),
    ],
    [
        ("gl_down_gl:l=1,n=3", 3, False),
        ("gl_down_gl:l=2,n=3", 3, False),
        ("gl_down_gl:l=3,n=3", 3, False),
        ("gl_down_gl:l=4,n=3", 3, False),
    ],
    [
        ("sl_s_glgl:p=1,q=3", 3, False),
        ("sl_s_glgl:p=2,q=2", 3, False),
    ],
    [
        ("so_down_so:m=4", 2, False),
        ("sp_down_gl:n=2", 2, True),
        ("group_case:type=A1", 2, False),
    ],
    [
        ("so_down_so:m=5", 3, False),
        ("so_down_so:m=6", 3, False),
        ("sp_down_gl:n=3", 3, True),
    ],
]
CATALOG_PAIRS = [entry for group in CATALOG_RANK3 for entry in group]

INTERACTIVE_FIXED = [
    "pairs --rank-bound 4",
    "mf-scan --rank-bound 6",
    "branch --pair sl_s_glgl:p=2,q=2 --parabolic heisenberg --degree 4",
    "branch --pair so_down_so:m=4 --parabolic borel --degree 4",
    "verify --law AA --n 2 --l 1 --degree 4",
    "verify --law BD --n 3 --degree 6",
]

# Invalid inputs whose documented exit code is 2.  The first four are the
# known CLI defects: at the seed they exit 1 (IndexError, ValueError) or
# silently analyse a truncated Cartan vector (exit 0).
KNOWN_DEFECTS = [
    "branch --pair sl_s_glgl:p=2,q=2 --parabolic borel --degree -1",
    "verify --pair sp_down_gl:n=2 --parabolic siegel --level -3",
    "verify --law AA --n 0",
    "analyze --pair sl_s_glgl:p=2,q=2 --parabolic H=1,0",
]
INVALID = KNOWN_DEFECTS + [
    "census --pair nosuch:n=2 --parabolic borel",
    "branch --pair sl_s_glgl:p=2,q=2 --parabolic borel --degree 13",
]


def descriptors(nsimple, symplectic):
    """Parabolic descriptors valid for a pair with this many simple roots."""
    out = ["borel", "full"] + [str(i) for i in range(nsimple)]
    if nsimple >= 2:
        out.append("heisenberg")
    if symplectic:
        out.append("siegel")
    return out


def interactive_pool():
    """Every job the interactive draw can produce."""
    jobs = list(INTERACTIVE_FIXED) + list(INVALID)
    for pair, nsimple, symplectic in CATALOG_PAIRS:
        for d in descriptors(nsimple, symplectic):
            for command in ("analyze", "census"):
                jobs.append("%s --pair %s --parabolic %s" % (command, pair, d))
    return jobs


def interactive_jobs(rng):
    """The fixed and invalid jobs, plus analyze and census on one
    (pair, parabolic) per catalog group, drawn by rng."""
    jobs = list(INTERACTIVE_FIXED) + list(INVALID)
    for group in CATALOG_RANK3:
        pair, nsimple, symplectic = rng.choice(group)
        d = rng.choice(descriptors(nsimple, symplectic))
        for command in ("analyze", "census"):
            jobs.append("%s --pair %s --parabolic %s" % (command, pair, d))
    return jobs


class Workload:
    def __init__(self, name, jobs, pairs, uses_cache=False, calibration="compute"):
        self.name = name
        self.jobs = jobs  # seed -> list of job strings
        self.pairs = pairs  # pair ids built by the set-up measurement
        self.uses_cache = uses_cache
        self.calibration = calibration  # kind of calibration task, see run.py


def _pairs_of(jobs):
    out = []
    for job in jobs:
        argv = job.split()
        if "--pair" in argv:
            pair = argv[argv.index("--pair") + 1]
            if pair not in out and not pair.startswith("nosuch"):
                out.append(pair)
    return out


def _fixed(jobs):
    return lambda seed: list(jobs)


WORKLOADS = {
    "census": Workload("census", _fixed(CENSUS), _pairs_of(CENSUS)),
    "branch": Workload("branch", _fixed(BRANCH), _pairs_of(BRANCH)),
    "verify": Workload("verify", _fixed(VERIFY), _pairs_of(VERIFY)),
    "interactive": Workload(
        "interactive",
        lambda seed: interactive_jobs(random.Random(seed)),
        [pair for pair, _, _ in CATALOG_PAIRS],
        uses_cache=True,
        calibration="start",
    ),
}
