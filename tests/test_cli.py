import contextlib
import glob
import hashlib
import io
import json
import os
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vermabranch import cli
from vermabranch.cli import (
    ENGINE_VERSION,
    ResultEnvelope,
    RunConfig,
    cache_lookup,
    config_from_args,
    main,
    parse_envelope,
    run_command,
    serialize_envelope,
)
from vermabranch.pairs import catalog_pairs


def run(argv):
    config = config_from_args(argv)
    return run_command(config)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def test_census_command_heisenberg():
    env, code = run(["census", "--pair", "sl_s_glgl:p=2,q=2", "--parabolic", "heisenberg"])
    assert code == 0
    assert env.payload["census"]["closed_count"] == 4


def test_census_command_resolves_nonstandard_translate():
    # an H= descriptor off the dominant chamber still censuses its type
    env, code = run(
        ["census", "--pair", "sl_s_glgl:p=2,q=2", "--parabolic", "H=0,1,-1,0"]
    )
    assert code == 0
    assert env.payload["census"]["closed_count"] == 4


def test_branch_command_bd_degree_two():
    env, code = run(["branch", "--pair", "so_down_so:m=4", "--parabolic", "borel", "--degree", "2"])
    assert code == 0
    summands = env.payload["summands"]
    assert len(summands) == 6
    assert all(s["multiplicity"] == 1 for s in summands)


def test_verify_law_command():
    env, code = run(["verify", "--law", "AA", "--n", "2", "--l", "1", "--degree", "3"])
    assert code == 0
    assert env.payload["result"] == "identity holds"


def test_verify_identity_command():
    env, code = run(
        ["verify", "--pair", "sp_down_gl:n=2", "--parabolic", "siegel", "--level", "3"]
    )
    assert code == 0 and env.payload["closed"] is True


def test_analyze_command_reports_gk():
    env, code = run(
        ["analyze", "--pair", "sl_s_glgl:p=2,q=2", "--parabolic", "H=1,0,0,-1"]
    )
    assert code == 0
    assert env.payload["closed"] is True and env.payload["gk_dim"] == 2
    assert env.payload["spot_check_iii"] is True


def test_mf_scan_command():
    env, code = run(["mf-scan", "--rank-bound", "3"])
    assert code == 0
    ids = {row["pair"] for row in env.payload["scan"]}
    assert "so_down_so:m=4" in ids
    assert "sl_s_glgl:p=2,q=2" in env.payload["scan_failing"]


def test_pairs_command_lists_catalog():
    env, code = run(["pairs", "--rank-bound", "2"])
    assert code == 0
    assert "sl_s_glgl:p=1,q=1" in env.payload["catalog"]


def test_branch_numeric_lambda():
    env, code = run(
        [
            "branch",
            "--pair", "so_down_so:m=4",
            "--parabolic", "borel",
            "--lambda", "1/2,1/3",
            "--degree", "1",
        ]
    )
    assert code == 0
    assert env.payload["base_offset"] == ["1/2", "1/3"]
    assert env.payload["distinct_infchar"] is True


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_unknown_pair_exits_two_and_lists_catalog():
    env, code = run(["census", "--pair", "nope:x=1", "--parabolic", "borel"])
    assert code == 2
    assert "catalog" in env.payload["error"]


@pytest.mark.parametrize("command", ["analyze", "census", "branch", "verify"])
def test_missing_pair_exits_two(command):
    env, code = run([command, "--parabolic", "borel"])
    assert code == 2
    assert env.payload["error"] == "%s needs --pair" % command


def test_incompatible_triple_exits_two():
    env, code = run(["branch", "--pair", "group_case:type=A1", "--parabolic", "1"])
    assert code == 2
    assert env.payload["summands"] is None  # no partial table


CLOSED_NOT_STABLE = (
    "parabolic is closed but not tau-stable; the engine branches only g^tau-compatible parabolics"
)
NOT_CLOSED = "restriction not discretely decomposable for this embedding"
# (pair, parabolic) -> the error of branch and verify; none of them is tau-stable,
# and the closed ones have a discretely decomposable restriction
INCOMPATIBLE = {
    ("so_down_so:m=5", "1"): CLOSED_NOT_STABLE,
    ("group_case:type=A1", "0"): CLOSED_NOT_STABLE,
    ("so_down_so:m=5", "H=1/2,1/2,3/2"): NOT_CLOSED,
}


@pytest.mark.parametrize("pair_id, parabolic", INCOMPATIBLE)
def test_incompatible_branch_envelope(monkeypatch, pair_id, parabolic):
    # compatible false, closed and gk_dim null, exit 2; compatibility checked once;
    # a closed parabolic is named as such, since its restriction does decompose
    from vermabranch import branching

    calls = []
    check = branching.compatibility_report
    monkeypatch.setattr(branching, "compatibility_report", lambda *a: calls.append(a) or check(*a))
    config = config_from_args(["branch", "--pair", pair_id, "--parabolic", parabolic])
    env, code = run_command(config)
    expected = cli._base_payload(config)
    expected.update(
        compatible=False, error=INCOMPATIBLE[pair_id, parabolic], result="precondition violation"
    )
    assert (code, env.payload, len(calls)) == (2, expected, 1)


@pytest.mark.parametrize("pair_id, parabolic", INCOMPATIBLE)
def test_incompatible_verify_message(pair_id, parabolic):
    message = INCOMPATIBLE[pair_id, parabolic]
    env, code = run(["verify", "--pair", pair_id, "--parabolic", parabolic])
    analyze, _ = run(["analyze", "--pair", pair_id, "--parabolic", parabolic])
    assert (code, env.payload["error"]) == (2, message)
    assert analyze.payload["closed"] == (message == CLOSED_NOT_STABLE)


@pytest.mark.parametrize("pair_id, canonical", [
    ("so_down_so:m=04", "m=4"),
    ("group_case:type=A01", "A1"),
    ("sl_s_glgl:p=02,q=2", "p=2"),
])
def test_pair_id_with_leading_zero_exits_two(pair_id, canonical):
    env, code = run(["analyze", "--pair", pair_id, "--parabolic", "borel"])
    assert code == 2
    assert env.payload["error"].startswith("cannot resolve pair %r" % pair_id)
    assert "not canonical: write %s)" % canonical in env.payload["error"]


def test_branch_checks_compatibility_once(monkeypatch):
    from vermabranch import branching, parabolic

    calls = []
    check = parabolic.compatibility_report
    for module in (branching, parabolic):
        monkeypatch.setattr(module, "compatibility_report", lambda *a: calls.append(a) or check(*a))
    env, code = run(["branch", "--pair", "so_down_so:m=4", "--parabolic", "borel", "--degree", "2"])
    assert (code, env.payload["compatible"], len(calls)) == (0, True, 1)


def test_bad_lambda_exits_two():
    env, code = run(
        ["branch", "--pair", "so_down_so:m=4", "--parabolic", "borel", "--lambda", "1,2,3"]
    )
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        "branch --pair sl_s_glgl:p=2,q=2 --parabolic borel --degree -1",
        "verify --law AA --n 2 --degree -2",
        "verify --pair sp_down_gl:n=2 --parabolic siegel --level -3",
        "verify --law AA --n 0",
        "verify --law AA --n 2 --l 7",
        "verify --law BD --n 3 --l 7",
        "verify --law DB --n 3 --l 1",
        "verify --law BD --n 0",
        "verify --law DB --n 0",
        "analyze --pair sl_s_glgl:p=2,q=2 --parabolic H=1,0",
        "analyze --pair sl_s_glgl:p=2,q=2 --parabolic H=1,0,0,-1,5",
        "analyze --pair so_down_so:m=4 --parabolic H=1",
        "mf-scan --rank-bound 7",
        "census --pair so_down_so:m=5,m=6 --parabolic borel",
        "pairs --rank-bound -1",
        "mf-scan --rank-bound -1",
        "pairs --rank-bound 7",
        "census --pair so_down_so:m=5,n=3 --parabolic borel",
        "analyze --pair group_case:type=A1,q=7 --parabolic borel",
        "analyze --pair so_down_so --parabolic borel",
        "analyze --pair sl_s_glgl:p=2,q=2 --parabolic 0,,2",
        "analyze --pair sl_s_glgl:p=2,q=2 --parabolic ,",
        "analyze --pair sl_s_glgl:p=2,q=2 --parabolic 0,0",
    ],
)
def test_invalid_sizes_laws_and_cartan_vectors_exit_two(argv, capsys):
    code = main(argv.split() + ["--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["result"] == "precondition violation"


@pytest.mark.parametrize(
    "descriptor,message",
    [
        ("0,,2", "empty simple root index in parabolic descriptor '0,,2'"),
        (",", "empty simple root index in parabolic descriptor ','"),
        ("0,0", "repeated simple root index 0 in parabolic descriptor '0,0'"),
    ],
)
def test_simple_root_lists_reject_empty_and_repeated_indices(descriptor, message, capsys):
    argv = ["analyze", "--pair", "sl_s_glgl:p=2,q=2", "--parabolic", descriptor]
    assert main(argv + ["--format", "json"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == message


@pytest.mark.parametrize(
    "argv,config_text",
    [
        ("branch --pair so_down_so:m=4 --lambda -3/2,1,0,0", None),
        ("branch --pair so_down_so:m=4 --degree x", None),
        ("branch --pair so_down_so:m=4 --config {missing}", None),
        ("branch --pair so_down_so:m=4 --config {cfg}", "degree = x\n"),
        ("branch --pair so_down_so:m=4 --config {cfg}", "format = xml\n"),
    ],
)
def test_parse_stage_errors_exit_two_with_envelope(argv, config_text, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    if config_text is not None:
        cfg.write_text(config_text)
    argv = argv.format(missing=tmp_path / "missing.cfg", cfg=cfg).split()
    code = main(argv + ["--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 2
    assert payload["result"] == "precondition violation"
    assert payload["command"] == "branch" and payload["error"]
    assert main(argv) == 2  # text format: the message goes to stderr
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("law", ["BD", "DB"])
def test_l_applies_to_law_aa_only(law):
    env, code = run(["verify", "--law", law, "--n", "3", "--l", "7"])
    assert code == 2 and env.payload["error"] == "--l applies to law AA only, not %s" % law


def test_mf_scan_rank_cap_message():
    env, code = run(["mf-scan", "--rank-bound", "7"])
    assert code == 2 and env.payload["error"] == "rank bound capped at 6"


def test_pairs_rank_bound_cap():
    assert run(["pairs", "--rank-bound", "6"])[1] == 0
    env, code = run(["pairs", "--rank-bound", "7"])
    assert code == 2 and env.payload["error"] == "rank bound capped at 6"


def test_census_rank_cap_message(capsys):
    argv = ["census", "--pair", "sl_s_glgl:p=4,q=4", "--parabolic", "borel"]
    assert main(argv + ["--format", "json"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "Weyl enumeration capped at rank 6"
    assert main(argv) == 2
    assert "error: Weyl enumeration capped at rank 6\n" in capsys.readouterr().out


@pytest.mark.parametrize("gtype", ["A", "Ax", "E6"])
def test_bad_group_case_type_names_the_accepted_form(gtype):
    env, code = run(["analyze", "--pair", "group_case:type=" + gtype])
    assert code == 2
    error = env.payload["error"]
    assert "group_case type %r is not a letter A-D followed by a rank" % gtype in error
    assert "invalid literal" not in error


class _Built(Exception):
    pass


def test_pair_rank_cap_is_checked_before_the_pair_is_built(monkeypatch):
    from vermabranch import pairs

    def building(**params):
        raise _Built(params)

    for name, kind in pairs.PAIR_KINDS.items():
        monkeypatch.setitem(pairs.PAIR_KINDS, name, kind._replace(root_data=building))
    above = ["sl_s_glgl:p=100,q=100", "so_down_so:m=25", "sp_down_gl:n=13",
             "gl_down_gl:n=13,l=1", "group_case:type=C7"]
    for pair_id in above:
        env, code = run(["analyze", "--pair", pair_id])
        assert code == 2 and "(ambient rank capped at 12)" in env.payload["error"], pair_id
    at_cap = ["sl_s_glgl:p=6,q=7", "so_down_so:m=24", "sp_down_gl:n=12",
              "gl_down_gl:n=12,l=1", "group_case:type=C6"]
    for pair_id in at_cap:
        with pytest.raises(_Built):
            pairs.build_pair(pairs.PairSpec.parse(pair_id))


def test_degree_cap_exits_two():
    env, code = run(
        ["branch", "--pair", "so_down_so:m=4", "--parabolic", "borel", "--degree", "40"]
    )
    assert code == 2


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_serialize_roundtrip():
    env, code = run(["branch", "--pair", "so_down_so:m=4", "--parabolic", "borel", "--degree", "1"])
    assert len(env.payload["summands"]) == 3  # BD at n = 2, degree 1
    text = serialize_envelope(env, "json")
    again = parse_envelope(text)
    assert again == env
    assert serialize_envelope(again, "json") == text


def test_serialize_empty_summands():
    env = ResultEnvelope(payload={"schema": "vb-schema-1", "summands": []})
    data = json.loads(serialize_envelope(env, "json"))
    assert data["summands"] == []


def test_rationals_serialized_as_strings():
    env, _ = run(
        ["branch", "--pair", "so_down_so:m=4", "--parabolic", "borel",
         "--lambda", "1/2,1/3", "--degree", "1"]
    )
    text = serialize_envelope(env, "json")
    assert '"1/2"' in text and "0.5" not in text


def test_determinism_byte_identical():
    argv = ["branch", "--pair", "sl_s_glgl:p=2,q=2", "--parabolic", "heisenberg", "--degree", "2"]
    env1, _ = run(argv)
    env2, _ = run(argv)
    assert serialize_envelope(env1, "json") == serialize_envelope(env2, "json")


def test_text_format_shows_the_error(capsys):
    assert main(["branch", "--pair", "so_down_so:m=4", "--degree", "-1"]) == 2
    out = capsys.readouterr().out
    assert "result: precondition violation" in out
    assert "error: degree must be non-negative, got -1" in out


def test_text_format_renders_offsets():
    env, _ = run(["branch", "--pair", "so_down_so:m=4", "--parabolic", "borel", "--degree", "1"])
    text = serialize_envelope(env, "text")
    assert "delta = lambda + (-1, +0)" in text


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

def test_cache_hit_is_byte_identical(tmp_path):
    argv = [
        "census", "--pair", "sp_down_gl:n=2", "--parabolic", "siegel",
        "--cache-dir", str(tmp_path),
    ]
    env1, _ = run(argv)
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 1
    env2, _ = run(argv)
    assert serialize_envelope(env1, "json") == serialize_envelope(env2, "json")


def test_cache_miss_on_changed_degree(tmp_path):
    base = ["branch", "--pair", "so_down_so:m=4", "--parabolic", "borel",
            "--cache-dir", str(tmp_path)]
    run(base + ["--degree", "1"])
    run(base + ["--degree", "2"])
    assert len(list(tmp_path.glob("*.json"))) == 2


def test_cache_ignores_other_engine_version(tmp_path):
    argv = ["census", "--pair", "sp_down_gl:n=2", "--parabolic", "siegel",
            "--cache-dir", str(tmp_path)]
    run(argv)
    path = next(tmp_path.glob("*.json"))
    payload = json.loads(path.read_text())
    payload["engine"] = "0.0.0"
    path.write_text(json.dumps(payload))
    config = config_from_args(argv)
    assert cache_lookup(config) is None


def test_cache_key_follows_engine_sources(tmp_path, monkeypatch):
    argv = ["census", "--pair", "sp_down_gl:n=2", "--parabolic", "siegel",
            "--cache-dir", str(tmp_path)]
    run(argv)
    config = config_from_args(argv)
    key = config.cache_key()
    assert cache_lookup(config) is not None
    monkeypatch.setattr(cli, "engine_digest", lambda: "0" * 64)
    assert config.cache_key() != key
    assert cache_lookup(config) is None


def _hashlib_key(config):
    text = "%s|%s|%s" % (cli.SCHEMA_VERSION, cli.engine_digest(), config.canonical_encoding())
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_cache_key_is_the_sha256_of_its_text():
    config = config_from_args(["census", "--pair", "sp_down_gl:n=2", "--parabolic", "siegel"])
    assert config.cache_key() == _hashlib_key(config)


def test_cache_key_falls_back_to_hashlib(monkeypatch):
    config = config_from_args(["branch", "--pair", "so_down_so:m=4", "--degree", "3"])
    builtin = config.cache_key()
    monkeypatch.setitem(sys.modules, "_sha256", None)  # import now raises ImportError
    monkeypatch.setitem(sys.modules, "_sha2", None)
    assert type(cli._sha256()) is type(hashlib.sha256())
    assert config.cache_key() == builtin == _hashlib_key(config)


def test_engine_digest_matches_the_glob_reference():
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(os.path.dirname(cli.__file__), "*.py"))):
        with open(path, "rb") as fh:
            h.update(os.path.basename(path).encode("utf-8") + b"\0" + fh.read() + b"\0")
    assert cli.engine_digest() == h.hexdigest()


@pytest.mark.parametrize(
    "root, reason",
    [
        ("file", "File exists"),  # a regular file
        ("file/sub", "Not a directory"),  # under a regular file
        ("sub", "No such file or directory"),  # in a working directory that is gone
    ],
)
def test_unusable_cache_dir_warns_and_keeps_the_envelope(tmp_path, monkeypatch, caplog, capsys, root, reason):
    argv = ["census", "--pair", "sp_down_gl:n=2", "--parabolic", "siegel", "--format", "json"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    (tmp_path / "file").write_text("")
    gone = tmp_path / "gone"
    gone.mkdir()
    monkeypatch.chdir(gone)
    gone.rmdir()
    assert main(argv + ["--cache-dir", str(tmp_path / root) if "file" in root else root]) == 0
    assert capsys.readouterr().out == expected
    (record,) = caplog.records
    assert record.levelname == "WARNING"
    assert record.getMessage().startswith("cannot store cache entry ")
    assert reason in record.getMessage()
    assert sorted(os.listdir(tmp_path)) == ["file"]


def test_cache_dir_with_a_nul_byte_warns(tmp_path, caplog, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("cache_dir = a\0b\n")
    assert main(["pairs", "--rank-bound", "1", "--config", str(cfg), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == "3 catalog pairs"
    assert "embedded null byte" in caplog.text


def test_cache_corruption_is_a_miss(tmp_path, caplog):
    argv = ["census", "--pair", "sp_down_gl:n=2", "--parabolic", "siegel",
            "--cache-dir", str(tmp_path)]
    run(argv)
    path = next(tmp_path.glob("*.json"))
    path.write_text("{not json")
    config = config_from_args(argv)
    assert cache_lookup(config) is None
    assert "corrupt cache entry %s ignored" % path in caplog.text
    env, code = run(argv)  # recomputes cleanly
    assert code == 0


def test_cache_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("VERMABRANCH_CACHE_DIR", str(tmp_path))
    run(["census", "--pair", "sp_down_gl:n=2", "--parabolic", "siegel"])
    assert len(list(tmp_path.glob("*.json"))) == 1


# ---------------------------------------------------------------------------
# config file and entry point
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command", cli.COMMANDS)
def test_flag_defaults_are_the_config_defaults(command):
    assert config_from_args([command]) == RunConfig(command)


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("pair_id = so_down_so:m=4\nparabolic = borel\ndegree = 2\n")
    config = config_from_args(["branch", "--config", str(cfg)])
    assert config.pair_id == "so_down_so:m=4"
    assert config.degree == 2
    # explicit flags win over the config file
    config2 = config_from_args(["branch", "--config", str(cfg), "--degree", "1"])
    assert config2.degree == 1


@pytest.mark.parametrize(
    "argv, unread",
    [
        ("pairs --seed 3", "--seed"),
        ("analyze --pair so_down_so:m=4 --lambda 1,2", "--lambda"),
        ("census --pair sl_s_glgl:p=2,q=2 --parabolic borel --degree 5", "--degree"),
        ("branch --pair so_down_so:m=4 --parabolic borel --level 3 --n 2", "--level, --n"),
        ("verify --pair sp_down_gl:n=2 --parabolic siegel --degree 3", "--degree"),
        ("verify --law AA --n 2 --parabolic borel", "--parabolic"),
        ("mf-scan --rank-bound 3 --pair so_down_so:m=4", "--pair"),
    ],
)
def test_a_flag_the_command_does_not_read_exits_two(argv, unread):
    env, code = run(argv.split())
    assert code == 2 and env.payload["error"] == "%s does not read %s" % (argv.split()[0], unread)


def test_an_empty_law_and_a_config_file_value_follow_the_rule(tmp_path):
    # --law "" is a law, so verify reads --n and --l, not the pair fields
    argv = ["verify", "--pair", "sp_down_gl:n=2", "--parabolic", "siegel", "--level", "2", "--l", "7", "--law", ""]
    env, code = run(argv)
    assert code == 2 and env.payload["error"] == "verify does not read --pair, --parabolic, --level"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("degree = 5\n")  # a config file value follows the same rule
    env, code = run(["census", "--pair", "so_down_so:m=4", "--config", str(cfg)])
    assert code == 2 and env.payload["error"] == "census does not read --degree"


def test_analyze_reads_the_seed():
    # no benchmark or golden job passes --seed, so the guard below cannot see it
    _, code = run(["analyze", "--pair", "so_down_so:m=4", "--parabolic", "borel", "--seed", "3"])
    assert code == 0


def test_every_benchmark_and_golden_job_reads_its_fields(monkeypatch):
    from tests.test_golden import INDEX
    from tests.test_parser_parity import _perfbench_jobs
    from vermabranch import commands

    monkeypatch.delenv(cli.CACHE_ENV_VAR, raising=False)
    monkeypatch.setattr(commands, "DISPATCH", {c: lambda config, payload: None for c in cli.COMMANDS})
    with open(INDEX, encoding="utf-8") as fh:
        jobs = _perfbench_jobs() + list(json.load(fh))
    assert len(jobs) == 261
    for job in jobs:
        env, code = run(job.split())
        assert code == 0, (job, env.payload.get("error"))


def test_main_writes_json(capsys):
    code = main(["branch", "--pair", "so_down_so:m=4", "--parabolic", "borel",
                 "--degree", "1", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "vb-schema-1"
    assert payload["engine"] == ENGINE_VERSION


# ---------------------------------------------------------------------------
# property: every input ends in exit 0 or 2 with a JSON envelope
# ---------------------------------------------------------------------------

_RANK3_PAIRS = [spec.id for spec in catalog_pairs(3)]
_DESCRIPTORS = [
    "borel", "full", "heisenberg", "siegel", "0", "1", "2", "0,2", "1,2", "5",
    "H=1,0,0,-1", "H=0,1,-1,0", "H=1,0", "H=1/2,1/3", "nonsense",
]
_FRACTIONS = st.sampled_from(["0", "1", "-1", "2", "1/2", "-3/2", "1/3", "4/3", "x", "1/0"])
_LAMBDAS = st.one_of(
    st.just("generic"),
    st.sampled_from(["1,0,0,0,-1", "1/3,4/3,1/3,-2/3,-4/3", "1/2,1/3", "1,0,-1", ""]),
    st.lists(_FRACTIONS, min_size=1, max_size=6).map(",".join),
)


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    command=st.sampled_from(["analyze", "census", "branch", "verify"]),
    pair=st.sampled_from(_RANK3_PAIRS),
    descriptor=st.sampled_from(_DESCRIPTORS),
    size=st.integers(-2, 4),
    lam=_LAMBDAS,
    joined=st.booleans(),
)
def test_cli_property_exit_zero_or_two_with_json(
    monkeypatch, command, pair, descriptor, size, lam, joined
):
    monkeypatch.delenv("VERMABRANCH_CACHE_DIR", raising=False)
    # a separate value such as -3/2,1 reads as an option and is rejected
    lam_args = ["--lambda=" + lam] if joined else ["--lambda", lam]
    argv = [command, "--pair", pair, "--parabolic", descriptor,
            "--degree", str(size), "--level", str(size), *lam_args,
            "--format", "json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    payload = json.loads(out.getvalue())
    assert code in (0, 2), payload.get("error")
    assert payload["command"] == command
