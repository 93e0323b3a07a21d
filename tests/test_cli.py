"""End-to-end runs of the command line interface, in process."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import almostchar
from almostchar import symbols
from almostchar.cli import build_parser, main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mn_eval_exact_bytes(capsys):
    code, out, _ = run(
        capsys,
        ["mn", "eval", "--kind", "B", "--lambda", "[[1,1],[]]", "--cycles", "[-2]",
         "--no-timing"],
    )
    assert code == 0
    assert out == '{"terms":[{"halfexp":2,"num":-1,"den":1}]}\n'


def test_symbol_info(capsys):
    code, out, _ = run(
        capsys,
        ["symbol", "info", "--S", "0,1,2", "--T", "", "--kind", "B", "--no-timing"],
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["symbol"] == {"S": [0, 1, 2], "T": []}
    assert obj["rank"] == 2 and obj["defect"] == 3
    assert obj["family"]["Z1"] == [0, 1, 2]


def test_family_list_and_pairing_matrix(capsys):
    code, out, _ = run(capsys, ["family", "list", "--kind", "B", "--n", "2",
                                "--no-timing"])
    assert code == 0
    families = json.loads(out)
    assert sum(len(f["members"]) for f in families) > 0

    code, out, _ = run(
        capsys,
        ["family", "pairing-matrix", "--kind", "B", "--Z1", "0,1,2", "--no-timing"],
    )
    assert code == 0
    obj = json.loads(out)
    assert len(obj["members"]) == 4
    assert len(obj["matrix"]) == 4


def test_pairing_matrix_decomposes_no_member(capsys, monkeypatch):
    # each member's decomposition is read off its label: none is built as a
    # symbol and then decomposed again (16 members, once 2 * 16^2 calls)
    calls = []
    real = symbols.family_decompose

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(symbols, "family_decompose", counted)
    code, out, _ = run(capsys, ["family", "pairing-matrix", "--kind", "B", "--Z1", "0,1,2,3,4"])
    assert code == 0
    assert len(json.loads(out)["members"]) == 16
    assert calls == []


def test_family_involution_check_exit_zero(capsys):
    code, out, _ = run(
        capsys, ["family", "involution-check", "--kind", "B", "--n", "3",
                 "--no-timing"]
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_flambda_and_fab(capsys):
    code, out, _ = run(
        capsys,
        ["flambda", "--kind", "B", "--S", "0,1,2", "--T", "", "--cycles", "[-2]",
         "--no-timing"],
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["value"] == {"terms": [{"halfexp": 2, "num": 1, "den": 1}]}

    code, out, _ = run(
        capsys, ["fab", "--a", "2", "--b", "1", "--cycles", "[-2]", "--no-timing"]
    )
    assert code == 0
    assert json.loads(out)["value"]["terms"] == [{"halfexp": 2, "num": -2, "den": 1}]


def test_verify_prop713_exit_codes(capsys):
    code, out, _ = run(capsys, ["verify", "prop713", "--d", "1", "--no-timing"])
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"

    # for d=2 the computed value is exactly zero, so the claim fails
    code, out, _ = run(capsys, ["verify", "prop713", "--d", "2", "--no-timing"])
    assert code == 1
    obj = json.loads(out)
    assert obj["verdict"] == "fail"
    assert obj["value"] == {"terms": []}


def test_verify_recursion_exit_one(capsys):
    code, out, _ = run(
        capsys,
        ["verify", "recursion", "--a", "5", "--b", "4", "--cycles", "[8,12]",
         "--no-timing"],
    )
    assert code == 1
    assert json.loads(out)["verdict"] == "fail"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "prop713", "--d", "1"],
        ["verify", "prop714", "--d", "1"],
        ["verify", "recursion", "--a", "5", "--b", "4", "--cycles", "[8,12]"],
        ["verify", "orthogonality", "--n", "3"],
        ["verify", "m2", "--n", "4", "--kind", "both"],
        ["family", "involution-check", "--kind", "B", "--n", "4"],
        ["diagnose", "d-swap", "--n", "3"],
    ],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_a_timed_report_is_the_untimed_one_with_ms_last(capsys, argv):
    # the command line times each check it runs: every report document
    # (both of them for m2 --kind both) gains its own "ms" as its last key,
    # and nothing else about the output or the exit code changes
    code, out, _ = run(capsys, argv)
    untimed_code, untimed_out, _ = run(capsys, argv + ["--no-timing"])
    assert code == untimed_code
    docs, untimed = json.loads(out), json.loads(untimed_out)
    if argv[1] == "m2":
        assert len(docs) == len(untimed) == 2
    else:
        docs, untimed = [docs], [untimed]
    for doc, want in zip(docs, untimed):
        *items, (last, ms) = doc.items()
        assert last == "ms" and type(ms) is int and ms >= 0
        assert items == list(want.items())


def test_invalid_input_exit_two(capsys):
    code, _, err = run(
        capsys,
        ["mn", "eval", "--kind", "B", "--lambda", "not json", "--cycles", "[-2]"],
    )
    assert code == 2
    assert "invalid input" in err

    code, _, err = run(
        capsys,
        ["verify", "recursion", "--a", "6", "--b", "5", "--cycles", "[3,12,16]",
         "--no-timing"],
    )
    assert code == 2


def test_a_bad_bipartition_exits_two_before_the_rank_guard(capsys):
    # rank 3 is past --max-rank 2 too, but the bipartition is checked first
    code, out, err = run(
        capsys,
        ["mn", "eval", "--kind", "B", "--lambda", "[[1],[]]", "--cycles", "[1,1,1]",
         "--max-rank", "2"],
    )
    assert (code, out) == (2, "")
    assert "|lambda| = 1 but the element moves 3 points" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        # a rank-36 symbol of even defect
        (["flambda", "--kind", "B", "--S", "0,1,2,3,4,5,6,7,8,9,10,11", "--T", "",
          "--cycles", "[36]"], "is not a kind B symbol (defect must be odd)"),
        # family keys of rank 69 and 46 with the wrong number of singles
        (["family", "pairing-matrix", "--kind", "B", "--Z1", "0,5,10,15,20,25"],
         "kind B family needs an odd number of singles"),
        (["family", "pairing-matrix", "--kind", "D", "--Z1", "0,5,10,15,20"],
         "kind D family needs a nonzero even number of singles"),
        # family keys of rank 2 whose rows name no family
        (["family", "pairing-matrix", "--kind", "B", "--Z1", "1,2,3", "--Z2", "0",
          "--max-rank", "1"], "0 cannot be a double of a reduced symbol"),
        (["family", "pairing-matrix", "--kind", "B", "--Z1", "0,1,2", "--Z2", "1",
          "--max-rank", "1"], "singles and doubles must be disjoint"),
    ],
)
def test_bad_input_exits_two_before_the_rank_guard(capsys, argv, message):
    # each input is past --max-rank (20, or the 1 it gives) too, but it is
    # checked first
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert message in err


def test_resource_guards_exit_three(capsys):
    code, _, err = run(
        capsys,
        ["mn", "eval", "--kind", "B", "--lambda", "[[6,6,6,6],[6,6,6,6]]",
         "--cycles", "[48]", "--max-rank", "4"],
    )
    assert code == 3
    assert "max_rank" in err

    code, _, err = run(
        capsys,
        ["mn", "eval", "--kind", "B", "--lambda", "[[3,2],[1]]",
         "--cycles", "[-2,4]", "--memo-budget", "1"],
    )
    assert code == 3
    assert "memo budget" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["mn", "eval", "--kind", "B", "--lambda", "[[1.5],[]]", "--cycles", "[1]"],
        ["symbol", "info", "--S", "0,1.5,2", "--T", ""],
        ["mn", "eval", "--kind", "B", "--lambda", "[[1],[]]", "--cycles", "[true]"],
        ["mn", "eval", "--kind", "B", "--lambda", "[[1],[]]", "--cycles", "[1]",
         "--workers", "-1"],
        # a cycle of length zero
        ["mn", "eval", "--kind", "B", "--lambda", "[[1,1],[]]", "--cycles", "[-2,0]"],
        # a negative rank
        ["verify", "m2", "--n", "-2"],
        ["family", "involution-check", "--kind", "B", "--n", "-1"],
        ["diagnose", "d-swap", "--n", "-1"],
        # a zero ahead of a positive part, refused rather than dropped
        ["mn", "eval", "--kind", "B", "--lambda", "[[1,0,1],[]]", "--cycles", "[-2]"],
        ["mn", "eval", "--kind", "B", "--lambda", "[[0,2],[]]", "--cycles", "[-2]"],
        # a repeated entry in either row of a family label
        ["family", "pairing-matrix", "--kind", "B", "--Z1", "0,1,2", "--Z2", "5,5"],
        ["family", "pairing-matrix", "--kind", "B", "--Z1", "0,0,1,2,3"],
        # a negative entry in either row: symbols have nonnegative entries
        ["family", "pairing-matrix", "--kind", "B", "--Z1", "0,1,-2"],
        ["family", "pairing-matrix", "--kind", "B", "--Z1", "0,1,2", "--Z2", "-1"],
        # negative box sides whose product is within the rank limit
        ["enumerate", "pab", "-30", "-1"],
        ["fab", "--a", "-6", "--b", "-5", "--cycles", "[30]"],
        # a repeated entry in either symbol row
        ["symbol", "info", "--S", "0,0,1", "--T", ""],
        ["symbol", "info", "--S", "0,1,2", "--T", "1,1"],
        ["flambda", "--kind", "B", "--S", "0,1,2,2", "--T", "", "--cycles", "[2]"],
        ["flambda", "--kind", "B", "--S", "0,1,2", "--T", "1,1", "--cycles", "[2]"],
        # one negative box side
        ["enumerate", "pab", "2", "-1"],
        # a cuspidal parameter d that is not positive
        ["verify", "prop713", "--d", "0"],
        ["verify", "prop714", "--d", "-1"],
        # a non-integer entry in the second family row
        ["family", "pairing-matrix", "--kind", "B", "--Z1", "0,1,2", "--Z2", "1,y"],
    ],
)
def test_malformed_input_exit_two(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "invalid input" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["mn", "eval", "--kind", "B", "--lambda", "[[1],[2],[3]]", "--cycles", "[2]"],
         "--lambda must be a JSON pair of integer lists [[...],[...]], got [[1], [2], [3]]"),
        (["mn", "eval", "--kind", "B", "--lambda", '{"a":1}', "--cycles", "[2]"],
         "--lambda must be a JSON pair of integer lists [[...],[...]], got {'a': 1}"),
        (["mn", "eval", "--kind", "B", "--lambda", "[[1],[true]]", "--cycles", "[1]"],
         "--lambda must be a JSON pair of integer lists [[...],[...]], got [[1], [True]]"),
        (["mn", "eval", "--kind", "B", "--lambda", "[1,2]", "--cycles", "[2]"],
         "--lambda must be a JSON pair of integer lists [[...],[...]]"),
        (["family", "pairing-matrix", "--kind", "B", "--Z1", "0,1,x"],
         "--Z1 must be a comma separated row of integers"),
        (["symbol", "info", "--S", "0,2", "--T", "1,y"],
         "--T must be a comma separated row of integers"),
    ],
)
def test_malformed_input_names_the_flag_and_its_form(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "m2", "--n", "40"],
        ["enumerate", "pab", "30", "30"],
        ["family", "list", "--kind", "B", "--n", "40"],
        ["family", "involution-check", "--kind", "D", "--n", "40"],
        # Z1 = 0..18 names a rank-90 family
        ["family", "pairing-matrix", "--kind", "B", "--Z1", ",".join(map(str, range(19)))],
        # refused before the witness cycles, which grow with d, are built
        ["verify", "prop713", "--d", "100000"],
        ["verify", "prop714", "--d", "100000"],
    ],
)
def test_rank_guard_on_every_command(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 3
    assert out == ""
    assert "max_rank 20" in err


def test_cache_dir_is_refused(tmp_path):
    # traces are not stored between calls: the flag is refused by the
    # parser and nothing is written where it points
    directory = tmp_path / "store"
    env = dict(os.environ, PYTHONPATH=str(Path(almostchar.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "almostchar", "mn", "eval", "--kind", "B",
         "--lambda", "[[1],[]]", "--cycles", "[1]", "--cache-dir", str(directory)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "unrecognized arguments" in proc.stderr
    assert not directory.exists()


def test_deep_recursion_exit_three():
    cycles = json.dumps([1] * 1200)
    env = dict(os.environ, PYTHONPATH=str(Path(almostchar.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "almostchar", "mn", "eval", "--kind", "B",
         "--lambda", "[[1200],[]]", "--cycles", cycles, "--max-rank", "1200"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 3
    assert "resource guard" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_a_box_of_one_long_column_is_walked_without_deep_recursion():
    # P(1200, 1) has 1,201 pairs of 1,200 parts in all: a walk that recursed
    # once per part would pass the interpreter's recursion limit
    env = dict(os.environ, PYTHONPATH=str(Path(almostchar.__file__).parents[1]))
    for argv, check in (
        (["enumerate", "pab", "1200", "1"], lambda out: len(json.loads(out)) == 1201),
        (["fab", "--a", "1200", "--b", "1", "--cycles", "[1200]"],
         lambda out: json.loads(out)["value_at_1"] == "0/1"),
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "almostchar", *argv, "--max-rank", "1200", "--no-timing"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, (argv, proc.stderr)
        assert check(proc.stdout), argv


def test_orthogonality_memo_budget_exit_three():
    # the u = 1 recursion is held to --memo-budget like the trace memo
    env = dict(os.environ, PYTHONPATH=str(Path(almostchar.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "almostchar", "verify", "orthogonality", "--n", "6",
         "--memo-budget", "10"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "memo budget" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_golden_refresh_script_finds_the_package_in_a_plain_checkout(tmp_path):
    # README runs it as `python3 tests/regen_golden.py`, with no PYTHONPATH;
    # loaded under another name than __main__ it imports and writes nothing
    script = Path(__file__).resolve().parent / "regen_golden.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-c", f"import runpy; runpy.run_path({str(script)!r})"],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""


def _modules_loaded_by(argv) -> set:
    """The modules that importing the CLI and running `argv` load, in a
    fresh interpreter; the call must exit 0."""
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "from almostchar.cli import main\n"
        "try:\n"
        f"    code = main({argv!r})\n"
        "except SystemExit as e:\n"
        "    code = e.code\n"
        "print(json.dumps([code, sorted(set(sys.modules) - before)]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(almostchar.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0, proc.stderr
    return set(loaded)


def test_start_up_skips_unneeded_imports():
    # no command keeps a disk cache, so nothing loads hashlib; output is
    # JSON alone, so nothing loads csv; and the two records need no
    # dataclasses (which pulls in inspect): a call must load none of them
    loaded = _modules_loaded_by(["verify", "prop713", "--d", "1", "--no-timing"])
    assert loaded & {"dataclasses", "inspect", "hashlib", "csv"} == set()


ENGINE = {f"almostchar.{m}" for m in ("halflaurent", "shapes", "symbols", "hecke", "almost")}
TRACING = {"almostchar.hecke", "almostchar.almost"}


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (["--help"], ENGINE | {"fractions"}),
        (["symbol", "info", "--S", "0,2", "--T", "1", "--kind", "B"], TRACING),
        (["family", "list", "--kind", "B", "--n", "3"], TRACING),
        (["family", "pairing-matrix", "--kind", "B", "--Z1", "0,1,2"], TRACING),
        (["enumerate", "pab", "2", "2"], TRACING),
        (["mn", "eval", "--kind", "B", "--lambda", "[[1,1],[]]", "--cycles", "[-2]"],
         {"almostchar.symbols", "almostchar.almost"}),
        (["verify", "orthogonality", "--n", "2"], {"almostchar.symbols", "almostchar.almost"}),
    ],
)
def test_command_loads_only_the_modules_it_runs(argv, unloaded):
    # each command imports the engine names it calls, so a command that
    # computes no trace compiles neither hecke nor almost
    assert _modules_loaded_by(argv) & unloaded == set()


COMMANDS = [
    ["symbol", "info"], ["family", "list"], ["family", "pairing-matrix"],
    ["family", "involution-check"], ["mn", "eval"], ["flambda"], ["fab"],
    ["verify", "prop713"], ["verify", "prop714"], ["verify", "recursion"],
    ["verify", "orthogonality"], ["verify", "m2"], ["enumerate", "pab"],
    ["diagnose", "d-swap"],
]


@pytest.mark.parametrize("path", COMMANDS, ids=" ".join)
def test_every_command_answers_help(capsys, path):
    with pytest.raises(SystemExit) as exit_:
        main(path + ["-h"])
    assert exit_.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: almostchar {' '.join(path)} [-h]")
    assert "--no-timing" in out


def test_top_level_help_lists_the_groups_in_table_order(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["-h"])
    assert exit_.value.code == 0
    groups = list(dict.fromkeys(path[0] for path in COMMANDS))
    assert groups == ["symbol", "family", "mn", "flambda", "fab", "verify", "enumerate",
                      "diagnose"]
    assert "{" + ",".join(groups) + "}" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        # one output form: compact JSON
        ["mn", "eval", "--kind", "B", "--lambda", "[[1],[]]", "--cycles", "[1]",
         "--format", "csv"],
        # a symbol is --S/--T only
        ["symbol", "info", "--symbol", '{"S":[0,1,2],"T":[]}'],
        ["flambda", "--kind", "B", "--symbol", '{"S":[0,1,2],"T":[]}', "--cycles", "[-2]"],
        # a family is --Z1 (required) and --Z2 only, not a member
        ["family", "pairing-matrix", "--kind", "B", "--symbol", '{"S":[0,1,2],"T":[]}'],
        ["family", "pairing-matrix", "--kind", "B", "--S", "0,1,2", "--T", ""],
        ["family", "pairing-matrix", "--kind", "B", "--Z2", "1"],
        # a box is the positionals A B only
        ["enumerate", "pab", "--a", "2", "--b", "2"],
        ["enumerate", "pab", "2", "2", "--a", "3"],
        ["enumerate", "pab", "2"],
    ],
)
def test_a_removed_spelling_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: almostchar ")
    assert "error: " in captured.err


def test_readme_command_lines_parse():
    # every example in the README's "Command line" block is a spelling
    # the parser takes, so the docs cannot name a removed one
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()
             if line.startswith("almostchar ")]
    assert len(lines) >= 10
    parser = build_parser()
    for argv in lines:
        assert callable(parser.parse_args(argv[1:]).func), argv


def test_readme_library_block_prints_what_its_comments_say():
    # the README's "Library" block, run as it stands in a fresh interpreter
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ, PYTHONPATH=str(Path(almostchar.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "u\nfail\n"


def test_enumerate_pab(capsys):
    _, pos, _ = run(capsys, ["enumerate", "pab", "2", "2", "--no-timing"])
    assert len(json.loads(pos)) == 6

    _, unordered, _ = run(
        capsys, ["enumerate", "pab", "2", "2", "--unordered", "--no-timing"]
    )
    assert json.loads(unordered) == [[[2, 2], []], [[2, 1], [1]], [[2], [1, 1]]]

    code, out, err = run(capsys, ["enumerate", "pab", "3", "2", "--unordered", "--no-timing"])
    assert (code, out) == (2, "")
    assert "need a square box, not 3 x 2" in err


def test_worker_count_does_not_change_bytes(capsys):
    base = ["verify", "m2", "--n", "4", "--kind", "both", "--no-timing"]
    _, one, _ = run(capsys, base + ["--workers", "1"])
    _, two, _ = run(capsys, base + ["--workers", "2"])
    assert one == two


def test_diagnose_d_swap(capsys):
    code, out, _ = run(capsys, ["diagnose", "d-swap", "--n", "3", "--no-timing"])
    assert code == 0
    obj = json.loads(out)
    assert obj["asymmetries"] == []


def test_verify_m2_both_kinds(capsys):
    code, out, _ = run(capsys, ["verify", "m2", "--n", "3", "--kind", "both",
                                "--no-timing"])
    assert code == 0
    reports = json.loads(out)
    assert [r["kind"] for r in reports] == ["B", "D"]
    assert all(r["verdict"] == "pass" for r in reports)
