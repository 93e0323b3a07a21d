"""End-to-end runs of the command line interface, in process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import almostchar
from almostchar.cli import main


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

    # the same symbol can come in as one JSON object
    code, out2, _ = run(
        capsys, ["symbol", "info", "--symbol", '{"S":[0,1,2],"T":[]}', "--no-timing"]
    )
    assert code == 0
    assert json.loads(out2)["rank"] == 2


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

    # the family can also be named by a member, as two rows or as one object
    by_rows = ["family", "pairing-matrix", "--kind", "B", "--S", "0,1,2", "--T", ""]
    by_object = ["family", "pairing-matrix", "--kind", "B", "--symbol", '{"S":[0,1,2],"T":[]}']
    code, rows_out, _ = run(capsys, by_rows)
    assert code == 0
    assert run(capsys, by_object) == (0, rows_out, "")
    assert rows_out == out


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
        ["symbol", "info", "--symbol", '{"S":[0,1.5,2],"T":[]}'],
        ["mn", "eval", "--kind", "B", "--lambda", "[[1],[]]", "--cycles", "[true]"],
        ["mn", "eval", "--kind", "B", "--lambda", "[[1],[]]", "--cycles", "[1]",
         "--workers", "-1"],
        # a cycle of length zero
        ["mn", "eval", "--kind", "B", "--lambda", "[[1,1],[]]", "--cycles", "[-2,0]"],
        # a negative rank
        ["verify", "m2", "--n", "-2"],
        ["family", "involution-check", "--kind", "B", "--n", "-1"],
        ["diagnose", "d-swap", "--n", "-1"],
        # one box side given both as a positional and as a flag
        ["enumerate", "pab", "2", "2", "--a", "3"],
        # a zero ahead of a positive part, refused rather than dropped
        ["mn", "eval", "--kind", "B", "--lambda", "[[1,0,1],[]]", "--cycles", "[-2]"],
        ["mn", "eval", "--kind", "B", "--lambda", "[[0,2],[]]", "--cycles", "[-2]"],
        # a repeated entry in either row of a family label
        ["family", "pairing-matrix", "--kind", "B", "--Z1", "0,1,2", "--Z2", "5,5"],
        ["family", "pairing-matrix", "--kind", "B", "--Z1", "0,0,1,2,3"],
        # a negative entry in either row: symbols have nonnegative entries
        ["family", "pairing-matrix", "--kind", "B", "--Z1", "0,1,-2"],
        ["family", "pairing-matrix", "--kind", "B", "--Z1", "0,1,2", "--Z2", "-1"],
        # one input named two ways
        ["symbol", "info", "--symbol", '{"S":[0,1,2],"T":[]}', "--S", "0,2", "--T", "1"],
        ["flambda", "--kind", "B", "--symbol", '{"S":[0,1,2],"T":[]}', "--S", "0,2",
         "--T", "1", "--cycles", "[-2]"],
        ["family", "pairing-matrix", "--kind", "B", "--symbol", '{"S":[0,1,2],"T":[]}',
         "--Z1", "0,1,2,3,4"],
        # negative box sides whose product is within the rank limit
        ["enumerate", "pab", "--a", "-30", "--b", "-1"],
        ["fab", "--a", "-6", "--b", "-5", "--cycles", "[30]"],
    ],
)
def test_malformed_input_exit_two(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert "invalid input" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "m2", "--n", "40"],
        ["enumerate", "pab", "30", "30"],
        ["family", "list", "--kind", "B", "--n", "40"],
        ["family", "involution-check", "--kind", "D", "--n", "40"],
        # Z1 = 0..18 names a rank-90 family
        ["family", "pairing-matrix", "--kind", "B", "--Z1", ",".join(map(str, range(19)))],
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
    # no command keeps a disk cache, so nothing loads hashlib; csv serves
    # only --format csv, and the two records need no dataclasses (which
    # pulls in inspect): a plain call must load none of them
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
    ],
)
def test_command_loads_only_the_modules_it_runs(argv, unloaded):
    # each command imports the engine names it calls, so a command that
    # computes no trace compiles neither hecke nor almost
    assert _modules_loaded_by(argv) & unloaded == set()


def test_output_formats(capsys):
    base = ["mn", "eval", "--kind", "B", "--lambda", "[[1,1],[]]",
            "--cycles", "[-2]", "--no-timing"]
    _, plain, _ = run(capsys, base + ["--format", "plain"])
    assert plain == 'terms  [{"halfexp":2,"num":-1,"den":1}]\n'
    _, csv_out, _ = run(capsys, base + ["--format", "csv"])
    assert csv_out.splitlines()[0] == "key,value"
    assert '""halfexp""' in csv_out


def test_enumerate_pab_positional_equals_flags(capsys):
    _, pos, _ = run(capsys, ["enumerate", "pab", "2", "2", "--no-timing"])
    _, flags, _ = run(capsys, ["enumerate", "pab", "--a", "2", "--b", "2",
                               "--no-timing"])
    assert pos == flags
    assert len(json.loads(pos)) == 6

    _, unordered, _ = run(
        capsys, ["enumerate", "pab", "2", "2", "--unordered", "--no-timing"]
    )
    assert json.loads(unordered) == [[[2, 2], []], [[2, 1], [1]], [[2], [1, 1]]]


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
