import json
import os
import subprocess
import sys

import pytest

from setasp import cli
from setasp.cli import main
from setasp.gz import GENERATOR_BOUNDS, differential_trials

from conftest import PROGRAMS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


GOLDEN_RUNS = [
    ("p1.solve.txt", ["solve", "p1.lp", "--min-int", "1", "--max-int", "2", "--show-sigma"]),
    ("p2.solve.txt", ["solve", "p2.lp", "--mode", "both", "--max-int", "3"]),
    ("p3.solve.txt", ["solve", "p3.lp", "--max-int", "6"]),
    ("p4.solve.txt", ["solve", "p4.lp", "--mode", "both", "--max-int", "3"]),
    ("count0.solve.txt", ["solve", "count0.lp", "--mode", "both", "--max-int", "3"]),
    ("headcount.solve.txt", ["solve", "headcount.lp", "--mode", "both", "--max-int", "2"]),
]


@pytest.mark.parametrize("golden,argv", GOLDEN_RUNS)
def test_documented_runs_match_their_golden_output(capsys, golden, argv):
    argv = [str(PROGRAMS / a) if a.endswith(".lp") else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out == (PROGRAMS / "expected" / golden).read_text()


def test_output_is_deterministic(capsys):
    argv = ["solve", str(PROGRAMS / "p1.lp"), "--min-int", "1", "--max-int", "2", "--show-sigma"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_sigma_witness_lines(capsys):
    code, out, _ = run(
        capsys,
        "solve",
        str(PROGRAMS / "p1.lp"),
        "--min-int",
        "1",
        "--max-int",
        "2",
        "--show-sigma",
    )
    assert code == 0
    assert "sigma({X : r(X)}) = {1; 2}" in out
    assert "sigma({X : q(X)}) = {1}" in out


def test_json_mode_tags_sets(capsys):
    code, out, _ = run(
        capsys,
        "solve",
        str(PROGRAMS / "p1.lp"),
        "--min-int",
        "1",
        "--max-int",
        "2",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    (model,) = payload["equilibrium"]["models"]
    atoms = model["atoms"]
    p_atom = next(a for a in atoms if a["pred"] == "p")
    assert p_atom["args"] == [{"set": [[1]]}]


def test_ground_command_prints_instances(capsys):
    code, out, _ = run(capsys, "ground", str(PROGRAMS / "p3.lp"), "--max-int", "5")
    assert code == 0
    assert "q(5) :- sum{X : p(X)} = 5." in out


def test_ground_command_prints_the_whole_grounding(capsys):
    # the search drops vacuous instances of its own copy, never these
    code, out, _ = run(capsys, "ground", str(PROGRAMS / "p1.lp"), "--min-int", "1", "--max-int", "2")
    assert code == 0
    assert len(out.splitlines()) == 45


def test_cross_check_on_file(capsys):
    code, out, _ = run(capsys, "cross-check", str(PROGRAMS / "p4.lp"), "--max-int", "3")
    assert code == 0
    assert "AGREE" in out


def test_cross_check_trials_json(capsys):
    code, out, _ = run(capsys, "cross-check", "--trials", "20", "--seed", "7", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["trials"] == 20
    assert payload["agreements"] == 20
    assert payload["disagreements"] == []


def test_generated_cross_check_reads_the_bound_flags(capsys, monkeypatch):
    seen = []

    def recorded(trials, seed, bounds=None):
        seen.append(bounds)
        return differential_trials(trials, seed, bounds)

    monkeypatch.setattr(cli, "differential_trials", recorded)
    code, out, _ = run(capsys, "cross-check", "--trials", "50", "--max-int", "0", "--json")
    assert code == 0
    assert seen == [GENERATOR_BOUNDS.with_(int_max=0)]
    expected = differential_trials(50, 0, GENERATOR_BOUNDS.with_(int_max=0))
    assert json.loads(out) == {"command": "cross-check", **expected}


@pytest.mark.parametrize(
    "flags", [["--trials", "7"], ["--seed", "1"], ["--trials", "7", "--seed", "1"]]
)
def test_cross_check_on_file_rejects_the_generator_flags(capsys, flags):
    code, out, err = run(capsys, "cross-check", str(PROGRAMS / "p4.lp"), *flags)
    assert code == 2
    assert out == ""
    assert "--trials and --seed" in err


def test_show_sigma_needs_the_equilibrium_engine(capsys):
    argv = ["solve", str(PROGRAMS / "p4.lp"), "--max-int", "3", "--show-sigma"]
    code, out, err = run(capsys, *argv, "--mode", "gz")
    assert code == 2
    assert out == ""
    assert "--show-sigma" in err
    code, out, _ = run(capsys, *argv, "--mode", "both")
    assert code == 0
    assert "  sigma({X : p(X), X != a}) = {b}" in out


def test_transform_takes_no_bound_flags(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["transform", str(PROGRAMS / "p2.lp"), "--max-int", "3"])
    assert exit_info.value.code == 2
    assert "--max-int" in capsys.readouterr().err


def test_atom_cap_exits_2(tmp_path, capsys):
    program = tmp_path / "choice.lp"
    program.write_text(
        "a(X) :- d(X), not b(X). b(X) :- d(X), not a(X).\n"
        + " ".join(f"d({i})." for i in range(19))
    )
    for mode in ("equilibrium", "gz"):
        code, _, err = run(capsys, "solve", str(program), "--mode", mode, "--max-int", "18")
        assert code == 2
        assert "(limit: atom_cap)" in err


def test_p1_solves_at_the_default_bounds(capsys):
    code, out, _ = run(capsys, "solve", str(PROGRAMS / "p1.lp"))
    golden = (PROGRAMS / "expected" / "p1.solve.txt").read_text().splitlines(keepends=True)
    assert code == 0
    assert out == "".join(line for line in golden if not line.lstrip().startswith("sigma"))


def test_set_layer_too_large_to_enumerate_exits_2_naming_the_variable(tmp_path, capsys):
    program = tmp_path / "q.lp"
    program.write_text("q({1}). p(S) :- not q(S).\n")
    code, out, err = run(capsys, "solve", str(program))
    assert code == 2
    assert out == ""
    assert "variable S of 'p(S) :- not q(S).'" in err
    assert err.rstrip().endswith("(limit: domain_cap)")


def test_transform_command(capsys):
    code, out, _ = run(capsys, "transform", str(PROGRAMS / "p2.lp"), "--position", "0")
    assert code == 0
    assert "exists V0 (V0 = count{X : p(X)}, V0 >= 1)" in out


def test_check_props_single_suite(capsys):
    code, out, _ = run(capsys, "check-props", "--suite", "collapse", "--trials", "30")
    assert code == 0
    assert "PASS" in out


@pytest.mark.parametrize("flags", [["--trials", "3"], ["--seed", "5"]])
def test_check_props_aggregates_rejects_the_generator_flags(capsys, flags):
    # the aggregates suite walks a fixed table, so neither flag would change it
    code, out, err = run(capsys, "check-props", "--suite", "aggregates", *flags)
    assert code == 2
    assert out == ""
    assert "--trials and --seed" in err


def test_check_props_rejects_zero_trials(capsys):
    # every suite runs at least one trial, so 0 would be accepted and not honoured
    code, out, err = run(capsys, "check-props", "--suite", "collapse", "--trials", "0")
    assert code == 2
    assert out == ""
    assert "error: --trials must be at least 1" in err


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.lp"
    bad.write_text("p(a")
    code, out, err = run(capsys, "solve", str(bad))
    assert code == 2
    assert "error:" in err


def test_negative_bound_flag_exits_2(capsys):
    code, out, err = run(capsys, "solve", str(PROGRAMS / "p3.lp"), "--max-depth", "-1")
    assert code == 2
    assert out == ""
    assert err == "error: max_herbrand_depth must be >= 0, got -1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["transform", str(PROGRAMS / "p2.lp"), "--position", "-1"],
        ["cross-check", "--trials", "-3"],
        ["check-props", "--trials", "-1"],
    ],
    ids=["transform-position", "cross-check-trials", "check-props-trials"],
)
def test_negative_count_flag_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {argv[-2]}: must be >= 0, got {argv[-1]}" in captured.err


def test_program_that_is_not_utf8_exits_2(tmp_path, capsys):
    program = tmp_path / "latin1.lp"
    program.write_bytes(b"p(1).\n% caf\xe9 \xff\n")
    code, out, err = run(capsys, "solve", str(program))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {program}: not UTF-8 text")


def test_missing_file_exits_2(capsys):
    code, out, err = run(capsys, "solve", "no-such-file.lp")
    assert code == 2


def test_gz_mode_rejects_non_gz_theory(capsys):
    code, out, err = run(
        capsys, "solve", str(PROGRAMS / "p1.lp"), "--mode", "gz", "--min-int", "1", "--max-int", "2"
    )
    assert code == 2
    assert "set name" in err


def test_set_arguments_without_the_set_layer_exit_2(tmp_path, capsys):
    program = tmp_path / "count.lp"
    program.write_text(
        "#function c/1 : {0; 1}. q(1). c({}) := 0.\n"
        "c(S) := 1 + c(S \\ {Y}) :- Y in S. p(N) :- N = c({X : q(X)}).\n"
    )
    flags = ["--min-int", "0", "--max-int", "1", "--max-set-card", "1", "--max-arity", "1"]
    code, out, err = run(capsys, "solve", str(program), *flags)
    assert code == 2
    assert out == ""
    assert "declared function c" in err and "--full-domain" in err
    code, out, _ = run(capsys, "solve", str(program), *flags, "--full-domain")
    assert code == 0
    assert "{p(1), q(1)}" in out


def test_python_m_setasp_runs_the_command_line(tmp_path):
    program = tmp_path / "threshold.lp"
    program.write_text("q(1). p :- count{X : q(X)} != a.\n")
    paths = [str(PROGRAMS.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run(
        [sys.executable, "-m", "setasp", "cross-check", str(program)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[-1] == "AGREE"
